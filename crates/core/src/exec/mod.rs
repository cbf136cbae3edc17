//! The staged, sharded SkNN executor.
//!
//! The paper's protocols are a single linear scan: one function walks one
//! table over one C1↔C2 conversation. This module decomposes both
//! protocols into **stage operators** that run against one
//! [`ShardView`](crate::EncryptedDatabase) each —
//! [`SsedStage`] (secure squared distances), [`SbdStage`] (bit
//! decomposition), [`TopKStage`] (SkNN_b candidate selection) and
//! [`FinalizeStage`] (the two-share reveal) — and drives them as a
//! **scatter–gather plan**:
//!
//! ```text
//!             scatter (one task per shard, pinned session)        gather
//!  SkNN_b:    SSED  →  per-shard top-k candidates        ─┐
//!             SSED  →  per-shard top-k candidates        ─┼→ top-k over the
//!             SSED  →  per-shard top-k candidates        ─┘  ≤ k·S candidates
//!                                                            → finalize
//!
//!  SkNN_m:    SSED → SBD → k oblivious extraction rounds ─┐
//!             SSED → SBD → k oblivious extraction rounds ─┼→ k SMIN_n/selection
//!             SSED → SBD → k oblivious extraction rounds ─┘  rounds over the
//!                                                            ≤ k·S candidates
//!                                                            → finalize
//! ```
//!
//! Every scatter task talks to the C2 session its shard is pinned to
//! ([`SessionSet`]), so with multiple sessions the per-shard stages
//! genuinely overlap on the wire. The gather runs on the primary session:
//! for SkNN_b a plain top-k over the surviving candidates' distance
//! ciphertexts, for SkNN_m the same oblivious SMIN_n/selection rounds as
//! the paper — but over the `k·S` candidates instead of all `n` records.
//! Results are bit-identical to the paper's linear scan (ties aside — see
//! the driver docs). Each protocol has exactly one plan: with a single
//! populated shard the scatter task's output already is the answer, so the
//! gather is elided and the paper's shape is the `shards = 1` special case
//! of the same code. The leakage delta of the sharded plan (per-shard
//! candidate counts, and nothing else) is analyzed in `DESIGN.md`
//! ("Sharded data plane").

mod basic;
mod secure;
mod stages;

pub use stages::{FinalizeStage, SbdStage, ShardDistances, SsedStage, TopKStage};

pub(crate) use basic::execute_basic;
pub(crate) use secure::execute_secure;

use crate::parallel::{parallel_map, ParallelismConfig};
use crate::profile::{OpCounters, QueryProfile, Stage};
use crate::retry::{RetryPolicy, RetryReport, ShardRetry};
use crate::seed::{derive_seeds, derived_rng};
use crate::{EncryptedDatabase, ShardView, SknnError};
use rand::RngCore;
use sknn_protocols::transport::SessionFailure;
use sknn_protocols::{KeyHolder, ProtocolError};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// The C2 key-holder sessions a query plan executes over, with the
/// shard-to-session pinning.
///
/// Shard `s` is pinned to session `s mod sessions.len()`; the *primary*
/// session (index 0) additionally runs the gather and finalize stages.
/// A [`SessionSet::single`] set reproduces the pre-sharding behavior of
/// one conversation carrying the whole query.
pub struct SessionSet<'a> {
    sessions: Vec<&'a dyn KeyHolder>,
}

impl<'a> SessionSet<'a> {
    /// Wraps an explicit list of sessions.
    ///
    /// # Panics
    /// Panics on an empty list — a query cannot run without C2.
    pub fn new(sessions: Vec<&'a dyn KeyHolder>) -> Self {
        assert!(
            !sessions.is_empty(),
            "a SessionSet needs at least one session"
        );
        SessionSet { sessions }
    }

    /// A set of one session: every shard (and the gather) uses `c2`.
    pub fn single(c2: &'a dyn KeyHolder) -> Self {
        SessionSet { sessions: vec![c2] }
    }

    /// Number of sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Always false (construction rejects empty sets); provided for
    /// `len`/`is_empty` API symmetry.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// The session shard `shard` is pinned to.
    pub fn for_shard(&self, shard: usize) -> &'a dyn KeyHolder {
        self.sessions[shard % self.sessions.len()]
    }

    /// The session-set index shard `shard` is pinned to.
    pub fn index_for_shard(&self, shard: usize) -> usize {
        shard % self.sessions.len()
    }

    /// The session at set index `idx` (wrapping), for failover re-pinning.
    pub fn session_at(&self, idx: usize) -> &'a dyn KeyHolder {
        self.sessions[idx % self.sessions.len()]
    }

    /// The primary session: runs the gather merge and the finalize stage.
    pub fn primary(&self) -> &'a dyn KeyHolder {
        self.sessions[0]
    }
}

/// How a session failure constrains the re-run, from the executor's view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FailureClass {
    /// The session's connection is gone — re-pin onto a survivor.
    Dead,
    /// The failure may be transient (timeout, one corrupted exchange) —
    /// the same session may be retried.
    Transient,
}

/// Classifies an error as a session failure, or `None` for genuine
/// protocol/validation errors that no amount of retrying fixes. The
/// classification is purely structural (typed variants, no message
/// sniffing): only a closed connection means the session is dead.
pub(crate) fn classify_session_failure(e: &SknnError) -> Option<FailureClass> {
    match e {
        SknnError::Protocol(ProtocolError::TransportClosed) => Some(FailureClass::Dead),
        SknnError::Protocol(ProtocolError::Transport { .. }) => Some(FailureClass::Transient),
        _ => None,
    }
}

/// Runs `f`, converting the session layer's documented fail-stop — an
/// unwind carrying a typed [`SessionFailure`] payload — into a typed
/// [`SknnError`]. Any other panic payload is a genuine bug and is
/// propagated unchanged. This is the boundary that makes scatter tasks
/// restartable: transport death inside a `KeyHolder` method (whose trait
/// signature has no error channel) surfaces here as a value.
pub(crate) fn run_contained<T>(f: impl FnOnce() -> Result<T, SknnError>) -> Result<T, SknnError> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => match payload.downcast::<SessionFailure>() {
            Ok(failure) => Err(SknnError::Protocol(ProtocolError::from(failure.error))),
            Err(other) => resume_unwind(other),
        },
    }
}

/// The next session index after `from` (wrapping) not listed in `dead`.
fn next_live(len: usize, from: usize, dead: &[usize]) -> Option<usize> {
    (1..=len)
        .map(|d| (from + d) % len)
        .find(|i| !dead.contains(i))
}

/// Serial recovery for one failed scatter task: re-executes `run` — a pure
/// function of the shard's derived seed, so a re-run is bit-identical —
/// against the same session for transient failures, or re-pinned onto the
/// next live session when the pinned one is dead. Sleeps the policy's
/// backoff between attempts, records every re-run in `report`, and returns
/// the last error once the attempt budget (or the supply of live sessions)
/// is exhausted.
fn retry_shard_stage<T>(
    sessions: &SessionSet<'_>,
    shard: usize,
    policy: &RetryPolicy,
    dead: &mut Vec<usize>,
    report: &mut RetryReport,
    first_error: SknnError,
    mut run: impl FnMut(&dyn KeyHolder) -> Result<T, SknnError>,
) -> Result<T, SknnError> {
    let pinned = sessions.index_for_shard(shard);
    let mut current = pinned;
    let mut error = first_error;
    for attempt in 1..policy.max_attempts.max(1) {
        let Some(class) = classify_session_failure(&error) else {
            return Err(error);
        };
        if class == FailureClass::Dead {
            if !dead.contains(&current) {
                dead.push(current);
            }
            match next_live(sessions.len(), current, dead) {
                Some(next) => current = next,
                // Every session is dead: nothing left to fail over to.
                None => return Err(error),
            }
        }
        let backoff = policy.backoff_before(attempt);
        if !backoff.is_zero() {
            std::thread::sleep(backoff);
        }
        match run_contained(|| run(sessions.session_at(current))) {
            Ok(value) => {
                report.shard_retries.push(ShardRetry {
                    shard,
                    from_session: pinned,
                    to_session: current,
                    error: error.to_string(),
                });
                return Ok(value);
            }
            Err(e) => error = e,
        }
    }
    Err(error)
}

/// One scatter task: a populated shard, its share of the thread budget,
/// its derived seed, and whether a gather merges its output with other
/// shards'.
pub(crate) struct ShardTask<'v> {
    pub(crate) view: ShardView<'v>,
    pub(crate) parallelism: ParallelismConfig,
    seed: u64,
    /// `false` when this is the only populated shard: its output is the
    /// answer and no gather runs.
    pub(crate) gathered: bool,
}

impl ShardTask<'_> {
    /// The task's C1-side randomness, rebuilt from the derived seed on
    /// every attempt so a re-run replays the same coins.
    pub(crate) fn rng(&self) -> impl RngCore {
        derived_rng(self.seed)
    }

    /// The shard this task's op counters are credited to: its own when a
    /// gather follows, none when its work is the whole query (then it
    /// records under the paper's stage names, like the gather does).
    pub(crate) fn attributed_shard(&self) -> Option<usize> {
        self.gathered.then(|| self.view.shard())
    }
}

/// Records `counters` under `stage`, per shard when `shard` is set.
pub(crate) fn record_ops(
    profile: &mut QueryProfile,
    shard: Option<usize>,
    stage: Stage,
    counters: OpCounters,
) {
    match shard {
        Some(shard) => profile.record_shard_ops(shard, stage, counters),
        None => profile.record_ops(stage, counters),
    }
}

/// The scatter half every plan shares: runs `run_shard` once per populated
/// shard of `db` — in parallel, each against the session its shard is
/// pinned to — then re-runs failed tasks serially per `retry`
/// ([`retry_shard_stage`]). Each task is a pure function of (its
/// [`ShardTask`], the session), so a re-run on any session is
/// bit-identical. Task profiles are merged into `profile`; outputs come
/// back in shard order, one per populated shard.
pub(crate) fn scatter<T: Send, R: RngCore + ?Sized>(
    db: &EncryptedDatabase,
    sessions: &SessionSet<'_>,
    parallelism: ParallelismConfig,
    retry: &RetryPolicy,
    rng: &mut R,
    profile: &mut QueryProfile,
    run_shard: impl Fn(&ShardTask<'_>, &dyn KeyHolder) -> Result<(QueryProfile, T), SknnError> + Sync,
) -> Result<(Vec<T>, RetryReport), SknnError> {
    // Tombstoned records are excluded before any protocol message is
    // formed: the protocol run is indistinguishable from one over a
    // database that never contained them. Shards tombstoning emptied drop
    // out of the plan.
    let views: Vec<_> = db
        .shard_views()
        .into_iter()
        .filter(|v| v.num_live() > 0)
        .collect();
    let seeds = derive_seeds(rng, views.len());
    // Ceiling for the same reason run_batch uses it: floor would strand
    // threads whenever shards don't divide the budget evenly.
    let inner = ParallelismConfig {
        threads: parallelism.threads.div_ceil(views.len()).max(1),
    };
    let gathered = views.len() > 1;
    let tasks: Vec<ShardTask<'_>> = views
        .into_iter()
        .zip(seeds)
        .map(|(view, seed)| ShardTask {
            view,
            parallelism: inner,
            seed,
            gathered,
        })
        .collect();
    let outs = parallel_map(parallelism.threads, &tasks, |_, task| {
        run_contained(|| run_shard(task, sessions.for_shard(task.view.shard())))
    });

    // Serial recovery pass: re-run failed tasks per the policy, re-pinning
    // dead sessions' shards onto survivors.
    let mut report = RetryReport::default();
    let mut dead: Vec<usize> = Vec::new();
    let mut results = Vec::with_capacity(tasks.len());
    for (task, out) in tasks.iter().zip(outs) {
        let (p, value) = match out {
            Ok(ok) => ok,
            Err(e) => retry_shard_stage(
                sessions,
                task.view.shard(),
                retry,
                &mut dead,
                &mut report,
                e,
                |c2| run_shard(task, c2),
            )?,
        };
        profile.merge(&p);
        results.push(value);
    }
    report.dead_sessions = dead;
    Ok((results, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sknn_paillier::Keypair;
    use sknn_protocols::LocalKeyHolder;

    #[test]
    fn shard_to_session_pinning_is_round_robin() {
        let mut rng = StdRng::seed_from_u64(701);
        let (_, sk) = Keypair::generate(96, &mut rng).split();
        let a = LocalKeyHolder::new(sk.clone(), 1);
        let b = LocalKeyHolder::new(sk, 2);
        let set = SessionSet::new(vec![&a, &b]);
        let thin = |k: &dyn KeyHolder| k as *const dyn KeyHolder as *const ();
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
        assert_eq!(thin(set.for_shard(0)), thin(set.primary()));
        assert_eq!(
            thin(set.for_shard(1)),
            &b as *const LocalKeyHolder as *const ()
        );
        assert_eq!(thin(set.for_shard(2)), thin(set.primary()));

        let single = SessionSet::single(&a);
        assert_eq!(single.len(), 1);
        assert_eq!(thin(single.for_shard(7)), thin(single.primary()));
    }

    #[test]
    #[should_panic(expected = "at least one session")]
    fn empty_session_set_rejected() {
        let _ = SessionSet::new(Vec::new());
    }
}
