//! The staged, sharded SkNN executor.
//!
//! The paper's protocols are a single linear scan: one function walks one
//! table over one C1↔C2 conversation. This module decomposes both
//! protocols into **stage operators** that run against one
//! [`ShardView`](crate::EncryptedDatabase) each —
//! [`SsedStage`](stages::SsedStage) (secure squared distances),
//! [`SbdStage`](stages::SbdStage) (bit decomposition) and
//! [`TopKStage`](stages::TopKStage) (SkNN_b candidate selection), with
//! [`CloudC1::mask_and_reveal`](crate::CloudC1) (the two-share reveal) at
//! the end — and drives them as a **scatter–gather plan**:
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
//!
//! Failure handling is one loop (`run_plan`): every unit of the plan —
//! each scatter task, and the gather + finalize tail — is a pure function
//! of its derived seed and its inputs, so a unit whose C2 call failed is
//! re-run, on the same session or re-pinned onto a survivor, with
//! bit-identical protocol behavior.

mod basic;
mod secure;
mod stages;

pub(crate) use basic::execute_basic;
pub(crate) use secure::execute_secure;

use crate::parallel::{parallel_map, ParallelismConfig};
use crate::profile::{OpCounters, QueryProfile, Stage};
use crate::retry::{RetryPolicy, RetryReport, RetryUnit, StageRetry};
use crate::seed::{derive_seeds, derived_rng};
use crate::{EncryptedDatabase, ShardView, SknnError};
use rand::RngCore;
use sknn_protocols::{KeyHolder, ProtocolError};

/// The C2 key-holder sessions a query plan executes over, with the
/// shard-to-session pinning.
///
/// Shard `s` is pinned to session `s mod sessions.len()`; the *primary*
/// session (index 0) additionally runs the gather and finalize stages
/// unless it was found dead during the scatter. A set of one session
/// reproduces the pre-sharding behavior of one conversation carrying the
/// whole query.
pub(crate) struct SessionSet<'a> {
    sessions: Vec<&'a dyn KeyHolder>,
}

impl<'a> SessionSet<'a> {
    /// Wraps an explicit list of sessions.
    ///
    /// # Errors
    /// [`ProtocolError::Invariant`] on an empty list — a query cannot run
    /// without C2.
    pub(crate) fn new(sessions: Vec<&'a dyn KeyHolder>) -> Result<Self, SknnError> {
        if sessions.is_empty() {
            return Err(SknnError::Protocol(ProtocolError::Invariant {
                message: "a SessionSet needs at least one session".to_string(),
            }));
        }
        Ok(SessionSet { sessions })
    }

    /// Number of sessions.
    pub(crate) fn len(&self) -> usize {
        self.sessions.len()
    }

    /// The session shard `shard` is pinned to.
    pub(crate) fn for_shard(&self, shard: usize) -> &'a dyn KeyHolder {
        self.sessions[shard % self.sessions.len()]
    }

    /// The session-set index shard `shard` is pinned to.
    pub(crate) fn index_for_shard(&self, shard: usize) -> usize {
        shard % self.sessions.len()
    }

    /// The session at set index `idx` (wrapping).
    pub(crate) fn session_at(&self, idx: usize) -> &'a dyn KeyHolder {
        self.sessions[idx % self.sessions.len()]
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

/// The next session index after `from` (wrapping) not listed in `dead`.
fn next_live(len: usize, from: usize, dead: &[usize]) -> Option<usize> {
    (1..=len)
        .map(|d| (from + d) % len)
        .find(|i| !dead.contains(i))
}

/// Serial recovery for one failed unit of the plan: re-executes `run` — a
/// pure function of the unit's derived seed and inputs, so a re-run is
/// bit-identical — against the same session for transient failures, or
/// re-pinned onto the next live session when the current one is dead.
/// Sleeps the policy's backoff between attempts, records dead sessions and
/// the successful re-run in `report`, and returns the last error once the
/// attempt budget (or the supply of live sessions) is exhausted.
fn retry_stage<T>(
    sessions: &SessionSet<'_>,
    unit: RetryUnit,
    pinned: usize,
    policy: &RetryPolicy,
    report: &mut RetryReport,
    first_error: SknnError,
    mut run: impl FnMut(&dyn KeyHolder) -> Result<T, SknnError>,
) -> Result<T, SknnError> {
    let mut current = pinned;
    let mut error = first_error;
    for attempt in 1..policy.max_attempts.max(1) {
        let Some(class) = classify_session_failure(&error) else {
            return Err(error);
        };
        if class == FailureClass::Dead {
            let dead = &mut report.dead_sessions;
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
        match run(sessions.session_at(current)) {
            Ok(value) => {
                report.stage_retries.push(StageRetry {
                    unit,
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

/// The plan both protocols run. The scatter runs `run_shard` once per
/// populated shard of `db` — in parallel, each against the session its
/// shard is pinned to — and the tail runs `run_gather` once over the
/// shards' outputs (in shard order) on the primary session, or on the
/// first session the scatter did not find dead. Every unit draws its
/// C1-side randomness from its own seed, derived from `rng` up front, and
/// a failed unit re-runs per `retry` ([`retry_stage`]): failed scatter
/// tasks serially after the parallel pass, the tail in place. Each unit's
/// profile is merged into the returned one only when it succeeds.
pub(crate) fn run_plan<S: Send, T, R: RngCore + ?Sized>(
    db: &EncryptedDatabase,
    sessions: &SessionSet<'_>,
    parallelism: ParallelismConfig,
    retry: &RetryPolicy,
    rng: &mut R,
    run_shard: impl Fn(&ShardTask<'_>, &dyn KeyHolder) -> Result<(QueryProfile, S), SknnError> + Sync,
    run_gather: impl Fn(&[S], &mut dyn RngCore, &dyn KeyHolder) -> Result<(QueryProfile, T), SknnError>,
) -> Result<(T, QueryProfile, RetryReport), SknnError> {
    // Tombstoned records are excluded before any protocol message is
    // formed: the protocol run is indistinguishable from one over a
    // database that never contained them. Shards tombstoning emptied drop
    // out of the plan.
    let views: Vec<_> = db
        .shard_views()
        .into_iter()
        .filter(|v| v.num_live() > 0)
        .collect();
    // One seed per scatter task, then the tail's.
    let seeds = derive_seeds(rng, views.len() + 1);
    // Ceiling for the same reason run_batch uses it: floor would strand
    // threads whenever shards don't divide the budget evenly.
    let inner = ParallelismConfig {
        threads: parallelism.threads.div_ceil(views.len()).max(1),
    };
    let gathered = views.len() > 1;
    let tasks: Vec<ShardTask<'_>> = views
        .into_iter()
        .zip(&seeds)
        .map(|(view, &seed)| ShardTask {
            view,
            parallelism: inner,
            seed,
            gathered,
        })
        .collect();
    let outs = parallel_map(parallelism.threads, &tasks, |_, task| {
        run_shard(task, sessions.for_shard(task.view.shard()))
    });

    // Serial recovery pass: re-run failed tasks per the policy, re-pinning
    // dead sessions' shards onto survivors.
    let mut profile = QueryProfile::new();
    let mut report = RetryReport::default();
    let mut shards = Vec::with_capacity(tasks.len());
    for (task, out) in tasks.iter().zip(outs) {
        let (p, value) = match out {
            Ok(ok) => ok,
            Err(e) => {
                let shard = task.view.shard();
                retry_stage(
                    sessions,
                    RetryUnit::Shard(shard),
                    sessions.index_for_shard(shard),
                    retry,
                    &mut report,
                    e,
                    |c2| run_shard(task, c2),
                )?
            }
        };
        profile.merge(&p);
        shards.push(value);
    }

    // The tail: pinned to the primary session unless the scatter found it
    // dead, and rebuilt from its own seed on every attempt.
    let gather_seed = seeds[tasks.len()];
    let gather = |c2: &dyn KeyHolder| run_gather(&shards, &mut derived_rng(gather_seed), c2);
    let pinned = (0..sessions.len())
        .find(|i| !report.dead_sessions.contains(i))
        .unwrap_or(0);
    let (p, value) = match gather(sessions.session_at(pinned)) {
        Ok(ok) => ok,
        Err(e) => retry_stage(
            sessions,
            RetryUnit::Gather,
            pinned,
            retry,
            &mut report,
            e,
            gather,
        )?,
    };
    profile.merge(&p);
    Ok((value, profile, report))
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
        let set = SessionSet::new(vec![&a, &b]).unwrap();
        let thin = |k: &dyn KeyHolder| k as *const dyn KeyHolder as *const ();
        assert_eq!(set.len(), 2);
        assert_eq!(thin(set.for_shard(0)), thin(set.session_at(0)));
        assert_eq!(
            thin(set.for_shard(1)),
            &b as *const LocalKeyHolder as *const ()
        );
        assert_eq!(thin(set.for_shard(2)), thin(set.session_at(0)));

        let single = SessionSet::new(vec![&a]).unwrap();
        assert_eq!(single.len(), 1);
        assert_eq!(thin(single.for_shard(7)), thin(single.session_at(0)));
    }

    #[test]
    fn empty_session_set_rejected() {
        assert!(matches!(
            SessionSet::new(Vec::new()),
            Err(SknnError::Protocol(ProtocolError::Invariant { .. }))
        ));
    }

    #[test]
    fn next_live_skips_dead_sessions_and_wraps() {
        assert_eq!(next_live(3, 2, &[]), Some(0));
        assert_eq!(next_live(3, 2, &[0]), Some(1));
        assert_eq!(next_live(3, 0, &[1]), Some(2));
        assert_eq!(next_live(2, 1, &[0, 1]), None);
    }
}
