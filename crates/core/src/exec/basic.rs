//! SkNN_b as a staged plan (Algorithm 5, scatter–gather form).
//!
//! The paper's protocol ships every encrypted distance to C2 in one
//! exchange; the plan scatters SSED and a per-shard top-k exchange across
//! the shard-pinned sessions, then gathers: one more top-k over the
//! ≤ k·S surviving candidates' *scalar* distance ciphertexts on the
//! primary session. Because C2 decrypts the same distance values either
//! way and both the per-shard and the merge selections order by
//! (distance, physical index), the result — including tie-breaks — is
//! identical to the paper's single scan. With one populated shard the
//! shard's winners are the answer and the gather is elided.
//!
//! A dying session surfaces as a typed error from the stage that called
//! it. Each scatter task and the gather + finalize tail is a pure function
//! of its derived seed and inputs, so [`super::run_plan`] can re-run a
//! failed one — on the same session or re-pinned onto a survivor — with
//! bit-identical protocol behavior.

use super::stages::{FinalizeStage, SsedStage, TopKStage};
use super::{record_ops, run_plan, SessionSet};
use crate::meter::OpMeter;
use crate::parallel::ParallelismConfig;
use crate::profile::{QueryProfile, Stage};
use crate::retry::{RetryPolicy, RetryReport};
use crate::roles::CloudC1;
use crate::{AccessPatternAudit, EncryptedQuery, MaskedResult, SknnError};
use rand::RngCore;
use sknn_paillier::Ciphertext;
use sknn_protocols::KeyHolder;

/// Runs the full SkNN_b plan over the given sessions (see the module
/// docs).
pub(crate) fn execute_basic<R: RngCore + ?Sized>(
    c1: &CloudC1,
    sessions: &SessionSet<'_>,
    query: &EncryptedQuery,
    k: usize,
    parallelism: ParallelismConfig,
    retry: &RetryPolicy,
    rng: &mut R,
) -> Result<(MaskedResult, QueryProfile, AccessPatternAudit, RetryReport), SknnError> {
    c1.validate_query(query, k)?;
    let db = c1.database();

    // ── Scatter: per-shard SSED + top-k on pinned sessions. Each shard
    // yields its winners' physical indices and, when a gather follows,
    // their scalar distance ciphertexts.
    let ((masked, top_k_physical), profile, report) = run_plan(
        db,
        sessions,
        parallelism,
        retry,
        rng,
        |task, c2| {
            let mut rng = task.rng();
            let shard = task.attributed_shard();
            let meter = OpMeter::new(c2);
            let mut p = QueryProfile::new();

            // Step 2: E(d_i) ← SSED(E(Q), E(t_i)) for every live record.
            let distances = p.time(Stage::DistanceComputation, || {
                SsedStage::for_basic(c1, task.parallelism).run(
                    &meter,
                    query,
                    task.view.live_indices(),
                    &mut rng,
                )
            })?;
            record_ops(&mut p, shard, Stage::DistanceComputation, meter.take());

            // Step 3: C2 decrypts the distances and returns the top-k index
            // list δ — the answer itself, or this shard's candidates.
            let stage = if task.gathered {
                Stage::ShardCandidates
            } else {
                Stage::RecordSelection
            };
            let winners = p.time(stage, || {
                let top = TopKStage::new(k).run(&meter, &distances)?;
                let cts = if task.gathered {
                    TopKStage::scalar_distances(c1, &meter, query, &distances, &top, &mut rng)?
                } else {
                    Vec::new()
                };
                let physical: Vec<usize> = top.iter().map(|&i| distances.live[i]).collect();
                Ok::<_, SknnError>((physical, cts))
            })?;
            record_ops(&mut p, shard, stage, meter.take());
            Ok((p, winners))
        },
        |shards, rng, c2| {
            let meter = OpMeter::new(c2);
            let mut p = QueryProfile::new();
            let top_k_physical: Vec<usize> = match shards {
                // One shard: its top-k is the answer.
                [(winners, _)] => winners.clone(),
                // ── Gather: one top-k over the ≤ k·S candidates. Sorting
                // by physical index restores the single scan's (distance,
                // storage position) total order, so equal-distance
                // tie-breaks match it exactly.
                shards => {
                    let mut candidates: Vec<(usize, &Ciphertext)> = shards
                        .iter()
                        .flat_map(|(physical, cts)| physical.iter().copied().zip(cts))
                        .collect();
                    candidates.sort_by_key(|&(physical, _)| physical);
                    let merge_cts: Vec<Ciphertext> =
                        candidates.iter().map(|&(_, ct)| ct.clone()).collect();
                    let top = p.time(Stage::RecordSelection, || {
                        meter.top_k_indices(&merge_cts, k)
                    })?;
                    p.record_ops(Stage::RecordSelection, meter.take());
                    top.iter().map(|&i| candidates[i].0).collect()
                }
            };

            // Steps 4–6: mask the chosen records and produce Bob's two
            // shares.
            let chosen: Vec<Vec<Ciphertext>> = top_k_physical
                .iter()
                .map(|&i| db.record(i).clone())
                .collect();
            let masked = p.time(Stage::Finalization, || {
                FinalizeStage.run(c1, &meter, &chosen, rng)
            })?;
            p.record_ops(Stage::Finalization, meter.take());
            Ok((p, (masked, top_k_physical)))
        },
    )?;

    let audit = AccessPatternAudit::basic_protocol(&top_k_physical);
    Ok((masked, profile, audit, report))
}
