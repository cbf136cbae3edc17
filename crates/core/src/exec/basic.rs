//! SkNN_b — the basic secure k-nearest-neighbor protocol (Algorithm 5).
//!
//! Cloud C1 computes every encrypted squared distance with SSED, ships them
//! to cloud C2, which decrypts them, picks the `k` smallest and returns
//! their indices. C1 then masks the corresponding records and the usual
//! two-share reveal delivers them to Bob.
//!
//! This protocol is efficient — its cost is dominated by the `n·m` secure
//! multiplications inside SSED and is essentially independent of `k`
//! (Figure 2(c)) — but it deliberately trades security for that speed: C2
//! learns every plaintext distance, and both clouds learn which records
//! were returned (the data-access pattern).
//!
//! It runs as one scatter–gather plan: SSED and a per-shard top-k exchange
//! are scattered across the shard-pinned sessions, then one more top-k over
//! the ≤ k·S surviving candidates' *scalar* distance ciphertexts is
//! gathered on the primary session. Because C2 decrypts the same distance
//! values either way and both the per-shard and the merge selections order
//! by (distance, physical index), the result — including tie-breaks — is
//! identical to the paper's single scan. With one populated shard the
//! shard's winners are the answer and the gather is elided. With packing
//! configured the SSED stage and the distance shipment of the selection
//! step run σ values per ciphertext; results are identical to the scalar
//! path.
//!
//! A dying session surfaces as a typed error from the stage that called
//! it. Each scatter task and the gather + finalize tail is a pure function
//! of its derived seed and inputs, so [`super::run_plan`] can re-run a
//! failed one — on the same session or re-pinned onto a survivor — with
//! bit-identical protocol behavior.

use super::stages::{SsedStage, TopKStage};
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
                c1.mask_and_reveal(&meter, &chosen, rng)
            })?;
            p.record_ops(Stage::Finalization, meter.take());
            Ok((p, (masked, top_k_physical)))
        },
    )?;

    let audit = AccessPatternAudit::basic_protocol(&top_k_physical);
    Ok((masked, profile, audit, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{plain_knn_records, DataOwner, QueryUser, Table};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sknn_protocols::{LocalKeyHolder, ProtocolError, Request, Response};

    fn setup(table: &Table) -> (CloudC1, LocalKeyHolder, QueryUser, StdRng) {
        let mut rng = StdRng::seed_from_u64(201);
        let owner = DataOwner::new(96, &mut rng);
        let db = owner.encrypt_table(table, &mut rng).unwrap();
        let c1 = CloudC1::new(db);
        let c2 = LocalKeyHolder::new(owner.private_key().clone(), 202);
        let user = QueryUser::new(owner.public_key().clone());
        (c1, c2, user, rng)
    }

    /// One SkNN_b query over a single session, without retries.
    fn run_single(
        c1: &CloudC1,
        c2: &dyn KeyHolder,
        query: &EncryptedQuery,
        k: usize,
        parallelism: ParallelismConfig,
        rng: &mut StdRng,
    ) -> Result<(MaskedResult, QueryProfile, AccessPatternAudit), SknnError> {
        let sessions = SessionSet::new(vec![c2])?;
        let (masked, profile, audit, _report) = execute_basic(
            c1,
            &sessions,
            query,
            k,
            parallelism,
            &RetryPolicy::none(),
            rng,
        )?;
        Ok((masked, profile, audit))
    }

    fn heart_disease_table() -> Table {
        Table::new(vec![
            vec![63, 1, 1, 145, 233, 1, 3, 0, 6, 0],
            vec![56, 1, 3, 130, 256, 1, 2, 1, 6, 2],
            vec![57, 0, 3, 140, 241, 0, 2, 0, 7, 1],
            vec![59, 1, 4, 144, 200, 1, 2, 2, 6, 3],
            vec![55, 0, 4, 128, 205, 0, 2, 1, 7, 3],
            vec![77, 1, 4, 125, 304, 0, 1, 3, 3, 4],
        ])
        .unwrap()
    }

    #[test]
    fn paper_example_1_returns_t4_and_t5() {
        let table = heart_disease_table();
        let (c1, c2, user, mut rng) = setup(&table);
        let query = [58u64, 1, 4, 133, 196, 1, 2, 1, 6, 0];
        let enc_q = user.encrypt_query(&query, &mut rng).unwrap();
        let (masked, _profile, audit) =
            run_single(&c1, &c2, &enc_q, 2, ParallelismConfig::serial(), &mut rng).unwrap();
        let records = user.recover_records(&masked).unwrap();
        assert_eq!(records, plain_knn_records(&table, &query, 2).unwrap());
        // t5 (index 4, distance 127) is nearest, then t4 (index 3, distance 148).
        assert_eq!(records[0], table.record(4).to_vec());
        assert_eq!(records[1], table.record(3).to_vec());
        // The basic protocol leaks the access pattern by design.
        assert!(!audit.is_oblivious());
        assert_eq!(audit.record_indices_revealed_to_c2, vec![4, 3]);
    }

    #[test]
    fn matches_plaintext_knn_for_various_k() {
        let table = Table::new(vec![
            vec![10, 0],
            vec![0, 10],
            vec![5, 5],
            vec![9, 9],
            vec![1, 1],
        ])
        .unwrap();
        let (c1, c2, user, mut rng) = setup(&table);
        let query = [2u64, 2];
        let enc_q = user.encrypt_query(&query, &mut rng).unwrap();
        for k in 1..=5 {
            let (masked, _, _) =
                run_single(&c1, &c2, &enc_q, k, ParallelismConfig::serial(), &mut rng).unwrap();
            let records = user.recover_records(&masked).unwrap();
            assert_eq!(
                records,
                plain_knn_records(&table, &query, k).unwrap(),
                "k = {k}"
            );
        }
    }

    #[test]
    fn sharded_plan_matches_the_single_shard_plan() {
        let table = heart_disease_table();
        let query = [58u64, 1, 4, 133, 196, 1, 2, 1, 6, 0];
        let (mono_c1, c2, user, mut rng) = setup(&table);
        let enc_q = user.encrypt_query(&query, &mut rng).unwrap();
        let (mono, _, mono_audit) = run_single(
            &mono_c1,
            &c2,
            &enc_q,
            3,
            ParallelismConfig::serial(),
            &mut rng,
        )
        .unwrap();

        for shards in [2usize, 3, 6] {
            let sharded_c1 = mono_c1.clone().with_shards(shards);
            let (masked, profile, audit) = run_single(
                &sharded_c1,
                &c2,
                &enc_q,
                3,
                ParallelismConfig::serial(),
                &mut rng,
            )
            .unwrap();
            assert_eq!(
                user.recover_records(&masked).unwrap(),
                user.recover_records(&mono).unwrap(),
                "shards = {shards}"
            );
            // Same physical winners in the same order, so the leaked
            // access pattern is unchanged too.
            assert_eq!(
                audit.record_indices_revealed_to_c2,
                mono_audit.record_indices_revealed_to_c2
            );
            // The scatter half is attributed per shard.
            assert_eq!(profile.shards().len(), shards.min(6));
            assert!(profile.ops(Stage::ShardCandidates).ciphertexts_to_c2 > 0);
        }
    }

    #[test]
    fn parallel_execution_gives_identical_results() {
        let table = heart_disease_table();
        let (c1, c2, user, mut rng) = setup(&table);
        let query = [58u64, 1, 4, 133, 196, 1, 2, 1, 6, 0];
        let enc_q = user.encrypt_query(&query, &mut rng).unwrap();
        let (serial, _, _) =
            run_single(&c1, &c2, &enc_q, 3, ParallelismConfig::serial(), &mut rng).unwrap();
        let (parallel, _, _) = run_single(
            &c1,
            &c2,
            &enc_q,
            3,
            ParallelismConfig { threads: 4 },
            &mut rng,
        )
        .unwrap();
        assert_eq!(
            user.recover_records(&serial).unwrap(),
            user.recover_records(&parallel).unwrap()
        );
    }

    #[test]
    fn profile_covers_the_expected_stages() {
        let table = heart_disease_table();
        let (c1, c2, user, mut rng) = setup(&table);
        let enc_q = user
            .encrypt_query(&[58, 1, 4, 133, 196, 1, 2, 1, 6, 0], &mut rng)
            .unwrap();
        let (_, profile, _) =
            run_single(&c1, &c2, &enc_q, 2, ParallelismConfig::serial(), &mut rng).unwrap();
        assert!(profile.stage(Stage::DistanceComputation) > std::time::Duration::ZERO);
        assert!(profile.stage(Stage::Finalization) > std::time::Duration::ZERO);
        assert_eq!(
            profile.stage(Stage::BitDecomposition),
            std::time::Duration::ZERO
        );
        // SSED dominates SkNN_b.
        assert!(profile.fraction(Stage::DistanceComputation) > 0.5);
    }

    #[test]
    fn invalid_parameters_rejected() {
        let table = heart_disease_table();
        let (c1, c2, user, mut rng) = setup(&table);
        let enc_q = user.encrypt_query(&[1, 2, 3], &mut rng).unwrap();
        assert!(matches!(
            run_single(&c1, &c2, &enc_q, 1, ParallelismConfig::serial(), &mut rng),
            Err(SknnError::QueryDimensionMismatch { .. })
        ));
        let ok_q = user
            .encrypt_query(&[58, 1, 4, 133, 196, 1, 2, 1, 6, 0], &mut rng)
            .unwrap();
        assert!(matches!(
            run_single(&c1, &c2, &ok_q, 0, ParallelismConfig::serial(), &mut rng),
            Err(SknnError::InvalidK { .. })
        ));
        assert!(matches!(
            run_single(&c1, &c2, &ok_q, 7, ParallelismConfig::serial(), &mut rng),
            Err(SknnError::InvalidK { .. })
        ));
    }

    /// C2 that answers every request honestly except top-k, where it names
    /// a record index past the end of the distance list.
    struct OutOfRangeTopK(LocalKeyHolder);

    impl KeyHolder for OutOfRangeTopK {
        fn public_key(&self) -> &sknn_paillier::PublicKey {
            self.0.public_key()
        }
        fn call(&self, request: Request) -> Result<Response, ProtocolError> {
            match request {
                Request::TopK { distances, .. } => {
                    Ok(Response::Indices(vec![distances.len() as u32]))
                }
                other => self.0.call(other),
            }
        }
    }

    #[test]
    fn out_of_range_top_k_reply_is_a_typed_error() {
        // C1 indexes its records with C2's reply; an index past the end
        // must stop at the key holder's shape check, for an in-process
        // key holder as much as for a remote one.
        let table = heart_disease_table();
        let (c1, honest, user, mut rng) = setup(&table);
        let c2 = OutOfRangeTopK(honest);
        let enc_q = user
            .encrypt_query(&[58, 1, 4, 133, 196, 1, 2, 1, 6, 0], &mut rng)
            .unwrap();
        let err =
            run_single(&c1, &c2, &enc_q, 1, ParallelismConfig::serial(), &mut rng).unwrap_err();
        assert!(
            matches!(err, SknnError::Protocol(ProtocolError::Invariant { .. })),
            "{err:?}"
        );
    }
}
