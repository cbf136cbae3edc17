//! SkNN_b — the basic secure k-nearest-neighbor protocol (Algorithm 5).
//!
//! Cloud C1 computes every encrypted squared distance with SSED, ships them to
//! cloud C2, which decrypts them, picks the `k` smallest and returns their
//! indices. C1 then masks the corresponding records and the usual two-share
//! reveal delivers them to Bob.
//!
//! This protocol is efficient — its cost is dominated by the `n·m` secure
//! multiplications inside SSED and is essentially independent of `k`
//! (Figure 2(c)) — but it deliberately trades security for that speed: C2
//! learns every plaintext distance, and both clouds learn which records were
//! returned (the data-access pattern).
//!
//! The implementation lives in the staged executor ([`crate::exec`]) as one
//! scatter–gather plan: per-shard SSED + top-k, then a merge over the
//! ≤ k·S survivors. A single-shard database is the scan above — its one
//! shard's top-k is the answer and the merge is skipped — and every shard
//! count returns bit-identical results.

use crate::exec::{execute_basic, SessionSet};
use crate::parallel::ParallelismConfig;
use crate::profile::QueryProfile;
use crate::retry::{RetryPolicy, RetryReport};
use crate::roles::CloudC1;
use crate::{AccessPatternAudit, EncryptedQuery, MaskedResult, SknnError};
use rand::RngCore;
use sknn_protocols::KeyHolder;

impl CloudC1 {
    /// Runs SkNN_b for the given encrypted query over a single C2 session.
    ///
    /// Returns the two-share [`MaskedResult`] destined for Bob, the per-stage
    /// timing profile (including per-stage ciphertext and C2-decryption
    /// counts), and an audit of what the clouds learned (for SkNN_b: the
    /// distances and the top-k identities).
    ///
    /// With packing configured (and a key holder that supports it) the SSED
    /// stage and the distance shipment of the selection step run σ values
    /// per ciphertext; results are identical to the scalar path.
    ///
    /// # Errors
    /// Returns an error when the query dimensionality does not match the
    /// database or `k` is out of range.
    pub fn process_basic<R: RngCore + ?Sized>(
        &self,
        c2: &dyn KeyHolder,
        query: &EncryptedQuery,
        k: usize,
        parallelism: ParallelismConfig,
        rng: &mut R,
    ) -> Result<(MaskedResult, QueryProfile, AccessPatternAudit), SknnError> {
        let (masked, profile, audit, _report) = execute_basic(
            self,
            &SessionSet::single(c2),
            query,
            k,
            parallelism,
            &RetryPolicy::none(),
            rng,
        )?;
        Ok((masked, profile, audit))
    }

    /// [`CloudC1::process_basic`] over an explicit session set: shards are
    /// pinned to sessions round-robin, so a sharded database's scatter
    /// stages overlap on the wire when the set holds more than one
    /// session. The extra `retry` policy and [`RetryReport`] return value
    /// are the failure-handling surface: failed scatter tasks and a failed
    /// gather re-run per the policy (re-pinned onto surviving sessions when
    /// theirs died), and the report says what recovery actually happened.
    ///
    /// # Errors
    /// See [`CloudC1::process_basic`].
    pub fn process_basic_sharded<R: RngCore + ?Sized>(
        &self,
        sessions: &SessionSet<'_>,
        query: &EncryptedQuery,
        k: usize,
        parallelism: ParallelismConfig,
        retry: &RetryPolicy,
        rng: &mut R,
    ) -> Result<(MaskedResult, QueryProfile, AccessPatternAudit, RetryReport), SknnError> {
        execute_basic(self, sessions, query, k, parallelism, retry, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Stage;
    use crate::{plain_knn_records, DataOwner, QueryUser, Table};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sknn_protocols::LocalKeyHolder;

    fn setup(table: &Table) -> (CloudC1, LocalKeyHolder, QueryUser, StdRng) {
        let mut rng = StdRng::seed_from_u64(201);
        let owner = DataOwner::new(96, &mut rng);
        let db = owner.encrypt_table(table, &mut rng).unwrap();
        let c1 = CloudC1::new(db);
        let c2 = LocalKeyHolder::new(owner.private_key().clone(), 202);
        let user = QueryUser::new(owner.public_key().clone());
        (c1, c2, user, rng)
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
        let (masked, _profile, audit) = c1
            .process_basic(&c2, &enc_q, 2, ParallelismConfig::serial(), &mut rng)
            .unwrap();
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
            let (masked, _, _) = c1
                .process_basic(&c2, &enc_q, k, ParallelismConfig::serial(), &mut rng)
                .unwrap();
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
        let (mono, _, mono_audit) = mono_c1
            .process_basic(&c2, &enc_q, 3, ParallelismConfig::serial(), &mut rng)
            .unwrap();

        for shards in [2usize, 3, 6] {
            let sharded_c1 = mono_c1.clone().with_shards(shards);
            let (masked, profile, audit) = sharded_c1
                .process_basic(&c2, &enc_q, 3, ParallelismConfig::serial(), &mut rng)
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
        let (serial, _, _) = c1
            .process_basic(&c2, &enc_q, 3, ParallelismConfig::serial(), &mut rng)
            .unwrap();
        let (parallel, _, _) = c1
            .process_basic(&c2, &enc_q, 3, ParallelismConfig { threads: 4 }, &mut rng)
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
        let (_, profile, _) = c1
            .process_basic(&c2, &enc_q, 2, ParallelismConfig::serial(), &mut rng)
            .unwrap();
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
            c1.process_basic(&c2, &enc_q, 1, ParallelismConfig::serial(), &mut rng),
            Err(SknnError::QueryDimensionMismatch { .. })
        ));
        let ok_q = user
            .encrypt_query(&[58, 1, 4, 133, 196, 1, 2, 1, 6, 0], &mut rng)
            .unwrap();
        assert!(matches!(
            c1.process_basic(&c2, &ok_q, 0, ParallelismConfig::serial(), &mut rng),
            Err(SknnError::InvalidK { .. })
        ));
        assert!(matches!(
            c1.process_basic(&c2, &ok_q, 7, ParallelismConfig::serial(), &mut rng),
            Err(SknnError::InvalidK { .. })
        ));
    }
}
