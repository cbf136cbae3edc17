//! SkNN_m — the fully secure k-nearest-neighbor protocol (Algorithm 6).
//!
//! Unlike SkNN_b, distances are never decrypted: each encrypted squared
//! distance is bit-decomposed (SBD), the global minimum is computed over the
//! encrypted bit vectors (SMIN_n), the matching record is located with a
//! randomized, permuted equality test that C2 answers without learning which
//! record it refers to, the record is extracted through an encrypted
//! indicator-vector dot product, and its distance is obliviously saturated to
//! the all-ones maximum (SBOR) so the next iteration finds the next-nearest
//! record. After `k` iterations the masked records are revealed to Bob exactly
//! as in the basic protocol.
//!
//! Neither cloud learns plaintext distances, which records were returned, or
//! how the returned set maps to stored records — the hidden-access-pattern
//! guarantee the paper's Section 4.3 argues for.
//!
//! The implementation lives in the staged executor ([`crate::exec`]) as one
//! scatter–gather plan — per-shard SSED + SBD + oblivious candidate
//! extraction, then the same SMIN_n/selection rounds over only the ≤ k·S
//! surviving candidates (leakage analysis in `DESIGN.md`). A single-shard
//! database runs the paper's loop as its one scatter task, with no gather.

use crate::config::SecureQueryParams;
use crate::exec::{execute_secure, SessionSet};
use crate::parallel::ParallelismConfig;
use crate::profile::QueryProfile;
use crate::retry::{RetryPolicy, RetryReport};
use crate::roles::CloudC1;
use crate::{AccessPatternAudit, EncryptedQuery, MaskedResult, SknnError};
use rand::RngCore;
use sknn_protocols::KeyHolder;

impl CloudC1 {
    /// Runs SkNN_m for the given encrypted query over a single C2 session.
    ///
    /// `params.l` is the bit length of the squared-distance domain: every
    /// genuine squared distance must be strictly smaller than `2^l − 1`
    /// (the all-ones value is reserved for marking already-selected records).
    ///
    /// # Errors
    /// Returns an error when the query dimensionality does not match the
    /// database, `k` is out of range, or `l` is invalid for the key in use.
    pub fn process_secure<R: RngCore + ?Sized>(
        &self,
        c2: &dyn KeyHolder,
        query: &EncryptedQuery,
        params: SecureQueryParams,
        parallelism: ParallelismConfig,
        rng: &mut R,
    ) -> Result<(MaskedResult, QueryProfile, AccessPatternAudit), SknnError> {
        let (masked, profile, audit, _report) = execute_secure(
            self,
            &SessionSet::single(c2),
            query,
            params,
            parallelism,
            &RetryPolicy::none(),
            rng,
        )?;
        Ok((masked, profile, audit))
    }

    /// [`CloudC1::process_secure`] over an explicit session set: shards
    /// are pinned to sessions round-robin, so a sharded database's scatter
    /// stages overlap on the wire when the set holds more than one
    /// session. The extra `retry` policy and [`RetryReport`] return value
    /// are the failure-handling surface: failed scatter tasks and a failed
    /// gather re-run per the policy (re-pinned onto surviving sessions when
    /// theirs died), and the report says what recovery actually happened.
    ///
    /// # Errors
    /// See [`CloudC1::process_secure`].
    pub fn process_secure_sharded<R: RngCore + ?Sized>(
        &self,
        sessions: &SessionSet<'_>,
        query: &EncryptedQuery,
        params: SecureQueryParams,
        parallelism: ParallelismConfig,
        retry: &RetryPolicy,
        rng: &mut R,
    ) -> Result<(MaskedResult, QueryProfile, AccessPatternAudit, RetryReport), SknnError> {
        execute_secure(self, sessions, query, params, parallelism, retry, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Stage;
    use crate::{plain_knn_records, DataOwner, QueryUser, Table};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sknn_bigint::BigUint;
    use sknn_paillier::{Ciphertext, PublicKey};
    use sknn_protocols::transport::TransportError;
    use sknn_protocols::{LocalKeyHolder, ProtocolError, SminRoundResponse};

    fn setup(table: &Table) -> (CloudC1, LocalKeyHolder, QueryUser, StdRng) {
        let mut rng = StdRng::seed_from_u64(301);
        let owner = DataOwner::new(96, &mut rng);
        let db = owner.encrypt_table(table, &mut rng).unwrap();
        let c1 = CloudC1::new(db);
        let c2 = LocalKeyHolder::new(owner.private_key().clone(), 302);
        let user = QueryUser::new(owner.public_key().clone());
        (c1, c2, user, rng)
    }

    #[test]
    fn matches_plaintext_knn_on_small_table() {
        // Distances from the query (2, 2) are 68, 29, 18, 98, 2 — all distinct,
        // so the expected result set is unambiguous.
        let table = Table::new(vec![
            vec![10, 0],
            vec![0, 7],
            vec![5, 5],
            vec![9, 9],
            vec![1, 1],
        ])
        .unwrap();
        let l = table.required_distance_bits(10);
        let (c1, c2, user, mut rng) = setup(&table);
        let query = [2u64, 2];
        let enc_q = user.encrypt_query(&query, &mut rng).unwrap();
        for k in [1usize, 2, 3, 5] {
            let (masked, _, audit) = c1
                .process_secure(
                    &c2,
                    &enc_q,
                    SecureQueryParams { k, l },
                    ParallelismConfig::serial(),
                    &mut rng,
                )
                .unwrap();
            let mut records = user.recover_records(&masked).unwrap();
            let mut expected = plain_knn_records(&table, &query, k);
            // SkNN_m hides which stored record each result corresponds to, so
            // ties may legitimately come back in either order; compare as sets.
            records.sort();
            expected.sort();
            assert_eq!(records, expected, "k = {k}");
            assert!(audit.is_oblivious());
        }
    }

    #[test]
    fn paper_example_1_returns_t4_and_t5() {
        let table = Table::new(vec![
            vec![63, 1, 1, 145, 233, 1, 3, 0, 6, 0],
            vec![56, 1, 3, 130, 256, 1, 2, 1, 6, 2],
            vec![57, 0, 3, 140, 241, 0, 2, 0, 7, 1],
            vec![59, 1, 4, 144, 200, 1, 2, 2, 6, 3],
            vec![55, 0, 4, 128, 205, 0, 2, 1, 7, 3],
            vec![77, 1, 4, 125, 304, 0, 1, 3, 3, 4],
        ])
        .unwrap();
        let query = [58u64, 1, 4, 133, 196, 1, 2, 1, 6, 0];
        let l = table.required_distance_bits(564);
        let (c1, c2, user, mut rng) = setup(&table);
        let enc_q = user.encrypt_query(&query, &mut rng).unwrap();
        let (masked, profile, audit) = c1
            .process_secure(
                &c2,
                &enc_q,
                SecureQueryParams { k: 2, l },
                ParallelismConfig::serial(),
                &mut rng,
            )
            .unwrap();
        let mut records = user.recover_records(&masked).unwrap();
        records.sort();
        let mut expected = vec![table.record(3).to_vec(), table.record(4).to_vec()];
        expected.sort();
        assert_eq!(records, expected);
        assert!(audit.is_oblivious());
        // SMIN_n dominates the secure protocol, as Section 5.2 reports.
        assert!(profile.fraction(Stage::SecureMinimum) > 0.3);
    }

    #[test]
    fn sharded_plan_matches_the_single_shard_plan() {
        // Distinct distances, so the expected set and its nearest-first
        // order are unique for every shard count.
        let table = Table::new(vec![
            vec![10, 0],
            vec![0, 7],
            vec![5, 5],
            vec![9, 9],
            vec![1, 1],
            vec![7, 2],
        ])
        .unwrap();
        let l = table.required_distance_bits(10);
        let query = [2u64, 2];
        let (c1, c2, user, mut rng) = setup(&table);
        let enc_q = user.encrypt_query(&query, &mut rng).unwrap();
        let expected = plain_knn_records(&table, &query, 2);

        for shards in [2usize, 3] {
            let sharded = c1.clone().with_shards(shards);
            let (masked, profile, audit) = sharded
                .process_secure(
                    &c2,
                    &enc_q,
                    SecureQueryParams { k: 2, l },
                    ParallelismConfig::serial(),
                    &mut rng,
                )
                .unwrap();
            assert_eq!(
                user.recover_records(&masked).unwrap(),
                expected,
                "shards = {shards}"
            );
            assert!(audit.is_oblivious());
            // Scatter work is attributed per shard; the gather SMIN_n runs
            // over the k·S candidates only.
            assert_eq!(profile.shards().len(), shards);
            assert!(profile.ops(Stage::ShardCandidates).ciphertexts_to_c2 > 0);
            assert!(profile.ops(Stage::SecureMinimum).ciphertexts_to_c2 > 0);
        }
    }

    #[test]
    fn duplicate_records_and_ties() {
        let table = Table::new(vec![vec![4, 4], vec![4, 4], vec![0, 0], vec![7, 7]]).unwrap();
        let l = table.required_distance_bits(7);
        let (c1, c2, user, mut rng) = setup(&table);
        let enc_q = user.encrypt_query(&[4, 4], &mut rng).unwrap();
        let (masked, _, _) = c1
            .process_secure(
                &c2,
                &enc_q,
                SecureQueryParams { k: 2, l },
                ParallelismConfig::serial(),
                &mut rng,
            )
            .unwrap();
        let records = user.recover_records(&masked).unwrap();
        // Both returned records must be the duplicate (4, 4) rows.
        assert_eq!(records, vec![vec![4, 4], vec![4, 4]]);
    }

    #[test]
    fn parallel_execution_gives_identical_result_set() {
        let table = Table::new(vec![
            vec![1, 2],
            vec![8, 3],
            vec![4, 4],
            vec![0, 9],
            vec![6, 6],
            vec![2, 2],
        ])
        .unwrap();
        let l = table.required_distance_bits(9);
        let (c1, c2, user, mut rng) = setup(&table);
        let enc_q = user.encrypt_query(&[3, 3], &mut rng).unwrap();
        let run = |threads: usize, rng: &mut StdRng| {
            let (masked, _, _) = c1
                .process_secure(
                    &c2,
                    &enc_q,
                    SecureQueryParams { k: 3, l },
                    ParallelismConfig { threads },
                    rng,
                )
                .unwrap();
            let mut r = user.recover_records(&masked).unwrap();
            r.sort();
            r
        };
        assert_eq!(run(1, &mut rng), run(4, &mut rng));
    }

    #[test]
    fn k_equals_n_returns_whole_table() {
        let table = Table::new(vec![vec![1], vec![5], vec![3]]).unwrap();
        let l = table.required_distance_bits(5);
        let (c1, c2, user, mut rng) = setup(&table);
        let enc_q = user.encrypt_query(&[2], &mut rng).unwrap();
        let (masked, _, _) = c1
            .process_secure(
                &c2,
                &enc_q,
                SecureQueryParams { k: 3, l },
                ParallelismConfig::serial(),
                &mut rng,
            )
            .unwrap();
        let mut records = user.recover_records(&masked).unwrap();
        records.sort();
        assert_eq!(records, vec![vec![1], vec![3], vec![5]]);
    }

    #[test]
    fn sharded_k_equals_n_returns_whole_table() {
        // k = n with more shards than surviving candidates per shard:
        // every record is a candidate and the gather must drain them all.
        let table = Table::new(vec![vec![1], vec![5], vec![3], vec![9]]).unwrap();
        let l = table.required_distance_bits(9);
        let (c1, c2, user, mut rng) = setup(&table);
        let sharded = c1.with_shards(3);
        let enc_q = user.encrypt_query(&[2], &mut rng).unwrap();
        let (masked, _, _) = sharded
            .process_secure(
                &c2,
                &enc_q,
                SecureQueryParams { k: 4, l },
                ParallelismConfig::serial(),
                &mut rng,
            )
            .unwrap();
        let mut records = user.recover_records(&masked).unwrap();
        records.sort();
        assert_eq!(records, vec![vec![1], vec![3], vec![5], vec![9]]);
    }

    #[test]
    fn invalid_l_is_reported() {
        let table = Table::new(vec![vec![1], vec![2]]).unwrap();
        let (c1, c2, user, mut rng) = setup(&table);
        let enc_q = user.encrypt_query(&[1], &mut rng).unwrap();
        let err = c1
            .process_secure(
                &c2,
                &enc_q,
                SecureQueryParams { k: 1, l: 0 },
                ParallelismConfig::serial(),
                &mut rng,
            )
            .unwrap_err();
        assert!(matches!(err, SknnError::Protocol(_)));
    }

    /// Which C2 reply [`ShortReply`] cuts one ciphertext from.
    #[derive(Clone, Copy)]
    enum Cut {
        MinSelection,
        SminRound,
    }

    /// C2 that answers every request honestly, then drops the last
    /// ciphertext of one kind of reply.
    struct ShortReply {
        inner: LocalKeyHolder,
        cut: Cut,
    }

    impl KeyHolder for ShortReply {
        fn public_key(&self) -> &PublicKey {
            self.inner.public_key()
        }
        fn sm_mask_multiply_batch(
            &self,
            pairs: &[(Ciphertext, Ciphertext)],
        ) -> Result<Vec<Ciphertext>, ProtocolError> {
            self.inner.sm_mask_multiply_batch(pairs)
        }
        fn lsb_of_masked_batch(
            &self,
            masked: &[Ciphertext],
        ) -> Result<Vec<Ciphertext>, ProtocolError> {
            self.inner.lsb_of_masked_batch(masked)
        }
        fn smin_round(
            &self,
            gamma: &[Ciphertext],
            l: &[Ciphertext],
        ) -> Result<SminRoundResponse, ProtocolError> {
            let mut response = self.inner.smin_round(gamma, l)?;
            if let Cut::SminRound = self.cut {
                response.m_prime.pop();
            }
            Ok(response)
        }
        fn min_selection(&self, beta: &[Ciphertext]) -> Result<Vec<Ciphertext>, ProtocolError> {
            let mut reply = self.inner.min_selection(beta)?;
            if let Cut::MinSelection = self.cut {
                reply.pop();
            }
            Ok(reply)
        }
        fn top_k_indices(
            &self,
            distances: &[Ciphertext],
            k: usize,
        ) -> Result<Vec<usize>, ProtocolError> {
            self.inner.top_k_indices(distances, k)
        }
        fn decrypt_masked_batch(
            &self,
            masked: &[Ciphertext],
        ) -> Result<Vec<BigUint>, ProtocolError> {
            self.inner.decrypt_masked_batch(masked)
        }
    }

    #[test]
    fn short_selection_replies_are_typed_errors() {
        // Both replies are un-permuted by C1, which used to panic on a
        // length mismatch; now the short reply surfaces as a batch
        // mismatch: n = 4 indicator entries, or one M′ entry per bit of l.
        let table = Table::new(vec![vec![1], vec![3], vec![5], vec![9]]).unwrap();
        let l = table.required_distance_bits(10);
        for (cut, sent) in [(Cut::MinSelection, 4), (Cut::SminRound, l)] {
            let (c1, honest, user, mut rng) = setup(&table);
            let c2 = ShortReply { inner: honest, cut };
            let enc_q = user.encrypt_query(&[4], &mut rng).unwrap();
            let err = c1
                .process_secure(
                    &c2,
                    &enc_q,
                    SecureQueryParams { k: 1, l },
                    ParallelismConfig::serial(),
                    &mut rng,
                )
                .unwrap_err();
            assert_eq!(
                err,
                SknnError::Protocol(ProtocolError::from(TransportError::BatchMismatch {
                    sent,
                    received: sent - 1
                }))
            );
        }
    }
}
