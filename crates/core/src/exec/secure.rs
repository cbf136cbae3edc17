//! SkNN_m — the fully secure k-nearest-neighbor protocol (Algorithm 6).
//!
//! Unlike SkNN_b, distances are never decrypted: each encrypted squared
//! distance is bit-decomposed (SBD), the global minimum is computed over
//! the encrypted bit vectors (SMIN_n), the matching record is located with
//! a randomized, permuted equality test that C2 answers without learning
//! which record it refers to, the record is extracted through an encrypted
//! indicator-vector dot product, and its distance is obliviously saturated
//! to the all-ones maximum (SBOR) so the next iteration finds the
//! next-nearest record. After `k` iterations the masked records are
//! revealed to Bob exactly as in the basic protocol. `l` is the bit length
//! of the squared-distance domain: every genuine squared distance must be
//! strictly smaller than `2^l − 1` (the all-ones value marks
//! already-selected records).
//!
//! Neither cloud learns plaintext distances, which records were returned,
//! or how the returned set maps to stored records — the
//! hidden-access-pattern guarantee the paper's Section 4.3 argues for.
//!
//! The paper's loop — k rounds of {SMIN_n over all n bit-decomposed
//! distances, oblivious zero-test selection, indicator extraction, SBOR
//! freeze} — runs as one scatter–gather plan (leakage analysis in
//! `DESIGN.md`):
//!
//! * **scatter**: each shard runs SSED + SBD and then `min(k, shard size)`
//!   of those same oblivious rounds *within the shard*, yielding the
//!   shard's k nearest records as encrypted candidates — each an
//!   (extracted record, SMIN_n-fresh distance-bit vector) pair. Nothing is
//!   decrypted: the shard rounds use the identical randomize-permute
//!   machinery, so C2 learns exactly what it learns in the paper's scan,
//!   per shard.
//! * **gather**: the primary session runs the *same* k rounds over the
//!   ≤ k·S surviving candidates instead of all n records. Since the global
//!   k nearest are each among their own shard's k nearest, the candidate
//!   set always contains the true result, and the gather extracts it in
//!   the same nearest-first order as the paper's scan. With one populated
//!   shard its k rounds *are* the paper's loop and the gather is elided.
//!
//! Equal-distance ties may resolve differently across shard counts (C2's
//! tie-breaking randomness is consumed per shard), which is the same
//! caveat `SknnEngine::run_batch` documents — both outcomes are correct
//! kNN sets.

use super::stages::{SbdStage, SsedStage};
use super::{record_ops, run_plan, SessionSet};
use crate::config::SecureQueryParams;
use crate::meter::OpMeter;
use crate::parallel::ParallelismConfig;
use crate::profile::{QueryProfile, Stage};
use crate::retry::{RetryPolicy, RetryReport};
use crate::roles::CloudC1;
use crate::{AccessPatternAudit, EncryptedQuery, MaskedResult, SknnError};
use rand::RngCore;
use sknn_bigint::{random_range, BigUint};
use sknn_paillier::Ciphertext;
use sknn_protocols::{
    recompose_bits, secure_multiply_batch, secure_weighted_column_sums, KeyHolder, Permutation,
};

/// One encrypted candidate a shard's scatter rounds produced: the
/// obliviously extracted record and its distance-bit vector (the SMIN_n
/// output of the round that selected it — fresh ciphertexts, so shipping
/// them onward reveals nothing).
struct SecureCandidate {
    record: Vec<Ciphertext>,
    bits: Vec<Ciphertext>,
}

/// One oblivious selection round (steps 3(a)–3(e) of Algorithm 6) over an
/// arbitrary candidate set: SMIN_n over the bit vectors, the randomized
/// and permuted zero test, indicator-vector record extraction, and the
/// SBOR freeze that retires the winner. Returns the extracted record and
/// the winner's distance bits; `distance_bits` is updated in place (the
/// winner's row is saturated to all-ones).
///
/// The `last` round of a loop skips the freeze: nothing reads
/// `distance_bits` after it. The round count is public (k, or a shard's
/// `min(k, size)`), so C2 learns only a request count it could already
/// compute, and every answer stays exact.
///
/// Rounds that produce the answer (`shard: None`) record under the paper's
/// stage names; a shard's candidate-extraction rounds ahead of a gather
/// record everything under [`Stage::ShardCandidates`], credited to it.
#[allow(clippy::too_many_arguments)] // the round of both the scatter and the gather loop
fn oblivious_select_round<K: KeyHolder + ?Sized, R: RngCore + ?Sized>(
    c1: &CloudC1,
    meter: &OpMeter<'_, K>,
    records: &[&[Ciphertext]],
    distance_bits: &mut [Vec<Ciphertext>],
    last: bool,
    profile: &mut QueryProfile,
    shard: Option<usize>,
    rng: &mut R,
) -> Result<(Vec<Ciphertext>, Vec<Ciphertext>), SknnError> {
    let stage = |paper: Stage| shard.map_or(paper, |_| Stage::ShardCandidates);
    let pk = c1.public_key();
    let n = records.len();
    let l = distance_bits.first().map_or(0, |b| b.len());
    let one = BigUint::one();

    // 3(a): [d_min] over the candidate set.
    let dmin_bits = profile.time(stage(Stage::SecureMinimum), || {
        sknn_protocols::secure_min_n(pk, meter, distance_bits, rng)
    })?;
    record_ops(profile, shard, stage(Stage::SecureMinimum), meter.take());

    let selection = profile.time(stage(Stage::RecordSelection), || {
        // 3(b): recompose E(d_min) and every E(d_i) from their bits
        // (the bits are the authoritative state — they get overwritten
        // by the freezing step below).
        let e_dmin = recompose_bits(pk, &dmin_bits);
        let e_dist: Vec<Ciphertext> = distance_bits
            .iter()
            .map(|bits| recompose_bits(pk, bits))
            .collect();

        // τ_i = E(d_i − d_min), randomized and permuted before C2 sees it.
        // C2 only tests for zero, so the sign is free and E(d_min) is
        // negated once per round instead of every E(d_i).
        let e_neg_dmin = pk.negate(&e_dmin);
        let tau_prime: Vec<Ciphertext> = e_dist
            .iter()
            .map(|e_di| {
                let tau = pk.add(e_di, &e_neg_dmin);
                let r_i = random_range(rng, &one, pk.n());
                pk.mul_plain(&tau, &r_i)
            })
            .collect();
        let pi = Permutation::random(rng, n);
        let beta = pi.apply(&tau_prime)?;

        // 3(c): C2 marks exactly one zero position — obliviously,
        // because of the permutation and randomization. A missing
        // zero violates the protocol invariant and surfaces as a
        // typed error instead of a silent all-zero indicator.
        let u = meter.min_selection(&beta)?;
        // 3(d): undo the permutation; V has E(1) at the winning record.
        let v = pi.apply_inverse(&u)?;

        // V′_{i,j} = SM(V_i, E(t_{i,j})); E(t′_{s,j}) = Π_i V′_{i,j}: one
        // batched SM round over the n·m pairs, each column's n products
        // unmasked and summed together as one multi-exponentiation.
        let record = secure_weighted_column_sums(pk, meter, &v, records, rng)?;
        Ok::<_, SknnError>((record, v))
    });
    record_ops(profile, shard, stage(Stage::RecordSelection), meter.take());
    let (selected_record, indicator) = selection?;
    if last {
        return Ok((selected_record, dmin_bits));
    }

    // 3(e): freeze the winner's distance at the all-ones maximum via
    // SBOR so it can never win again. One batched SM round covers all
    // n·l bit positions.
    let frozen = profile.time(stage(Stage::DistanceFreezing), || {
        let pairs: Vec<(Ciphertext, Ciphertext)> = (0..n)
            .flat_map(|i| {
                let v_i = indicator[i].clone();
                distance_bits[i]
                    .iter()
                    .map(move |bit| (v_i.clone(), bit.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        let products = secure_multiply_batch(pk, meter, &pairs, rng)?;
        for i in 0..n {
            for gamma in 0..l {
                // o₁ ∨ o₂ = o₁ + o₂ − o₁·o₂ with o₁ = V_i, o₂ = d_{i,γ}.
                let sum = pk.add(&indicator[i], &distance_bits[i][gamma]);
                distance_bits[i][gamma] = pk.sub(&sum, &products[i * l + gamma]);
            }
        }
        Ok::<_, SknnError>(())
    });
    record_ops(profile, shard, stage(Stage::DistanceFreezing), meter.take());
    frozen?;

    Ok((selected_record, dmin_bits))
}

/// Runs the full SkNN_m plan over the given sessions (see the module
/// docs).
pub(crate) fn execute_secure<R: RngCore + ?Sized>(
    c1: &CloudC1,
    sessions: &SessionSet<'_>,
    query: &EncryptedQuery,
    params: SecureQueryParams,
    parallelism: ParallelismConfig,
    retry: &RetryPolicy,
    rng: &mut R,
) -> Result<(MaskedResult, QueryProfile, AccessPatternAudit, RetryReport), SknnError> {
    c1.validate_query(query, params.k)?;
    let db = c1.database();
    let k = params.k;
    let l = params.l;

    // ── Scatter: each shard extracts its k nearest as encrypted candidates ──
    let (masked, profile, report) = run_plan(
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

            let distances = p.time(Stage::DistanceComputation, || {
                SsedStage::for_secure(c1, l, task.parallelism).run(
                    &meter,
                    query,
                    task.view.live_indices(),
                    &mut rng,
                )
            })?;
            record_ops(&mut p, shard, Stage::DistanceComputation, meter.take());

            let mut bits = p.time(Stage::BitDecomposition, || {
                SbdStage::new(c1, l).run(&meter, &distances, &mut rng)
            })?;
            record_ops(&mut p, shard, Stage::BitDecomposition, meter.take());

            let records: Vec<&[Ciphertext]> = distances
                .live
                .iter()
                .map(|&i| db.record(i).as_slice())
                .collect();
            let rounds = k.min(records.len());
            let mut candidates = Vec::with_capacity(rounds);
            for round in 0..rounds {
                let (record, dmin_bits) = oblivious_select_round(
                    c1,
                    &meter,
                    &records,
                    &mut bits,
                    round + 1 == rounds,
                    &mut p,
                    shard,
                    &mut rng,
                )?;
                candidates.push(SecureCandidate {
                    record,
                    bits: dmin_bits,
                });
            }
            Ok((p, candidates))
        },
        |shards, rng, c2| {
            let meter = OpMeter::new(c2);
            let mut p = QueryProfile::new();
            let results: Vec<Vec<Ciphertext>> = match shards {
                // One shard's k rounds already extracted the answer.
                [candidates] => candidates.iter().map(|c| c.record.clone()).collect(),
                // ── Gather: the same oblivious rounds over the ≤ k·S candidates ──
                shards => {
                    let candidates: Vec<&SecureCandidate> = shards.iter().flatten().collect();
                    let mut candidate_bits: Vec<Vec<Ciphertext>> =
                        candidates.iter().map(|c| c.bits.clone()).collect();
                    let candidate_records: Vec<&[Ciphertext]> =
                        candidates.iter().map(|c| c.record.as_slice()).collect();
                    let mut results = Vec::with_capacity(k);
                    for round in 0..k {
                        let (record, _bits) = oblivious_select_round(
                            c1,
                            &meter,
                            &candidate_records,
                            &mut candidate_bits,
                            round + 1 == k,
                            &mut p,
                            None,
                            rng,
                        )?;
                        results.push(record);
                    }
                    results
                }
            };

            let masked = p.time(Stage::Finalization, || {
                c1.mask_and_reveal(&meter, &results, rng)
            })?;
            p.record_ops(Stage::Finalization, meter.take());
            Ok((p, masked))
        },
    )?;
    Ok((
        masked,
        profile,
        AccessPatternAudit::nothing_revealed(),
        report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{plain_knn_records, DataOwner, QueryUser, Table};
    use parking_lot::Mutex;
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;
    use sknn_paillier::PublicKey;
    use sknn_protocols::transport::TransportError;
    use sknn_protocols::{LocalKeyHolder, ProtocolError, Request, Response};

    fn setup(table: &Table) -> (CloudC1, LocalKeyHolder, QueryUser, StdRng) {
        let mut rng = StdRng::seed_from_u64(301);
        let owner = DataOwner::new(96, &mut rng);
        let db = owner.encrypt_table(table, &mut rng).unwrap();
        let c1 = CloudC1::new(db);
        let c2 = LocalKeyHolder::new(owner.private_key().clone(), 302);
        let user = QueryUser::new(owner.public_key().clone());
        (c1, c2, user, rng)
    }

    /// One SkNN_m query over a single session, without retries.
    fn run_single(
        c1: &CloudC1,
        c2: &dyn KeyHolder,
        query: &EncryptedQuery,
        params: SecureQueryParams,
        parallelism: ParallelismConfig,
        rng: &mut StdRng,
    ) -> Result<(MaskedResult, QueryProfile, AccessPatternAudit), SknnError> {
        let sessions = SessionSet::new(vec![c2])?;
        let (masked, profile, audit, _report) = execute_secure(
            c1,
            &sessions,
            query,
            params,
            parallelism,
            &RetryPolicy::none(),
            rng,
        )?;
        Ok((masked, profile, audit))
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
            let (masked, _, audit) = run_single(
                &c1,
                &c2,
                &enc_q,
                SecureQueryParams { k, l },
                ParallelismConfig::serial(),
                &mut rng,
            )
            .unwrap();
            let mut records = user.recover_records(&masked).unwrap();
            let mut expected = plain_knn_records(&table, &query, k).unwrap();
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
        let (masked, profile, audit) = run_single(
            &c1,
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
        let expected = plain_knn_records(&table, &query, 2).unwrap();

        for shards in [2usize, 3] {
            let sharded = c1.clone().with_shards(shards);
            let (masked, profile, audit) = run_single(
                &sharded,
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
        let (masked, _, _) = run_single(
            &c1,
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
            let (masked, _, _) = run_single(
                &c1,
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
        let (masked, _, _) = run_single(
            &c1,
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
        let (masked, _, _) = run_single(
            &sharded,
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
        let err = run_single(
            &c1,
            &c2,
            &enc_q,
            SecureQueryParams { k: 1, l: 0 },
            ParallelismConfig::serial(),
            &mut rng,
        )
        .unwrap_err();
        assert!(matches!(err, SknnError::Protocol(_)));
    }

    /// C2 that answers every request honestly, then drops the last
    /// ciphertext of the reply to the request named `cut`.
    struct ShortReply {
        inner: LocalKeyHolder,
        cut: &'static str,
    }

    impl KeyHolder for ShortReply {
        fn public_key(&self) -> &PublicKey {
            self.inner.public_key()
        }
        fn call(&self, request: Request) -> Result<Response, ProtocolError> {
            let cut = request.name() == self.cut;
            let mut response = self.inner.call(request)?;
            if let (
                true,
                Response::Ciphertexts(reply) | Response::SminRound { m_prime: reply, .. },
            ) = (cut, &mut response)
            {
                reply.pop();
            }
            Ok(response)
        }
    }

    #[test]
    fn short_selection_replies_are_typed_errors() {
        // Both replies are un-permuted by C1, which used to panic on a
        // length mismatch; now the short reply surfaces as a batch
        // mismatch: n = 4 indicator entries, or one M′ entry per bit of l.
        let table = Table::new(vec![vec![1], vec![3], vec![5], vec![9]]).unwrap();
        let l = table.required_distance_bits(10);
        for (cut, sent) in [("MinSelection", 4), ("SminRound", l)] {
            let (c1, honest, user, mut rng) = setup(&table);
            let c2 = ShortReply { inner: honest, cut };
            let enc_q = user.encrypt_query(&[4], &mut rng).unwrap();
            let err = run_single(
                &c1,
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

    /// A curious but protocol-following C2: it answers every request
    /// honestly, and uses its secret key to read the Paillier unit
    /// `c·(1 − m·N) mod N²` of every ciphertext it sends or receives.
    /// It remembers the unit of the `E(1)` entry of each `MinSelection`
    /// reply, then looks for that unit among the first SM operands of the
    /// next `SmBatch` — C1's extraction products `SM(Vᵢ, E(tᵢ,ⱼ))`, `m`
    /// pairs per record, in record order.
    struct CuriousKeyHolder {
        inner: LocalKeyHolder,
        marked_unit: Mutex<Option<BigUint>>,
        named_record: Mutex<Option<usize>>,
        records: usize,
    }

    impl CuriousKeyHolder {
        fn unit(&self, c: &Ciphertext) -> BigUint {
            let pk = self.inner.public_key();
            let (n, nn) = (pk.n(), pk.n_squared());
            let m = self.inner.debug_decrypt(c);
            let inverse = BigUint::one().mod_sub(&m.mul_ref(n).rem_ref(nn), nn);
            c.as_raw().mod_mul(&inverse, nn)
        }
    }

    impl KeyHolder for CuriousKeyHolder {
        fn public_key(&self) -> &PublicKey {
            self.inner.public_key()
        }
        fn call(&self, request: Request) -> Result<Response, ProtocolError> {
            if let Request::SmBatch(pairs) = &request {
                if let Some(marked) = self.marked_unit.lock().take() {
                    let per_record = pairs.len() / self.records;
                    let hit = pairs.iter().position(|(a, _)| self.unit(a) == marked);
                    *self.named_record.lock() = hit.map(|p| p / per_record);
                }
            }
            let selection = matches!(request, Request::MinSelection(_));
            let response = self.inner.call(request)?;
            if let (true, Response::Ciphertexts(u)) = (selection, &response) {
                let one = BigUint::one();
                let marked = u.iter().find(|c| self.inner.debug_decrypt(c) == one);
                *self.marked_unit.lock() = marked.map(|c| self.unit(c));
            }
            Ok(response)
        }
    }

    #[test]
    fn curious_c2_links_the_selected_record_through_sm_units() {
        // Today's leak (ROADMAP item 1): SM masks its operands with
        // `add_plain`, which keeps the Paillier unit, so C1's extraction
        // requests carry the very units of C2's indicator reply. Once
        // every mask carries a fresh unit (item 1's fix), this assertion
        // becomes "C2 names the record no more often than
        // `AccessPatternAudit` declares" — i.e. at chance, 1/n.
        const QUERIES: u64 = 20;
        let (n, m) = (12, 3);
        let mut named = 0;
        for seed in 0..QUERIES {
            let mut rng = StdRng::seed_from_u64(0xC0_0000 + seed);
            let rows: Vec<Vec<u64>> = (0..n)
                .map(|_| (0..m).map(|_| rng.gen_range(0..16)).collect())
                .collect();
            let table = Table::new(rows).unwrap();
            let owner = DataOwner::new(96, &mut rng);
            let c1 = CloudC1::new(owner.encrypt_table(&table, &mut rng).unwrap());
            let c2 = CuriousKeyHolder {
                inner: LocalKeyHolder::new(owner.private_key().clone(), seed),
                marked_unit: Mutex::new(None),
                named_record: Mutex::new(None),
                records: n,
            };
            let user = QueryUser::new(owner.public_key().clone());
            let query: Vec<u64> = (0..m).map(|_| rng.gen_range(0..16)).collect();
            let enc_q = user.encrypt_query(&query, &mut rng).unwrap();
            let l = table.required_distance_bits(15);
            let (masked, _, audit) = run_single(
                &c1,
                &c2,
                &enc_q,
                SecureQueryParams { k: 1, l },
                ParallelismConfig::serial(),
                &mut rng,
            )
            .unwrap();
            assert!(audit.is_oblivious());
            let returned = user.recover_records(&masked).unwrap();
            let guess = c2.named_record.lock().take();
            if guess.is_some_and(|i| table.record(i) == returned[0].as_slice()) {
                named += 1;
            }
        }
        // A guessing C2 would name it in about QUERIES/n ≈ 1.7 queries.
        assert_eq!(
            named, QUERIES,
            "C2 named the returned record {named}/{QUERIES} times"
        );
    }
}
