//! SkNN_m as a staged plan (Algorithm 6, scatter–gather form).
//!
//! The paper's loop — k rounds of {SMIN_n over all n bit-decomposed
//! distances, oblivious zero-test selection, indicator extraction, SBOR
//! freeze} — becomes:
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

use super::stages::{FinalizeStage, SbdStage, SsedStage};
use super::{record_ops, run_contained, scatter, SessionSet};
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
use sknn_protocols::{recompose_bits, secure_multiply_batch, KeyHolder, Permutation};

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
/// Rounds that produce the answer (`shard: None`) record under the paper's
/// stage names; a shard's candidate-extraction rounds ahead of a gather
/// record everything under [`Stage::ShardCandidates`], credited to it.
fn oblivious_select_round<K: KeyHolder + ?Sized, R: RngCore + ?Sized>(
    c1: &CloudC1,
    meter: &OpMeter<'_, K>,
    records: &[&[Ciphertext]],
    distance_bits: &mut [Vec<Ciphertext>],
    profile: &mut QueryProfile,
    shard: Option<usize>,
    rng: &mut R,
) -> Result<(Vec<Ciphertext>, Vec<Ciphertext>), SknnError> {
    let stage = |paper: Stage| shard.map_or(paper, |_| Stage::ShardCandidates);
    let pk = c1.public_key();
    let n = records.len();
    let m = records.first().map_or(0, |r| r.len());
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
        // 3(d): undo the permutation; V has E(1) at the winning record. A
        // reply of the wrong length is a typed error here.
        let v = pi.apply_inverse(&u)?;

        // V′_{i,j} = SM(V_i, E(t_{i,j})); E(t′_{s,j}) = Π_i V′_{i,j}.
        let pairs: Vec<(Ciphertext, Ciphertext)> = (0..n)
            .flat_map(|i| {
                let v_i = v[i].clone();
                records[i]
                    .iter()
                    .map(move |attr| (v_i.clone(), attr.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        let products = secure_multiply_batch(pk, meter, &pairs, rng);
        let record: Vec<Ciphertext> = (0..m)
            .map(|j| pk.sum((0..n).map(|i| &products[i * m + j])))
            .collect();
        Ok::<_, SknnError>((record, v))
    });
    record_ops(profile, shard, stage(Stage::RecordSelection), meter.take());
    let (selected_record, indicator) = selection?;

    // 3(e): freeze the winner's distance at the all-ones maximum via
    // SBOR so it can never win again. One batched SM round covers all
    // n·l bit positions.
    profile.time(stage(Stage::DistanceFreezing), || {
        let pairs: Vec<(Ciphertext, Ciphertext)> = (0..n)
            .flat_map(|i| {
                let v_i = indicator[i].clone();
                distance_bits[i]
                    .iter()
                    .map(move |bit| (v_i.clone(), bit.clone()))
                    .collect::<Vec<_>>()
            })
            .collect();
        let products = secure_multiply_batch(pk, meter, &pairs, rng);
        for i in 0..n {
            for gamma in 0..l {
                // o₁ ∨ o₂ = o₁ + o₂ − o₁·o₂ with o₁ = V_i, o₂ = d_{i,γ}.
                let sum = pk.add(&indicator[i], &distance_bits[i][gamma]);
                distance_bits[i][gamma] = pk.sub(&sum, &products[i * l + gamma]);
            }
        }
    });
    record_ops(profile, shard, stage(Stage::DistanceFreezing), meter.take());

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
    let mut profile = QueryProfile::new();

    // ── Scatter: each shard extracts its k nearest as encrypted candidates ──
    let (shards, report) = scatter(
        db,
        sessions,
        parallelism,
        retry,
        rng,
        &mut profile,
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
                SbdStage::new(c1, l, task.parallelism).run(&meter, &distances, &mut rng)
            })?;
            record_ops(&mut p, shard, Stage::BitDecomposition, meter.take());

            let records: Vec<&[Ciphertext]> = distances
                .live
                .iter()
                .map(|&i| db.record(i).as_slice())
                .collect();
            let rounds = k.min(records.len());
            let mut candidates = Vec::with_capacity(rounds);
            for _ in 0..rounds {
                let (record, dmin_bits) = oblivious_select_round(
                    c1, &meter, &records, &mut bits, &mut p, shard, &mut rng,
                )?;
                candidates.push(SecureCandidate {
                    record,
                    bits: dmin_bits,
                });
            }
            Ok((p, candidates))
        },
    )?;

    let profile_ref = &mut profile;
    let masked = run_contained(move || {
        let meter = OpMeter::new(sessions.primary());
        let results: Vec<Vec<Ciphertext>> = match <[_; 1]>::try_from(shards) {
            // One shard's k rounds already extracted the answer.
            Ok([candidates]) => candidates.into_iter().map(|c| c.record).collect(),
            // ── Gather: the same oblivious rounds over the ≤ k·S candidates ──
            Err(shards) => {
                let candidates: Vec<SecureCandidate> = shards.into_iter().flatten().collect();
                let mut candidate_bits: Vec<Vec<Ciphertext>> =
                    candidates.iter().map(|c| c.bits.clone()).collect();
                let candidate_records: Vec<&[Ciphertext]> =
                    candidates.iter().map(|c| c.record.as_slice()).collect();
                let mut results = Vec::with_capacity(k);
                for _ in 0..k {
                    let (record, _bits) = oblivious_select_round(
                        c1,
                        &meter,
                        &candidate_records,
                        &mut candidate_bits,
                        profile_ref,
                        None,
                        rng,
                    )?;
                    results.push(record);
                }
                results
            }
        };

        let masked = profile_ref.time(Stage::Finalization, || {
            FinalizeStage.run(c1, &meter, &results, rng)
        })?;
        profile_ref.record_ops(Stage::Finalization, meter.take());
        Ok(masked)
    })?;
    Ok((
        masked,
        profile,
        AccessPatternAudit::nothing_revealed(),
        report,
    ))
}
