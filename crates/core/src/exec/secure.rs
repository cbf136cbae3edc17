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
//!   machinery, so C2 learns exactly what it learns in the monolithic run,
//!   per shard.
//! * **gather**: the primary session runs the *same* k rounds over the
//!   ≤ k·S surviving candidates instead of all n records. Since the global
//!   k nearest are each among their own shard's k nearest, the candidate
//!   set always contains the true result, and the gather extracts it in
//!   the same nearest-first order as the monolithic scan.
//!
//! Equal-distance ties may resolve differently than the monolithic run
//! (C2's tie-breaking randomness is consumed per shard), which is the same
//! caveat `SknnEngine::run_batch` documents — both outcomes are correct
//! kNN sets.

use super::stages::{FinalizeStage, SbdStage, SsedStage};
use super::{retry_shard_stage, run_contained, SessionSet};
use crate::config::SecureQueryParams;
use crate::meter::OpMeter;
use crate::parallel::{parallel_map, ParallelismConfig};
use crate::profile::{OpCounters, QueryProfile, Stage};
use crate::retry::{RetryPolicy, RetryReport};
use crate::roles::CloudC1;
use crate::seed::{derive_seeds, derived_rng};
use crate::{AccessPatternAudit, EncryptedQuery, MaskedResult, ShardView, SknnError};
use rand::RngCore;
use sknn_bigint::{random_range, BigUint};
use sknn_paillier::Ciphertext;
use sknn_protocols::{recompose_bits, secure_multiply_batch, KeyHolder, Permutation};

/// Where one oblivious selection round's work lands in the profile.
struct SelectAttribution {
    smin: Stage,
    selection: Stage,
    freeze: Stage,
    /// `Some(shard)` attributes the counters per shard (scatter rounds);
    /// `None` records plain stage totals (monolithic and gather rounds).
    shard: Option<usize>,
}

/// Attribution of the monolithic loop and the gather merge: the paper's
/// stage names, no shard.
const GATHER: SelectAttribution = SelectAttribution {
    smin: Stage::SecureMinimum,
    selection: Stage::RecordSelection,
    freeze: Stage::DistanceFreezing,
    shard: None,
};

/// Attribution of a shard's candidate-extraction rounds: everything lands
/// under [`Stage::ShardCandidates`], credited to the shard.
fn scatter_attribution(shard: usize) -> SelectAttribution {
    SelectAttribution {
        smin: Stage::ShardCandidates,
        selection: Stage::ShardCandidates,
        freeze: Stage::ShardCandidates,
        shard: Some(shard),
    }
}

fn record_ops(
    profile: &mut QueryProfile,
    attrib: &SelectAttribution,
    stage: Stage,
    counters: OpCounters,
) {
    match attrib.shard {
        Some(shard) => profile.record_shard_ops(shard, stage, counters),
        None => profile.record_ops(stage, counters),
    }
}

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
fn oblivious_select_round<K: KeyHolder + ?Sized, R: RngCore + ?Sized>(
    c1: &CloudC1,
    meter: &OpMeter<'_, K>,
    records: &[&[Ciphertext]],
    distance_bits: &mut [Vec<Ciphertext>],
    profile: &mut QueryProfile,
    attrib: &SelectAttribution,
    rng: &mut R,
) -> Result<(Vec<Ciphertext>, Vec<Ciphertext>), SknnError> {
    let pk = c1.public_key();
    let n = records.len();
    let m = records.first().map_or(0, |r| r.len());
    let l = distance_bits.first().map_or(0, |b| b.len());
    let one = BigUint::one();

    // 3(a): [d_min] over the candidate set.
    let dmin_bits = profile.time(attrib.smin, || {
        sknn_protocols::secure_min_n(pk, meter, distance_bits, rng)
    })?;
    record_ops(profile, attrib, attrib.smin, meter.take());

    let selection = profile.time(attrib.selection, || {
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
        let beta = pi.apply(&tau_prime);

        // 3(c): C2 marks exactly one zero position — obliviously,
        // because of the permutation and randomization. A missing
        // zero violates the protocol invariant and surfaces as a
        // typed error instead of a silent all-zero indicator.
        let u = meter.min_selection(&beta)?;
        // 3(d): undo the permutation; V has E(1) at the winning record.
        let v = pi.apply_inverse(&u);

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
    record_ops(profile, attrib, attrib.selection, meter.take());
    let (selected_record, indicator) = selection?;

    // 3(e): freeze the winner's distance at the all-ones maximum via
    // SBOR so it can never win again. One batched SM round covers all
    // n·l bit positions.
    profile.time(attrib.freeze, || {
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
    record_ops(profile, attrib, attrib.freeze, meter.take());

    Ok((selected_record, dmin_bits))
}

/// Runs the full SkNN_m plan over the given sessions (see the module
/// docs): monolithic when at most one shard holds live records,
/// scatter–gather otherwise.
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

    // Tombstoned records are excluded here, before any protocol message is
    // formed; shards that tombstoning emptied drop out of the plan.
    let views: Vec<_> = db
        .shard_views()
        .into_iter()
        .filter(|v| v.num_live() > 0)
        .collect();

    // ── Monolithic plan: one populated shard is the paper's Algorithm 6 ──
    // There is no per-shard stage to retry here; failures surface as typed
    // errors and the engine's whole-query retry handles them.
    if views.len() <= 1 {
        let rng = &mut *rng;
        let profile_ref = &mut profile;
        let masked = run_contained(move || {
            let c2 = sessions.primary();
            let meter = OpMeter::new(c2);
            let live = db.live_indices();

            let distances = profile_ref.time(Stage::DistanceComputation, || {
                SsedStage::for_secure(c1, l, parallelism).run(&meter, query, live, rng)
            })?;
            profile_ref.record_ops(Stage::DistanceComputation, meter.take());

            let mut distance_bits = profile_ref.time(Stage::BitDecomposition, || {
                SbdStage::new(c1, l, parallelism).run(&meter, &distances, rng)
            })?;
            profile_ref.record_ops(Stage::BitDecomposition, meter.take());

            let records: Vec<&[Ciphertext]> = distances
                .live
                .iter()
                .map(|&i| db.record(i).as_slice())
                .collect();
            let mut results = Vec::with_capacity(k);
            for _ in 0..k {
                let (record, _bits) = oblivious_select_round(
                    c1,
                    &meter,
                    &records,
                    &mut distance_bits,
                    profile_ref,
                    &GATHER,
                    rng,
                )?;
                results.push(record);
            }

            let masked = profile_ref.time(Stage::Finalization, || {
                FinalizeStage.run(c1, &meter, &results, rng)
            });
            profile_ref.record_ops(Stage::Finalization, meter.take());
            Ok(masked)
        })?;
        return Ok((
            masked,
            profile,
            AccessPatternAudit::nothing_revealed(),
            RetryReport::default(),
        ));
    }

    // ── Scatter: each shard extracts its k nearest as encrypted candidates ──
    let seeds = derive_seeds(rng, views.len());
    // Ceiling for the same reason run_batch uses it: floor would strand
    // threads whenever shards don't divide the budget evenly.
    let inner = ParallelismConfig {
        threads: parallelism.threads.div_ceil(views.len()).max(1),
    };
    // The scatter task: a pure function of (derived seed, shard view,
    // session), so a re-run on any session is bit-identical.
    let run_shard = |i: usize,
                     view: &ShardView,
                     c2: &dyn KeyHolder|
     -> Result<(QueryProfile, Vec<SecureCandidate>), SknnError> {
        let mut shard_rng = derived_rng(seeds[i]);
        let shard = view.shard();
        let meter = OpMeter::new(c2);
        let mut p = QueryProfile::new();

        let distances = p.time(Stage::DistanceComputation, || {
            SsedStage::for_secure(c1, l, inner).run(
                &meter,
                query,
                view.live_indices(),
                &mut shard_rng,
            )
        })?;
        p.record_shard_ops(shard, Stage::DistanceComputation, meter.take());

        let mut bits = p.time(Stage::BitDecomposition, || {
            SbdStage::new(c1, l, inner).run(&meter, &distances, &mut shard_rng)
        })?;
        p.record_shard_ops(shard, Stage::BitDecomposition, meter.take());

        let records: Vec<&[Ciphertext]> = distances
            .live
            .iter()
            .map(|&i| db.record(i).as_slice())
            .collect();
        let attrib = scatter_attribution(shard);
        let rounds = k.min(records.len());
        let mut candidates = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let (record, dmin_bits) = oblivious_select_round(
                c1,
                &meter,
                &records,
                &mut bits,
                &mut p,
                &attrib,
                &mut shard_rng,
            )?;
            candidates.push(SecureCandidate {
                record,
                bits: dmin_bits,
            });
        }
        Ok((p, candidates))
    };
    let shard_outs = parallel_map(parallelism.threads, &views, |i, view| {
        run_contained(|| run_shard(i, view, sessions.for_shard(view.shard())))
    });

    // Serial recovery pass: re-run failed scatter tasks per the policy,
    // re-pinning dead sessions' shards onto survivors.
    let mut report = RetryReport::default();
    let mut dead: Vec<usize> = Vec::new();
    let mut candidates: Vec<SecureCandidate> = Vec::new();
    for (i, out) in shard_outs.into_iter().enumerate() {
        let view = &views[i];
        let (p, shard_candidates) = match out {
            Ok(ok) => ok,
            Err(e) => retry_shard_stage(
                sessions,
                view.shard(),
                retry,
                &mut dead,
                &mut report,
                e,
                |c2| run_shard(i, view, c2),
            )?,
        };
        profile.merge(&p);
        candidates.extend(shard_candidates);
    }
    report.dead_sessions = dead;

    // ── Gather: the same oblivious rounds over the ≤ k·S candidates ──
    let profile_ref = &mut profile;
    let masked = run_contained(move || {
        let c2 = sessions.primary();
        let meter = OpMeter::new(c2);
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
                &GATHER,
                rng,
            )?;
            results.push(record);
        }

        let masked = profile_ref.time(Stage::Finalization, || {
            FinalizeStage.run(c1, &meter, &results, rng)
        });
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
