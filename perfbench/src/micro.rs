//! Per-call costs of the arithmetic layers, timed from outside through
//! their public functions. Each figure is the median over batches of the
//! per-call time, so one preempted batch does not move it.

use rand::rngs::StdRng;
use rand::Rng;
use sknn_bigint::{random_below, Montgomery};
use sknn_core::SknnEngine;
use sknn_paillier::{Keypair, PoolConfig, PooledEncryptor, RandomnessPool};
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Key size of the arithmetic microbenchmarks: the paper's smaller key, so
/// `N²` is a 1024-bit modulus whatever key the workload runs at.
pub const MICRO_KEY_BITS: usize = 512;

/// Batches per figure.
pub const BATCHES: usize = 7;

/// Median over [`BATCHES`] batches of the time of one call, in seconds.
fn per_call(per_batch: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            t.elapsed().as_secs_f64() / per_batch as f64
        })
        .collect();
    median(&times).unwrap_or(f64::NAN)
}

/// Times the `bigint`, `paillier` and role-level calls; returns
/// `(metric, unit, value)` triples.
pub fn measure(
    engine: &SknnEngine,
    point: &[u64],
    rng: &mut StdRng,
) -> Vec<(&'static str, &'static str, f64)> {
    let (pk, sk) = Keypair::generate(MICRO_KEY_BITS, rng).split();
    let n2 = pk.n_squared().clone();
    let mont = Montgomery::new(n2.clone());
    let a = random_below(rng, &n2);
    let b = random_below(rng, &n2);
    let mut out = vec![
        // `r^N mod N²`, the exponentiation behind every fresh encryption.
        (
            "mont_pow_1024_us",
            "us",
            per_call(20, || {
                black_box(mont.pow(black_box(&a), pk.n()));
            }) * 1e6,
        ),
        (
            "mont_mul_1024_ns",
            "ns",
            per_call(2000, || {
                black_box(mont.mul(black_box(&a), black_box(&b)));
            }) * 1e9,
        ),
        (
            "mont_sqr_1024_ns",
            "ns",
            per_call(2000, || {
                black_box(mont.sqr(black_box(&a)));
            }) * 1e9,
        ),
    ];

    let m = random_below(rng, pk.n());
    let c = pk.encrypt(&m, rng);
    let full = random_below(rng, pk.n());
    out.push((
        "encrypt_cold_us",
        "us",
        per_call(20, || {
            black_box(pk.encrypt(black_box(&m), rng));
        }) * 1e6,
    ));
    out.push((
        "negate_us",
        "us",
        per_call(20, || {
            black_box(pk.negate(black_box(&c)));
        }) * 1e6,
    ));
    out.push((
        "mul_plain_full_us",
        "us",
        per_call(20, || {
            black_box(pk.mul_plain(black_box(&c), &full));
        }) * 1e6,
    ));
    out.push((
        "decrypt_crt_us",
        "us",
        per_call(20, || {
            // sknn-lint: allow(decrypt-containment, "times the CRT decryption C2 performs; the benchmark holds its own key")
            black_box(sk.decrypt(black_box(&c)));
        }) * 1e6,
    ));

    // Online cost of a pooled encryption and re-randomisation: one
    // multiplication by a precomputed unit. The pool is filled up front and
    // never refilled, so every draw is a hit.
    let per_batch = 40;
    let pool = RandomnessPool::new(
        pk.clone(),
        PoolConfig {
            capacity: 2 * BATCHES * per_batch,
            background_refill: false,
            seed: Some(rng.gen()),
            ..PoolConfig::default()
        },
    );
    pool.prewarm(2 * BATCHES * per_batch);
    let enc = PooledEncryptor::new(pool);
    out.push((
        "encrypt_pooled_us",
        "us",
        per_call(per_batch, || {
            black_box(enc.encrypt(black_box(&m)).ok());
        }) * 1e6,
    ));
    out.push((
        "rerandomize_pooled_us",
        "us",
        per_call(per_batch, || {
            black_box(enc.rerandomize(black_box(&c)));
        }) * 1e6,
    ));

    // Role-level calls at the workload's own key.
    out.push((
        "encrypt_record_ms",
        "ms",
        per_call(3, || {
            black_box(engine.owner().encrypt_record(black_box(point), rng).ok());
        }) * 1e3,
    ));
    out.push((
        "user_encrypt_query_ms",
        "ms",
        per_call(3, || {
            black_box(
                engine
                    .query_user()
                    .encrypt_query(black_box(point), rng)
                    .ok(),
            );
        }) * 1e3,
    ));
    out
}
