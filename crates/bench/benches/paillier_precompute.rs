//! Offline/online precomputation ablation: cold (direct) Paillier encryption
//! pays the full `r^N mod N²` exponentiation per call, warm-pool encryption
//! pays one modular multiplication. The `offline/` entries price the work
//! that moved off the query path (per-entry precompute cost), and the
//! `unit/` entries compare the public-key unit with the key holder's CRT
//! units.
//!
//! The acceptance bar — warm online encryption ≥ 3× faster than cold on the
//! same key — is asserted by `crates/paillier/tests/pool.rs`; this benchmark
//! reports the actual ratio at realistic key sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sknn_bench::cached_keypair;
use sknn_bigint::{gen_prime, BigUint, Montgomery};
use sknn_paillier::{Keypair, PoolConfig, PooledEncryptor, RandomnessPool};
use std::hint::black_box;

/// A warm encryptor whose pool is large enough that measured draws never
/// fall back to the synchronous path (background refill stays on, topping
/// the pool up between samples).
fn warm_encryptor(key_bits: usize, capacity: usize) -> PooledEncryptor {
    let (pk, _) = cached_keypair(key_bits).split();
    let pool = RandomnessPool::new(
        pk,
        PoolConfig {
            capacity,
            refill_batch: 64,
            background_refill: true,
            seed: Some(0xBE7C),
        },
    );
    pool.prewarm(capacity);
    PooledEncryptor::new(pool)
}

fn bench_cold_vs_warm(c: &mut Criterion) {
    let mut group = c.benchmark_group("paillier_precompute");
    group.sample_size(30);
    for key_bits in [256usize, 512] {
        let (pk, _) = cached_keypair(key_bits).split();
        let mut rng = StdRng::seed_from_u64(0xC01D);
        let m = BigUint::from_u64(123_456_789);
        let ct = pk.encrypt(&m, &mut rng);

        group.bench_with_input(
            BenchmarkId::new("cold_encrypt", key_bits),
            &key_bits,
            |b, _| b.iter(|| black_box(pk.encrypt(&m, &mut rng))),
        );
        group.bench_with_input(
            BenchmarkId::new("cold_rerandomize", key_bits),
            &key_bits,
            |b, _| b.iter(|| black_box(pk.rerandomize(&ct, &mut rng))),
        );

        let enc = warm_encryptor(key_bits, 4096);
        group.bench_with_input(
            BenchmarkId::new("warm_encrypt", key_bits),
            &key_bits,
            |b, _| b.iter(|| black_box(enc.encrypt(&m).expect("m < N"))),
        );
        group.bench_with_input(
            BenchmarkId::new("warm_encrypt_zero", key_bits),
            &key_bits,
            |b, _| b.iter(|| black_box(enc.encrypt_zero())),
        );
        group.bench_with_input(
            BenchmarkId::new("warm_rerandomize", key_bits),
            &key_bits,
            |b, _| b.iter(|| black_box(enc.rerandomize(&ct))),
        );

        let stats = enc.pool().stats();
        println!(
            "paillier_precompute/pool_stats/{key_bits}          hits: {}, fallbacks: {} \
             (fallbacks > 0 means the refill thread fell behind on this machine)",
            stats.hits, stats.fallbacks
        );
    }
    group.finish();
}

fn bench_offline_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("paillier_precompute/offline");
    group.sample_size(20);
    for key_bits in [256usize, 512] {
        let (pk, _) = cached_keypair(key_bits).split();
        // Per-entry offline cost: what each pool entry costs to precompute
        // (sample + one exponentiation under the reused Montgomery context).
        let pool = RandomnessPool::new(
            pk,
            PoolConfig {
                capacity: 1,
                background_refill: false,
                seed: Some(0x0FF1),
                ..Default::default()
            },
        );
        group.bench_with_input(
            BenchmarkId::new("precompute_entry", key_bits),
            &key_bits,
            |b, _| {
                b.iter(|| {
                    black_box(pool.prewarm(1));
                    black_box(pool.draw());
                })
            },
        );
    }
    group.finish();
}

/// One randomness unit three ways at the paper's key sizes: the public
/// `r^N mod N²` (with the `gcd` test `sample_randomness` pays), the key
/// holder's CRT unit `CRT(x^p mod p², y^q mod q²)` that ships, and the
/// exact CRT variant `CRT((x^p)^{q mod (p−1)}, (y^q)^{p mod (q−1)})`, which
/// equals the public unit for `x = r mod p`, `y = r mod q`. The primes are
/// generated here, so the exact variant can be computed inline.
fn bench_unit_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("paillier_precompute/unit");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let mut rng = StdRng::seed_from_u64(0x0C27);
    for key_bits in [512usize, 1024] {
        let (p, q) = loop {
            let p = gen_prime(&mut rng, key_bits / 2);
            let q = gen_prime(&mut rng, key_bits / 2);
            if p != q && p.mul_ref(&q).bits() == key_bits {
                break (p, q);
            }
        };
        let (pk, sk) = Keypair::from_primes(p.clone(), q.clone()).split();
        let mont_n2 = Montgomery::new(pk.n_squared().clone());
        group.bench_with_input(BenchmarkId::new("public", key_bits), &key_bits, |b, _| {
            b.iter(|| black_box(mont_n2.pow(&pk.sample_randomness(&mut rng), pk.n())))
        });
        let units = sk
            .unit_sampler()
            .expect("generated keys pass the totient check");
        group.bench_with_input(BenchmarkId::new("crt", key_bits), &key_bits, |b, _| {
            b.iter(|| black_box(units.sample(&mut rng)))
        });
        let one = BigUint::one();
        let (p2, q2) = (p.mul_ref(&p), q.mul_ref(&q));
        let (mont_p2, mont_q2) = (Montgomery::new(p2.clone()), Montgomery::new(q2.clone()));
        let (q_mod, p_mod) = (q.rem_ref(&p.sub_ref(&one)), p.rem_ref(&q.sub_ref(&one)));
        let p2_inv_q2 = p2.mod_inverse(&q2).expect("distinct primes");
        group.bench_with_input(
            BenchmarkId::new("crt_exact", key_bits),
            &key_bits,
            |b, _| {
                b.iter(|| {
                    let r = pk.sample_randomness(&mut rng);
                    let u_p = mont_p2.pow(&mont_p2.pow(&r.rem_ref(&p), &p), &q_mod);
                    let u_q = mont_q2.pow(&mont_q2.pow(&r.rem_ref(&q), &q), &p_mod);
                    let diff = u_q.mod_sub(&u_p.rem_ref(&q2), &q2);
                    black_box(u_p.add_ref(&p2.mul_ref(&mont_q2.mul(&diff, &p2_inv_q2))))
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_cold_vs_warm,
    bench_offline_cost,
    bench_unit_cost
);
criterion_main!(benches);
