//! Micro-benchmarks of the Paillier layer, including the CRT-vs-direct
//! decryption ablation called out in DESIGN.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sknn_bench::cached_keypair;
use sknn_bigint::BigUint;
use std::hint::black_box;

fn bench_encrypt_decrypt(c: &mut Criterion) {
    let mut group = c.benchmark_group("paillier/encrypt_decrypt");
    group.sample_size(20);
    for key_bits in [256usize, 512] {
        let (pk, sk) = cached_keypair(key_bits).split();
        let mut rng = StdRng::seed_from_u64(11);
        let m = BigUint::from_u64(123_456_789);
        group.bench_with_input(BenchmarkId::new("encrypt", key_bits), &key_bits, |b, _| {
            b.iter(|| black_box(pk.encrypt(&m, &mut rng)))
        });
        let c1 = pk.encrypt(&m, &mut rng);
        group.bench_with_input(
            BenchmarkId::new("decrypt_crt", key_bits),
            &key_bits,
            |b, _| b.iter(|| black_box(sk.decrypt(&c1))),
        );
        group.bench_with_input(
            BenchmarkId::new("decrypt_direct", key_bits),
            &key_bits,
            |b, _| b.iter(|| black_box(sk.decrypt_direct(&c1))),
        );
    }
    group.finish();
}

fn bench_homomorphic_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("paillier/homomorphic");
    let (pk, _sk) = cached_keypair(512).split();
    let mut rng = StdRng::seed_from_u64(12);
    let a = pk.encrypt_u64(1234, &mut rng);
    let b = pk.encrypt_u64(5678, &mut rng);
    group.bench_function("add", |bench| bench.iter(|| black_box(pk.add(&a, &b))));
    group.bench_function("mul_plain_small", |bench| {
        bench.iter(|| black_box(pk.mul_plain_u64(&a, 42)))
    });
    group.bench_function("negate", |bench| bench.iter(|| black_box(pk.negate(&a))));
    // Ablation: the paper's negation, E(a)^{N−1}, that `negate` replaced.
    let n_minus_1 = pk.n().sub_ref(&BigUint::one());
    group.bench_function("negate_full_exponent", |bench| {
        bench.iter(|| black_box(pk.mul_plain(&a, &n_minus_1)))
    });
    group.bench_function("rerandomize", |bench| {
        bench.iter(|| black_box(pk.rerandomize(&a, &mut rng)))
    });
    group.finish();
}

criterion_group!(benches, bench_encrypt_decrypt, bench_homomorphic_ops);
criterion_main!(benches);
