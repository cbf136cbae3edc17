//! Micro-benchmarks of the big-integer substrate, including the
//! Montgomery-vs-plain exponentiation ablation called out in DESIGN.md.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sknn_bigint::{gen_prime_with_bit_exact, random_bits_exact, BigUint, Montgomery};
use std::hint::black_box;

fn bench_mul_div(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut group = c.benchmark_group("bigint/mul_div");
    for bits in [512usize, 1024, 2048] {
        let a = random_bits_exact(&mut rng, bits);
        let b = random_bits_exact(&mut rng, bits);
        group.bench_with_input(BenchmarkId::new("mul", bits), &bits, |bench, _| {
            bench.iter(|| black_box(a.mul_ref(&b)))
        });
        let product = a.mul_ref(&b);
        group.bench_with_input(BenchmarkId::new("div_rem", bits), &bits, |bench, _| {
            bench.iter(|| black_box(product.div_rem(&b)))
        });
    }
    group.finish();
}

fn bench_modexp(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let mut group = c.benchmark_group("bigint/modexp");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    // 8-, 16- and 32-limb moduli: every width of the fixed-width kernel.
    for bits in [512usize, 1024, 2048] {
        let mut modulus = random_bits_exact(&mut rng, bits);
        modulus.set_bit(0, true); // odd
        let base = random_bits_exact(&mut rng, bits - 1);
        let exponent = random_bits_exact(&mut rng, bits - 1);
        group.bench_with_input(BenchmarkId::new("montgomery", bits), &bits, |bench, _| {
            bench.iter(|| black_box(base.mod_pow(&exponent, &modulus)))
        });
        // Ablation: plain square-and-multiply with division-based reduction.
        group.bench_with_input(BenchmarkId::new("basic", bits), &bits, |bench, _| {
            bench.iter(|| black_box(base.mod_pow_basic(&exponent, &modulus)))
        });
    }
    group.finish();
}

/// SSED's per-record cross terms at K = 512: six 512-bit exponents (one per
/// attribute, each below N) on bases mod the 1024-bit N², as one
/// interleaved multi-exponentiation against six `pow`s and their product;
/// and SMIN's λ step, one base to eight exponents.
fn bench_multi_pow(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let mut group = c.benchmark_group("bigint/multi_pow");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let mut modulus = random_bits_exact(&mut rng, 1024);
    modulus.set_bit(0, true);
    let ctx = Montgomery::new(modulus.clone());
    let bases: Vec<BigUint> = (0..6).map(|_| random_bits_exact(&mut rng, 1023)).collect();
    let exps: Vec<BigUint> = (0..6).map(|_| random_bits_exact(&mut rng, 512)).collect();
    let terms: Vec<(&BigUint, &BigUint)> = bases.iter().zip(&exps).collect();
    group.bench_function("straus_6x512_mod_1024", |bench| {
        bench.iter(|| black_box(ctx.multi_pow(&terms)))
    });
    group.bench_function("six_pows_6x512_mod_1024", |bench| {
        bench.iter(|| {
            black_box(
                terms
                    .iter()
                    .fold(BigUint::one(), |acc, (b, e)| ctx.mul(&acc, &ctx.pow(b, e))),
            )
        })
    });
    // SMIN's λ step at K = 512, l = 8: one base, eight 512-bit exponents,
    // as one fixed-base table against eight `pow`s.
    let base = &bases[0];
    let exps: Vec<BigUint> = (0..8).map(|_| random_bits_exact(&mut rng, 512)).collect();
    group.bench_function("fixed_base_8x512_mod_1024", |bench| {
        bench.iter(|| black_box(ctx.pow_many(base, &exps)))
    });
    group.bench_function("eight_pows_8x512_mod_1024", |bench| {
        bench.iter(|| black_box(exps.iter().map(|e| ctx.pow(base, e)).collect::<Vec<_>>()))
    });
    group.finish();
}

fn bench_modinv_and_primes(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let mut group = c.benchmark_group("bigint/number_theory");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    // Odd 512- and 1024-bit moduli: N at K = 512 and 1024, the inverse
    // under every `PublicKey::negate`.
    for bits in [512usize, 1024] {
        let mut modulus = random_bits_exact(&mut rng, bits);
        modulus.set_bit(0, true);
        let value = random_bits_exact(&mut rng, bits - 1);
        group.bench_with_input(BenchmarkId::new("mod_inverse", bits), &bits, |bench, _| {
            bench.iter(|| black_box(value.mod_inverse(&modulus)))
        });
    }
    group.bench_function("gen_prime_128", |bench| {
        let mut rng = StdRng::seed_from_u64(4);
        bench.iter(|| black_box(gen_prime_with_bit_exact(&mut rng, 128, 8)))
    });
    group.bench_function("gcd_512", |bench| {
        let a = random_bits_exact(&mut rng, 512);
        let b = random_bits_exact(&mut rng, 512);
        bench.iter(|| black_box(a.gcd(&b)))
    });
    let _ = BigUint::zero();
    group.finish();
}

criterion_group!(
    benches,
    bench_mul_div,
    bench_modexp,
    bench_multi_pow,
    bench_modinv_and_primes
);
criterion_main!(benches);
