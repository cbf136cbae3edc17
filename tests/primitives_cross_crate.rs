//! Integration tests that exercise the primitive layers together the way the
//! top-level protocols compose them, but driven directly through the facade
//! crate's re-exports (bigint → paillier → protocols).

use rand::rngs::StdRng;
use rand::SeedableRng;
use sknn::bigint::BigUint;
use sknn::protocols::{
    recompose_bits, secure_bit_decompose_batch, secure_bit_or, secure_min_n, secure_multiply_batch,
    secure_squared_distance, LocalKeyHolder,
};
use sknn::Keypair;

#[test]
fn full_primitive_pipeline_mirrors_algorithm_6_inner_loop() {
    // One hand-driven iteration of Algorithm 6's inner loop on a tiny input,
    // checking each intermediate against its plaintext value.
    let mut rng = StdRng::seed_from_u64(31337);
    let (pk, sk) = Keypair::generate(128, &mut rng).split();
    let holder = LocalKeyHolder::new(sk.clone(), 99);

    let records: Vec<Vec<u64>> = vec![vec![5, 1], vec![2, 2], vec![9, 9]];
    let query: Vec<u64> = vec![3, 2];
    let l = 8;

    // Encrypt attribute-wise.
    let enc_records: Vec<Vec<_>> = records
        .iter()
        .map(|r| r.iter().map(|&v| pk.encrypt_u64(v, &mut rng)).collect())
        .collect();
    let enc_query: Vec<_> = query.iter().map(|&v| pk.encrypt_u64(v, &mut rng)).collect();

    // SSED for every record.
    let distances: Vec<_> = enc_records
        .iter()
        .map(|r| secure_squared_distance(&pk, &holder, &enc_query, r, &mut rng).unwrap())
        .collect();
    let plain_distances: Vec<u64> = records
        .iter()
        .map(|r| {
            r.iter()
                .zip(&query)
                .map(|(&a, &b)| (a as i64 - b as i64).pow(2) as u64)
                .sum()
        })
        .collect();
    for (c, &expected) in distances.iter().zip(&plain_distances) {
        assert_eq!(sk.decrypt(c).to_u64().unwrap(), expected);
    }

    // SBD of every distance, then the encrypted tournament minimum.
    let bits = secure_bit_decompose_batch(&pk, &holder, &distances, l, &mut rng).unwrap();
    let dmin_bits = secure_min_n(&pk, &holder, &bits, &mut rng).unwrap();
    let dmin = sk
        .decrypt(&recompose_bits(&pk, &dmin_bits))
        .to_u64()
        .unwrap();
    assert_eq!(dmin, *plain_distances.iter().min().unwrap());

    // The SBOR-based freeze: OR-ing the winner's bits with 1 saturates them.
    let one = pk.encrypt_u64(1, &mut rng);
    let frozen: Vec<_> = bits[1]
        .iter()
        .map(|b| secure_bit_or(&pk, &holder, &one, b, &mut rng).unwrap())
        .collect();
    let frozen_value = frozen
        .iter()
        .fold(0u64, |acc, b| (acc << 1) | sk.decrypt(b).to_u64().unwrap());
    assert_eq!(frozen_value, (1 << l) - 1);
}

#[test]
fn batched_secure_multiplication_scales_to_hundreds_of_pairs() {
    let mut rng = StdRng::seed_from_u64(4242);
    let (pk, sk) = Keypair::generate(128, &mut rng).split();
    let holder = LocalKeyHolder::new(sk.clone(), 7);

    let pairs: Vec<(u64, u64)> = (0..200).map(|i| (i, 1000 - i)).collect();
    let enc_pairs: Vec<_> = pairs
        .iter()
        .map(|&(a, b)| (pk.encrypt_u64(a, &mut rng), pk.encrypt_u64(b, &mut rng)))
        .collect();
    let products = secure_multiply_batch(&pk, &holder, &enc_pairs, &mut rng).unwrap();
    assert_eq!(products.len(), 200);
    for (&(a, b), c) in pairs.iter().zip(&products) {
        assert_eq!(sk.decrypt(c).to_u64().unwrap(), a * b);
    }
}

#[test]
fn homomorphic_masking_round_trips_through_the_facade_reexports() {
    // The final reveal step of both protocols, written out by hand:
    // C1 masks with r, C2 decrypts, Bob subtracts r.
    let mut rng = StdRng::seed_from_u64(555);
    let (pk, sk) = Keypair::generate(128, &mut rng).split();
    let value = 4096u64;
    let c = pk.encrypt_u64(value, &mut rng);

    let r = sknn::bigint::random_below(&mut rng, pk.n());
    let gamma = pk.add(&c, &pk.encrypt(&r, &mut rng));
    let gamma_prime = sk.decrypt(&gamma);
    let recovered = gamma_prime.mod_sub(&r, pk.n());
    assert_eq!(recovered, BigUint::from_u64(value));
}
