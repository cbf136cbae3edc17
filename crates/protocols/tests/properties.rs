//! Property-based tests: every secure sub-protocol must agree with its
//! plaintext counterpart on random inputs, end-to-end through encryption,
//! the two-party exchange, and decryption.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sknn_paillier::{Ciphertext, Keypair, PrivateKey, PublicKey};
use sknn_protocols::{
    recompose_bits, secure_bit_decompose, secure_bit_or, secure_min, secure_min_n, secure_multiply,
    secure_squared_distance, LocalKeyHolder,
};
use std::sync::OnceLock;

struct Fixture {
    pk: PublicKey,
    sk: PrivateKey,
    holder: LocalKeyHolder,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xFEED);
        let (pk, sk) = Keypair::generate(128, &mut rng).split();
        let holder = LocalKeyHolder::new(sk.clone(), 0xACE);
        Fixture { pk, sk, holder }
    })
}

fn encrypt_bits(pk: &PublicKey, value: u64, l: usize, rng: &mut StdRng) -> Vec<Ciphertext> {
    (0..l)
        .rev()
        .map(|i| pk.encrypt_u64((value >> i) & 1, rng))
        .collect()
}

fn decrypt_value(sk: &PrivateKey, bits: &[Ciphertext]) -> u64 {
    bits.iter().fold(0u64, |acc, b| {
        (acc << 1) | sk.decrypt(b).to_u64().expect("bit fits")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sm_matches_plain_multiplication(a in 0u64..1_000_000, b in 0u64..1_000_000, seed in any::<u64>()) {
        let f = fixture();
        let mut rng = StdRng::seed_from_u64(seed);
        let ea = f.pk.encrypt_u64(a, &mut rng);
        let eb = f.pk.encrypt_u64(b, &mut rng);
        let prod = secure_multiply(&f.pk, &f.holder, &ea, &eb, &mut rng).unwrap();
        prop_assert_eq!(f.sk.decrypt(&prod).to_u128().unwrap(), a as u128 * b as u128);
    }

    #[test]
    fn ssed_matches_plain_distance(
        xs in prop::collection::vec(0u64..1024, 1..8),
        seed in any::<u64>(),
    ) {
        let f = fixture();
        let mut rng = StdRng::seed_from_u64(seed);
        let ys: Vec<u64> = xs.iter().map(|&x| (x * 31 + 7) % 1024).collect();
        let expected: u64 = xs.iter().zip(&ys).map(|(&a, &b)| {
            let d = a as i64 - b as i64;
            (d * d) as u64
        }).sum();
        let ex: Vec<_> = xs.iter().map(|&v| f.pk.encrypt_u64(v, &mut rng)).collect();
        let ey: Vec<_> = ys.iter().map(|&v| f.pk.encrypt_u64(v, &mut rng)).collect();
        let d = secure_squared_distance(&f.pk, &f.holder, &ex, &ey, &mut rng).unwrap();
        prop_assert_eq!(f.sk.decrypt(&d).to_u64().unwrap(), expected);
    }

    #[test]
    fn sbd_recovers_every_bit(z in 0u64..(1 << 12), seed in any::<u64>()) {
        let f = fixture();
        let mut rng = StdRng::seed_from_u64(seed);
        let l = 12;
        let ez = f.pk.encrypt_u64(z, &mut rng);
        let bits = secure_bit_decompose(&f.pk, &f.holder, &ez, l, &mut rng).unwrap();
        prop_assert_eq!(bits.len(), l);
        prop_assert_eq!(decrypt_value(&f.sk, &bits), z);
        // Recomposition is the homomorphic inverse.
        let back = recompose_bits(&f.pk, &bits);
        prop_assert_eq!(f.sk.decrypt(&back).to_u64().unwrap(), z);
    }

    #[test]
    fn smin_matches_plain_min(u in 0u64..256, v in 0u64..256, seed in any::<u64>()) {
        let f = fixture();
        let mut rng = StdRng::seed_from_u64(seed);
        let l = 8;
        let bu = encrypt_bits(&f.pk, u, l, &mut rng);
        let bv = encrypt_bits(&f.pk, v, l, &mut rng);
        let min = secure_min(&f.pk, &f.holder, &bu, &bv, &mut rng).unwrap();
        prop_assert_eq!(decrypt_value(&f.sk, &min), u.min(v));
    }

    #[test]
    fn smin_n_matches_plain_min(values in prop::collection::vec(0u64..64, 1..10), seed in any::<u64>()) {
        let f = fixture();
        let mut rng = StdRng::seed_from_u64(seed);
        let l = 6;
        let enc: Vec<_> = values.iter().map(|&v| encrypt_bits(&f.pk, v, l, &mut rng)).collect();
        let min = secure_min_n(&f.pk, &f.holder, &enc, &mut rng).unwrap();
        prop_assert_eq!(decrypt_value(&f.sk, &min), *values.iter().min().unwrap());
    }

    #[test]
    fn sbor_matches_plain_or(o1 in 0u64..2, o2 in 0u64..2, seed in any::<u64>()) {
        let f = fixture();
        let mut rng = StdRng::seed_from_u64(seed);
        let e1 = f.pk.encrypt_u64(o1, &mut rng);
        let e2 = f.pk.encrypt_u64(o2, &mut rng);
        let or = secure_bit_or(&f.pk, &f.holder, &e1, &e2, &mut rng).unwrap();
        prop_assert_eq!(f.sk.decrypt(&or).to_u64().unwrap(), o1 | o2);
    }

    #[test]
    fn sbd_then_sminn_pipeline(values in prop::collection::vec(0u64..4096, 2..6), seed in any::<u64>()) {
        // The exact composition SkNN_m uses: encrypt, SBD each value, take the
        // encrypted tournament minimum.
        let f = fixture();
        let mut rng = StdRng::seed_from_u64(seed);
        let l = 12;
        let cts: Vec<_> = values.iter().map(|&v| f.pk.encrypt_u64(v, &mut rng)).collect();
        let mut decomposed = Vec::with_capacity(cts.len());
        for c in &cts {
            decomposed.push(secure_bit_decompose(&f.pk, &f.holder, c, l, &mut rng).unwrap());
        }
        let min = secure_min_n(&f.pk, &f.holder, &decomposed, &mut rng).unwrap();
        prop_assert_eq!(decrypt_value(&f.sk, &min), *values.iter().min().unwrap());
    }
}
