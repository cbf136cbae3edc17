//! SSED — Secure Squared Euclidean Distance (Algorithm 2 of the paper).
//!
//! P1 holds two attribute-wise encrypted vectors `E(X)` and `E(Y)`; the
//! protocol outputs `E(|X − Y|²)` to P1. Differences are computed
//! homomorphically, squared with one batched SM invocation, and summed
//! homomorphically.
//!
//! The squaring and the sum are fused. With SM's masks `(r_aⱼ, r_bⱼ)` and
//! C2's products `hⱼ = E((dⱼ + r_aⱼ)(dⱼ + r_bⱼ))`, each square is
//! `hⱼ · E(dⱼ)^{−(r_aⱼ + r_bⱼ)} · E(−r_aⱼ·r_bⱼ)`, so the distance is
//!
//! ```text
//! E(|X − Y|²) = Π hⱼ · Π E(dⱼ)^{−(r_aⱼ + r_bⱼ)} · E(−Σ r_aⱼ·r_bⱼ)
//! ```
//!
//! with the m cross terms as one multi-exponentiation
//! ([`PublicKey::mul_plain_sum`]) instead of m separate `mul_plain`s. The
//! result is bit-identical to squaring each difference and summing: the
//! factors are the same, and `(1 + aN)(1 + bN) ≡ 1 + (a + b)N (mod N²)`
//! merges the m plaintext offsets into one.
//!
//! A query is compared against every record, so callers that scan a table
//! negate the query once and form each difference as
//! `E(t_j)·E(−q_j) = E(t_j − q_j)` with
//! [`secure_squared_distance_to_negated`]: one mod-mul per attribute
//! instead of a negation per record-attribute. The sign of a difference
//! does not survive squaring.

use crate::sm::mask_and_multiply;
use crate::{KeyHolder, ProtocolError};
use rand::RngCore;
use sknn_bigint::BigUint;
use sknn_paillier::{Ciphertext, PublicKey};

/// Computes `E(|X − Y|²)` for two encrypted `m`-dimensional vectors.
///
/// # Errors
/// Returns [`ProtocolError::DimensionMismatch`] when the vectors have
/// different lengths.
pub fn secure_squared_distance<K: KeyHolder + ?Sized, R: RngCore + ?Sized>(
    pk: &PublicKey,
    key_holder: &K,
    e_x: &[Ciphertext],
    e_y: &[Ciphertext],
    rng: &mut R,
) -> Result<Ciphertext, ProtocolError> {
    if e_x.len() != e_y.len() {
        return Err(ProtocolError::DimensionMismatch {
            left: e_x.len(),
            right: e_y.len(),
        });
    }
    let e_neg_y: Vec<Ciphertext> = e_y.iter().map(|y| pk.negate(y)).collect();
    secure_squared_distance_to_negated(pk, key_holder, &e_neg_y, e_x, rng)
}

/// Computes `E(|X − Y|²)` from `E(−Y)` (attribute-wise
/// [`PublicKey::negate`]) and `E(X)`, so a query negated once serves every
/// record it is compared with.
///
/// # Errors
/// Returns [`ProtocolError::DimensionMismatch`] when the vectors have
/// different lengths.
pub fn secure_squared_distance_to_negated<K: KeyHolder + ?Sized, R: RngCore + ?Sized>(
    pk: &PublicKey,
    key_holder: &K,
    e_neg_y: &[Ciphertext],
    e_x: &[Ciphertext],
    rng: &mut R,
) -> Result<Ciphertext, ProtocolError> {
    if e_neg_y.len() != e_x.len() {
        return Err(ProtocolError::DimensionMismatch {
            left: e_neg_y.len(),
            right: e_x.len(),
        });
    }

    // Step 1: E(x_i − y_i) = E(x_i)·E(−y_i).
    let diffs: Vec<Ciphertext> = e_x
        .iter()
        .zip(e_neg_y)
        .map(|(x, neg_y)| pk.add(x, neg_y))
        .collect();

    // Step 2: one batched SM round, SM(E(d_i), E(d_i)) for every i.
    let (products, masks) = mask_and_multiply(pk, key_holder, diffs.iter().map(|d| (d, d)), rng)?;

    // Step 3: the squares' sum, fused (module docs). Each mask sum is
    // reduced before it is negated: r_a + r_b may reach N.
    let n = pk.n();
    let exponents: Vec<BigUint> = masks
        .iter()
        .map(|(r_a, r_b)| r_a.mod_add(r_b, n).mod_neg(n))
        .collect();
    let offset = masks.iter().fold(BigUint::zero(), |acc, (r_a, r_b)| {
        acc.mod_add(&r_a.mod_mul(r_b, n), n)
    });
    let terms: Vec<(&Ciphertext, &BigUint)> = diffs.iter().zip(&exponents).collect();
    let cross = pk.mul_plain_sum(&terms);
    Ok(pk.sub_plain(&pk.add(&pk.sum(products.iter()), &cross), &offset))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LocalKeyHolder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sknn_bigint::random_below;
    use sknn_paillier::Keypair;

    fn setup() -> (PublicKey, LocalKeyHolder, StdRng) {
        let mut rng = StdRng::seed_from_u64(81);
        let (pk, sk) = Keypair::generate(128, &mut rng).split();
        (pk, LocalKeyHolder::new(sk, 82), rng)
    }

    fn encrypt_vec(pk: &PublicKey, values: &[u64], rng: &mut StdRng) -> Vec<Ciphertext> {
        values.iter().map(|&v| pk.encrypt_u64(v, rng)).collect()
    }

    /// Squares each difference with its own SM product and sums the squares
    /// one `mul_plain` per attribute: the unfused form of step 3, kept as the
    /// oracle the fused form is tested bit-for-bit against.
    fn square_then_sum(
        pk: &PublicKey,
        diffs: &[Ciphertext],
        products: &[Ciphertext],
        masks: &[(BigUint, BigUint)],
    ) -> Ciphertext {
        let n = pk.n();
        let squares: Vec<Ciphertext> = diffs
            .iter()
            .zip(products)
            .zip(masks)
            .map(|((d, h), (r_a, r_b))| {
                let minus_sum = r_a.mod_add(r_b, n).mod_neg(n);
                let s = pk.add(h, &pk.mul_plain(d, &minus_sum));
                pk.sub_plain(&s, &r_a.mod_mul(r_b, n))
            })
            .collect();
        pk.sum(squares.iter())
    }

    #[test]
    fn paper_example_3_heart_disease_records() {
        // t1 and t2 from Table 1; the paper computes |t1 − t2|² = 813.
        let (pk, holder, mut rng) = setup();
        let t1 = [63u64, 1, 1, 145, 233, 1, 3, 0, 6, 0];
        let t2 = [56u64, 1, 3, 130, 256, 1, 2, 1, 6, 2];
        let e_t1 = encrypt_vec(&pk, &t1, &mut rng);
        let e_t2 = encrypt_vec(&pk, &t2, &mut rng);
        let dist = secure_squared_distance(&pk, &holder, &e_t1, &e_t2, &mut rng).unwrap();
        assert_eq!(holder.debug_decrypt_u64(&dist).unwrap(), 813);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let (pk, holder, mut rng) = setup();
        let v = encrypt_vec(&pk, &[10, 20, 30], &mut rng);
        let dist = secure_squared_distance(&pk, &holder, &v, &v, &mut rng).unwrap();
        assert_eq!(holder.debug_decrypt_u64(&dist).unwrap(), 0);
    }

    #[test]
    fn matches_plaintext_distance() {
        let (pk, holder, mut rng) = setup();
        let xs = [5u64, 100, 0, 42, 7];
        let ys = [9u64, 3, 250, 42, 1];
        let expected: u64 = xs
            .iter()
            .zip(ys.iter())
            .map(|(&a, &b)| {
                let d = a as i64 - b as i64;
                (d * d) as u64
            })
            .sum();
        let e_x = encrypt_vec(&pk, &xs, &mut rng);
        let e_y = encrypt_vec(&pk, &ys, &mut rng);
        let dist = secure_squared_distance(&pk, &holder, &e_x, &e_y, &mut rng).unwrap();
        assert_eq!(holder.debug_decrypt_u64(&dist).unwrap(), expected);
    }

    #[test]
    fn symmetric() {
        let (pk, holder, mut rng) = setup();
        let e_x = encrypt_vec(&pk, &[1, 2, 3], &mut rng);
        let e_y = encrypt_vec(&pk, &[7, 0, 9], &mut rng);
        let d_xy = secure_squared_distance(&pk, &holder, &e_x, &e_y, &mut rng).unwrap();
        let d_yx = secure_squared_distance(&pk, &holder, &e_y, &e_x, &mut rng).unwrap();
        assert_eq!(holder.debug_decrypt(&d_xy), holder.debug_decrypt(&d_yx));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let (pk, holder, mut rng) = setup();
        let e_x = encrypt_vec(&pk, &[1, 2, 3], &mut rng);
        let e_y = encrypt_vec(&pk, &[1, 2], &mut rng);
        assert_eq!(
            secure_squared_distance(&pk, &holder, &e_x, &e_y, &mut rng),
            Err(ProtocolError::DimensionMismatch { left: 3, right: 2 })
        );
    }

    #[test]
    fn negated_entry_matches_the_plaintext_distance() {
        // Enough attributes that some pair of SM masks sums past N, which
        // the merged unmasking exponent must reduce before negating.
        let (pk, holder, mut rng) = setup();
        let m = 48;
        let mut wrapped = 0;
        for _ in 0..4 {
            let xs: Vec<u64> = (0..m).map(|_| rng.next_u64() >> 40).collect();
            let ys: Vec<u64> = (0..m).map(|_| rng.next_u64() >> 40).collect();
            let expected: u64 = xs
                .iter()
                .zip(&ys)
                .map(|(&a, &b)| a.abs_diff(b).pow(2))
                .sum();
            let e_x = encrypt_vec(&pk, &xs, &mut rng);
            let e_y = encrypt_vec(&pk, &ys, &mut rng);
            let e_neg_y: Vec<_> = e_y.iter().map(|y| pk.negate(y)).collect();

            // The masks the entry is about to draw, replayed from a clone.
            let mut replay = rng.clone();
            for _ in 0..m {
                let r_a = random_below(&mut replay, pk.n());
                let r_b = random_below(&mut replay, pk.n());
                wrapped += usize::from(r_a.add_ref(&r_b) >= *pk.n());
            }
            let hoisted =
                secure_squared_distance_to_negated(&pk, &holder, &e_neg_y, &e_x, &mut rng).unwrap();
            let direct = secure_squared_distance(&pk, &holder, &e_x, &e_y, &mut rng).unwrap();
            assert_eq!(holder.debug_decrypt_u64(&hoisted).unwrap(), expected);
            assert_eq!(holder.debug_decrypt_u64(&direct).unwrap(), expected);
        }
        assert!(
            wrapped > 0,
            "no mask pair summed past N; the test lost its point"
        );
    }

    #[test]
    fn negated_entry_rejects_dimension_mismatch() {
        let (pk, holder, mut rng) = setup();
        let e_q = encrypt_vec(&pk, &[1, 2, 3], &mut rng);
        let e_neg_q: Vec<_> = e_q.iter().map(|q| pk.negate(q)).collect();
        let record = encrypt_vec(&pk, &[1, 2], &mut rng);
        assert_eq!(
            secure_squared_distance_to_negated(&pk, &holder, &e_neg_q, &record, &mut rng),
            Err(ProtocolError::DimensionMismatch { left: 3, right: 2 })
        );
    }

    #[test]
    fn fused_sum_is_bit_identical_to_square_then_sum() {
        let (pk, holder, mut rng) = setup();
        for m in [1usize, 6, 11] {
            let xs: Vec<u64> = (0..m).map(|_| rng.next_u64() >> 44).collect();
            let ys: Vec<u64> = (0..m).map(|_| rng.next_u64() >> 44).collect();
            let e_x = encrypt_vec(&pk, &xs, &mut rng);
            let e_neg_y: Vec<_> = encrypt_vec(&pk, &ys, &mut rng)
                .iter()
                .map(|y| pk.negate(y))
                .collect();
            // Replay the entry's SM round (a clone of the RNG, a twin key
            // holder with the same seed) to recover its masks and C2's
            // products.
            let twin = || LocalKeyHolder::new(holder.private_key().clone(), 82);
            let mut replay = rng.clone();
            let fused =
                secure_squared_distance_to_negated(&pk, &twin(), &e_neg_y, &e_x, &mut rng).unwrap();
            let diffs: Vec<Ciphertext> = e_x
                .iter()
                .zip(&e_neg_y)
                .map(|(x, y)| pk.add(x, y))
                .collect();
            let (products, masks) =
                mask_and_multiply(&pk, &twin(), diffs.iter().map(|d| (d, d)), &mut replay).unwrap();
            assert_eq!(
                fused,
                square_then_sum(&pk, &diffs, &products, &masks),
                "m = {m}"
            );
            let expected: u64 = xs
                .iter()
                .zip(&ys)
                .map(|(&a, &b)| a.abs_diff(b).pow(2))
                .sum();
            assert_eq!(holder.debug_decrypt_u64(&fused).unwrap(), expected);
        }
    }

    #[test]
    fn empty_vectors_give_zero() {
        let (pk, holder, mut rng) = setup();
        let dist = secure_squared_distance(&pk, &holder, &[], &[], &mut rng).unwrap();
        assert_eq!(holder.debug_decrypt_u64(&dist).unwrap(), 0);
    }
}
