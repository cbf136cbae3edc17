//! SSED — Secure Squared Euclidean Distance (Algorithm 2 of the paper).
//!
//! P1 holds two attribute-wise encrypted vectors `E(X)` and `E(Y)`; the
//! protocol outputs `E(|X − Y|²)` to P1. Differences are computed
//! homomorphically, squared with one batched SM invocation, and summed
//! homomorphically.
//!
//! A query is compared against every record, so callers that scan a table
//! negate the query once and form each difference as
//! `E(t_j)·E(−q_j) = E(t_j − q_j)` with
//! [`secure_squared_distance_to_negated`]: one mod-mul per attribute
//! instead of a negation per record-attribute. The sign of a difference
//! does not survive squaring.

use crate::sm::secure_square_batch;
use crate::{KeyHolder, ProtocolError};
use rand::RngCore;
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

    // Step 2: E((x_i − y_i)²) with one batched SM round.
    let squares = secure_square_batch(pk, key_holder, &diffs, rng)?;

    // Step 3: sum the squares homomorphically.
    Ok(pk.sum(squares.iter()))
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
    fn empty_vectors_give_zero() {
        let (pk, holder, mut rng) = setup();
        let dist = secure_squared_distance(&pk, &holder, &[], &[], &mut rng).unwrap();
        assert_eq!(holder.debug_decrypt_u64(&dist).unwrap(), 0);
    }
}
