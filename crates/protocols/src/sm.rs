//! SM — Secure Multiplication (Algorithm 1 of the paper).
//!
//! P1 holds `E(a)` and `E(b)`; the protocol outputs `E(a·b)` to P1 without
//! either party learning `a` or `b`. It relies on the identity
//!
//! ```text
//! a·b = (a + r_a)·(b + r_b) − a·r_b − b·r_a − r_a·r_b   (mod N)
//! ```
//!
//! P1 additively masks both ciphertexts with fresh randomness, P2 decrypts and
//! multiplies the masked values, and P1 removes the cross terms
//! homomorphically.

use crate::{KeyHolder, ProtocolError};
use rand::RngCore;
use sknn_bigint::{random_below, BigUint};
use sknn_paillier::{Ciphertext, PublicKey};

/// Runs the SM protocol for a single pair: returns `E(a·b mod N)`.
///
/// # Errors
/// Propagates the key holder's error (a remote C2's transport failure);
/// [`ProtocolError::Invariant`] when it answers a batch of one with
/// nothing.
pub fn secure_multiply<K: KeyHolder + ?Sized, R: RngCore + ?Sized>(
    pk: &PublicKey,
    key_holder: &K,
    e_a: &Ciphertext,
    e_b: &Ciphertext,
    rng: &mut R,
) -> Result<Ciphertext, ProtocolError> {
    secure_multiply_batch(pk, key_holder, &[(e_a.clone(), e_b.clone())], rng)?
        .pop()
        .ok_or_else(|| ProtocolError::Invariant {
            message: "SM returned nothing for a batch of one".to_string(),
        })
}

/// Runs the SM protocol for many pairs in a single round trip to the key
/// holder. The per-pair masking and unmasking is identical to
/// [`secure_multiply`]; batching only changes how many messages cross the
/// C1↔C2 boundary (an optimization the paper appeals to in Section 5.3).
///
/// # Errors
/// Propagates the key holder's error (a remote C2's transport failure).
pub fn secure_multiply_batch<K: KeyHolder + ?Sized, R: RngCore + ?Sized>(
    pk: &PublicKey,
    key_holder: &K,
    pairs: &[(Ciphertext, Ciphertext)],
    rng: &mut R,
) -> Result<Vec<Ciphertext>, ProtocolError> {
    let (products, masks) =
        mask_and_multiply(pk, key_holder, pairs.iter().map(|(a, b)| (a, b)), rng)?;

    // Step 3: remove the cross terms: E(ab) = h · E(a)^{-r_b} · E(b)^{-r_a} · E(-r_a·r_b).
    Ok(pairs
        .iter()
        .zip(products)
        .zip(masks)
        .map(|(((e_a, e_b), h), (r_a, r_b))| {
            let minus_r_b = r_b.mod_neg(pk.n());
            let minus_r_a = r_a.mod_neg(pk.n());
            let s = pk.add(&h, &pk.mul_plain(e_a, &minus_r_b));
            let s = pk.add(&s, &pk.mul_plain(e_b, &minus_r_a));
            let r_a_r_b = r_a.mod_mul(&r_b, pk.n());
            pk.sub_plain(&s, &r_a_r_b)
        })
        .collect())
}

/// P1's masks `(r_a, r_b)` for one pair.
type Masks = (BigUint, BigUint);

/// Steps 1–2 of SM for a batch: masks each operand pair with fresh
/// randomness known only to P1 (`r_a` then `r_b` per pair), and has P2
/// return `E(h)` with `h = (a + r_a)(b + r_b)`. Returns the products and
/// the masks, parallel to the input (the key holder checks the reply's
/// length).
pub(crate) fn mask_and_multiply<'a, K: KeyHolder + ?Sized, R: RngCore + ?Sized>(
    pk: &PublicKey,
    key_holder: &K,
    pairs: impl ExactSizeIterator<Item = (&'a Ciphertext, &'a Ciphertext)>,
    rng: &mut R,
) -> Result<(Vec<Ciphertext>, Vec<Masks>), ProtocolError> {
    let mut masks = Vec::with_capacity(pairs.len());
    let mut masked = Vec::with_capacity(pairs.len());
    for (e_a, e_b) in pairs {
        let r_a = random_below(rng, pk.n());
        let r_b = random_below(rng, pk.n());
        masked.push((pk.add_plain(e_a, &r_a), pk.add_plain(e_b, &r_b)));
        masks.push((r_a, r_b));
    }
    let products = key_holder.sm_mask_multiply_batch(&masked)?;
    Ok((products, masks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LocalKeyHolder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sknn_paillier::Keypair;

    fn setup() -> (PublicKey, LocalKeyHolder, StdRng) {
        let mut rng = StdRng::seed_from_u64(71);
        let (pk, sk) = Keypair::generate(128, &mut rng).split();
        (pk, LocalKeyHolder::new(sk, 72), rng)
    }

    #[test]
    fn paper_example_2() {
        // a = 59, b = 58 → a·b = 3422.
        let (pk, holder, mut rng) = setup();
        let e_a = pk.encrypt_u64(59, &mut rng);
        let e_b = pk.encrypt_u64(58, &mut rng);
        let product = secure_multiply(&pk, &holder, &e_a, &e_b, &mut rng).unwrap();
        assert_eq!(holder.debug_decrypt_u64(&product).unwrap(), 3422);
    }

    #[test]
    fn multiply_by_zero_and_one() {
        let (pk, holder, mut rng) = setup();
        let e_zero = pk.encrypt_u64(0, &mut rng);
        let e_one = pk.encrypt_u64(1, &mut rng);
        let e_x = pk.encrypt_u64(987654, &mut rng);
        assert_eq!(
            holder
                .debug_decrypt_u64(&secure_multiply(&pk, &holder, &e_zero, &e_x, &mut rng).unwrap())
                .unwrap(),
            0
        );
        assert_eq!(
            holder
                .debug_decrypt_u64(&secure_multiply(&pk, &holder, &e_one, &e_x, &mut rng).unwrap())
                .unwrap(),
            987654
        );
    }

    #[test]
    fn batch_matches_individual() {
        let (pk, holder, mut rng) = setup();
        let inputs: Vec<(u64, u64)> = vec![(3, 7), (100, 100), (0, 55), (65535, 2)];
        let pairs: Vec<_> = inputs
            .iter()
            .map(|&(a, b)| (pk.encrypt_u64(a, &mut rng), pk.encrypt_u64(b, &mut rng)))
            .collect();
        let results = secure_multiply_batch(&pk, &holder, &pairs, &mut rng).unwrap();
        for (&(a, b), c) in inputs.iter().zip(&results) {
            assert_eq!(holder.debug_decrypt_u64(c).unwrap(), a * b);
        }
    }

    #[test]
    fn product_wraps_modulo_n() {
        // Products larger than N wrap around, exactly like plaintext Z_N arithmetic.
        let (pk, holder, mut rng) = setup();
        let big = pk.n().sub_ref(&BigUint::one()); // N − 1 ≡ −1
        let e_big = pk.encrypt(&big, &mut rng);
        let e_two = pk.encrypt_u64(2, &mut rng);
        let product = secure_multiply(&pk, &holder, &e_big, &e_two, &mut rng).unwrap();
        // (−1)·2 ≡ N − 2 (mod N)
        assert_eq!(
            holder.debug_decrypt(&product),
            pk.n().sub_ref(&BigUint::two())
        );
    }

    #[test]
    fn empty_batch_is_empty() {
        let (pk, holder, mut rng) = setup();
        assert!(secure_multiply_batch(&pk, &holder, &[], &mut rng)
            .unwrap()
            .is_empty());
    }
}
