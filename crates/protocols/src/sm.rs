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
//!
//! Step 3, the unmasking, is one two-base multi-exponentiation per pair:
//!
//! ```text
//! E(a·b) = h · E(a)^{−r_b}·E(b)^{−r_a} · E(−r_a·r_b)
//! ```
//!
//! with both cross terms in one shared squaring chain
//! ([`PublicKey::mul_plain_sum`]) instead of two `mul_plain`s. Callers that
//! only want the sums of SM products along a table's columns (record
//! extraction in SkNN_m) call [`secure_weighted_column_sums`], which runs
//! the same request and the same masks but unmasks each column's n pairs
//! together: `Π hᵢ · Π E(aᵢ)^{−r_bᵢ}·E(bᵢ)^{−r_aᵢ} · E(−Σ r_aᵢ·r_bᵢ)`,
//! the 2n cross terms as one multi-exponentiation. Both are bit-identical
//! to unmasking each pair with two `mul_plain`s and summing: the factors
//! are the same group elements, and `(1 + xN)(1 + yN) ≡ 1 + (x + y)N
//! (mod N²)` merges the plaintext offsets.

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

    // Step 3: remove the cross terms, one pair at a time.
    Ok(pairs
        .iter()
        .zip(&products)
        .zip(&masks)
        .map(|(((e_a, e_b), h), masks)| unmask_sum(pk, [((e_a, e_b), h, masks)]))
        .collect())
}

/// Runs SM on every pair `(wᵢ, t_{i,j})` of a weight vector and a table of
/// n rows and m columns, in one round trip, and returns the m column sums
/// `E(Σᵢ wᵢ·t_{i,j})`: an encrypted indicator `w` extracts the row it
/// marks. The request, its row-major pair order and the mask draws are
/// those of [`secure_multiply_batch`] over the same pairs; only the
/// unmasking differs, fused per column (module docs).
///
/// # Errors
/// Returns [`ProtocolError::DimensionMismatch`] when the weights are not
/// one per row or the rows differ in length, and propagates the key
/// holder's error.
pub fn secure_weighted_column_sums<K: KeyHolder + ?Sized, R: RngCore + ?Sized>(
    pk: &PublicKey,
    key_holder: &K,
    weights: &[Ciphertext],
    rows: &[&[Ciphertext]],
    rng: &mut R,
) -> Result<Vec<Ciphertext>, ProtocolError> {
    if weights.len() != rows.len() {
        return Err(ProtocolError::DimensionMismatch {
            left: weights.len(),
            right: rows.len(),
        });
    }
    let m = rows.first().map_or(0, |row| row.len());
    if let Some(row) = rows.iter().find(|row| row.len() != m) {
        return Err(ProtocolError::DimensionMismatch {
            left: m,
            right: row.len(),
        });
    }
    let pairs: Vec<(&Ciphertext, &Ciphertext)> = weights
        .iter()
        .zip(rows)
        .flat_map(|(w, row)| row.iter().map(move |t| (w, t)))
        .collect();
    let (products, masks) = mask_and_multiply(pk, key_holder, pairs.iter().copied(), rng)?;
    Ok((0..m)
        .map(|j| {
            let column = (j..pairs.len()).step_by(m);
            unmask_sum(pk, column.map(|c| (pairs[c], &products[c], &masks[c])))
        })
        .collect())
}

/// Step 3 of SM over a set of pairs, summed: `E(Σ aᵢ·bᵢ)` from each pair's
/// operands, C2's product `hᵢ` and P1's masks, as
/// `Π hᵢ · Π E(aᵢ)^{−r_bᵢ}·E(bᵢ)^{−r_aᵢ} · E(−Σ r_aᵢ·r_bᵢ)` with every
/// cross term in one multi-exponentiation.
fn unmask_sum<'a>(
    pk: &PublicKey,
    cells: impl IntoIterator<Item = ((&'a Ciphertext, &'a Ciphertext), &'a Ciphertext, &'a Masks)>,
) -> Ciphertext {
    let n = pk.n();
    let mut products = Vec::new();
    let mut bases = Vec::new();
    let mut exponents = Vec::new();
    let mut offset = BigUint::zero();
    for ((e_a, e_b), h, (r_a, r_b)) in cells {
        products.push(h);
        bases.extend([e_a, e_b]);
        exponents.extend([r_b.mod_neg(n), r_a.mod_neg(n)]);
        offset = offset.mod_add(&r_a.mod_mul(r_b, n), n);
    }
    let terms: Vec<(&Ciphertext, &BigUint)> = bases.into_iter().zip(&exponents).collect();
    let cross = pk.mul_plain_sum(&terms);
    pk.sub_plain(&pk.add(&pk.sum(products), &cross), &offset)
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

    /// A key holder with `holder`'s key and seed: given the same requests
    /// it answers with the same ciphertexts.
    fn twin(holder: &LocalKeyHolder) -> LocalKeyHolder {
        LocalKeyHolder::new(holder.private_key().clone(), 72)
    }

    /// Step 3 with one `mul_plain` per cross term: the unfused form, kept
    /// as the oracle the two-base chain is tested bit-for-bit against.
    fn unmask_by_two_pows(
        pk: &PublicKey,
        (e_a, e_b): (&Ciphertext, &Ciphertext),
        h: &Ciphertext,
        (r_a, r_b): &Masks,
    ) -> Ciphertext {
        let n = pk.n();
        let s = pk.add(h, &pk.mul_plain(e_a, &r_b.mod_neg(n)));
        let s = pk.add(&s, &pk.mul_plain(e_b, &r_a.mod_neg(n)));
        pk.sub_plain(&s, &r_a.mod_mul(r_b, n))
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
    fn two_base_unmasking_is_bit_identical_to_two_pows() {
        let (pk, holder, mut rng) = setup();
        // Operands E(0) and E(N − 1) next to small values.
        let n_minus_1 = pk.n().sub_ref(&BigUint::one());
        let values = [BigUint::zero(), n_minus_1, BigUint::from_u64(7)];
        let cts: Vec<Ciphertext> = values.iter().map(|v| pk.encrypt(v, &mut rng)).collect();
        let pairs: Vec<(Ciphertext, Ciphertext)> = cts
            .iter()
            .flat_map(|a| cts.iter().map(move |b| (a.clone(), b.clone())))
            .collect();
        // Replay the batch's SM round (a clone of the rng, a twin key
        // holder) to recover its masks and C2's products.
        let mut replay = rng.clone();
        let fused = secure_multiply_batch(&pk, &twin(&holder), &pairs, &mut rng).unwrap();
        let (products, masks) = mask_and_multiply(
            &pk,
            &twin(&holder),
            pairs.iter().map(|(a, b)| (a, b)),
            &mut replay,
        )
        .unwrap();
        for (i, (a, b)) in pairs.iter().enumerate() {
            let oracle = unmask_by_two_pows(&pk, (a, b), &products[i], &masks[i]);
            assert_eq!(fused[i], oracle, "pair {i}");
            let (x, y) = (&values[i / 3], &values[i % 3]);
            assert_eq!(holder.debug_decrypt(&fused[i]), x.mod_mul(y, pk.n()));
        }
    }

    #[test]
    fn column_sums_are_bit_identical_to_sm_then_sum() {
        let (pk, holder, mut rng) = setup();
        for (n, m) in [(1usize, 1usize), (5, 1), (1, 4), (4, 3)] {
            // An indicator with E(1) at row n / 2, over random rows.
            let weights: Vec<Ciphertext> = (0..n)
                .map(|i| pk.encrypt_u64(u64::from(i == n / 2), &mut rng))
                .collect();
            let values: Vec<Vec<u64>> = (0..n)
                .map(|_| (0..m).map(|_| rng.next_u64() >> 40).collect())
                .collect();
            let table: Vec<Vec<Ciphertext>> = values
                .iter()
                .map(|row| row.iter().map(|&v| pk.encrypt_u64(v, &mut rng)).collect())
                .collect();
            let rows: Vec<&[Ciphertext]> = table.iter().map(Vec::as_slice).collect();

            let mut replay = rng.clone();
            let fused = secure_weighted_column_sums(&pk, &twin(&holder), &weights, &rows, &mut rng)
                .unwrap();
            let pairs: Vec<(Ciphertext, Ciphertext)> = (0..n)
                .flat_map(|i| (0..m).map(move |j| (i, j)))
                .map(|(i, j)| (weights[i].clone(), table[i][j].clone()))
                .collect();
            let products = secure_multiply_batch(&pk, &twin(&holder), &pairs, &mut replay).unwrap();
            let oracle: Vec<Ciphertext> = (0..m)
                .map(|j| pk.sum((0..n).map(|i| &products[i * m + j])))
                .collect();
            assert_eq!(fused, oracle, "{n}×{m}");
            let selected: Vec<u64> = fused
                .iter()
                .map(|c| holder.debug_decrypt_u64(c).unwrap())
                .collect();
            assert_eq!(selected, values[n / 2], "{n}×{m}");
        }
    }

    #[test]
    fn column_sums_reject_ragged_shapes() {
        let (pk, holder, mut rng) = setup();
        let e = pk.encrypt_u64(1, &mut rng);
        let row = [e.clone(), e.clone()];
        let short = [e.clone()];
        let weights = [e.clone(), e];
        assert_eq!(
            secure_weighted_column_sums(&pk, &holder, &weights[..1], &[&row, &row], &mut rng),
            Err(ProtocolError::DimensionMismatch { left: 1, right: 2 })
        );
        assert_eq!(
            secure_weighted_column_sums(&pk, &holder, &weights, &[&row, &short], &mut rng),
            Err(ProtocolError::DimensionMismatch { left: 2, right: 1 })
        );
        assert!(
            secure_weighted_column_sums(&pk, &holder, &[], &[], &mut rng)
                .unwrap()
                .is_empty()
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
