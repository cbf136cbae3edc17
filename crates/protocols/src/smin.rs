//! SMIN — Secure Minimum of two bit-decomposed values (Algorithm 3).
//!
//! P1 holds `[u]` and `[v]` (encrypted bit vectors, most-significant first,
//! both of length `l`); the protocol outputs `[min(u, v)]` to P1. Neither
//! party learns `u`, `v`, or which of the two was smaller.
//!
//! The trick: P1 secretly flips a coin to pick the *functionality* `F`
//! (either "is `u > v`?" or "is `v > u`?") and builds, for every bit
//! position, an encrypted comparison gadget whose single meaningful entry sits
//! at the first position where `u` and `v` differ. P2 evaluates the gadget
//! blindly (it does not know `F`, so the bit `α` it learns is meaningless to
//! it), and P1 combines `E(α)` with the gadget to select each output bit as
//! `uᵢ + α(vᵢ − uᵢ)` (or the symmetric expression, depending on `F`).
//!
//! C1's exponentiations: the `uᵢvᵢ` products are one batched SM round (a
//! two-base chain per bit to unmask); `Lᵢ`'s power `Φᵢ^{r′ᵢ}` and the next
//! link `Hᵢ^{r_{i+1}}` of the `Hᵢ` chain share the base `Hᵢ`, so they come
//! from one fixed-base table per bit ([`PublicKey::mul_plain_many`]); and
//! step 3's unmasking `λᵢ = M̃ᵢ · E(α)^{−r̂ᵢ}` raises the one base `E(α)`
//! to l exponents from one more table. Each is bit-identical to a
//! `mul_plain` per power.

use crate::{KeyHolder, Permutation, ProtocolError};
use rand::{Rng, RngCore};
use sknn_bigint::{random_below, random_range, BigUint};
use sknn_paillier::{Ciphertext, PublicKey};

/// Computes `[min(u, v)]` from `[u]` and `[v]`.
///
/// # Errors
/// Returns [`ProtocolError::DimensionMismatch`] when the two bit vectors have
/// different lengths, the key holder's error when its SMIN round fails, and
/// a batch mismatch when its `M′` reply is not one ciphertext per bit.
pub fn secure_min<K: KeyHolder + ?Sized, R: RngCore + ?Sized>(
    pk: &PublicKey,
    key_holder: &K,
    u_bits: &[Ciphertext],
    v_bits: &[Ciphertext],
    rng: &mut R,
) -> Result<Vec<Ciphertext>, ProtocolError> {
    if u_bits.len() != v_bits.len() {
        return Err(ProtocolError::DimensionMismatch {
            left: u_bits.len(),
            right: v_bits.len(),
        });
    }
    let l = u_bits.len();
    if l == 0 {
        return Ok(Vec::new());
    }

    let n = pk.n();

    // Step 1(a): P1 picks the functionality F by a private coin flip.
    let f_is_u_gt_v: bool = rng.gen();

    // E(uᵢ·vᵢ) for every position, in one batched SM round.
    let pairs: Vec<(Ciphertext, Ciphertext)> = u_bits
        .iter()
        .zip(v_bits.iter())
        .map(|(u, v)| (u.clone(), v.clone()))
        .collect();
    let uv_products = crate::secure_multiply_batch(pk, key_holder, &pairs, rng)?;

    let (gamma, gamma_masks, l_vec) = gadget(pk, u_bits, v_bits, &uv_products, f_is_u_gt_v, rng);

    // Step 1(c)-(d): permute Γ and L with two independent permutations.
    let pi1 = Permutation::random(rng, l);
    let pi2 = Permutation::random(rng, l);
    let gamma_permuted = pi1.apply(&gamma)?;
    let l_permuted = pi2.apply(&l_vec)?;

    // Step 2: P2 decides α obliviously and exponentiates Γ′ by it.
    let response = key_holder.smin_round(&gamma_permuted, &l_permuted)?;

    // Step 3: undo the permutation, strip the r̂ masks, and select the bits.
    let m_tilde = pi1.apply_inverse(&response.m_prime)?;
    let e_alpha = response.alpha;

    // λᵢ = M̃ᵢ · E(α)^{N − r̂ᵢ} = E(α·(other − this)ᵢ). The exponent is
    // −r̂ᵢ mod N (0 stays 0); all l powers share E(α) as their base, so
    // they come from one fixed-base table.
    let neg_masks: Vec<BigUint> = gamma_masks.iter().map(|r_hat| r_hat.mod_neg(n)).collect();
    let unmasks = pk.mul_plain_many(&e_alpha, &neg_masks);
    let selected = if f_is_u_gt_v { u_bits } else { v_bits };
    let min_bits = (0..l)
        .map(|i| pk.add(&selected[i], &pk.add(&m_tilde[i], &unmasks[i])))
        .collect();
    Ok(min_bits)
}

/// Step 1(b) of Algorithm 3 for every bit position: the randomized bit
/// differences `Γ`, their masks `r̂`, and the comparison gadget `L`.
///
/// `Lᵢ` and `H_{i+1}` raise the same base: `Φᵢ = Hᵢ·E(−1)`, so
/// `Φᵢ^{r′ᵢ} = Hᵢ^{r′ᵢ}·E(−r′ᵢ)` (the plaintext offset `1 − r′ᵢN` is no
/// exponentiation), and `H_{i+1} = Hᵢ^{r_{i+1}}·G_{i+1}`. Both powers of
/// `Hᵢ` come from one fixed-base table; only the last `H_l^{r′_l}` is a
/// lone power. The masks are drawn up front in the order a per-bit loop
/// draws them, so the output is bit-identical to one `mul_plain` per power.
fn gadget<R: RngCore + ?Sized>(
    pk: &PublicKey,
    u_bits: &[Ciphertext],
    v_bits: &[Ciphertext],
    uv_products: &[Ciphertext],
    f_is_u_gt_v: bool,
    rng: &mut R,
) -> (Vec<Ciphertext>, Vec<BigUint>, Vec<Ciphertext>) {
    let n = pk.n();
    let one = BigUint::one();
    let l = u_bits.len();
    // rᵢ and r′ᵢ (both in [1, N)) blind zero tests, so they stay full-size.
    // r_next[i] takes position i's H to position i + 1's.
    let mut gamma_masks = Vec::with_capacity(l);
    let mut r_next = Vec::with_capacity(l);
    let mut r_primes = Vec::with_capacity(l);
    for i in 0..l {
        gamma_masks.push(random_below(rng, n));
        if i > 0 {
            r_next.push(random_range(rng, &one, n));
        }
        r_primes.push(random_range(rng, &one, n));
    }

    let mut gamma = Vec::with_capacity(l);
    let mut l_vec = Vec::with_capacity(l);
    // H_{i−1}^{rᵢ}; H₀ = E(0) with randomness 1, so H₁ = 1^{r₁} · G₁ = G₁.
    let mut h_pow: Option<Ciphertext> = None;
    for i in 0..l {
        let e_u = &u_bits[i];
        let e_v = &v_bits[i];

        // E(uᵢ − uᵢvᵢ) and E(vᵢ − uᵢvᵢ) from one negation of E(uᵢvᵢ).
        let e_neg_uv = pk.negate(&uv_products[i]);
        let u_not_v = pk.add(e_u, &e_neg_uv);
        let v_not_u = pk.add(e_v, &e_neg_uv);

        // Gᵢ = E(uᵢ ⊕ vᵢ) = E(uᵢ + vᵢ − 2·uᵢ·vᵢ)
        let g_i = pk.add(&u_not_v, &v_not_u);

        // Wᵢ and the randomized bit difference Γᵢ depend on F.
        let (w_i, diff) = if f_is_u_gt_v {
            // Wᵢ = E(uᵢ·(1 − vᵢ)),  Γᵢ = E(vᵢ − uᵢ + r̂ᵢ)
            (u_not_v, pk.sub(e_v, e_u))
        } else {
            // Wᵢ = E(vᵢ·(1 − uᵢ)),  Γᵢ = E(uᵢ − vᵢ + r̂ᵢ)
            (v_not_u, pk.sub(e_u, e_v))
        };
        gamma.push(pk.add_plain(&diff, &gamma_masks[i]));

        // Hᵢ = H_{i−1}^{rᵢ} · Gᵢ with rᵢ ∈ [1, N): preserves the first 1 in G.
        let h_i = match h_pow.take() {
            None => g_i,
            Some(h_pow) => pk.add(&h_pow, &g_i),
        };
        let r_prime = &r_primes[i];
        let h_r_prime = match r_next.get(i) {
            Some(r) => {
                let powers = pk.mul_plain_many(&h_i, &[r_prime.clone(), r.clone()]);
                h_pow = Some(powers[1].clone());
                powers[0].clone()
            }
            None => pk.mul_plain(&h_i, r_prime),
        };

        // Lᵢ = Wᵢ · Φᵢ^{r′ᵢ} with r′ᵢ ∈ [1, N): reveals Wᵢ only where
        // Φᵢ = E(Hᵢ − 1) is zero, i.e. at the first differing bit.
        l_vec.push(pk.add(&w_i, &pk.sub_plain(&h_r_prime, r_prime)));
    }
    (gamma, gamma_masks, l_vec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{secure_bit_decompose, LocalKeyHolder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sknn_paillier::Keypair;

    fn setup() -> (PublicKey, LocalKeyHolder, StdRng) {
        let mut rng = StdRng::seed_from_u64(101);
        let (pk, sk) = Keypair::generate(128, &mut rng).split();
        (pk, LocalKeyHolder::new(sk, 102), rng)
    }

    fn encrypt_bits(pk: &PublicKey, value: u64, l: usize, rng: &mut StdRng) -> Vec<Ciphertext> {
        (0..l)
            .rev()
            .map(|i| pk.encrypt_u64((value >> i) & 1, rng))
            .collect()
    }

    fn decrypt_value(holder: &LocalKeyHolder, bits: &[Ciphertext]) -> u64 {
        bits.iter().fold(0u64, |acc, b| {
            (acc << 1) | holder.debug_decrypt_u64(b).unwrap()
        })
    }

    /// Step 1(b) as one `mul_plain` per power, drawing each bit's masks
    /// in turn: the oracle [`gadget`] must match bit for bit.
    fn gadget_reference(
        pk: &PublicKey,
        u_bits: &[Ciphertext],
        v_bits: &[Ciphertext],
        uv_products: &[Ciphertext],
        f_is_u_gt_v: bool,
        rng: &mut StdRng,
    ) -> (Vec<Ciphertext>, Vec<BigUint>, Vec<Ciphertext>) {
        let (n, one) = (pk.n(), BigUint::one());
        let (mut gamma, mut gamma_masks, mut l_vec) = (Vec::new(), Vec::new(), Vec::new());
        let mut h_prev: Option<Ciphertext> = None;
        for i in 0..u_bits.len() {
            let e_u = &u_bits[i];
            let e_v = &v_bits[i];
            let e_neg_uv = pk.negate(&uv_products[i]);
            let u_not_v = pk.add(e_u, &e_neg_uv);
            let v_not_u = pk.add(e_v, &e_neg_uv);
            let g_i = pk.add(&u_not_v, &v_not_u);
            let (w_i, diff) = if f_is_u_gt_v {
                (u_not_v, pk.sub(e_v, e_u))
            } else {
                (v_not_u, pk.sub(e_u, e_v))
            };
            let r_hat = random_below(rng, n);
            let gamma_i = pk.add_plain(&diff, &r_hat);
            let h_i = match h_prev {
                None => g_i,
                Some(h_prev) => {
                    let r_i = random_range(rng, &one, n);
                    pk.add(&pk.mul_plain(&h_prev, &r_i), &g_i)
                }
            };
            let phi_i = pk.sub_plain(&h_i, &one);
            let r_prime = random_range(rng, &one, n);
            let l_i = pk.add(&w_i, &pk.mul_plain(&phi_i, &r_prime));
            gamma.push(gamma_i);
            gamma_masks.push(r_hat);
            h_prev = Some(h_i);
            l_vec.push(l_i);
        }
        (gamma, gamma_masks, l_vec)
    }

    #[test]
    fn shared_h_powers_are_bit_identical_to_one_pow_each() {
        let (pk, _holder, mut rng) = setup();
        for (l, u, v) in [
            (1, 0u64, 1u64),
            (2, 3, 3),
            (6, 55, 58),
            (8, 200, 13),
            (8, 0, 255),
        ] {
            let eu = encrypt_bits(&pk, u, l, &mut rng);
            let ev = encrypt_bits(&pk, v, l, &mut rng);
            let uv = encrypt_bits(&pk, u & v, l, &mut rng);
            for (seed, f) in [(103, true), (104, false)] {
                let (mut fast_rng, mut ref_rng) =
                    (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                let fast = gadget(&pk, &eu, &ev, &uv, f, &mut fast_rng);
                let reference = gadget_reference(&pk, &eu, &ev, &uv, f, &mut ref_rng);
                assert_eq!(fast, reference, "l = {l}, u = {u}, v = {v}, F = {f}");
                assert_eq!(fast_rng.next_u64(), ref_rng.next_u64(), "same draws");
            }
        }
    }

    #[test]
    fn paper_example_5() {
        // u = 55, v = 58, l = 6 → min = 55.
        let (pk, holder, mut rng) = setup();
        let u = encrypt_bits(&pk, 55, 6, &mut rng);
        let v = encrypt_bits(&pk, 58, 6, &mut rng);
        let min = secure_min(&pk, &holder, &u, &v, &mut rng).unwrap();
        assert_eq!(decrypt_value(&holder, &min), 55);
        // Output bits are valid bits.
        for b in &min {
            assert!(holder.debug_decrypt_u64(b).unwrap() <= 1);
        }
    }

    #[test]
    fn exhaustive_small_domain() {
        let (pk, holder, mut rng) = setup();
        let l = 4;
        for u in 0u64..16 {
            for v in 0u64..16 {
                let eu = encrypt_bits(&pk, u, l, &mut rng);
                let ev = encrypt_bits(&pk, v, l, &mut rng);
                let min = secure_min(&pk, &holder, &eu, &ev, &mut rng).unwrap();
                assert_eq!(decrypt_value(&holder, &min), u.min(v), "u={u} v={v}");
            }
        }
    }

    #[test]
    fn equal_inputs() {
        let (pk, holder, mut rng) = setup();
        for value in [0u64, 1, 31, 63] {
            let eu = encrypt_bits(&pk, value, 6, &mut rng);
            let ev = encrypt_bits(&pk, value, 6, &mut rng);
            let min = secure_min(&pk, &holder, &eu, &ev, &mut rng).unwrap();
            assert_eq!(decrypt_value(&holder, &min), value);
        }
    }

    #[test]
    fn composes_with_sbd() {
        let (pk, holder, mut rng) = setup();
        let l = 8;
        for (a, b) in [(200u64, 13u64), (13, 200), (255, 0), (77, 78)] {
            let ea = pk.encrypt_u64(a, &mut rng);
            let eb = pk.encrypt_u64(b, &mut rng);
            let ba = secure_bit_decompose(&pk, &holder, &ea, l, &mut rng).unwrap();
            let bb = secure_bit_decompose(&pk, &holder, &eb, l, &mut rng).unwrap();
            let min = secure_min(&pk, &holder, &ba, &bb, &mut rng).unwrap();
            assert_eq!(decrypt_value(&holder, &min), a.min(b));
        }
    }

    #[test]
    fn mismatched_lengths_rejected() {
        let (pk, holder, mut rng) = setup();
        let u = encrypt_bits(&pk, 3, 4, &mut rng);
        let v = encrypt_bits(&pk, 3, 5, &mut rng);
        assert!(matches!(
            secure_min(&pk, &holder, &u, &v, &mut rng),
            Err(ProtocolError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn empty_inputs() {
        let (pk, holder, mut rng) = setup();
        assert!(secure_min(&pk, &holder, &[], &[], &mut rng)
            .unwrap()
            .is_empty());
    }
}
