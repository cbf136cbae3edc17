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
    let one = BigUint::one();
    let n_minus_2 = n.sub_ref(&BigUint::two());

    // Step 1(a): P1 picks the functionality F by a private coin flip.
    let f_is_u_gt_v: bool = rng.gen();

    // E(uᵢ·vᵢ) for every position, in one batched SM round.
    let pairs: Vec<(Ciphertext, Ciphertext)> = u_bits
        .iter()
        .zip(v_bits.iter())
        .map(|(u, v)| (u.clone(), v.clone()))
        .collect();
    let uv_products = crate::secure_multiply_batch(pk, key_holder, &pairs, rng);

    let mut gamma = Vec::with_capacity(l);
    let mut gamma_masks = Vec::with_capacity(l);
    let mut h_prev: Ciphertext = Ciphertext::from_raw(BigUint::one()); // E(0), H₀
    let mut l_vec = Vec::with_capacity(l);

    for i in 0..l {
        let e_u = &u_bits[i];
        let e_v = &v_bits[i];
        let e_uv = &uv_products[i];

        // Wᵢ and the randomized bit difference Γᵢ depend on F.
        let (w_i, diff) = if f_is_u_gt_v {
            // Wᵢ = E(uᵢ·(1 − vᵢ)),  Γᵢ = E(vᵢ − uᵢ + r̂ᵢ)
            (pk.sub(e_u, e_uv), pk.sub(e_v, e_u))
        } else {
            // Wᵢ = E(vᵢ·(1 − uᵢ)),  Γᵢ = E(uᵢ − vᵢ + r̂ᵢ)
            (pk.sub(e_v, e_uv), pk.sub(e_u, e_v))
        };
        let r_hat = random_below(rng, n);
        let gamma_i = pk.add_plain(&diff, &r_hat);

        // Gᵢ = E(uᵢ ⊕ vᵢ) = E(uᵢ + vᵢ − 2·uᵢ·vᵢ)
        let g_i = pk.add(&pk.add(e_u, e_v), &pk.mul_plain(e_uv, &n_minus_2));

        // Hᵢ = H_{i−1}^{rᵢ} · Gᵢ with rᵢ ∈ [1, N): preserves the first 1 in G.
        let r_i = random_range(rng, &one, n);
        let h_i = pk.add(&pk.mul_plain(&h_prev, &r_i), &g_i);

        // Φᵢ = E(−1) · Hᵢ = E(Hᵢ − 1): zero exactly at the first differing bit.
        let phi_i = pk.sub_plain(&h_i, &one);

        // Lᵢ = Wᵢ · Φᵢ^{r′ᵢ} with r′ᵢ ∈ [1, N): reveals Wᵢ only where Φᵢ = 0.
        let r_prime = random_range(rng, &one, n);
        let l_i = pk.add(&w_i, &pk.mul_plain(&phi_i, &r_prime));

        gamma.push(gamma_i);
        gamma_masks.push(r_hat);
        h_prev = h_i;
        l_vec.push(l_i);
    }

    // Step 1(c)-(d): permute Γ and L with two independent permutations.
    let pi1 = Permutation::random(rng, l);
    let pi2 = Permutation::random(rng, l);
    let gamma_permuted = pi1.apply(&gamma)?;
    let l_permuted = pi2.apply(&l_vec)?;

    // Step 2: P2 decides α obliviously and exponentiates Γ′ by it.
    let response = key_holder.smin_round(&gamma_permuted, &l_permuted)?;

    // Step 3: undo the permutation, strip the r̂ masks, and select the bits.
    // A reply of the wrong length is a typed error here.
    let m_tilde = pi1.apply_inverse(&response.m_prime)?;
    let e_alpha = response.alpha;

    let min_bits = (0..l)
        .map(|i| {
            // λᵢ = M̃ᵢ · E(α)^{N − r̂ᵢ} = E(α·(other − this)ᵢ)
            let neg_mask = gamma_masks[i].mod_neg(n);
            // Careful: exponent must be N − r̂ᵢ, i.e. −r̂ᵢ mod N (0 stays 0).
            let lambda_i = pk.add(&m_tilde[i], &pk.mul_plain(&e_alpha, &neg_mask));
            if f_is_u_gt_v {
                pk.add(&u_bits[i], &lambda_i)
            } else {
                pk.add(&v_bits[i], &lambda_i)
            }
        })
        .collect();
    Ok(min_bits)
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
