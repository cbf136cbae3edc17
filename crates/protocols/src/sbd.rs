//! SBD — Secure Bit Decomposition.
//!
//! The paper delegates this step to the Samanthula–Jiang protocol
//! (ASIACCS 2013): P1 holds `E(z)` with `0 ≤ z < 2^l` and obtains encryptions
//! of the individual bits `[z] = ⟨E(z₁), …, E(z_l)⟩` (most-significant first)
//! without either party learning `z`.
//!
//! The construction extracts one bit per iteration, least-significant first:
//!
//! 1. **Encrypted LSB.** P1 masks `x` with a fresh random `r` and sends
//!    `E(x + r)` to P2, who replies with a fresh encryption of the parity of
//!    the masked plaintext. Because no wrap-around modulo `N` occurs (see
//!    below), `x mod 2 = (y mod 2) ⊕ (r mod 2)`, which P1 computes
//!    homomorphically since it knows `r`.
//! 2. **Shift right.** P1 computes `E((x − x₀)·2^{-1} mod N)` using the
//!    constant `2^{-1} = (N+1)/2`, and repeats.
//!
//! **Exactness.** The original protocol is probabilistic: it fails when
//! `x + r` wraps modulo `N`. We draw `r` uniformly from `[0, N − 2^l)`, which
//! (a) makes a wrap impossible, so the decomposition is always exact, and
//! (b) keeps the masked value statistically indistinguishable from uniform,
//! since `2^l / N` is negligible for any real key size. This substitution is
//! documented in `DESIGN.md`.

use crate::{KeyHolder, ProtocolError};
use rand::RngCore;
use sknn_bigint::{random_below, BigUint};
use sknn_paillier::{Ciphertext, PooledEncryptor, PublicKey};

/// Securely bit-decomposes `E(z)` into `l` encrypted bits, most-significant
/// bit first (the paper's `[z]` notation).
///
/// # Errors
/// Returns [`ProtocolError::InvalidBitLength`] when `l` is zero or too large
/// for the key (the plaintext space must comfortably contain `2^l`).
pub fn secure_bit_decompose<K: KeyHolder + ?Sized, R: RngCore + ?Sized>(
    pk: &PublicKey,
    key_holder: &K,
    e_z: &Ciphertext,
    l: usize,
    rng: &mut R,
) -> Result<Vec<Ciphertext>, ProtocolError> {
    secure_bit_decompose_with(pk, key_holder, e_z, l, rng, None)
}

/// [`secure_bit_decompose`] with an optional [`PooledEncryptor`]: each of
/// the `l` rounds encrypts one fresh mask per value, which is P1's hottest
/// online exponentiation — with a pool it becomes one modular
/// multiplication per mask.
///
/// # Errors
/// See [`secure_bit_decompose`].
pub fn secure_bit_decompose_with<K: KeyHolder + ?Sized, R: RngCore + ?Sized>(
    pk: &PublicKey,
    key_holder: &K,
    e_z: &Ciphertext,
    l: usize,
    rng: &mut R,
    enc: Option<&PooledEncryptor>,
) -> Result<Vec<Ciphertext>, ProtocolError> {
    secure_bit_decompose_batch_with(pk, key_holder, std::slice::from_ref(e_z), l, rng, enc)
        .and_then(|mut v| {
            v.pop().ok_or_else(|| ProtocolError::Invariant {
                message: "SBD batch of one returned no decomposition".into(),
            })
        })
}

/// Bit-decomposes many ciphertexts at once; the `i`-th output is the
/// decomposition of the `i`-th input. Each of the `l` rounds masks every
/// value and sends them to the key holder in a single batched message,
/// so the round count is `l` regardless of how many values are decomposed.
pub fn secure_bit_decompose_batch<K: KeyHolder + ?Sized, R: RngCore + ?Sized>(
    pk: &PublicKey,
    key_holder: &K,
    e_zs: &[Ciphertext],
    l: usize,
    rng: &mut R,
) -> Result<Vec<Vec<Ciphertext>>, ProtocolError> {
    secure_bit_decompose_batch_with(pk, key_holder, e_zs, l, rng, None)
}

/// [`secure_bit_decompose_batch`] with an optional [`PooledEncryptor`] for
/// the per-round mask encryptions.
///
/// # Errors
/// See [`secure_bit_decompose_batch`].
pub fn secure_bit_decompose_batch_with<K: KeyHolder + ?Sized, R: RngCore + ?Sized>(
    pk: &PublicKey,
    key_holder: &K,
    e_zs: &[Ciphertext],
    l: usize,
    rng: &mut R,
    enc: Option<&PooledEncryptor>,
) -> Result<Vec<Vec<Ciphertext>>, ProtocolError> {
    // 2^l must be far below N for the masking argument (and for the paper's
    // own premise that squared distances fit in l bits).
    if l == 0 || l + 2 >= pk.bits() {
        return Err(ProtocolError::InvalidBitLength {
            l,
            key_bits: pk.bits(),
        });
    }
    if e_zs.is_empty() {
        return Ok(Vec::new());
    }

    let two_pow_l = BigUint::one().shl_bits(l);
    let mask_bound = pk.n().sub_ref(&two_pow_l);
    // 2^{-1} mod N = (N + 1) / 2 for odd N.
    let half = pk.n().add_ref(&BigUint::one()).shr_bits(1);

    // bits_lsb_first[j][i] = E(bit j of value i)
    let mut bits_lsb_first: Vec<Vec<Ciphertext>> = Vec::with_capacity(l);
    let mut current: Vec<Ciphertext> = e_zs.to_vec();

    for _ in 0..l {
        // Mask every current value and ask for the parity of the masked sum.
        let mut masks = Vec::with_capacity(current.len());
        let mut masked = Vec::with_capacity(current.len());
        for c in &current {
            let r = random_below(rng, &mask_bound);
            // r < mask_bound < N, so pooled encryption cannot be out of range;
            // if it still objects, surface the logic bug as a typed error.
            let e_r = match enc {
                Some(enc) => enc.encrypt(&r).map_err(|e| ProtocolError::Invariant {
                    message: format!("pooled encryption rejected an in-range SBD mask: {e}"),
                })?,
                None => pk.encrypt(&r, rng),
            };
            masked.push(pk.add(c, &e_r));
            masks.push(r);
        }
        let parities = key_holder.lsb_of_masked_batch(&masked)?;

        // Un-mask the parity: x₀ = y₀ ⊕ r₀ = y₀ + r₀ − 2·y₀·r₀; since P1 knows
        // r₀ in the clear this is linear in the encrypted y₀.
        // A trivial (randomness-1) encryption of 1 used for the flip below;
        // the subtraction that consumes it re-randomizes nothing P2 ever sees.
        let trivial_one = pk.add_plain(&Ciphertext::from_raw(BigUint::one()), &BigUint::one());
        let round_bits: Vec<Ciphertext> = parities
            .iter()
            .zip(&masks)
            .map(|(beta, r)| {
                if r.is_even() {
                    beta.clone()
                } else {
                    // E(1 − y₀) = E(1) · E(y₀)^{N−1}
                    pk.sub(&trivial_one, beta)
                }
            })
            .collect();

        // x ← (x − x₀) / 2
        current = current
            .iter()
            .zip(&round_bits)
            .map(|(c, bit)| pk.mul_plain(&pk.sub(c, bit), &half))
            .collect();

        bits_lsb_first.push(round_bits);
    }

    // Transpose to per-value vectors and flip to most-significant-first.
    let out = (0..e_zs.len())
        .map(|i| {
            (0..l)
                .rev()
                .map(|j| bits_lsb_first[j][i].clone())
                .collect::<Vec<_>>()
        })
        .collect();
    Ok(out)
}

/// Recomposes an encrypted bit vector (most-significant first) into the
/// encryption of the value it represents:
/// `E(z) = Π_γ E(z_{γ+1})^{2^{l−γ−1}}` (Algorithm 6, step 3(b)).
pub fn recompose_bits(pk: &PublicKey, bits: &[Ciphertext]) -> Ciphertext {
    let l = bits.len();
    // E(0) with randomness 1: the raw group element 1.
    let mut acc = Ciphertext::from_raw(BigUint::one());
    for (idx, bit) in bits.iter().enumerate() {
        let weight = BigUint::one().shl_bits(l - idx - 1);
        acc = pk.add(&acc, &pk.mul_plain(bit, &weight));
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LocalKeyHolder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sknn_paillier::Keypair;

    fn setup() -> (PublicKey, LocalKeyHolder, StdRng) {
        let mut rng = StdRng::seed_from_u64(91);
        let (pk, sk) = Keypair::generate(128, &mut rng).split();
        (pk, LocalKeyHolder::new(sk, 92), rng)
    }

    fn decrypt_bits(holder: &LocalKeyHolder, bits: &[Ciphertext]) -> Vec<u64> {
        bits.iter()
            .map(|b| holder.debug_decrypt_u64(b).unwrap())
            .collect()
    }

    #[test]
    fn paper_example_4() {
        // z = 55, l = 6 → [55] = ⟨1, 1, 0, 1, 1, 1⟩ (MSB first).
        let (pk, holder, mut rng) = setup();
        let e_z = pk.encrypt_u64(55, &mut rng);
        let bits = secure_bit_decompose(&pk, &holder, &e_z, 6, &mut rng).unwrap();
        assert_eq!(decrypt_bits(&holder, &bits), vec![1, 1, 0, 1, 1, 1]);
    }

    #[test]
    fn all_values_in_small_domain() {
        let (pk, holder, mut rng) = setup();
        let l = 4;
        for z in 0u64..16 {
            let e_z = pk.encrypt_u64(z, &mut rng);
            let bits = secure_bit_decompose(&pk, &holder, &e_z, l, &mut rng).unwrap();
            let plain = decrypt_bits(&holder, &bits);
            let reconstructed = plain.iter().fold(0u64, |acc, &b| (acc << 1) | b);
            assert_eq!(reconstructed, z, "z = {z}");
            assert!(plain.iter().all(|&b| b <= 1));
        }
    }

    #[test]
    fn batch_matches_individual() {
        let (pk, holder, mut rng) = setup();
        let values = [0u64, 1, 31, 42, 63];
        let cts: Vec<_> = values
            .iter()
            .map(|&v| pk.encrypt_u64(v, &mut rng))
            .collect();
        let batched = secure_bit_decompose_batch(&pk, &holder, &cts, 6, &mut rng).unwrap();
        for (i, &v) in values.iter().enumerate() {
            let plain = decrypt_bits(&holder, &batched[i]);
            let reconstructed = plain.iter().fold(0u64, |acc, &b| (acc << 1) | b);
            assert_eq!(reconstructed, v);
        }
    }

    #[test]
    fn recompose_inverts_decompose() {
        let (pk, holder, mut rng) = setup();
        for z in [0u64, 7, 200, 1023] {
            let e_z = pk.encrypt_u64(z, &mut rng);
            let bits = secure_bit_decompose(&pk, &holder, &e_z, 10, &mut rng).unwrap();
            let recomposed = recompose_bits(&pk, &bits);
            assert_eq!(holder.debug_decrypt_u64(&recomposed).unwrap(), z);
        }
    }

    #[test]
    fn pooled_decomposition_matches_direct() {
        use sknn_paillier::{PoolConfig, PooledEncryptor, RandomnessPool};
        let (pk, holder, mut rng) = setup();
        let pool = RandomnessPool::new(
            pk.clone(),
            PoolConfig {
                capacity: 64,
                background_refill: false,
                seed: Some(93),
                ..Default::default()
            },
        );
        pool.prewarm(64);
        let enc = PooledEncryptor::new(pool);
        for z in [0u64, 55, 255] {
            let e_z = pk.encrypt_u64(z, &mut rng);
            let bits =
                secure_bit_decompose_with(&pk, &holder, &e_z, 8, &mut rng, Some(&enc)).unwrap();
            let plain = decrypt_bits(&holder, &bits);
            assert_eq!(plain.iter().fold(0u64, |acc, &b| (acc << 1) | b), z);
        }
        assert!(
            enc.pool().stats().draws() >= 24,
            "masks must draw from the pool"
        );
    }

    #[test]
    fn invalid_bit_lengths_rejected() {
        let (pk, holder, mut rng) = setup();
        let e_z = pk.encrypt_u64(1, &mut rng);
        assert!(matches!(
            secure_bit_decompose(&pk, &holder, &e_z, 0, &mut rng),
            Err(ProtocolError::InvalidBitLength { .. })
        ));
        assert!(matches!(
            secure_bit_decompose(&pk, &holder, &e_z, 128, &mut rng),
            Err(ProtocolError::InvalidBitLength { .. })
        ));
    }

    #[test]
    fn empty_batch() {
        let (pk, holder, mut rng) = setup();
        assert!(secure_bit_decompose_batch(&pk, &holder, &[], 6, &mut rng)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn max_value_in_domain() {
        let (pk, holder, mut rng) = setup();
        let l = 12;
        let z = (1u64 << l) - 1;
        let e_z = pk.encrypt_u64(z, &mut rng);
        let bits = secure_bit_decompose(&pk, &holder, &e_z, l, &mut rng).unwrap();
        assert_eq!(decrypt_bits(&holder, &bits), vec![1u64; l]);
    }
}
