//! SBD — Secure Bit Decomposition.
//!
//! The paper delegates this step to the Samanthula–Jiang protocol
//! (ASIACCS 2013): P1 holds `E(z)` with `0 ≤ z < 2^l` and obtains encryptions
//! of the individual bits `[z] = ⟨E(z₁), …, E(z_l)⟩` (most-significant first)
//! without either party learning `z`.
//!
//! The construction extracts one bit per round, least-significant first.
//! P1 keeps `x_j = z − low_j`, where `low_j = Σ_{i<j} zᵢ·2^i` is the part
//! already extracted, so `x_j` is a multiple of `2^j`:
//!
//! 1. **Encrypted bit `j`.** P1 masks `x_j` with a fresh random `r` and
//!    sends `E(x_j + r)` to P2, who replies with a fresh encryption of bit
//!    `j` of the masked plaintext `y`. No wrap-around modulo `N` occurs (see
//!    below), and the low `j` bits of `x_j` are zero, so adding `r` carries
//!    nothing into bit `j`: `z_j = y_j ⊕ r_j`, which P1 computes
//!    homomorphically since it knows `r`.
//! 2. **Clear bit `j`.** P1 computes `E(x_{j+1}) = E(x_j)·E(−z_j)^{2^j}`, a
//!    `j`-bit exponent, and repeats. The last round skips it.
//!
//! The original protocol halves the state instead (`E((x − x₀)·2^{-1})`, a
//! full `|N|`-bit exponent per bit) and always asks for the parity; asking
//! for bit `j` of the unhalved state gives the same bits for a short power.
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
    secure_bit_decompose_batch(pk, key_holder, std::slice::from_ref(e_z), l, rng).and_then(
        |mut v| {
            v.pop().ok_or_else(|| ProtocolError::Invariant {
                message: "SBD batch of one returned no decomposition".into(),
            })
        },
    )
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

/// [`secure_bit_decompose_batch`] with an optional [`PooledEncryptor`]: each
/// of the `l` rounds encrypts one fresh mask per value, which is P1's
/// hottest online exponentiation — with a pool it becomes one modular
/// multiplication per mask.
///
/// # Errors
/// See [`secure_bit_decompose`].
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
    let one = BigUint::one();
    // A trivial (randomness-1) encryption of 1 used for the flip below;
    // the subtraction that consumes it re-randomizes nothing P2 ever sees.
    let trivial_one = pk.add_plain(&Ciphertext::from_raw(BigUint::one()), &one);

    // bits_lsb_first[j][i] = E(bit j of value i)
    let mut bits_lsb_first: Vec<Vec<Ciphertext>> = Vec::with_capacity(l);
    // current[i] = E(z_i − low_j): value i with its low j bits cleared.
    let mut current: Vec<Ciphertext> = e_zs.to_vec();

    for j in 0..l {
        // Mask every current value and ask for bit j of the masked sum.
        let masks: Vec<BigUint> = current
            .iter()
            .map(|_| random_below(rng, &mask_bound))
            .collect();
        // r < mask_bound < N, so pooled encryption cannot be out of range;
        // if it still objects, surface the logic bug as a typed error.
        let e_masks = match enc {
            Some(enc) => enc
                .encrypt_batch(&masks)
                .map_err(|e| ProtocolError::Invariant {
                    message: format!("pooled encryption rejected an in-range SBD mask: {e}"),
                })?,
            None => masks.iter().map(|r| pk.encrypt(r, rng)).collect(),
        };
        let masked: Vec<Ciphertext> = current
            .iter()
            .zip(&e_masks)
            .map(|(c, e_r)| pk.add(c, e_r))
            .collect();
        let betas = key_holder.bit_of_masked_batch(j as u32, &masked)?;

        // Un-mask: z_j = y_j ⊕ r_j. P1 knows r_j in the clear, so E(z_j)
        // is E(y_j) itself (r_j = 0) or E(1 − y_j) (r_j = 1).
        let last = j + 1 == l;
        let weight = one.shl_bits(j);
        let mut round_bits = Vec::with_capacity(betas.len());
        for ((beta, r), c) in betas.into_iter().zip(&masks).zip(current.iter_mut()) {
            let flip = r.bit(j);
            if !last {
                // E(−z_j) is a plaintext shift E(y_j − 1) when r_j = 1 and
                // one negation of E(y_j) when r_j = 0; then
                // x_{j+1} = x_j − z_j·2^j.
                let neg_bit = if flip {
                    pk.sub_plain(&beta, &one)
                } else {
                    pk.negate(&beta)
                };
                *c = pk.add(c, &pk.mul_plain(&neg_bit, &weight));
            }
            round_bits.push(if flip {
                pk.sub(&trivial_one, &beta)
            } else {
                beta
            });
        }
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
    use crate::{LocalKeyHolder, Request, Response};
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
    fn recompose_inverts_decompose() {
        let (pk, holder, mut rng) = setup();
        for z in [0u64, 7, 200, 1023] {
            let e_z = pk.encrypt_u64(z, &mut rng);
            let bits = secure_bit_decompose(&pk, &holder, &e_z, 10, &mut rng).unwrap();
            let recomposed = recompose_bits(&pk, &bits);
            assert_eq!(holder.debug_decrypt_u64(&recomposed).unwrap(), z);
        }
    }

    fn pooled_encryptor(pk: &PublicKey) -> PooledEncryptor {
        use sknn_paillier::{PoolConfig, RandomnessPool};
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
        PooledEncryptor::new(pool)
    }

    /// Every `z < 2^l`, decomposed in one batch (cycled to at least three
    /// values so `l = 1` batches too).
    fn every_value(l: usize) -> Vec<u64> {
        (0..(1u64 << l).max(3)).map(|z| z % (1 << l)).collect()
    }

    #[test]
    fn batch_is_exact_on_every_small_value_pooled_and_unpooled() {
        let (pk, holder, mut rng) = setup();
        let enc = pooled_encryptor(&pk);
        for l in [1, 5, 8] {
            let values = every_value(l);
            let cts: Vec<_> = values
                .iter()
                .map(|&z| pk.encrypt_u64(z, &mut rng))
                .collect();
            for pool in [None, Some(&enc)] {
                let bits =
                    secure_bit_decompose_batch_with(&pk, &holder, &cts, l, &mut rng, pool).unwrap();
                assert_eq!(bits.len(), values.len());
                for (&z, bits) in values.iter().zip(&bits) {
                    let plain = decrypt_bits(&holder, bits);
                    let expected: Vec<u64> = (0..l).rev().map(|j| (z >> j) & 1).collect();
                    assert_eq!(
                        plain,
                        expected,
                        "z = {z}, l = {l}, pooled = {}",
                        pool.is_some()
                    );
                }
            }
        }
        assert_eq!(
            enc.pool().stats().draws(),
            3 + 5 * 32 + 8 * 256,
            "every mask draws from the pool"
        );
    }

    /// A C2 that checks the carry-free argument. It replays C1's mask
    /// draws and asserts that round `j`'s plaintexts are exactly
    /// `(z − low_j) + r`: the value with its low `j` bits cleared, so
    /// `≡ r (mod 2^j)`, plus a mask that did not wrap modulo `N`. It also
    /// recovers every request's unit, as C2 can, and checks none repeats.
    struct CarryFree<'a> {
        inner: &'a LocalKeyHolder,
        values: &'a [u64],
        l: usize,
        pooled: bool,
        seen: parking_lot::Mutex<Seen>,
    }

    /// What [`CarryFree`] has seen so far.
    struct Seen {
        /// C1's rng, replayed.
        rng: StdRng,
        /// The bit the next request must ask for.
        next_bit: u32,
        /// The unit of every masked ciphertext so far.
        units: Vec<BigUint>,
    }

    impl KeyHolder for CarryFree<'_> {
        fn public_key(&self) -> &PublicKey {
            self.inner.public_key()
        }

        fn call(&self, request: Request) -> Result<Response, ProtocolError> {
            let Request::LsbBatch { bit, masked } = &request else {
                panic!("SBD sent {}", request.name());
            };
            let mut seen = self.seen.lock();
            let seen = &mut *seen;
            assert_eq!(*bit, seen.next_bit, "rounds ask for bits 0, 1, …, l − 1");
            seen.next_bit += 1;
            let pk = self.inner.public_key();
            let bound = pk.n().sub_ref(&BigUint::one().shl_bits(self.l));
            let masks: Vec<BigUint> = masked
                .iter()
                .map(|_| random_below(&mut seen.rng, &bound))
                .collect();
            if !self.pooled {
                masks
                    .iter()
                    .for_each(|r| drop(pk.encrypt(r, &mut seen.rng)));
            }
            let low = BigUint::one().shl_bits(*bit as usize);
            for ((c, r), &z) in masked.iter().zip(&masks).zip(self.values) {
                let y = self.inner.debug_decrypt(c);
                assert!(&y < pk.n());
                assert_eq!(y.rem_ref(&low), r.rem_ref(&low), "z = {z}, bit {bit}");
                let cleared = z >> bit << bit;
                assert_eq!(
                    y.sub_ref(r),
                    BigUint::from_u64(cleared),
                    "z = {z}, bit {bit}"
                );
                // c·(1 − yN) mod N² is the unit r_c^N.
                let unit = pk.sub_plain(c, &y).into_raw();
                assert!(!seen.units.contains(&unit), "z = {z}, bit {bit}");
                seen.units.push(unit);
            }
            self.inner.call(request)
        }
    }

    #[test]
    fn round_j_plaintexts_are_congruent_to_the_mask_mod_2_pow_j() {
        let (pk, holder, mut rng) = setup();
        let enc = pooled_encryptor(&pk);
        let l = 5;
        let values = every_value(l);
        let cts: Vec<_> = values
            .iter()
            .map(|&z| pk.encrypt_u64(z, &mut rng))
            .collect();
        for (seed, pool) in [(94, None), (95, Some(&enc))] {
            let c2 = CarryFree {
                inner: &holder,
                values: &values,
                l,
                pooled: pool.is_some(),
                seen: parking_lot::Mutex::new(Seen {
                    rng: StdRng::seed_from_u64(seed),
                    next_bit: 0,
                    units: Vec::new(),
                }),
            };
            let mut c1_rng = StdRng::seed_from_u64(seed);
            let bits =
                secure_bit_decompose_batch_with(&pk, &c2, &cts, l, &mut c1_rng, pool).unwrap();
            assert_eq!(c2.seen.lock().next_bit, l as u32, "one request per bit");
            for (&z, bits) in values.iter().zip(&bits) {
                let plain = decrypt_bits(&holder, bits);
                assert_eq!(plain.iter().fold(0u64, |acc, &b| (acc << 1) | b), z);
            }
        }
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
