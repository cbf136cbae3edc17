//! The key-holding party (P2 / cloud C2).
//!
//! The [`KeyHolder`] trait is the complete interface P1 (cloud C1) has to the
//! party holding the Paillier secret key. Each method corresponds to exactly
//! one message exchange in the paper's algorithms — nothing beyond those
//! messages is observable by C2, which is what the semi-honest security
//! argument of Section 4.3 relies on.

use crate::error::ProtocolError;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sknn_bigint::{BigUint, Montgomery};
use sknn_paillier::{Ciphertext, PrivateKey, PublicKey, RandomnessPool, SlotLayout};
use std::sync::Arc;

/// The response to one SMIN evaluation round (Algorithm 3, step 2).
#[derive(Clone, Debug)]
pub struct SminRoundResponse {
    /// `M′_i = Γ′_i^α` — the (still permuted) randomized bit differences,
    /// exponentiated by the comparison outcome.
    pub m_prime: Vec<Ciphertext>,
    /// `E(α)` — the encrypted, functionality-oblivious comparison outcome.
    pub alpha: Ciphertext,
}

/// The operations cloud C2 (holder of the Paillier secret key) performs on
/// behalf of cloud C1.
///
/// All methods take `&self` so a single key holder can serve concurrent
/// protocol executions (the parallel SkNN variants of Figure 3 rely on this);
/// implementations use interior mutability for their randomness.
pub trait KeyHolder: Send + Sync {
    /// The public key both clouds operate under.
    fn public_key(&self) -> &PublicKey;

    /// SM, step 2 (Algorithm 1): for each pair `(a′, b′)` of masked
    /// ciphertexts, decrypt both, multiply the plaintexts modulo `N` and
    /// return a fresh encryption of the product.
    ///
    /// # Errors
    /// A remote key holder returns its transport failure (or a reply of
    /// the wrong shape) as a typed error; the in-process one never fails.
    fn sm_mask_multiply_batch(
        &self,
        pairs: &[(Ciphertext, Ciphertext)],
    ) -> Result<Vec<Ciphertext>, ProtocolError>;

    /// SBD's Encrypted-LSB oracle: for each masked ciphertext `E(z + r)`,
    /// decrypt and return a fresh encryption of the least-significant bit of
    /// the plaintext.
    ///
    /// # Errors
    /// See [`KeyHolder::sm_mask_multiply_batch`].
    fn lsb_of_masked_batch(&self, masked: &[Ciphertext]) -> Result<Vec<Ciphertext>, ProtocolError>;

    /// SMIN, step 2 (Algorithm 3): decrypt the permuted `L′` vector, decide
    /// `α` (1 if any entry decrypts to exactly 1), exponentiate the permuted
    /// `Γ′` vector by `α` and return it together with `E(α)`.
    ///
    /// # Errors
    /// Returns [`ProtocolError::DimensionMismatch`] when the two permuted
    /// vectors disagree in length — they are produced together in step 1, so
    /// a mismatch means corrupted input, not a recoverable condition.
    fn smin_round(
        &self,
        gamma_permuted: &[Ciphertext],
        l_permuted: &[Ciphertext],
    ) -> Result<SminRoundResponse, ProtocolError>;

    /// SkNN_m, step 3(c) (Algorithm 6): decrypt the permuted, randomized
    /// distance differences `β` and return the indicator vector `U` with
    /// `U_i = E(1)` for exactly one position where the plaintext is zero
    /// (chosen uniformly when several are zero) and `E(0)` elsewhere.
    ///
    /// # Errors
    /// Returns [`ProtocolError::MinSelectionFailed`] when *no* entry
    /// decrypts to zero. The protocol guarantees at least one zero (the
    /// global minimum always matches itself), so this signals corrupted
    /// input or a protocol-logic bug — returning an all-zero indicator
    /// instead would silently extract a zero record and violate the
    /// protocol invariant.
    fn min_selection(&self, beta: &[Ciphertext]) -> Result<Vec<Ciphertext>, ProtocolError>;

    /// SkNN_b, step 3 (Algorithm 5): decrypt every distance and return the
    /// indices of the `k` smallest (ties broken by index). This deliberately
    /// leaks the distances and the access pattern — that is the documented
    /// weakness of the basic protocol.
    ///
    /// # Errors
    /// See [`KeyHolder::sm_mask_multiply_batch`].
    fn top_k_indices(
        &self,
        distances: &[Ciphertext],
        k: usize,
    ) -> Result<Vec<usize>, ProtocolError>;

    /// Final step of both protocols (steps 5 of Algorithm 5): decrypt the
    /// masked result attributes `γ` so they can be forwarded to Bob. The
    /// plaintexts are uniformly random values masked by C1, so nothing about
    /// the real records is revealed to the key holder.
    ///
    /// # Errors
    /// See [`KeyHolder::sm_mask_multiply_batch`].
    fn decrypt_masked_batch(&self, masked: &[Ciphertext]) -> Result<Vec<BigUint>, ProtocolError>;

    // ── Slot-packed fast paths ──────────────────────────────────────────
    //
    // The packed methods carry σ values per ciphertext (see
    // `sknn_paillier::packing`), cutting C2's decryption count and the
    // C1↔C2 ciphertext volume by the packing factor. They have scalar
    // semantics — the decrypted results are bit-identical to the unpacked
    // methods above — and default to `PackingUnsupported` so existing
    // `KeyHolder` implementations (and pre-packing peers behind a
    // transport) keep working: callers probe `supports_packing` and fall
    // back to the scalar paths.

    /// Whether this key holder serves the packed methods below. Transports
    /// report the *negotiated* capability of the remote peer.
    fn supports_packing(&self) -> bool {
        false
    }

    /// Packed SM, square form (the SSED pattern where both operands of each
    /// product are equal): each input ciphertext packs blinded operands
    /// `xᵢ < 2^slot_bits`; C2 decrypts it once, squares every slot in
    /// plaintext, and returns one fresh ciphertext packing the `xᵢ²`.
    ///
    /// # Errors
    /// [`ProtocolError::PackingUnsupported`] without a packed
    /// implementation; [`ProtocolError::Packing`] when a decrypted value
    /// violates the layout.
    fn sm_packed_square_batch(
        &self,
        layout: &SlotLayout,
        packed: &[Ciphertext],
    ) -> Result<Vec<Ciphertext>, ProtocolError> {
        let _ = (layout, packed);
        Err(ProtocolError::PackingUnsupported)
    }

    /// Packed SM, general form: for each pair of packed-operand ciphertexts
    /// C2 returns one fresh ciphertext packing the slot-wise products
    /// `aᵢ·bᵢ`.
    ///
    /// # Errors
    /// See [`KeyHolder::sm_packed_square_batch`].
    fn sm_packed_multiply_batch(
        &self,
        layout: &SlotLayout,
        pairs: &[(Ciphertext, Ciphertext)],
    ) -> Result<Vec<Ciphertext>, ProtocolError> {
        let _ = (layout, pairs);
        Err(ProtocolError::PackingUnsupported)
    }

    /// Packed SBD round oracle: each input ciphertext packs masked values
    /// `yᵢ = xᵢ + rᵢ` (slot-aligned, no inter-slot carries);
    /// `slot_counts[g]` says how many slots of input `g` are in use. C2
    /// decrypts each input once and returns a fresh encryption of the
    /// least-significant bit of **every used slot**, flattened in slot
    /// order (the per-bit ciphertexts are what SMIN consumes downstream,
    /// which is why the response side stays scalar — see `DESIGN.md`).
    ///
    /// # Errors
    /// See [`KeyHolder::sm_packed_square_batch`].
    fn lsb_packed_batch(
        &self,
        layout: &SlotLayout,
        masked: &[Ciphertext],
        slot_counts: &[usize],
    ) -> Result<Vec<Ciphertext>, ProtocolError> {
        let _ = (layout, masked, slot_counts);
        Err(ProtocolError::PackingUnsupported)
    }

    /// Packed SkNN_b top-k: the `count` encrypted distances arrive packed σ
    /// per ciphertext; C2 decrypts ⌈count/σ⌉ ciphertexts instead of
    /// `count`, unpacks, and returns the indices of the `k` smallest (ties
    /// by index) — the same deliberate distance leak as
    /// [`KeyHolder::top_k_indices`], at a fraction of the traffic.
    ///
    /// # Errors
    /// See [`KeyHolder::sm_packed_square_batch`].
    fn top_k_indices_packed(
        &self,
        layout: &SlotLayout,
        packed: &[Ciphertext],
        count: usize,
        k: usize,
    ) -> Result<Vec<usize>, ProtocolError> {
        let _ = (layout, packed, count, k);
        Err(ProtocolError::PackingUnsupported)
    }
}

/// An in-process key holder: executes C2's side of every protocol directly.
///
/// This is the implementation used when both "clouds" run in the same process
/// (the configuration the paper's own single-machine evaluation corresponds
/// to). The [`crate::transport::SessionKeyHolder`] client and
/// [`crate::transport::serve`] loop put the same logic behind a pluggable
/// frame transport with traffic accounting.
pub struct LocalKeyHolder {
    sk: PrivateKey,
    pk: PublicKey,
    rng: Mutex<StdRng>,
    /// Reusable Montgomery context for `N²`, so unpooled fresh encryptions
    /// skip the per-exponentiation setup.
    mont_n2: Montgomery,
    /// Precomputed `r^N mod N²` units for the fresh encryptions in every
    /// response; `None` pays the exponentiation inline on each reply.
    pool: Option<Arc<RandomnessPool>>,
}

impl LocalKeyHolder {
    /// Creates a key holder from the secret key, seeding its internal
    /// randomness from `seed` (deterministic for reproducible experiments).
    pub fn new(sk: PrivateKey, seed: u64) -> Self {
        let pk = sk.public_key().clone();
        let mont_n2 = Montgomery::new(pk.n_squared().clone());
        LocalKeyHolder {
            sk,
            pk,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            mont_n2,
            pool: None,
        }
    }

    /// Creates a key holder seeded from the operating-system entropy source.
    pub fn from_entropy(sk: PrivateKey) -> Self {
        let pk = sk.public_key().clone();
        let mont_n2 = Montgomery::new(pk.n_squared().clone());
        LocalKeyHolder {
            sk,
            pk,
            rng: Mutex::new(StdRng::from_entropy()),
            mont_n2,
            pool: None,
        }
    }

    /// Attaches an offline randomness pool: every fresh encryption in this
    /// key holder's responses (SM products, LSB replies, `E(α)`, indicator
    /// vectors) consumes one precomputed `r^N mod N²` unit instead of paying
    /// the exponentiation online.
    ///
    /// # Errors
    /// [`ProtocolError::Invariant`] when the pool was built for a different
    /// Paillier key — a deployment wiring error. The key holder is left
    /// without a pool (correct, just slower), so callers may also treat the
    /// error as a degraded-mode warning.
    pub fn attach_pool(&mut self, pool: Arc<RandomnessPool>) -> Result<(), ProtocolError> {
        if pool.public_key().n() != self.pk.n() {
            return Err(ProtocolError::Invariant {
                message: "randomness pool belongs to a different Paillier key".to_string(),
            });
        }
        self.pool = Some(pool);
        Ok(())
    }

    /// Builder-style [`LocalKeyHolder::attach_pool`].
    ///
    /// # Errors
    /// See [`LocalKeyHolder::attach_pool`].
    pub fn with_pool(mut self, pool: Arc<RandomnessPool>) -> Result<Self, ProtocolError> {
        self.attach_pool(pool)?;
        Ok(self)
    }

    /// The attached randomness pool, if any.
    pub fn pool(&self) -> Option<&Arc<RandomnessPool>> {
        self.pool.as_ref()
    }

    /// Decrypts a ciphertext — **test and audit helper only**. Real
    /// deployments never expose raw decryption of protocol intermediates;
    /// the method exists so tests and the leakage auditor can check
    /// plaintext-level invariants.
    pub fn debug_decrypt(&self, c: &Ciphertext) -> BigUint {
        self.sk.decrypt(c)
    }

    /// [`LocalKeyHolder::debug_decrypt`] narrowed to `u64`.
    ///
    /// # Errors
    /// [`ProtocolError::Invariant`] when the plaintext exceeds `u64` — for
    /// a test helper that usually means the ciphertext was not the small
    /// protocol value the caller believed it to be.
    pub fn debug_decrypt_u64(&self, c: &Ciphertext) -> Result<u64, ProtocolError> {
        self.sk
            .decrypt(c)
            .to_u64()
            .ok_or_else(|| ProtocolError::Invariant {
                message: "decrypted plaintext does not fit in u64".to_string(),
            })
    }

    /// Access to the private key for composition into higher-level roles
    /// (the `sknn-core` crate's cloud C2 wrapper re-uses it for the final
    /// result decryption step).
    pub fn private_key(&self) -> &PrivateKey {
        &self.sk
    }

    /// Produces `count` fresh encryption units (`r^N mod N²`). With a pool
    /// attached this is one queue lock (precomputed entries, synchronous
    /// fallback only when drained); without one, randomness is drawn under a
    /// short lock and the exponentiations run outside it, so concurrent
    /// protocol executions are never serialized behind the expensive work.
    fn fresh_units(&self, count: usize) -> Vec<BigUint> {
        if let Some(pool) = &self.pool {
            return pool
                .draw_batch(count)
                .into_iter()
                .map(|entry| entry.unit)
                .collect();
        }
        let randomness: Vec<BigUint> = {
            let mut rng = self.rng.lock();
            (0..count)
                .map(|_| self.pk.sample_randomness(&mut *rng))
                .collect()
        };
        randomness
            .into_iter()
            .map(|r| self.mont_n2.pow(&r, self.pk.n()))
            .collect()
    }

    /// Fresh encryption of a value this key holder itself computed (a
    /// decryption result or a protocol bit, hence always `< N` — the
    /// reduction below is a no-op on every real input and exists so this
    /// path cannot unwind mid-protocol).
    fn encrypt_own(&self, m: &BigUint, unit: &BigUint) -> Ciphertext {
        let reduced = m.rem_ref(self.pk.n());
        if let Ok(ct) = self.pk.encrypt_with_unit(&reduced, unit) {
            return ct;
        }
        // Unreachable (`reduced < N` by construction); degrade to a full
        // online encryption rather than panic.
        let mut rng = self.rng.lock();
        self.pk.encrypt(&reduced, &mut *rng)
    }
}

impl KeyHolder for LocalKeyHolder {
    fn public_key(&self) -> &PublicKey {
        &self.pk
    }

    fn sm_mask_multiply_batch(
        &self,
        pairs: &[(Ciphertext, Ciphertext)],
    ) -> Result<Vec<Ciphertext>, ProtocolError> {
        // Draw all encryption units up front (one queue lock with a pool, a
        // short rng lock without) so concurrent protocol executions (the
        // record-parallel stages of Figure 3) are not serialized behind the
        // expensive decrypt/encrypt work.
        let units = self.fresh_units(pairs.len());
        Ok(pairs
            .iter()
            .zip(units)
            .map(|((a, b), unit)| {
                let ha = self.sk.decrypt(a);
                let hb = self.sk.decrypt(b);
                let h = ha.mod_mul(&hb, self.pk.n());
                self.encrypt_own(&h, &unit)
            })
            .collect())
    }

    fn lsb_of_masked_batch(&self, masked: &[Ciphertext]) -> Result<Vec<Ciphertext>, ProtocolError> {
        let units = self.fresh_units(masked.len());
        Ok(masked
            .iter()
            .zip(units)
            .map(|(y, unit)| {
                let plain = self.sk.decrypt(y);
                let bit = if plain.is_odd() {
                    BigUint::one()
                } else {
                    BigUint::zero()
                };
                self.encrypt_own(&bit, &unit)
            })
            .collect())
    }

    fn smin_round(
        &self,
        gamma_permuted: &[Ciphertext],
        l_permuted: &[Ciphertext],
    ) -> Result<SminRoundResponse, ProtocolError> {
        if gamma_permuted.len() != l_permuted.len() {
            return Err(ProtocolError::DimensionMismatch {
                left: gamma_permuted.len(),
                right: l_permuted.len(),
            });
        }
        let one = BigUint::one();
        // α = 1 iff some decrypted L′ entry equals exactly 1.
        let alpha_is_one = l_permuted.iter().any(|c| self.sk.decrypt(c) == one);
        let alpha_plain = if alpha_is_one {
            BigUint::one()
        } else {
            BigUint::zero()
        };

        let m_prime = gamma_permuted
            .iter()
            .map(|g| {
                if alpha_is_one {
                    g.clone()
                } else {
                    // Γ′^0 = a trivial encryption of zero.
                    self.pk.mul_plain(g, &BigUint::zero())
                }
            })
            .collect();

        let unit = self
            .fresh_units(1)
            .pop()
            .ok_or_else(|| ProtocolError::Invariant {
                message: "one encryption unit requested, none produced".to_string(),
            })?;
        Ok(SminRoundResponse {
            m_prime,
            alpha: self.encrypt_own(&alpha_plain, &unit),
        })
    }

    fn min_selection(&self, beta: &[Ciphertext]) -> Result<Vec<Ciphertext>, ProtocolError> {
        let zero_positions: Vec<usize> = beta
            .iter()
            .enumerate()
            .filter(|(_, c)| self.sk.decrypt(c).is_zero())
            .map(|(i, _)| i)
            .collect();
        // The protocol guarantees at least one zero (the global minimum always
        // matches itself). No zero means the input is corrupt; an all-zero
        // indicator would silently extract a garbage record downstream.
        if zero_positions.is_empty() {
            return Err(ProtocolError::MinSelectionFailed {
                candidates: beta.len(),
            });
        }
        // If several records tie, pick one uniformly.
        let chosen = {
            let mut rng = self.rng.lock();
            zero_positions[rng.gen_range(0..zero_positions.len())]
        };
        let units = self.fresh_units(beta.len());
        Ok(units
            .iter()
            .enumerate()
            .map(|(i, unit)| {
                let bit = if i == chosen {
                    BigUint::one()
                } else {
                    BigUint::zero()
                };
                self.encrypt_own(&bit, unit)
            })
            .collect())
    }

    fn top_k_indices(
        &self,
        distances: &[Ciphertext],
        k: usize,
    ) -> Result<Vec<usize>, ProtocolError> {
        let mut decrypted: Vec<(BigUint, usize)> = distances
            .iter()
            .enumerate()
            .map(|(i, c)| (self.sk.decrypt(c), i))
            .collect();
        decrypted.sort();
        Ok(decrypted.into_iter().take(k).map(|(_, i)| i).collect())
    }

    fn decrypt_masked_batch(&self, masked: &[Ciphertext]) -> Result<Vec<BigUint>, ProtocolError> {
        Ok(masked.iter().map(|c| self.sk.decrypt(c)).collect())
    }

    fn supports_packing(&self) -> bool {
        true
    }

    fn sm_packed_square_batch(
        &self,
        layout: &SlotLayout,
        packed: &[Ciphertext],
    ) -> Result<Vec<Ciphertext>, ProtocolError> {
        layout
            .require_fits_pk(&self.pk)
            .map_err(ProtocolError::from)?;
        let units = self.fresh_units(packed.len());
        packed
            .iter()
            .zip(units)
            .map(|(ct, unit)| {
                let slots = layout.unpack(&self.sk.decrypt(ct), layout.slots_per_ct)?;
                // Slot-wise squares; `pack_wide` re-checks the carry-freedom
                // bound, so an operand wider than the layout promised
                // surfaces as a typed error rather than corrupting a
                // neighbouring slot.
                let squares: Vec<BigUint> = slots.iter().map(|x| x.mul_ref(x)).collect();
                let repacked = layout.pack_wide(&squares)?;
                Ok(self.encrypt_own(&repacked, &unit))
            })
            .collect()
    }

    fn sm_packed_multiply_batch(
        &self,
        layout: &SlotLayout,
        pairs: &[(Ciphertext, Ciphertext)],
    ) -> Result<Vec<Ciphertext>, ProtocolError> {
        layout
            .require_fits_pk(&self.pk)
            .map_err(ProtocolError::from)?;
        let units = self.fresh_units(pairs.len());
        pairs
            .iter()
            .zip(units)
            .map(|((a, b), unit)| {
                let xs = layout.unpack(&self.sk.decrypt(a), layout.slots_per_ct)?;
                let ys = layout.unpack(&self.sk.decrypt(b), layout.slots_per_ct)?;
                let products: Vec<BigUint> =
                    xs.iter().zip(&ys).map(|(x, y)| x.mul_ref(y)).collect();
                let repacked = layout.pack_wide(&products)?;
                Ok(self.encrypt_own(&repacked, &unit))
            })
            .collect()
    }

    fn lsb_packed_batch(
        &self,
        layout: &SlotLayout,
        masked: &[Ciphertext],
        slot_counts: &[usize],
    ) -> Result<Vec<Ciphertext>, ProtocolError> {
        layout
            .require_fits_pk(&self.pk)
            .map_err(ProtocolError::from)?;
        if masked.len() != slot_counts.len() {
            return Err(ProtocolError::DimensionMismatch {
                left: masked.len(),
                right: slot_counts.len(),
            });
        }
        let total: usize = slot_counts.iter().sum();
        let units = self.fresh_units(total);
        let mut out = Vec::with_capacity(total);
        let mut unit_iter = units.into_iter();
        for (ct, &count) in masked.iter().zip(slot_counts) {
            let slots = layout.unpack(&self.sk.decrypt(ct), layout.slots_per_ct)?;
            if count > slots.len() {
                return Err(ProtocolError::Packing(
                    sknn_paillier::PackingError::TooManyValues {
                        given: count,
                        slots: slots.len(),
                    },
                ));
            }
            for y in slots.iter().take(count) {
                let bit = if y.is_odd() {
                    BigUint::one()
                } else {
                    BigUint::zero()
                };
                let unit = unit_iter.next().ok_or_else(|| ProtocolError::Invariant {
                    message: "encryption units exhausted before the used slots".to_string(),
                })?;
                out.push(self.encrypt_own(&bit, &unit));
            }
        }
        Ok(out)
    }

    fn top_k_indices_packed(
        &self,
        layout: &SlotLayout,
        packed: &[Ciphertext],
        count: usize,
        k: usize,
    ) -> Result<Vec<usize>, ProtocolError> {
        layout
            .require_fits_pk(&self.pk)
            .map_err(ProtocolError::from)?;
        if count > packed.len() * layout.slots_per_ct {
            return Err(ProtocolError::Packing(
                sknn_paillier::PackingError::TooManyValues {
                    given: count,
                    slots: packed.len() * layout.slots_per_ct,
                },
            ));
        }
        let mut decrypted: Vec<(BigUint, usize)> = Vec::with_capacity(count);
        for (g, ct) in packed.iter().enumerate() {
            let slots = layout.unpack(&self.sk.decrypt(ct), layout.slots_per_ct)?;
            for (s, value) in slots.into_iter().enumerate() {
                let index = g * layout.slots_per_ct + s;
                if index < count {
                    decrypted.push((value, index));
                }
            }
        }
        decrypted.sort();
        Ok(decrypted.into_iter().take(k).map(|(_, i)| i).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sknn_paillier::Keypair;

    fn setup() -> (PublicKey, LocalKeyHolder, StdRng) {
        let mut rng = StdRng::seed_from_u64(61);
        let (pk, sk) = Keypair::generate(128, &mut rng).split();
        (pk, LocalKeyHolder::new(sk, 62), rng)
    }

    #[test]
    fn sm_mask_multiply_multiplies_plaintexts() {
        let (pk, holder, mut rng) = setup();
        let a = pk.encrypt_u64(60, &mut rng); // a + ra from Example 2
        let b = pk.encrypt_u64(61, &mut rng); // b + rb from Example 2
        let h = holder.sm_mask_multiply_batch(&[(a, b)]).unwrap();
        assert_eq!(h.len(), 1);
        assert_eq!(holder.debug_decrypt_u64(&h[0]).unwrap(), 3660);
    }

    #[test]
    fn lsb_oracle() {
        let (pk, holder, mut rng) = setup();
        let evens = pk.encrypt_u64(44, &mut rng);
        let odds = pk.encrypt_u64(45, &mut rng);
        let bits = holder.lsb_of_masked_batch(&[evens, odds]).unwrap();
        assert_eq!(holder.debug_decrypt_u64(&bits[0]).unwrap(), 0);
        assert_eq!(holder.debug_decrypt_u64(&bits[1]).unwrap(), 1);
    }

    #[test]
    fn smin_round_detects_a_one() {
        let (pk, holder, mut rng) = setup();
        let gamma: Vec<_> = (0..4).map(|v| pk.encrypt_u64(v + 10, &mut rng)).collect();
        // L decrypts to random-looking values with a single 1 present.
        let l_with_one = vec![
            pk.encrypt_u64(923, &mut rng),
            pk.encrypt_u64(1, &mut rng),
            pk.encrypt_u64(77, &mut rng),
            pk.encrypt_u64(0, &mut rng),
        ];
        let resp = holder.smin_round(&gamma, &l_with_one).unwrap();
        assert_eq!(holder.debug_decrypt_u64(&resp.alpha).unwrap(), 1);
        // M′ = Γ′^1 keeps the plaintexts.
        assert_eq!(holder.debug_decrypt_u64(&resp.m_prime[2]).unwrap(), 12);

        let l_without_one = vec![
            pk.encrypt_u64(923, &mut rng),
            pk.encrypt_u64(5, &mut rng),
            pk.encrypt_u64(77, &mut rng),
            pk.encrypt_u64(0, &mut rng),
        ];
        let resp = holder.smin_round(&gamma, &l_without_one).unwrap();
        assert_eq!(holder.debug_decrypt_u64(&resp.alpha).unwrap(), 0);
        // M′ = Γ′^0 wipes the plaintexts to zero.
        assert!(resp
            .m_prime
            .iter()
            .all(|c| holder.debug_decrypt(c).is_zero()));
    }

    #[test]
    fn min_selection_marks_exactly_one_zero() {
        let (pk, holder, mut rng) = setup();
        let beta = vec![
            pk.encrypt_u64(17, &mut rng),
            pk.encrypt_u64(0, &mut rng),
            pk.encrypt_u64(23, &mut rng),
            pk.encrypt_u64(0, &mut rng),
        ];
        let u = holder.min_selection(&beta).expect("a zero is present");
        let plain: Vec<u64> = u
            .iter()
            .map(|c| holder.debug_decrypt_u64(c).unwrap())
            .collect();
        assert_eq!(plain.iter().sum::<u64>(), 1);
        let marked = plain.iter().position(|&b| b == 1).unwrap();
        assert!(
            marked == 1 || marked == 3,
            "must mark one of the zero positions"
        );
    }

    #[test]
    fn min_selection_without_a_zero_is_a_typed_error() {
        let (pk, holder, mut rng) = setup();
        let beta: Vec<_> = [17u64, 3, 23]
            .iter()
            .map(|&v| pk.encrypt_u64(v, &mut rng))
            .collect();
        assert_eq!(
            holder.min_selection(&beta),
            Err(ProtocolError::MinSelectionFailed { candidates: 3 })
        );
        // The degenerate empty input is also an error, not an empty vector.
        assert_eq!(
            holder.min_selection(&[]),
            Err(ProtocolError::MinSelectionFailed { candidates: 0 })
        );
    }

    #[test]
    fn top_k_orders_by_distance() {
        let (pk, holder, mut rng) = setup();
        let dists: Vec<_> = [50u64, 10, 40, 10, 30]
            .iter()
            .map(|&d| pk.encrypt_u64(d, &mut rng))
            .collect();
        assert_eq!(holder.top_k_indices(&dists, 3).unwrap(), vec![1, 3, 4]);
        assert_eq!(holder.top_k_indices(&dists, 1).unwrap(), vec![1]);
    }

    #[test]
    fn pooled_key_holder_matches_direct_semantics() {
        use sknn_paillier::{PoolConfig, RandomnessPool};
        let mut rng = StdRng::seed_from_u64(63);
        let (pk, sk) = Keypair::generate(128, &mut rng).split();
        let pool = RandomnessPool::new(
            pk.clone(),
            PoolConfig {
                capacity: 32,
                background_refill: false,
                seed: Some(64),
                ..Default::default()
            },
        );
        pool.prewarm(32);
        let holder = LocalKeyHolder::new(sk, 65)
            .with_pool(Arc::clone(&pool))
            .unwrap();
        assert!(holder.pool().is_some());

        // A pool for the wrong key is a typed error, not a panic.
        let (_other_pk, other_sk) = Keypair::generate(128, &mut rng).split();
        let mut mismatched = LocalKeyHolder::new(other_sk, 67);
        assert!(mismatched.attach_pool(Arc::clone(&pool)).is_err());
        assert!(mismatched.pool().is_none());

        // SM products, LSB replies and min-selection all come back with the
        // same plaintext semantics as the unpooled path.
        let a = pk.encrypt_u64(60, &mut rng);
        let b = pk.encrypt_u64(61, &mut rng);
        let product = holder.sm_mask_multiply_batch(&[(a, b)]).unwrap();
        assert_eq!(holder.debug_decrypt_u64(&product[0]).unwrap(), 3660);
        let odd = pk.encrypt_u64(45, &mut rng);
        let bit = holder.lsb_of_masked_batch(&[odd]).unwrap();
        assert_eq!(holder.debug_decrypt_u64(&bit[0]).unwrap(), 1);
        let beta = vec![pk.encrypt_u64(5, &mut rng), pk.encrypt_u64(0, &mut rng)];
        let u = holder.min_selection(&beta).unwrap();
        assert_eq!(holder.debug_decrypt_u64(&u[0]).unwrap(), 0);
        assert_eq!(holder.debug_decrypt_u64(&u[1]).unwrap(), 1);

        let stats = pool.stats();
        assert!(stats.hits >= 4, "responses must consume pool entries");
        assert_eq!(stats.fallbacks, 0);
    }

    #[test]
    fn decrypt_masked_batch_roundtrip() {
        let (pk, holder, mut rng) = setup();
        let masked: Vec<_> = [5u64, 7, 11]
            .iter()
            .map(|&v| pk.encrypt_u64(v, &mut rng))
            .collect();
        let plain = holder.decrypt_masked_batch(&masked).unwrap();
        assert_eq!(
            plain,
            vec![
                BigUint::from_u64(5),
                BigUint::from_u64(7),
                BigUint::from_u64(11)
            ]
        );
    }
}
