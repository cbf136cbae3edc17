//! The key-holding party (P2 / cloud C2).
//!
//! [`Request`] is the complete set of messages P1 (cloud C1) may send the
//! party holding the Paillier secret key, and [`KeyHolder::call`] — one
//! request in, one [`Response`] out — is the only thing a key holder
//! implements. Nothing beyond those messages is observable by C2, which is
//! what the semi-honest security argument of Section 4.3 relies on.
//!
//! The protocols never build requests themselves: they call the typed
//! helpers [`KeyHolder`] provides on top of `call` (one per request), which
//! narrow each reply and check its shape once, for every implementation.
//! [`LocalKeyHolder::call`] is the one dispatch onto C2's logic, in process
//! or behind [`crate::transport::serve`].

use crate::error::ProtocolError;
use crate::transport::wire::{Request, Response, TransportError};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sknn_bigint::BigUint;
use sknn_paillier::{Ciphertext, PoolConfig, PrivateKey, PublicKey, RandomnessPool, SlotLayout};
use std::sync::Arc;

/// Derives the seed of a seeded key holder's unpooled unit stream from its
/// own seed.
const UNIT_SEED_SALT: u64 = 0xC2C2_0000_5EED_0001;

/// The response to one SMIN evaluation round (Algorithm 3, step 2).
#[derive(Clone, Debug)]
pub struct SminRoundResponse {
    /// `M′_i = Γ′_i^α`, rerandomized with a fresh unit — the (still
    /// permuted) randomized bit differences, exponentiated by the
    /// comparison outcome.
    pub m_prime: Vec<Ciphertext>,
    /// `E(α)` — the encrypted, functionality-oblivious comparison outcome.
    pub alpha: Ciphertext,
}

/// Cloud C2 (holder of the Paillier secret key), as cloud C1 sees it.
///
/// An implementation defines [`KeyHolder::public_key`] and
/// [`KeyHolder::call`]; the typed methods are provided. Each builds one
/// [`Request`] (documented per variant), makes one `call` and refuses a
/// reply of the wrong shape — the wrong variant
/// ([`TransportError::ResponseMismatch`]), a batch with more or fewer
/// results than the request had items ([`TransportError::BatchMismatch`]),
/// or a top-k index list naming an index twice or out of range
/// ([`ProtocolError::Invariant`]) — before any caller can index into it.
/// So each typed method fails with its `call`'s error (C2's refusals are
/// documented per [`Request`] variant) or with one of those shape errors.
///
/// All methods take `&self` so a single key holder can serve concurrent
/// protocol executions (the parallel SkNN variants of Figure 3 rely on this);
/// implementations use interior mutability for their randomness.
pub trait KeyHolder: Send + Sync {
    /// The public key both clouds operate under.
    fn public_key(&self) -> &PublicKey;

    /// Answers one request. This is C2's whole interface.
    ///
    /// # Errors
    /// A remote key holder returns its transport failure as a typed error;
    /// C2's own refusals (see the [`Request`] variants) are typed errors on
    /// every implementation.
    fn call(&self, request: Request) -> Result<Response, ProtocolError>;

    /// [`Request::SmBatch`].
    fn sm_mask_multiply_batch(
        &self,
        pairs: &[(Ciphertext, Ciphertext)],
    ) -> Result<Vec<Ciphertext>, ProtocolError> {
        ciphertexts(pairs.len(), self.call(Request::SmBatch(pairs.to_vec())))
    }

    /// [`Request::LsbBatch`]: bit `bit` of each masked plaintext.
    fn bit_of_masked_batch(
        &self,
        bit: u32,
        masked: &[Ciphertext],
    ) -> Result<Vec<Ciphertext>, ProtocolError> {
        let request = Request::LsbBatch {
            bit,
            masked: masked.to_vec(),
        };
        ciphertexts(masked.len(), self.call(request))
    }

    /// [`Request::SminRound`].
    fn smin_round(
        &self,
        gamma_permuted: &[Ciphertext],
        l_permuted: &[Ciphertext],
    ) -> Result<SminRoundResponse, ProtocolError> {
        let reply = self.call(Request::SminRound {
            gamma: gamma_permuted.to_vec(),
            l_vec: l_permuted.to_vec(),
        });
        let (m_prime, alpha) = expect("SminRound", reply, |r| match r {
            Response::SminRound { m_prime, alpha } => Some((m_prime, alpha)),
            _ => None,
        })?;
        Ok(SminRoundResponse {
            m_prime: check_batch(gamma_permuted.len(), m_prime)?,
            alpha,
        })
    }

    /// [`Request::MinSelection`].
    fn min_selection(&self, beta: &[Ciphertext]) -> Result<Vec<Ciphertext>, ProtocolError> {
        ciphertexts(beta.len(), self.call(Request::MinSelection(beta.to_vec())))
    }

    /// [`Request::TopK`].
    fn top_k_indices(
        &self,
        distances: &[Ciphertext],
        k: usize,
    ) -> Result<Vec<usize>, ProtocolError> {
        let reply = self.call(Request::TopK {
            distances: distances.to_vec(),
            k: k as u32,
        });
        check_indices(reply, distances.len(), k)
    }

    /// [`Request::DecryptBatch`].
    fn decrypt_masked_batch(&self, masked: &[Ciphertext]) -> Result<Vec<BigUint>, ProtocolError> {
        let reply = self.call(Request::DecryptBatch(masked.to_vec()));
        let values = expect("Plaintexts", reply, |r| match r {
            Response::Plaintexts(values) => Some(values),
            _ => None,
        })?;
        Ok(check_batch(masked.len(), values)?)
    }

    /// [`Request::SmPackedSquares`].
    fn sm_packed_square_batch(
        &self,
        layout: &SlotLayout,
        packed: &[Ciphertext],
    ) -> Result<Vec<Ciphertext>, ProtocolError> {
        let reply = self.call(Request::SmPackedSquares {
            layout: *layout,
            packed: packed.to_vec(),
        });
        ciphertexts(packed.len(), reply)
    }

    /// [`Request::SmPackedPairs`].
    fn sm_packed_multiply_batch(
        &self,
        layout: &SlotLayout,
        pairs: &[(Ciphertext, Ciphertext)],
    ) -> Result<Vec<Ciphertext>, ProtocolError> {
        let reply = self.call(Request::SmPackedPairs {
            layout: *layout,
            pairs: pairs.to_vec(),
        });
        ciphertexts(pairs.len(), reply)
    }

    /// [`Request::LsbPacked`]: `slot_counts[g]` says how many slots of
    /// `masked[g]` are in use.
    fn lsb_packed_batch(
        &self,
        layout: &SlotLayout,
        masked: &[Ciphertext],
        slot_counts: &[usize],
    ) -> Result<Vec<Ciphertext>, ProtocolError> {
        let reply = self.call(Request::LsbPacked {
            layout: *layout,
            masked: masked.to_vec(),
            slot_counts: slot_counts.iter().map(|&c| c as u32).collect(),
        });
        ciphertexts(slot_counts.iter().sum(), reply)
    }

    /// [`Request::TopKPacked`] over `count` distances.
    fn top_k_indices_packed(
        &self,
        layout: &SlotLayout,
        packed: &[Ciphertext],
        count: usize,
        k: usize,
    ) -> Result<Vec<usize>, ProtocolError> {
        let reply = self.call(Request::TopKPacked {
            layout: *layout,
            packed: packed.to_vec(),
            count: count as u32,
            k: k as u32,
        });
        check_indices(reply, count, k)
    }
}

/// Narrows a reply to the expected response variant; `extract` returns
/// `None` for any other variant.
pub(crate) fn expect<T, E: From<TransportError>>(
    expected: &'static str,
    reply: Result<Response, E>,
    extract: impl FnOnce(Response) -> Option<T>,
) -> Result<T, E> {
    let response = reply?;
    let got = response.name();
    extract(response).ok_or_else(|| TransportError::ResponseMismatch { expected, got }.into())
}

/// Verifies a batched reply has one result per request item.
fn check_batch<T>(sent: usize, values: Vec<T>) -> Result<Vec<T>, TransportError> {
    if values.len() == sent {
        Ok(values)
    } else {
        Err(TransportError::BatchMismatch {
            sent,
            received: values.len(),
        })
    }
}

/// Narrows a reply to `sent` ciphertexts.
fn ciphertexts(
    sent: usize,
    reply: Result<Response, ProtocolError>,
) -> Result<Vec<Ciphertext>, ProtocolError> {
    let values = expect("Ciphertexts", reply, |r| match r {
        Response::Ciphertexts(values) => Some(values),
        _ => None,
    })?;
    Ok(check_batch(sent, values)?)
}

/// Narrows a top-k reply over `count` distances to its index list and
/// verifies its shape: `min(k, count)` distinct indices, each `< count`.
/// C1 indexes its records with these, so a bad one must stop here.
fn check_indices(
    reply: Result<Response, ProtocolError>,
    count: usize,
    k: usize,
) -> Result<Vec<usize>, ProtocolError> {
    let indices = expect("Indices", reply, |r| match r {
        Response::Indices(indices) => Some(indices),
        _ => None,
    })?;
    let indices = check_batch(k.min(count), indices)?;
    let mut seen = vec![false; count];
    for &i in &indices {
        match seen.get_mut(i as usize) {
            Some(slot) if !*slot => *slot = true,
            _ => {
                return Err(ProtocolError::Invariant {
                    message: format!("top-k reply names index {i} twice or outside 0..{count}"),
                })
            }
        }
    }
    Ok(indices.into_iter().map(|i| i as usize).collect())
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
    /// Precomputed `r^N mod N²` units for the fresh encryptions in every
    /// response; `None` computes each unit on demand from `unpooled`.
    pool: Option<Arc<RandomnessPool>>,
    /// An empty, never-refilled pool of CRT units
    /// ([`RandomnessPool::for_key_holder`]): every draw is computed
    /// synchronously, from the factorization.
    unpooled: Arc<RandomnessPool>,
}

impl LocalKeyHolder {
    /// Creates a key holder from the secret key, seeding its internal
    /// randomness from `seed` (deterministic for reproducible experiments).
    pub fn new(sk: PrivateKey, seed: u64) -> Self {
        // The unit stream gets its own derived seed, so it does not replay
        // the holder's other randomness.
        Self::build(sk, StdRng::seed_from_u64(seed), Some(seed ^ UNIT_SEED_SALT))
    }

    /// Creates a key holder seeded from the operating-system entropy source.
    pub fn from_entropy(sk: PrivateKey) -> Self {
        Self::build(sk, StdRng::from_entropy(), None)
    }

    fn build(sk: PrivateKey, rng: StdRng, unit_seed: Option<u64>) -> Self {
        let pk = sk.public_key().clone();
        let config = PoolConfig {
            capacity: 0,
            refill_batch: 1,
            background_refill: false,
            seed: unit_seed,
        };
        // A key failing the CRT condition (no generated key does) still
        // gets correct units, from the public-key exponentiation.
        let unpooled = RandomnessPool::for_key_holder(&sk, config)
            .unwrap_or_else(|_| RandomnessPool::new(pk.clone(), config));
        LocalKeyHolder {
            sk,
            pk,
            rng: Mutex::new(rng),
            pool: None,
            unpooled,
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
    /// fallback only when drained); without one, every unit is computed by
    /// CRT on the spot. Either way randomness is drawn under a short lock
    /// and the exponentiations run outside it, so concurrent protocol
    /// executions are never serialized behind the expensive work.
    fn fresh_units(&self, count: usize) -> Vec<BigUint> {
        self.pool
            .as_ref()
            .unwrap_or(&self.unpooled)
            .draw_batch(count)
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

    fn call(&self, request: Request) -> Result<Response, ProtocolError> {
        Ok(match request {
            Request::SmBatch(pairs) => Response::Ciphertexts(self.sm_batch(&pairs)),
            Request::LsbBatch { bit, masked } => {
                Response::Ciphertexts(self.bit_batch(bit, &masked)?)
            }
            Request::SminRound { gamma, l_vec } => self.smin(&gamma, &l_vec)?,
            Request::MinSelection(beta) => Response::Ciphertexts(self.select_min(&beta)?),
            Request::TopK { distances, k } => Response::Indices(self.top_k(&distances, k)),
            Request::DecryptBatch(masked) => {
                Response::Plaintexts(masked.iter().map(|c| self.sk.decrypt(c)).collect())
            }
            Request::PublicKey => Response::PublicKey(self.pk.n().clone()),
            Request::SmPackedSquares { layout, packed } => {
                Response::Ciphertexts(self.packed_squares(&layout, &packed)?)
            }
            Request::SmPackedPairs { layout, pairs } => {
                Response::Ciphertexts(self.packed_products(&layout, &pairs)?)
            }
            Request::LsbPacked {
                layout,
                masked,
                slot_counts,
            } => Response::Ciphertexts(self.packed_lsbs(&layout, &masked, &slot_counts)?),
            Request::TopKPacked {
                layout,
                packed,
                count,
                k,
            } => Response::Indices(self.packed_top_k(&layout, &packed, count as usize, k)?),
        })
    }
}

/// C2's answer to each request ([`Request`] documents what each computes).
impl LocalKeyHolder {
    fn sm_batch(&self, pairs: &[(Ciphertext, Ciphertext)]) -> Vec<Ciphertext> {
        // Draw all encryption units up front (one queue lock with a pool, a
        // short rng lock without) so concurrent protocol executions (the
        // record-parallel stages of Figure 3) are not serialized behind the
        // expensive decrypt/encrypt work.
        let units = self.fresh_units(pairs.len());
        pairs
            .iter()
            .zip(units)
            .map(|((a, b), unit)| {
                let ha = self.sk.decrypt(a);
                let hb = self.sk.decrypt(b);
                let h = ha.mod_mul(&hb, self.pk.n());
                self.encrypt_own(&h, &unit)
            })
            .collect()
    }

    fn bit_batch(&self, bit: u32, masked: &[Ciphertext]) -> Result<Vec<Ciphertext>, ProtocolError> {
        // Every plaintext is below N, so a bit at or past the key size is a
        // constant 0: no honest SBD round asks for one.
        let bit = bit as usize;
        if bit >= self.pk.bits() {
            return Err(ProtocolError::InvalidBitLength {
                l: bit,
                key_bits: self.pk.bits(),
            });
        }
        let units = self.fresh_units(masked.len());
        Ok(masked
            .iter()
            .zip(units)
            .map(|(y, unit)| {
                let value = BigUint::from_u64(u64::from(self.sk.decrypt(y).bit(bit)));
                self.encrypt_own(&value, &unit)
            })
            .collect())
    }

    fn smin(
        &self,
        gamma_permuted: &[Ciphertext],
        l_permuted: &[Ciphertext],
    ) -> Result<Response, ProtocolError> {
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

        // Every reply carries a fresh unit: `M′ᵢ = Γ′ᵢ^α · uᵢ`. Without it
        // C1 would read α off the reply (its own `Γ′ᵢ` back, or the
        // trivial `1`) without decrypting.
        let mut units = self.fresh_units(gamma_permuted.len() + 1);
        let unit = units.pop().ok_or_else(|| ProtocolError::Invariant {
            message: "encryption units requested, none produced".to_string(),
        })?;
        let m_prime = gamma_permuted
            .iter()
            .zip(units)
            .map(|(g, u)| {
                if alpha_is_one {
                    self.pk.rerandomize_with_unit(g, &u)
                } else {
                    // Γ′^0 = E(0), a fresh one.
                    Ciphertext::from_raw(u)
                }
            })
            .collect();
        Ok(Response::SminRound {
            m_prime,
            alpha: self.encrypt_own(&alpha_plain, &unit),
        })
    }

    fn select_min(&self, beta: &[Ciphertext]) -> Result<Vec<Ciphertext>, ProtocolError> {
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

    fn top_k(&self, distances: &[Ciphertext], k: u32) -> Vec<u32> {
        let mut decrypted: Vec<(BigUint, u32)> = distances
            .iter()
            .zip(0..)
            .map(|(c, i)| (self.sk.decrypt(c), i))
            .collect();
        decrypted.sort();
        decrypted
            .into_iter()
            .take(k as usize)
            .map(|(_, i)| i)
            .collect()
    }

    fn packed_squares(
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

    fn packed_products(
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

    fn packed_lsbs(
        &self,
        layout: &SlotLayout,
        masked: &[Ciphertext],
        slot_counts: &[u32],
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
        let total: usize = slot_counts.iter().map(|&c| c as usize).sum();
        let units = self.fresh_units(total);
        let mut out = Vec::with_capacity(total);
        let mut unit_iter = units.into_iter();
        for (ct, &count) in masked.iter().zip(slot_counts) {
            let count = count as usize;
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

    fn packed_top_k(
        &self,
        layout: &SlotLayout,
        packed: &[Ciphertext],
        count: usize,
        k: u32,
    ) -> Result<Vec<u32>, ProtocolError> {
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
        let mut decrypted: Vec<(BigUint, u32)> = Vec::with_capacity(count);
        for (g, ct) in packed.iter().enumerate() {
            let slots = layout.unpack(&self.sk.decrypt(ct), layout.slots_per_ct)?;
            for (s, value) in slots.into_iter().enumerate() {
                let index = g * layout.slots_per_ct + s;
                if index < count {
                    decrypted.push((value, index as u32));
                }
            }
        }
        decrypted.sort();
        Ok(decrypted
            .into_iter()
            .take(k as usize)
            .map(|(_, i)| i)
            .collect())
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
    fn bit_oracle() {
        let (pk, holder, mut rng) = setup();
        // 44 = 0b101100, 45 = 0b101101
        let masked = [pk.encrypt_u64(44, &mut rng), pk.encrypt_u64(45, &mut rng)];
        for (bit, expected) in [(0, [0, 1]), (2, [1, 1]), (4, [0, 0]), (127, [0, 0])] {
            let bits = holder.bit_of_masked_batch(bit, &masked).unwrap();
            for (b, e) in bits.iter().zip(expected) {
                assert_eq!(holder.debug_decrypt_u64(b).unwrap(), e, "bit {bit}");
            }
        }
        assert_eq!(
            holder.bit_of_masked_batch(128, &masked),
            Err(ProtocolError::InvalidBitLength {
                l: 128,
                key_bits: 128
            })
        );
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
    fn smin_round_replies_carry_a_fresh_unit() {
        // C1 must not read α off `M′`: neither its own `Γ′ᵢ` nor the raw
        // trivial `1` may come back, yet every `M′ᵢ` decrypts to `Γ′ᵢ^α`.
        let (pk, holder, mut rng) = setup();
        let gamma: Vec<_> = (0..4).map(|v| pk.encrypt_u64(v + 10, &mut rng)).collect();
        for (l, alpha) in [(1u64, 1u64), (5, 0)] {
            let l_vec = vec![pk.encrypt_u64(923, &mut rng), pk.encrypt_u64(l, &mut rng)];
            let l_vec = [l_vec.clone(), l_vec].concat();
            let resp = holder.smin_round(&gamma, &l_vec).unwrap();
            assert_eq!(holder.debug_decrypt_u64(&resp.alpha).unwrap(), alpha);
            for (g, m) in gamma.iter().zip(&resp.m_prime) {
                assert_ne!(m, g, "α = {alpha}: M′ is C1's own Γ′");
                assert_ne!(m.as_raw(), &BigUint::one(), "α = {alpha}: M′ is the raw 1");
                let expect = if alpha == 1 {
                    holder.debug_decrypt_u64(g).unwrap()
                } else {
                    0
                };
                assert_eq!(holder.debug_decrypt_u64(m).unwrap(), expect);
            }
        }
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
        let bit = holder.bit_of_masked_batch(0, &[odd]).unwrap();
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
