//! SBOR — Secure Bit-OR (and Bit-AND) of two encrypted bits (Section 3).
//!
//! Given `E(o₁)` and `E(o₂)` with `o₁, o₂ ∈ {0, 1}`, P1 obtains
//! `E(o₁ ∨ o₂)` using the identity `o₁ ∨ o₂ = o₁ + o₂ − o₁·o₂`, where the
//! product comes from one SM invocation. The AND (`o₁ ∧ o₂ = o₁·o₂`) is the
//! SM output itself and is exposed for completeness.

use crate::{secure_multiply, KeyHolder, ProtocolError};
use rand::RngCore;
use sknn_paillier::{Ciphertext, PublicKey};

/// Computes `E(o₁ ∨ o₂)` for two encrypted bits.
///
/// # Errors
/// Propagates the SM invocation's error (see [`secure_multiply`]).
pub fn secure_bit_or<K: KeyHolder + ?Sized, R: RngCore + ?Sized>(
    pk: &PublicKey,
    key_holder: &K,
    e_o1: &Ciphertext,
    e_o2: &Ciphertext,
    rng: &mut R,
) -> Result<Ciphertext, ProtocolError> {
    let e_and = secure_multiply(pk, key_holder, e_o1, e_o2, rng)?;
    // E(o₁ + o₂) · E(o₁∧o₂)^{N−1}
    Ok(pk.sub(&pk.add(e_o1, e_o2), &e_and))
}

/// Computes `E(o₁ ∧ o₂)` for two encrypted bits (a single SM invocation).
///
/// # Errors
/// Propagates the SM invocation's error (see [`secure_multiply`]).
pub fn secure_bit_and<K: KeyHolder + ?Sized, R: RngCore + ?Sized>(
    pk: &PublicKey,
    key_holder: &K,
    e_o1: &Ciphertext,
    e_o2: &Ciphertext,
    rng: &mut R,
) -> Result<Ciphertext, ProtocolError> {
    secure_multiply(pk, key_holder, e_o1, e_o2, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LocalKeyHolder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sknn_paillier::Keypair;

    fn setup() -> (PublicKey, LocalKeyHolder, StdRng) {
        let mut rng = StdRng::seed_from_u64(121);
        let (pk, sk) = Keypair::generate(128, &mut rng).split();
        (pk, LocalKeyHolder::new(sk, 122), rng)
    }

    #[test]
    fn or_truth_table() {
        let (pk, holder, mut rng) = setup();
        for o1 in [0u64, 1] {
            for o2 in [0u64, 1] {
                let e1 = pk.encrypt_u64(o1, &mut rng);
                let e2 = pk.encrypt_u64(o2, &mut rng);
                let or = secure_bit_or(&pk, &holder, &e1, &e2, &mut rng).unwrap();
                assert_eq!(
                    holder.debug_decrypt_u64(&or).unwrap(),
                    o1 | o2,
                    "{o1} ∨ {o2}"
                );
            }
        }
    }

    #[test]
    fn and_truth_table() {
        let (pk, holder, mut rng) = setup();
        for o1 in [0u64, 1] {
            for o2 in [0u64, 1] {
                let e1 = pk.encrypt_u64(o1, &mut rng);
                let e2 = pk.encrypt_u64(o2, &mut rng);
                let and = secure_bit_and(&pk, &holder, &e1, &e2, &mut rng).unwrap();
                assert_eq!(
                    holder.debug_decrypt_u64(&and).unwrap(),
                    o1 & o2,
                    "{o1} ∧ {o2}"
                );
            }
        }
    }

    #[test]
    fn or_is_idempotent_on_reencrypted_output() {
        // OR-ing a bit with itself must not change it — this is exactly how
        // SkNN_m "freezes" the already-selected record's distance at all ones.
        let (pk, holder, mut rng) = setup();
        let e1 = pk.encrypt_u64(1, &mut rng);
        let or = secure_bit_or(&pk, &holder, &e1, &e1, &mut rng).unwrap();
        assert_eq!(holder.debug_decrypt_u64(&or).unwrap(), 1);
        let e0 = pk.encrypt_u64(0, &mut rng);
        let or = secure_bit_or(&pk, &holder, &e0, &e0, &mut rng).unwrap();
        assert_eq!(holder.debug_decrypt_u64(&or).unwrap(), 0);
    }
}
