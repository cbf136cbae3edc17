//! # sknn-paillier
//!
//! An implementation of the Paillier additively homomorphic public-key
//! cryptosystem (Paillier, EUROCRYPT '99) on top of the
//! [`sknn_bigint`] substrate.
//!
//! This is the encryption scheme assumed by the reproduced paper
//! (*Elmehdwi, Samanthula, Jiang — "Secure k-Nearest Neighbor Query over
//! Encrypted Data in Outsourced Environments"*, ICDE 2014): the data owner
//! Alice encrypts her database attribute-wise under the public key, the cloud
//! `C1` operates on ciphertexts using the homomorphic properties, and the
//! second cloud `C2` holds the secret key.
//!
//! ## Supported operations
//!
//! For plaintexts `a, b ∈ Z_N`:
//!
//! * homomorphic addition: `E(a) ⊕ E(b) = E(a + b mod N)` — [`PublicKey::add`]
//! * plaintext multiplication: `E(a)^k = E(a·k mod N)` — [`PublicKey::mul_plain`]
//! * negation / subtraction via exponent `N − 1` — [`PublicKey::negate`], [`PublicKey::sub`]
//! * re-randomization — [`PublicKey::rerandomize`]
//! * signed-value encoding in `(−N/2, N/2]` — [`encoding`]
//!
//! ## Offline/online precomputation
//!
//! The `r^N mod N²` exponentiation inside every encryption depends only on
//! the randomness, so it can be computed ahead of time: [`RandomnessPool`]
//! maintains a thread-safe queue of precomputed units `r^N mod N²` (with an
//! optional background refill thread) and [`PooledEncryptor`] consumes them,
//! reducing the online cost of `encrypt`/`encrypt_zero`/`rerandomize` to a
//! single modular multiplication with an unchanged ciphertext distribution.
//! The key holder computes its units by CRT from the factorization
//! ([`UnitSampler`], [`RandomnessPool::for_key_holder`]), 2–6× cheaper at
//! 512- and 1024-bit keys.
//!
//! ## Slot packing (SIMD)
//!
//! A plaintext holds a full `Z_N` element while protocol values are a few
//! dozen bits wide, so [`packing::SlotLayout`] packs σ guard-banded values
//! into one plaintext — one ciphertext, one decryption and one fresh
//! encryption then stand in for σ of each. The module documents the
//! overflow-proof composition rules (slot-wise addition, scaling, blinded
//! products, halving) the protocols build on.
//!
//! ## Example
//!
//! ```
//! use rand::SeedableRng;
//! use sknn_paillier::Keypair;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! // 128-bit keys keep the doctest fast; real deployments use 1024+ bits.
//! let keypair = Keypair::generate(128, &mut rng);
//! let (pk, sk) = keypair.split();
//!
//! let c1 = pk.encrypt_u64(20, &mut rng);
//! let c2 = pk.encrypt_u64(22, &mut rng);
//! let sum = pk.add(&c1, &c2);
//! assert_eq!(sk.try_decrypt_u64(&sum).unwrap(), 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ciphertext;
mod decrypt;
pub mod encoding;
mod encrypt;
mod error;
mod homomorphic;
mod keygen;
mod keys;
pub mod packing;
mod pool;
mod units;

pub use ciphertext::Ciphertext;
pub use error::PaillierError;
pub use keygen::Keypair;
pub use keys::{PrivateKey, PublicKey};
pub use packing::{PackingError, SlotLayout};
pub use pool::{PoolConfig, PoolStats, PooledEncryptor, RandomnessPool};
pub use units::UnitSampler;

/// Minimum key size accepted by [`Keypair::generate`]. Anything smaller makes
/// the two prime factors so small that the scheme is trivially breakable and,
/// more importantly for us, plaintext-space assumptions in the protocols
/// (values `< 2^l ≪ N`) stop holding.
pub const MIN_KEY_BITS: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn end_to_end_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let (pk, sk) = Keypair::generate(128, &mut rng).split();
        for v in [0u64, 1, 42, 1 << 40] {
            let c = pk.encrypt_u64(v, &mut rng);
            assert_eq!(sk.try_decrypt_u64(&c).unwrap(), v);
        }
    }
}
