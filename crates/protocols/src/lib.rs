//! # sknn-protocols
//!
//! The two-party secure-computation building blocks of
//! *"Secure k-Nearest Neighbor Query over Encrypted Data in Outsourced
//! Environments"* (Elmehdwi, Samanthula, Jiang — ICDE 2014), Section 3:
//!
//! | Protocol | Paper reference | Function |
//! |----------|-----------------|----------|
//! | SM — Secure Multiplication | Algorithm 1 | [`secure_multiply`] |
//! | SSED — Secure Squared Euclidean Distance | Algorithm 2 | [`secure_squared_distance`] |
//! | SBD — Secure Bit Decomposition | \[21\] (Samanthula–Jiang) | [`secure_bit_decompose`] |
//! | SMIN — Secure Minimum of two values | Algorithm 3 | [`secure_min`] |
//! | SMIN_n — Secure Minimum of n values | Algorithm 4 | [`secure_min_n`] |
//! | SBOR — Secure Bit-OR | Section 3 | [`secure_bit_or`] |
//!
//! ## The two-party setting
//!
//! Every protocol involves two semi-honest parties:
//!
//! * **P1** (the cloud `C1` in the paper) holds ciphertexts and drives the
//!   protocol. In this crate, P1's logic is the free functions listed above.
//! * **P2** (the cloud `C2`) holds the Paillier secret key and answers a small
//!   set of well-defined requests. That set is [`Request`] (one variant per
//!   message the paper's algorithms send P2), and [`KeyHolder::call`] —
//!   request in, [`Response`] out — is the only thing a P2 implements; the
//!   typed [`KeyHolder`] methods the protocols call are built on it. The
//!   in-process implementation is [`LocalKeyHolder`], and
//!   [`transport::SessionKeyHolder`] makes each call one pipelined round
//!   trip over a stream socket (an in-process socketpair or TCP), with
//!   traffic accounting.
//!
//! Because [`Request`] holds **only** the messages the paper's algorithms
//! send to P2, any implementation sees exactly the view the security
//! analysis of Section 4.3 reasons about.
//!
//! ## Bit-vector convention
//!
//! Encrypted bit decompositions (`[z]` in the paper) are `Vec<Ciphertext>` of
//! length `l`, **most-significant bit first**, matching the paper's notation
//! `⟨z₁ … z_l⟩` where `z₁` is the most significant bit.
//!
//! ## Example
//!
//! ```
//! use rand::SeedableRng;
//! use sknn_paillier::Keypair;
//! use sknn_protocols::{LocalKeyHolder, secure_multiply};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let (pk, sk) = Keypair::generate(128, &mut rng).split();
//! let holder = LocalKeyHolder::new(sk, 1);
//!
//! let ea = pk.encrypt_u64(59, &mut rng);
//! let eb = pk.encrypt_u64(58, &mut rng);
//! let product = secure_multiply(&pk, &holder, &ea, &eb, &mut rng).unwrap();
//! assert_eq!(holder.debug_decrypt_u64(&product).unwrap(), 59 * 58);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod packed;
mod party;
mod permutation;
mod sbd;
mod sbor;
mod sm;
mod smin;
mod smin_n;
mod ssed;
pub mod stats;
pub mod transport;

pub use error::ProtocolError;
pub use packed::{pack_ciphertexts, packed_bit_decompose, packed_squared_distances, PackedParams};
pub use party::{KeyHolder, LocalKeyHolder, SminRoundResponse};
pub use permutation::Permutation;
pub use sbd::{
    recompose_bits, secure_bit_decompose, secure_bit_decompose_batch,
    secure_bit_decompose_batch_with,
};
pub use sbor::{secure_bit_and, secure_bit_or};
pub use sm::{secure_multiply, secure_multiply_batch, secure_weighted_column_sums};
pub use smin::secure_min;
pub use smin_n::secure_min_n;
pub use ssed::{secure_squared_distance, secure_squared_distance_to_negated};
pub use transport::wire::{Request, Response};

/// Encrypted bit vector (`[z]` in the paper): most-significant bit first.
pub type EncryptedBits = Vec<sknn_paillier::Ciphertext>;
