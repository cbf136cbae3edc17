//! Error type for the Paillier layer.

use core::fmt;

/// Errors produced by key generation, encryption or decryption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PaillierError {
    /// The requested key size is below [`crate::MIN_KEY_BITS`].
    KeyTooSmall {
        /// Requested modulus size in bits.
        requested: usize,
        /// Minimum accepted modulus size in bits.
        minimum: usize,
    },
    /// A plaintext was not in the message space `[0, N)`.
    PlaintextOutOfRange,
    /// A ciphertext was not in the ciphertext space `[0, N²)` or shared a
    /// factor with `N` (which never happens for honestly generated values).
    MalformedCiphertext,
    /// A signed value was outside the encodable range `(−N/2, N/2]`.
    SignedOutOfRange,
    /// `gcd(N, φ(N)) ≠ 1`: the key's CRT randomness units
    /// ([`crate::UnitSampler`]) would not have the distribution of
    /// `r^N mod N²`. No generated key fails this.
    TotientNotCoprime,
    /// A decrypted plaintext did not fit the requested narrow integer type.
    PlaintextTooLarge {
        /// Bit length of the decrypted plaintext.
        bits: usize,
        /// Bit width of the requested integer type.
        target_bits: usize,
    },
}

impl fmt::Display for PaillierError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PaillierError::KeyTooSmall { requested, minimum } => write!(
                f,
                "requested Paillier modulus of {requested} bits is below the minimum of {minimum} bits"
            ),
            PaillierError::PlaintextOutOfRange => {
                write!(f, "plaintext is outside the message space [0, N)")
            }
            PaillierError::MalformedCiphertext => {
                write!(f, "ciphertext is outside the ciphertext space [0, N²)")
            }
            PaillierError::SignedOutOfRange => {
                write!(f, "signed value cannot be encoded in (−N/2, N/2]")
            }
            PaillierError::TotientNotCoprime => write!(
                f,
                "gcd(N, φ(N)) ≠ 1: CRT randomness units would not match r^N mod N²"
            ),
            PaillierError::PlaintextTooLarge { bits, target_bits } => write!(
                f,
                "decrypted plaintext is {bits} bits wide and does not fit a u{target_bits}"
            ),
        }
    }
}

impl std::error::Error for PaillierError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = PaillierError::KeyTooSmall {
            requested: 32,
            minimum: 64,
        };
        assert!(e.to_string().contains("32"));
        assert!(PaillierError::PlaintextOutOfRange
            .to_string()
            .contains("message space"));
        assert!(PaillierError::MalformedCiphertext
            .to_string()
            .contains("ciphertext"));
        assert!(PaillierError::SignedOutOfRange
            .to_string()
            .contains("signed"));
        assert!(PaillierError::TotientNotCoprime
            .to_string()
            .contains("gcd(N, φ(N))"));
        assert!(PaillierError::PlaintextTooLarge {
            bits: 100,
            target_bits: 64
        }
        .to_string()
        .contains("u64"));
    }
}
