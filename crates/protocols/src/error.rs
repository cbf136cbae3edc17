//! Error type for the protocol layer.

use core::fmt;
use sknn_paillier::PackingError;

/// Errors surfaced by the protocol drivers.
///
/// Most protocol-level misuse (mismatched vector lengths, an `l` that cannot
/// hold the values involved) is a programming error and panics with a clear
/// message instead; this error type covers conditions a caller can reasonably
/// hit at run time and may want to handle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The two encrypted vectors handed to SSED/SMIN have different lengths.
    DimensionMismatch {
        /// Length of the first operand.
        left: usize,
        /// Length of the second operand.
        right: usize,
    },
    /// A bit-length parameter was zero or absurdly large for the key in use.
    InvalidBitLength {
        /// The requested bit length `l`.
        l: usize,
        /// The key size in bits.
        key_bits: usize,
    },
    /// The transport to the key-holding party disconnected.
    TransportClosed,
    /// The transport to the key-holding party failed for a reason other than
    /// a clean disconnect (I/O failure, malformed peer frame, …).
    Transport {
        /// Human-readable description of the underlying transport failure.
        message: String,
    },
    /// C2's min-selection step (SkNN_m, Algorithm 6 step 3(c)) found no zero
    /// among the decrypted `β` values. The protocol guarantees at least one
    /// zero (the global minimum always matches itself), so this indicates a
    /// corrupted input vector or a protocol-logic bug — never a valid state.
    MinSelectionFailed {
        /// Number of candidate values that were inspected.
        candidates: usize,
    },
    /// A slot-packing invariant was violated (layout overflow, a value too
    /// wide for its slot, a packed value with carried slots).
    Packing(PackingError),
    /// An invariant the protocol constructs by design was violated by a
    /// lower layer — e.g. a pooled encryption rejecting a mask the caller
    /// already reduced below `N`, or a reduction tree ending empty. Always
    /// a logic bug, but surfaced as a typed error rather than a panic so
    /// the serving loops stay panic-free on protocol paths.
    Invariant {
        /// What was violated.
        message: String,
    },
}

impl From<PackingError> for ProtocolError {
    fn from(e: PackingError) -> Self {
        ProtocolError::Packing(e)
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::DimensionMismatch { left, right } => {
                write!(
                    f,
                    "encrypted vectors have mismatched dimensions: {left} vs {right}"
                )
            }
            ProtocolError::InvalidBitLength { l, key_bits } => write!(
                f,
                "bit length l = {l} is invalid for a {key_bits}-bit Paillier key"
            ),
            ProtocolError::TransportClosed => {
                write!(f, "the channel to the key-holding cloud was closed")
            }
            ProtocolError::Transport { message } => {
                write!(f, "transport to the key-holding cloud failed: {message}")
            }
            ProtocolError::MinSelectionFailed { candidates } => write!(
                f,
                "min-selection invariant violated: none of the {candidates} randomized \
                 distance differences decrypted to zero"
            ),
            ProtocolError::Packing(e) => write!(f, "slot packing failed: {e}"),
            ProtocolError::Invariant { message } => {
                write!(f, "protocol invariant violated: {message}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(ProtocolError::DimensionMismatch { left: 3, right: 4 }
            .to_string()
            .contains("3 vs 4"));
        assert!(ProtocolError::InvalidBitLength {
            l: 0,
            key_bits: 512
        }
        .to_string()
        .contains("512"));
        assert!(ProtocolError::TransportClosed
            .to_string()
            .contains("closed"));
        assert!(ProtocolError::Transport {
            message: "oops".into()
        }
        .to_string()
        .contains("oops"));
        assert!(ProtocolError::MinSelectionFailed { candidates: 9 }
            .to_string()
            .contains('9'));
        assert!(ProtocolError::Invariant {
            message: "tree ended empty".into()
        }
        .to_string()
        .contains("tree ended empty"));
    }
}
