//! Error type for the query-protocol layer.

use core::fmt;
use sknn_paillier::PaillierError;
use sknn_protocols::ProtocolError;
use sknn_store::StoreError;

/// Errors surfaced while outsourcing a database or answering a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SknnError {
    /// The plaintext table is empty or has rows of differing widths.
    MalformedTable {
        /// Human-readable description of the defect.
        reason: &'static str,
    },
    /// The query record's dimensionality differs from the table's.
    QueryDimensionMismatch {
        /// Number of attributes in the outsourced table.
        table: usize,
        /// Number of attributes in the query.
        query: usize,
    },
    /// `k` must satisfy `1 ≤ k ≤ n`.
    InvalidK {
        /// The requested number of neighbors.
        k: usize,
        /// The number of records in the database.
        n: usize,
    },
    /// The configured distance-domain bit length cannot hold the largest
    /// possible squared distance for this table.
    InsufficientDistanceBits {
        /// The configured `l`.
        l: usize,
        /// The minimum `l` that would be safe.
        required: usize,
    },
    /// `FederationConfig.packing` demanded a fixed packing factor the key
    /// size and distance domain cannot hold.
    PackingInfeasible {
        /// The requested slots-per-ciphertext σ.
        requested: usize,
        /// The largest σ the key's plaintext space supports (0 when not
        /// even one slot fits).
        supported: usize,
    },
    /// A query or update named a dataset the engine does not host.
    UnknownDataset {
        /// The dataset name as given.
        name: String,
    },
    /// `SknnEngine::register_dataset` was called with a name that is already
    /// registered. Remove the old dataset first (or pick a new name) — silent
    /// replacement of an encrypted table is exactly the kind of operational
    /// surprise a multi-dataset deployment cannot afford.
    DatasetAlreadyRegistered {
        /// The conflicting dataset name.
        name: String,
    },
    /// A query failed up-front validation against the dataset it targets
    /// (produced by `QueryBuilder::build`, never mid-protocol).
    InvalidQuery {
        /// The dataset the query was aimed at.
        dataset: String,
        /// Why the query was rejected.
        reason: InvalidQueryReason,
    },
    /// A dynamic update (append / tombstone) was rejected.
    InvalidUpdate {
        /// The dataset the update was aimed at.
        dataset: String,
        /// Why the update was rejected.
        rejected: UpdateRejected,
    },
    /// A pooled encryptor built for a different Paillier key was attached to
    /// a cloud: a deployment wiring error.
    ForeignEncryptor,
    /// An error bubbled up from the durable shard store: an I/O failure, a
    /// corrupt log or manifest, or a dataset directory persisted under a
    /// different key pair or sharding configuration.
    Storage(StoreError),
    /// An error bubbled up from the underlying two-party protocols.
    Protocol(ProtocolError),
    /// An error bubbled up from the Paillier layer — typically a plaintext
    /// outside `[0, N)`, reachable when a table or query value is too large
    /// for the configured key size.
    Paillier(PaillierError),
}

/// Why `QueryBuilder::build` rejected a query before any protocol message
/// was sent. Every variant corresponds to a condition that previously
/// surfaced mid-protocol (or not at all); the builder turns them into
/// up-front, typed rejections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvalidQueryReason {
    /// No query point was supplied before `build()`.
    MissingPoint,
    /// `k` must satisfy `1 ≤ k ≤ n` over the dataset's *live* records.
    KOutOfRange {
        /// The requested number of neighbors.
        k: usize,
        /// The number of live records in the dataset.
        n: usize,
    },
    /// The query point's dimensionality differs from the dataset's.
    WrongArity {
        /// Attributes per record in the dataset.
        expected: usize,
        /// Attributes in the query point.
        got: usize,
    },
    /// A query attribute exceeds the value bound the dataset's
    /// distance-bit sizing was derived from; running it could overflow the
    /// `l`-bit distance domain and silently corrupt the ranking.
    ValueOutOfRange {
        /// Index of the offending attribute.
        attribute: usize,
        /// The offending value.
        value: u64,
        /// The dataset's registered per-attribute bound.
        bound: u64,
    },
    /// `distance_bits` was set on a basic-protocol query. SkNN_b never
    /// bit-decomposes distances, so the knob would be silently ignored —
    /// rejected instead, per the builder's validate-up-front contract.
    DistanceBitsWithBasicProtocol {
        /// The requested distance-bit length.
        l: usize,
    },
}

impl fmt::Display for InvalidQueryReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidQueryReason::MissingPoint => write!(f, "no query point was provided"),
            InvalidQueryReason::KOutOfRange { k, n } => {
                write!(f, "k = {k} is outside the valid range 1..={n}")
            }
            InvalidQueryReason::WrongArity { expected, got } => {
                write!(
                    f,
                    "query has {got} attributes but the dataset has {expected}"
                )
            }
            InvalidQueryReason::ValueOutOfRange {
                attribute,
                value,
                bound,
            } => write!(
                f,
                "attribute {attribute} is {value}, above the dataset's value bound {bound}"
            ),
            InvalidQueryReason::DistanceBitsWithBasicProtocol { l } => write!(
                f,
                "distance_bits({l}) only applies to the secure protocol; SkNN_b never \
                 bit-decomposes distances"
            ),
        }
    }
}

/// Why a dynamic update (append / tombstone) was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateRejected {
    /// An appended record's width differs from the dataset's.
    WrongArity {
        /// Attributes per record in the dataset.
        expected: usize,
        /// Attributes in the appended record.
        got: usize,
    },
    /// The record index does not exist in the dataset.
    IndexOutOfRange {
        /// The requested index.
        index: usize,
        /// The number of records (live or tombstoned) in the dataset.
        records: usize,
    },
    /// The record at this index is already tombstoned.
    AlreadyTombstoned {
        /// The requested index.
        index: usize,
    },
}

/// Why a durable (write-ahead) update on an
/// [`crate::EncryptedDatabase`] failed: either up-front validation, or the
/// backing store refusing to make the update durable. In the latter case
/// nothing became visible — "durable before visible" means a storage
/// failure leaves the queryable state exactly as it was.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurableUpdateError {
    /// The update failed validation (wrong arity, bad index).
    Rejected(UpdateRejected),
    /// The backing store could not make the update durable.
    Storage(StoreError),
}

impl fmt::Display for DurableUpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableUpdateError::Rejected(r) => write!(f, "{r}"),
            DurableUpdateError::Storage(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DurableUpdateError {}

impl fmt::Display for UpdateRejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateRejected::WrongArity { expected, got } => {
                write!(
                    f,
                    "record has {got} attributes but the dataset has {expected}"
                )
            }
            UpdateRejected::IndexOutOfRange { index, records } => {
                write!(
                    f,
                    "record index {index} is out of range for {records} records"
                )
            }
            UpdateRejected::AlreadyTombstoned { index } => {
                write!(f, "record {index} is already tombstoned")
            }
        }
    }
}

impl fmt::Display for SknnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SknnError::MalformedTable { reason } => write!(f, "malformed table: {reason}"),
            SknnError::QueryDimensionMismatch { table, query } => write!(
                f,
                "query has {query} attributes but the outsourced table has {table}"
            ),
            SknnError::InvalidK { k, n } => {
                write!(f, "k = {k} is outside the valid range 1..={n}")
            }
            SknnError::InsufficientDistanceBits { l, required } => write!(
                f,
                "distance domain of {l} bits cannot hold the worst-case squared distance ({required} bits required)"
            ),
            SknnError::PackingInfeasible {
                requested,
                supported,
            } => write!(
                f,
                "fixed packing factor {requested} is infeasible for this key and distance \
                 domain (at most {supported} slots fit)"
            ),
            SknnError::UnknownDataset { name } => {
                write!(f, "no dataset named {name:?} is registered")
            }
            SknnError::DatasetAlreadyRegistered { name } => {
                write!(f, "a dataset named {name:?} is already registered")
            }
            SknnError::InvalidQuery { dataset, reason } => {
                write!(f, "invalid query against dataset {dataset:?}: {reason}")
            }
            SknnError::InvalidUpdate { dataset, rejected } => {
                write!(f, "invalid update to dataset {dataset:?}: {rejected}")
            }
            SknnError::ForeignEncryptor => {
                write!(f, "pooled encryptor belongs to a different Paillier key")
            }
            SknnError::Storage(e) => write!(f, "storage error: {e}"),
            SknnError::Protocol(e) => write!(f, "protocol error: {e}"),
            SknnError::Paillier(e) => write!(f, "encryption error: {e}"),
        }
    }
}

impl std::error::Error for SknnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SknnError::Protocol(e) => Some(e),
            SknnError::Paillier(e) => Some(e),
            SknnError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ProtocolError> for SknnError {
    fn from(e: ProtocolError) -> Self {
        SknnError::Protocol(e)
    }
}

impl From<PaillierError> for SknnError {
    fn from(e: PaillierError) -> Self {
        SknnError::Paillier(e)
    }
}

impl From<StoreError> for SknnError {
    fn from(e: StoreError) -> Self {
        SknnError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversion() {
        let e = SknnError::InvalidK { k: 10, n: 5 };
        assert!(e.to_string().contains("k = 10"));
        let p: SknnError = ProtocolError::TransportClosed.into();
        assert!(matches!(p, SknnError::Protocol(_)));
        assert!(p.to_string().contains("protocol error"));
        assert!(SknnError::MalformedTable { reason: "empty" }
            .to_string()
            .contains("empty"));
        assert!(SknnError::QueryDimensionMismatch { table: 3, query: 2 }
            .to_string()
            .contains("2 attributes"));
        assert!(SknnError::InsufficientDistanceBits { l: 6, required: 9 }
            .to_string()
            .contains("9 bits"));
    }

    #[test]
    fn protocol_source_is_preserved() {
        use std::error::Error;
        let e = SknnError::Protocol(ProtocolError::TransportClosed);
        assert!(e.source().is_some());
        assert!(SknnError::InvalidK { k: 1, n: 1 }.source().is_none());
    }

    #[test]
    fn engine_error_variants_display() {
        let e = SknnError::UnknownDataset {
            name: "heart".into(),
        };
        assert!(e.to_string().contains("heart"));
        let e = SknnError::DatasetAlreadyRegistered {
            name: "heart".into(),
        };
        assert!(e.to_string().contains("already registered"));
        let e = SknnError::InvalidQuery {
            dataset: "heart".into(),
            reason: InvalidQueryReason::KOutOfRange { k: 9, n: 4 },
        };
        assert!(e.to_string().contains("k = 9"));
        assert!(InvalidQueryReason::MissingPoint
            .to_string()
            .contains("no query point"));
        assert!(InvalidQueryReason::WrongArity {
            expected: 3,
            got: 2
        }
        .to_string()
        .contains("2 attributes"));
        assert!(InvalidQueryReason::ValueOutOfRange {
            attribute: 1,
            value: 900,
            bound: 564
        }
        .to_string()
        .contains("900"));
        let e = SknnError::InvalidUpdate {
            dataset: "heart".into(),
            rejected: UpdateRejected::AlreadyTombstoned { index: 2 },
        };
        assert!(e.to_string().contains("already tombstoned"));
        assert!(UpdateRejected::WrongArity {
            expected: 3,
            got: 1
        }
        .to_string()
        .contains("1 attributes"));
        assert!(UpdateRejected::IndexOutOfRange {
            index: 7,
            records: 4
        }
        .to_string()
        .contains("index 7"));
    }

    #[test]
    fn storage_errors_convert_and_display() {
        use std::error::Error;
        let e: SknnError = StoreError::KeyMismatch {
            expected: 1,
            found: 2,
        }
        .into();
        assert!(matches!(e, SknnError::Storage(_)));
        assert!(e.to_string().contains("storage error"));
        assert!(e.source().is_some());
    }

    #[test]
    fn paillier_errors_convert_and_display() {
        use std::error::Error;
        let e: SknnError = PaillierError::PlaintextOutOfRange.into();
        assert!(matches!(e, SknnError::Paillier(_)));
        assert!(e.to_string().contains("encryption error"));
        assert!(e.source().is_some());
    }
}
