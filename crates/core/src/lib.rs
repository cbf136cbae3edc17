//! # sknn-core
//!
//! The two secure k-nearest-neighbor query protocols of
//! *Elmehdwi, Samanthula, Jiang — "Secure k-Nearest Neighbor Query over
//! Encrypted Data in Outsourced Environments"* (ICDE 2014), together with the
//! roles that run them:
//!
//! * **Alice** — the [`DataOwner`]: encrypts her table attribute-wise and
//!   outsources the ciphertexts to cloud `C1` and the secret key to cloud `C2`.
//! * **Bob** — the [`QueryUser`]: encrypts his query record, sends it to `C1`,
//!   and later combines the masks from `C1` with the masked plaintexts
//!   decrypted by `C2` to learn exactly the k nearest records and nothing else.
//! * **C1** — [`CloudC1`]: stores the encrypted database, interacting with
//!   `C2` only through the [`sknn_protocols::KeyHolder`] interface.
//! * **C2** — any [`sknn_protocols::KeyHolder`] implementation
//!   (in-process or channel-based with traffic accounting).
//!
//! Two protocols are provided, chosen per query with [`Protocol`] and run
//! through [`SknnEngine::query`]:
//!
//! * [`Protocol::Basic`] — **SkNN_b** (Algorithm 5): fast, but reveals
//!   the plaintext distances to `C2` and the data-access pattern to both
//!   clouds.
//! * [`Protocol::Secure`] — **SkNN_m** (Algorithm 6): reveals nothing
//!   beyond ciphertexts and protocol-mandated random values; distances stay
//!   encrypted, the winning records are selected obliviously, and access
//!   patterns are hidden.
//!
//! The [`SknnEngine`] façade ([`engine`]) wires all four roles together for
//! a deployment: it hosts many named encrypted datasets behind one pair of
//! clouds, validates queries up front through a typed [`QueryBuilder`],
//! runs [batches](SknnEngine::run_batch) of them over one shared key-holder
//! session, and accepts dynamic appends and tombstones. The paper's
//! deployment — one table, one query user — is an engine with one
//! registered dataset.
//!
//! ```
//! use rand::SeedableRng;
//! use sknn_core::{SknnEngine, FederationConfig, Table};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let table = Table::new(vec![
//!     vec![63, 1, 145],
//!     vec![56, 1, 130],
//!     vec![57, 0, 140],
//!     vec![55, 0, 128],
//! ]).unwrap();
//!
//! let config = FederationConfig { key_bits: 128, ..Default::default() };
//! let mut engine = SknnEngine::setup(config, &mut rng).unwrap();
//! engine.register_dataset("heart", &table, &mut rng).unwrap();
//! let outcome = engine
//!     .query("heart")
//!     .k(2)
//!     .point(&[58, 1, 133])
//!     .run(&mut rng)
//!     .unwrap();
//! assert_eq!(outcome.result.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
mod config;
mod encdb;
pub mod engine;
mod error;
mod exec;
mod meter;
mod parallel;
mod plain;
mod profile;
mod retry;
mod roles;
mod seed;
pub mod storage;
mod table;

pub use audit::AccessPatternAudit;
pub use config::{FederationConfig, PackingKind, SecureQueryParams, ShardingConfig, TransportKind};
pub use encdb::{EncryptedDatabase, EncryptedQuery, EncryptedRecord, MaskedResult, ShardView};
pub use engine::{
    Dataset, DatasetOptions, PreparedQuery, Protocol, QueryBuilder, QueryOutcome, SknnEngine,
};
pub use error::{DurableUpdateError, InvalidQueryReason, SknnError, UpdateRejected};
pub use parallel::ParallelismConfig;
pub use plain::{plain_knn, plain_knn_records, squared_euclidean_distance};
pub use profile::{Cloud, OpCounters, PoolActivity, QueryProfile, Stage};
pub use retry::{RetryPolicy, RetryReport, RetryUnit, StageRetry};
pub use roles::{CloudC1, DataOwner, QueryUser};
pub use storage::DatasetStoreHandle;
pub use table::Table;

// Re-export the lower layers so downstream users need a single dependency.
pub use sknn_paillier::{
    Ciphertext, Keypair, PackingError, PoolConfig, PoolStats, PooledEncryptor, PrivateKey,
    PublicKey, RandomnessPool, SlotLayout,
};
pub use sknn_protocols::transport::{SessionKeyHolder, TransportError};
pub use sknn_protocols::{KeyHolder, LocalKeyHolder, PackedParams, ProtocolError};
pub use sknn_store::{CompactionReport, DatasetMeta, DatasetStore, RecoveryReport, StoreError};
