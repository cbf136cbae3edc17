//! The multi-dataset query-engine façade.
//!
//! The paper's SkNN_b/SkNN_m protocols assume one static outsourced table
//! and one query at a time; [`SknnEngine`] is the front door for the
//! deployment the ROADMAP aims at — one pair of non-colluding clouds
//! hosting **many named encrypted datasets**, answering **validated**
//! queries built through a typed [`QueryBuilder`], running **batches** of
//! them concurrently over one shared key-holder session, and absorbing
//! **dynamic updates** (appends and tombstones) without re-outsourcing a
//! table:
//!
//! ```text
//!  SknnEngine
//!    ├─ dataset registry      name → { EncryptedDatabase (sharded), packing, l }
//!    ├─ QueryBuilder          engine.query("heart").k(5).point(&q).build()?
//!    ├─ run / run_batch       scatter–gather plans over ShardingConfig.shards
//!    │                        shards, pinned round-robin onto
//!    │                        ShardingConfig.sessions independent C2 sessions
//!    └─ append / tombstone    DataOwner::encrypt_record → C1 grows/shrinks
//! ```
//!
//! [`crate::ShardingConfig`] selects the data-plane shape: every dataset
//! is partitioned into `shards` round-robin shards at registration, and
//! the engine stands up `sessions` independent C2 key-holder sessions so a
//! query's per-shard scatter stages overlap on the wire. The default
//! (1 shard, 1 session) reproduces the paper's monolithic scan exactly.
//!
//! All datasets live under one Paillier key pair (one data owner per
//! deployment — the paper's Alice), so cloud C2 still holds exactly one
//! secret key and sees exactly the request set the Section 4.3 security
//! argument reasons about. Each dataset keeps its own distance-bit sizing
//! `l` and its own slot-packing parameters, derived from its value domain
//! at registration. The paper's single-table deployment is an engine with
//! one registered dataset.

mod batch;
mod builder;

pub use batch::QueryOutcome;
pub use builder::{PreparedQuery, Protocol, QueryBuilder};

use crate::config::{FederationConfig, PackingKind, SecureQueryParams, TransportKind};
use crate::error::DurableUpdateError;
use crate::exec::{execute_basic, execute_secure, SessionSet};
use crate::parallel::{Admission, ParallelismConfig};
use crate::profile::{Cloud, PoolActivity};
use crate::roles::{CloudC1, DataOwner, QueryUser};
use crate::storage::DatasetStoreHandle;
use crate::{EncryptedDatabase, EncryptedRecord, SknnError, Table, UpdateRejected};
use rand::RngCore;
use sknn_bigint::BigUint;
use sknn_paillier::{
    Ciphertext, PoolConfig, PoolStats, PooledEncryptor, PublicKey, RandomnessPool,
};
use sknn_protocols::stats::CommSnapshot;
use sknn_protocols::transport::{Loopback, SessionPool};
use sknn_protocols::{KeyHolder, LocalKeyHolder, PackedParams};
use sknn_store::{
    key_fingerprint, validate_dataset_name, CompactionReport, DatasetMeta, DatasetStore, Manifest,
    RecoveryReport, StoreError, MANIFEST_FILE,
};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// The deployment's handle on cloud C2: one or more independent key-holder
/// sessions (shards are pinned to sessions round-robin by the executor).
pub(crate) enum C2Handle {
    /// C2 runs in-process and is called directly — one holder per
    /// configured session (they share the secret key and the randomness
    /// pool, so extra holders only decorrelate C2-side tie-breaking).
    Local(Vec<LocalKeyHolder>),
    /// C2 runs behind a transport (channel or TCP): a pool of independent
    /// connections. Dropping the pool hangs up every session and reaps the
    /// server threads.
    Pool(SessionPool),
}

impl C2Handle {
    /// The primary session (unsharded queries, gather and finalize).
    pub(crate) fn key_holder(&self) -> &dyn KeyHolder {
        match self {
            C2Handle::Local(holders) => &holders[0],
            C2Handle::Pool(pool) => pool.session(0),
        }
    }

    /// Every session, in shard-pinning order.
    pub(crate) fn key_holders(&self) -> Vec<&dyn KeyHolder> {
        match self {
            C2Handle::Local(holders) => holders.iter().map(|h| h as &dyn KeyHolder).collect(),
            C2Handle::Pool(pool) => pool
                .sessions()
                .iter()
                .map(|s| s as &dyn KeyHolder)
                .collect(),
        }
    }

    pub(crate) fn comm_snapshot(&self) -> Option<CommSnapshot> {
        match self {
            C2Handle::Local(_) => None,
            C2Handle::Pool(pool) => Some(pool.comm_snapshot()),
        }
    }

    /// The session pool, when C2 is behind a transport (its resilience
    /// counters live there; in-process holders keep none).
    pub(crate) fn pool(&self) -> Option<&SessionPool> {
        match self {
            C2Handle::Local(_) => None,
            C2Handle::Pool(pool) => Some(pool),
        }
    }
}

/// Per-dataset registration options for
/// [`SknnEngine::register_dataset_with`] and
/// [`SknnEngine::register_dataset_persistent_with`]: the only place a
/// dataset's `l` and query value bound are set.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DatasetOptions {
    /// Bit length of the squared-distance domain (the paper's `l`).
    /// `None` derives the smallest safe value from the table and
    /// `max_query_value`.
    pub distance_bits: Option<usize>,
    /// Largest attribute value queries against this dataset may contain.
    /// Together with the table's own maximum it fixes the dataset's value
    /// bound, which the [`QueryBuilder`] enforces up front.
    pub max_query_value: u64,
}

impl DatasetOptions {
    /// `(l, required, value bound)` for `table`: `required` is the
    /// smallest `l` holding the table's worst-case squared distance, `l`
    /// defaults to it, and the bound is the larger of the table's maximum
    /// and `max_query_value`.
    fn resolve(&self, table: &Table) -> (usize, usize, u64) {
        let required = table.required_distance_bits(self.max_query_value);
        let distance_bits = self.distance_bits.unwrap_or(required);
        let value_bound = table.max_attribute_value().max(self.max_query_value);
        (distance_bits, required, value_bound)
    }
}

/// One hosted dataset: an encrypted database plus the query-domain
/// parameters it was registered with.
pub struct Dataset {
    pub(crate) c1: CloudC1,
    distance_bits: usize,
    value_bound: u64,
    /// The durable shard store backing this dataset (`None` for in-memory
    /// datasets). The database holds the same handle as its write-ahead
    /// sink; the engine reaches through this one for stable-index
    /// resolution and compaction.
    store: Option<Arc<DatasetStoreHandle>>,
}

impl Dataset {
    /// Number of live (queryable) records.
    pub fn num_records(&self) -> usize {
        self.c1.database().num_live()
    }

    /// Number of physical records, including tombstoned ones.
    pub fn num_physical_records(&self) -> usize {
        self.c1.database().num_records()
    }

    /// Number of attributes per record.
    pub fn num_attributes(&self) -> usize {
        self.c1.database().num_attributes()
    }

    /// The distance-domain bit length (`l`) secure queries default to.
    pub fn distance_bits(&self) -> usize {
        self.distance_bits
    }

    /// The per-attribute value bound the dataset was registered with (the
    /// larger of the table's maximum and `max_query_value`). Queries with
    /// attributes above it are rejected by [`QueryBuilder::build`] because
    /// they could overflow the `l`-bit distance domain.
    pub fn value_bound(&self) -> u64 {
        self.value_bound
    }

    /// The slot-packing parameters in effect for this dataset (`None` when
    /// packing is off or infeasible under [`PackingKind::Auto`]).
    pub fn packing(&self) -> Option<&PackedParams> {
        self.c1.packing()
    }

    /// Number of shards this dataset's records are partitioned into
    /// (from [`crate::ShardingConfig`] at registration time).
    pub fn shards(&self) -> usize {
        self.c1.database().shard_count()
    }

    /// Cloud C1's state for this dataset: the encrypted database, the
    /// encryptor and the packing. Queries against it go through
    /// [`SknnEngine::query`].
    pub fn cloud(&self) -> &CloudC1 {
        &self.c1
    }

    /// Whether this dataset is backed by the durable shard store (true for
    /// datasets registered through
    /// [`SknnEngine::register_dataset_persistent`] or reloaded by
    /// [`SknnEngine::open_dir`]).
    pub fn is_durable(&self) -> bool {
        self.store.is_some()
    }

    /// How many times this dataset has been compacted (0 for in-memory
    /// datasets).
    pub fn compactions(&self) -> u64 {
        self.store
            .as_ref()
            .map_or(0, |s| s.with(|store| store.manifest().compactions))
    }
}

/// A two-cloud SkNN deployment hosting many named encrypted datasets.
///
/// See the [module docs](self) for the architecture. Typical use:
///
/// ```
/// use rand::SeedableRng;
/// use sknn_core::{Protocol, SknnEngine, FederationConfig, Table};
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(11);
/// let mut engine = SknnEngine::setup(
///     FederationConfig { key_bits: 96, ..Default::default() },
///     &mut rng,
/// ).unwrap();
///
/// let table = Table::new(vec![vec![2, 2], vec![9, 1], vec![4, 7]]).unwrap();
/// engine.register_dataset("demo", &table, &mut rng).unwrap();
///
/// let outcome = engine
///     .query("demo")
///     .k(1)
///     .point(&[3, 2])
///     .protocol(Protocol::Basic)
///     .run(&mut rng)
///     .unwrap();
/// assert_eq!(outcome.result, vec![vec![2, 2]]);
/// ```
pub struct SknnEngine {
    owner: DataOwner,
    user: QueryUser,
    c2: C2Handle,
    /// C1's offline randomness pool, attached to every registered
    /// dataset's encryptor; `None` when pooling is disabled.
    c1_pool: Option<Arc<RandomnessPool>>,
    /// C2's pool of CRT units, shared by every in-process key holder and
    /// kept here for hit/fallback accounting; `None` when pooling is
    /// disabled or C2 lives on the far side of caller-supplied sessions.
    c2_pool: Option<Arc<RandomnessPool>>,
    datasets: BTreeMap<String, Dataset>,
    /// What crash recovery had to do per dataset reloaded by
    /// [`SknnEngine::open_dir`].
    recovery: BTreeMap<String, RecoveryReport>,
    parallelism: ParallelismConfig,
    /// The per-engine query admission gate; `None` when
    /// [`FederationConfig::admission`] is 0 (the default).
    admission: Option<Admission>,
    config: FederationConfig,
}

impl SknnEngine {
    /// Stands up both clouds under a fresh key pair. Datasets are
    /// registered afterwards with [`SknnEngine::register_dataset`].
    ///
    /// # Errors
    /// Returns an error when the configured transport cannot be
    /// established.
    pub fn setup<R: RngCore + ?Sized>(
        config: FederationConfig,
        rng: &mut R,
    ) -> Result<SknnEngine, SknnError> {
        let owner = DataOwner::new(config.key_bits, rng);
        Self::setup_with_owner(owner, config)
    }

    /// Like [`SknnEngine::setup`] but with a caller-supplied data owner
    /// (i.e. a pre-generated key pair), which benchmark code uses to
    /// amortize key generation across measurements.
    ///
    /// The owner's actual modulus size supersedes `config.key_bits` for
    /// every size-dependent derivation (distance-bit headroom, slot
    /// packing): those guards protect against overflow in the *real*
    /// message space, so sizing them from a config value that disagrees
    /// with the key would corrupt results silently.
    ///
    /// # Errors
    /// See [`SknnEngine::setup`]; also [`SknnError::Paillier`] when pooling
    /// is on and the owner's key fails C2's CRT-unit check
    /// `gcd(N, φ(N)) = 1` (no generated key does).
    pub fn setup_with_owner(
        owner: DataOwner,
        config: FederationConfig,
    ) -> Result<SknnEngine, SknnError> {
        Self::assemble(owner, config, |owner, config| {
            // One offline pool serves every C2 session: the holders share
            // the secret key, so sharing the precomputed `r^N` units is safe
            // and keeps the prewarm cost independent of the session count.
            // C2 holds the factorization, so its units are computed by CRT.
            let c2_pool = match config.pool.capacity {
                0 => None,
                _ => {
                    let pool = RandomnessPool::for_key_holder(
                        owner.private_key(),
                        pool_config(config, 0xC2),
                    )?;
                    pool.prewarm(config.pool_prewarm);
                    Some(pool)
                }
            };

            let sessions = config.sharding.sessions.max(1);
            // Session 0 keeps the configured seed exactly (bit-compatible
            // with single-session deployments); extra sessions derive
            // distinct streams so their tie-breaking randomness is
            // uncorrelated.
            let holder_for = |i: usize| {
                let seed = if i == 0 {
                    config.c2_seed
                } else {
                    config
                        .c2_seed
                        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64))
                };
                let mut holder = LocalKeyHolder::new(owner.private_key().clone(), seed);
                if let Some(pool) = &c2_pool {
                    // The pool is built from this deployment's own key, so
                    // the key check cannot fail; unpooled encryption is the
                    // correct degradation if it ever did.
                    let _ = holder.attach_pool(Arc::clone(pool));
                }
                holder
            };
            let loopback = Loopback {
                workers: config.threads.max(1),
                ..Loopback::default()
            };
            // Both remote kinds run every session on one reactor thread; the
            // C2 servers (one per session, each its own wire) stay blocking.
            let holders = (0..sessions).map(holder_for).collect();
            let c2 = match config.transport {
                TransportKind::InProcess => C2Handle::Local(holders),
                TransportKind::Channel => C2Handle::Pool(
                    SessionPool::channel(holders, &loopback)
                        .map_err(|e| transport_setup_error(&e.to_string()))?,
                ),
                TransportKind::Tcp => C2Handle::Pool(
                    SessionPool::tcp(holders, &loopback)
                        .map_err(|e| transport_setup_error(&e.to_string()))?,
                ),
            };
            Ok((c2, c2_pool))
        })
    }

    /// Like [`SknnEngine::setup_with_owner`] but over a caller-supplied,
    /// already-connected C2 session pool instead of standing up the
    /// transport from [`FederationConfig::transport`]. This is the path for
    /// embedders that bootstrap their own wires — and for fault-injection
    /// tests, which attach a [`sknn_protocols::transport::FaultPlan`] to
    /// session connections (see [`sknn_protocols::transport::Loopback`])
    /// before handing the pool over.
    ///
    /// The engine installs [`FederationConfig::retry`]'s deadline on every
    /// pool session; C2-side offline randomness pooling is skipped (the
    /// key holders live on the other end of the wire), while C1's pool is
    /// set up as usual.
    ///
    /// # Errors
    /// Currently infallible; the `Result` matches the other constructors so
    /// call sites are uniform.
    pub fn setup_with_sessions(
        owner: DataOwner,
        config: FederationConfig,
        sessions: SessionPool,
    ) -> Result<SknnEngine, SknnError> {
        Self::assemble(owner, config, |_, _| Ok((C2Handle::Pool(sessions), None)))
    }

    /// Builds the engine; both setup paths end here and differ only in
    /// `connect`, which yields C2's handle and (for in-process key holders)
    /// C2's randomness pool. Sizes everything from the owner's real
    /// modulus, stands up C1's pre-warmed randomness pool *before*
    /// connecting, so C1's slower public-key refill starts first and the
    /// first query already encrypts with one multiplication per unit, and
    /// installs the retry deadline on pooled sessions — the liveness half
    /// of the retry policy: without it a dropped frame parks a worker
    /// forever and no amount of retrying ever runs.
    fn assemble<F>(
        owner: DataOwner,
        mut config: FederationConfig,
        connect: F,
    ) -> Result<SknnEngine, SknnError>
    where
        F: FnOnce(
            &DataOwner,
            &FederationConfig,
        ) -> Result<(C2Handle, Option<Arc<RandomnessPool>>), SknnError>,
    {
        config.key_bits = owner.public_key().bits();
        let user = QueryUser::new(owner.public_key().clone());
        let c1_pool = c1_pool(&config, owner.public_key());
        let (c2, c2_pool) = connect(&owner, &config)?;
        if let Some(pool) = c2.pool() {
            pool.set_deadline(config.retry.deadline);
        }
        Ok(SknnEngine {
            owner,
            user,
            c2,
            c1_pool,
            c2_pool,
            datasets: BTreeMap::new(),
            recovery: BTreeMap::new(),
            parallelism: ParallelismConfig {
                threads: config.threads.max(1),
            },
            admission: (config.admission > 0).then(|| Admission::new(config.admission)),
            config,
        })
    }

    /// Stands up a **durable** deployment rooted at `root`: the engine is
    /// constructed as by [`SknnEngine::setup_with_owner`] (with
    /// `config.store_root` set to `root`), then every dataset directory
    /// found under `root` is crash-recovered and registered. An empty or
    /// missing `root` is a fresh durable deployment — create datasets with
    /// [`SknnEngine::register_dataset_persistent`] and they will be here
    /// on the next `open_dir`.
    ///
    /// The key pair is **not** persisted (the store holds only
    /// ciphertexts); the caller supplies the same owner across restarts.
    /// Each dataset's manifest pins a fingerprint of the public modulus and
    /// the shard count, so opening under a different key pair or a
    /// different [`crate::ShardingConfig::shards`] fails with a typed
    /// [`SknnError::Storage`] error instead of serving garbage.
    ///
    /// # Errors
    /// Transport-setup errors as in [`SknnEngine::setup`], and
    /// [`SknnError::Storage`] for unreadable, corrupt, or mismatched
    /// dataset directories. Torn log tails are *not* errors — they are
    /// truncated to the last consistent prefix, and
    /// [`SknnEngine::recovery_report`] says what was dropped.
    pub fn open_dir(
        owner: DataOwner,
        mut config: FederationConfig,
        root: &Path,
    ) -> Result<SknnEngine, SknnError> {
        config.store_root = Some(root.to_path_buf());
        let mut engine = Self::setup_with_owner(owner, config)?;
        let io_error = |operation| {
            move |e: std::io::Error| {
                SknnError::Storage(StoreError::Io {
                    path: root.display().to_string(),
                    operation,
                    message: e.to_string(),
                })
            }
        };
        std::fs::create_dir_all(root).map_err(io_error("create store root"))?;
        let mut names = Vec::new();
        for entry in std::fs::read_dir(root).map_err(io_error("read store root"))? {
            let entry = entry.map_err(io_error("read store root"))?;
            if !entry.path().join(MANIFEST_FILE).is_file() {
                continue;
            }
            let name = entry.file_name();
            let name = name.to_str().ok_or_else(|| {
                SknnError::Storage(StoreError::InvalidDatasetName {
                    name: entry.path().display().to_string(),
                })
            })?;
            validate_dataset_name(name).map_err(SknnError::Storage)?;
            names.push(name.to_string());
        }
        // Deterministic registration order regardless of directory order.
        names.sort();
        for name in names {
            engine.load_dataset(&name)?;
        }
        Ok(engine)
    }

    /// Encrypts `table` under the deployment's key and registers it as the
    /// dataset `name` with [`DatasetOptions::default`]: `l` derived from
    /// the table, and queries bounded by the table's own largest value.
    ///
    /// # Errors
    /// See [`SknnEngine::register_dataset_with`].
    pub fn register_dataset<R: RngCore + ?Sized>(
        &mut self,
        name: &str,
        table: &Table,
        rng: &mut R,
    ) -> Result<(), SknnError> {
        self.register_dataset_with(name, table, DatasetOptions::default(), rng)
    }

    /// [`SknnEngine::register_dataset`] with explicit per-dataset options.
    ///
    /// # Errors
    /// Returns [`SknnError::DatasetAlreadyRegistered`] for a duplicate
    /// name, [`SknnError::InsufficientDistanceBits`] when the requested or
    /// derived `l` cannot hold this table's worst-case squared distance (or
    /// does not fit the key), [`SknnError::PackingInfeasible`] when a fixed
    /// packing factor cannot be honored for this dataset's domain, and
    /// [`SknnError::Paillier`] when a table value does not fit the key's
    /// message space.
    pub fn register_dataset_with<R: RngCore + ?Sized>(
        &mut self,
        name: &str,
        table: &Table,
        opts: DatasetOptions,
        rng: &mut R,
    ) -> Result<(), SknnError> {
        if self.datasets.contains_key(name) {
            return Err(SknnError::DatasetAlreadyRegistered {
                name: name.to_string(),
            });
        }
        let (distance_bits, required, value_bound) = opts.resolve(table);
        let dataset = self.assemble_dataset(distance_bits, required, value_bound, || {
            let db = self
                .owner
                .encrypt_table(table, rng)?
                .with_shards(self.config.sharding.shards);
            Ok((db, None))
        })?;
        self.datasets.insert(name.to_string(), dataset);
        Ok(())
    }

    /// Like [`SknnEngine::register_dataset`] but **durable**: the encrypted
    /// table is written ahead to `<store_root>/<name>/` (per-shard
    /// append-only ciphertext logs plus a manifest pinning the key
    /// fingerprint and shard count) before the dataset is registered, so a
    /// later [`SknnEngine::open_dir`] with the same owner reloads it
    /// bit-identically. Requires [`FederationConfig::store_root`] to be set
    /// (which [`SknnEngine::open_dir`] does).
    ///
    /// # Errors
    /// Everything [`SknnEngine::register_dataset_with`] can return, plus
    /// [`SknnError::Storage`] when no store root is configured, the name is
    /// not filesystem-safe ([`sknn_store::validate_dataset_name`]), the
    /// directory already holds a dataset, or writing fails (a half-created
    /// directory is cleaned up; nothing is registered).
    pub fn register_dataset_persistent<R: RngCore + ?Sized>(
        &mut self,
        name: &str,
        table: &Table,
        rng: &mut R,
    ) -> Result<(), SknnError> {
        self.register_dataset_persistent_with(name, table, DatasetOptions::default(), rng)
    }

    /// [`SknnEngine::register_dataset_persistent`] with explicit
    /// per-dataset options.
    ///
    /// # Errors
    /// See [`SknnEngine::register_dataset_persistent`].
    pub fn register_dataset_persistent_with<R: RngCore + ?Sized>(
        &mut self,
        name: &str,
        table: &Table,
        opts: DatasetOptions,
        rng: &mut R,
    ) -> Result<(), SknnError> {
        let root = self.config.store_root.clone().ok_or_else(|| {
            SknnError::Storage(StoreError::Invariant {
                message: "no store root configured: set FederationConfig::store_root \
                          or construct the engine with SknnEngine::open_dir"
                    .to_string(),
            })
        })?;
        validate_dataset_name(name).map_err(SknnError::Storage)?;
        if self.datasets.contains_key(name) {
            return Err(SknnError::DatasetAlreadyRegistered {
                name: name.to_string(),
            });
        }
        let dir = root.join(name);
        if dir.join(MANIFEST_FILE).is_file() {
            return Err(SknnError::Storage(StoreError::Invariant {
                message: format!(
                    "dataset directory {} already exists on disk; \
                     open_dir reloads it instead",
                    dir.display()
                ),
            }));
        }
        let (distance_bits, required, value_bound) = opts.resolve(table);
        let dataset = self.assemble_dataset(distance_bits, required, value_bound, || {
            let db = self
                .owner
                .encrypt_table(table, rng)?
                .with_shards(self.config.sharding.shards);
            let meta = DatasetMeta {
                key_fingerprint: key_fingerprint(&self.owner.public_key().n().to_bytes_be()),
                shards: self.config.sharding.shards as u32,
                attributes: db.num_attributes() as u32,
                value_bound,
                distance_bits: distance_bits as u32,
            };
            // Write-ahead the full table; a failure anywhere leaves no
            // half-created dataset directory behind.
            let created = (|| {
                let mut store = DatasetStore::create(&dir, meta)?;
                let raw: Vec<Vec<BigUint>> = db
                    .records()
                    .iter()
                    .map(|r| r.iter().map(|c| c.as_raw().clone()).collect())
                    .collect();
                store.append_batch(0, &raw)?;
                Ok(store)
            })();
            let store = created.map_err(|e| {
                let _ = std::fs::remove_dir_all(&dir);
                SknnError::Storage(e)
            })?;
            let handle = Arc::new(DatasetStoreHandle::new(store));
            Ok((db.with_backing(Arc::clone(&handle)), Some(handle)))
        })?;
        self.datasets.insert(name.to_string(), dataset);
        Ok(())
    }

    /// Crash-recovers and registers the dataset stored at
    /// `<store_root>/<name>/`, refusing key or configuration mismatches.
    fn load_dataset(&mut self, name: &str) -> Result<(), SknnError> {
        let root = self.config.store_root.clone().ok_or_else(|| {
            SknnError::Storage(StoreError::Invariant {
                message: "load_dataset reached without a store root".to_string(),
            })
        })?;
        let dir = root.join(name);
        let manifest = Manifest::load(&dir.join(MANIFEST_FILE)).map_err(SknnError::Storage)?;
        let found = key_fingerprint(&self.owner.public_key().n().to_bytes_be());
        if manifest.meta.key_fingerprint != found {
            return Err(SknnError::Storage(StoreError::KeyMismatch {
                expected: manifest.meta.key_fingerprint,
                found,
            }));
        }
        let shards = self.config.sharding.shards as u64;
        if u64::from(manifest.meta.shards) != shards {
            return Err(SknnError::Storage(StoreError::ManifestMismatch {
                field: "shard count",
                expected: u64::from(manifest.meta.shards),
                found: shards,
            }));
        }
        // The manifest's `l` was checked against the table when the
        // dataset was created, so only the key's headroom is re-checked.
        let distance_bits = manifest.meta.distance_bits as usize;
        let mut report = RecoveryReport::default();
        let dataset = self.assemble_dataset(distance_bits, 0, manifest.meta.value_bound, || {
            let (store, recovered) =
                DatasetStore::open(&dir, &manifest.meta).map_err(SknnError::Storage)?;
            report = recovered;
            let handle = Arc::new(DatasetStoreHandle::new(store));
            let db = database_from_store(
                &handle,
                manifest.meta.attributes as usize,
                self.owner.public_key(),
                self.config.sharding.shards,
            )?;
            Ok((db, Some(handle)))
        })?;
        self.recovery.insert(name.to_string(), report);
        self.datasets.insert(name.to_string(), dataset);
        Ok(())
    }

    /// The one place a dataset is assembled: every registration and reload
    /// ends here. Checks the distance-bit length `l` against `required`
    /// (the table's worst-case squared distance) and against the key's
    /// headroom, derives the slot packing, and only then builds the
    /// database (and its durable store, if any) with `build` and cloud C1's
    /// view of it: the pooled encryptor and the packing.
    fn assemble_dataset<F>(
        &self,
        distance_bits: usize,
        required: usize,
        value_bound: u64,
        build: F,
    ) -> Result<Dataset, SknnError>
    where
        F: FnOnce() -> Result<(EncryptedDatabase, Option<Arc<DatasetStoreHandle>>), SknnError>,
    {
        if distance_bits < required {
            return Err(SknnError::InsufficientDistanceBits {
                l: distance_bits,
                required,
            });
        }
        if distance_bits + 2 >= self.config.key_bits {
            return Err(SknnError::InsufficientDistanceBits {
                l: distance_bits,
                required: self.config.key_bits.saturating_sub(2),
            });
        }
        let packing = derive_packing(&self.config, distance_bits)?;
        let (db, store) = build()?;
        let mut c1 = CloudC1::new(db);
        if let Some(pool) = &self.c1_pool {
            c1 = c1.with_encryptor(PooledEncryptor::new(Arc::clone(pool)))?;
        }
        if let Some(params) = packing {
            c1 = c1.with_packing(params);
        }
        Ok(Dataset {
            c1,
            distance_bits,
            value_bound,
            store,
        })
    }

    /// What crash recovery had to do for dataset `name` when it was
    /// reloaded by [`SknnEngine::open_dir`] (`None` for datasets registered
    /// in this process).
    pub fn recovery_report(&self, name: &str) -> Option<&RecoveryReport> {
        self.recovery.get(name)
    }

    /// Forces every durable dataset's acknowledged writes onto stable
    /// storage. A no-op for in-memory datasets.
    ///
    /// # Errors
    /// Returns the first [`SknnError::Storage`] failure.
    pub fn flush(&self) -> Result<(), SknnError> {
        for dataset in self.datasets.values() {
            dataset.c1.database().flush().map_err(SknnError::Storage)?;
        }
        Ok(())
    }

    /// Compacts the durable dataset `name`: rewrites its shard logs without
    /// tombstoned records, renumbering the survivors densely (in order, so
    /// query results are unchanged) and extending the manifest's
    /// stable-index map so every index the owner ever observed keeps
    /// resolving — to the record's new position, or to a typed
    /// "already tombstoned" rejection once it is reclaimed.
    ///
    /// # Errors
    /// Returns [`SknnError::UnknownDataset`] for an unregistered name and
    /// [`SknnError::Storage`] for a non-durable dataset or an I/O failure
    /// (the previous generation stays intact in that case — the manifest
    /// rename is the commit point).
    pub fn compact_dataset(&mut self, name: &str) -> Result<CompactionReport, SknnError> {
        let dataset = self
            .datasets
            .get_mut(name)
            .ok_or_else(|| SknnError::UnknownDataset {
                name: name.to_string(),
            })?;
        let handle = dataset.store.as_ref().ok_or_else(|| {
            SknnError::Storage(StoreError::Invariant {
                message: format!("dataset {name:?} is in-memory; nothing to compact"),
            })
        })?;
        let report = handle
            .with(DatasetStore::compact)
            .map_err(SknnError::Storage)?;
        // Rebuild C1's in-memory view from the compacted store so the
        // physical indices match the rewritten logs.
        let db = database_from_store(
            handle,
            dataset.c1.database().num_attributes(),
            self.owner.public_key(),
            self.config.sharding.shards,
        )?;
        *dataset.c1.database_mut() = db;
        Ok(report)
    }

    /// Retires the dataset `name`: its ciphertexts are dropped from C1 and
    /// subsequent queries against the name fail with
    /// [`SknnError::UnknownDataset`].
    ///
    /// # Errors
    /// Returns [`SknnError::UnknownDataset`] when no such dataset exists.
    pub fn remove_dataset(&mut self, name: &str) -> Result<Dataset, SknnError> {
        self.datasets
            .remove(name)
            .ok_or_else(|| SknnError::UnknownDataset {
                name: name.to_string(),
            })
    }

    /// Borrows a registered dataset.
    pub fn dataset(&self, name: &str) -> Option<&Dataset> {
        self.datasets.get(name)
    }

    /// The registered dataset names, in sorted order.
    pub fn dataset_names(&self) -> Vec<&str> {
        self.datasets.keys().map(String::as_str).collect()
    }

    /// Starts building a query against the dataset `name`. Validation
    /// (including whether the dataset exists) happens at
    /// [`QueryBuilder::build`].
    pub fn query(&self, name: &str) -> QueryBuilder<'_> {
        QueryBuilder::new(self, name)
    }

    /// Appends already-encrypted records (from
    /// [`DataOwner::encrypt_record`]) to the dataset `name`, returning the
    /// **stable** indices they were stored at (for an in-memory or
    /// never-compacted dataset these equal the physical positions). The
    /// whole batch is atomic — a rejected record leaves nothing appended —
    /// and for a durable dataset it is write-ahead: the records become
    /// visible to queries only after the shard logs acknowledged them.
    ///
    /// # Errors
    /// Returns [`SknnError::UnknownDataset`] for an unregistered name,
    /// [`SknnError::InvalidUpdate`] when a record's width differs from the
    /// dataset's, and [`SknnError::Storage`] when the backing store refuses
    /// the batch (in every case nothing is appended).
    pub fn append_records(
        &mut self,
        name: &str,
        records: Vec<EncryptedRecord>,
    ) -> Result<Vec<usize>, SknnError> {
        let dataset = self
            .datasets
            .get_mut(name)
            .ok_or_else(|| SknnError::UnknownDataset {
                name: name.to_string(),
            })?;
        let physical = dataset
            .c1
            .database_mut()
            .append_records_durable(records)
            .map_err(|e| match e {
                DurableUpdateError::Rejected(rejected) => SknnError::InvalidUpdate {
                    dataset: name.to_string(),
                    rejected,
                },
                DurableUpdateError::Storage(e) => SknnError::Storage(e),
            })?;
        match &dataset.store {
            None => Ok(physical),
            Some(handle) => Ok(handle.with(|s| {
                physical
                    .iter()
                    .map(|&p| s.stable_of_new_physical(p as u64) as usize)
                    .collect()
            })),
        }
    }

    /// Tombstones the record at stable `index` in dataset `name`: the index
    /// stays allocated (no other record ever reuses it) but no subsequent
    /// query can return the record. For a durable dataset the tombstone is
    /// write-ahead — durable before visible — and `index` is interpreted in
    /// the stable numbering [`SknnEngine::append_records`] returns, which
    /// survives compaction.
    ///
    /// # Errors
    /// Returns [`SknnError::UnknownDataset`] for an unregistered name,
    /// [`SknnError::InvalidUpdate`] for an out-of-range or already
    /// tombstoned index (a record reclaimed by compaction counts as
    /// already tombstoned), and [`SknnError::Storage`] when the backing
    /// store refuses the write (the record then stays live).
    pub fn tombstone_record(&mut self, name: &str, index: usize) -> Result<(), SknnError> {
        let dataset = self
            .datasets
            .get_mut(name)
            .ok_or_else(|| SknnError::UnknownDataset {
                name: name.to_string(),
            })?;
        let physical = match &dataset.store {
            None => index,
            Some(handle) => {
                let stable_count = handle.with(|s| s.stable_count());
                match handle.with(|s| s.stable_to_physical(index as u64)) {
                    Ok(Some(p)) => p as usize,
                    // Reclaimed by compaction: the owner tombstoned it long
                    // ago, so answer as for any other dead index.
                    Ok(None) => {
                        return Err(SknnError::InvalidUpdate {
                            dataset: name.to_string(),
                            rejected: UpdateRejected::AlreadyTombstoned { index },
                        });
                    }
                    Err(_) => {
                        return Err(SknnError::InvalidUpdate {
                            dataset: name.to_string(),
                            rejected: UpdateRejected::IndexOutOfRange {
                                index,
                                records: stable_count as usize,
                            },
                        });
                    }
                }
            }
        };
        dataset
            .c1
            .database_mut()
            .tombstone_durable(physical)
            .map_err(|e| match e {
                DurableUpdateError::Rejected(rejected) => SknnError::InvalidUpdate {
                    dataset: name.to_string(),
                    // Report in the caller's (stable) numbering.
                    rejected: match rejected {
                        UpdateRejected::IndexOutOfRange { records, .. } => {
                            UpdateRejected::IndexOutOfRange { index, records }
                        }
                        UpdateRejected::AlreadyTombstoned { .. } => {
                            UpdateRejected::AlreadyTombstoned { index }
                        }
                        other => other,
                    },
                },
                DurableUpdateError::Storage(e) => SknnError::Storage(e),
            })
    }

    /// Runs one prepared query with the engine's configured parallelism.
    ///
    /// # Errors
    /// Returns [`SknnError::UnknownDataset`] when the query's dataset has
    /// been removed since it was built, and propagates protocol errors.
    /// Validation performed by [`QueryBuilder::build`] is not repeated
    /// in full, but the protocol layer re-checks `k` and the arity against
    /// the dataset's *current* state, so a query staled by updates surfaces
    /// a typed error rather than a panic.
    pub fn run<R: RngCore + ?Sized>(
        &self,
        query: &PreparedQuery,
        rng: &mut R,
    ) -> Result<QueryOutcome, SknnError> {
        self.run_with_parallelism(query, self.parallelism, rng)
    }

    pub(crate) fn run_with_parallelism<R: RngCore + ?Sized>(
        &self,
        query: &PreparedQuery,
        parallelism: ParallelismConfig,
        rng: &mut R,
    ) -> Result<QueryOutcome, SknnError> {
        // Admission control (opt-in): every query path — run and
        // run_batch — funnels through here, so one gate bounds the
        // engine's aggregate concurrency. The permit is held for the whole
        // query, including its scatter fan-out, and returns on every exit
        // path (it is an RAII guard).
        let _admission = self.admission.as_ref().map(|gate| gate.acquire());
        let dataset = self
            .dataset(query.dataset())
            .ok_or_else(|| SknnError::UnknownDataset {
                name: query.dataset().to_string(),
            })?;
        let comm_before = self.comm_stats();
        let pools_before = Cloud::ALL.map(|cloud| self.pool_stats_of(cloud));
        let enc_q = self.user.encrypt_query(query.point(), rng)?;
        let policy = &self.config.retry;
        // The executor owns all failure handling: failed stages re-run per
        // the policy, re-pinned off sessions it finds dead.
        let sessions = SessionSet::new(self.c2.key_holders())?;
        let c1 = &dataset.c1;
        let (masked, mut profile, audit, report) = match query.protocol() {
            Protocol::Basic => {
                execute_basic(c1, &sessions, &enc_q, query.k(), parallelism, policy, rng)?
            }
            Protocol::Secure => {
                let params = SecureQueryParams {
                    k: query.k(),
                    l: query
                        .requested_distance_bits()
                        .unwrap_or(dataset.distance_bits),
                };
                execute_secure(c1, &sessions, &enc_q, params, parallelism, policy, rng)?
            }
        };
        if let Some(pool) = self.c2.pool() {
            for r in &report.stage_retries {
                if r.is_failover() {
                    pool.record_failover();
                } else {
                    pool.record_retry();
                }
            }
        }
        for (cloud, before) in Cloud::ALL.into_iter().zip(&pools_before) {
            profile.record_pool(cloud, pool_delta(before, &self.pool_stats_of(cloud)));
        }
        let result = self.user.recover_records(&masked)?;
        Ok(QueryOutcome {
            result,
            profile,
            audit,
            comm: comm_delta(comm_before, self.comm_stats()),
            retries: report,
        })
    }

    /// The data owner (Alice) the deployment was stood up by — the party
    /// that encrypts new datasets and records.
    pub fn owner(&self) -> &DataOwner {
        &self.owner
    }

    /// The query user (Bob) attached to this deployment.
    pub fn query_user(&self) -> &QueryUser {
        &self.user
    }

    /// The public key the deployment operates under.
    pub fn public_key(&self) -> &PublicKey {
        self.owner.public_key()
    }

    /// Cloud C2 as the protocol drivers see it: any [`KeyHolder`].
    pub fn key_holder(&self) -> &dyn KeyHolder {
        self.c2.key_holder()
    }

    /// Cumulative inter-cloud traffic counters (`None` for
    /// [`TransportKind::InProcess`]).
    pub fn comm_stats(&self) -> Option<CommSnapshot> {
        self.c2.comm_snapshot()
    }

    /// The sharding shape this deployment was stood up with.
    pub fn sharding(&self) -> crate::ShardingConfig {
        self.config.sharding
    }

    /// Number of independent C2 key-holder sessions this deployment runs.
    pub fn num_sessions(&self) -> usize {
        self.c2.key_holders().len()
    }

    /// Synchronously tops up both clouds' offline randomness pools to
    /// `entries` precomputed units each (a no-op when pooling is
    /// disabled). Benchmarks call this between configurations so every
    /// measurement starts from the same warm-pool state instead of the
    /// drained state the previous configuration left behind.
    pub fn prewarm_pools(&self, entries: usize) {
        for pool in self.c1_pool.iter().chain(&self.c2_pool) {
            pool.prewarm(entries);
        }
    }

    /// Cumulative offline-randomness-pool counters, summed over both
    /// clouds' pools (all zero when pooling is disabled).
    pub fn pool_stats(&self) -> PoolStats {
        self.pool_stats_of(Cloud::C1)
            .plus(&self.pool_stats_of(Cloud::C2))
    }

    /// Cumulative counters of one cloud's offline randomness pool (all
    /// zero when it has none).
    pub fn pool_stats_of(&self, cloud: Cloud) -> PoolStats {
        let pool = match cloud {
            Cloud::C1 => &self.c1_pool,
            Cloud::C2 => &self.c2_pool,
        };
        pool.as_ref().map(|p| p.stats()).unwrap_or_default()
    }

    /// The parallelism configuration queries currently run with.
    pub fn parallelism(&self) -> ParallelismConfig {
        self.parallelism
    }

    /// Overrides the number of worker threads used by C1's record-parallel
    /// stages and by [`SknnEngine::run_batch`]'s query fan-out.
    ///
    /// Note that C2's request-serving worker pool is sized once, at
    /// [`SknnEngine::setup`], from [`FederationConfig::threads`]. To
    /// exercise a parallel C1 against a remote transport, configure
    /// `threads` at setup (the server pool matches it) rather than scaling
    /// up afterwards — otherwise the pipelined requests serialize behind
    /// fewer C2 workers.
    pub fn set_threads(&mut self, threads: usize) {
        self.parallelism = ParallelismConfig {
            threads: threads.max(1),
        };
    }
}

/// Derives the slot-packing parameters for a dataset with the given
/// distance-bit length, honoring the engine-wide [`PackingKind`] policy.
/// The attribute differences SSED blinds satisfy `|d| < 2^⌈l/2⌉` because
/// every squared distance fits `l` bits.
fn derive_packing(
    config: &FederationConfig,
    distance_bits: usize,
) -> Result<Option<PackedParams>, SknnError> {
    let requested = match config.packing.requested_slots() {
        None => return Ok(None),
        Some(requested) => requested,
    };
    let value_bits = distance_bits.div_ceil(2);
    let derived = PackedParams::derive(
        config.key_bits,
        value_bits,
        config.packing_blind_bits,
        requested,
    );
    match (config.packing, derived) {
        (PackingKind::Fixed(_), Ok(p)) if p.slots() < requested => {
            Err(SknnError::PackingInfeasible {
                requested,
                supported: p.slots(),
            })
        }
        (PackingKind::Fixed(_), Err(_)) => Err(SknnError::PackingInfeasible {
            requested,
            supported: 0,
        }),
        // Auto: clamp to what fits, or fall back to scalar.
        (_, Ok(p)) => Ok(Some(p)),
        (_, Err(_)) => Ok(None),
    }
}

/// Rebuilds a durable dataset's encrypted database from its store (records,
/// live flags), sharded as configured and writing ahead through `handle`.
fn database_from_store(
    handle: &Arc<DatasetStoreHandle>,
    attributes: usize,
    key: &PublicKey,
    shards: usize,
) -> Result<EncryptedDatabase, SknnError> {
    let (records, live) = handle.with(|store| {
        let records: Vec<EncryptedRecord> = store
            .records()
            .iter()
            .map(|r| {
                r.iter()
                    .map(|raw| Ciphertext::from_raw(raw.clone()))
                    .collect()
            })
            .collect();
        (records, store.live().to_vec())
    });
    Ok(
        EncryptedDatabase::from_parts(records, live, attributes, key.clone())
            .map_err(SknnError::Storage)?
            .with_shards(shards)
            .with_backing(Arc::clone(handle)),
    )
}

/// The pool configuration of one cloud. `seed: None` keeps the PoolConfig
/// contract — OS entropy, the right default for anything
/// security-relevant. An explicit seed (for reproducible experiments) is
/// derived per cloud by `salt`, because two pools replaying the same
/// randomness would produce correlated ciphertexts across the clouds.
fn pool_config(config: &FederationConfig, salt: u64) -> PoolConfig {
    PoolConfig {
        seed: config.pool.seed.map(|s| s ^ salt),
        ..config.pool
    }
}

/// C1's pre-warmed public-key pool, or `None` when pooling is disabled.
fn c1_pool(config: &FederationConfig, pk: &PublicKey) -> Option<Arc<RandomnessPool>> {
    (config.pool.capacity > 0).then(|| {
        let pool = RandomnessPool::new(pk.clone(), pool_config(config, 0xC1));
        pool.prewarm(config.pool_prewarm);
        pool
    })
}

pub(crate) fn pool_delta(before: &PoolStats, after: &PoolStats) -> PoolActivity {
    let d = after.since(before);
    PoolActivity {
        hits: d.hits,
        fallbacks: d.fallbacks,
    }
}

pub(crate) fn comm_delta(
    before: Option<CommSnapshot>,
    after: Option<CommSnapshot>,
) -> Option<CommSnapshot> {
    match (before, after) {
        (Some(b), Some(a)) => Some(a.since(&b)),
        _ => None,
    }
}

fn transport_setup_error(message: &str) -> SknnError {
    SknnError::Protocol(sknn_protocols::ProtocolError::Transport {
        message: message.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plain_knn_records;
    use crate::profile::Stage;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Every test dataset admits query values up to 10.
    const OPTS: DatasetOptions = DatasetOptions {
        distance_bits: None,
        max_query_value: 10,
    };

    fn table() -> Table {
        // Distances from the query (2, 2) are 68, 29, 18, 98, 2 — all
        // distinct, so every k has a unique expected result set.
        Table::new(vec![
            vec![10, 0],
            vec![0, 7],
            vec![5, 5],
            vec![9, 9],
            vec![1, 1],
        ])
        .unwrap()
    }

    fn engine(config: FederationConfig, rng: &mut StdRng) -> SknnEngine {
        SknnEngine::setup(config, rng).unwrap()
    }

    /// The paper's deployment: an engine with `table()` as its one dataset.
    fn single(config: FederationConfig, rng: &mut StdRng) -> SknnEngine {
        let mut engine = engine(config, rng);
        engine
            .register_dataset_with("d", &table(), OPTS, rng)
            .unwrap();
        engine
    }

    fn run(engine: &SknnEngine, protocol: Protocol, k: usize, rng: &mut StdRng) -> QueryOutcome {
        engine
            .query("d")
            .k(k)
            .point(&[2, 2])
            .protocol(protocol)
            .run(rng)
            .unwrap()
    }

    fn sorted(mut records: Vec<Vec<u64>>) -> Vec<Vec<u64>> {
        records.sort();
        records
    }

    #[test]
    fn registry_hosts_and_retires_datasets() {
        let mut rng = StdRng::seed_from_u64(501);
        let mut engine = engine(
            FederationConfig {
                key_bits: 96,
                ..Default::default()
            },
            &mut rng,
        );
        assert!(engine.dataset_names().is_empty());
        engine
            .register_dataset_with("alpha", &table(), OPTS, &mut rng)
            .unwrap();
        engine
            .register_dataset_with(
                "beta",
                &Table::new(vec![vec![1], vec![4]]).unwrap(),
                OPTS,
                &mut rng,
            )
            .unwrap();
        assert_eq!(engine.dataset_names(), vec!["alpha", "beta"]);
        assert_eq!(engine.dataset("alpha").unwrap().num_records(), 5);
        assert_eq!(engine.dataset("beta").unwrap().num_attributes(), 1);
        assert!(engine.dataset("gamma").is_none());

        // Duplicate names are rejected, not silently replaced.
        assert!(matches!(
            engine.register_dataset_with("alpha", &table(), OPTS, &mut rng),
            Err(SknnError::DatasetAlreadyRegistered { .. })
        ));

        let removed = engine.remove_dataset("beta").unwrap();
        assert_eq!(removed.num_records(), 2);
        assert!(matches!(
            engine.remove_dataset("beta"),
            Err(SknnError::UnknownDataset { .. })
        ));
        assert_eq!(engine.dataset_names(), vec!["alpha"]);
    }

    #[test]
    fn queries_run_against_the_named_dataset() {
        let mut rng = StdRng::seed_from_u64(502);
        let mut engine = engine(
            FederationConfig {
                key_bits: 96,
                ..Default::default()
            },
            &mut rng,
        );
        let t = table();
        let shifted = Table::new(vec![vec![7, 7], vec![3, 3]]).unwrap();
        engine
            .register_dataset_with("near", &t, OPTS, &mut rng)
            .unwrap();
        engine
            .register_dataset_with("far", &shifted, OPTS, &mut rng)
            .unwrap();

        let near = engine
            .query("near")
            .k(3)
            .point(&[2, 2])
            .protocol(Protocol::Basic)
            .run(&mut rng)
            .unwrap();
        assert_eq!(near.result, plain_knn_records(&t, &[2, 2], 3).unwrap());
        assert!(!near.audit.is_oblivious());

        let far = engine
            .query("far")
            .k(1)
            .point(&[2, 2])
            .run(&mut rng)
            .unwrap();
        assert_eq!(far.result, vec![vec![3, 3]]);
        assert!(far.audit.is_oblivious(), "default protocol is SkNN_m");
    }

    #[test]
    fn append_and_tombstone_are_reflected_in_queries() {
        let mut rng = StdRng::seed_from_u64(503);
        let mut engine = engine(
            FederationConfig {
                key_bits: 96,
                ..Default::default()
            },
            &mut rng,
        );
        engine
            .register_dataset_with("d", &table(), OPTS, &mut rng)
            .unwrap();

        // Append a record nearer to the query than everything else.
        let record = engine.owner().encrypt_record(&[2, 2], &mut rng).unwrap();
        let indices = engine.append_records("d", vec![record]).unwrap();
        assert_eq!(indices, vec![5]);
        assert_eq!(engine.dataset("d").unwrap().num_records(), 6);
        let nearest = engine
            .query("d")
            .k(1)
            .point(&[2, 2])
            .protocol(Protocol::Basic)
            .run(&mut rng)
            .unwrap();
        assert_eq!(nearest.result, vec![vec![2, 2]]);

        // Tombstone it again: it must never be returned, even with k = n.
        engine.tombstone_record("d", 5).unwrap();
        assert_eq!(engine.dataset("d").unwrap().num_records(), 5);
        assert_eq!(engine.dataset("d").unwrap().num_physical_records(), 6);
        let all = engine
            .query("d")
            .k(5)
            .point(&[2, 2])
            .protocol(Protocol::Basic)
            .run(&mut rng)
            .unwrap();
        assert!(!all.result.contains(&vec![2, 2]));
        assert_eq!(all.result, plain_knn_records(&table(), &[2, 2], 5).unwrap());

        // Typed errors for bad updates.
        assert!(matches!(
            engine.tombstone_record("d", 5),
            Err(SknnError::InvalidUpdate { .. })
        ));
        assert!(matches!(
            engine.tombstone_record("nope", 0),
            Err(SknnError::UnknownDataset { .. })
        ));
        let short = engine.owner().encrypt_record(&[1], &mut rng).unwrap();
        assert!(matches!(
            engine.append_records("d", vec![short]),
            Err(SknnError::InvalidUpdate { .. })
        ));
    }

    #[test]
    fn registration_validates_distance_bits_and_packing() {
        let mut rng = StdRng::seed_from_u64(504);
        let mut engine = engine(
            FederationConfig {
                key_bits: 96,
                ..Default::default()
            },
            &mut rng,
        );
        // Both registration paths refuse an `l` below the table's need or
        // without key headroom, and the durable one writes nothing first.
        let root = tmp_root("bad-l");
        let owner = DataOwner::new(96, &mut rng);
        let mut durable = SknnEngine::open_dir(owner, durable_config(), &root).unwrap();
        for (name, l) in [("tiny-l", 3), ("huge-l", 95)] {
            let opts = DatasetOptions {
                distance_bits: Some(l),
                max_query_value: 10,
            };
            assert!(matches!(
                engine.register_dataset_with(name, &table(), opts, &mut rng),
                Err(SknnError::InsufficientDistanceBits { .. })
            ));
            assert!(matches!(
                durable.register_dataset_persistent_with(name, &table(), opts, &mut rng),
                Err(SknnError::InsufficientDistanceBits { .. })
            ));
            assert!(!root.join(name).exists(), "{name} left a directory");
        }
        std::fs::remove_dir_all(&root).unwrap();

        let mut fixed = SknnEngine::setup(
            FederationConfig {
                key_bits: 96,
                packing: PackingKind::Fixed(64),
                ..Default::default()
            },
            &mut rng,
        )
        .unwrap();
        assert!(matches!(
            fixed.register_dataset_with("d", &table(), OPTS, &mut rng),
            Err(SknnError::PackingInfeasible { requested: 64, .. })
        ));

        // Without an override, l is derived from the table's domain; an
        // override with headroom is taken as given.
        engine
            .register_dataset_with("derived", &table(), OPTS, &mut rng)
            .unwrap();
        let derived = engine.dataset("derived").unwrap();
        assert_eq!(derived.distance_bits(), table().required_distance_bits(10));
        assert_eq!((derived.num_records(), derived.num_attributes()), (5, 2));
        let custom = DatasetOptions {
            distance_bits: Some(12),
            max_query_value: 10,
        };
        engine
            .register_dataset_with("custom", &table(), custom, &mut rng)
            .unwrap();
        assert_eq!(engine.dataset("custom").unwrap().distance_bits(), 12);

        // Auto degrades to scalar instead of failing (the default κ = 40
        // cannot fit a single slot in a 64-bit key).
        let auto = single(
            FederationConfig {
                key_bits: 64,
                packing: PackingKind::Auto(64),
                ..Default::default()
            },
            &mut rng,
        );
        assert!(auto.dataset("d").unwrap().packing().is_none());
        let result = run(&auto, Protocol::Basic, 2, &mut rng).result;
        assert_eq!(result, plain_knn_records(&table(), &[2, 2], 2).unwrap());

        // Auto clamps σ to what the key holds: a 192-bit key at κ = 10 fits
        // a few slots but not the eight requested, and the clamped layout
        // answers both protocols exactly as a scalar engine does.
        let config = |packing| FederationConfig {
            key_bits: 192,
            packing,
            packing_blind_bits: 10,
            ..Default::default()
        };
        let scalar = single(config(PackingKind::Off), &mut rng);
        let clamped = single(config(PackingKind::Auto(8)), &mut rng);
        let slots = clamped.dataset("d").unwrap().packing().unwrap().slots();
        assert!((2..8).contains(&slots), "σ = {slots}");
        let scalar_basic = run(&scalar, Protocol::Basic, 3, &mut rng);
        let clamped_basic = run(&clamped, Protocol::Basic, 3, &mut rng);
        assert_eq!(clamped_basic.result, scalar_basic.result);
        assert_eq!(
            clamped_basic.result,
            plain_knn_records(&table(), &[2, 2], 3).unwrap()
        );
        // The packed SSED stage moves σ× fewer ciphertexts.
        let scalar_ops = scalar_basic.profile.ops(Stage::DistanceComputation);
        let clamped_ops = clamped_basic.profile.ops(Stage::DistanceComputation);
        assert!(
            clamped_ops.ciphertexts_on_wire() * slots as u64 <= scalar_ops.ciphertexts_on_wire(),
            "SSED wire: clamped {clamped_ops:?} vs scalar {scalar_ops:?} at σ = {slots}"
        );
        let scalar_secure = run(&scalar, Protocol::Secure, 2, &mut rng).result;
        let clamped_secure = run(&clamped, Protocol::Secure, 2, &mut rng).result;
        assert_eq!(sorted(clamped_secure), sorted(scalar_secure));
    }

    #[test]
    fn packed_queries_work_over_remote_transports() {
        let mut rng = StdRng::seed_from_u64(422);
        for transport in [TransportKind::Channel, TransportKind::Tcp] {
            let engine = single(
                FederationConfig {
                    key_bits: 192,
                    transport,
                    packing: PackingKind::Fixed(2),
                    packing_blind_bits: 10,
                    ..Default::default()
                },
                &mut rng,
            );
            let slots = engine.dataset("d").unwrap().packing().unwrap().slots();
            assert_eq!(slots, 2, "{transport:?}");
            let basic = run(&engine, Protocol::Basic, 3, &mut rng).result;
            assert_eq!(
                basic,
                plain_knn_records(&table(), &[2, 2], 3).unwrap(),
                "{transport:?}"
            );
            let secure = run(&engine, Protocol::Secure, 2, &mut rng).result;
            assert_eq!(
                sorted(secure),
                sorted(plain_knn_records(&table(), &[2, 2], 2).unwrap()),
                "{transport:?}"
            );
        }
    }

    #[test]
    fn round_trips_do_not_depend_on_threads() {
        // Every C2 call is one round trip of its own, so six workers that
        // overlap on the wire send exactly the requests one worker sends.
        // Record i sits at squared distance 5i² from the query: all distinct.
        let table = Table::new((0..24).map(|i| vec![i, 2 * i]).collect()).unwrap();
        let mut rng = StdRng::seed_from_u64(408);
        let requests = |protocol: Protocol, threads: usize, rng: &mut StdRng| {
            let config = FederationConfig {
                key_bits: 96,
                transport: TransportKind::Channel,
                threads,
                ..Default::default()
            };
            let mut engine = engine(config, rng);
            engine
                .register_dataset_with("d", &table, OPTS, rng)
                .unwrap();
            let outcome = engine
                .query("d")
                .k(3)
                .point(&[0, 0])
                .protocol(protocol)
                .run(rng)
                .unwrap();
            assert_eq!(
                outcome.result,
                plain_knn_records(&table, &[0, 0], 3).unwrap(),
                "{protocol:?}, threads = {threads}"
            );
            let l = engine.dataset("d").unwrap().distance_bits() as u64;
            (outcome.comm.expect("traffic").requests, l)
        };
        assert_eq!(
            requests(Protocol::Basic, 1, &mut rng),
            requests(Protocol::Basic, 6, &mut rng)
        );
        // SkNN_m: SBD sends one request per bit for the whole shard, so
        // the count is n SSEDs + l + per round (2 per SMIN of SMIN_n,
        // MinSelection, extraction) + a freeze per round but the last +
        // the final decryption, at any thread count.
        for threads in [1, 6] {
            let (sent, l) = requests(Protocol::Secure, threads, &mut rng);
            assert_eq!(
                sent,
                24 + l + 3 * (2 * 23 + 2) + 2 + 1,
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn pooled_randomness_serves_queries_and_is_accounted() {
        let mut rng = StdRng::seed_from_u64(409);
        let engine = single(
            FederationConfig {
                key_bits: 96,
                pool: PoolConfig {
                    capacity: 64,
                    background_refill: false,
                    ..Default::default()
                },
                pool_prewarm: 64,
                ..Default::default()
            },
            &mut rng,
        );
        assert!(
            engine.pool_stats().precomputed >= 128,
            "both pools pre-warmed"
        );

        let basic = run(&engine, Protocol::Basic, 2, &mut rng);
        assert_eq!(
            basic.result,
            plain_knn_records(&table(), &[2, 2], 2).unwrap()
        );
        assert!(
            basic.profile.pool().hits > 0,
            "C2's response encryptions must hit the pool"
        );

        // A secure query drains far more units than the prewarm supplied;
        // with refill off, hits can never exceed what was precomputed, and
        // the overflow must show up as synchronous fallbacks.
        let secure = run(&engine, Protocol::Secure, 2, &mut rng);
        let activity = secure.profile.pool();
        assert!(activity.hits + activity.fallbacks > 0);
        let totals = engine.pool_stats();
        assert!(totals.hits <= totals.precomputed);
        assert!(
            totals.fallbacks > 0,
            "draining 2×64 prewarmed entries without refill must fall back"
        );

        // With pooling disabled, nothing is drawn or accounted.
        let unpooled = single(
            FederationConfig {
                key_bits: 96,
                pool: PoolConfig {
                    capacity: 0,
                    ..Default::default()
                },
                pool_prewarm: 0,
                ..Default::default()
            },
            &mut rng,
        );
        let outcome = run(&unpooled, Protocol::Basic, 3, &mut rng);
        assert_eq!(
            outcome.result,
            plain_knn_records(&table(), &[2, 2], 3).unwrap()
        );
        assert_eq!(outcome.profile.pool(), PoolActivity::default());
        assert_eq!(unpooled.pool_stats(), PoolStats::default());
    }

    #[test]
    fn pool_activity_is_split_per_cloud() {
        // In process, every ciphertext C2 sends back is a fresh encryption
        // with one unit from C2's pool, and C2 draws nothing else.
        let mut rng = StdRng::seed_from_u64(411);
        let engine = single(
            FederationConfig {
                key_bits: 96,
                ..Default::default()
            },
            &mut rng,
        );
        for protocol in [Protocol::Basic, Protocol::Secure] {
            let outcome = run(&engine, protocol, 2, &mut rng);
            let profile = &outcome.profile;
            let (c1, c2) = (profile.pool_of(Cloud::C1), profile.pool_of(Cloud::C2));
            let sent = profile.total_ops().ciphertexts_from_c2;
            assert_eq!(c2.hits + c2.fallbacks, sent, "{protocol:?}");
            assert!(
                c1.hits + c1.fallbacks > 0,
                "C1 masks the result with fresh units"
            );
            assert_eq!(profile.pool().hits, c1.hits + c2.hits);
            assert_eq!(profile.pool().fallbacks, c1.fallbacks + c2.fallbacks);
        }
        assert_eq!(
            engine.pool_stats(),
            engine
                .pool_stats_of(Cloud::C1)
                .plus(&engine.pool_stats_of(Cloud::C2))
        );
    }

    #[test]
    fn threads_can_be_adjusted() {
        let mut rng = StdRng::seed_from_u64(405);
        let mut engine = single(
            FederationConfig {
                key_bits: 96,
                threads: 4,
                ..Default::default()
            },
            &mut rng,
        );
        let a = run(&engine, Protocol::Basic, 2, &mut rng);
        engine.set_threads(1);
        assert_eq!(engine.parallelism().threads, 1);
        let b = run(&engine, Protocol::Basic, 2, &mut rng);
        assert_eq!(a.result, b.result);
    }

    #[test]
    fn run_after_remove_is_a_typed_error() {
        let mut rng = StdRng::seed_from_u64(505);
        let mut engine = engine(
            FederationConfig {
                key_bits: 96,
                ..Default::default()
            },
            &mut rng,
        );
        engine
            .register_dataset_with("d", &table(), OPTS, &mut rng)
            .unwrap();
        let prepared = engine.query("d").k(1).point(&[2, 2]).build().unwrap();
        engine.remove_dataset("d").unwrap();
        assert!(matches!(
            engine.run(&prepared, &mut rng),
            Err(SknnError::UnknownDataset { .. })
        ));
    }

    fn tmp_root(tag: &str) -> std::path::PathBuf {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "sknn-engine-store-{}-{}-{}",
            std::process::id(),
            tag,
            n
        ))
    }

    fn durable_config() -> FederationConfig {
        FederationConfig {
            key_bits: 96,
            ..Default::default()
        }
    }

    #[test]
    fn durable_datasets_survive_restart() {
        let mut rng = StdRng::seed_from_u64(506);
        let root = tmp_root("restart");
        let owner = DataOwner::new(96, &mut rng);

        let mut engine = SknnEngine::open_dir(owner.clone(), durable_config(), &root).unwrap();
        engine
            .register_dataset_persistent_with("d", &table(), OPTS, &mut rng)
            .unwrap();
        assert!(engine.dataset("d").unwrap().is_durable());
        let record = engine.owner().encrypt_record(&[2, 2], &mut rng).unwrap();
        assert_eq!(engine.append_records("d", vec![record]).unwrap(), vec![5]);
        engine.tombstone_record("d", 0).unwrap();
        engine.flush().unwrap();
        let before = engine
            .query("d")
            .k(3)
            .point(&[2, 2])
            .protocol(Protocol::Basic)
            .run(&mut rng)
            .unwrap();
        drop(engine);

        let reloaded = SknnEngine::open_dir(owner, durable_config(), &root).unwrap();
        assert_eq!(reloaded.dataset_names(), vec!["d"]);
        assert!(reloaded.recovery_report("d").unwrap().is_clean());
        let dataset = reloaded.dataset("d").unwrap();
        assert_eq!(dataset.num_physical_records(), 6);
        assert_eq!(dataset.num_records(), 5);
        let after = reloaded
            .query("d")
            .k(3)
            .point(&[2, 2])
            .protocol(Protocol::Basic)
            .run(&mut rng)
            .unwrap();
        assert_eq!(after.result, before.result);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn persistent_registration_requires_root_and_safe_name() {
        let mut rng = StdRng::seed_from_u64(507);
        let mut plain = engine(durable_config(), &mut rng);
        assert!(matches!(
            plain.register_dataset_persistent_with("d", &table(), OPTS, &mut rng),
            Err(SknnError::Storage(StoreError::Invariant { .. }))
        ));

        let root = tmp_root("names");
        let owner = DataOwner::new(96, &mut rng);
        let mut durable = SknnEngine::open_dir(owner, durable_config(), &root).unwrap();
        assert!(matches!(
            durable.register_dataset_persistent_with("../escape", &table(), OPTS, &mut rng),
            Err(SknnError::Storage(StoreError::InvalidDatasetName { .. }))
        ));
        // In-memory registration still works on a durable engine, and the
        // two paths reject each other's duplicates.
        durable
            .register_dataset_with("mem", &table(), OPTS, &mut rng)
            .unwrap();
        assert!(!durable.dataset("mem").unwrap().is_durable());
        assert!(matches!(
            durable.register_dataset_persistent_with("mem", &table(), OPTS, &mut rng),
            Err(SknnError::DatasetAlreadyRegistered { .. })
        ));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn reload_refuses_the_wrong_keypair() {
        let mut rng = StdRng::seed_from_u64(508);
        let root = tmp_root("wrong-key");
        let owner = DataOwner::new(96, &mut rng);
        let mut engine = SknnEngine::open_dir(owner, durable_config(), &root).unwrap();
        engine
            .register_dataset_persistent_with("d", &table(), OPTS, &mut rng)
            .unwrap();
        drop(engine);

        let other = DataOwner::new(96, &mut rng);
        assert!(matches!(
            SknnEngine::open_dir(other, durable_config(), &root),
            Err(SknnError::Storage(StoreError::KeyMismatch { .. }))
        ));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn compaction_keeps_stable_indices_and_results() {
        let mut rng = StdRng::seed_from_u64(509);
        let root = tmp_root("compact");
        let owner = DataOwner::new(96, &mut rng);
        let mut engine = SknnEngine::open_dir(owner.clone(), durable_config(), &root).unwrap();
        engine
            .register_dataset_persistent_with("d", &table(), OPTS, &mut rng)
            .unwrap();
        // Kill the two nearest records so compaction genuinely rewrites.
        engine.tombstone_record("d", 4).unwrap();
        engine.tombstone_record("d", 2).unwrap();
        let report = engine.compact_dataset("d").unwrap();
        assert_eq!(report.reclaimed_records, 2);
        assert_eq!(report.live_records, 3);
        assert!(report.shards_rewritten >= 1);
        assert_eq!(engine.dataset("d").unwrap().compactions(), 1);

        // Stable indices keep their meaning: 2 and 4 are reclaimed (typed
        // "already tombstoned"), 3 still resolves and can be tombstoned.
        assert!(matches!(
            engine.tombstone_record("d", 4),
            Err(SknnError::InvalidUpdate {
                rejected: UpdateRejected::AlreadyTombstoned { index: 4 },
                ..
            })
        ));
        engine.tombstone_record("d", 3).unwrap();
        // New appends continue the stable numbering from 5, not from the
        // compacted physical count.
        let record = engine.owner().encrypt_record(&[2, 2], &mut rng).unwrap();
        assert_eq!(engine.append_records("d", vec![record]).unwrap(), vec![5]);

        // Results stay correct after the rewrite, and survive a restart.
        let expected = vec![vec![2, 2], vec![0, 7], vec![10, 0]];
        let live = engine
            .query("d")
            .k(3)
            .point(&[2, 2])
            .protocol(Protocol::Basic)
            .run(&mut rng)
            .unwrap();
        assert_eq!(live.result, expected);
        drop(engine);
        let reloaded = SknnEngine::open_dir(owner, durable_config(), &root).unwrap();
        assert!(reloaded.recovery_report("d").unwrap().is_clean());
        let after = reloaded
            .query("d")
            .k(3)
            .point(&[2, 2])
            .protocol(Protocol::Basic)
            .run(&mut rng)
            .unwrap();
        assert_eq!(after.result, expected);
        assert!(matches!(
            reloaded.dataset("d"),
            Some(d) if d.compactions() == 1
        ));
        std::fs::remove_dir_all(&root).unwrap();
    }
}
