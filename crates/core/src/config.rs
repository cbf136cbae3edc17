//! Configuration types for the federated-cloud setup and for secure queries.

use crate::retry::RetryPolicy;
use sknn_paillier::PoolConfig;

/// How cloud C1 talks to the key-holding cloud C2.
///
/// Both remote variants go through the same transport stack
/// ([`sknn_protocols::transport`]): pipelined, correlation-ID-framed
/// sessions whose connections are all serviced by one readiness-driven
/// event loop ([`sknn_protocols::transport::Reactor`]), with per-connection
/// in-flight windows, backpressure and byte-accurate traffic accounting.
/// The key-holder servers run in background threads of this process. The
/// protocol code is identical in all cases — only the wire underneath
/// changes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum TransportKind {
    /// Direct in-process calls (the configuration matching the paper's
    /// single-machine evaluation; fastest, no traffic accounting).
    #[default]
    InProcess,
    /// An in-process byte channel
    /// ([`sknn_protocols::transport::Reactor::channel_pair`]): real wire
    /// bytes and round-trip counts without sockets.
    Channel,
    /// A real TCP socket over loopback
    /// ([`sknn_protocols::transport::Reactor::connect_tcp`]): non-blocking
    /// client sockets on the reactor, one blocking server per session.
    /// Socket readiness needs epoll, so this kind works on Linux only;
    /// elsewhere engine setup fails with a typed transport error
    /// (`Channel` and `InProcess` work everywhere).
    Tcp,
}

impl TransportKind {
    /// Whether this transport reports [`crate::QueryOutcome::comm`] traffic.
    pub fn has_accounting(&self) -> bool {
        !matches!(self, TransportKind::InProcess)
    }
}

/// Slot-packed Paillier batching for the SSED and SBD stages (see
/// [`sknn_paillier::packing`] and `DESIGN.md`).
///
/// Packing puts σ guard-banded values into one plaintext, dividing the
/// C1↔C2 ciphertext volume and C2's decryption count for those stages by
/// ~σ. It requires a key large enough to hold σ product-safe slots;
/// otherwise the queries fall back to — or [`PackingKind::Fixed`] refuses
/// at setup instead of silently degrading — the scalar paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum PackingKind {
    /// Scalar paths only (one value per ciphertext).
    #[default]
    Off,
    /// Pack up to σ values per ciphertext, silently clamping to what the
    /// key supports and falling back to scalar when packing is infeasible.
    /// The deployment-friendly choice.
    Auto(usize),
    /// Pack exactly σ values per ciphertext;
    /// [`crate::SknnEngine::register_dataset`] fails with
    /// [`crate::SknnError::PackingInfeasible`] when the key cannot hold σ
    /// slots for the dataset's distance domain. For experiments where the packing factor is
    /// part of the measurement.
    Fixed(usize),
}

impl PackingKind {
    /// The requested packing factor, if packing is requested at all.
    pub fn requested_slots(&self) -> Option<usize> {
        match self {
            PackingKind::Off => None,
            PackingKind::Auto(s) | PackingKind::Fixed(s) => Some(*s),
        }
    }
}

/// Shape of the sharded encrypted data plane (see `DESIGN.md`, "Sharded
/// data plane").
///
/// `shards` partitions every dataset's records round-robin into that many
/// [`crate::EncryptedDatabase`] shards; a query then runs as a *scatter*
/// (per-shard distance computation and candidate selection) followed by a
/// *gather* (a merge over the ≤ k·S surviving candidates). `sessions`
/// controls how many independent C2 key-holder sessions the engine stands
/// up; shards are pinned to sessions round-robin (shard `s` → session
/// `s mod sessions`), so with `sessions > 1` the scatter stages of one
/// query genuinely overlap on the wire instead of pipelining through one
/// connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ShardingConfig {
    /// Shards per dataset (clamped to ≥ 1). `1` reproduces the paper's
    /// monolithic single-scan protocols exactly.
    pub shards: usize,
    /// Independent C2 key-holder sessions (clamped to ≥ 1). Only remote
    /// transports gain from extra sessions; an in-process C2 is called
    /// directly either way.
    pub sessions: usize,
}

impl ShardingConfig {
    /// The unsharded, single-session configuration (the paper's shape).
    pub fn monolithic() -> Self {
        ShardingConfig {
            shards: 1,
            sessions: 1,
        }
    }
}

impl Default for ShardingConfig {
    fn default() -> Self {
        ShardingConfig::monolithic()
    }
}

/// Configuration for [`crate::SknnEngine::setup`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FederationConfig {
    /// Paillier modulus size in bits (the paper's `K`; 512 and 1024 in the
    /// evaluation, smaller values are practical for tests).
    pub key_bits: usize,
    /// Bit length of the squared-distance domain (the paper's `l`).
    /// `None` derives the smallest safe value from the outsourced table and
    /// the expected query domain.
    pub distance_bits: Option<usize>,
    /// Largest attribute value queries are expected to contain; only used
    /// when `distance_bits` is derived automatically.
    pub max_query_value: u64,
    /// Transport between the clouds.
    pub transport: TransportKind,
    /// Worker threads used by C1's record-parallel stages (1 = serial,
    /// reproducing the paper's serial measurements; 6 matches the OpenMP
    /// configuration of Figure 3). The key-holder server uses the same
    /// number of request-handling workers, so C2 keeps up with a parallel
    /// C1.
    pub threads: usize,
    /// Merge small concurrent `SmBatch`/`LsbBatch` requests into one round
    /// trip (remote transports only; see
    /// [`sknn_protocols::transport::CoalesceConfig`]). The paper's dominant
    /// communication cost is round trips, so this is on by default. Only
    /// effective with `threads > 1` — a serial C1 never issues concurrent
    /// requests, so the setup skips the coalescing window entirely rather
    /// than taxing every round trip with it.
    pub coalesce: bool,
    /// Seed for cloud C2's internal randomness (kept deterministic so
    /// experiments are reproducible).
    pub c2_seed: u64,
    /// Offline Paillier randomness precomputation
    /// ([`sknn_paillier::RandomnessPool`]): each cloud gets its own pool of
    /// precomputed units `r^N mod N²` (C2's by CRT) so online encryption and
    /// re-randomization cost one modular multiplication. `capacity: 0`
    /// disables pooling entirely (every encryption pays its exponentiation
    /// inline). `seed: None` (the default) draws pool randomness from OS
    /// entropy; an explicit seed — for reproducible experiments — is
    /// combined with a per-cloud salt so the two pools never replay the
    /// same randomness.
    pub pool: PoolConfig,
    /// Entries [`crate::SknnEngine::setup`] precomputes synchronously per
    /// cloud before the first query (clamped to `pool.capacity`); the
    /// background refill thread tops the pools up from there.
    pub pool_prewarm: usize,
    /// Slot-packed batching for the SSED and SBD stages. Off by default —
    /// packing trades the scalar paths' full-domain masking for `κ`-bit
    /// statistical blinding ([`FederationConfig::packing_blind_bits`]), a
    /// deployment decision the operator should make explicitly.
    pub packing: PackingKind,
    /// The statistical blinding parameter κ of the packed paths: slot
    /// masks carry κ more bits of entropy than the values they hide, so
    /// C2's view is within statistical distance `2^{−κ}` of simulatable.
    /// 40 is the conventional default; tests with tiny keys lower it to
    /// make room for slots.
    pub packing_blind_bits: usize,
    /// The sharded data plane: how many shards each dataset is partitioned
    /// into and how many independent C2 sessions serve them. The default
    /// ([`ShardingConfig::monolithic`]) reproduces the paper exactly.
    pub sharding: ShardingConfig,
    /// Failure handling: per-request deadlines, retry attempts and backoff
    /// (see [`RetryPolicy`]). The default ([`RetryPolicy::none`]) disables
    /// all of it — requests wait forever and the first failure is final —
    /// reproducing the pre-resilience behavior exactly.
    pub retry: RetryPolicy,
    /// Per-connection in-flight window of the remote transports (clamped to
    /// ≥ 1): how many requests one session keeps on the wire before new
    /// submissions start queueing.
    pub inflight_window: usize,
    /// Per-connection overflow queue of the remote transports: submissions
    /// beyond the window wait here (their deadline clock already running).
    /// When the queue is also full, submitters block briefly and then fail
    /// with a typed `Overloaded` error instead of hanging.
    pub inflight_queue: usize,
    /// Per-query admission control: how many queries may run concurrently
    /// per engine before `run_batch` callers wait at the gate. `0` (the
    /// default) disables the gate entirely. With remote transports this
    /// bounds the work entering the reactor so the backpressure ladder
    /// (window → queue → `Overloaded`) is reached by bursts, not by a
    /// steady-state workload.
    pub admission: usize,
    /// Root directory of C1's durable shard store (`sknn-store`). `None`
    /// (the default) keeps every dataset purely in-memory — the paper's
    /// model and the pre-storage behavior, byte for byte. When set (or when
    /// the engine is constructed through `SknnEngine::open_dir`), datasets
    /// registered through `register_dataset_persistent` live in
    /// `<store_root>/<dataset-name>/` and survive process restarts.
    pub store_root: Option<std::path::PathBuf>,
}

impl Default for FederationConfig {
    fn default() -> Self {
        FederationConfig {
            key_bits: 512,
            distance_bits: None,
            max_query_value: 0,
            transport: TransportKind::InProcess,
            threads: 1,
            coalesce: true,
            c2_seed: 0x5EC0_0D02,
            pool: PoolConfig::default(),
            pool_prewarm: 64,
            packing: PackingKind::Off,
            packing_blind_bits: 40,
            sharding: ShardingConfig::default(),
            retry: RetryPolicy::none(),
            inflight_window: 64,
            inflight_queue: 256,
            admission: 0,
            store_root: None,
        }
    }
}

/// Parameters of one SkNN_m (fully secure) query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SecureQueryParams {
    /// Number of nearest neighbors to retrieve.
    pub k: usize,
    /// Bit length of the squared-distance domain (`l`).
    pub l: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_conventions() {
        let c = FederationConfig::default();
        assert_eq!(c.key_bits, 512);
        assert_eq!(c.transport, TransportKind::InProcess);
        assert_eq!(c.threads, 1);
        assert!(c.coalesce);
        assert!(c.distance_bits.is_none());
        assert!(c.pool.capacity > 0, "pooling is on by default");
        assert!(c.pool_prewarm <= c.pool.capacity);
        assert_eq!(c.packing, PackingKind::Off);
        assert_eq!(c.packing_blind_bits, 40);
        assert_eq!(c.sharding, ShardingConfig::monolithic());
        assert_eq!(c.sharding.shards, 1);
        assert_eq!(c.sharding.sessions, 1);
        assert_eq!(c.retry, RetryPolicy::none());
        assert!(!c.retry.is_enabled(), "resilience is opt-in");
        assert_eq!(c.inflight_window, 64);
        assert_eq!(c.inflight_queue, 256);
        assert_eq!(c.admission, 0, "admission control is opt-in");
        assert!(c.store_root.is_none(), "durability is opt-in");
    }

    #[test]
    fn packing_kind_requested_slots() {
        assert_eq!(PackingKind::Off.requested_slots(), None);
        assert_eq!(PackingKind::Auto(8).requested_slots(), Some(8));
        assert_eq!(PackingKind::Fixed(4).requested_slots(), Some(4));
        assert_eq!(PackingKind::default(), PackingKind::Off);
    }

    #[test]
    fn transport_default_is_in_process() {
        assert_eq!(TransportKind::default(), TransportKind::InProcess);
        assert!(!TransportKind::InProcess.has_accounting());
        assert!(TransportKind::Channel.has_accounting());
        assert!(TransportKind::Tcp.has_accounting());
    }
}
