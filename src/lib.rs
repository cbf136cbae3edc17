//! # sknn — Secure k-Nearest Neighbor Queries over Encrypted Data
//!
//! A Rust implementation of
//! *Elmehdwi, Samanthula, Jiang — "Secure k-Nearest Neighbor Query over
//! Encrypted Data in Outsourced Environments"* (ICDE 2014, arXiv:1307.4824),
//! from the Paillier cryptosystem up to the two query protocols SkNN_b and
//! SkNN_m, including the synthetic-workload generators and the experiment
//! harness that regenerates every figure of the paper's evaluation.
//!
//! This facade crate re-exports the public API of the workspace crates so an
//! application needs a single dependency:
//!
//! | Layer | Crate | What it provides |
//! |-------|-------|------------------|
//! | [`bigint`] | `sknn-bigint` | From-scratch arbitrary-precision arithmetic (Montgomery exponentiation, Miller–Rabin, …) |
//! | [`paillier`] | `sknn-paillier` | The Paillier additively homomorphic cryptosystem |
//! | [`protocols`] | `sknn-protocols` | The SM, SSED, SBD, SMIN, SMIN_n and SBOR two-party primitives, the key-holder trait, and the pluggable transport stack |
//! | [`core`] | `sknn-core` | The SkNN_b / SkNN_m protocols, the Alice/Bob/C1/C2 roles and the [`SknnEngine`] query-engine façade |
//! | [`data`] | `sknn-data` | Synthetic and heart-disease workload generators |
//!
//! ## Architecture: the `SknnEngine` query-engine façade
//!
//! The paper's protocols assume one static outsourced table and one query
//! at a time. The engine layer generalizes that into a deployment front
//! door — one pair of non-colluding clouds hosting many workloads:
//!
//! ```text
//!  SknnEngine                                 core::engine
//!    │
//!    ├─ dataset registry                      register_dataset / remove_dataset
//!    │    name → { EncryptedDatabase,         one Paillier key pair per
//!    │             distance bits l,           deployment; per-dataset l and
//!    │             packing params }           slot-packing derivation
//!    │
//!    ├─ QueryBuilder                          engine.query("heart").k(5)
//!    │    typed, validates up front:            .point(&q)
//!    │    unknown dataset, k ∉ 1..=n,           .protocol(Protocol::Secure)
//!    │    arity mismatch, value bound →         .build()?
//!    │    SknnError::{UnknownDataset,
//!    │                InvalidQuery}
//!    │
//!    ├─ run / run_batch                       scatter–gather plans over the
//!    │    per-query QueryOutcome              dataset's shards, scheduled as
//!    │    { result, profile, audit, comm }    shard-stage tasks across
//!    │                                        ParallelismConfig threads and
//!    │                                        ShardingConfig.sessions wires
//!    │
//!    └─ dynamic updates                       DataOwner::encrypt_record →
//!         append_records / tombstone_record   C1's table grows and shrinks
//!                                             between queries; protocols
//!                                             skip tombstones
//! ```
//!
//! The paper's deployment — one outsourced table, one query user — is an
//! engine with one registered dataset; there is no second front door. See
//! `DESIGN.md` ("Engine façade & dataset lifecycle") for what dynamic
//! updates do and do not leak to the clouds.
//!
//! ## Architecture: the sharded encrypted data plane
//!
//! The paper's protocols are one linear scan over all `n` records driven
//! by one C1↔C2 conversation — which is why batch throughput stays flat
//! no matter how many threads submit queries. [`ShardingConfig`]
//! (`{ shards, sessions }` on [`FederationConfig`]) turns the query path
//! into a **staged scatter–gather plan** (`core::exec`):
//!
//! ```text
//!  EncryptedDatabase                 round-robin shards: record i → shard i mod S
//!    └─ ShardView                    per-shard live/tombstone view, stable indices
//!
//!  scatter (per shard, pinned to session shard mod sessions):
//!    SkNN_b:  SsedStage → TopKStage          shard's k candidates + distance cts
//!    SkNN_m:  SsedStage → SbdStage →         shard's k candidates, extracted with
//!             k oblivious SMIN_n rounds      the paper's own randomize-permute
//!                                            machinery (nothing decrypted)
//!  gather (primary session):
//!    SkNN_b:  one top-k over the ≤ k·S candidate distances
//!    SkNN_m:  the same k SMIN_n/selection rounds — over ≤ k·S candidates
//!             instead of all n
//!    FinalizeStage: the usual two-share reveal to Bob
//! ```
//!
//! Results are bit-identical to the paper's linear scan for every shard
//! count (the global k nearest are each among their shard's k nearest; the
//! merge orders by the same (distance, storage index) total order). There
//! is one plan per protocol: with one populated shard the scatter task's
//! output is the answer and the gather is skipped, so `shards = 1` is the
//! paper's scan on the same code path, not a parallel implementation of
//! it. Each shard's stages talk to the C2 session the shard is pinned to
//! — [`protocols::transport::SessionPool`] stands up `sessions` fully
//! independent connections (own wire and server workers, one shared
//! reactor thread) — so scatter stages overlap on the wire instead of
//! pipelining through one connection. [`QueryProfile`] reports
//! per-shard, per-stage ciphertext/decryption counters (`shard_stage_ops`),
//! and the `shard-scaling` experiment tracks queries/sec and scatter/gather
//! volume in `BENCH_results.json` per PR. What sharding changes about C2's
//! view — per-shard candidate counts and nothing else — is analyzed in
//! `DESIGN.md` ("Sharded data plane").
//!
//! ## Architecture: the C1↔C2 transport stack
//!
//! The paper's setting has two non-colluding clouds: C1 holds the encrypted
//! database and drives the query protocols; C2 holds the Paillier secret key
//! and answers a small, fixed set of requests (the
//! [`KeyHolder`] trait — exactly the
//! messages the Section 4.3 security argument reasons about). Everything
//! between the two is the *transport stack*, layered so protocol logic never
//! depends on the wire underneath:
//!
//! ```text
//!  SkNN_b / SkNN_m, SM, SBD, SMIN_n, …        work against &dyn KeyHolder
//!       │
//!  SessionKeyHolder                           protocols::transport::SessionKeyHolder
//!       │   · pipelining: every request gets a correlation id; the
//!       │     reactor routes responses, so N worker threads keep N
//!       │     requests in flight on ONE connection
//!       │   · coalescing: concurrent small SmBatch/LsbBatch requests
//!       │     merge into one round trip (CoalesceConfig); the paper's
//!       │     dominant cost is round trips, not bytes
//!       │
//!  Reactor                                    protocols::transport::Reactor
//!       │   one `sknn-reactor` thread services every connection:
//!       │   in-flight windows, backpressure, deadlines, fault plans
//!       │
//!       ├─ channel_pair                       in-process byte queues:
//!       │                                     real wire bytes + traffic
//!       │                                     accounting without sockets
//!       └─ connect_tcp                        one non-blocking TCP socket
//!                                             (epoll), TCP_NODELAY
//!
//!  C2: serve() over a blocking Transport      ChannelServer / TcpTransport
//! ```
//!
//! Frames are versioned and length-prefixed (`protocols::transport::wire`);
//! malformed peer input surfaces as a typed
//! [`protocols::transport::TransportError`] — the key-holder server loop
//! ([`protocols::transport::serve`], which runs a configurable worker pool
//! so pipelined requests are also *served* concurrently) answers a broken
//! request with an error frame instead of crashing.
//!
//! [`FederationConfig`] selects the deployment shape: `transport` picks
//! [`TransportKind::InProcess`] (direct calls, the paper's single-machine
//! evaluation), [`TransportKind::Channel`] (in-process frames with
//! byte-accurate accounting) or [`TransportKind::Tcp`] (a real loopback
//! socket with the key-holder server on a background thread) — both remote
//! kinds run on the one reactor thread; `threads`
//! sets both C1's record-parallel workers and C2's serving workers; and
//! `coalesce` toggles request coalescing on the remote transports.
//! [`QueryOutcome::comm`] then reports per-query round trips and bytes for
//! any remote transport.
//!
//! ## Architecture: offline/online Paillier precomputation
//!
//! Query cost is dominated by the `r^N mod N²` exponentiation inside every
//! fresh Paillier encryption (SSED masking, SBD rounds, every key-holder
//! response). That exponentiation depends only on the randomness, so it
//! moves *offline*:
//!
//! ```text
//!  offline                                 online (query path)
//!  ───────                                 ───────────────────
//!  RandomnessPool                          PooledEncryptor
//!    · queue of precomputed r^N mod N²       · encrypt      = 1 mod-mul
//!    · background refill thread              · encrypt_zero = queue pop
//!    · synchronous fallback when drained     · rerandomize  = 1 mod-mul
//!    · reusable sliding-window Montgomery
//!      context for N² (bigint layer)
//! ```
//!
//! [`SknnEngine`] stands up one pool per cloud at setup and pre-warms both
//! ([`FederationConfig`]'s `pool` / `pool_prewarm` knobs; `capacity: 0`
//! disables pooling). C2's pool backs every fresh encryption in a
//! key-holder response — locally or behind the transport server — and C1's
//! pool backs the SBD round masks and result masking. C2 holds the
//! factorization, so its pool computes units by CRT ([`UnitSampler`]),
//! about 2–6× cheaper. Per-query pool hits vs synchronous fallbacks are
//! reported by [`QueryProfile::pool`] ([`PoolActivity`]), per cloud by
//! [`QueryProfile::pool_of`]. Pool entries have exactly the distribution of
//! direct encryption randomness and are consumed at most once, so the
//! ciphertext distribution — and with it the paper's security argument —
//! is unchanged (see `DESIGN.md`).
//!
//! ## Architecture: slot-packed Paillier batching (SIMD)
//!
//! A Paillier plaintext holds a full `Z_N` element while protocol values
//! are a few dozen bits wide, so the hot C1↔C2 exchanges can pack σ
//! guard-banded values into one ciphertext (`paillier::packing::SlotLayout`,
//! stride = payload + guard so slot-wise products never carry):
//!
//! ```text
//!  scalar SSED (per record, m attributes)   packed SSED (σ records/group)
//!  ───────────────────────────────────────  ─────────────────────────────
//!  2·m ciphertexts  →  C2: 2·m decrypts     m ciphertexts → C2: m decrypts
//!  m ciphertexts    ←  (squares)            m ciphertexts ← (slot squares)
//!     …× σ records                             per GROUP of σ records
//!
//!  scalar SBD round: n masked cts → n decrypts → n bit cts
//!  packed SBD round: ⌈n/σ⌉ packed cts → ⌈n/σ⌉ decrypts → n bit cts
//! ```
//!
//! C1 merges ciphertexts into slots with a homomorphic Horner walk (~one
//! full exponentiation per group) and strips the blinding slot-wise; C2
//! decrypts once per group. The per-bit SBD responses stay scalar — SMIN
//! consumes bits individually and an additively homomorphic ciphertext
//! cannot be split by the party that cannot decrypt it — which is the one
//! floor on the response side (see `DESIGN.md`). [`FederationConfig`]'s
//! `packing` knob (`Off` / `Auto(σ)` / `Fixed(σ)`) routes the SSED and SBD
//! stages of both protocols through the packed paths;
//! [`QueryProfile`]`::ops` reports per-stage ciphertexts-on-wire and C2
//! decryption counts. Every key holder serves the packed requests:
//! the wire has one revision, and a peer on another one is refused with
//! a typed `BadVersion` error.
//!
//! ## Quickstart
//!
//! ```
//! use rand::SeedableRng;
//! use sknn::{Protocol, SknnEngine, FederationConfig, Table};
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//!
//! // Stand up the two clouds under one fresh Paillier key pair.
//! let config = FederationConfig { key_bits: 128, ..Default::default() };
//! let mut engine = SknnEngine::setup(config, &mut rng).unwrap();
//!
//! // Alice's plaintext table: rows are records, columns are attributes.
//! // Outsourcing encrypts it attribute-wise; ciphertexts go to cloud C1,
//! // the secret key went to cloud C2 at setup.
//! let table = Table::new(vec![
//!     vec![63, 1, 145],
//!     vec![56, 1, 130],
//!     vec![57, 0, 140],
//!     vec![55, 0, 128],
//! ]).unwrap();
//! engine.register_dataset("heart", &table, &mut rng).unwrap();
//!
//! // Bob asks for the 2 records nearest to his (encrypted) query. With
//! // `Protocol::Secure` (the default), neither cloud learns the distances,
//! // the result records, or the access pattern.
//! let outcome = engine
//!     .query("heart")
//!     .k(2)
//!     .point(&[58, 1, 133])
//!     .protocol(Protocol::Secure)
//!     .run(&mut rng)
//!     .unwrap();
//! assert_eq!(outcome.result.len(), 2);
//! assert!(outcome.audit.is_oblivious());
//!
//! // The data owner can append and retire records without re-outsourcing.
//! let record = engine.owner().encrypt_record(&[58, 1, 133], &mut rng).unwrap();
//! engine.append_records("heart", vec![record]).unwrap();
//! let nearest = engine.query("heart").k(1).point(&[58, 1, 133]).run(&mut rng).unwrap();
//! assert_eq!(nearest.result, vec![vec![58, 1, 133]]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sknn_bigint as bigint;
pub use sknn_core as core;
pub use sknn_data as data;
pub use sknn_paillier as paillier;
pub use sknn_protocols as protocols;
pub use sknn_store as store;

// The most commonly used types, flattened for convenience.
pub use sknn_core::{
    plain_knn, plain_knn_records, squared_euclidean_distance, AccessPatternAudit, Cloud, CloudC1,
    CompactionReport, DataOwner, Dataset, DatasetOptions, DurableUpdateError, FederationConfig,
    InvalidQueryReason, KeyHolder, LocalKeyHolder, OpCounters, ParallelismConfig, PoolActivity,
    PreparedQuery, Protocol, QueryBuilder, QueryOutcome, QueryProfile, QueryUser, RecoveryReport,
    RetryPolicy, RetryReport, RetryUnit, SessionSet, ShardView, ShardingConfig, SknnEngine,
    SknnError, Stage, StageRetry, StoreError, Table, TransportKind, UpdateRejected,
};
pub use sknn_paillier::{
    Ciphertext, Keypair, PoolConfig, PoolStats, PooledEncryptor, PrivateKey, PublicKey,
    RandomnessPool, UnitSampler,
};
