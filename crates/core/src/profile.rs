//! Per-stage timing of a query execution.
//!
//! Section 5.2 of the paper reports that SMIN_n accounts for roughly 70–75 %
//! of SkNN_m's cost; this module lets the benchmark harness reproduce that
//! breakdown instead of only end-to-end times.

use std::time::Duration;

/// The stages instrumented during query processing.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stage {
    /// Secure squared-distance computation (SSED over every record).
    DistanceComputation,
    /// Secure bit decomposition of every distance (SkNN_m only).
    BitDecomposition,
    /// The scatter half of a sharded plan: per-shard top-k candidate
    /// selection (SkNN_b's per-shard index exchange, or SkNN_m's per-shard
    /// oblivious extraction rounds). Zero for unsharded queries.
    ShardCandidates,
    /// The k SMIN_n tournaments (SkNN_m only). In a sharded plan this is
    /// the *gather* half: the tournaments run over the k·S surviving
    /// candidates instead of all n records.
    SecureMinimum,
    /// Locating and extracting the winning record obliviously
    /// (steps 3(b)–3(d) of Algorithm 6), or the top-k index exchange of SkNN_b.
    RecordSelection,
    /// Obliviously saturating the chosen record's distance via SBOR
    /// (step 3(e) of Algorithm 6).
    DistanceFreezing,
    /// Masking, decrypting and handing the k records to Bob.
    Finalization,
}

impl Stage {
    /// All stages in execution order.
    pub const ALL: [Stage; 7] = [
        Stage::DistanceComputation,
        Stage::BitDecomposition,
        Stage::ShardCandidates,
        Stage::SecureMinimum,
        Stage::RecordSelection,
        Stage::DistanceFreezing,
        Stage::Finalization,
    ];

    /// A short human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            Stage::DistanceComputation => "SSED",
            Stage::BitDecomposition => "SBD",
            Stage::ShardCandidates => "shard top-k",
            Stage::SecureMinimum => "SMIN_n",
            Stage::RecordSelection => "selection",
            Stage::DistanceFreezing => "SBOR freeze",
            Stage::Finalization => "finalize",
        }
    }
}

/// One of the two clouds, for per-cloud accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Cloud {
    /// The cloud hosting the encrypted database and driving the protocols.
    C1,
    /// The key-holding cloud.
    C2,
}

impl Cloud {
    /// Both clouds, C1 first.
    pub const ALL: [Cloud; 2] = [Cloud::C1, Cloud::C2];
}

/// Offline-randomness pool activity during one query: how many encryption
/// units came from the precomputed pools (`hits`) versus how many had to be
/// exponentiated synchronously because a pool was drained or absent
/// (`fallbacks`). A [`QueryProfile`] keeps one per cloud.
///
/// The per-query numbers are deltas of the deployment-wide pool counters,
/// so when several queries run concurrently on one engine their windows
/// overlap and each profile may include draws issued by the others;
/// [`crate::SknnEngine::pool_stats`] totals stay exact. Use serial queries when a
/// per-query attribution must be precise.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolActivity {
    /// Encryption units served from a precomputed pool.
    pub hits: u64,
    /// Encryption units computed synchronously (pool drained or disabled).
    pub fallbacks: u64,
}

impl PoolActivity {
    /// Fraction (0..=1) of units served from the pools; zero when no unit
    /// was drawn at all.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.fallbacks;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Protocol-operation counters of one stage: how many ciphertexts crossed
/// the C1↔C2 boundary (in either direction) and how many decryptions the
/// key-holding cloud performed on this stage's behalf.
///
/// The counts are derived from the shape of each [`sknn_protocols::KeyHolder`]
/// call — not from a particular transport — so they are identical for
/// in-process, channel and TCP deployments and directly comparable across
/// configurations (scalar vs slot-packed in particular: packing divides
/// `ciphertexts_to_c2`, SSED's `ciphertexts_from_c2`, and `c2_decryptions`
/// by the packing factor σ).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounters {
    /// Ciphertexts C1 sent to C2.
    pub ciphertexts_to_c2: u64,
    /// Ciphertexts C2 sent back to C1 (index/plaintext replies count zero).
    pub ciphertexts_from_c2: u64,
    /// Paillier decryptions C2 performed.
    pub c2_decryptions: u64,
}

impl OpCounters {
    /// Ciphertexts on the wire in both directions.
    pub fn ciphertexts_on_wire(&self) -> u64 {
        self.ciphertexts_to_c2 + self.ciphertexts_from_c2
    }

    /// Component-wise sum.
    pub fn add(&mut self, other: OpCounters) {
        self.ciphertexts_to_c2 += other.ciphertexts_to_c2;
        self.ciphertexts_from_c2 += other.ciphertexts_from_c2;
        self.c2_decryptions += other.c2_decryptions;
    }
}

/// Wall-clock timings of one query, broken down by [`Stage`].
///
/// Stage durations are *summed over every task that ran the stage*: when
/// a sharded plan runs its scatter tasks concurrently (or a parallel
/// stage runs on several threads), a stage's accumulated time can exceed
/// the query's elapsed wall-clock time — the semantics are CPU-time-like,
/// not elapsed-time. For comparisons across shard/thread configurations
/// use the [`OpCounters`], which are scheduling-independent by
/// construction.
#[derive(Clone, Debug, Default)]
pub struct QueryProfile {
    durations: Vec<(Stage, Duration)>,
    total: Duration,
    /// Pool activity per cloud, indexed like [`Cloud::ALL`].
    pools: [PoolActivity; 2],
    ops: Vec<(Stage, OpCounters)>,
    /// Per-shard attribution of `ops`, populated by sharded plans.
    shard_ops: Vec<(usize, Stage, OpCounters)>,
}

impl QueryProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `elapsed` to the accumulated time of `stage`.
    pub fn record(&mut self, stage: Stage, elapsed: Duration) {
        self.total += elapsed;
        if let Some(entry) = self.durations.iter_mut().find(|(s, _)| *s == stage) {
            entry.1 += elapsed;
        } else {
            self.durations.push((stage, elapsed));
        }
    }

    /// Runs `f`, recording its wall-clock time under `stage`, and returns its
    /// result.
    pub fn time<T>(&mut self, stage: Stage, f: impl FnOnce() -> T) -> T {
        let start = std::time::Instant::now();
        let out = f();
        self.record(stage, start.elapsed());
        out
    }

    /// Accumulated time of one stage (zero if the stage never ran).
    pub fn stage(&self, stage: Stage) -> Duration {
        self.durations
            .iter()
            .find(|(s, _)| *s == stage)
            .map(|(_, d)| *d)
            .unwrap_or_default()
    }

    /// Total time across all stages.
    pub fn total(&self) -> Duration {
        self.total
    }

    /// Fraction (0..=1) of the total spent in `stage`; zero when nothing was
    /// recorded at all.
    pub fn fraction(&self, stage: Stage) -> f64 {
        if self.total.is_zero() {
            0.0
        } else {
            self.stage(stage).as_secs_f64() / self.total.as_secs_f64()
        }
    }

    /// Stages with non-zero accumulated time, in execution order.
    pub fn stages(&self) -> Vec<(Stage, Duration)> {
        let mut v = self.durations.clone();
        v.sort_by_key(|(s, _)| *s);
        v
    }

    /// Adds one cloud's offline-pool counters (hits vs synchronous
    /// fallbacks) observed during this query.
    pub fn record_pool(&mut self, cloud: Cloud, activity: PoolActivity) {
        let pool = &mut self.pools[cloud as usize];
        pool.hits += activity.hits;
        pool.fallbacks += activity.fallbacks;
    }

    /// Offline-pool activity during this query, summed over both clouds
    /// (zero when pooling is disabled or the deployment does not track it).
    pub fn pool(&self) -> PoolActivity {
        let [c1, c2] = self.pools;
        PoolActivity {
            hits: c1.hits + c2.hits,
            fallbacks: c1.fallbacks + c2.fallbacks,
        }
    }

    /// One cloud's offline-pool activity during this query. C2 draws one
    /// unit per ciphertext it sends back, so in-process its draws equal
    /// [`OpCounters::ciphertexts_from_c2`].
    pub fn pool_of(&self, cloud: Cloud) -> PoolActivity {
        self.pools[cloud as usize]
    }

    /// Adds protocol-operation counters observed during `stage`.
    pub fn record_ops(&mut self, stage: Stage, counters: OpCounters) {
        if let Some(entry) = self.ops.iter_mut().find(|(s, _)| *s == stage) {
            entry.1.add(counters);
        } else {
            self.ops.push((stage, counters));
        }
    }

    /// Protocol-operation counters of one stage (zero if the stage never
    /// talked to C2).
    pub fn ops(&self, stage: Stage) -> OpCounters {
        self.ops
            .iter()
            .find(|(s, _)| *s == stage)
            .map(|(_, c)| *c)
            .unwrap_or_default()
    }

    /// Adds protocol-operation counters observed during `stage` on behalf
    /// of one shard of a sharded plan. The counters land in the per-shard
    /// table *and* in the regular per-stage totals, so [`QueryProfile::ops`]
    /// stays the single source of truth for a stage's overall volume.
    pub fn record_shard_ops(&mut self, shard: usize, stage: Stage, counters: OpCounters) {
        self.record_ops(stage, counters);
        if let Some(entry) = self
            .shard_ops
            .iter_mut()
            .find(|(s, st, _)| *s == shard && *st == stage)
        {
            entry.2.add(counters);
        } else {
            self.shard_ops.push((shard, stage, counters));
        }
    }

    /// Protocol-operation counters attributed to one shard during `stage`
    /// (zero for unsharded queries, which have no per-shard attribution).
    pub fn shard_stage_ops(&self, shard: usize, stage: Stage) -> OpCounters {
        self.shard_ops
            .iter()
            .find(|(s, st, _)| *s == shard && *st == stage)
            .map(|(_, _, c)| *c)
            .unwrap_or_default()
    }

    /// Protocol-operation counters attributed to one shard, summed across
    /// stages.
    pub fn shard_ops(&self, shard: usize) -> OpCounters {
        let mut total = OpCounters::default();
        for (s, _, c) in &self.shard_ops {
            if *s == shard {
                total.add(*c);
            }
        }
        total
    }

    /// The shard ids that contributed per-shard counters, ascending.
    /// Empty for unsharded queries.
    pub fn shards(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = self.shard_ops.iter().map(|(s, _, _)| *s).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Protocol-operation counters summed across all stages.
    pub fn total_ops(&self) -> OpCounters {
        let mut total = OpCounters::default();
        for (_, c) in &self.ops {
            total.add(*c);
        }
        total
    }

    /// Merges another profile into this one (used by the parallel executor to
    /// fold per-thread and per-shard measurements together). Durations
    /// add, so merging profiles of concurrently executed tasks produces
    /// the CPU-time-like semantics documented on [`QueryProfile`].
    pub fn merge(&mut self, other: &QueryProfile) {
        for (stage, d) in &other.durations {
            self.record(*stage, *d);
        }
        for (stage, c) in &other.ops {
            self.record_ops(*stage, *c);
        }
        // The per-shard table merges directly: `other.ops` above already
        // carries the shard contributions, so routing them through
        // `record_shard_ops` would double-count the stage totals.
        for (shard, stage, c) in &other.shard_ops {
            if let Some(entry) = self
                .shard_ops
                .iter_mut()
                .find(|(s, st, _)| s == shard && st == stage)
            {
                entry.2.add(*c);
            } else {
                self.shard_ops.push((*shard, *stage, *c));
            }
        }
        for cloud in Cloud::ALL {
            self.record_pool(cloud, other.pool_of(cloud));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut p = QueryProfile::new();
        p.record(Stage::DistanceComputation, Duration::from_millis(30));
        p.record(Stage::SecureMinimum, Duration::from_millis(60));
        p.record(Stage::SecureMinimum, Duration::from_millis(10));
        assert_eq!(p.stage(Stage::SecureMinimum), Duration::from_millis(70));
        assert_eq!(p.stage(Stage::Finalization), Duration::ZERO);
        assert_eq!(p.total(), Duration::from_millis(100));
        assert!((p.fraction(Stage::SecureMinimum) - 0.7).abs() < 1e-9);
        assert_eq!(p.stages().len(), 2);
    }

    #[test]
    fn time_closure() {
        let mut p = QueryProfile::new();
        let out = p.time(Stage::Finalization, || {
            std::thread::sleep(Duration::from_millis(5));
            42
        });
        assert_eq!(out, 42);
        assert!(p.stage(Stage::Finalization) >= Duration::from_millis(5));
    }

    #[test]
    fn merge_combines() {
        let mut a = QueryProfile::new();
        a.record(Stage::DistanceComputation, Duration::from_millis(10));
        let mut b = QueryProfile::new();
        b.record(Stage::DistanceComputation, Duration::from_millis(5));
        b.record(Stage::BitDecomposition, Duration::from_millis(7));
        a.merge(&b);
        assert_eq!(
            a.stage(Stage::DistanceComputation),
            Duration::from_millis(15)
        );
        assert_eq!(a.stage(Stage::BitDecomposition), Duration::from_millis(7));
    }

    #[test]
    fn pool_activity_accumulates_and_merges() {
        let mut a = QueryProfile::new();
        assert_eq!(a.pool(), PoolActivity::default());
        assert_eq!(a.pool().hit_rate(), 0.0);
        a.record_pool(
            Cloud::C1,
            PoolActivity {
                hits: 3,
                fallbacks: 1,
            },
        );
        let mut b = QueryProfile::new();
        b.record_pool(
            Cloud::C2,
            PoolActivity {
                hits: 5,
                fallbacks: 1,
            },
        );
        a.merge(&b);
        assert_eq!(a.pool_of(Cloud::C1).hits, 3);
        assert_eq!(a.pool_of(Cloud::C2).hits, 5);
        assert_eq!(
            a.pool(),
            PoolActivity {
                hits: 8,
                fallbacks: 2
            }
        );
        assert!((a.pool().hit_rate() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn op_counters_accumulate_and_merge() {
        let mut a = QueryProfile::new();
        assert_eq!(a.ops(Stage::DistanceComputation), OpCounters::default());
        a.record_ops(
            Stage::DistanceComputation,
            OpCounters {
                ciphertexts_to_c2: 10,
                ciphertexts_from_c2: 5,
                c2_decryptions: 10,
            },
        );
        a.record_ops(
            Stage::DistanceComputation,
            OpCounters {
                ciphertexts_to_c2: 2,
                ciphertexts_from_c2: 1,
                c2_decryptions: 2,
            },
        );
        let mut b = QueryProfile::new();
        b.record_ops(
            Stage::BitDecomposition,
            OpCounters {
                ciphertexts_to_c2: 3,
                ciphertexts_from_c2: 3,
                c2_decryptions: 3,
            },
        );
        a.merge(&b);
        assert_eq!(a.ops(Stage::DistanceComputation).ciphertexts_to_c2, 12);
        assert_eq!(a.ops(Stage::DistanceComputation).ciphertexts_on_wire(), 18);
        assert_eq!(a.ops(Stage::BitDecomposition).c2_decryptions, 3);
        assert_eq!(a.total_ops().ciphertexts_on_wire(), 24);
        assert_eq!(a.total_ops().c2_decryptions, 15);
    }

    #[test]
    fn labels_and_order() {
        assert_eq!(Stage::ALL.len(), 7);
        assert_eq!(Stage::SecureMinimum.label(), "SMIN_n");
        assert_eq!(Stage::ShardCandidates.label(), "shard top-k");
        assert!(Stage::ShardCandidates < Stage::SecureMinimum);
        let empty = QueryProfile::new();
        assert_eq!(empty.fraction(Stage::SecureMinimum), 0.0);
    }

    #[test]
    fn shard_ops_attribute_and_feed_stage_totals() {
        let counters = |to: u64| OpCounters {
            ciphertexts_to_c2: to,
            ciphertexts_from_c2: 1,
            c2_decryptions: to,
        };
        let mut p = QueryProfile::new();
        assert!(p.shards().is_empty());
        p.record_shard_ops(0, Stage::ShardCandidates, counters(10));
        p.record_shard_ops(1, Stage::ShardCandidates, counters(20));
        p.record_shard_ops(1, Stage::ShardCandidates, counters(5));
        p.record_shard_ops(1, Stage::DistanceComputation, counters(7));
        assert_eq!(p.shards(), vec![0, 1]);
        assert_eq!(
            p.shard_stage_ops(1, Stage::ShardCandidates)
                .ciphertexts_to_c2,
            25
        );
        assert_eq!(p.shard_ops(1).ciphertexts_to_c2, 32);
        assert_eq!(p.shard_ops(2), OpCounters::default());
        // The stage totals include every shard's contribution exactly once.
        assert_eq!(p.ops(Stage::ShardCandidates).ciphertexts_to_c2, 35);

        // Merging keeps per-shard attribution without double counting.
        let mut merged = QueryProfile::new();
        merged.record_shard_ops(0, Stage::ShardCandidates, counters(1));
        merged.merge(&p);
        assert_eq!(merged.shard_ops(0).ciphertexts_to_c2, 11);
        assert_eq!(merged.ops(Stage::ShardCandidates).ciphertexts_to_c2, 36);
    }
}
