//! End-to-end and per-layer benchmark of the SkNN engine.
//!
//! One process, one closed-loop client: the client sends its next request
//! only after the previous answer arrived, and checks every answer against
//! an exact kNN over its plaintext copy of the table. The engine is driven
//! only through `SknnEngine`'s public API; everything per-layer is timed
//! from outside, around the calls the client makes, or read from `/proc`.
//! See `README.md` for the workloads and what each metric is for.

#![forbid(unsafe_code)]

mod micro;
mod procfs;
mod stats;
mod trace;
mod workload;

pub use workload::Workload;

use procfs::{Role, RoleTimes, Snapshot};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sknn_core::{
    CompactionReport, DataOwner, DatasetOptions, FederationConfig, PoolConfig, QueryProfile,
    ShardingConfig, SknnEngine, Stage,
};
use sknn_data::{uniform_query, SyntheticDataset};
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Mirror, Spec};

/// The end-to-end metrics `--trace 0` reports, with their units, in
/// `BENCHMARK.json` order: those every workload has and that repeat
/// within a bound from run to run. The rest are printed only (see
/// `README.md`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics `--trace 1` reports, in `BENCHMARK.json` order:
/// those measured on every workload. Metrics of layers a workload does not
/// run are in the trace file and the printed report only.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("mont_pow_1024_us", "us"),
    ("mont_mul_1024_ns", "ns"),
    ("mont_sqr_1024_ns", "ns"),
    ("encrypt_cold_us", "us"),
    ("encrypt_pooled_us", "us"),
    ("rerandomize_pooled_us", "us"),
    ("negate_us", "us"),
    ("mul_plain_full_us", "us"),
    ("decrypt_crt_us", "us"),
    ("pool_hit_ratio", "ratio"),
    ("pool_draws_per_query", "count"),
    ("ssed_ms", "ms"),
    ("selection_ms", "ms"),
    ("finalize_ms", "ms"),
    ("cts_to_c2", "count"),
    ("cts_from_c2", "count"),
    ("c2_decryptions", "count"),
    ("round_trips_per_query", "count"),
    ("cpu.c1_ms", "ms"),
    ("cpu.pool_ms", "ms"),
    ("runq.c1_ms", "ms"),
    ("runq.pool_ms", "ms"),
    ("encrypt_record_ms", "ms"),
    ("user_encrypt_query_ms", "ms"),
    ("trace_overhead_pct", "%"),
];

/// The dataset every workload registers.
const DATASET: &str = "bench";

/// How long the timed phase runs.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Cycles start until this many seconds have passed, and after that
    /// until at least 21 queries have completed, so the tail sits at or
    /// above the median.
    Seconds(f64),
    /// Exactly this many cycles (for tests).
    Cycles(usize),
}

/// One benchmark run.
#[derive(Clone, Debug)]
pub struct Options {
    /// What to run.
    pub workload: Workload,
    /// Seed of every input: table, queries, appended records and keys.
    pub seed: u64,
    /// Length of the timed phase.
    pub budget: Budget,
    /// Record spans, time the layers and report per-layer metrics.
    pub trace: bool,
    /// Where the durable store and the trace file go.
    pub out_dir: PathBuf,
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// The value; `None` when the workload does not exercise the layer.
    pub value: Option<f64>,
    /// Sample count and how the value was formed.
    pub detail: String,
}

/// The outcome of a run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Operations sent (warm-up included).
    pub attempted: u64,
    /// Operations that returned an error or a wrong answer.
    pub failed: u64,
    /// Broken self-checks and the first operation errors.
    pub problems: Vec<String>,
    /// End-to-end metrics, including those only some workloads have.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Where the spans were written (traced runs only).
    pub trace_file: Option<PathBuf>,
}

impl Report {
    /// Whether every operation succeeded and every self-check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// Looks a metric up by name.
pub fn find<'a>(metrics: &'a [Metric], name: &str) -> Option<&'a Metric> {
    metrics.iter().find(|m| m.name == name)
}

/// Runs one workload.
///
/// # Errors
/// Set-up failures (an engine that cannot be stood up, a store directory
/// that cannot be written). Failed operations are counted, not returned.
pub fn run(opts: &Options) -> Result<Report, String> {
    let spec = opts.workload.spec();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let data =
        SyntheticDataset::uniform(spec.records, spec.attributes, spec.distance_bits, &mut rng);
    fs::create_dir_all(&opts.out_dir).map_err(|e| format!("{}: {e}", opts.out_dir.display()))?;

    // Set up several times and keep the last engine; each set-up draws its
    // key from its own seed, derived from the run's.
    let mut setup_s = Vec::with_capacity(spec.setups);
    let mut kept: Option<(SknnEngine, Option<StoreDir>)> = None;
    for i in 0..spec.setups {
        drop(kept.take());
        let store = spec
            .durable
            .then(|| StoreDir::fresh(&opts.out_dir, i))
            .transpose()?;
        let mut key_rng = StdRng::seed_from_u64(mix(opts.seed, i as u64 + 1));
        let t = Instant::now();
        let engine = set_up(&spec, &data, store.as_ref(), &mut key_rng)?;
        setup_s.push(t.elapsed().as_secs_f64());
        kept = Some((engine, store));
    }
    let (engine, store) = kept.ok_or("a workload sets up at least once")?;
    settle_threads(2);

    let mut client = Client {
        spec,
        engine,
        mirror: Mirror::new(data.table.records()),
        max_value: data.max_value,
        rng: StdRng::seed_from_u64(mix(opts.seed, 0)),
        tracer: Tracer::new(opts.trace),
        op: 0,
        cycle: 0,
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        timed: Timed::default(),
        recording: false,
    };
    for _ in 0..spec.warmup_cycles {
        client.cycle();
    }

    // The timed phase.
    client.recording = true;
    let log_before = store.as_ref().map(StoreDir::log_bytes);
    let proc_before = Snapshot::take();
    let start = Instant::now();
    let mut cycles = 0usize;
    while match opts.budget {
        // Past the deadline, keep going until the tail has its samples.
        Budget::Seconds(s) => {
            start.elapsed().as_secs_f64() < s
                || client.timed.queries.len() < stats::MIN_TAIL_SAMPLES
        }
        Budget::Cycles(n) => cycles < n,
    } {
        client.cycle();
        cycles += 1;
    }
    let wall = start.elapsed().as_secs_f64();
    let roles = Snapshot::take().since(&proc_before);
    let log_after = store.as_ref().map(StoreDir::log_bytes);
    client.recording = false;

    // Log size per live record after a final compaction, outside the
    // timed phase.
    let final_compaction = match spec.churns() {
        true => Some(
            client
                .engine
                .compact_dataset(DATASET)
                .map_err(|e| format!("final compaction: {e}"))?,
        ),
        false => None,
    };

    let mut report = Report {
        attempted: client.attempted,
        failed: client.failed,
        problems: client.errors.clone(),
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
        trace_file: None,
    };
    end_to_end(
        &mut report,
        &client,
        &setup_s,
        wall,
        final_compaction.as_ref(),
    );
    if opts.trace {
        let store_written = log_before
            .zip(log_after)
            .map(|(before, after)| written_bytes(before, after, &client.timed.compactions));
        per_layer(&mut report, &mut client, &roles, wall, store_written);
        let path = opts.out_dir.join(format!(
            "trace-{}-seed{}.json",
            opts.workload.name(),
            opts.seed
        ));
        fs::write(&path, trace_json(opts, &report, &client))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        report.trace_file = Some(path);
    }
    drop(client);
    drop(store);
    Ok(report)
}

/// Key generation, engine set-up, table encryption and registration (and
/// for a durable dataset the first flush), until both randomness pools
/// are full. Waiting for the pools keeps the work inside `setup_s` fixed
/// instead of depending on how far the refill threads got.
fn set_up(
    spec: &Spec,
    data: &SyntheticDataset,
    store: Option<&StoreDir>,
    rng: &mut StdRng,
) -> Result<SknnEngine, String> {
    let owner = DataOwner::new(spec.key_bits, rng);
    let config = FederationConfig {
        key_bits: spec.key_bits,
        transport: spec.transport,
        threads: spec.threads,
        sharding: ShardingConfig {
            shards: spec.shards,
            sessions: spec.sessions,
        },
        ..FederationConfig::default()
    };
    let options = DatasetOptions {
        // SkNN_m decomposes distances into exactly l bits; SkNN_b never
        // does, so it derives l from the table.
        distance_bits: (spec.protocol == sknn_core::Protocol::Secure).then_some(spec.distance_bits),
        max_query_value: data.max_value,
    };
    let engine = match store {
        Some(dir) => {
            let mut engine = SknnEngine::open_dir(owner, config, &dir.0)
                .map_err(|e| format!("open_dir: {e}"))?;
            engine
                .register_dataset_persistent_with(DATASET, &data.table, options, rng)
                .map_err(|e| format!("register: {e}"))?;
            engine.flush().map_err(|e| format!("flush: {e}"))?;
            engine
        }
        None => {
            let mut engine =
                SknnEngine::setup_with_owner(owner, config).map_err(|e| format!("setup: {e}"))?;
            engine
                .register_dataset_with(DATASET, &data.table, options, rng)
                .map_err(|e| format!("register: {e}"))?;
            engine
        }
    };
    // Two pools (C1's and C2's), each filled to capacity.
    let full = 2 * PoolConfig::default().capacity as u64;
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let s = engine.pool_stats();
        if s.precomputed.saturating_sub(s.hits) >= full {
            return Ok(engine);
        }
        if Instant::now() > deadline {
            return Err(format!("randomness pools did not fill: {s:?}"));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Waits (at most two seconds) until exactly `pools` pool-refill threads
/// are alive: a dropped engine's refill threads exit within half a second
/// (parked, using no CPU), and must not vanish from `/proc` in the middle
/// of the timed phase.
fn settle_threads(pools: usize) {
    let deadline = Instant::now() + Duration::from_secs(2);
    while Snapshot::take().count(Role::Pool) != pools && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// SplitMix64 of `seed + stream`: independent seeds for the set-ups and
/// the client, all fixed by the run's seed.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A durable store root, removed when dropped.
struct StoreDir(PathBuf);

impl StoreDir {
    fn fresh(out: &Path, index: usize) -> Result<StoreDir, String> {
        let dir = out.join(format!("store-{}-{index}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(StoreDir(dir))
    }

    /// Total size of the dataset's shard logs.
    fn log_bytes(&self) -> u64 {
        let Ok(entries) = fs::read_dir(self.0.join(DATASET)) else {
            return 0;
        };
        entries
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".log"))
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum()
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Log bytes written over the timed phase: growth between compactions,
/// plus each compaction's rewritten logs.
fn written_bytes(before: u64, after: u64, compactions: &[CompactionReport]) -> u64 {
    let mut written = 0;
    let mut size = before;
    for c in compactions {
        written += c.bytes_before.saturating_sub(size) + c.bytes_after;
        size = c.bytes_after;
    }
    written + after.saturating_sub(size)
}

/// One answered query of the timed phase.
struct QueryStat {
    /// Client-side latency: build and run, without tracing work.
    latency_ms: f64,
    /// `engine.run` alone.
    run_ms: f64,
    profile: QueryProfile,
    round_trips: u64,
    c2_bytes: u64,
}

/// Samples of the timed phase.
#[derive(Default)]
struct Timed {
    queries: Vec<QueryStat>,
    /// Append (record encryption included) and tombstone latencies.
    writes_ms: Vec<f64>,
    append_ms: Vec<f64>,
    tombstone_ms: Vec<f64>,
    compact_ms: Vec<f64>,
    compactions: Vec<CompactionReport>,
    /// Plaintext bytes of the appended records.
    user_bytes: u64,
    /// Cycle wall times with whether the cycle was traced; compacting
    /// cycles are left out.
    cycles: Vec<(f64, bool)>,
    /// Time traced queries spent reading `/proc` and recording spans.
    trace_cost: Duration,
    traced_queries: usize,
}

/// The closed-loop client.
struct Client {
    spec: Spec,
    engine: SknnEngine,
    mirror: Mirror,
    max_value: u64,
    rng: StdRng,
    tracer: Tracer,
    op: u64,
    cycle: usize,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    timed: Timed,
    recording: bool,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

impl Client {
    /// One cycle: (append, tombstone,) query (, compact). With tracing on,
    /// every other cycle is traced, so traced and untraced cycles
    /// interleave and their difference is the tracing overhead.
    fn cycle(&mut self) {
        let traced = self.tracer.enabled() && self.cycle % 2 == 1;
        let start = Instant::now();
        if self.spec.churns() {
            self.append(traced);
            self.tombstone(traced);
        }
        self.query(traced);
        let compacts =
            self.spec.churns() && (self.cycle + 1).is_multiple_of(self.spec.compact_every);
        if compacts {
            self.compact(traced);
        } else if self.recording {
            self.timed.cycles.push((ms(start.elapsed()), traced));
        }
        self.cycle += 1;
    }

    fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    fn append(&mut self, traced: bool) {
        let op = self.next_op();
        let row = uniform_query(self.spec.attributes, self.max_value, &mut self.rng);
        let t0 = Instant::now();
        let encrypted = self.engine.owner().encrypt_record(&row, &mut self.rng);
        let t1 = Instant::now();
        let appended = encrypted.and_then(|r| self.engine.append_records(DATASET, vec![r]));
        let t2 = Instant::now();
        self.attempted += 1;
        let next = self.mirror.rows.len();
        match appended {
            Ok(idx) if idx == [next] => {
                self.mirror.rows.push(Some(row));
                self.mirror.live.push_back(next);
            }
            Ok(idx) => self.fail(format!("append stored at {idx:?}, expected [{next}]")),
            Err(e) => self.fail(format!("append: {e}")),
        }
        if self.recording {
            let t = &mut self.timed;
            t.writes_ms.push(ms(t2 - t0));
            t.append_ms.push(ms(t2 - t1));
            t.user_bytes += 8 * self.spec.attributes as u64;
        }
        if traced {
            let tr = &mut self.tracer;
            let a = tr.record("roles.encrypt_record", op, t0, t1, vec![]);
            let b = tr.record("store.append", op, t1, t2, vec![]);
            let root = tr.record("op.append", op, t0, t2, vec![]);
            tr.adopt(root, &[a, b]);
        }
    }

    fn tombstone(&mut self, traced: bool) {
        let op = self.next_op();
        let Some(&oldest) = self.mirror.live.front() else {
            return;
        };
        let t0 = Instant::now();
        let done = self.engine.tombstone_record(DATASET, oldest);
        let t1 = Instant::now();
        self.attempted += 1;
        match done {
            Ok(()) => {
                self.mirror.rows[oldest] = None;
                self.mirror.live.pop_front();
            }
            Err(e) => self.fail(format!("tombstone {oldest}: {e}")),
        }
        if self.recording {
            self.timed.writes_ms.push(ms(t1 - t0));
            self.timed.tombstone_ms.push(ms(t1 - t0));
        }
        if traced {
            let s = self.tracer.record("store.tombstone", op, t0, t1, vec![]);
            let root = self.tracer.record("op.tombstone", op, t0, t1, vec![]);
            self.tracer.adopt(root, &[s]);
        }
    }

    fn compact(&mut self, traced: bool) {
        let op = self.next_op();
        let t0 = Instant::now();
        let done = self.engine.compact_dataset(DATASET);
        let t1 = Instant::now();
        self.attempted += 1;
        match done {
            Ok(report) if report.live_records == self.mirror.live.len() as u64 => {
                if self.recording {
                    self.timed.compact_ms.push(ms(t1 - t0));
                    self.timed.compactions.push(report);
                }
            }
            Ok(report) => self.fail(format!(
                "compaction kept {} records, expected {}",
                report.live_records,
                self.mirror.live.len()
            )),
            Err(e) => self.fail(format!("compact: {e}")),
        }
        if traced {
            let s = self.tracer.record("store.compact", op, t0, t1, vec![]);
            let root = self.tracer.record("op.compact", op, t0, t1, vec![]);
            self.tracer.adopt(root, &[s]);
        }
    }

    fn query(&mut self, traced: bool) {
        let op = self.next_op();
        let spec = self.spec;
        let point = uniform_query(spec.attributes, self.max_value, &mut self.rng);
        let t0 = Instant::now();
        let built = self
            .engine
            .query(DATASET)
            .k(spec.k)
            .point(&point)
            .protocol(spec.protocol)
            .build();
        let t1 = Instant::now();
        let before = traced.then(Snapshot::take);
        let r0 = Instant::now();
        let outcome = built.and_then(|q| self.engine.run(&q, &mut self.rng));
        let r1 = Instant::now();
        let after = traced.then(Snapshot::take);
        let done = Instant::now();
        self.attempted += 1;
        let outcome = match outcome {
            Ok(o) if self.mirror.check(&point, spec.k, &o.result) => o,
            Ok(o) => {
                return self.fail(format!("wrong answer for {point:?}: {:?}", o.result));
            }
            Err(e) => return self.fail(format!("query: {e}")),
        };
        if traced {
            let mut attrs: Vec<(String, f64)> = outcome
                .profile
                .stages()
                .iter()
                .map(|(stage, d)| (format!("{}_ms", stage_metric(*stage)), ms(*d)))
                .collect();
            if let (Some(b), Some(a)) = (&before, &after) {
                let roles = a.since(b);
                for role in Role::ALL {
                    attrs.push((format!("cpu.{}_ms", role.label()), roles.cpu_ms(role)));
                    attrs.push((format!("runq.{}_ms", role.label()), roles.runq_ms(role)));
                }
            }
            let run = self.tracer.record("engine.run", op, r0, r1, attrs);
            let root = self.tracer.record("op.query", op, t0, done, vec![]);
            self.tracer.adopt(root, &[run]);
            if self.recording {
                self.timed.trace_cost += (r0 - t1) + (done - r1);
                self.timed.traced_queries += 1;
            }
        }
        if self.recording {
            let comm = outcome.comm.unwrap_or_default();
            self.timed.queries.push(QueryStat {
                latency_ms: ms((t1 - t0) + (r1 - r0)),
                run_ms: ms(r1 - r0),
                profile: outcome.profile,
                round_trips: comm.requests.min(comm.responses),
                c2_bytes: comm.total_bytes(),
            });
        }
    }
}

/// Metric-name stem of a query-profile stage.
fn stage_metric(stage: Stage) -> &'static str {
    match stage {
        Stage::DistanceComputation => "ssed",
        Stage::BitDecomposition => "sbd",
        Stage::ShardCandidates => "shard_topk",
        Stage::SecureMinimum => "smin_n",
        Stage::RecordSelection => "selection",
        Stage::DistanceFreezing => "freeze",
        Stage::Finalization => "finalize",
    }
}

fn metric(name: &str, unit: &'static str, value: Option<f64>, detail: String) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
        detail,
    }
}

fn tail_detail(tail: Option<stats::Tail>, n: usize) -> String {
    match tail {
        Some(t) => format!(
            "p{:.1}, n={}, {} beyond",
            t.percentile,
            t.samples,
            stats::TAIL_BEYOND
        ),
        None => format!("n={n}: too few samples for a tail at or above the median"),
    }
}

fn end_to_end(
    report: &mut Report,
    client: &Client,
    setup_s: &[f64],
    wall: f64,
    final_compaction: Option<&CompactionReport>,
) {
    let t = &client.timed;
    let n = t.queries.len();
    let latencies: Vec<f64> = t.queries.iter().map(|q| q.latency_ms).collect();
    let p50 = stats::median(&latencies);
    let tail = stats::tail(&latencies);
    let out = &mut report.end_to_end;
    out.push(metric(
        "setup_s",
        "s",
        stats::median(setup_s),
        format!("median of {} set-ups", setup_s.len()),
    ));
    out.push(metric(
        "queries_per_s",
        "1/s",
        (n > 0).then(|| n as f64 / wall),
        format!("{n} queries over {wall:.3} s"),
    ));
    out.push(metric("query_p50_ms", "ms", p50, format!("n={n}")));
    out.push(metric(
        "query_tail_ms",
        "ms",
        tail.map(|t| t.value),
        tail_detail(tail, n),
    ));
    if let (Some(p50), Some(tail)) = (p50, tail) {
        if tail.value < p50 {
            report
                .problems
                .push(format!("query tail {} ms below p50 {p50} ms", tail.value));
        }
    }
    let churns = client.spec.churns();
    let wtail = stats::tail(&t.writes_ms);
    out.push(metric(
        "write_p50_ms",
        "ms",
        churns.then(|| stats::median(&t.writes_ms)).flatten(),
        format!("n={}", t.writes_ms.len()),
    ));
    out.push(metric(
        "write_tail_ms",
        "ms",
        churns.then_some(wtail.map(|t| t.value)).flatten(),
        tail_detail(wtail, t.writes_ms.len()),
    ));
    out.push(metric(
        "peak_rss_mb",
        "MiB",
        procfs::peak_rss_mb(),
        "VmHWM".to_string(),
    ));
    out.push(metric(
        "store_bytes_per_record",
        "B",
        final_compaction.map(|c| c.bytes_after as f64 / c.live_records.max(1) as f64),
        final_compaction.map_or(String::new(), |c| {
            format!(
                "{} log bytes / {} live records",
                c.bytes_after, c.live_records
            )
        }),
    ));
    let wire = client.spec.transport != sknn_core::TransportKind::InProcess;
    out.push(metric(
        "c2_bytes_per_query",
        "B",
        (wire && n > 0)
            .then(|| t.queries.iter().map(|q| q.c2_bytes).sum::<u64>() as f64 / n as f64),
        format!("n={n}"),
    ));
}

fn per_layer(
    report: &mut Report,
    client: &mut Client,
    roles: &RoleTimes,
    wall: f64,
    store_written: Option<u64>,
) {
    let spec = client.spec;
    let point = uniform_query(spec.attributes, client.max_value, &mut client.rng);
    let mut micro = micro::measure(&client.engine, &point, &mut client.rng);
    let t = &client.timed;
    let n = t.queries.len().max(1) as f64;
    let out = &mut report.per_layer;
    for (name, unit, value) in micro.drain(..) {
        out.push(metric(
            name,
            unit,
            Some(value),
            format!("median of {} batches", micro::BATCHES),
        ));
    }

    let (hits, fallbacks) = t.queries.iter().fold((0, 0), |(h, f), q| {
        let p = q.profile.pool();
        (h + p.hits, f + p.fallbacks)
    });
    out.push(metric(
        "pool_hit_ratio",
        "ratio",
        (hits + fallbacks > 0).then(|| hits as f64 / (hits + fallbacks) as f64),
        format!("{hits} hits, {fallbacks} fallbacks"),
    ));
    out.push(metric(
        "pool_draws_per_query",
        "count",
        Some((hits + fallbacks) as f64 / n),
        String::new(),
    ));
    for stage in Stage::ALL {
        let per_query: Vec<f64> = t
            .queries
            .iter()
            .map(|q| ms(q.profile.stage(stage)))
            .collect();
        let ran = per_query.iter().any(|&v| v > 0.0);
        out.push(metric(
            &format!("{}_ms", stage_metric(stage)),
            "ms",
            ran.then(|| stats::median(&per_query)).flatten(),
            "median per query".into(),
        ));
    }
    let sum = |f: &dyn Fn(&QueryStat) -> u64| t.queries.iter().map(f).sum::<u64>() as f64 / n;
    out.push(metric(
        "cts_to_c2",
        "count",
        Some(sum(&|q| q.profile.total_ops().ciphertexts_to_c2)),
        "per query".into(),
    ));
    out.push(metric(
        "cts_from_c2",
        "count",
        Some(sum(&|q| q.profile.total_ops().ciphertexts_from_c2)),
        "per query".into(),
    ));
    out.push(metric(
        "c2_decryptions",
        "count",
        Some(sum(&|q| q.profile.total_ops().c2_decryptions)),
        "per query".into(),
    ));
    out.push(metric(
        "round_trips_per_query",
        "count",
        Some(sum(&|q| q.round_trips)),
        String::new(),
    ));
    let overheads: Vec<f64> = t
        .queries
        .iter()
        .map(|q| q.run_ms - ms(q.profile.total()))
        .collect();
    out.push(metric(
        "overhead_ms",
        "ms",
        spec.serial().then(|| stats::median(&overheads)).flatten(),
        "engine.run minus its stage times, median per query".into(),
    ));

    // Thread roles over the timed phase, per query.
    let present = |role: Role| role == Role::C1 || roles.cpu_ns.contains_key(&role);
    for role in Role::ALL {
        out.push(metric(
            &format!("cpu.{}_ms", role.label()),
            "ms",
            present(role).then(|| roles.cpu_ms(role) / n),
            "per query".into(),
        ));
    }
    for role in [Role::C1, Role::C2, Role::Pool] {
        out.push(metric(
            &format!("runq.{}_ms", role.label()),
            "ms",
            present(role).then(|| roles.runq_ms(role) / n),
            "per query".into(),
        ));
    }
    out.push(metric(
        "c1.blocked_ms",
        "ms",
        spec.serial()
            .then(|| (wall * 1e3 - roles.cpu_ms(Role::C1) - roles.runq_ms(Role::C1)) / n),
        "wall minus C1 CPU and run-queue wait, per query".into(),
    ));
    out.push(metric(
        "cpu.process_ms",
        "ms",
        Some(roles.process_ns as f64 / 1e6 / n),
        format!(
            "per query; live C1 threads {:.1} ms of C1's {:.1} ms",
            roles.c1_threads_cpu_ns as f64 / 1e6 / n,
            roles.cpu_ms(Role::C1) / n
        ),
    ));

    let churns = spec.churns();
    for (name, samples) in [
        ("append_ms", &t.append_ms),
        ("tombstone_ms", &t.tombstone_ms),
        ("compact_ms", &t.compact_ms),
    ] {
        out.push(metric(
            name,
            "ms",
            churns.then(|| stats::median(samples)).flatten(),
            format!("median of {}", samples.len()),
        ));
    }
    out.push(metric(
        "bytes_written_per_user_byte",
        "ratio",
        store_written
            .filter(|_| t.user_bytes > 0)
            .map(|w| w as f64 / t.user_bytes as f64),
        format!("{} plaintext bytes appended", t.user_bytes),
    ));

    // Interleaved traced and untraced cycles.
    let pick = |traced: bool| -> Vec<f64> {
        t.cycles
            .iter()
            .filter(|c| c.1 == traced)
            .map(|c| c.0)
            .collect()
    };
    let (on, off) = (stats::median(&pick(true)), stats::median(&pick(false)));
    out.push(metric(
        "trace_overhead_pct",
        "%",
        on.zip(off).map(|(on, off)| 100.0 * (on / off - 1.0)),
        "median traced cycle over median untraced cycle".into(),
    ));
    out.push(metric(
        "trace_cost_ms",
        "ms",
        Some(ms(t.trace_cost) / t.traced_queries.max(1) as f64),
        "reading /proc and recording spans, per traced cycle".into(),
    ));
}

fn trace_json(opts: &Options, report: &Report, client: &Client) -> String {
    let metrics = |list: &[Metric]| -> String {
        list.iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\",\"detail\":\"{}\"}}",
                    m.name,
                    m.value.map_or("null".to_string(), trace::json_number),
                    m.unit,
                    m.detail.replace('"', "'")
                )
            })
            .collect::<Vec<_>>()
            .join(",\n  ")
    };
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"attempted\":{},\"failed\":{},\n \
         \"end_to_end\":{{\n  {}}},\n \"per_layer\":{{\n  {}}},\n \"spans\":{}}}\n",
        opts.workload.name(),
        opts.seed,
        report.attempted,
        report.failed,
        metrics(&report.end_to_end),
        metrics(&report.per_layer),
        trace::spans_json(client.tracer.spans())
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn written_bytes_counts_growth_and_rewrites() {
        let c = |before, after| CompactionReport {
            live_records: 1,
            reclaimed_records: 1,
            shards_rewritten: 2,
            bytes_before: before,
            bytes_after: after,
            generation: 1,
        };
        assert_eq!(written_bytes(100, 150, &[]), 50);
        assert_eq!(written_bytes(100, 90, &[c(200, 60)]), 100 + 60 + 30);
    }
}
