//! Regenerates every figure of the paper's evaluation (Section 5).
//!
//! ```text
//! cargo run --release -p sknn-bench --bin experiments -- <experiment> [--scale smoke|paper-shape|paper] [--json PATH]
//!
//! experiments:
//!   fig2a      SkNN_b time vs n for m ∈ {6,12,18}        (k = 5, small key)
//!   fig2b      SkNN_b time vs n for m ∈ {6,12,18}        (k = 5, large key)
//!   fig2c      SkNN_b time vs k for both key sizes        (m = 6)
//!   fig2d      SkNN_m time vs k for l ∈ {6,12}            (small key)
//!   fig2e      SkNN_m time vs k for l ∈ {6,12}            (large key)
//!   fig2f      SkNN_b vs SkNN_m time vs k                 (l = 6, small key)
//!   fig3       serial vs parallel SkNN_b time vs n        (k = 5, small key)
//!   breakdown  SMIN_n share of SkNN_m cost vs k           (Section 5.2 claim)
//!   bob-cost   Bob's query-encryption cost vs key size    (Section 5.2 claim)
//!   keysize    SkNN_b cost ratio when the key size doubles (Section 5.1 claim)
//!   batch      SkNN_b queries/sec through SknnEngine::run_batch at batch
//!              sizes 1 / 4 / 16 / 64, in-process vs the reactor-
//!              multiplexed Tcp wire                       (beyond the paper)
//!   inflight-scaling
//!              SkNN_b queries/sec and thread counts over Tcp at
//!              1 / 16 / 64 / 256 concurrent queries — one epoll thread
//!              serves every session                       (beyond the paper)
//!   shard-scaling
//!              SkNN_b queries/sec and per-stage/per-shard ciphertext
//!              counts over the sharded data plane, at shards ∈ {1,2,4}
//!              × sessions ∈ {1,2}                         (beyond the paper)
//!   chaos-smoke
//!              retry / failover counters from deterministic
//!              faulty runs through reactor fault plans    (beyond the paper)
//!   store-io   durable shard store throughput: persist / append+flush /
//!              reload / compact records-per-second and log bytes
//!              through the engine lifecycle                (beyond the paper)
//!   all        every experiment above, in order
//! ```
//!
//! Output is a whitespace-aligned table per experiment (one row per plotted
//! point), matching the series of the corresponding figure. In addition,
//! every measured point — per-stage wall time, ciphertexts on the wire, C2
//! decryption counts — is collected into a machine-readable JSON document
//! (default `BENCH_results.json`, override with `--json PATH`), so the perf
//! trajectory can be tracked across PRs. The `--scale` presets are described
//! in `sknn-bench`'s crate documentation and in EXPERIMENTS.md.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sknn_bench::report::BenchReport;
use sknn_bench::{
    build_instance, cached_keypair, run_basic, run_secure, secs, InstanceSpec, Scale, HARNESS_SEED,
};
use sknn_core::{QueryUser, Stage};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment = String::from("all");
    let mut scale = Scale::PaperShape;
    let mut json_path = String::from("BENCH_results.json");
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => {
                let value = iter.next().map(String::as_str).unwrap_or("");
                scale = Scale::parse(value).unwrap_or_else(|| {
                    eprintln!("unknown scale '{value}' (expected smoke | paper-shape | paper)");
                    std::process::exit(2);
                });
            }
            "--json" => {
                json_path = iter.next().cloned().unwrap_or_else(|| {
                    eprintln!("--json requires a path argument");
                    std::process::exit(2);
                });
            }
            "--help" | "-h" => {
                println!("see the module documentation at the top of experiments.rs");
                return;
            }
            name => experiment = name.to_string(),
        }
    }

    println!("# sknn experiment harness — scale: {scale:?}");
    println!("# (times in seconds; series match the figures of Elmehdwi et al., ICDE 2014)\n");

    let mut report = BenchReport::new(format!("{scale:?}"));
    match experiment.as_str() {
        "fig2a" => fig2ab(scale, false, &mut report),
        "fig2b" => fig2ab(scale, true, &mut report),
        "fig2c" => fig2c(scale, &mut report),
        "fig2d" => fig2de(scale, false, &mut report),
        "fig2e" => fig2de(scale, true, &mut report),
        "fig2f" => fig2f(scale, &mut report),
        "fig3" => fig3(scale, &mut report),
        "breakdown" => breakdown(scale, &mut report),
        "bob-cost" => bob_cost(scale, &mut report),
        "keysize" => keysize(scale, &mut report),
        "batch" => batch_throughput(scale, &mut report),
        "inflight-scaling" => inflight_scaling(scale, &mut report),
        "shard-scaling" => shard_scaling(scale, &mut report),
        "chaos-smoke" => chaos_smoke(scale, &mut report),
        "store-io" => store_io(scale, &mut report),
        "all" => {
            fig2ab(scale, false, &mut report);
            fig2ab(scale, true, &mut report);
            fig2c(scale, &mut report);
            fig2de(scale, false, &mut report);
            fig2de(scale, true, &mut report);
            fig2f(scale, &mut report);
            fig3(scale, &mut report);
            breakdown(scale, &mut report);
            bob_cost(scale, &mut report);
            keysize(scale, &mut report);
            batch_throughput(scale, &mut report);
            inflight_scaling(scale, &mut report);
            shard_scaling(scale, &mut report);
            chaos_smoke(scale, &mut report);
            store_io(scale, &mut report);
        }
        other => {
            eprintln!("unknown experiment '{other}'");
            std::process::exit(2);
        }
    }

    match report.write(&json_path) {
        Ok(()) => println!("# wrote {} entries to {json_path}", report.len()),
        Err(e) => eprintln!("# failed to write {json_path}: {e}"),
    }
}

/// Standard parameter set recorded with every query entry.
fn params(n: usize, m: usize, k: usize, l: usize, key_bits: usize) -> Vec<(&'static str, String)> {
    vec![
        ("n", n.to_string()),
        ("m", m.to_string()),
        ("k", k.to_string()),
        ("l", l.to_string()),
        ("K", key_bits.to_string()),
    ]
}

/// Figures 2(a) and 2(b): SkNN_b time vs number of records, one series per m.
fn fig2ab(scale: Scale, large_key: bool, report: &mut BenchReport) {
    let (small, large) = scale.key_sizes();
    let key_bits = if large_key { large } else { small };
    let fig = if large_key { "2(b)" } else { "2(a)" };
    let name = if large_key { "fig2b" } else { "fig2a" };
    let k = 5.min(scale.record_sweep()[0]);
    println!("## Figure {fig}: SkNN_b, k = {k}, K = {key_bits} bits");
    println!("{:>8} {:>6} {:>12}", "n", "m", "time_s");
    for &m in &scale.attribute_sweep() {
        for &n in &scale.record_sweep() {
            let instance = build_instance(InstanceSpec::new(n, m, 12, key_bits));
            let (elapsed, result) = run_basic(&instance, k);
            report.push_query(name, &params(n, m, k, 12, key_bits), elapsed, &result);
            println!("{n:>8} {m:>6} {:>12}", secs(elapsed));
        }
    }
    println!();
}

/// Figure 2(c): SkNN_b time vs k, one series per key size.
fn fig2c(scale: Scale, report: &mut BenchReport) {
    let (small, large) = scale.key_sizes();
    let n = scale.basic_k_sweep_records();
    println!("## Figure 2(c): SkNN_b, m = 6, n = {n}");
    println!("{:>8} {:>6} {:>12}", "k", "K", "time_s");
    for &key_bits in &[small, large] {
        let instance = build_instance(InstanceSpec::new(n, 6, 12, key_bits));
        for &k in &scale.k_sweep() {
            let k = k.min(n);
            let (elapsed, result) = run_basic(&instance, k);
            report.push_query("fig2c", &params(n, 6, k, 12, key_bits), elapsed, &result);
            println!("{k:>8} {key_bits:>6} {:>12}", secs(elapsed));
        }
    }
    println!();
}

/// Figures 2(d) and 2(e): SkNN_m time vs k, one series per l.
fn fig2de(scale: Scale, large_key: bool, report: &mut BenchReport) {
    let (small, large) = scale.key_sizes();
    let key_bits = if large_key { large } else { small };
    let fig = if large_key { "2(e)" } else { "2(d)" };
    let name = if large_key { "fig2e" } else { "fig2d" };
    let n = scale.secure_records();
    println!("## Figure {fig}: SkNN_m, m = 6, n = {n}, K = {key_bits} bits");
    println!("{:>8} {:>6} {:>12}", "k", "l", "time_s");
    for &l in &scale.distance_bit_sweep() {
        let instance = build_instance(InstanceSpec::new(n, 6, l, key_bits));
        for &k in &scale.k_sweep() {
            let k = k.min(n);
            let (elapsed, result) = run_secure(&instance, k, l);
            report.push_query(name, &params(n, 6, k, l, key_bits), elapsed, &result);
            println!("{k:>8} {l:>6} {:>12}", secs(elapsed));
        }
    }
    println!();
}

/// Figure 2(f): SkNN_b vs SkNN_m time vs k.
fn fig2f(scale: Scale, report: &mut BenchReport) {
    let (small, _) = scale.key_sizes();
    let n = scale.secure_records();
    let l = scale.distance_bit_sweep()[0];
    println!("## Figure 2(f): SkNN_b vs SkNN_m, m = 6, n = {n}, l = {l}, K = {small} bits");
    println!("{:>8} {:>12} {:>12}", "k", "basic_s", "secure_s");
    let instance = build_instance(InstanceSpec::new(n, 6, l, small));
    for &k in &scale.k_sweep() {
        let k = k.min(n);
        let (basic, basic_result) = run_basic(&instance, k);
        let (secure, secure_result) = run_secure(&instance, k, l);
        report.push_query(
            "fig2f-basic",
            &params(n, 6, k, l, small),
            basic,
            &basic_result,
        );
        report.push_query(
            "fig2f-secure",
            &params(n, 6, k, l, small),
            secure,
            &secure_result,
        );
        println!("{k:>8} {:>12} {:>12}", secs(basic), secs(secure));
    }
    println!();
}

/// Figure 3: serial vs parallel SkNN_b time vs n.
fn fig3(scale: Scale, report: &mut BenchReport) {
    let (small, _) = scale.key_sizes();
    let k = 5.min(scale.record_sweep()[0]);
    let threads = 6;
    println!("## Figure 3: SkNN_b serial vs parallel ({threads} threads), m = 6, k = {k}, K = {small} bits");
    println!(
        "{:>8} {:>12} {:>12} {:>9}",
        "n", "serial_s", "parallel_s", "speedup"
    );
    for &n in &scale.record_sweep() {
        let serial = build_instance(InstanceSpec::new(n, 6, 12, small));
        let (serial_time, serial_result) = run_basic(&serial, k);
        let parallel = build_instance(InstanceSpec {
            threads,
            ..InstanceSpec::new(n, 6, 12, small)
        });
        let (parallel_time, parallel_result) = run_basic(&parallel, k);
        let mut serial_params = params(n, 6, k, 12, small);
        serial_params.push(("threads", "1".to_string()));
        report.push_query("fig3", &serial_params, serial_time, &serial_result);
        let mut parallel_params = params(n, 6, k, 12, small);
        parallel_params.push(("threads", threads.to_string()));
        report.push_query("fig3", &parallel_params, parallel_time, &parallel_result);
        println!(
            "{n:>8} {:>12} {:>12} {:>8.2}x",
            secs(serial_time),
            secs(parallel_time),
            serial_time.as_secs_f64() / parallel_time.as_secs_f64()
        );
    }
    println!();
}

/// Section 5.2: the share of SkNN_m's cost spent inside SMIN_n grows from
/// ≈70% to ≈75% as k grows from 5 to 25.
fn breakdown(scale: Scale, report: &mut BenchReport) {
    let (small, _) = scale.key_sizes();
    let n = scale.secure_records();
    let l = scale.distance_bit_sweep()[0];
    println!(
        "## Cost breakdown of SkNN_m (Section 5.2), m = 6, n = {n}, l = {l}, K = {small} bits"
    );
    println!(
        "{:>8} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "k", "total_s", "smin_n_%", "ssed_%", "sbd_%", "other_%"
    );
    let ks = scale.k_sweep();
    let endpoints = [
        *ks.first().expect("non-empty sweep"),
        *ks.last().expect("non-empty sweep"),
    ];
    for &k in &endpoints {
        let k = k.min(n);
        let instance = build_instance(InstanceSpec::new(n, 6, l, small));
        let (elapsed, result) = run_secure(&instance, k, l);
        report.push_query("breakdown", &params(n, 6, k, l, small), elapsed, &result);
        let p = &result.profile;
        let smin = p.fraction(Stage::SecureMinimum) * 100.0;
        let ssed = p.fraction(Stage::DistanceComputation) * 100.0;
        let sbd = p.fraction(Stage::BitDecomposition) * 100.0;
        let other = 100.0 - smin - ssed - sbd;
        println!(
            "{k:>8} {:>12} {smin:>9.1}% {ssed:>9.1}% {sbd:>9.1}% {other:>9.1}%",
            secs(p.total())
        );
    }
    println!();
}

/// Section 5.2: Bob's only cost is encrypting his query (≈4 ms at K = 512,
/// ≈17 ms at K = 1024 for m = 6 in the paper).
fn bob_cost(scale: Scale, report: &mut BenchReport) {
    let (small, large) = scale.key_sizes();
    let m = 6;
    println!("## Bob's query-encryption cost (Section 5.2), m = {m}");
    println!("{:>8} {:>14}", "K", "encrypt_ms");
    for &key_bits in &[small, large] {
        let keypair = cached_keypair(key_bits);
        let user = QueryUser::new(keypair.public_key().clone());
        let mut rng = StdRng::seed_from_u64(HARNESS_SEED ^ 0xB0B);
        let query: Vec<u64> = (0..m as u64).map(|i| 37 * i + 5).collect();
        // Average over several encryptions for a stable number.
        let reps = 10;
        let start = Instant::now();
        for _ in 0..reps {
            // A failed encryption would make the timing figure meaningless;
            // fail loudly rather than timing 10 instant error returns.
            user.encrypt_query(&query, &mut rng)
                .expect("query values fit the key's message space");
        }
        let per_query = start.elapsed() / reps;
        report.push_duration(
            "bob-cost",
            &[("m", m.to_string()), ("K", key_bits.to_string())],
            per_query,
        );
        println!("{key_bits:>8} {:>14.2}", per_query.as_secs_f64() * 1000.0);
    }
    println!();
}

/// Beyond the paper: aggregate throughput of `SknnEngine::run_batch` —
/// whole SkNN_b queries fanned out across worker threads, reported as
/// queries/sec per batch size. Two series: the in-process baseline and
/// the reactor-multiplexed `Tcp` wire (real sockets, one epoll
/// thread serving every session).
fn batch_throughput(scale: Scale, report: &mut BenchReport) {
    use sknn_core::{
        DataOwner, DatasetOptions, FederationConfig, Protocol, ShardingConfig, SknnEngine,
        TransportKind,
    };
    use sknn_data::{uniform_query, SyntheticDataset};

    let (small, _) = scale.key_sizes();
    let n = scale.basic_k_sweep_records();
    let k = 5.min(n);
    println!(
        "## Batch throughput: SkNN_b via SknnEngine::run_batch, n = {n}, m = 6, k = {k}, \
         K = {small} bits"
    );
    println!(
        "{:>12} {:>8} {:>8} {:>12} {:>12}",
        "transport", "threads", "batch", "time_s", "queries/s"
    );

    for transport in [TransportKind::InProcess, TransportKind::Tcp] {
        let mut series: Vec<(usize, f64)> = Vec::new();
        let mut rng = StdRng::seed_from_u64(HARNESS_SEED ^ 0xBA7C);
        let dataset = SyntheticDataset::uniform(n, 6, 12, &mut rng);
        let owner = DataOwner::from_keypair(cached_keypair(small));
        let batches: &[usize] = &[1usize, 4, 16, 64];
        // Threads scale with the largest batch so the outer query fan-out —
        // not the thread budget — is what the sweep varies; the TCP wire
        // gets enough sessions for the scatter traffic to genuinely overlap.
        let threads = 8;
        let mut engine = SknnEngine::setup_with_owner(
            owner,
            FederationConfig {
                key_bits: small,
                threads,
                transport,
                sharding: if transport == TransportKind::Tcp {
                    ShardingConfig {
                        shards: 4,
                        sessions: 4,
                    }
                } else {
                    ShardingConfig::monolithic()
                },
                ..Default::default()
            },
        )
        .expect("engine setup");
        engine
            .register_dataset_with(
                "batch",
                &dataset.table,
                DatasetOptions {
                    distance_bits: Some(12),
                    max_query_value: dataset.max_value,
                },
                &mut rng,
            )
            .expect("register dataset");

        // Every batch size processes the SAME total query workload, chunked
        // differently: batch 1 issues 64 one-query run_batch calls, batch 64
        // issues a single 64-query call. Equal ~seconds-long measurement
        // windows make the points comparable; a lone 30 ms batch-1 window
        // would put scheduler jitter on the same order as the signal.
        let total = *batches.last().expect("non-empty batch sweep");
        let queries: Vec<_> = (0..total)
            .map(|_| {
                let q = uniform_query(6, dataset.max_value, &mut rng);
                engine
                    .query("batch")
                    .k(k)
                    .point(&q)
                    .protocol(Protocol::Basic)
                    .build()
                    .expect("validated query")
            })
            .collect();
        for &batch in batches {
            let reps = 3;
            let mut runs: Vec<(std::time::Duration, f64)> = Vec::with_capacity(reps);
            for _ in 0..reps {
                // Every configuration starts from the same warm-pool state:
                // without this, batch 1 ran against freshly prewarmed pools
                // while batch 16 inherited whatever the previous
                // configuration drained, making the queries/sec numbers
                // incomparable.
                engine.prewarm_pools(FederationConfig::default().pool_prewarm);
                let start = Instant::now();
                for chunk in queries.chunks(batch) {
                    let outcomes = engine.run_batch(chunk, &mut rng);
                    assert!(
                        outcomes.iter().all(Result::is_ok),
                        "every batch query succeeds"
                    );
                }
                let elapsed = start.elapsed();
                runs.push((elapsed, total as f64 / elapsed.as_secs_f64()));
            }
            runs.sort_by(|a, b| a.1.total_cmp(&b.1));
            let (elapsed, qps) = runs[runs.len() / 2];
            report.push_duration(
                "batch-throughput",
                &[
                    ("n", n.to_string()),
                    ("m", "6".to_string()),
                    ("k", k.to_string()),
                    ("K", small.to_string()),
                    ("transport", format!("{transport:?}")),
                    ("threads", threads.to_string()),
                    ("batch", batch.to_string()),
                    ("queries_per_sec", format!("{qps:.3}")),
                ],
                elapsed,
            );
            println!(
                "{:>12} {threads:>8} {batch:>8} {:>12} {qps:>12.3}",
                format!("{transport:?}"),
                secs(elapsed)
            );
            series.push((batch, qps));
        }
        if transport == TransportKind::Tcp {
            // The acceptance contract for the reactor: batching must buy
            // throughput. A batch of one cannot overlap round trips, so the
            // saturated throughput (anywhere later in the sweep) exceeding
            // the batch-1 point demonstrates the pipeline is real.
            let single = series.first().map(|&(_, q)| q).unwrap_or(0.0);
            let saturated = series
                .iter()
                .skip(1)
                .map(|&(_, q)| q)
                .fold(0.0f64, f64::max);
            assert!(
                saturated > single,
                "Tcp throughput must rise with batch: batch-1 {single:.3} q/s, \
                 best batched {saturated:.3} q/s"
            );
        }
    }
    println!();
}

/// Counts live threads whose name matches `name` exactly (via
/// `/proc/self/task/*/comm`); `None` matches every thread.
fn named_threads(name: Option<&str>) -> usize {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    dir.filter(|entry| {
        let Ok(entry) = entry else { return false };
        match name {
            None => true,
            Some(name) => std::fs::read_to_string(entry.path().join("comm"))
                .map(|comm| comm.trim() == name)
                .unwrap_or(false),
        }
    })
    .count()
}

/// Beyond the paper: in-flight scaling of the reactor transport.
/// `c` concurrent SkNN_b queries are pushed through one `Tcp` engine
/// (4 shards × 4 sessions, one epoll thread serving all of them) at
/// c ∈ {1, 16, 64, 256}; reported are queries/sec, the peak process
/// thread count while the batch is in flight, and the reactor thread
/// count (always 1 — C1's transport thread cost is O(1) in both sessions
/// and load).
fn inflight_scaling(scale: Scale, report: &mut BenchReport) {
    use sknn_core::{
        DataOwner, DatasetOptions, FederationConfig, Protocol, ShardingConfig, SknnEngine,
        TransportKind,
    };
    use sknn_data::{uniform_query, SyntheticDataset};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let (small, _) = scale.key_sizes();
    let n = scale.basic_k_sweep_records();
    let k = 5.min(n);
    println!(
        "## In-flight scaling: SkNN_b over Tcp, n = {n}, m = 6, k = {k}, K = {small} bits, \
         4 shards x 4 sessions, threads = concurrency"
    );
    println!(
        "{:>12} {:>12} {:>12} {:>14} {:>16}",
        "concurrency", "time_s", "queries/s", "peak_threads", "reactor_threads"
    );

    for &concurrency in &[1usize, 16, 64, 256] {
        let mut rng = StdRng::seed_from_u64(HARNESS_SEED ^ 0x1F11);
        let dataset = SyntheticDataset::uniform(n, 6, 12, &mut rng);
        let owner = DataOwner::from_keypair(cached_keypair(small));
        let mut engine = SknnEngine::setup_with_owner(
            owner,
            FederationConfig {
                key_bits: small,
                threads: concurrency,
                transport: TransportKind::Tcp,
                sharding: ShardingConfig {
                    shards: 4,
                    sessions: 4,
                },
                ..Default::default()
            },
        )
        .expect("engine setup");
        engine
            .register_dataset_with(
                "inflight",
                &dataset.table,
                DatasetOptions {
                    distance_bits: Some(12),
                    max_query_value: dataset.max_value,
                },
                &mut rng,
            )
            .expect("register dataset");
        let queries: Vec<_> = (0..concurrency)
            .map(|_| {
                let q = uniform_query(6, dataset.max_value, &mut rng);
                engine
                    .query("inflight")
                    .k(k)
                    .point(&q)
                    .protocol(Protocol::Basic)
                    .build()
                    .expect("validated query")
            })
            .collect();
        engine.prewarm_pools(FederationConfig::default().pool_prewarm);

        let stop = Arc::new(AtomicBool::new(false));
        let sampler = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut peak_threads = 0usize;
                let mut peak_reactors = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    peak_threads = peak_threads.max(named_threads(None));
                    peak_reactors = peak_reactors.max(named_threads(Some("sknn-reactor")));
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                (peak_threads, peak_reactors)
            })
        };
        let start = Instant::now();
        let outcomes = engine.run_batch(&queries, &mut rng);
        let elapsed = start.elapsed();
        stop.store(true, Ordering::Relaxed);
        let (peak_threads, sampled_reactors) = sampler.join().expect("sampler");
        // The batch may finish before the sampler's first tick at
        // concurrency 1; the engine is still alive here, so the reactor
        // thread is countable directly.
        let reactor_threads = named_threads(Some("sknn-reactor")).max(sampled_reactors);
        assert!(
            outcomes.iter().all(Result::is_ok),
            "every in-flight query succeeds"
        );
        assert_eq!(reactor_threads, 1, "one reactor thread regardless of load");
        let qps = concurrency as f64 / elapsed.as_secs_f64();
        report.push_duration(
            "inflight-scaling",
            &[
                ("n", n.to_string()),
                ("m", "6".to_string()),
                ("k", k.to_string()),
                ("K", small.to_string()),
                ("transport", "Tcp".to_string()),
                ("concurrency", concurrency.to_string()),
                ("queries_per_sec", format!("{qps:.3}")),
                ("peak_threads", peak_threads.to_string()),
                ("reactor_threads", reactor_threads.to_string()),
            ],
            elapsed,
        );
        println!(
            "{concurrency:>12} {:>12} {qps:>12.3} {peak_threads:>14} {reactor_threads:>16}",
            secs(elapsed)
        );
    }
    println!();
}

/// Beyond the paper: the sharded data plane. SkNN_b batch throughput and
/// per-stage/per-shard ciphertext counts at shards ∈ {1, 2, 4} ×
/// sessions ∈ {1, 2}, over the Channel transport so multiple sessions are
/// real independent wires with traffic accounting.
fn shard_scaling(scale: Scale, report: &mut BenchReport) {
    use sknn_core::{
        DataOwner, DatasetOptions, FederationConfig, Protocol, ShardingConfig, SknnEngine,
        TransportKind,
    };
    use sknn_data::{uniform_query, SyntheticDataset};

    let (small, _) = scale.key_sizes();
    let n = scale.basic_k_sweep_records();
    let k = 5.min(n);
    let threads = 4;
    let batch = match scale {
        Scale::Smoke => 4,
        _ => 16,
    };
    println!(
        "## Shard scaling: SkNN_b over the sharded data plane, n = {n}, m = 6, k = {k}, \
         K = {small} bits, {threads} threads, batch = {batch}, Channel transport"
    );
    println!(
        "{:>8} {:>10} {:>12} {:>12}",
        "shards", "sessions", "time_s", "queries/s"
    );

    let mut rng = StdRng::seed_from_u64(HARNESS_SEED ^ 0x5A4D);
    let dataset = SyntheticDataset::uniform(n, 6, 12, &mut rng);
    let prewarm = FederationConfig::default().pool_prewarm;

    for &shards in &[1usize, 2, 4] {
        for &sessions in &[1usize, 2] {
            let owner = DataOwner::from_keypair(cached_keypair(small));
            let mut engine = SknnEngine::setup_with_owner(
                owner,
                FederationConfig {
                    key_bits: small,
                    threads,
                    transport: TransportKind::Channel,
                    sharding: ShardingConfig { shards, sessions },
                    ..Default::default()
                },
            )
            .expect("engine setup");
            engine
                .register_dataset_with(
                    "shard",
                    &dataset.table,
                    DatasetOptions {
                        distance_bits: Some(12),
                        max_query_value: dataset.max_value,
                    },
                    &mut rng,
                )
                .expect("register dataset");

            let config_params = |extra: &[(&'static str, String)]| {
                let mut p = vec![
                    ("n", n.to_string()),
                    ("m", "6".to_string()),
                    ("k", k.to_string()),
                    ("K", small.to_string()),
                    ("threads", threads.to_string()),
                    ("shards", shards.to_string()),
                    ("sessions", sessions.to_string()),
                ];
                p.extend(extra.iter().cloned());
                p
            };

            // One profiled query: per-stage wall time plus the per-stage
            // and per-shard ciphertext counters (scatter vs gather volume).
            engine.prewarm_pools(prewarm);
            let q = uniform_query(6, dataset.max_value, &mut rng);
            let prepared = engine
                .query("shard")
                .k(k)
                .point(&q)
                .protocol(Protocol::Basic)
                .build()
                .expect("validated query");
            let start = Instant::now();
            let outcome = engine.run(&prepared, &mut rng).expect("profiled query");
            let profile_elapsed = start.elapsed();
            report.push_query(
                "shard-scaling-profile",
                &config_params(&[]),
                profile_elapsed,
                &outcome,
            );

            // Batch throughput over the shard-stage scheduler, from the
            // same warm-pool state in every configuration.
            let queries: Vec<_> = (0..batch)
                .map(|_| {
                    let q = uniform_query(6, dataset.max_value, &mut rng);
                    engine
                        .query("shard")
                        .k(k)
                        .point(&q)
                        .protocol(Protocol::Basic)
                        .build()
                        .expect("validated query")
                })
                .collect();
            engine.prewarm_pools(prewarm);
            let start = Instant::now();
            let outcomes = engine.run_batch(&queries, &mut rng);
            let elapsed = start.elapsed();
            assert!(
                outcomes.iter().all(Result::is_ok),
                "every shard-scaling query succeeds"
            );
            let qps = batch as f64 / elapsed.as_secs_f64();
            report.push_duration(
                "shard-scaling",
                &config_params(&[
                    ("batch", batch.to_string()),
                    ("queries_per_sec", format!("{qps:.3}")),
                ]),
                elapsed,
            );
            println!(
                "{shards:>8} {sessions:>10} {:>12} {qps:>12.3}",
                secs(elapsed)
            );
        }
    }
    println!();
}

/// Section 5.1: doubling the key size multiplies SkNN_b's cost by ≈7.
fn keysize(scale: Scale, report: &mut BenchReport) {
    let (small, large) = scale.key_sizes();
    let n = scale.basic_k_sweep_records();
    let k = 5.min(n);
    println!("## Key-size scaling of SkNN_b (Section 5.1), n = {n}, m = 6, k = {k}");
    println!("{:>8} {:>12}", "K", "time_s");
    let small_instance = build_instance(InstanceSpec::new(n, 6, 12, small));
    let (small_time, small_result) = run_basic(&small_instance, k);
    report.push_query(
        "keysize",
        &params(n, 6, k, 12, small),
        small_time,
        &small_result,
    );
    println!("{small:>8} {:>12}", secs(small_time));
    let large_instance = build_instance(InstanceSpec::new(n, 6, 12, large));
    let (large_time, large_result) = run_basic(&large_instance, k);
    report.push_query(
        "keysize",
        &params(n, 6, k, 12, large),
        large_time,
        &large_result,
    );
    println!("{large:>8} {:>12}", secs(large_time));
    println!(
        "# ratio when K doubles: {:.2}x (paper reports ≈7x)",
        large_time.as_secs_f64() / small_time.as_secs_f64()
    );
    println!();
}

/// Beyond the paper: the fault-tolerance layer under deterministic faults.
/// Two smoke-scale scenarios through reactor fault plans: a corrupted
/// frame absorbed by retry-in-place, and a severed session whose shards
/// fail over to the survivor mid-batch. Every point records the pool's
/// resilience counters (retries / failovers) alongside wall
/// time, so the recovery cost is tracked across PRs like any other curve.
fn chaos_smoke(scale: Scale, report: &mut BenchReport) {
    use sknn_core::{
        DataOwner, FederationConfig, LocalKeyHolder, PoolConfig, Protocol, RetryPolicy,
        ShardingConfig, SknnEngine, TransportKind,
    };
    use sknn_data::{uniform_query, SyntheticDataset};
    use sknn_protocols::transport::{FaultPlan, Loopback, SessionPool};
    use std::time::Duration;

    let (small, _) = scale.key_sizes();
    let n = 8;
    let k = 2;
    let retry = RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_millis(2),
        deadline: Some(Duration::from_millis(500)),
    };
    println!(
        "## Chaos smoke: resilience counters under injected faults, n = {n}, m = 6, k = {k}, \
         K = {small} bits, Channel transport"
    );
    println!(
        "{:>16} {:>12} {:>9} {:>10}",
        "scenario", "time_s", "retries", "failovers"
    );

    let mut rng = StdRng::seed_from_u64(HARNESS_SEED ^ 0xC4A0);
    let dataset = SyntheticDataset::uniform(n, 6, 12, &mut rng);
    let owner = DataOwner::from_keypair(cached_keypair(small));

    // Stands up an engine whose session `i` runs over a fault-injecting
    // wire when `plans[i]` is set; `plans.len()` sessions in total.
    let build = |plans: &[Option<FaultPlan>], shards: usize, rng: &mut StdRng| -> SknnEngine {
        let holders = (0..plans.len())
            .map(|i| LocalKeyHolder::new(owner.private_key().clone(), 0xC2_0000 + i as u64))
            .collect();
        let loopback = Loopback {
            workers: 2,
            faults: plans.to_vec(),
            ..Loopback::default()
        };
        let pool = SessionPool::channel(holders, &loopback).expect("assemble pool");
        let config = FederationConfig {
            key_bits: small,
            max_query_value: dataset.max_value,
            transport: TransportKind::Channel,
            threads: 2,
            sharding: ShardingConfig {
                shards,
                sessions: plans.len(),
            },
            pool: PoolConfig {
                capacity: 0,
                ..Default::default()
            },
            pool_prewarm: 0,
            retry,
            ..Default::default()
        };
        let mut engine = SknnEngine::setup_with_sessions(owner.clone(), config, pool)
            .expect("chaos engine setup");
        engine
            .register_dataset("chaos", &dataset.table, rng)
            .expect("register dataset");
        engine
    };

    // Scenario 1: one session, one corrupted frame mid-query — the typed
    // remote error is retried in place and the query completes.
    // Scenario 2: two sessions, session 1 severed mid-batch — its shards
    // re-pin onto the survivor and every query in the batch completes.
    let scenarios: [(&str, Vec<Option<FaultPlan>>, usize, usize); 2] = [
        ("corrupt-retry", vec![Some(FaultPlan::corrupt_at(2))], 1, 1),
        (
            "sever-failover",
            vec![None, Some(FaultPlan::sever_at(1))],
            4,
            3,
        ),
    ];
    for (name, plans, shards, batch) in scenarios {
        let engine = build(&plans, shards, &mut rng);
        let queries: Vec<_> = (0..batch)
            .map(|_| {
                let q = uniform_query(6, dataset.max_value, &mut rng);
                engine
                    .query("chaos")
                    .k(k)
                    .point(&q)
                    .protocol(Protocol::Basic)
                    .build()
                    .expect("validated query")
            })
            .collect();
        let start = Instant::now();
        let outcomes = engine.run_batch(&queries, &mut rng);
        let elapsed = start.elapsed();
        let mut shard_failovers = 0usize;
        let mut stage_retries = 0usize;
        for outcome in &outcomes {
            let outcome = outcome.as_ref().expect("every chaos-smoke query recovers");
            shard_failovers += outcome.retries.failed_over_shards().len();
            stage_retries += outcome.retries.stage_retries.len();
        }
        let comm = engine
            .comm_stats()
            .expect("channel transport keeps traffic accounting");
        report.push_duration(
            "chaos-smoke",
            &[
                ("scenario", name.to_string()),
                ("n", n.to_string()),
                ("k", k.to_string()),
                ("K", small.to_string()),
                ("sessions", plans.len().to_string()),
                ("shards", shards.to_string()),
                ("batch", batch.to_string()),
                ("retries", comm.retries.to_string()),
                ("failovers", comm.failovers.to_string()),
                ("stage_retries", stage_retries.to_string()),
                ("shard_failovers", shard_failovers.to_string()),
            ],
            elapsed,
        );
        println!(
            "{name:>16} {:>12} {:>9} {:>10}",
            secs(elapsed),
            comm.retries,
            comm.failovers
        );
    }
    println!();
}

/// Beyond the paper: throughput of the durable shard store
/// (`crates/store`) through the engine lifecycle — persist (encrypt +
/// write-ahead registration), append+flush batches, crash-safe reload
/// via `open_dir`, and compaction after tombstoning half the records.
/// Encryption cost is kept out of the append/flush and reload phases
/// (records are encrypted before the timer starts; reload parses logs
/// without any Paillier work), so those rows track disk-format cost,
/// not crypto.
fn store_io(scale: Scale, report: &mut BenchReport) {
    use sknn_core::{DataOwner, FederationConfig, ShardingConfig, SknnEngine, TransportKind};
    use sknn_data::{uniform_query, SyntheticDataset};

    let (small, _) = scale.key_sizes();
    let (n, batches, batch) = match scale {
        Scale::Smoke => (48usize, 4usize, 8usize),
        Scale::PaperShape => (400, 8, 16),
        Scale::Paper => (4000, 16, 64),
    };
    let m = 6;
    let shards = 4;
    let root = std::env::temp_dir().join(format!("sknn-store-io-{}", std::process::id()));
    if root.exists() {
        let _ = std::fs::remove_dir_all(&root);
    }
    let log_bytes = |root: &std::path::Path| -> u64 {
        std::fs::read_dir(root.join("store-io"))
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok().and_then(|e| e.metadata().ok()))
                    .map(|meta| meta.len())
                    .sum()
            })
            .unwrap_or(0)
    };

    println!(
        "## Store I/O: durable shard store throughput, n = {n}, m = {m}, shards = {shards}, \
         K = {small} bits, append batches = {batches} × {batch}"
    );
    println!(
        "{:>14} {:>12} {:>9} {:>12} {:>12}",
        "phase", "time_s", "records", "records/s", "log_bytes"
    );

    let mut rng = StdRng::seed_from_u64(HARNESS_SEED ^ 0x570);
    let dataset = SyntheticDataset::uniform(n, m, 12, &mut rng);
    let owner = DataOwner::from_keypair(cached_keypair(small));
    let config = FederationConfig {
        key_bits: small,
        max_query_value: dataset.max_value,
        transport: TransportKind::InProcess,
        sharding: ShardingConfig {
            shards,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut row = |phase: &str, elapsed: std::time::Duration, records: usize, bytes: u64| {
        let rate = records as f64 / elapsed.as_secs_f64().max(1e-9);
        report.push_duration(
            "store-io",
            &[
                ("phase", phase.to_string()),
                ("n", n.to_string()),
                ("m", m.to_string()),
                ("K", small.to_string()),
                ("shards", shards.to_string()),
                ("records", records.to_string()),
                ("records_per_s", format!("{rate:.1}")),
                ("log_bytes", bytes.to_string()),
            ],
            elapsed,
        );
        println!(
            "{phase:>14} {:>12} {records:>9} {rate:>12.1} {bytes:>12}",
            secs(elapsed)
        );
    };

    // Persist: encrypt the table and write it ahead to the shard logs.
    let mut engine =
        SknnEngine::open_dir(owner.clone(), config.clone(), &root).expect("open store root");
    let start = Instant::now();
    engine
        .register_dataset_persistent("store-io", &dataset.table, &mut rng)
        .expect("persistent registration");
    row("persist", start.elapsed(), n, log_bytes(&root));

    // Append + flush: records are pre-encrypted so the timer sees only
    // the write-ahead path (encode, append, fsync per touched shard).
    let appended = batches * batch;
    let pre_encrypted: Vec<Vec<_>> = (0..batches)
        .map(|_| {
            (0..batch)
                .map(|_| {
                    let record = uniform_query(m, dataset.max_value, &mut rng);
                    engine
                        .owner()
                        .encrypt_record(&record, &mut rng)
                        .expect("encrypt record")
                })
                .collect()
        })
        .collect();
    let start = Instant::now();
    for records in pre_encrypted {
        engine
            .append_records("store-io", records)
            .expect("durable append");
        engine.flush().expect("flush");
    }
    row("append-flush", start.elapsed(), appended, log_bytes(&root));

    // Reload: drop the engine and recover the dataset from disk alone.
    drop(engine);
    let total = n + appended;
    let start = Instant::now();
    let mut engine =
        SknnEngine::open_dir(owner.clone(), config.clone(), &root).expect("reload store root");
    let elapsed = start.elapsed();
    assert!(
        engine
            .recovery_report("store-io")
            .expect("recovery report")
            .is_clean(),
        "a flushed store must reload clean"
    );
    row("reload", elapsed, total, log_bytes(&root));

    // Compact: tombstone every other record, then reclaim the bytes.
    for index in (0..total).step_by(2) {
        engine
            .tombstone_record("store-io", index)
            .expect("tombstone");
    }
    let start = Instant::now();
    let compaction = engine.compact_dataset("store-io").expect("compact");
    row(
        "compact",
        start.elapsed(),
        compaction.reclaimed_records as usize,
        log_bytes(&root),
    );

    // Reload the compacted generation: parse cost scales with live data.
    drop(engine);
    let start = Instant::now();
    let engine = SknnEngine::open_dir(owner, config, &root).expect("reload compacted");
    let elapsed = start.elapsed();
    let live = engine
        .dataset("store-io")
        .expect("dataset")
        .num_physical_records();
    row("reload-compact", elapsed, live, log_bytes(&root));
    drop(engine);
    let _ = std::fs::remove_dir_all(&root);
    println!();
}
