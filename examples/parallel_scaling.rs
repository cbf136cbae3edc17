//! Record-level parallelism (the Figure 3 experiment, at laptop scale) —
//! including over the real C1↔C2 transport boundary.
//!
//! The per-record work of both protocols is embarrassingly parallel; the paper
//! demonstrates a ~6× speedup of SkNN_b with 6 OpenMP threads. This example
//! measures the same effect with scoped threads on a synthetic dataset, first
//! against the in-process key holder, then over the pipelined channel and TCP
//! transports where every parallel worker multiplexes onto one connection: each
//! call stays one round trip, and concurrent calls overlap on the wire under
//! their correlation ids.
//!
//! Run with:
//! ```text
//! cargo run --release --example parallel_scaling
//! ```

use rand::SeedableRng;
use sknn::data::{uniform_query, SyntheticDataset};
use sknn::{DatasetOptions, FederationConfig, Protocol, SknnEngine, TransportKind};
use std::time::Instant;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);

    // A dataset big enough for threading to matter but small enough to finish
    // in seconds (the paper uses n up to 10 000; here SkNN_b at that size
    // takes minutes, and only SkNN_m's full grid takes hours).
    let n = 400;
    let m = 6;
    let l = 12;
    let dataset = SyntheticDataset::uniform(n, m, l, &mut rng);
    let query = uniform_query(m, dataset.max_value, &mut rng);
    let k = 5;

    let mut reference_records = None;
    for (label, transport) in [
        ("in-process", TransportKind::InProcess),
        ("channel", TransportKind::Channel),
        ("tcp", TransportKind::Tcp),
    ] {
        let options = DatasetOptions {
            max_query_value: dataset.max_value,
            ..Default::default()
        };
        let mut engine = SknnEngine::setup(
            FederationConfig {
                key_bits: 256,
                transport,
                // Sizes C2's request-serving pool for the widest sweep point
                // below; set_threads() then only rescales C1's workers.
                threads: 8,
                ..Default::default()
            },
            &mut rng,
        )
        .expect("setup");
        engine
            .register_dataset_with("synthetic", &dataset.table, options, &mut rng)
            .expect("outsource");

        println!("SkNN_b over n = {n}, m = {m}, k = {k}, K = 256 bits — {label} transport\n");
        println!(
            "{:>8}  {:>12}  {:>8}  {:>12}",
            "threads", "time", "speedup", "round trips"
        );

        let mut baseline = None;
        for threads in [1usize, 2, 4, 6, 8] {
            engine.set_threads(threads);
            let before = engine.comm_stats();
            let start = Instant::now();
            let result = engine
                .query("synthetic")
                .k(k)
                .point(&query)
                .protocol(Protocol::Basic)
                .run(&mut rng)
                .expect("query");
            let elapsed = start.elapsed();
            let base = *baseline.get_or_insert(elapsed);
            let round_trips = match (before, engine.comm_stats()) {
                (Some(b), Some(a)) => format!("{}", a.since(&b).requests),
                _ => "-".to_string(),
            };
            println!(
                "{threads:>8}  {elapsed:>12.2?}  {:>7.2}x  {round_trips:>12}",
                base.as_secs_f64() / elapsed.as_secs_f64()
            );

            // Neither parallelism nor the transport may change the answer.
            match &reference_records {
                None => reference_records = Some(result.result),
                Some(reference) => assert_eq!(&result.result, reference),
            }
        }
        println!();
    }

    println!("results are identical across thread counts and transports ✓");
}
