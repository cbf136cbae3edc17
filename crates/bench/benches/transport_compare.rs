//! Transport comparison: serial vs parallel SkNN_b over the in-process,
//! channel, and TCP transports, with round-trip accounting.
//!
//! Two claims are exercised:
//!
//! 1. With the pipelined session client, the record-parallel SkNN_b run
//!    (6 threads, as in the paper's Figure 3) speeds up over *remote*
//!    transports too, not only against the in-process key holder.
//! 2. Every C1↔C2 call is one pipelined round trip, so the round trips per
//!    query depend on the query plan alone: the serial and parallel rows
//!    print the same count next to their timings.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sknn_bench::{build_instance, time_basic, Instance, InstanceSpec};
use sknn_core::TransportKind;
use std::hint::black_box;

const RECORDS: usize = 40;
const ATTRIBUTES: usize = 6;
const DISTANCE_BITS: usize = 10;
const KEY_BITS: usize = 128;
const K: usize = 5;

fn spec(transport: TransportKind, threads: usize) -> InstanceSpec {
    InstanceSpec {
        threads,
        transport,
        ..InstanceSpec::new(RECORDS, ATTRIBUTES, DISTANCE_BITS, KEY_BITS)
    }
}

/// One measured query's round trips and bytes, from the engine's
/// cumulative counters.
fn query_comm(instance: &Instance) -> Option<(u64, u64)> {
    let before = instance.engine.comm_stats()?;
    let _ = time_basic(instance, K);
    let after = instance.engine.comm_stats()?;
    let delta = after.since(&before);
    Some((delta.requests, delta.total_bytes()))
}

fn bench_transports(c: &mut Criterion) {
    let mut group = c.benchmark_group("transport/sknnb");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(300));
    for (label, transport) in [
        ("local", TransportKind::InProcess),
        ("channel", TransportKind::Channel),
        ("tcp", TransportKind::Tcp),
    ] {
        for threads in [1usize, 6] {
            let instance = build_instance(spec(transport, threads));
            group.bench_with_input(BenchmarkId::new(label, threads), &threads, |bench, _| {
                bench.iter(|| black_box(time_basic(&instance, K)))
            });
            if let Some((round_trips, bytes)) = query_comm(&instance) {
                println!(
                    "    {label}/{threads}: {round_trips} round trips, {bytes} bytes per query"
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_transports);
criterion_main!(benches);
