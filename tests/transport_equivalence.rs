//! Transport-equivalence suite: the remote wires against the in-process
//! reference and the plaintext oracle.
//!
//! `Channel` and `Tcp` run every C1 session on one readiness-driven reactor
//! thread; only the socket differs (an in-process socketpair vs loopback
//! TCP). The contract under test is strict:
//!
//! 1. **Identical answers**: both wires return exactly what `InProcess`
//!    and `plain_knn_records` return, across {Basic, Secure} × shards
//!    {1, 4} × k {1, 3}.
//! 2. **Identical traffic** in the serial case: a serial C1 issues the same
//!    frames in the same order on either wire, so the comm counters must
//!    agree exactly — and each client's counters must equal its server
//!    endpoint's.
//! 3. **Backpressure is typed, never a hang**: a window of one still
//!    completes; the admission gate composes with the reactor.
//! 4. **O(1) C1 transport threads**: every session — and hundreds of
//!    concurrent queries — are served by exactly one `sknn-reactor`
//!    thread.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sknn::protocols::stats::CommStats;
use sknn::protocols::transport::{
    serve, BackpressureConfig, Loopback, Reactor, SessionKeyHolder, SessionPool, TcpTransport,
};
use sknn::{
    plain_knn_records, DataOwner, DatasetOptions, FederationConfig, LocalKeyHolder, PoolConfig,
    Protocol, ShardingConfig, SknnEngine, Table, TransportKind,
};
use std::net::TcpListener;
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Serializes the suite: the thread-count assertions need the process to
/// themselves, and engines are thread-hungry anyway.
static LOCK: Mutex<()> = Mutex::new(());
static OWNER: OnceLock<DataOwner> = OnceLock::new();

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn owner() -> DataOwner {
    OWNER
        .get_or_init(|| DataOwner::new(96, &mut StdRng::seed_from_u64(0xEC_u64)))
        .clone()
}

/// 8 records with pairwise-distinct squared distances from the query, so
/// both protocols have exactly one correct answer for every k and any
/// scheduling-induced deviation is visible immediately.
fn table() -> Table {
    Table::new(
        (0..8u64)
            .map(|i| vec![i, (i * i * 3 + i) % 29])
            .collect::<Vec<_>>(),
    )
    .unwrap()
}

const QUERY: [u64; 2] = [4, 4];
const MAX_VALUE: u64 = 28;
const OPTIONS: DatasetOptions = DatasetOptions {
    distance_bits: None,
    max_query_value: MAX_VALUE,
};

fn config(transport: TransportKind, shards: usize, sessions: usize) -> FederationConfig {
    FederationConfig {
        key_bits: 96,
        transport,
        threads: 2,
        sharding: ShardingConfig { shards, sessions },
        pool: PoolConfig {
            capacity: 0,
            ..Default::default()
        },
        pool_prewarm: 0,
        ..Default::default()
    }
}

fn register(mut engine: SknnEngine) -> SknnEngine {
    let mut rng = StdRng::seed_from_u64(0xD47A);
    engine
        .register_dataset_with("t", &table(), OPTIONS, &mut rng)
        .expect("register");
    engine
}

fn engine(transport: TransportKind, shards: usize, threads: usize) -> SknnEngine {
    let config = FederationConfig {
        threads,
        ..config(transport, shards, shards.min(2))
    };
    register(SknnEngine::setup_with_owner(owner(), config).expect("engine"))
}

fn run_one(engine: &SknnEngine, protocol: Protocol, k: usize, seed: u64) -> Vec<Vec<u64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    engine
        .query("t")
        .k(k)
        .point(&QUERY)
        .protocol(protocol)
        .run(&mut rng)
        .expect("query")
        .result
}

/// Names of this process's live threads that the library spawned (every
/// library thread is named `sknn-…`; test-harness threads are not).
fn sknn_threads() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("read task dir")
        .filter_map(|entry| std::fs::read_to_string(entry.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim().to_string())
        .filter(|comm| comm.starts_with("sknn-"))
        .collect()
}

fn reactor_thread_count() -> usize {
    sknn_threads()
        .iter()
        .filter(|name| *name == "sknn-reactor")
        .count()
}

/// Both remote wires return exactly the in-process answer and the
/// plaintext oracle's, across both protocols, sharded and unsharded
/// layouts, and two values of k.
#[test]
fn channel_and_tcp_match_in_process_and_plaintext() {
    let _guard = lock();
    for shards in [1usize, 4] {
        let reference = engine(TransportKind::InProcess, shards, 2);
        for transport in [TransportKind::Channel, TransportKind::Tcp] {
            let candidate = engine(transport, shards, 2);
            for protocol in [Protocol::Basic, Protocol::Secure] {
                for k in [1usize, 3] {
                    let seed = 0x9000 + k as u64;
                    let expected = run_one(&reference, protocol, k, seed);
                    let label = format!("{transport:?} / {protocol:?} / shards={shards} / k={k}");
                    assert_eq!(run_one(&candidate, protocol, k, seed), expected, "{label}");
                    // Equal wrong answers would otherwise pass.
                    assert_eq!(
                        expected,
                        plain_knn_records(&table(), &QUERY, k).unwrap(),
                        "{label}"
                    );
                }
            }
        }
    }
}

/// A single-session serial engine over `transport` whose server endpoint's
/// traffic counters arrive on the returned channel once it is connected.
fn engine_with_server_stats(
    transport: TransportKind,
) -> (SknnEngine, mpsc::Receiver<Arc<CommStats>>) {
    let owner = owner();
    let holder = LocalKeyHolder::new(owner.private_key().clone(), 0x5E4);
    let (stats_tx, stats_rx) = mpsc::channel();
    let reactor = Reactor::new().expect("reactor");
    let backpressure = BackpressureConfig::default();
    let (conn, server) = match transport {
        TransportKind::Channel => {
            let (conn, server_end) = reactor.channel_pair(backpressure, None).expect("pair");
            let server = std::thread::Builder::new()
                .name("sknn-c2-chan-0".into())
                .spawn(move || {
                    let _ = stats_tx.send(server_end.stats());
                    serve(&server_end, &holder, 1)
                })
                .expect("spawn server");
            (conn, server)
        }
        TransportKind::Tcp => {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("addr");
            let server = std::thread::Builder::new()
                .name("sknn-c2-tcp-0".into())
                .spawn(move || {
                    let server_end = TcpTransport::accept(&listener)?;
                    let _ = stats_tx.send(server_end.stats());
                    serve(&server_end, &holder, 1)
                })
                .expect("spawn server");
            let conn = reactor
                .dial_tcp(&addr.to_string(), backpressure)
                .expect("dial");
            (conn, server)
        }
        TransportKind::InProcess => unreachable!("no wire to count"),
    };
    let client = SessionKeyHolder::connect(owner.public_key().clone(), conn);
    let pool = SessionPool::from_parts(vec![client], vec![server])
        .expect("pool")
        .with_reactor(reactor);
    let config = FederationConfig {
        threads: 1,
        ..config(transport, 1, 1)
    };
    let engine = SknnEngine::setup_with_sessions(owner, config, pool).expect("engine");
    (register(engine), stats_rx)
}

/// A serial C1 issues the same frames in the same order on either wire,
/// so the traffic counters — requests, responses, bytes each way — must
/// agree exactly between `Channel` and `Tcp`, and every client's counters
/// must equal its server endpoint's byte for byte.
#[test]
fn serial_traffic_counters_are_identical() {
    let _guard = lock();
    for protocol in [Protocol::Basic, Protocol::Secure] {
        let mut per_wire = Vec::new();
        for transport in [TransportKind::Channel, TransportKind::Tcp] {
            let (engine, server_stats) = engine_with_server_stats(transport);
            let result = run_one(&engine, protocol, 2, 0x7E57);
            assert_eq!(result, plain_knn_records(&table(), &QUERY, 2).unwrap());
            let client = engine.comm_stats().expect("accounting");
            let server = server_stats.recv().expect("server connected");
            // Dropping the engine joins the server, so its last response
            // is counted before the comparison.
            drop(engine);
            let server = server.snapshot();
            let label = format!("{transport:?} {protocol:?}");
            assert_eq!(
                (client.requests, client.request_bytes),
                (server.requests, server.request_bytes),
                "{label}: client and server disagree on requests"
            );
            assert_eq!(
                (client.responses, client.response_bytes),
                (server.responses, server.response_bytes),
                "{label}: client and server disagree on responses"
            );
            per_wire.push(server);
        }
        assert_eq!(
            per_wire[0], per_wire[1],
            "{protocol:?}: Channel vs Tcp traffic diverged"
        );
    }
}

/// Four `Tcp` sessions run on exactly one `sknn-reactor` thread: apart
/// from the C2 servers and their workers, the reactor is the only library
/// thread — no per-session transport thread exists — and dropping the
/// engine reaps every one of them.
#[test]
fn tcp_sessions_share_one_reactor_thread() {
    let _guard = lock();
    let baseline = sknn_threads().len();
    let engine = register(
        SknnEngine::setup_with_owner(owner(), config(TransportKind::Tcp, 4, 4)).expect("engine"),
    );
    assert_eq!(engine.num_sessions(), 4);
    assert_eq!(
        run_one(&engine, Protocol::Basic, 2, 0x4EAC),
        plain_knn_records(&table(), &QUERY, 2).unwrap()
    );
    let c1_side: Vec<String> = sknn_threads()
        .into_iter()
        .filter(|name| !name.starts_with("sknn-c2-"))
        .collect();
    assert_eq!(
        c1_side,
        vec!["sknn-reactor".to_string()],
        "C1 transport threads"
    );
    drop(engine);
    let deadline = Instant::now() + Duration::from_secs(10);
    while sknn_threads().len() > baseline {
        assert!(
            Instant::now() < deadline,
            "leaked threads: {:?}",
            sknn_threads()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The headline scaling claim: hundreds of concurrent in-flight queries
/// across several sessions are demultiplexed by **one** reactor thread,
/// whose count is independent of both sessions and load.
#[test]
fn many_inflight_queries_one_reactor_thread() {
    let _guard = lock();
    let engine = engine(TransportKind::Tcp, 4, 256);
    assert_eq!(
        reactor_thread_count(),
        1,
        "4 sessions must share one reactor thread"
    );
    let queries: Vec<_> = (0..256usize)
        .map(|i| {
            engine
                .query("t")
                .k(1 + i % 3)
                .point(&QUERY)
                .protocol(Protocol::Basic)
                .build()
                .expect("build")
        })
        .collect();
    // Sample the reactor thread count while the batch is in flight: it
    // must never grow with load.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let peak = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut peak = 0usize;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                peak = peak.max(reactor_thread_count());
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            peak
        })
    };
    let mut rng = StdRng::seed_from_u64(0x1F11);
    let outcomes = engine.run_batch(&queries, &mut rng);
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let peak = peak.join().expect("sampler");
    assert!(peak <= 1, "reactor thread count grew under load: {peak}");
    for (i, outcome) in outcomes.iter().enumerate() {
        let outcome = outcome.as_ref().expect("batch query");
        let k = 1 + i % 3;
        assert_eq!(
            outcome.result,
            plain_knn_records(&table(), &QUERY, k).unwrap(),
            "query {i}"
        );
    }
}

/// The most hostile backpressure shape that can still make progress: an
/// in-flight window of **one**. Sixteen worker threads' requests
/// serialize through the single slot — the overflow queue and the
/// promote-on-completion path carry all the load — and every query still
/// completes with the right answer. The typed tail of the ladder
/// (`TransportError::Overloaded` once window, queue and the bounded block
/// are all exhausted) is pinned down at the unit level in the reactor's
/// own tests, where the peer can be wedged deterministically.
#[test]
fn window_of_one_serializes_but_never_hangs() {
    let _guard = lock();
    let owner = owner();
    let holders = (0..2u64)
        .map(|i| LocalKeyHolder::new(owner.private_key().clone(), 7_000 + i))
        .collect();
    let pool = SessionPool::channel(
        holders,
        &Loopback {
            workers: 2,
            backpressure: BackpressureConfig {
                window: 1,
                queue: 256,
                ..Default::default()
            },
            ..Loopback::default()
        },
    )
    .expect("pool");
    let mut rng = StdRng::seed_from_u64(0x11AE);
    let config = FederationConfig {
        threads: 16,
        ..config(TransportKind::Channel, 2, 2)
    };
    let mut engine = SknnEngine::setup_with_sessions(owner, config, pool).expect("engine");
    engine
        .register_dataset_with("t", &table(), OPTIONS, &mut rng)
        .expect("register");
    let queries: Vec<_> = (0..16usize)
        .map(|_| {
            engine
                .query("t")
                .k(2)
                .point(&QUERY)
                .protocol(Protocol::Basic)
                .build()
                .expect("build")
        })
        .collect();
    let outcomes = engine.run_batch(&queries, &mut rng);
    let expected = plain_knn_records(&table(), &QUERY, 2).unwrap();
    for (i, outcome) in outcomes.iter().enumerate() {
        assert_eq!(
            outcome.as_ref().expect("query completes").result,
            expected,
            "query {i}"
        );
    }
}

/// Admission control composes with the reactor: a gate of 4 bounds the
/// engine's concurrency below the batch width, every query still
/// completes correctly, and nothing deadlocks.
#[test]
fn admission_gate_bounds_remote_batches() {
    let _guard = lock();
    let mut rng = StdRng::seed_from_u64(0xAD31);
    let config = FederationConfig {
        threads: 16,
        admission: 4,
        ..config(TransportKind::Channel, 1, 2)
    };
    let mut engine = SknnEngine::setup_with_owner(owner(), config).expect("engine");
    engine
        .register_dataset_with("t", &table(), OPTIONS, &mut rng)
        .expect("register");
    let queries: Vec<_> = (0..16usize)
        .map(|_| {
            engine
                .query("t")
                .k(2)
                .point(&QUERY)
                .protocol(Protocol::Basic)
                .build()
                .expect("build")
        })
        .collect();
    let outcomes = engine.run_batch(&queries, &mut rng);
    let expected = plain_knn_records(&table(), &QUERY, 2).unwrap();
    for outcome in &outcomes {
        assert_eq!(outcome.as_ref().expect("admitted query").result, expected);
    }
}
