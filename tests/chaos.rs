//! Chaos suite: deterministic fault injection across the full matrix.
//!
//! Every fault class a real deployment sees — dropped frames, slow frames,
//! duplicated frames, corrupted frames, severed connections — is injected
//! at a deterministic frame index through a reactor
//! [`FaultPlan`](sknn::protocols::transport::FaultPlan), across
//! {Channel, Tcp} × {Basic, Secure} × shards {1, 4}. The contract under
//! test is the fault-tolerance layer's headline guarantee: a query under
//! fault either returns **exactly the fault-free result** or a **typed
//! error** — never a hang (per-request deadlines bound every wait), never
//! a wrong answer, never a panic, never a leaked `sknn-` thread.
//!
//! The suite serializes through one mutex: several tests assert on
//! process-wide thread counts, which concurrent engines would distort.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sknn::protocols::transport::{FaultKind, FaultPlan, Loopback, SessionPool};
use sknn::protocols::ProtocolError;
use sknn::{
    plain_knn_records, DataOwner, FederationConfig, LocalKeyHolder, PoolConfig, Protocol,
    RetryPolicy, RetryUnit, ShardingConfig, SknnEngine, SknnError, StageRetry, Table,
    TransportKind,
};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Serializes the whole suite (thread-count assertions need the process to
/// themselves) and caches the one key pair every engine shares.
static LOCK: Mutex<()> = Mutex::new(());
static OWNER: OnceLock<DataOwner> = OnceLock::new();

fn lock() -> std::sync::MutexGuard<'static, ()> {
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn owner() -> DataOwner {
    OWNER
        .get_or_init(|| DataOwner::new(96, &mut StdRng::seed_from_u64(0xFA_u64)))
        .clone()
}

/// 6 records whose squared distances from the query (3, 3) are distinct,
/// so both protocols have one valid result list for every k and any
/// fault-induced deviation is visible immediately.
fn table() -> Table {
    Table::new(
        (0..6u64)
            .map(|i| vec![i, (i * i + 2 * i) % 23])
            .collect::<Vec<_>>(),
    )
    .unwrap()
}

const QUERY: [u64; 2] = [3, 3];
const MAX_VALUE: u64 = 22;

/// The remote wires the matrix runs over.
const WIRES: [TransportKind; 2] = [TransportKind::Channel, TransportKind::Tcp];

/// The suite's policy: enough attempts to absorb any single fault, a short
/// backoff, and a deadline that converts dropped frames into typed
/// timeouts well inside the test budget.
fn policy() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_millis(2),
        deadline: Some(Duration::from_millis(400)),
    }
}

/// Stands up an engine over `plans.len()` sessions; session `i`'s client
/// connection carries `plans[i]` when it is set. Offline randomness
/// pooling is off so the only long-lived threads are the sessions' own
/// (servers + reactor), which the leak check counts.
fn build_engine(
    wire: TransportKind,
    shards: usize,
    plans: &[Option<FaultPlan>],
    retry: RetryPolicy,
    rng: &mut StdRng,
) -> SknnEngine {
    engine_over(build_pool(wire, plans), wire, shards, retry, rng)
}

/// The sessions [`build_engine`] runs over.
fn build_pool(wire: TransportKind, plans: &[Option<FaultPlan>]) -> SessionPool {
    let owner = owner();
    let holders = (0..plans.len())
        .map(|i| LocalKeyHolder::new(owner.private_key().clone(), 9_000 + i as u64))
        .collect();
    let loopback = Loopback {
        workers: 2,
        faults: plans.to_vec(),
        ..Loopback::default()
    };
    match wire {
        TransportKind::Tcp => SessionPool::tcp(holders, &loopback),
        _ => SessionPool::channel(holders, &loopback),
    }
    .expect("assemble pool")
}

/// An engine over `pool` hosting [`table`] as dataset `"t"`.
fn engine_over(
    pool: SessionPool,
    wire: TransportKind,
    shards: usize,
    retry: RetryPolicy,
    rng: &mut StdRng,
) -> SknnEngine {
    let config = FederationConfig {
        key_bits: 96,
        max_query_value: MAX_VALUE,
        transport: wire,
        threads: 2,
        sharding: ShardingConfig {
            shards,
            sessions: pool.len(),
        },
        pool: PoolConfig {
            capacity: 0,
            ..Default::default()
        },
        pool_prewarm: 0,
        retry,
        ..Default::default()
    };
    let mut engine = SknnEngine::setup_with_sessions(owner(), config, pool).expect("engine");
    engine
        .register_dataset("t", &table(), rng)
        .expect("register");
    engine
}

/// Live threads the library spawned: every library thread is named
/// `sknn-…`, while the test harness's own threads (one per queued test)
/// are not, so the count is independent of `--test-threads`.
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read task dir")
        .filter_map(|entry| std::fs::read_to_string(entry.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("sknn-"))
        .count()
}

/// Polls until the library thread count drops back to `baseline` (the
/// reactor and server threads are reaped on engine drop with a bounded
/// join), failing after a generous deadline.
fn assert_threads_return_to(baseline: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let now = thread_count();
        if now <= baseline {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "leaked threads: {now} alive, baseline {baseline}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The full matrix over a single session: every fault class must yield
/// either the exact fault-free result (recovered by deadline + retry) or,
/// for a severed connection with no survivor, a typed error. No hang, no
/// panic, no wrong answer, no leaked thread.
#[test]
fn fault_matrix_recovers_or_errors_typed() {
    let _guard = lock();
    let expected = plain_knn_records(&table(), &QUERY, 2).unwrap();
    let baseline = thread_count();
    for wire in WIRES {
        for protocol in [Protocol::Basic, Protocol::Secure] {
            for shards in [1usize, 4] {
                for kind in FaultKind::ALL {
                    // Connecting sends nothing; frame 2 lands inside
                    // query traffic.
                    let mut rng = StdRng::seed_from_u64(0xC4A0_5000);
                    let engine = build_engine(
                        wire,
                        shards,
                        &[Some(FaultPlan::new(kind, 2))],
                        policy(),
                        &mut rng,
                    );
                    let run = engine
                        .query("t")
                        .k(2)
                        .point(&QUERY)
                        .protocol(protocol)
                        .run(&mut rng);
                    let label = format!("{wire:?}/{protocol:?}/shards={shards}/{kind:?}");
                    match run {
                        Ok(outcome) => {
                            assert_eq!(outcome.result, expected, "{label}: wrong answer");
                            // Frame 2 lands in a scatter task, which the
                            // executor re-runs in place at every shard
                            // count; the gather never re-runs.
                            if matches!(kind, FaultKind::Drop | FaultKind::Corrupt) {
                                let units: Vec<RetryUnit> = outcome
                                    .retries
                                    .stage_retries
                                    .iter()
                                    .map(|r| r.unit)
                                    .collect();
                                assert!(
                                    !units.is_empty() && !units.contains(&RetryUnit::Gather),
                                    "{label}: {:?}",
                                    outcome.retries
                                );
                            }
                        }
                        Err(e) => {
                            // Only a severed wire with no surviving session
                            // is allowed to fail — and then only with a
                            // typed protocol error.
                            assert!(
                                matches!(kind, FaultKind::Sever),
                                "{label}: unexpected failure {e}"
                            );
                            assert!(
                                matches!(e, SknnError::Protocol(_)),
                                "{label}: untyped error {e}"
                            );
                        }
                    }
                    drop(engine);
                }
            }
        }
    }
    assert_threads_return_to(baseline);
}

/// A severed connection with a single session must be a typed error (there
/// is no survivor to re-pin onto), and the engine must remain usable for
/// constructing further engines — i.e. the failure is contained.
#[test]
fn sever_without_survivor_is_a_typed_error() {
    let _guard = lock();
    let mut rng = StdRng::seed_from_u64(0x5E4E);
    let engine = build_engine(
        TransportKind::Channel,
        4,
        &[Some(FaultPlan::sever_at(1))],
        policy(),
        &mut rng,
    );
    let err = match engine
        .query("t")
        .k(2)
        .point(&QUERY)
        .protocol(Protocol::Basic)
        .run(&mut rng)
    {
        Err(e) => e,
        Ok(_) => panic!("severed single-session query cannot succeed"),
    };
    assert!(matches!(err, SknnError::Protocol(_)), "untyped: {err}");
}

/// The acceptance scenario: two sessions, four shards, session 1's wire
/// severed mid-batch. The batch must complete on the survivor with every
/// result identical to the fault-free reference, and the per-query
/// [`sknn::RetryReport`]s must show shards re-pinned off the dead session.
#[test]
fn sever_one_of_two_sessions_completes_batch_on_survivor() {
    let _guard = lock();
    let mut rng = StdRng::seed_from_u64(0xBA7C);
    let baseline = thread_count();
    let engine = build_engine(
        TransportKind::Channel,
        4,
        &[None, Some(FaultPlan::sever_at(1))],
        policy(),
        &mut rng,
    );
    let queries: Vec<_> = (1..=3usize)
        .map(|k| {
            engine
                .query("t")
                .k(k)
                .point(&QUERY)
                .protocol(Protocol::Basic)
                .build()
                .expect("build query")
        })
        .collect();
    let outcomes = engine.run_batch(&queries, &mut rng);
    let mut failed_over = Vec::new();
    let mut dead = Vec::new();
    for (k, outcome) in (1..=3usize).zip(&outcomes) {
        let outcome = outcome.as_ref().expect("batch query survives the sever");
        assert_eq!(
            outcome.result,
            plain_knn_records(&table(), &QUERY, k).unwrap(),
            "k = {k}"
        );
        failed_over.extend(outcome.retries.failed_over_shards());
        dead.extend(outcome.retries.dead_sessions.iter().copied());
    }
    assert!(
        !failed_over.is_empty(),
        "no shard re-pinned; reports: {:?}",
        outcomes
            .iter()
            .map(|o| o.as_ref().map(|o| o.retries.clone()))
            .collect::<Vec<_>>()
    );
    assert!(dead.contains(&1), "session 1 not reported dead: {dead:?}");
    // The recovery shows up in the pool's resilience counters too.
    let comm = engine.comm_stats().expect("remote transport accounts");
    assert!(comm.failovers >= 1, "failovers not counted: {comm:?}");
    drop(engine);
    assert_threads_return_to(baseline);
}

/// Same failover scenario through the fully secure protocol: the re-pinned
/// scatter stages re-run their oblivious rounds bit-identically, so the
/// result matches the fault-free reference exactly.
#[test]
fn secure_failover_matches_reference() {
    let _guard = lock();
    let mut rng = StdRng::seed_from_u64(0x5EC2);
    let engine = build_engine(
        TransportKind::Tcp,
        4,
        &[None, Some(FaultPlan::sever_at(1))],
        policy(),
        &mut rng,
    );
    let outcome = engine
        .query("t")
        .k(2)
        .point(&QUERY)
        .protocol(Protocol::Secure)
        .run(&mut rng)
        .expect("secure query survives the sever");
    assert_eq!(
        outcome.result,
        plain_knn_records(&table(), &QUERY, 2).unwrap()
    );
    assert!(
        !outcome.retries.failed_over_shards().is_empty(),
        "no failover recorded: {:?}",
        outcome.retries
    );
}

/// A sever that lands in the gather: two sessions, four shards, session 0
/// severed right after its scatter traffic. The scatter completes on both
/// sessions; the gather's first request on session 0 finds the wire
/// closed, and the gather re-runs on session 1 from its own seed with the
/// same answer.
#[test]
fn sever_in_the_gather_re_pins_it_to_the_survivor() {
    let _guard = lock();
    let seed = 0x6A7E;
    let run = |engine: &SknnEngine, rng: &mut StdRng| {
        engine
            .query("t")
            .k(2)
            .point(&QUERY)
            .protocol(Protocol::Basic)
            .run(rng)
    };

    // Fault-free: every frame session 0 sends over the engine's life.
    // Its last two are the gather's top-k and the finalize decryption.
    let pool = build_pool(TransportKind::Channel, &[None, None]);
    let session0 = pool.session(0).stats();
    let mut rng = StdRng::seed_from_u64(seed);
    let engine = engine_over(pool, TransportKind::Channel, 4, policy(), &mut rng);
    run(&engine, &mut rng).expect("fault-free run");
    let scatter_frames = session0.requests() - 2;
    drop(engine);

    let mut rng = StdRng::seed_from_u64(seed);
    let engine = build_engine(
        TransportKind::Channel,
        4,
        &[Some(FaultPlan::sever_at(scatter_frames)), None],
        policy(),
        &mut rng,
    );
    let outcome = run(&engine, &mut rng).expect("the gather survives the sever");
    assert_eq!(
        outcome.result,
        plain_knn_records(&table(), &QUERY, 2).unwrap()
    );
    assert_eq!(
        outcome.retries.stage_retries,
        vec![StageRetry {
            unit: RetryUnit::Gather,
            from_session: 0,
            to_session: 1,
            error: SknnError::Protocol(ProtocolError::TransportClosed).to_string(),
        }],
        "{:?}",
        outcome.retries
    );
    assert_eq!(outcome.retries.dead_sessions, vec![0]);
}

/// With the default policy ([`RetryPolicy::none`]) nothing retries: a
/// corrupted exchange surfaces as a typed error immediately — the exact
/// pre-resilience behavior, just with a typed error instead of a panic.
#[test]
fn disabled_policy_fails_fast_with_typed_error() {
    let _guard = lock();
    let mut rng = StdRng::seed_from_u64(0x0FF);
    let engine = build_engine(
        TransportKind::Channel,
        1,
        &[Some(FaultPlan::corrupt_at(1))],
        RetryPolicy::none(),
        &mut rng,
    );
    let run = engine
        .query("t")
        .k(2)
        .point(&QUERY)
        .protocol(Protocol::Basic)
        .run(&mut rng);
    let err = match run {
        Err(e) => e,
        Ok(_) => panic!("corrupted exchange cannot succeed without retries"),
    };
    assert!(matches!(err, SknnError::Protocol(_)), "untyped: {err}");
    assert!(
        engine.comm_stats().expect("accounting").retries == 0,
        "none() must not retry"
    );
}

/// A clean run under an armed-but-never-striking plan reports no failure
/// handling at all: the resilience layer is invisible until a fault fires.
#[test]
fn clean_run_reports_clean() {
    let _guard = lock();
    let mut rng = StdRng::seed_from_u64(0xC1EA);
    let engine = build_engine(
        TransportKind::Channel,
        4,
        // Strike far beyond the traffic this test generates.
        &[Some(FaultPlan::drop_at(1_000_000))],
        policy(),
        &mut rng,
    );
    let outcome = engine
        .query("t")
        .k(2)
        .point(&QUERY)
        .protocol(Protocol::Basic)
        .run(&mut rng)
        .expect("clean run");
    assert_eq!(
        outcome.result,
        plain_knn_records(&table(), &QUERY, 2).unwrap()
    );
    assert!(outcome.retries.is_clean(), "{:?}", outcome.retries);
    let comm = engine.comm_stats().expect("accounting");
    assert_eq!((comm.retries, comm.failovers), (0, 0));
}

/// Failover on both wires: two reactor-multiplexed sessions, one severed
/// mid-query. The shard re-pinning and retry machinery must recover the
/// exact answer — and dropping the engine must reap the reactor thread
/// along with the servers (zero leaked threads).
#[test]
fn sever_fails_over_and_leaks_no_threads() {
    let _guard = lock();
    let mut rng = StdRng::seed_from_u64(0xA51C);
    let baseline = thread_count();
    for wire in WIRES {
        let engine = build_engine(
            wire,
            4,
            &[None, Some(FaultPlan::sever_at(1))],
            policy(),
            &mut rng,
        );
        let outcome = engine
            .query("t")
            .k(2)
            .point(&QUERY)
            .protocol(Protocol::Basic)
            .run(&mut rng)
            .unwrap_or_else(|e| panic!("{wire:?}: query must survive the sever: {e}"));
        assert_eq!(
            outcome.result,
            plain_knn_records(&table(), &QUERY, 2).unwrap(),
            "{wire:?}"
        );
        assert!(
            !outcome.retries.failed_over_shards().is_empty(),
            "{wire:?}: no failover recorded: {:?}",
            outcome.retries
        );
        drop(engine);
    }
    assert_threads_return_to(baseline);
}

/// A full engine stood up purely through [`FederationConfig::transport`]
/// (no hand-built pool): the engine's own `Channel` and `Tcp` setup must
/// produce correct answers and reap every thread — servers, workers and
/// the reactor — on drop.
#[test]
fn engine_configured_remote_round_trips_and_reaps() {
    let _guard = lock();
    let mut rng = StdRng::seed_from_u64(0xE2E1);
    let baseline = thread_count();
    for transport in WIRES {
        let mut engine = SknnEngine::setup_with_owner(
            owner(),
            FederationConfig {
                key_bits: 96,
                max_query_value: MAX_VALUE,
                transport,
                threads: 2,
                sharding: ShardingConfig {
                    shards: 2,
                    sessions: 2,
                },
                pool: PoolConfig {
                    capacity: 0,
                    ..Default::default()
                },
                pool_prewarm: 0,
                ..Default::default()
            },
        )
        .expect("remote engine");
        engine
            .register_dataset("t", &table(), &mut rng)
            .expect("register");
        let outcome = engine
            .query("t")
            .k(2)
            .point(&QUERY)
            .protocol(Protocol::Basic)
            .run(&mut rng)
            .expect("query");
        assert_eq!(
            outcome.result,
            plain_knn_records(&table(), &QUERY, 2).unwrap(),
            "{transport:?}"
        );
        assert!(outcome.comm.is_some(), "{transport:?} must account traffic");
        drop(engine);
    }
    assert_threads_return_to(baseline);
}
