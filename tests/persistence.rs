//! Durable round-trip invariance: a dataset persisted to disk, churned
//! with appends and tombstones, flushed, and reloaded by a fresh engine
//! must answer every query **bit-identically** to the engine that wrote
//! it — across both protocols (SkNN_b and SkNN_m), across transports,
//! and across a compaction that rewrites shard logs and reclaims
//! tombstoned records.
//!
//! The contract under test is the storage layer's headline guarantee:
//! durability is *invisible* to query semantics. `open_dir` rebuilds
//! exactly the in-memory `EncryptedDatabase` the writer held (same
//! ciphertext bytes, same shard placement, same liveness), so result
//! lists — which are deterministic given the database and the query —
//! cannot drift across a restart.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sknn::{
    plain_knn_records, DataOwner, DatasetOptions, FederationConfig, Protocol, ShardingConfig,
    SknnEngine, Table, TransportKind,
};
use std::path::PathBuf;

fn tmp_root(tag: &str) -> PathBuf {
    static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("sknn-persist-{}-{}-{}", std::process::id(), tag, n))
}

/// 8 records whose squared distances from the query (3, 3) are distinct,
/// so every k has exactly one valid result list and any reload drift is
/// visible immediately.
fn table() -> Table {
    Table::new(
        (0..8u64)
            .map(|i| vec![i, (i * i + 2 * i) % 23])
            .collect::<Vec<_>>(),
    )
    .unwrap()
}

const QUERY: [u64; 2] = [3, 3];
const MAX_VALUE: u64 = 22;
const OPTIONS: DatasetOptions = DatasetOptions {
    distance_bits: None,
    max_query_value: MAX_VALUE,
};

fn config(transport: TransportKind) -> FederationConfig {
    FederationConfig {
        key_bits: 96,
        transport,
        sharding: ShardingConfig {
            shards: 3,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Ground truth over the records still live after tombstoning the given
/// original-table rows.
fn live_knn(dead: &[usize], k: usize) -> Vec<Vec<u64>> {
    let rows: Vec<Vec<u64>> = table()
        .records()
        .iter()
        .enumerate()
        .filter(|(i, _)| !dead.contains(i))
        .map(|(_, r)| r.to_vec())
        .collect();
    plain_knn_records(&Table::new(rows).unwrap(), &QUERY, k).unwrap()
}

/// register → tombstone → append → flush → drop → reload: both protocols
/// must return bit-identical result lists before and after the restart,
/// on an in-process wire and on a real frame channel.
#[test]
fn round_trip_is_bit_identical_across_restart() {
    for transport in [TransportKind::InProcess, TransportKind::Channel] {
        let mut rng = StdRng::seed_from_u64(0xD0_0001);
        let root = tmp_root("roundtrip");
        let owner = DataOwner::new(96, &mut rng);

        let mut engine = SknnEngine::open_dir(owner.clone(), config(transport), &root)
            .expect("open empty store root");
        engine
            .register_dataset_persistent_with("d", &table(), OPTIONS, &mut rng)
            .expect("persistent registration");
        engine.tombstone_record("d", 1).expect("tombstone");
        let extra = owner.encrypt_record(&[3, 4], &mut rng).expect("encrypt");
        assert_eq!(
            engine.append_records("d", vec![extra]).expect("append"),
            vec![8],
            "stable indices keep counting past the original table"
        );
        engine.flush().expect("flush");

        let mut before = Vec::new();
        for protocol in [Protocol::Basic, Protocol::Secure] {
            let outcome = engine
                .query("d")
                .k(3)
                .point(&QUERY)
                .protocol(protocol)
                .run(&mut rng)
                .expect("query before restart");
            before.push(outcome.result);
        }
        drop(engine);

        let reloaded = SknnEngine::open_dir(owner, config(transport), &root).expect("reload");
        assert_eq!(reloaded.dataset_names(), vec!["d"]);
        assert!(
            reloaded.recovery_report("d").expect("report").is_clean(),
            "a flushed store reloads without salvage"
        );
        for (protocol, expected) in [Protocol::Basic, Protocol::Secure].into_iter().zip(&before) {
            let outcome = reloaded
                .query("d")
                .k(3)
                .point(&QUERY)
                .protocol(protocol)
                .run(&mut rng)
                .expect("query after restart");
            assert_eq!(
                &outcome.result, expected,
                "{transport:?}/{protocol:?}: reload changed the result"
            );
        }
        std::fs::remove_dir_all(&root).expect("cleanup");
    }
}

/// Compaction rewrites every shard log, renumbers physical slots, and
/// reclaims tombstoned bytes — and none of that may show through the
/// query API, before or after a restart of the compacted store.
#[test]
fn compaction_then_restart_preserves_results_and_stable_indices() {
    let mut rng = StdRng::seed_from_u64(0xD0_0002);
    let root = tmp_root("compact");
    let owner = DataOwner::new(96, &mut rng);

    let mut engine = SknnEngine::open_dir(owner.clone(), config(TransportKind::InProcess), &root)
        .expect("open empty store root");
    engine
        .register_dataset_persistent_with("d", &table(), OPTIONS, &mut rng)
        .expect("persistent registration");
    let dead = [0usize, 2, 5];
    for &i in &dead {
        engine.tombstone_record("d", i).expect("tombstone");
    }
    let report = engine.compact_dataset("d").expect("compact");
    assert_eq!(report.reclaimed_records, dead.len() as u64);
    assert!(report.shards_rewritten >= 1, "{report:?}");
    assert!(
        report.bytes_after < report.bytes_before,
        "compaction reclaims log bytes: {report:?}"
    );

    // The owner's view survives the physical renumbering: old stable
    // indices still address the same rows, reclaimed ones stay dead.
    assert!(
        engine.tombstone_record("d", 2).is_err(),
        "a reclaimed index must not come back to life"
    );
    engine.tombstone_record("d", 7).expect("live stable index");
    let dead_now = [0usize, 2, 5, 7];

    let mut before = Vec::new();
    for protocol in [Protocol::Basic, Protocol::Secure] {
        let outcome = engine
            .query("d")
            .k(3)
            .point(&QUERY)
            .protocol(protocol)
            .run(&mut rng)
            .expect("query after compaction");
        assert_eq!(
            outcome.result,
            live_knn(&dead_now, 3),
            "{protocol:?}: compaction changed the answer"
        );
        before.push(outcome.result);
    }
    engine.flush().expect("flush");
    drop(engine);

    let reloaded =
        SknnEngine::open_dir(owner, config(TransportKind::InProcess), &root).expect("reload");
    assert!(reloaded.recovery_report("d").expect("report").is_clean());
    let dataset = reloaded.dataset("d").expect("dataset");
    assert_eq!(
        dataset.num_physical_records(),
        table().records().len() - dead.len(),
        "reload sees the compacted physical layout"
    );
    for (protocol, expected) in [Protocol::Basic, Protocol::Secure].into_iter().zip(&before) {
        let outcome = reloaded
            .query("d")
            .k(3)
            .point(&QUERY)
            .protocol(protocol)
            .run(&mut rng)
            .expect("query after restart of compacted store");
        assert_eq!(
            &outcome.result, expected,
            "{protocol:?}: restart of a compacted store changed the result"
        );
    }
    std::fs::remove_dir_all(&root).expect("cleanup");
}

/// A restarted engine is a full peer of the writer: it can keep churning
/// the reloaded dataset (append, tombstone, compact, flush) and every
/// mutation round-trips through yet another restart.
#[test]
fn reloaded_store_remains_writable() {
    let mut rng = StdRng::seed_from_u64(0xD0_0003);
    let root = tmp_root("rewrite");
    let owner = DataOwner::new(96, &mut rng);

    let mut engine =
        SknnEngine::open_dir(owner.clone(), config(TransportKind::InProcess), &root).expect("open");
    engine
        .register_dataset_persistent_with("d", &table(), OPTIONS, &mut rng)
        .expect("register");
    engine.flush().expect("flush");
    drop(engine);

    let mut second = SknnEngine::open_dir(owner.clone(), config(TransportKind::InProcess), &root)
        .expect("reopen");
    second.tombstone_record("d", 4).expect("tombstone reloaded");
    let extra = owner.encrypt_record(&[2, 2], &mut rng).expect("encrypt");
    assert_eq!(
        second.append_records("d", vec![extra]).expect("append"),
        vec![8]
    );
    let report = second.compact_dataset("d").expect("compact reloaded");
    assert_eq!(report.reclaimed_records, 1);
    second.flush().expect("flush");
    let before = second
        .query("d")
        .k(2)
        .point(&QUERY)
        .protocol(Protocol::Basic)
        .run(&mut rng)
        .expect("query")
        .result;
    // The appended (2, 2) sits at distance 2 from (3, 3): it must rank
    // first, proving the post-restart append is really in the dataset.
    assert_eq!(before[0], vec![2, 2]);
    drop(second);

    let third =
        SknnEngine::open_dir(owner, config(TransportKind::InProcess), &root).expect("third");
    assert!(third.recovery_report("d").expect("report").is_clean());
    let after = third
        .query("d")
        .k(2)
        .point(&QUERY)
        .protocol(Protocol::Basic)
        .run(&mut rng)
        .expect("query")
        .result;
    assert_eq!(after, before);
    std::fs::remove_dir_all(&root).expect("cleanup");
}
