//! End-to-end acceptance tests for the `SknnEngine` façade: one engine
//! hosting two datasets answers a 16-query mixed batch over the Channel
//! transport with results identical to per-query runs on one-dataset
//! engines (the paper's single-table deployment), builder
//! validation returns typed errors over both transports, and dynamic
//! append/tombstone updates are reflected in subsequent query results.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sknn::{
    plain_knn_records, DatasetOptions, FederationConfig, InvalidQueryReason, PreparedQuery,
    Protocol, SknnEngine, SknnError, Table, TransportKind,
};

/// Distances from the query (2, 2) are 68, 29, 18, 98, 2 — all distinct,
/// so every k has a unique, deterministically ordered result for both
/// protocols.
fn vitals_table() -> Table {
    Table::new(vec![
        vec![10, 0],
        vec![0, 7],
        vec![5, 5],
        vec![9, 9],
        vec![1, 1],
    ])
    .unwrap()
}

/// Three-attribute table with distinct distances from (3, 3, 3):
/// 12, 2, 36, 108, 27 (and from (1, 1, 1): 16, 14, 72, 192, 27).
fn labs_table() -> Table {
    Table::new(vec![
        vec![1, 1, 5],
        vec![2, 3, 4],
        vec![7, 7, 1],
        vec![9, 9, 9],
        vec![0, 0, 6],
    ])
    .unwrap()
}

fn config(transport: TransportKind) -> FederationConfig {
    FederationConfig {
        key_bits: 96,
        transport,
        threads: 4,
        ..Default::default()
    }
}

const OPTIONS: DatasetOptions = DatasetOptions {
    distance_bits: None,
    max_query_value: 10,
};

#[test]
fn two_dataset_mixed_batch_over_channel_matches_single_dataset_engines() {
    let mut rng = StdRng::seed_from_u64(7001);
    let vitals = vitals_table();
    let labs = labs_table();

    let mut engine = SknnEngine::setup(config(TransportKind::Channel), &mut rng).unwrap();
    engine
        .register_dataset_with("vitals", &vitals, OPTIONS, &mut rng)
        .unwrap();
    engine
        .register_dataset_with("labs", &labs, OPTIONS, &mut rng)
        .unwrap();

    // 16 queries: both datasets, both protocols, several k values.
    let specs: [(&str, &[u64], usize, Protocol); 16] = [
        ("vitals", &[2, 2], 1, Protocol::Basic),
        ("labs", &[3, 3, 3], 1, Protocol::Basic),
        ("vitals", &[2, 2], 2, Protocol::Basic),
        ("labs", &[3, 3, 3], 2, Protocol::Basic),
        ("vitals", &[2, 2], 3, Protocol::Basic),
        ("labs", &[3, 3, 3], 3, Protocol::Basic),
        ("vitals", &[9, 0], 4, Protocol::Basic),
        ("labs", &[1, 1, 1], 4, Protocol::Basic),
        ("vitals", &[2, 2], 5, Protocol::Basic),
        ("labs", &[3, 3, 3], 5, Protocol::Basic),
        ("vitals", &[9, 0], 1, Protocol::Basic),
        ("labs", &[1, 1, 1], 1, Protocol::Basic),
        ("vitals", &[2, 2], 1, Protocol::Secure),
        ("labs", &[3, 3, 3], 1, Protocol::Secure),
        ("vitals", &[2, 2], 2, Protocol::Secure),
        ("labs", &[3, 3, 3], 2, Protocol::Secure),
    ];
    let queries: Vec<PreparedQuery> = specs
        .iter()
        .map(|&(dataset, point, k, protocol)| {
            engine
                .query(dataset)
                .k(k)
                .point(point)
                .protocol(protocol)
                .build()
                .expect("valid query")
        })
        .collect();

    let outcomes = engine.run_batch(&queries, &mut rng);
    assert_eq!(outcomes.len(), 16);

    // Per-query reference runs, each table on its own one-dataset
    // deployment: the shared engine and the single-table engines must
    // agree record for record.
    let mut single = |name: &str, table: &Table| {
        let mut engine = SknnEngine::setup(config(TransportKind::Channel), &mut rng).unwrap();
        engine
            .register_dataset_with(name, table, OPTIONS, &mut rng)
            .unwrap();
        engine
    };
    let vitals_only = single("vitals", &vitals);
    let labs_only = single("labs", &labs);
    for (&(dataset, point, k, protocol), outcome) in specs.iter().zip(&outcomes) {
        let outcome = outcome.as_ref().expect("batch query succeeds");
        let reference = match dataset {
            "vitals" => &vitals_only,
            _ => &labs_only,
        }
        .query(dataset)
        .k(k)
        .point(point)
        .protocol(protocol)
        .run(&mut rng)
        .unwrap();
        assert_eq!(
            outcome.result, reference.result,
            "{dataset} k={k} {protocol:?}"
        );
        let table = if dataset == "vitals" { &vitals } else { &labs };
        assert_eq!(
            outcome.result,
            plain_knn_records(table, point, k).unwrap(),
            "{dataset} k={k} {protocol:?} vs plaintext"
        );
        // Channel transport accounts traffic for every query in the batch.
        assert!(outcome.comm.is_some());
        match protocol {
            Protocol::Basic => assert!(!outcome.audit.is_oblivious()),
            Protocol::Secure => assert!(outcome.audit.is_oblivious()),
        }
    }
}

#[test]
fn builder_validation_is_typed_over_both_transports() {
    let mut rng = StdRng::seed_from_u64(7002);
    for transport in [TransportKind::InProcess, TransportKind::Channel] {
        let mut engine = SknnEngine::setup(config(transport), &mut rng).unwrap();
        engine
            .register_dataset_with("vitals", &vitals_table(), OPTIONS, &mut rng)
            .unwrap();

        // Unknown dataset name.
        assert!(
            matches!(
                engine.query("nope").k(1).point(&[2, 2]).build(),
                Err(SknnError::UnknownDataset { ref name }) if name == "nope"
            ),
            "{transport:?}"
        );
        // k = 0 and k > n.
        assert!(
            matches!(
                engine.query("vitals").k(0).point(&[2, 2]).build(),
                Err(SknnError::InvalidQuery {
                    reason: InvalidQueryReason::KOutOfRange { k: 0, n: 5 },
                    ..
                })
            ),
            "{transport:?}"
        );
        assert!(
            matches!(
                engine.query("vitals").k(6).point(&[2, 2]).build(),
                Err(SknnError::InvalidQuery {
                    reason: InvalidQueryReason::KOutOfRange { k: 6, n: 5 },
                    ..
                })
            ),
            "{transport:?}"
        );
        // Wrong attribute arity.
        assert!(
            matches!(
                engine.query("vitals").k(1).point(&[2, 2, 2]).build(),
                Err(SknnError::InvalidQuery {
                    reason: InvalidQueryReason::WrongArity {
                        expected: 2,
                        got: 3
                    },
                    ..
                })
            ),
            "{transport:?}"
        );
        // Out-of-range attribute value (bound = max(table max 10, cfg 10)).
        assert!(
            matches!(
                engine.query("vitals").k(1).point(&[2, 11]).build(),
                Err(SknnError::InvalidQuery {
                    reason: InvalidQueryReason::ValueOutOfRange {
                        attribute: 1,
                        value: 11,
                        bound: 10
                    },
                    ..
                })
            ),
            "{transport:?}"
        );
        // A valid build still runs on this transport.
        let outcome = engine
            .query("vitals")
            .k(1)
            .point(&[2, 2])
            .protocol(Protocol::Basic)
            .run(&mut rng)
            .unwrap();
        assert_eq!(outcome.result, vec![vec![1, 1]], "{transport:?}");
    }
}

#[test]
fn append_and_tombstone_round_trips_are_reflected_in_queries() {
    let mut rng = StdRng::seed_from_u64(7003);
    let vitals = vitals_table();
    let mut engine = SknnEngine::setup(config(TransportKind::Channel), &mut rng).unwrap();
    engine
        .register_dataset_with("vitals", &vitals, OPTIONS, &mut rng)
        .unwrap();

    // Append: the new record is the exact query point, so it must win k = 1
    // immediately, under both protocols.
    let record = engine.owner().encrypt_record(&[2, 2], &mut rng).unwrap();
    let indices = engine.append_records("vitals", vec![record]).unwrap();
    assert_eq!(indices, vec![5]);
    for protocol in [Protocol::Basic, Protocol::Secure] {
        let found = engine
            .query("vitals")
            .k(1)
            .point(&[2, 2])
            .protocol(protocol)
            .run(&mut rng)
            .unwrap();
        assert_eq!(found.result, vec![vec![2, 2]], "{protocol:?}");
    }

    // Tombstone: never returned again, by either protocol, even at k = n.
    engine.tombstone_record("vitals", 5).unwrap();
    for protocol in [Protocol::Basic, Protocol::Secure] {
        let all = engine
            .query("vitals")
            .k(5)
            .point(&[2, 2])
            .protocol(protocol)
            .run(&mut rng)
            .unwrap();
        assert_eq!(all.result.len(), 5, "{protocol:?}");
        assert!(
            !all.result.contains(&vec![2, 2]),
            "{protocol:?} returned a tombstoned record"
        );
        let mut got = all.result.clone();
        got.sort();
        let mut want = plain_knn_records(&vitals, &[2, 2], 5).unwrap();
        want.sort();
        assert_eq!(got, want, "{protocol:?}");
    }

    // k is validated against the shrunken live count.
    assert!(matches!(
        engine.query("vitals").k(6).point(&[2, 2]).build(),
        Err(SknnError::InvalidQuery {
            reason: InvalidQueryReason::KOutOfRange { k: 6, n: 5 },
            ..
        })
    ));

    // Tombstoning an original record excludes it too (not just appended
    // ones): record 4 = (1, 1) is the nearest to (2, 2).
    engine.tombstone_record("vitals", 4).unwrap();
    let nearest = engine
        .query("vitals")
        .k(1)
        .point(&[2, 2])
        .protocol(Protocol::Basic)
        .run(&mut rng)
        .unwrap();
    assert_eq!(nearest.result, vec![vec![5, 5]], "next-nearest record wins");
}

#[test]
fn mixed_batch_after_updates_matches_sequential_runs() {
    let mut rng = StdRng::seed_from_u64(7004);
    let mut engine = SknnEngine::setup(config(TransportKind::Channel), &mut rng).unwrap();
    engine
        .register_dataset_with("vitals", &vitals_table(), OPTIONS, &mut rng)
        .unwrap();
    engine
        .register_dataset_with("labs", &labs_table(), OPTIONS, &mut rng)
        .unwrap();

    // Mutate both datasets, then batch across them. The appended (2, 2)
    // sits at distance 0 from the vitals query point, so every result set
    // stays tie-free and deterministic.
    let rec = engine.owner().encrypt_record(&[2, 2], &mut rng).unwrap();
    engine.append_records("vitals", vec![rec]).unwrap();
    engine.tombstone_record("labs", 1).unwrap();

    let queries: Vec<PreparedQuery> = vec![
        engine
            .query("vitals")
            .k(2)
            .point(&[2, 2])
            .protocol(Protocol::Basic)
            .build()
            .unwrap(),
        engine
            .query("labs")
            .k(2)
            .point(&[3, 3, 3])
            .protocol(Protocol::Basic)
            .build()
            .unwrap(),
        engine
            .query("vitals")
            .k(1)
            .point(&[2, 2])
            .protocol(Protocol::Secure)
            .build()
            .unwrap(),
        engine
            .query("labs")
            .k(1)
            .point(&[3, 3, 3])
            .protocol(Protocol::Secure)
            .build()
            .unwrap(),
    ];
    let outcomes = engine.run_batch(&queries, &mut rng);
    for (query, outcome) in queries.iter().zip(&outcomes) {
        let outcome = outcome.as_ref().expect("batch query succeeds");
        let sequential = engine.run(query, &mut rng).unwrap();
        assert_eq!(outcome.result, sequential.result, "{}", query.dataset());
    }
    // The appended (2, 2) wins vitals at distance 0; the tombstoned labs
    // record (2, 3, 4) — previously nearest at distance 2 — is replaced by
    // (1, 1, 5) at distance 12.
    assert_eq!(
        outcomes[0].as_ref().unwrap().result,
        vec![vec![2, 2], vec![1, 1]]
    );
    assert_eq!(outcomes[1].as_ref().unwrap().result[0], vec![1, 1, 5]);
    assert_eq!(outcomes[2].as_ref().unwrap().result, vec![vec![2, 2]]);
    assert_eq!(outcomes[3].as_ref().unwrap().result, vec![vec![1, 1, 5]]);
}
