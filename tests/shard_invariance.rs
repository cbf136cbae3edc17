//! Shard-count invariance suite for the sharded data plane.
//!
//! The scatter–gather executor must be a pure performance structure: for
//! every shard/session shape, both protocols must return exactly the
//! records — in exactly the order — that the unsharded seed path returns.
//! This suite pins that down over shards ∈ {1, 2, 4} × sessions ∈ {1, 2}
//! × {Basic, Secure} × {Channel, Tcp}, checks that dynamic updates land
//! in the round-robin-owning shard, and asserts the headline scaling
//! property: the gather's SMIN_n stage runs over the ≤ k·S surviving
//! candidates, so its ciphertext volume *drops* against the unsharded run
//! once n ≫ k·S.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sknn::{
    plain_knn_records, FederationConfig, Protocol, ShardingConfig, SknnEngine, Stage, Table,
    TransportKind,
};

/// 16 records whose squared distances from the query (3, 3) are all
/// distinct (asserted in `distances_are_distinct`), so every k has one
/// valid result set and one valid nearest-first ordering — any shard-shape
/// dependence would be visible immediately.
fn table() -> Table {
    Table::new(
        (0..16u64)
            .map(|i| vec![i, (i * i + 2 * i) % 23])
            .collect::<Vec<_>>(),
    )
    .unwrap()
}

const QUERY: [u64; 2] = [3, 3];
const MAX_VALUE: u64 = 22;

fn engine_with(
    sharding: ShardingConfig,
    transport: TransportKind,
    threads: usize,
    rng: &mut StdRng,
) -> SknnEngine {
    let mut engine = SknnEngine::setup(
        FederationConfig {
            key_bits: 96,
            max_query_value: MAX_VALUE,
            transport,
            threads,
            sharding,
            ..Default::default()
        },
        rng,
    )
    .expect("engine setup");
    engine
        .register_dataset("t", &table(), rng)
        .expect("register dataset");
    engine
}

#[test]
fn distances_are_distinct() {
    let t = table();
    let mut dists: Vec<u128> = t
        .records()
        .iter()
        .map(|r| sknn::squared_euclidean_distance(r, &QUERY).unwrap())
        .collect();
    dists.sort_unstable();
    dists.dedup();
    assert_eq!(dists.len(), 16, "the fixture must have distinct distances");
}

/// The core matrix: every shard/session/protocol/transport combination
/// returns the unsharded seed path's records in the seed path's order.
#[test]
fn results_and_ordering_are_shard_count_invariant() {
    let mut rng = StdRng::seed_from_u64(0x5AAD);
    let k = 3;
    let expected = plain_knn_records(&table(), &QUERY, k).unwrap();

    for transport in [TransportKind::Channel, TransportKind::Tcp] {
        for shards in [1usize, 2, 4] {
            for sessions in [1usize, 2] {
                let engine =
                    engine_with(ShardingConfig { shards, sessions }, transport, 2, &mut rng);
                assert_eq!(engine.dataset("t").unwrap().shards(), shards);
                assert_eq!(engine.num_sessions(), sessions);
                for protocol in [Protocol::Basic, Protocol::Secure] {
                    let outcome = engine
                        .query("t")
                        .k(k)
                        .point(&QUERY)
                        .protocol(protocol)
                        .run(&mut rng)
                        .unwrap_or_else(|e| {
                            panic!(
                                "{transport:?} shards={shards} sessions={sessions} \
                                 {protocol:?}: {e}"
                            )
                        });
                    assert_eq!(
                        outcome.result, expected,
                        "{transport:?} shards={shards} sessions={sessions} {protocol:?}"
                    );
                    // Sharded plans report per-shard op attribution for
                    // every populated shard; unsharded plans report none.
                    if shards > 1 {
                        assert_eq!(
                            outcome.profile.shards().len(),
                            shards,
                            "{transport:?} shards={shards} {protocol:?}"
                        );
                        for s in outcome.profile.shards() {
                            assert!(
                                outcome
                                    .profile
                                    .shard_stage_ops(s, Stage::DistanceComputation)
                                    .ciphertexts_to_c2
                                    > 0,
                                "shard {s} must attribute SSED traffic"
                            );
                        }
                    } else {
                        assert!(outcome.profile.shards().is_empty());
                    }
                    // Remote transports must account traffic on every wire
                    // the query actually used.
                    assert!(outcome.comm.expect("remote transport").requests > 0);
                }
            }
        }
    }
}

/// The headline scaling property (acceptance criterion): the secure
/// gather's SMIN_n/selection stages run over the ≤ k·S surviving
/// candidates, so their ciphertext volume drops versus the unsharded run
/// for n ≫ k·S — here n = 16 against k·S = 2·4 = 8.
#[test]
fn secure_gather_runs_smin_over_candidates_only() {
    let mut rng = StdRng::seed_from_u64(0x5AAE);
    let k = 2;
    let run = |shards: usize, rng: &mut StdRng| {
        let engine = engine_with(
            ShardingConfig {
                shards,
                sessions: 1,
            },
            TransportKind::InProcess,
            1,
            rng,
        );
        engine
            .query("t")
            .k(k)
            .point(&QUERY)
            .protocol(Protocol::Secure)
            .run(rng)
            .unwrap()
    };
    let unsharded = run(1, &mut rng);
    let sharded = run(4, &mut rng);
    assert_eq!(unsharded.result, sharded.result);

    for stage in [
        Stage::SecureMinimum,
        Stage::RecordSelection,
        Stage::DistanceFreezing,
    ] {
        let mono = unsharded.profile.ops(stage);
        let shard = sharded.profile.ops(stage);
        assert!(
            shard.ciphertexts_to_c2 < mono.ciphertexts_to_c2,
            "{stage:?}: gather over k·S = 8 candidates must ship fewer \
             ciphertexts than the unsharded run over n = 16 \
             ({} vs {})",
            shard.ciphertexts_to_c2,
            mono.ciphertexts_to_c2
        );
    }
    // The scatter work is visible — and attributed per shard.
    let scatter = sharded.profile.ops(Stage::ShardCandidates);
    assert!(scatter.ciphertexts_to_c2 > 0);
    let per_shard: u64 = sharded
        .profile
        .shards()
        .into_iter()
        .map(|s| {
            sharded
                .profile
                .shard_stage_ops(s, Stage::ShardCandidates)
                .ciphertexts_to_c2
        })
        .sum();
    assert_eq!(per_shard, scatter.ciphertexts_to_c2);
}

/// The last selection round of every loop skips its SBOR freeze: the
/// unsharded loop, each shard's candidate rounds and the gather. At k = n
/// every record is selected, and with 2 shards of 3 and 2 records k = 4
/// exceeds every shard's size; both still match the oracle. An unsharded
/// query's freeze traffic is exactly (k − 1)·n·l SM pairs, each two
/// masked operands out, two decryptions and one product back.
#[test]
fn last_selection_round_skips_the_freeze() {
    let mut rng = StdRng::seed_from_u64(0x5AB3);
    let small = Table::new(table().records()[..5].to_vec()).unwrap();
    let n = small.records().len();
    for (shards, k) in [(1usize, 1usize), (1, 3), (1, n), (2, 4)] {
        let mut engine = engine_with(
            ShardingConfig {
                shards,
                sessions: 1,
            },
            TransportKind::InProcess,
            1,
            &mut rng,
        );
        engine
            .register_dataset("small", &small, &mut rng)
            .expect("register dataset");
        let outcome = engine
            .query("small")
            .k(k)
            .point(&QUERY)
            .protocol(Protocol::Secure)
            .run(&mut rng)
            .unwrap();
        assert_eq!(
            outcome.result,
            plain_knn_records(&small, &QUERY, k).unwrap(),
            "shards={shards} k={k}"
        );
        if shards == 1 {
            let pairs = ((k - 1) * n * engine.dataset("small").unwrap().distance_bits()) as u64;
            let freeze = outcome.profile.ops(Stage::DistanceFreezing);
            assert_eq!(freeze.ciphertexts_to_c2, 2 * pairs, "k={k}");
            assert_eq!(freeze.ciphertexts_from_c2, pairs, "k={k}");
            assert_eq!(freeze.c2_decryptions, 2 * pairs, "k={k}");
            assert_eq!(
                outcome.profile.stage(Stage::DistanceFreezing).is_zero(),
                k == 1,
                "k={k}"
            );
        }
    }
}

/// The same drop holds for SkNN_b: the gather merge ships only the k·S
/// candidate distances instead of all n.
#[test]
fn basic_gather_merges_candidates_only() {
    let mut rng = StdRng::seed_from_u64(0x5AAF);
    let k = 2;
    let run = |shards: usize, rng: &mut StdRng| {
        let engine = engine_with(
            ShardingConfig {
                shards,
                sessions: 1,
            },
            TransportKind::InProcess,
            1,
            rng,
        );
        engine
            .query("t")
            .k(k)
            .point(&QUERY)
            .protocol(Protocol::Basic)
            .run(rng)
            .unwrap()
    };
    let unsharded = run(1, &mut rng);
    let sharded = run(4, &mut rng);
    assert_eq!(unsharded.result, sharded.result);
    // Unsharded selection ships all 16 distances; the sharded merge ships
    // the 8 candidates.
    let mono = unsharded.profile.ops(Stage::RecordSelection);
    let merge = sharded.profile.ops(Stage::RecordSelection);
    assert_eq!(mono.ciphertexts_to_c2, 16);
    assert_eq!(merge.ciphertexts_to_c2, 8);
}

/// Dynamic updates route to the round-robin-owning shard, and the
/// updated dataset still answers shard-invariantly.
#[test]
fn appends_and_tombstones_land_in_the_owning_shard() {
    let mut rng = StdRng::seed_from_u64(0x5AB0);
    let shards = 4;
    let mut engine = engine_with(
        ShardingConfig {
            shards,
            sessions: 1,
        },
        TransportKind::InProcess,
        1,
        &mut rng,
    );

    // Physical index 16 → shard 16 mod 4 = 0.
    let record = engine.owner().encrypt_record(&[3, 3], &mut rng).unwrap();
    let indices = engine.append_records("t", vec![record]).unwrap();
    assert_eq!(indices, vec![16]);
    {
        let db = engine.dataset("t").unwrap().cloud().database();
        assert_eq!(db.shard_of(16), 0);
        assert!(db.shard_views()[0].live_indices().contains(&16));
        for s in 1..shards {
            assert!(!db.shard_views()[s].live_indices().contains(&16));
        }
    }

    // The appended record (distance 0) is the new nearest under every
    // protocol.
    for protocol in [Protocol::Basic, Protocol::Secure] {
        let nearest = engine
            .query("t")
            .k(1)
            .point(&QUERY)
            .protocol(protocol)
            .run(&mut rng)
            .unwrap();
        assert_eq!(nearest.result, vec![vec![3, 3]], "{protocol:?}");
    }

    // Tombstoning removes it from shard 0's view only, and queries go
    // back to the original answer.
    engine.tombstone_record("t", 16).unwrap();
    {
        let db = engine.dataset("t").unwrap().cloud().database();
        assert!(!db.shard_views()[0].live_indices().contains(&16));
        assert_eq!(db.num_live(), 16);
    }
    let expected = plain_knn_records(&table(), &QUERY, 2).unwrap();
    for protocol in [Protocol::Basic, Protocol::Secure] {
        let outcome = engine
            .query("t")
            .k(2)
            .point(&QUERY)
            .protocol(protocol)
            .run(&mut rng)
            .unwrap();
        assert_eq!(outcome.result, expected, "{protocol:?}");
    }

    // Tombstone an entire shard empty (indices 1, 5, 9, 13 form shard 1):
    // the plan must drop the empty shard and still answer correctly.
    for i in [1usize, 5, 9, 13] {
        engine.tombstone_record("t", i).unwrap();
    }
    assert_eq!(
        engine
            .dataset("t")
            .unwrap()
            .cloud()
            .database()
            .shard_views()[1]
            .num_live(),
        0
    );
    let survivors = Table::new(
        table()
            .records()
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 4 != 1)
            .map(|(_, r)| r.to_vec())
            .collect::<Vec<_>>(),
    )
    .unwrap();
    let expected = plain_knn_records(&survivors, &QUERY, 3).unwrap();
    for protocol in [Protocol::Basic, Protocol::Secure] {
        let outcome = engine
            .query("t")
            .k(3)
            .point(&QUERY)
            .protocol(protocol)
            .run(&mut rng)
            .unwrap();
        assert_eq!(outcome.result, expected, "{protocol:?}");
    }
}

/// A sharded dataset whose live records all sit in one shard runs the
/// single-shard plan: the gather is elided, nothing is attributed per
/// shard, and every stage's op counters equal an unsharded engine's over
/// the same live rows.
#[test]
fn one_populated_shard_elides_the_gather() {
    let mut rng = StdRng::seed_from_u64(0x5AB2);
    let mut sharded = engine_with(
        ShardingConfig {
            shards: 4,
            sessions: 1,
        },
        TransportKind::InProcess,
        1,
        &mut rng,
    );
    // Keep only shard 2 (indices 2, 6, 10, 14).
    for i in (0..16).filter(|i| i % 4 != 2) {
        sharded.tombstone_record("t", i).unwrap();
    }
    let live = Table::new(
        table()
            .records()
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 4 == 2)
            .map(|(_, r)| r.to_vec())
            .collect::<Vec<_>>(),
    )
    .unwrap();
    let mut unsharded = engine_with(
        ShardingConfig {
            shards: 1,
            sessions: 1,
        },
        TransportKind::InProcess,
        1,
        &mut rng,
    );
    unsharded
        .register_dataset("live", &live, &mut rng)
        .expect("register dataset");

    let k = 2;
    let expected = plain_knn_records(&live, &QUERY, k).unwrap();
    for protocol in [Protocol::Basic, Protocol::Secure] {
        let mut run = |engine: &SknnEngine, dataset: &str| {
            engine
                .query(dataset)
                .k(k)
                .point(&QUERY)
                .protocol(protocol)
                .run(&mut rng)
                .unwrap()
        };
        let one_shard = run(&sharded, "t");
        let reference = run(&unsharded, "live");
        assert_eq!(one_shard.result, expected, "{protocol:?}");
        assert_eq!(reference.result, expected, "{protocol:?}");
        assert!(one_shard.profile.shards().is_empty(), "{protocol:?}");
        for stage in Stage::ALL {
            assert_eq!(
                one_shard.profile.ops(stage),
                reference.profile.ops(stage),
                "{protocol:?} {stage:?}"
            );
        }
    }
}

/// Batches schedule shard-stage tasks: a mixed batch over a sharded
/// dataset with two sessions returns exactly the per-query results.
#[test]
fn sharded_batches_match_sequential_runs() {
    let mut rng = StdRng::seed_from_u64(0x5AB1);
    let engine = engine_with(
        ShardingConfig {
            shards: 4,
            sessions: 2,
        },
        TransportKind::Channel,
        4,
        &mut rng,
    );
    let queries: Vec<_> = [
        (1usize, Protocol::Basic),
        (4, Protocol::Basic),
        (2, Protocol::Secure),
        (3, Protocol::Basic),
    ]
    .iter()
    .map(|&(k, protocol)| {
        engine
            .query("t")
            .k(k)
            .point(&QUERY)
            .protocol(protocol)
            .build()
            .unwrap()
    })
    .collect();
    let outcomes = engine.run_batch(&queries, &mut rng);
    for (query, outcome) in queries.iter().zip(&outcomes) {
        let outcome = outcome.as_ref().expect("batch query succeeds");
        assert_eq!(
            outcome.result,
            plain_knn_records(&table(), &QUERY, query.k()).unwrap(),
            "k = {}",
            query.k()
        );
    }
}
