//! Quickstart: stand up an engine, register a dataset, answer one query
//! with each protocol, grow and shrink the encrypted table without
//! re-outsourcing it — then persist it to disk, restart the engine, and
//! show the reloaded dataset answers bit-identically.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use rand::SeedableRng;
use sknn::{FederationConfig, Protocol, QueryOutcome, SknnEngine, Table, TransportKind};

/// Per-stage wall time plus the transport-independent operation counters
/// (`QueryProfile::ops`): ciphertexts over the C1↔C2 wire and C2
/// decryptions, the two quantities slot packing shrinks.
fn print_stages(outcome: &QueryOutcome) {
    println!(
        "  {:<12} {:>10} {:>8} {:>8} {:>8}",
        "stage", "time", "cts→C2", "cts←C2", "C2 dec"
    );
    for (stage, duration) in outcome.profile.stages() {
        let ops = outcome.profile.ops(stage);
        println!(
            "  {:<12} {:>10.1?} {:>8} {:>8} {:>8}",
            stage.label(),
            duration,
            ops.ciphertexts_to_c2,
            ops.ciphertexts_from_c2,
            ops.c2_decryptions
        );
    }
    let total = outcome.profile.total_ops();
    println!(
        "  {:<12} {:>10.1?} {:>8} {:>8} {:>8}",
        "total",
        outcome.profile.total(),
        total.ciphertexts_to_c2,
        total.ciphertexts_from_c2,
        total.c2_decryptions
    );
}

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);

    // ── The deployment ──────────────────────────────────────────────────────
    // 256-bit keys keep the example fast; the paper evaluates 512 and 1024.
    let config = FederationConfig {
        key_bits: 256,
        max_query_value: 200,
        transport: TransportKind::Channel, // count inter-cloud traffic too
        ..Default::default()
    };
    let mut engine = SknnEngine::setup(config, &mut rng).expect("setup");

    // ── Alice's data ────────────────────────────────────────────────────────
    // A toy table of 8 records with 3 attributes each, registered as one
    // named dataset (an engine can host many).
    let table = Table::new(vec![
        vec![63, 1, 145],
        vec![56, 1, 130],
        vec![57, 0, 140],
        vec![59, 1, 144],
        vec![55, 0, 128],
        vec![77, 1, 125],
        vec![48, 0, 110],
        vec![61, 1, 150],
    ])
    .expect("well-formed table");
    engine
        .register_dataset("vitals", &table, &mut rng)
        .expect("register");
    let dataset = engine.dataset("vitals").expect("registered");
    println!(
        "registered \"vitals\": {} records × {} attributes under a {}-bit Paillier key (l = {} distance bits)",
        dataset.num_records(),
        dataset.num_attributes(),
        engine.public_key().bits(),
        dataset.distance_bits()
    );

    // ── Bob's query, through the typed builder ──────────────────────────────
    let query = [58u64, 1, 133];
    let k = 3;

    let basic = engine
        .query("vitals")
        .k(k)
        .point(&query)
        .protocol(Protocol::Basic)
        .run(&mut rng)
        .expect("SkNN_b");
    println!("\nSkNN_b (basic protocol)");
    for (rank, record) in basic.result.iter().enumerate() {
        println!("  #{rank}: {record:?}");
    }
    print_stages(&basic);
    println!(
        "  leakage: distances revealed to C2 = {}, access pattern revealed = {}",
        basic.audit.distances_revealed_to_c2, basic.audit.access_pattern_revealed
    );

    let secure = engine
        .query("vitals")
        .k(k)
        .point(&query)
        .protocol(Protocol::Secure)
        .run(&mut rng)
        .expect("SkNN_m");
    println!("\nSkNN_m (fully secure protocol)");
    for (rank, record) in secure.result.iter().enumerate() {
        println!("  #{rank}: {record:?}");
    }
    print_stages(&secure);
    println!(
        "  leakage: distances revealed to C2 = {}, access pattern revealed = {}",
        secure.audit.distances_revealed_to_c2, secure.audit.access_pattern_revealed
    );

    if let (Some(b), Some(s)) = (&basic.comm, &secure.comm) {
        println!(
            "\ninter-cloud traffic: SkNN_b = {} msgs / {} bytes, SkNN_m = {} msgs / {} bytes",
            b.requests + b.responses,
            b.total_bytes(),
            s.requests + s.responses,
            s.total_bytes()
        );
    }

    // Both protocols return the same set of nearest neighbors; the plaintext
    // baseline confirms it.
    let expected = sknn::plain_knn_records(&table, &query, k).unwrap();
    assert_eq!(basic.result, expected);
    let mut secure_sorted = secure.result.clone();
    let mut expected_sorted = expected;
    secure_sorted.sort();
    expected_sorted.sort();
    assert_eq!(secure_sorted, expected_sorted);
    println!("\nboth protocols agree with the plaintext kNN baseline ✓");

    // ── Dynamic updates: grow and shrink without re-outsourcing ─────────────
    // Alice appends a patient record identical to Bob's query point …
    let appended = engine
        .owner()
        .encrypt_record(&[58, 1, 133], &mut rng)
        .expect("encrypt record");
    let indices = engine
        .append_records("vitals", vec![appended])
        .expect("append");
    let nearest = engine
        .query("vitals")
        .k(1)
        .point(&query)
        .protocol(Protocol::Basic)
        .run(&mut rng)
        .expect("query after append");
    assert_eq!(nearest.result, vec![vec![58, 1, 133]]);
    println!("appended record found at distance 0 after a dynamic append ✓");

    // … and tombstones it again; no later query can return it.
    engine
        .tombstone_record("vitals", indices[0])
        .expect("tombstone");
    let after = engine
        .query("vitals")
        .k(engine.dataset("vitals").expect("registered").num_records())
        .point(&query)
        .protocol(Protocol::Basic)
        .run(&mut rng)
        .expect("query after tombstone");
    assert!(!after.result.contains(&vec![58, 1, 133]));
    println!("tombstoned record excluded from every subsequent query ✓");

    // ── Durability: persist, restart, query again ───────────────────────────
    // A durable engine writes every dataset ahead to per-shard ciphertext
    // logs under a store root; reopening the directory reloads them.
    let root = std::env::temp_dir().join(format!("sknn-quickstart-{}", std::process::id()));
    let owner = engine.owner().clone();
    let durable_config = FederationConfig {
        key_bits: 256,
        max_query_value: 200,
        transport: TransportKind::Channel,
        ..Default::default()
    };
    let mut durable =
        SknnEngine::open_dir(owner.clone(), durable_config.clone(), &root).expect("open store");
    durable
        .register_dataset_persistent("vitals", &table, &mut rng)
        .expect("persistent register");
    durable.tombstone_record("vitals", 5).expect("tombstone");
    durable.flush().expect("flush");
    let before_restart = durable
        .query("vitals")
        .k(k)
        .point(&query)
        .protocol(Protocol::Basic)
        .run(&mut rng)
        .expect("query before restart")
        .result;
    drop(durable); // "crash": the process forgets everything in memory

    let reloaded = SknnEngine::open_dir(owner, durable_config, &root).expect("reload store");
    let report = reloaded.recovery_report("vitals").expect("recovery report");
    println!(
        "\nreloaded \"vitals\" from {} (recovery: {})",
        root.display(),
        if report.is_clean() {
            "clean"
        } else {
            "salvaged"
        }
    );
    let after_restart = reloaded
        .query("vitals")
        .k(k)
        .point(&query)
        .protocol(Protocol::Basic)
        .run(&mut rng)
        .expect("query after restart")
        .result;
    assert_eq!(after_restart, before_restart);
    println!("restarted engine answers bit-identically from the on-disk ciphertext logs ✓");
    std::fs::remove_dir_all(&root).expect("cleanup");
}
