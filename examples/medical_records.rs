//! The paper's motivating scenario (Example 1): a hospital outsources an
//! encrypted heart-disease dataset, and a physician queries it for the
//! patients most similar to the one currently being examined — without the
//! cloud learning the dataset, the query, or which historical patients
//! matched.
//!
//! One `SknnEngine` deployment hosts *two* hospital datasets side by side:
//! the paper's six-patient Table 1, and a larger synthetic cohort from the
//! Table-2 generator. Queries go through the typed builder; the cohort
//! queries are submitted as one batch.
//!
//! Run with:
//! ```text
//! cargo run --release --example medical_records
//! ```

use rand::SeedableRng;
use sknn::data::heart::{
    example_query, heart_disease_table, HeartDiseaseGenerator, ATTRIBUTE_NAMES,
};
use sknn::{DatasetOptions, FederationConfig, PreparedQuery, Protocol, SknnEngine};

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2014);

    let options = DatasetOptions {
        max_query_value: 564, // the largest value in Table 2 (cholesterol)
        ..Default::default()
    };
    let config = FederationConfig {
        key_bits: 256,
        ..Default::default()
    };
    let mut engine = SknnEngine::setup(config, &mut rng).expect("setup");

    // ── Two datasets, one deployment ────────────────────────────────────────
    // The hospital's Table 1 (six patients) and a 60-patient synthetic
    // cohort share the clouds, the key pair, and the C2 session.
    engine
        .register_dataset_with("table1", &heart_disease_table(), options, &mut rng)
        .expect("register table1");
    let cohort = HeartDiseaseGenerator.table(60, &mut rng);
    engine
        .register_dataset_with("cohort", &cohort, options, &mut rng)
        .expect("register cohort");
    for name in engine.dataset_names() {
        let ds = engine.dataset(name).expect("registered");
        println!(
            "dataset {name:?}: {} patients × {} attributes, l = {} distance bits",
            ds.num_records(),
            ds.num_attributes(),
            ds.distance_bits()
        );
    }
    println!();

    // ── Part 1: reproduce Example 1 of the paper exactly ───────────────────
    // The physician's query is the patient record of Example 1; k = 2; the
    // expected answer is {t4, t5}.
    let patient = example_query();
    println!("physician queries (obliviously) for the 2 patients most similar to {patient:?}\n");
    let result = engine
        .query("table1")
        .k(2)
        .point(&patient)
        .protocol(Protocol::Secure)
        .run(&mut rng)
        .expect("secure query");

    for record in &result.result {
        let named: Vec<String> = ATTRIBUTE_NAMES
            .iter()
            .zip(record)
            .map(|(name, value)| format!("{name}={value}"))
            .collect();
        println!("  match: {}", named.join(", "));
    }

    let fixture = sknn::data::heart::heart_disease_fixture();
    let mut got = result.result.clone();
    got.sort();
    let mut expected = vec![fixture[3].clone(), fixture[4].clone()];
    expected.sort();
    assert_eq!(got, expected, "Example 1 of the paper is reproduced");
    println!("\nresult matches Example 1 of the paper (records t4 and t5) ✓");

    // Per-stage wall time and protocol-operation counters (ciphertexts over
    // the C1↔C2 wire, C2 decryptions) of the fully secure query.
    println!("\nstage breakdown of the fully secure query:");
    println!(
        "  {:<12} {:>10} {:>7} {:>8} {:>8} {:>8}",
        "stage", "time", "%", "cts→C2", "cts←C2", "C2 dec"
    );
    for (stage, duration) in result.profile.stages() {
        let ops = result.profile.ops(stage);
        println!(
            "  {:<12} {:>10.1?} {:>6.1}% {:>8} {:>8} {:>8}",
            stage.label(),
            duration,
            100.0 * result.profile.fraction(stage),
            ops.ciphertexts_to_c2,
            ops.ciphertexts_from_c2,
            ops.c2_decryptions
        );
    }
    println!(
        "neither cloud learned the patient data, the query, or which records matched: {}\n",
        result.audit.is_oblivious()
    );

    // ── Part 2: a batch of queries against the larger cohort ───────────────
    // Several physicians query concurrently with the efficient basic
    // protocol, which a hospital might accept when the cloud provider is
    // trusted with access patterns but not with data.
    let k = 5;
    let queries: Vec<(Vec<u64>, PreparedQuery)> = (0..4)
        .map(|_| {
            let q = HeartDiseaseGenerator.query(&mut rng);
            let prepared = engine
                .query("cohort")
                .k(k)
                .point(&q)
                .protocol(Protocol::Basic)
                .build()
                .expect("validated query");
            (q, prepared)
        })
        .collect();
    let prepared: Vec<PreparedQuery> = queries.iter().map(|(_, p)| p.clone()).collect();
    let outcomes = engine.run_batch(&prepared, &mut rng);
    for ((query, _), outcome) in queries.iter().zip(&outcomes) {
        let outcome = outcome.as_ref().expect("batch query");
        println!(
            "cohort batch query took {:?}; {k} nearest diagnoses (num attribute): {:?}",
            outcome.profile.total(),
            outcome.result.iter().map(|r| r[9]).collect::<Vec<_>>()
        );
        assert_eq!(
            outcome.result,
            sknn::plain_knn_records(&cohort, query, k).unwrap(),
            "the basic protocol matches the plaintext baseline"
        );
    }
    println!("all batch results match the plaintext kNN baseline ✓");
}
