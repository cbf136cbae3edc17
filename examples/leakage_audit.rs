//! What do the clouds actually learn? (The security analysis of Section 4.3,
//! made observable.)
//!
//! This example runs the same query through both protocols over the
//! channel transport and prints, side by side:
//!
//! * the access-pattern audit (which record identities and distances each
//!   cloud could observe), and
//! * the inter-cloud traffic each protocol generated.
//!
//! SkNN_b answers quickly but leaks; SkNN_m pays more computation and
//! bandwidth and leaks nothing.
//!
//! Run with:
//! ```text
//! cargo run --release --example leakage_audit
//! ```

use rand::SeedableRng;
use sknn::data::{perturbed_query, SyntheticDataset};
use sknn::{DatasetOptions, FederationConfig, Protocol, QueryOutcome, SknnEngine, TransportKind};

fn describe(label: &str, result: &QueryOutcome) {
    println!("── {label} ──");
    println!("  time                    : {:?}", result.profile.total());
    let audit = &result.audit;
    println!(
        "  distances visible to C2 : {}",
        if audit.distances_revealed_to_c2 {
            "YES (all n plaintext distances)"
        } else {
            "no"
        }
    );
    println!(
        "  result identities at C1 : {}",
        if audit.record_indices_revealed_to_c1.is_empty() {
            "none".to_string()
        } else {
            format!("records {:?}", audit.record_indices_revealed_to_c1)
        }
    );
    println!(
        "  result identities at C2 : {}",
        if audit.record_indices_revealed_to_c2.is_empty() {
            "none".to_string()
        } else {
            format!("records {:?}", audit.record_indices_revealed_to_c2)
        }
    );
    println!(
        "  access pattern hidden   : {}",
        if audit.is_oblivious() {
            "yes ✓"
        } else {
            "NO"
        }
    );
    if let Some(comm) = result.comm {
        println!(
            "  inter-cloud traffic     : {} messages, {} KiB",
            comm.requests + comm.responses,
            comm.total_bytes() / 1024
        );
    }
    println!();
}

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);

    let dataset = SyntheticDataset::uniform(60, 6, 10, &mut rng);
    let query = perturbed_query(&dataset.table, 2, dataset.max_value, &mut rng);
    let k = 3;

    let options = DatasetOptions {
        max_query_value: dataset.max_value,
        ..Default::default()
    };
    let mut engine = SknnEngine::setup(
        FederationConfig {
            key_bits: 256,
            transport: TransportKind::Channel,
            ..Default::default()
        },
        &mut rng,
    )
    .expect("setup");
    engine
        .register_dataset_with("synthetic", &dataset.table, options, &mut rng)
        .expect("outsource");

    println!(
        "querying {} encrypted records for the {k} nearest neighbors\n",
        dataset.table.num_records()
    );

    let mut run = |protocol: Protocol| {
        engine
            .query("synthetic")
            .k(k)
            .point(&query)
            .protocol(protocol)
            .run(&mut rng)
    };
    let basic = run(Protocol::Basic).expect("SkNN_b");
    describe("SkNN_b — basic protocol", &basic);

    let secure = run(Protocol::Secure).expect("SkNN_m");
    describe("SkNN_m — fully secure protocol", &secure);

    // The two protocols return equally-near neighbor sets (ties between
    // equidistant records may be broken differently, so compare distances).
    let distances = |records: &[Vec<u64>]| {
        let mut d: Vec<u128> = records
            .iter()
            .map(|r| sknn::squared_euclidean_distance(r, &query).unwrap())
            .collect();
        d.sort_unstable();
        d
    };
    assert_eq!(
        distances(&basic.result),
        distances(&secure.result),
        "both protocols return k neighbors at the same distances"
    );
    assert!(!basic.audit.is_oblivious());
    assert!(secure.audit.is_oblivious());
    println!("both protocols returned the same neighbors; only SkNN_m hid the access pattern ✓");
}
