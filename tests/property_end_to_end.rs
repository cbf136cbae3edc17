//! Property-based end-to-end tests: for random small tables and queries, both
//! protocols must return a correct k-nearest-neighbor set (verified against
//! the plaintext baseline by distance multiset, which is tie-insensitive).

mod common;

use common::run;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sknn::{
    plain_knn_records, squared_euclidean_distance, DataOwner, FederationConfig, Keypair, Protocol,
    SknnEngine, Table,
};
use std::sync::OnceLock;

/// Key generation dominates test time, so share one key pair across cases.
fn shared_keypair() -> &'static Keypair {
    static KEYS: OnceLock<Keypair> = OnceLock::new();
    KEYS.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xBEEF);
        Keypair::generate(128, &mut rng)
    })
}

/// A one-dataset engine over `table` under the shared key pair.
fn setup(table: &Table, rng: &mut StdRng) -> SknnEngine {
    let owner = DataOwner::from_keypair(shared_keypair().clone());
    let config = FederationConfig {
        key_bits: 128,
        ..Default::default()
    };
    common::setup_with_owner(owner, table, config, 16, rng).unwrap()
}

fn sorted_distances(records: &[Vec<u64>], query: &[u64]) -> Vec<u128> {
    let mut d: Vec<u128> = records
        .iter()
        .map(|r| squared_euclidean_distance(r, query).unwrap())
        .collect();
    d.sort_unstable();
    d
}

fn arb_instance() -> impl Strategy<Value = (Vec<Vec<u64>>, Vec<u64>, usize)> {
    // Between 2 and 8 records, 1–3 attributes, values below 16, k ≤ n.
    (2usize..=8, 1usize..=3).prop_flat_map(|(n, m)| {
        (
            prop::collection::vec(prop::collection::vec(0u64..16, m), n),
            prop::collection::vec(0u64..16, m),
            1usize..=n,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn basic_protocol_is_correct_on_random_instances((rows, query, k) in arb_instance(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let table = Table::new(rows).unwrap();
        let engine = setup(&table, &mut rng);

        let result = run(&engine, Protocol::Basic, &query, k, &mut rng).unwrap();
        // SkNN_b uses the same tie-breaking as the plaintext baseline, so the
        // records must match exactly, in order.
        prop_assert_eq!(result.result, plain_knn_records(&table, &query, k).unwrap());
    }

    #[test]
    fn secure_protocol_is_correct_on_random_instances((rows, query, k) in arb_instance(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let table = Table::new(rows).unwrap();
        let engine = setup(&table, &mut rng);

        let result = run(&engine, Protocol::Secure, &query, k, &mut rng).unwrap();
        prop_assert_eq!(result.result.len(), k);
        // Every record returned must be a table row.
        for r in &result.result {
            prop_assert!(table.records().iter().any(|row| row == r));
        }
        // Distance multiset must equal the plaintext baseline's.
        let expected = plain_knn_records(&table, &query, k).unwrap();
        prop_assert_eq!(
            sorted_distances(&result.result, &query),
            sorted_distances(&expected, &query)
        );
        // And nothing was leaked.
        prop_assert!(result.audit.is_oblivious());
    }
}
