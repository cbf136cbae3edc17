//! Cross-crate integration tests for the fully secure protocol (SkNN_m).
//!
//! Because SkNN_m hides which stored record produced each result, ties between
//! equidistant records can legitimately resolve differently than the plaintext
//! baseline; the assertions therefore compare *distance multisets* (which must
//! match exactly) and record membership.

mod common;

use common::{run, setup};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sknn::data::{perturbed_query, uniform_query, SyntheticDataset};
use sknn::{
    plain_knn_records, squared_euclidean_distance, FederationConfig, Protocol, Table, TransportKind,
};

fn sorted_distances(records: &[Vec<u64>], query: &[u64]) -> Vec<u128> {
    let mut d: Vec<u128> = records
        .iter()
        .map(|r| squared_euclidean_distance(r, query).unwrap())
        .collect();
    d.sort_unstable();
    d
}

fn assert_valid_knn(table: &Table, query: &[u64], k: usize, records: &[Vec<u64>]) {
    assert_eq!(records.len(), k);
    // Every returned record must exist in the table.
    for r in records {
        assert!(
            table.records().iter().any(|row| row == r),
            "returned record {r:?} is not in the table"
        );
    }
    // The returned distance multiset must equal the plaintext kNN's.
    let expected = plain_knn_records(table, query, k).unwrap();
    assert_eq!(
        sorted_distances(records, query),
        sorted_distances(&expected, query)
    );
}

#[test]
fn secure_queries_match_plaintext_knn_distances() {
    let mut rng = StdRng::seed_from_u64(2001);
    let dataset = SyntheticDataset::uniform(15, 3, 8, &mut rng);
    let engine = setup(
        &dataset.table,
        FederationConfig {
            key_bits: 128,
            ..Default::default()
        },
        dataset.max_value,
        &mut rng,
    )
    .unwrap();

    for k in [1usize, 2, 5] {
        let query = uniform_query(3, dataset.max_value, &mut rng);
        let result = run(&engine, Protocol::Secure, &query, k, &mut rng).unwrap();
        assert_valid_knn(&dataset.table, &query, k, &result.result);
        assert!(result.audit.is_oblivious(), "SkNN_m must not leak");
    }
}

#[test]
fn secure_and_basic_protocols_agree() {
    let mut rng = StdRng::seed_from_u64(2002);
    let dataset = SyntheticDataset::uniform(12, 4, 10, &mut rng);
    let engine = setup(
        &dataset.table,
        FederationConfig {
            key_bits: 128,
            ..Default::default()
        },
        dataset.max_value,
        &mut rng,
    )
    .unwrap();
    let query = perturbed_query(&dataset.table, 1, dataset.max_value, &mut rng);

    let basic = run(&engine, Protocol::Basic, &query, 4, &mut rng).unwrap();
    let secure = run(&engine, Protocol::Secure, &query, 4, &mut rng).unwrap();
    assert_eq!(
        sorted_distances(&basic.result, &query),
        sorted_distances(&secure.result, &query)
    );
}

#[test]
fn secure_query_over_channel_transport_counts_traffic_and_hides_pattern() {
    let mut rng = StdRng::seed_from_u64(2003);
    let dataset = SyntheticDataset::uniform(10, 3, 8, &mut rng);
    let engine = setup(
        &dataset.table,
        FederationConfig {
            key_bits: 128,
            transport: TransportKind::Channel,
            ..Default::default()
        },
        dataset.max_value,
        &mut rng,
    )
    .unwrap();

    let query = uniform_query(3, dataset.max_value, &mut rng);
    let basic = run(&engine, Protocol::Basic, &query, 2, &mut rng).unwrap();
    let secure = run(&engine, Protocol::Secure, &query, 2, &mut rng).unwrap();

    assert_valid_knn(&dataset.table, &query, 2, &secure.result);
    assert!(secure.audit.is_oblivious());

    // Security costs bandwidth: the secure protocol exchanges strictly more
    // messages and bytes than the basic one for the same query.
    let b = basic.comm.unwrap();
    let s = secure.comm.unwrap();
    assert!(s.requests > b.requests);
    assert!(s.total_bytes() > b.total_bytes());
}

#[test]
fn all_records_identical_edge_case() {
    // Every record is the same point: any k of them is a correct answer and
    // the protocol must still terminate and return k copies.
    let mut rng = StdRng::seed_from_u64(2005);
    let table = Table::new(vec![vec![7, 7]; 6]).unwrap();
    let engine = setup(
        &table,
        FederationConfig {
            key_bits: 128,
            ..Default::default()
        },
        15,
        &mut rng,
    )
    .unwrap();
    let result = run(&engine, Protocol::Secure, &[1, 2], 3, &mut rng).unwrap();
    assert_eq!(result.result, vec![vec![7, 7]; 3]);
}

#[test]
fn query_identical_to_a_record_returns_it_first() {
    let mut rng = StdRng::seed_from_u64(2006);
    let table = Table::new(vec![vec![9, 1], vec![3, 4], vec![8, 8], vec![0, 2]]).unwrap();
    let engine = setup(
        &table,
        FederationConfig {
            key_bits: 128,
            ..Default::default()
        },
        9,
        &mut rng,
    )
    .unwrap();
    let result = run(&engine, Protocol::Secure, &[3, 4], 1, &mut rng).unwrap();
    assert_eq!(result.result, vec![vec![3, 4]]);
}
