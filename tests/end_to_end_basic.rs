//! Cross-crate integration tests for the basic protocol (SkNN_b): data
//! generation (`sknn-data`) → outsourcing and querying (`sknn-core`) →
//! plaintext verification, over both transports.

mod common;

use common::{run, setup};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sknn::data::{perturbed_query, uniform_query, SyntheticDataset};
use sknn::{
    plain_knn_records, FederationConfig, InvalidQueryReason, Protocol, QueryOutcome, SknnError,
    TransportKind,
};

fn config(key_bits: usize, max_query_value: u64) -> FederationConfig {
    FederationConfig {
        key_bits,
        max_query_value,
        ..Default::default()
    }
}

fn reason(result: Result<QueryOutcome, SknnError>) -> InvalidQueryReason {
    match result {
        Err(SknnError::InvalidQuery { reason, .. }) => reason,
        other => panic!("expected InvalidQuery, got {other:?}"),
    }
}

#[test]
fn synthetic_dataset_queries_match_plaintext_knn() {
    let mut rng = StdRng::seed_from_u64(1001);
    let dataset = SyntheticDataset::uniform(40, 4, 10, &mut rng);
    let engine = setup(&dataset.table, config(128, dataset.max_value), &mut rng).unwrap();

    for trial in 0..5 {
        let query = uniform_query(4, dataset.max_value, &mut rng);
        for k in [1usize, 3, 7] {
            let result = run(&engine, Protocol::Basic, &query, k, &mut rng).unwrap();
            assert_eq!(
                result.result,
                plain_knn_records(&dataset.table, &query, k).unwrap(),
                "trial {trial}, k = {k}"
            );
            assert_eq!(result.result.len(), k);
        }
    }
}

#[test]
fn perturbed_queries_over_channel_transport() {
    let mut rng = StdRng::seed_from_u64(1002);
    let dataset = SyntheticDataset::uniform(30, 6, 12, &mut rng);
    let engine = setup(
        &dataset.table,
        FederationConfig {
            key_bits: 128,
            max_query_value: dataset.max_value,
            transport: TransportKind::Channel,
            ..Default::default()
        },
        &mut rng,
    )
    .unwrap();

    let query = perturbed_query(&dataset.table, 2, dataset.max_value, &mut rng);
    let result = run(&engine, Protocol::Basic, &query, 4, &mut rng).unwrap();
    assert_eq!(
        result.result,
        plain_knn_records(&dataset.table, &query, 4).unwrap()
    );

    // The channel transport must report traffic, and the basic protocol's
    // round count is small: one SSED round per record batch… in our
    // implementation each record's SSED is one round, plus top-k and reveal.
    let comm = result.comm.expect("channel transport reports traffic");
    assert!(comm.requests >= dataset.table.num_records() as u64);
    assert!(comm.total_bytes() > 0);
}

#[test]
fn basic_protocol_leaks_access_pattern_by_design() {
    let mut rng = StdRng::seed_from_u64(1003);
    let dataset = SyntheticDataset::uniform(20, 3, 10, &mut rng);
    let engine = setup(&dataset.table, config(128, dataset.max_value), &mut rng).unwrap();
    let query = uniform_query(3, dataset.max_value, &mut rng);
    let result = run(&engine, Protocol::Basic, &query, 5, &mut rng).unwrap();

    assert!(result.audit.distances_revealed_to_c2);
    assert!(result.audit.access_pattern_revealed);
    assert_eq!(result.audit.record_indices_revealed_to_c1.len(), 5);
    // The leaked indices are exactly the plaintext kNN indices.
    assert_eq!(
        result.audit.record_indices_revealed_to_c1,
        sknn::plain_knn(&dataset.table, &query, 5).unwrap()
    );
}

#[test]
fn query_validation_errors_are_reported() {
    let mut rng = StdRng::seed_from_u64(1004);
    let dataset = SyntheticDataset::uniform(10, 3, 10, &mut rng);
    let engine = setup(&dataset.table, config(128, dataset.max_value), &mut rng).unwrap();

    assert_eq!(
        reason(run(&engine, Protocol::Basic, &[1, 2], 3, &mut rng)),
        InvalidQueryReason::WrongArity {
            expected: 3,
            got: 2
        }
    );
    assert_eq!(
        reason(run(&engine, Protocol::Basic, &[1, 2, 3], 0, &mut rng)),
        InvalidQueryReason::KOutOfRange { k: 0, n: 10 }
    );
    assert_eq!(
        reason(run(&engine, Protocol::Basic, &[1, 2, 3], 11, &mut rng)),
        InvalidQueryReason::KOutOfRange { k: 11, n: 10 }
    );
}

#[test]
fn repeated_queries_reuse_the_same_outsourced_database() {
    let mut rng = StdRng::seed_from_u64(1005);
    let dataset = SyntheticDataset::uniform(25, 3, 10, &mut rng);
    let engine = setup(&dataset.table, config(128, dataset.max_value), &mut rng).unwrap();

    // Ask the same query twice and a different query once; results must be
    // consistent and independent.
    let q1 = uniform_query(3, dataset.max_value, &mut rng);
    let q2 = uniform_query(3, dataset.max_value, &mut rng);
    let first = run(&engine, Protocol::Basic, &q1, 3, &mut rng).unwrap();
    let second = run(&engine, Protocol::Basic, &q1, 3, &mut rng).unwrap();
    let third = run(&engine, Protocol::Basic, &q2, 3, &mut rng).unwrap();
    assert_eq!(first.result, second.result);
    assert_eq!(
        first.result,
        plain_knn_records(&dataset.table, &q1, 3).unwrap()
    );
    assert_eq!(
        third.result,
        plain_knn_records(&dataset.table, &q2, 3).unwrap()
    );
}
