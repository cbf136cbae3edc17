//! Batch query submission.
//!
//! The paper's evaluation times one query at a time; a deployment serving
//! many users wants to push *batches* through the machinery the earlier
//! PRs built: the pipelined session clients keep every worker's requests
//! in flight, request coalescing merges small concurrent batches into
//! shared round trips, and the offline randomness pools absorb the
//! encryption spikes. [`SknnEngine::run_batch`] schedules **shard-stage
//! tasks**, not whole queries: the outer fan-out runs queries
//! concurrently, and each query's scatter half ([`crate::exec`]) fans its
//! per-shard SSED/candidate stages across the remaining thread budget and
//! onto the shard-pinned C2 sessions. With `b` queries over `S` shards the
//! pool therefore schedules up to `b·S` independent scatter tasks — a
//! batch of one over a sharded dataset saturates the thread pool just
//! like a large batch over an unsharded one.

use super::{PreparedQuery, SknnEngine};
use crate::parallel::{parallel_map, ParallelismConfig};
use crate::profile::QueryProfile;
use crate::seed::{derive_seeds, derived_rng};
use crate::{AccessPatternAudit, SknnError};
use rand::RngCore;
use sknn_protocols::stats::CommSnapshot;

/// The result of one query: the records Bob recovers plus the measurement
/// artifacts the evaluation harness needs.
#[derive(Debug)]
pub struct QueryOutcome {
    /// The k nearest records, nearest first (ties may appear in either
    /// order for the fully secure protocol).
    pub result: Vec<Vec<u64>>,
    /// Wall-clock time and protocol-operation counters per stage.
    pub profile: QueryProfile,
    /// What the clouds learned while answering this query.
    pub audit: AccessPatternAudit,
    /// Traffic between the clouds during this query. `None` for
    /// [`crate::TransportKind::InProcess`]. The counters are deltas of the
    /// shared session's totals, so when queries of one batch run
    /// concurrently their windows overlap and each outcome may include
    /// traffic issued by the others; [`SknnEngine::comm_stats`] totals stay
    /// exact (the same caveat as [`crate::PoolActivity`]).
    pub comm: Option<CommSnapshot>,
    /// What failure handling this query performed — scatter tasks and the
    /// gather re-run or re-pinned onto surviving sessions, sessions found
    /// dead. Empty ([`crate::RetryReport::is_clean`]) for a fault-free
    /// run, and always empty when [`crate::FederationConfig::retry`] is
    /// [`crate::RetryPolicy::none`].
    pub retries: crate::RetryReport,
}

impl SknnEngine {
    /// Runs a batch of prepared queries, fanned out across the engine's
    /// configured threads over the one shared key-holder session, and
    /// returns one outcome per query, in input order.
    ///
    /// Each query draws its C1-side randomness from a seed derived from
    /// `rng` up front, so the records a batch returns match what the same
    /// queries return one at a time. One caveat: when *distinct* records
    /// tie at the same distance, C2's tie-breaking randomness (a single
    /// per-session stream) is consumed in scheduling order, so which of
    /// the equidistant records wins may differ between a batch and a
    /// sequential run — both answers are correct kNN sets.
    ///
    /// When the batch has fewer queries than configured threads, the
    /// leftover budget (`⌈threads / batch⌉` per query) goes to each
    /// query's own shard-stage fan-out — per-shard scatter tasks first,
    /// then the record-parallel loops within a shard — so a batch of one
    /// performs like [`SknnEngine::run`] and a sharded dataset keeps every
    /// thread busy even at batch size one.
    ///
    /// Per-query failures (e.g. a dataset removed after the query was
    /// built, or a protocol-level transport error) are reported in the
    /// query's own slot without aborting the rest of the batch.
    pub fn run_batch<R: RngCore + ?Sized>(
        &self,
        queries: &[PreparedQuery],
        rng: &mut R,
    ) -> Vec<Result<QueryOutcome, SknnError>> {
        let seeds = derive_seeds(rng, queries.len());
        let threads = self.parallelism().threads;
        // Ceiling, not floor: with e.g. 4 threads and 3 queries a floor
        // would strand a thread while sharded scatter tasks queue behind
        // serial queries. Mild oversubscription is cheap — the shard tasks
        // spend most of their wall time waiting on C2 round trips.
        let inner = ParallelismConfig {
            threads: threads.div_ceil(queries.len().max(1)).max(1),
        };
        parallel_map(threads, queries, |i, query| {
            let mut query_rng = derived_rng(seeds[i]);
            self.run_with_parallelism(query, inner, &mut query_rng)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Protocol;
    use crate::{plain_knn_records, FederationConfig, Table, TransportKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table() -> Table {
        // Distances from (2, 2): 68, 29, 18, 98, 2 — all distinct, so every
        // result set (and its order) is deterministic for both protocols.
        Table::new(vec![
            vec![10, 0],
            vec![0, 7],
            vec![5, 5],
            vec![9, 9],
            vec![1, 1],
        ])
        .unwrap()
    }

    #[test]
    fn batch_matches_sequential_runs() {
        let mut rng = StdRng::seed_from_u64(561);
        let mut engine = SknnEngine::setup(
            FederationConfig {
                key_bits: 96,
                max_query_value: 10,
                threads: 4,
                transport: TransportKind::Channel,
                ..Default::default()
            },
            &mut rng,
        )
        .unwrap();
        let t = table();
        engine.register_dataset("d", &t, &mut rng).unwrap();

        let queries: Vec<PreparedQuery> = [
            (1usize, Protocol::Basic),
            (3, Protocol::Basic),
            (2, Protocol::Secure),
        ]
        .iter()
        .map(|&(k, protocol)| {
            engine
                .query("d")
                .k(k)
                .point(&[2, 2])
                .protocol(protocol)
                .build()
                .unwrap()
        })
        .collect();

        let outcomes = engine.run_batch(&queries, &mut rng);
        assert_eq!(outcomes.len(), 3);
        for (query, outcome) in queries.iter().zip(&outcomes) {
            let outcome = outcome.as_ref().expect("batch query succeeds");
            let sequential = engine.run(query, &mut rng).unwrap();
            assert_eq!(outcome.result, sequential.result, "k = {}", query.k());
            assert_eq!(
                outcome.result,
                plain_knn_records(&t, &[2, 2], query.k()).unwrap()
            );
        }
    }

    #[test]
    fn batch_reports_per_query_failures_without_aborting() {
        let mut rng = StdRng::seed_from_u64(562);
        let mut engine = SknnEngine::setup(
            FederationConfig {
                key_bits: 96,
                max_query_value: 10,
                threads: 2,
                ..Default::default()
            },
            &mut rng,
        )
        .unwrap();
        engine.register_dataset("d", &table(), &mut rng).unwrap();
        let good = engine
            .query("d")
            .k(1)
            .point(&[2, 2])
            .protocol(Protocol::Basic)
            .build()
            .unwrap();
        // A query staled by an update: built while 5 records were live,
        // invalidated by tombstoning down to 4.
        let staled = engine
            .query("d")
            .k(5)
            .point(&[2, 2])
            .protocol(Protocol::Basic)
            .build()
            .unwrap();
        engine.tombstone_record("d", 0).unwrap();

        let outcomes = engine.run_batch(&[good, staled], &mut rng);
        assert_eq!(outcomes[0].as_ref().unwrap().result, vec![vec![1, 1]]);
        assert!(matches!(
            outcomes[1],
            Err(SknnError::InvalidK { k: 5, n: 4 })
        ));
    }
}
