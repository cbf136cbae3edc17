//! The typed query builder: every query is validated against its target
//! dataset *before* any ciphertext is formed or any protocol message is
//! sent, so malformed requests surface as [`SknnError::InvalidQuery`] /
//! [`SknnError::UnknownDataset`] values instead of mid-protocol panics or
//! silently wrong rankings.

use super::{QueryOutcome, SknnEngine};
use crate::error::InvalidQueryReason;
use crate::SknnError;
use rand::RngCore;

/// Which of the paper's two query protocols to run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// SkNN_b (Algorithm 5): fast, but reveals plaintext distances to C2
    /// and the access pattern to both clouds.
    Basic,
    /// SkNN_m (Algorithm 6): reveals nothing beyond ciphertexts — the
    /// default, because leaking should be an explicit choice.
    #[default]
    Secure,
}

/// A fully validated query, ready for [`SknnEngine::run`] or
/// [`SknnEngine::run_batch`]. Produced by [`QueryBuilder::build`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PreparedQuery {
    dataset: String,
    point: Vec<u64>,
    k: usize,
    protocol: Protocol,
    /// Explicit distance-bit override (secure protocol only); `None` uses
    /// the dataset's registered `l`.
    distance_bits: Option<usize>,
}

impl PreparedQuery {
    /// The dataset this query targets.
    pub fn dataset(&self) -> &str {
        &self.dataset
    }

    /// The query point.
    pub fn point(&self) -> &[u64] {
        &self.point
    }

    /// The number of neighbors requested.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The protocol the query will run.
    pub fn protocol(&self) -> Protocol {
        self.protocol
    }

    /// The explicit distance-bit override, if any.
    pub fn requested_distance_bits(&self) -> Option<usize> {
        self.distance_bits
    }
}

/// Builds one validated query against an [`SknnEngine`] dataset:
///
/// ```
/// # use rand::SeedableRng;
/// # use sknn_core::{Protocol, SknnEngine, FederationConfig, Table};
/// # let mut rng = rand::rngs::StdRng::seed_from_u64(12);
/// # let mut engine = SknnEngine::setup(
/// #     FederationConfig { key_bits: 96, ..Default::default() }, &mut rng).unwrap();
/// # let table = Table::new(vec![vec![2, 2], vec![9, 1], vec![4, 7]]).unwrap();
/// # engine.register_dataset("heart", &table, &mut rng).unwrap();
/// let query = engine
///     .query("heart")
///     .k(2)
///     .point(&[3, 2])
///     .protocol(Protocol::Secure)
///     .build()?;
/// let outcome = engine.run(&query, &mut rng)?;
/// assert_eq!(outcome.result.len(), 2);
/// # Ok::<(), sknn_core::SknnError>(())
/// ```
#[must_use = "a QueryBuilder does nothing until build() or run()"]
pub struct QueryBuilder<'e> {
    engine: &'e SknnEngine,
    dataset: String,
    k: usize,
    point: Option<Vec<u64>>,
    protocol: Protocol,
    distance_bits: Option<usize>,
}

impl<'e> QueryBuilder<'e> {
    pub(crate) fn new(engine: &'e SknnEngine, dataset: &str) -> Self {
        QueryBuilder {
            engine,
            dataset: dataset.to_string(),
            k: 1,
            point: None,
            protocol: Protocol::default(),
            distance_bits: None,
        }
    }

    /// Sets the number of nearest neighbors to retrieve (default 1).
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets the query point (required).
    pub fn point(mut self, point: &[u64]) -> Self {
        self.point = Some(point.to_vec());
        self
    }

    /// Selects the protocol (default [`Protocol::Secure`]).
    pub fn protocol(mut self, protocol: Protocol) -> Self {
        self.protocol = protocol;
        self
    }

    /// Overrides the distance-domain bit length `l` for this (secure)
    /// query. An expert knob for sweeping `l` as in Figures 2(d)–(e) of the
    /// paper; the value is passed to the protocol as-is, whose own
    /// validation rejects unusable lengths.
    pub fn distance_bits(mut self, l: usize) -> Self {
        self.distance_bits = Some(l);
        self
    }

    /// Validates the query against the target dataset's current state.
    ///
    /// # Errors
    /// Returns [`SknnError::UnknownDataset`] for an unregistered dataset
    /// name, and [`SknnError::InvalidQuery`] for a missing point, an arity
    /// mismatch, `k` outside `1..=n` (over live records), a
    /// `distance_bits` override on a basic-protocol query (SkNN_b would
    /// silently ignore it), or an attribute above the dataset's value
    /// bound.
    pub fn build(self) -> Result<PreparedQuery, SknnError> {
        let QueryBuilder {
            engine,
            dataset: name,
            k,
            point,
            protocol,
            distance_bits,
        } = self;
        let dataset = engine
            .dataset(&name)
            .ok_or_else(|| SknnError::UnknownDataset { name: name.clone() })?;
        let invalid = |reason: InvalidQueryReason| SknnError::InvalidQuery {
            dataset: name.clone(),
            reason,
        };
        let point = point.ok_or_else(|| invalid(InvalidQueryReason::MissingPoint))?;
        if point.len() != dataset.num_attributes() {
            return Err(invalid(InvalidQueryReason::WrongArity {
                expected: dataset.num_attributes(),
                got: point.len(),
            }));
        }
        let n = dataset.num_records();
        if k == 0 || k > n {
            return Err(invalid(InvalidQueryReason::KOutOfRange { k, n }));
        }
        if let (Protocol::Basic, Some(l)) = (protocol, distance_bits) {
            return Err(invalid(InvalidQueryReason::DistanceBitsWithBasicProtocol {
                l,
            }));
        }
        let bound = dataset.value_bound();
        if let Some((attribute, &value)) = point.iter().enumerate().find(|(_, &v)| v > bound) {
            return Err(invalid(InvalidQueryReason::ValueOutOfRange {
                attribute,
                value,
                bound,
            }));
        }
        Ok(PreparedQuery {
            dataset: name,
            point,
            k,
            protocol,
            distance_bits,
        })
    }

    /// Builds and immediately runs the query.
    ///
    /// # Errors
    /// See [`QueryBuilder::build`] and [`SknnEngine::run`].
    pub fn run<R: RngCore + ?Sized>(self, rng: &mut R) -> Result<QueryOutcome, SknnError> {
        let engine = self.engine;
        let query = self.build()?;
        engine.run(&query, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DatasetOptions, FederationConfig, Table};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn engine_with_dataset(rng: &mut StdRng) -> SknnEngine {
        let mut engine = SknnEngine::setup(
            FederationConfig {
                key_bits: 96,
                ..Default::default()
            },
            rng,
        )
        .unwrap();
        let table = Table::new(vec![vec![1, 1], vec![5, 5], vec![9, 9]]).unwrap();
        engine
            .register_dataset_with(
                "d",
                &table,
                DatasetOptions {
                    max_query_value: 10,
                    ..Default::default()
                },
                rng,
            )
            .unwrap();
        engine
    }

    fn reason(err: SknnError) -> InvalidQueryReason {
        match err {
            SknnError::InvalidQuery { reason, .. } => reason,
            other => panic!("expected InvalidQuery, got {other:?}"),
        }
    }

    #[test]
    fn builder_validates_up_front() {
        let mut rng = StdRng::seed_from_u64(551);
        let engine = engine_with_dataset(&mut rng);

        assert!(matches!(
            engine.query("missing").k(1).point(&[1, 1]).build(),
            Err(SknnError::UnknownDataset { name }) if name == "missing"
        ));
        assert_eq!(
            reason(engine.query("d").k(1).build().unwrap_err()),
            InvalidQueryReason::MissingPoint
        );
        assert_eq!(
            reason(engine.query("d").k(0).point(&[1, 1]).build().unwrap_err()),
            InvalidQueryReason::KOutOfRange { k: 0, n: 3 }
        );
        assert_eq!(
            reason(engine.query("d").k(4).point(&[1, 1]).build().unwrap_err()),
            InvalidQueryReason::KOutOfRange { k: 4, n: 3 }
        );
        assert_eq!(
            reason(engine.query("d").k(1).point(&[1]).build().unwrap_err()),
            InvalidQueryReason::WrongArity {
                expected: 2,
                got: 1
            }
        );
        assert_eq!(
            reason(engine.query("d").k(1).point(&[1, 999]).build().unwrap_err()),
            InvalidQueryReason::ValueOutOfRange {
                attribute: 1,
                value: 999,
                bound: 10
            }
        );

        // The l override only exists on the secure protocol; a basic query
        // would silently ignore it, so the builder rejects the combination.
        assert_eq!(
            reason(
                engine
                    .query("d")
                    .k(2)
                    .point(&[4, 4])
                    .protocol(Protocol::Basic)
                    .distance_bits(9)
                    .build()
                    .unwrap_err()
            ),
            InvalidQueryReason::DistanceBitsWithBasicProtocol { l: 9 }
        );

        let q = engine
            .query("d")
            .k(2)
            .point(&[4, 4])
            .protocol(Protocol::Secure)
            .distance_bits(9)
            .build()
            .unwrap();
        assert_eq!(q.dataset(), "d");
        assert_eq!(q.k(), 2);
        assert_eq!(q.protocol(), Protocol::Secure);
        assert_eq!(q.requested_distance_bits(), Some(9));
    }

    #[test]
    fn default_protocol_is_secure() {
        assert_eq!(Protocol::default(), Protocol::Secure);
    }
}
