//! Synthetic dataset generation matching the paper's experimental setup.

use rand::Rng;
use sknn_core::Table;

/// Parameters of a synthetic dataset.
///
/// The paper sweeps the number of records `n`, the number of attributes `m`,
/// and the bit length `l` of the squared-distance domain; attribute values are
/// drawn so that *every possible* squared distance (between any record and any
/// query from the same domain) fits strictly below `2^l − 1`, which is the
/// precondition SkNN_m needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SyntheticConfig {
    /// Number of records (`n`).
    pub records: usize,
    /// Number of attributes (`m`).
    pub attributes: usize,
    /// Bit length of the squared-distance domain (`l`).
    pub distance_bits: usize,
    /// Number of clusters; `0` or `1` produces uniformly random values,
    /// larger values produce records clustered around random centers, which
    /// gives kNN queries more realistic neighborhood structure.
    pub clusters: usize,
}

impl SyntheticConfig {
    /// A uniform dataset with the given dimensions.
    pub fn uniform(records: usize, attributes: usize, distance_bits: usize) -> Self {
        SyntheticConfig {
            records,
            attributes,
            distance_bits,
            clusters: 0,
        }
    }

    /// The largest attribute value compatible with the distance-bit budget:
    /// the worst-case squared distance `m · v²` must stay below `2^l − 1`.
    pub fn max_attribute_value(&self) -> u64 {
        max_value_for(self.attributes, self.distance_bits)
    }
}

/// The largest per-attribute value such that `m · v² < 2^l − 1`.
pub(crate) fn max_value_for(attributes: usize, distance_bits: usize) -> u64 {
    assert!(attributes > 0, "need at least one attribute");
    assert!(distance_bits >= 2, "need at least a 2-bit distance domain");
    let budget = (1u128 << distance_bits) - 2; // strictly below 2^l − 1
    let per_attribute = budget / attributes as u128;
    let mut v = (per_attribute as f64).sqrt() as u64;
    // Float truncation can be off by one in either direction; fix up exactly.
    while attributes as u128 * (v as u128 + 1) * (v as u128 + 1) <= budget {
        v += 1;
    }
    while v > 0 && attributes as u128 * (v as u128) * (v as u128) > budget {
        v -= 1;
    }
    v
}

/// A generated dataset together with the domain metadata the protocols need.
#[derive(Clone, Debug)]
pub struct SyntheticDataset {
    /// The plaintext table (to be encrypted and outsourced by the data owner).
    pub table: Table,
    /// The configuration it was generated from.
    pub config: SyntheticConfig,
    /// The largest attribute value that may appear in records or queries.
    pub max_value: u64,
}

impl SyntheticDataset {
    /// Generates a dataset according to `config`.
    ///
    /// # Panics
    /// Panics when the configuration is degenerate (zero records/attributes or
    /// a distance domain too small to hold even a single attribute).
    pub fn generate<R: Rng + ?Sized>(config: SyntheticConfig, rng: &mut R) -> Self {
        assert!(config.records > 0, "need at least one record");
        let max_value = config.max_attribute_value();
        assert!(
            max_value > 0,
            "distance_bits = {} is too small for {} attributes",
            config.distance_bits,
            config.attributes
        );

        let rows = if config.clusters >= 2 {
            generate_clustered(config, max_value, rng)
        } else {
            (0..config.records)
                .map(|_| {
                    (0..config.attributes)
                        .map(|_| rng.gen_range(0..=max_value))
                        .collect()
                })
                .collect()
        };

        SyntheticDataset {
            table: Table::new(rows).expect("generated rows are rectangular and non-empty"),
            config,
            max_value,
        }
    }

    /// Convenience wrapper: a uniform dataset sized like one point of the
    /// paper's sweeps.
    pub fn uniform<R: Rng + ?Sized>(
        records: usize,
        attributes: usize,
        distance_bits: usize,
        rng: &mut R,
    ) -> Self {
        Self::generate(
            SyntheticConfig::uniform(records, attributes, distance_bits),
            rng,
        )
    }
}

fn generate_clustered<R: Rng + ?Sized>(
    config: SyntheticConfig,
    max_value: u64,
    rng: &mut R,
) -> Vec<Vec<u64>> {
    let spread = (max_value / 10).max(1);
    let centers: Vec<Vec<u64>> = (0..config.clusters)
        .map(|_| {
            (0..config.attributes)
                .map(|_| rng.gen_range(0..=max_value))
                .collect()
        })
        .collect();
    (0..config.records)
        .map(|_| {
            let center = &centers[rng.gen_range(0..centers.len())];
            center
                .iter()
                .map(|&c| {
                    let offset = rng.gen_range(0..=2 * spread) as i64 - spread as i64;
                    (c as i64 + offset).clamp(0, max_value as i64) as u64
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sknn_core::squared_euclidean_distance;

    #[test]
    fn dimensions_match_config() {
        let mut rng = StdRng::seed_from_u64(1);
        let ds = SyntheticDataset::uniform(50, 6, 12, &mut rng);
        assert_eq!(ds.table.num_records(), 50);
        assert_eq!(ds.table.num_attributes(), 6);
        assert!(ds.max_value > 0);
    }

    #[test]
    fn every_pairwise_distance_fits_in_the_domain() {
        let mut rng = StdRng::seed_from_u64(2);
        for l in [6usize, 9, 12] {
            let ds = SyntheticDataset::uniform(20, 6, l, &mut rng);
            let limit = (1u128 << l) - 1;
            for a in ds.table.records() {
                for b in ds.table.records() {
                    assert!(
                        squared_euclidean_distance(a, b).unwrap() < limit,
                        "distance exceeds 2^{l} − 1"
                    );
                }
            }
        }
    }

    #[test]
    fn max_value_for_is_tight() {
        for (m, l) in [(1usize, 6usize), (6, 6), (6, 12), (18, 12), (10, 24)] {
            let v = max_value_for(m, l);
            let budget = (1u128 << l) - 2;
            assert!(
                m as u128 * (v as u128) * (v as u128) <= budget,
                "m={m} l={l}"
            );
            assert!(
                m as u128 * (v as u128 + 1) * (v as u128 + 1) > budget,
                "m={m} l={l} not tight"
            );
        }
    }

    #[test]
    fn values_stay_within_bound() {
        let mut rng = StdRng::seed_from_u64(3);
        let ds = SyntheticDataset::uniform(100, 3, 10, &mut rng);
        assert!(ds
            .table
            .records()
            .iter()
            .flat_map(|r| r.iter())
            .all(|&v| v <= ds.max_value));
        assert!(ds.table.max_attribute_value() <= ds.max_value);
    }

    #[test]
    fn clustered_generation_produces_clusters() {
        let mut rng = StdRng::seed_from_u64(4);
        let config = SyntheticConfig {
            records: 200,
            attributes: 2,
            distance_bits: 20,
            clusters: 3,
        };
        let ds = SyntheticDataset::generate(config, &mut rng);
        assert_eq!(ds.table.num_records(), 200);
        // Clustered data should have noticeably lower average nearest-neighbor
        // distance than the value span would suggest for uniform data.
        let first = ds.table.record(0);
        let nearest = ds
            .table
            .records()
            .iter()
            .skip(1)
            .map(|r| squared_euclidean_distance(first, r).unwrap())
            .min()
            .unwrap();
        let span = ds.max_value as u128;
        assert!(
            nearest < span * span,
            "some record should be reasonably close"
        );
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let a = SyntheticDataset::uniform(10, 4, 10, &mut StdRng::seed_from_u64(9));
        let b = SyntheticDataset::uniform(10, 4, 10, &mut StdRng::seed_from_u64(9));
        assert_eq!(a.table, b.table);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn degenerate_domain_rejected() {
        let mut rng = StdRng::seed_from_u64(5);
        let _ = SyntheticDataset::uniform(10, 100, 2, &mut rng);
    }
}
