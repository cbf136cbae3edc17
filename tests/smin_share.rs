//! The paper's cost breakdown of SkNN_m (Section 5.2): SMIN_n dominates a
//! secure query's stage profile.
//!
//! The share is of wall-clock stage time, so this test lives in its own
//! binary: run beside sibling tests, it shares the cores with them and the
//! share it measures drifts.

mod common;

use common::{run, setup};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sknn::data::{uniform_query, SyntheticDataset};
use sknn::{FederationConfig, Protocol, Stage};

#[test]
fn profile_shows_smin_dominating_as_in_the_paper() {
    // Section 5.2: "around 69.7% of cost in SkNN_m is accounted due to SMIN_n".
    let mut rng = StdRng::seed_from_u64(2004);
    let dataset = SyntheticDataset::uniform(20, 6, 8, &mut rng);
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
    let query = uniform_query(6, dataset.max_value, &mut rng);
    let result = run(&engine, Protocol::Secure, &query, 3, &mut rng).unwrap();

    let smin_fraction = result.profile.fraction(Stage::SecureMinimum);
    assert!(
        smin_fraction > 0.4,
        "SMIN_n should dominate the secure protocol, got {:.1}%",
        smin_fraction * 100.0
    );
    // All stages of the secure pipeline actually ran.
    for stage in [
        Stage::DistanceComputation,
        Stage::BitDecomposition,
        Stage::SecureMinimum,
        Stage::RecordSelection,
        Stage::DistanceFreezing,
        Stage::Finalization,
    ] {
        assert!(
            result.profile.stage(stage) > std::time::Duration::ZERO,
            "stage {stage:?} did not run"
        );
    }
}
