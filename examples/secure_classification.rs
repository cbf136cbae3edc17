//! Secure kNN classification.
//!
//! The paper points out (Section 2.1.1) that a secure exact-kNN primitive
//! immediately enables other privacy-preserving data-mining tasks such as
//! classification. This example builds a k-nearest-neighbor *classifier* for
//! heart-disease risk on top of the fully secure protocol: the cloud finds the
//! k most similar encrypted patient records, Bob decodes them and takes a
//! majority vote over their diagnosis attribute — all without the clouds
//! learning the training data, the test patient, or even which training
//! records voted.
//!
//! Run with:
//! ```text
//! cargo run --release --example secure_classification
//! ```

use rand::SeedableRng;
use sknn::data::heart::HeartDiseaseGenerator;
use sknn::{plain_knn_records, FederationConfig, Protocol, SknnEngine};

/// Index of the diagnosis attribute (`num`, 0 = no disease, 1–4 = disease).
const LABEL: usize = 9;

/// Majority vote over the binary "disease present" label of the neighbors.
fn classify(neighbors: &[Vec<u64>]) -> bool {
    let positive = neighbors.iter().filter(|r| r[LABEL] > 0).count();
    positive * 2 > neighbors.len()
}

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);

    // ── Training data: synthetic patients in the Table-2 attribute ranges ──
    let training = HeartDiseaseGenerator.table(30, &mut rng);
    let config = FederationConfig {
        key_bits: 256,
        max_query_value: 564,
        ..Default::default()
    };
    let mut engine = SknnEngine::setup(config, &mut rng).expect("setup");
    engine
        .register_dataset("training", &training, &mut rng)
        .expect("outsource");
    println!(
        "outsourced {} encrypted training records ({} attributes, {}-bit key)",
        training.num_records(),
        training.num_attributes(),
        engine.public_key().bits()
    );

    // ── Classify a handful of test patients ────────────────────────────────
    let k = 3;
    let mut agreements = 0;
    let trials = 4;
    for trial in 0..trials {
        let patient = HeartDiseaseGenerator.query(&mut rng);
        let result = engine
            .query("training")
            .k(k)
            .point(&patient)
            .protocol(Protocol::Secure)
            .run(&mut rng)
            .expect("secure query");
        let secure_prediction = classify(&result.result);

        // The same classification computed on plaintext, as ground truth.
        let plain_prediction = classify(&plain_knn_records(&training, &patient, k).unwrap());

        println!(
            "patient {trial}: secure prediction = {:<5} plaintext prediction = {:<5} ({} in {:?}, oblivious = {})",
            secure_prediction,
            plain_prediction,
            if secure_prediction == plain_prediction { "agree" } else { "DISAGREE" },
            result.profile.total(),
            result.audit.is_oblivious()
        );
        if secure_prediction == plain_prediction {
            agreements += 1;
        }
    }

    println!("\n{agreements}/{trials} predictions agree with the plaintext classifier");
    // Ties in the distance ranking can legitimately swap which neighbors vote,
    // but with continuous-ish attributes that is vanishingly rare.
    assert_eq!(agreements, trials, "secure and plaintext classifiers agree");
}
