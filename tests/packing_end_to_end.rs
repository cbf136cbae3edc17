//! Acceptance test for slot-packed Paillier batching: `Fixed(8)` packing at
//! a 1024-bit key on the heart-disease dataset.
//!
//! Asserted (packed vs scalar, same key, same data, same queries):
//!
//! * identical kNN results from both protocols;
//! * ≥4× fewer C1→C2 ciphertexts **and** ≥4× fewer C2 decryptions across
//!   the SSED+SBD stages;
//! * ≥4× fewer ciphertexts on the wire (both directions) for the SSED
//!   stage alone, and strictly fewer for SSED+SBD combined.
//!
//! The SBD *response* side is the one place total wire volume cannot drop
//! by σ: every round must hand C1 one fresh per-bit ciphertext per value —
//! SMIN consumes the bits individually, and additively homomorphic
//! ciphertexts cannot be split by the party that cannot decrypt them. The
//! request side, C2's decryptions, and SSED's responses all shrink by ~σ.
//! See DESIGN.md ("Slot-packed batching") for the full argument.

mod common;

use common::{run, DATASET};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sknn::core::{OpCounters, PackingKind, Stage};
use sknn::data::heart::{example_query, heart_disease_fixture, HeartDiseaseGenerator};
use sknn::{DataOwner, FederationConfig, Protocol, QueryOutcome, SknnEngine, Table};

const KEY_BITS: usize = 1024;
const SIGMA: usize = 8;

fn heart_table() -> Table {
    // The six records of Table 1 plus generated records from the Table 2
    // ranges, so the packed path spans two ciphertext groups at σ = 8.
    let mut rows = heart_disease_fixture();
    let mut rng = StdRng::seed_from_u64(0x4EA7);
    let gen = HeartDiseaseGenerator;
    while rows.len() < 10 {
        rows.push(gen.record(&mut rng));
    }
    Table::new(rows).expect("well-formed heart table")
}

fn setup(owner: DataOwner, table: &Table, packing: PackingKind) -> SknnEngine {
    let mut rng = StdRng::seed_from_u64(0x4EA8);
    let config = FederationConfig {
        key_bits: KEY_BITS,
        max_query_value: 600,
        packing,
        ..Default::default()
    };
    common::setup_with_owner(owner, table, config, &mut rng).expect("engine setup")
}

fn ssed_sbd_ops(result: &QueryOutcome) -> OpCounters {
    let mut ops = result.profile.ops(Stage::DistanceComputation);
    ops.add(result.profile.ops(Stage::BitDecomposition));
    ops
}

#[test]
fn fixed_8_packing_at_1024_bits_on_heart_data() {
    let table = heart_table();
    let query = example_query();
    let k = 2;

    // One expensive key generation, shared by both deployments so the
    // plaintext data and key are identical.
    let mut key_rng = StdRng::seed_from_u64(0x4EA9);
    let owner = DataOwner::new(KEY_BITS, &mut key_rng);

    let scalar = setup(owner.clone(), &table, PackingKind::Off);
    let packed = setup(owner, &table, PackingKind::Fixed(SIGMA));
    assert!(scalar.dataset(DATASET).unwrap().packing().is_none());
    assert_eq!(
        packed
            .dataset(DATASET)
            .unwrap()
            .packing()
            .expect("Fixed(8) must derive")
            .slots(),
        SIGMA
    );

    let mut rng = StdRng::seed_from_u64(0x4EAA);

    // ── SkNN_b: identical records, ≥4× cheaper SSED ────────────────────
    let scalar_basic = run(&scalar, Protocol::Basic, &query, k, &mut rng).unwrap();
    let packed_basic = run(&packed, Protocol::Basic, &query, k, &mut rng).unwrap();
    assert_eq!(
        packed_basic.result, scalar_basic.result,
        "packed and scalar SkNN_b must return identical records"
    );
    assert_eq!(
        packed_basic.result,
        sknn::plain_knn_records(&table, &query, k).unwrap()
    );

    let scalar_ssed = scalar_basic.profile.ops(Stage::DistanceComputation);
    let packed_ssed = packed_basic.profile.ops(Stage::DistanceComputation);
    assert!(
        packed_ssed.ciphertexts_on_wire() * 4 <= scalar_ssed.ciphertexts_on_wire(),
        "SSED wire: packed {packed_ssed:?} vs scalar {scalar_ssed:?}"
    );
    assert!(
        packed_ssed.c2_decryptions * 4 <= scalar_ssed.c2_decryptions,
        "SSED decryptions: packed {packed_ssed:?} vs scalar {scalar_ssed:?}"
    );
    // The top-k distance shipment also travels packed.
    let scalar_sel = scalar_basic.profile.ops(Stage::RecordSelection);
    let packed_sel = packed_basic.profile.ops(Stage::RecordSelection);
    assert!(packed_sel.c2_decryptions * 4 <= scalar_sel.c2_decryptions);

    // ── SkNN_m: identical result sets, ≥4× cheaper SSED+SBD ────────────
    let scalar_secure = run(&scalar, Protocol::Secure, &query, k, &mut rng).unwrap();
    let packed_secure = run(&packed, Protocol::Secure, &query, k, &mut rng).unwrap();
    let mut scalar_records = scalar_secure.result.clone();
    let mut packed_records = packed_secure.result.clone();
    scalar_records.sort();
    packed_records.sort();
    assert_eq!(
        packed_records, scalar_records,
        "packed and scalar SkNN_m must return identical record sets"
    );

    let scalar_ops = ssed_sbd_ops(&scalar_secure);
    let packed_ops = ssed_sbd_ops(&packed_secure);
    assert!(
        packed_ops.c2_decryptions * 4 <= scalar_ops.c2_decryptions,
        "SSED+SBD decryptions: packed {packed_ops:?} vs scalar {scalar_ops:?}"
    );
    assert!(
        packed_ops.ciphertexts_to_c2 * 4 <= scalar_ops.ciphertexts_to_c2,
        "SSED+SBD C1→C2 ciphertexts: packed {packed_ops:?} vs scalar {scalar_ops:?}"
    );
    // Total wire (both directions) shrinks too, bounded by the per-bit
    // response floor described in the module docs.
    assert!(
        packed_ops.ciphertexts_on_wire() < scalar_ops.ciphertexts_on_wire(),
        "SSED+SBD total wire: packed {packed_ops:?} vs scalar {scalar_ops:?}"
    );
    // The SSED stage alone clears 4× in both directions even within the
    // secure protocol.
    let scalar_ssed = scalar_secure.profile.ops(Stage::DistanceComputation);
    let packed_ssed = packed_secure.profile.ops(Stage::DistanceComputation);
    assert!(packed_ssed.ciphertexts_on_wire() * 4 <= scalar_ssed.ciphertexts_on_wire());
    assert!(packed_ssed.c2_decryptions * 4 <= scalar_ssed.c2_decryptions);

    // Guard against silent fallback: the packed run must actually have
    // used packed requests (σ=8 cuts SSED decryptions ~16×, far below any
    // scalar run).
    assert!(packed_ssed.c2_decryptions * 8 <= scalar_ssed.c2_decryptions);

    let _ = rng.gen::<u64>();
}
