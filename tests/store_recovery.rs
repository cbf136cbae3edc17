//! Crash-recovery corpus: systematic torn writes and bit flips against a
//! real dataset directory written by the engine.
//!
//! The recovery contract (see `DESIGN.md`, "Durable storage &
//! compaction"):
//!
//! * **Torn tail** — any truncation of a shard log reloads successfully
//!   to a *clean prefix*: every record served is bit-identical to a
//!   record the writer appended, in the writer's order, and no tombstone
//!   appears that the writer never wrote. Unacknowledged suffixes vanish;
//!   nothing is ever invented.
//! * **Corruption** — a bit flip in the durable prefix (or anywhere in
//!   the checksummed manifest) is a **typed** [`StoreError`] — the store
//!   refuses to serve a prefix it cannot trust.
//! * In neither case does loading panic. The corpus sweeps every
//!   truncation length and a dense grid of flip offsets to make "never"
//!   mean never.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sknn::bigint::BigUint;
use sknn::store::{
    decode_entry, DatasetStore, EntryDecode, Manifest, StoreError, LOG_HEADER_LEN, MANIFEST_FILE,
};
use sknn::{
    DataOwner, DatasetOptions, FederationConfig, Protocol, ShardingConfig, SknnEngine, SknnError,
    Table, TransportKind,
};
use std::path::{Path, PathBuf};

fn tmp_root(tag: &str) -> PathBuf {
    static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("sknn-recover-{}-{}-{}", std::process::id(), tag, n))
}

fn table() -> Table {
    Table::new(
        (0..9u64)
            .map(|i| vec![i, (i * 3 + 1) % 11])
            .collect::<Vec<_>>(),
    )
    .unwrap()
}

fn config() -> FederationConfig {
    FederationConfig {
        key_bits: 96,
        transport: TransportKind::InProcess,
        sharding: ShardingConfig {
            shards: 3,
            ..Default::default()
        },
        ..Default::default()
    }
}

const OPTIONS: DatasetOptions = DatasetOptions {
    distance_bits: None,
    max_query_value: 10,
};

/// Writes a churned dataset to `<root>/d` through the real engine
/// (register → tombstone → append → flush) and returns the dataset dir.
fn write_fixture(root: &Path, owner: &DataOwner) -> PathBuf {
    let mut rng = StdRng::seed_from_u64(0x5AFE);
    let mut engine = SknnEngine::open_dir(owner.clone(), config(), root).expect("open root");
    engine
        .register_dataset_persistent_with("d", &table(), OPTIONS, &mut rng)
        .expect("register");
    engine.tombstone_record("d", 2).expect("tombstone");
    engine.tombstone_record("d", 7).expect("tombstone");
    let extra = owner.encrypt_record(&[4, 4], &mut rng).expect("encrypt");
    engine.append_records("d", vec![extra]).expect("append");
    engine.flush().expect("flush");
    drop(engine);
    root.join("d")
}

/// Byte-for-byte snapshot of every file in a dataset directory.
fn snapshot(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("read dataset dir")
        .map(|e| {
            let e = e.expect("dir entry");
            let name = e.file_name().to_string_lossy().into_owned();
            let bytes = std::fs::read(e.path()).expect("read file");
            (name, bytes)
        })
        .collect();
    files.sort();
    files
}

/// Restores a dataset directory to a snapshot, wiping anything recovery
/// or generation rewrites left behind.
fn restore(dir: &Path, files: &[(String, Vec<u8>)]) {
    if dir.exists() {
        std::fs::remove_dir_all(dir).expect("wipe dir");
    }
    std::fs::create_dir_all(dir).expect("recreate dir");
    for (name, bytes) in files {
        std::fs::write(dir.join(name), bytes).expect("restore file");
    }
}

/// The recovered store never invents data: its records are a
/// bit-identical prefix of the pristine store's records, and it marks a
/// record dead only if the writer really tombstoned it.
fn assert_clean_prefix(
    recovered: &DatasetStore,
    original_records: &[Vec<BigUint>],
    original_live: &[bool],
    label: &str,
) {
    let n = recovered.records().len();
    assert!(
        n <= original_records.len(),
        "{label}: recovered {n} records, writer only stored {}",
        original_records.len()
    );
    assert_eq!(
        recovered.records(),
        &original_records[..n],
        "{label}: recovered records are not a bit-identical prefix"
    );
    for (i, (&rec_live, &orig_live)) in recovered
        .live()
        .iter()
        .zip(original_live.iter())
        .enumerate()
    {
        // A lost tail may resurrect a tombstone (the tombstone entry was
        // in the dropped suffix) but never fabricate one.
        assert!(
            rec_live || !orig_live,
            "{label}: record {i} is tombstoned on reload but the writer never killed it"
        );
    }
}

/// Every possible torn write against one shard log — truncation to every
/// length from zero bytes to just-short-of-complete — reloads to a clean
/// prefix. No panic, no error, no invented record.
#[test]
fn every_tail_truncation_recovers_a_clean_prefix() {
    let root = tmp_root("torn");
    let mut rng = StdRng::seed_from_u64(0x70_41);
    let owner = DataOwner::new(96, &mut rng);
    let dir = write_fixture(&root, &owner);
    let pristine = snapshot(&dir);
    let meta = Manifest::load(&dir.join(MANIFEST_FILE))
        .expect("manifest")
        .meta;
    let (original, clean) = DatasetStore::open(&dir, &meta).expect("pristine open");
    assert!(clean.is_clean());
    let original_records = original.records().to_vec();
    let original_live = original.live().to_vec();
    drop(original);

    let victim = pristine
        .iter()
        .filter(|(name, _)| name.starts_with("shard-"))
        .max_by_key(|(_, bytes)| bytes.len())
        .expect("a shard log")
        .0
        .clone();
    let victim_bytes = &pristine
        .iter()
        .find(|(n, _)| *n == victim)
        .expect("victim bytes")
        .1;
    let full = victim_bytes.len();
    // The victim's valid prefix lengths: the header boundary plus the end
    // of every complete frame.
    let mut boundaries = std::collections::BTreeSet::new();
    let mut at = LOG_HEADER_LEN as usize;
    boundaries.insert(at);
    while let EntryDecode::Entry { consumed, .. } = decode_entry(&victim_bytes[at..]) {
        at += consumed;
        boundaries.insert(at);
    }
    assert_eq!(at, full, "pristine log must parse to its last byte");

    for cut in 0..full {
        restore(&dir, &pristine);
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join(&victim))
            .expect("open victim");
        f.set_len(cut as u64).expect("truncate");
        drop(f);

        let label = format!("truncate {victim} to {cut}/{full}");
        let (recovered, report) = DatasetStore::open(&dir, &meta)
            .unwrap_or_else(|e| panic!("{label}: torn tail must recover, got {e}"));
        // A cut landing exactly on a frame boundary is indistinguishable
        // from a crash before the next write ever started — the report may
        // legitimately be clean there. A cut mid-frame must be reported.
        if !boundaries.contains(&cut) {
            assert!(
                !report.is_clean(),
                "{label}: bytes vanished mid-frame without the report noticing"
            );
        }
        assert_clean_prefix(&recovered, &original_records, &original_live, &label);

        // Recovery is convergent: a second open of the salvaged dir is
        // clean and serves the same prefix.
        let n = recovered.records().len();
        drop(recovered);
        let (again, second) = DatasetStore::open(&dir, &meta)
            .unwrap_or_else(|e| panic!("{label}: reopen after salvage failed: {e}"));
        assert!(second.is_clean(), "{label}: salvage did not persist");
        assert_eq!(again.records().len(), n, "{label}: salvage is not stable");
    }
    std::fs::remove_dir_all(&root).expect("cleanup");
}

/// A dense grid of single-bit flips across a shard log: each one either
/// recovers a clean prefix (flip landed in the unacknowledged tail
/// frame) or refuses with a typed error (flip landed in the durable
/// prefix). Both outcomes occur across the corpus; a panic or a
/// silently-altered record never does.
#[test]
fn bit_flip_corpus_yields_prefix_or_typed_error() {
    let root = tmp_root("flip");
    let mut rng = StdRng::seed_from_u64(0xF1_1B);
    let owner = DataOwner::new(96, &mut rng);
    let dir = write_fixture(&root, &owner);
    let pristine = snapshot(&dir);
    let meta = Manifest::load(&dir.join(MANIFEST_FILE))
        .expect("manifest")
        .meta;
    let (original, _) = DatasetStore::open(&dir, &meta).expect("pristine open");
    let original_records = original.records().to_vec();
    let original_live = original.live().to_vec();
    drop(original);

    let (victim, victim_bytes) = pristine
        .iter()
        .filter(|(name, _)| name.starts_with("shard-"))
        .max_by_key(|(_, bytes)| bytes.len())
        .expect("a shard log")
        .clone();

    let mut recovered_count = 0usize;
    let mut refused_count = 0usize;
    for offset in (0..victim_bytes.len()).step_by(3) {
        for bit in [0x01u8, 0x80] {
            restore(&dir, &pristine);
            let mut mutated = victim_bytes.clone();
            mutated[offset] ^= bit;
            std::fs::write(dir.join(&victim), &mutated).expect("write flipped");

            let label = format!("flip bit {bit:#04x} at {offset} of {victim}");
            match DatasetStore::open(&dir, &meta) {
                Ok((recovered, _)) => {
                    recovered_count += 1;
                    assert_clean_prefix(&recovered, &original_records, &original_live, &label);
                }
                Err(e) => {
                    refused_count += 1;
                    assert!(
                        matches!(e, StoreError::Corrupt { .. }),
                        "{label}: expected a corruption error, got {e}"
                    );
                }
            }
        }
    }
    assert!(
        recovered_count > 0 && refused_count > 0,
        "corpus must exercise both outcomes: {recovered_count} recovered, {refused_count} refused"
    );
    std::fs::remove_dir_all(&root).expect("cleanup");
}

/// The manifest is checksummed end to end: any single-bit flip makes the
/// dataset refuse to open with a typed error rather than trusting a
/// mutated identity (key fingerprint, shard count, index map...).
#[test]
fn manifest_bit_flips_are_always_refused() {
    let root = tmp_root("manifest");
    let mut rng = StdRng::seed_from_u64(0x3A_21);
    let owner = DataOwner::new(96, &mut rng);
    let dir = write_fixture(&root, &owner);
    let pristine = snapshot(&dir);
    let meta = Manifest::load(&dir.join(MANIFEST_FILE))
        .expect("manifest")
        .meta;
    let manifest_bytes = pristine
        .iter()
        .find(|(n, _)| n == MANIFEST_FILE)
        .expect("manifest in snapshot")
        .1
        .clone();

    for offset in 0..manifest_bytes.len() {
        restore(&dir, &pristine);
        let mut mutated = manifest_bytes.clone();
        mutated[offset] ^= 0x04;
        std::fs::write(dir.join(MANIFEST_FILE), &mutated).expect("write flipped manifest");
        assert!(
            DatasetStore::open(&dir, &meta).is_err(),
            "flip at manifest byte {offset} was accepted"
        );
    }
    std::fs::remove_dir_all(&root).expect("cleanup");
}

/// The same contract holds end to end through `SknnEngine::open_dir`: a
/// torn tail reloads (with the salvage visible in the recovery report)
/// and still answers queries; durable-prefix corruption surfaces as
/// [`SknnError::Storage`] — never a panic, never a wrong answer.
#[test]
fn engine_reload_survives_torn_tail_and_types_corruption() {
    let root = tmp_root("engine");
    let mut rng = StdRng::seed_from_u64(0xE2_6E);
    let owner = DataOwner::new(96, &mut rng);
    let dir = write_fixture(&root, &owner);
    let pristine = snapshot(&dir);
    let (victim, victim_bytes) = pristine
        .iter()
        .filter(|(name, _)| name.starts_with("shard-"))
        .max_by_key(|(_, bytes)| bytes.len())
        .expect("a shard log")
        .clone();

    // Torn tail: cut mid-way through the victim log's final frame.
    restore(&dir, &pristine);
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(dir.join(&victim))
        .expect("open victim");
    f.set_len(victim_bytes.len() as u64 - 5).expect("truncate");
    drop(f);
    let engine = SknnEngine::open_dir(owner.clone(), config(), &root).expect("torn tail reloads");
    let report = engine.recovery_report("d").expect("report");
    assert!(!report.is_clean(), "5 dropped bytes must be reported");
    assert!(report.dropped_tail_bytes > 0, "{report:?}");
    let outcome = engine
        .query("d")
        .k(2)
        .point(&[4, 4])
        .protocol(Protocol::Basic)
        .run(&mut rng)
        .expect("salvaged dataset answers queries");
    assert_eq!(outcome.result.len(), 2);
    drop(engine);

    // Durable-prefix corruption: flip a bit in the victim's first frame.
    restore(&dir, &pristine);
    let mut mutated = victim_bytes.clone();
    mutated[20] ^= 0x20;
    std::fs::write(dir.join(&victim), &mutated).expect("write flipped");
    match SknnEngine::open_dir(owner, config(), &root) {
        Err(SknnError::Storage(StoreError::Corrupt { .. })) => {}
        Err(e) => panic!("expected a typed corruption error, got {e}"),
        Ok(_) => panic!("corrupted durable prefix must not load"),
    }
    std::fs::remove_dir_all(&root).expect("cleanup");
}
