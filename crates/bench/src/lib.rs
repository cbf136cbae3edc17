//! Shared harness code for the Criterion benchmarks and the `experiments`
//! binary that regenerates the figures of the paper's evaluation (Section 5).
//!
//! The paper's absolute numbers come from a C + GMP implementation running for
//! minutes to hours per data point; reproducing the *shape* of every figure
//! does not require that scale, so the harness supports three presets
//! ([`Scale`]): `smoke` for CI, `paper-shape` (default) for down-scaled sweeps
//! that preserve every reported trend, and `paper` for the exact parameters of
//! the paper. Measured on a 2-vCPU VM: `fig2a --scale paper-shape` runs in
//! about 19 s, SkNN_b at `paper` scale takes minutes, and only SkNN_m's full
//! `paper` grid still takes hours.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use sknn_core::{
    DataOwner, FederationConfig, Keypair, Protocol, QueryOutcome, SknnEngine, TransportKind,
};
use sknn_data::{uniform_query, SyntheticDataset};
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Experiment scale preset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-long sanity runs (used by `cargo bench` and CI).
    Smoke,
    /// Down-scaled sweeps that preserve the paper's trends (default).
    PaperShape,
    /// The exact parameters of the paper: minutes for SkNN_b, hours for
    /// SkNN_m's full grid.
    Paper,
}

impl Scale {
    /// Parses `smoke` / `paper-shape` / `paper`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "smoke" => Some(Scale::Smoke),
            "paper-shape" | "papershape" | "shape" => Some(Scale::PaperShape),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// Record-count sweep for the SkNN_b figures (2(a), 2(b), 3).
    pub fn record_sweep(&self) -> Vec<usize> {
        match self {
            Scale::Smoke => vec![20, 40],
            Scale::PaperShape => vec![100, 200, 300, 400, 500],
            Scale::Paper => vec![2000, 4000, 6000, 8000, 10000],
        }
    }

    /// Attribute-count sweep for Figures 2(a)–(b).
    pub fn attribute_sweep(&self) -> Vec<usize> {
        match self {
            Scale::Smoke => vec![6],
            _ => vec![6, 12, 18],
        }
    }

    /// Neighbor-count sweep for Figures 2(c)–(f).
    pub fn k_sweep(&self) -> Vec<usize> {
        match self {
            Scale::Smoke => vec![1, 2],
            _ => vec![5, 10, 15, 20, 25],
        }
    }

    /// Key sizes standing in for the paper's (512, 1024) pair.
    pub fn key_sizes(&self) -> (usize, usize) {
        match self {
            Scale::Smoke => (128, 256),
            Scale::PaperShape => (256, 512),
            Scale::Paper => (512, 1024),
        }
    }

    /// Number of records used in the k-sweeps of SkNN_b (Figure 2(c)).
    pub fn basic_k_sweep_records(&self) -> usize {
        match self {
            Scale::Smoke => 30,
            Scale::PaperShape => 200,
            Scale::Paper => 2000,
        }
    }

    /// Number of records used in the SkNN_m figures (2(d)–(f)).
    pub fn secure_records(&self) -> usize {
        match self {
            Scale::Smoke => 10,
            Scale::PaperShape => 50,
            Scale::Paper => 2000,
        }
    }

    /// Distance-domain sweep for Figures 2(d)–(e).
    pub fn distance_bit_sweep(&self) -> Vec<usize> {
        match self {
            Scale::Smoke => vec![6],
            _ => vec![6, 12],
        }
    }
}

/// One prepared benchmark instance: an outsourced synthetic dataset and a
/// query drawn from the same domain.
pub struct Instance {
    /// The ready-to-query engine (clouds already hold the data/keys); the
    /// table is registered as [`Instance::DATASET`].
    pub engine: SknnEngine,
    /// The plaintext query used against it.
    pub query: Vec<u64>,
    /// The number of records outsourced.
    pub records: usize,
    /// The number of attributes per record.
    pub attributes: usize,
    /// The distance-domain bit length used for secure queries.
    pub distance_bits: usize,
    /// The Paillier key size in bits.
    pub key_bits: usize,
}

impl Instance {
    /// The name the instance's table is registered under.
    pub const DATASET: &'static str = "synthetic";
}

/// Parameters describing an instance to prepare.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct InstanceSpec {
    /// Number of records (`n`).
    pub records: usize,
    /// Number of attributes (`m`).
    pub attributes: usize,
    /// Distance-domain bits (`l`).
    pub distance_bits: usize,
    /// Paillier key size (`K`).
    pub key_bits: usize,
    /// Worker threads for the record-parallel stages.
    pub threads: usize,
    /// Transport between the clouds.
    pub transport: TransportKind,
    /// Whether the remote transports coalesce concurrent small batches.
    pub coalesce: bool,
}

impl InstanceSpec {
    /// A serial, in-process instance spec.
    pub fn new(records: usize, attributes: usize, distance_bits: usize, key_bits: usize) -> Self {
        InstanceSpec {
            records,
            attributes,
            distance_bits,
            key_bits,
            threads: 1,
            transport: TransportKind::InProcess,
            coalesce: true,
        }
    }
}

/// Deterministic seed used everywhere so experiment output is reproducible.
pub const HARNESS_SEED: u64 = 0x5EED_2014;

fn keypair_cache() -> &'static Mutex<HashMap<usize, Keypair>> {
    static CACHE: std::sync::OnceLock<Mutex<HashMap<usize, Keypair>>> = std::sync::OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Returns a cached key pair of the requested size (key generation is
/// expensive and irrelevant to the query-time figures being reproduced).
pub fn cached_keypair(key_bits: usize) -> Keypair {
    let mut cache = keypair_cache().lock().expect("keypair cache poisoned");
    cache
        .entry(key_bits)
        .or_insert_with(|| {
            let mut rng = StdRng::seed_from_u64(HARNESS_SEED ^ key_bits as u64);
            Keypair::generate(key_bits, &mut rng)
        })
        .clone()
}

/// Builds a ready-to-query instance for the given spec.
pub fn build_instance(spec: InstanceSpec) -> Instance {
    let mut rng = StdRng::seed_from_u64(
        HARNESS_SEED
            .wrapping_mul(31)
            .wrapping_add(spec.records as u64)
            .wrapping_add((spec.attributes as u64) << 20)
            .wrapping_add((spec.distance_bits as u64) << 40),
    );
    let dataset =
        SyntheticDataset::uniform(spec.records, spec.attributes, spec.distance_bits, &mut rng);
    let query = uniform_query(spec.attributes, dataset.max_value, &mut rng);
    let owner = DataOwner::from_keypair(cached_keypair(spec.key_bits));
    let mut engine = SknnEngine::setup_with_owner(
        owner,
        FederationConfig {
            key_bits: spec.key_bits,
            distance_bits: Some(spec.distance_bits),
            max_query_value: dataset.max_value,
            threads: spec.threads,
            transport: spec.transport,
            coalesce: spec.coalesce,
            ..Default::default()
        },
    )
    .expect("benchmark instance setup");
    engine
        .register_dataset(Instance::DATASET, &dataset.table, &mut rng)
        .expect("benchmark dataset registration");
    Instance {
        engine,
        query,
        records: spec.records,
        attributes: spec.attributes,
        distance_bits: spec.distance_bits,
        key_bits: spec.key_bits,
    }
}

/// Runs one SkNN_b query on the instance, returning the full result (the
/// profile carries per-stage wall time and ciphertext/decryption counts).
pub fn run_basic(instance: &Instance, k: usize) -> (Duration, QueryOutcome) {
    let mut rng = StdRng::seed_from_u64(HARNESS_SEED ^ 0xB);
    let start = Instant::now();
    let result = instance
        .engine
        .query(Instance::DATASET)
        .k(k)
        .point(&instance.query)
        .protocol(Protocol::Basic)
        .run(&mut rng)
        .expect("basic query");
    (start.elapsed(), result)
}

/// Runs one SkNN_m query on the instance with an explicit `l` (the
/// engine builder's `distance_bits` knob, sweeping `l` as in Figures
/// 2(d)–(e)).
pub fn run_secure(instance: &Instance, k: usize, l: usize) -> (Duration, QueryOutcome) {
    let mut rng = StdRng::seed_from_u64(HARNESS_SEED ^ 0x5);
    let start = Instant::now();
    let result = instance
        .engine
        .query(Instance::DATASET)
        .k(k)
        .point(&instance.query)
        .protocol(Protocol::Secure)
        .distance_bits(l)
        .run(&mut rng)
        .expect("secure query");
    (start.elapsed(), result)
}

/// Times one SkNN_b query on the instance.
pub fn time_basic(instance: &Instance, k: usize) -> Duration {
    run_basic(instance, k).0
}

/// Times one SkNN_m query on the instance with an explicit `l`.
pub fn time_secure(instance: &Instance, k: usize, l: usize) -> Duration {
    run_secure(instance, k, l).0
}

/// Formats a duration as fractional seconds for the experiment tables.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

pub mod report {
    //! Machine-readable experiment output (`BENCH_results.json`).
    //!
    //! The experiments binary has always printed human-readable tables;
    //! this module additionally collects every measured point — per-stage
    //! wall time, ciphertexts on the wire, and C2 decryption counts — into
    //! a JSON document, so the perf trajectory can be tracked across PRs
    //! by diffing/plotting a single artifact. The writer is hand-rolled
    //! (the build environment has no serde); the format is flat and
    //! stable: one `entries` array of `{experiment, params, total_s,
    //! stages[]}` objects.

    use sknn_core::{QueryOutcome, Stage};
    use std::io::Write;
    use std::time::Duration;

    /// One measured stage of one experiment point.
    #[derive(Clone, Debug)]
    pub struct StageRow {
        /// Stage label (`SSED`, `SBD`, …).
        pub stage: &'static str,
        /// Wall-clock seconds spent in the stage.
        pub seconds: f64,
        /// Ciphertexts C1 sent to C2 during the stage.
        pub ciphertexts_to_c2: u64,
        /// Ciphertexts C2 sent back during the stage.
        pub ciphertexts_from_c2: u64,
        /// Paillier decryptions C2 performed during the stage.
        pub c2_decryptions: u64,
    }

    /// Per-shard attribution of one stage's operation counters (populated
    /// by sharded scatter–gather plans; empty otherwise).
    #[derive(Clone, Debug)]
    pub struct ShardStageRow {
        /// Shard id.
        pub shard: usize,
        /// Stage label (`SSED`, `shard top-k`, …).
        pub stage: &'static str,
        /// Ciphertexts C1 sent to C2 on this shard's behalf.
        pub ciphertexts_to_c2: u64,
        /// Ciphertexts C2 sent back on this shard's behalf.
        pub ciphertexts_from_c2: u64,
        /// Paillier decryptions C2 performed on this shard's behalf.
        pub c2_decryptions: u64,
    }

    /// One measured point: an experiment name, its parameters, the total
    /// wall time, and the per-stage breakdown (empty for duration-only
    /// measurements like Bob's encryption cost).
    #[derive(Clone, Debug)]
    pub struct Entry {
        /// Which experiment produced the point (`fig2a`, `breakdown`, …).
        pub experiment: String,
        /// `(name, value)` parameter pairs (`n`, `m`, `k`, `K`, …).
        pub params: Vec<(String, String)>,
        /// End-to-end wall time in seconds.
        pub total_seconds: f64,
        /// Per-stage breakdown, in execution order.
        pub stages: Vec<StageRow>,
        /// Per-shard stage attribution (sharded plans only).
        pub shard_stages: Vec<ShardStageRow>,
    }

    /// Collects experiment points and serializes them to JSON.
    #[derive(Clone, Debug, Default)]
    pub struct BenchReport {
        /// The scale preset the run used.
        pub scale: String,
        entries: Vec<Entry>,
    }

    impl BenchReport {
        /// Creates an empty report for one harness run.
        pub fn new(scale: impl Into<String>) -> BenchReport {
            BenchReport {
                scale: scale.into(),
                entries: Vec::new(),
            }
        }

        /// Number of collected points.
        pub fn len(&self) -> usize {
            self.entries.len()
        }

        /// Whether no point has been collected yet.
        pub fn is_empty(&self) -> bool {
            self.entries.is_empty()
        }

        /// Records a full query result: total time plus the per-stage wall
        /// time / ciphertext / decryption breakdown from its profile.
        pub fn push_query(
            &mut self,
            experiment: &str,
            params: &[(&str, String)],
            elapsed: Duration,
            result: &QueryOutcome,
        ) {
            let stages = Stage::ALL
                .iter()
                .filter(|s| {
                    result.profile.stage(**s) > Duration::ZERO
                        || result.profile.ops(**s).ciphertexts_on_wire() > 0
                })
                .map(|s| {
                    let ops = result.profile.ops(*s);
                    StageRow {
                        stage: s.label(),
                        seconds: result.profile.stage(*s).as_secs_f64(),
                        ciphertexts_to_c2: ops.ciphertexts_to_c2,
                        ciphertexts_from_c2: ops.ciphertexts_from_c2,
                        c2_decryptions: ops.c2_decryptions,
                    }
                })
                .collect();
            let shard_stages = result
                .profile
                .shards()
                .into_iter()
                .flat_map(|shard| {
                    Stage::ALL
                        .iter()
                        .map(move |s| (shard, *s, result.profile.shard_stage_ops(shard, *s)))
                })
                .filter(|(_, _, ops)| ops.ciphertexts_on_wire() > 0 || ops.c2_decryptions > 0)
                .map(|(shard, s, ops)| ShardStageRow {
                    shard,
                    stage: s.label(),
                    ciphertexts_to_c2: ops.ciphertexts_to_c2,
                    ciphertexts_from_c2: ops.ciphertexts_from_c2,
                    c2_decryptions: ops.c2_decryptions,
                })
                .collect();
            self.entries.push(Entry {
                experiment: experiment.to_string(),
                params: params
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
                total_seconds: elapsed.as_secs_f64(),
                stages,
                shard_stages,
            });
        }

        /// Records a duration-only point (no query profile available).
        pub fn push_duration(
            &mut self,
            experiment: &str,
            params: &[(&str, String)],
            elapsed: Duration,
        ) {
            self.entries.push(Entry {
                experiment: experiment.to_string(),
                params: params
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
                total_seconds: elapsed.as_secs_f64(),
                stages: Vec::new(),
                shard_stages: Vec::new(),
            });
        }

        /// Serializes the report as a JSON document.
        pub fn to_json(&self) -> String {
            let mut out = String::from("{\n");
            out.push_str("  \"generator\": \"sknn-bench experiments\",\n");
            out.push_str(&format!("  \"scale\": {},\n", json_string(&self.scale)));
            out.push_str("  \"entries\": [\n");
            for (i, e) in self.entries.iter().enumerate() {
                out.push_str("    {");
                out.push_str(&format!("\"experiment\": {}, ", json_string(&e.experiment)));
                out.push_str("\"params\": {");
                for (j, (k, v)) in e.params.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!("{}: {}", json_string(k), json_string(v)));
                }
                out.push_str("}, ");
                out.push_str(&format!("\"total_s\": {:.6}, ", e.total_seconds));
                out.push_str("\"stages\": [");
                for (j, s) in e.stages.iter().enumerate() {
                    if j > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!(
                        "{{\"stage\": {}, \"seconds\": {:.6}, \"ciphertexts_to_c2\": {}, \
                         \"ciphertexts_from_c2\": {}, \"c2_decryptions\": {}}}",
                        json_string(s.stage),
                        s.seconds,
                        s.ciphertexts_to_c2,
                        s.ciphertexts_from_c2,
                        s.c2_decryptions
                    ));
                }
                out.push(']');
                if !e.shard_stages.is_empty() {
                    out.push_str(", \"shard_stages\": [");
                    for (j, s) in e.shard_stages.iter().enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        out.push_str(&format!(
                            "{{\"shard\": {}, \"stage\": {}, \"ciphertexts_to_c2\": {}, \
                             \"ciphertexts_from_c2\": {}, \"c2_decryptions\": {}}}",
                            s.shard,
                            json_string(s.stage),
                            s.ciphertexts_to_c2,
                            s.ciphertexts_from_c2,
                            s.c2_decryptions
                        ));
                    }
                    out.push(']');
                }
                out.push('}');
                out.push_str(if i + 1 < self.entries.len() {
                    ",\n"
                } else {
                    "\n"
                });
            }
            out.push_str("  ]\n}\n");
            out
        }

        /// Writes the JSON document to `path`.
        ///
        /// # Errors
        /// Propagates filesystem errors.
        pub fn write(&self, path: &str) -> std::io::Result<()> {
            let mut file = std::fs::File::create(path)?;
            file.write_all(self.to_json().as_bytes())
        }
    }

    /// Minimal JSON string escaping (quotes, backslashes, control chars) —
    /// sufficient for the identifiers and numbers this report contains.
    fn json_string(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn report_serializes_and_escapes() {
            let mut report = BenchReport::new("smoke");
            assert!(report.is_empty());
            report.push_duration(
                "bob-cost",
                &[("K", "256".to_string()), ("note", "a\"b".to_string())],
                Duration::from_millis(1500),
            );
            assert_eq!(report.len(), 1);
            let json = report.to_json();
            assert!(json.contains("\"scale\": \"smoke\""));
            assert!(json.contains("\"experiment\": \"bob-cost\""));
            assert!(json.contains("\"total_s\": 1.500000"));
            assert!(json.contains("a\\\"b"));
            assert!(json.contains("\"stages\": []"));
        }

        #[test]
        fn query_entries_carry_stage_counters() {
            let spec = crate::InstanceSpec::new(8, 2, 8, 128);
            let instance = crate::build_instance(spec);
            let (elapsed, result) = crate::run_basic(&instance, 2);
            let mut report = BenchReport::new("smoke");
            report.push_query("fig2a", &[("n", "8".into())], elapsed, &result);
            let json = report.to_json();
            assert!(json.contains("\"stage\": \"SSED\""));
            assert!(json.contains("\"c2_decryptions\""));
            // SSED of 8 records × 2 attributes: 32 decryptions scalar.
            assert!(json.contains("\"c2_decryptions\": 32"));
            // An unsharded query has no per-shard attribution to report.
            assert!(!json.contains("shard_stages"));
        }

        #[test]
        fn sharded_query_entries_carry_per_shard_counters() {
            use rand::rngs::StdRng;
            use rand::SeedableRng;
            use sknn_core::{
                DataOwner, FederationConfig, Protocol, ShardingConfig, SknnEngine, Table,
            };

            let mut rng = StdRng::seed_from_u64(42);
            let owner = DataOwner::from_keypair(crate::cached_keypair(128));
            let mut engine = SknnEngine::setup_with_owner(
                owner,
                FederationConfig {
                    key_bits: 128,
                    max_query_value: 9,
                    sharding: ShardingConfig {
                        shards: 2,
                        sessions: 1,
                    },
                    ..Default::default()
                },
            )
            .unwrap();
            let table = Table::new(vec![vec![1, 1], vec![5, 5], vec![9, 9], vec![2, 3]]).unwrap();
            engine.register_dataset("d", &table, &mut rng).unwrap();
            let outcome = engine
                .query("d")
                .k(1)
                .point(&[2, 2])
                .protocol(Protocol::Basic)
                .run(&mut rng)
                .unwrap();
            let mut report = BenchReport::new("smoke");
            report.push_query(
                "shard-scaling",
                &[("shards", "2".into())],
                Duration::from_millis(1),
                &outcome,
            );
            let json = report.to_json();
            assert!(json.contains("\"shard_stages\": ["));
            assert!(json.contains("\"shard\": 0"));
            assert!(json.contains("\"shard\": 1"));
            assert!(json.contains("\"stage\": \"shard top-k\""));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("smoke"), Some(Scale::Smoke));
        assert_eq!(Scale::parse("paper-shape"), Some(Scale::PaperShape));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("bogus"), None);
    }

    #[test]
    fn sweeps_grow_with_scale() {
        assert!(Scale::Smoke.record_sweep().len() <= Scale::Paper.record_sweep().len());
        assert_eq!(Scale::Paper.record_sweep().last(), Some(&10000));
        assert_eq!(Scale::Paper.key_sizes(), (512, 1024));
        assert_eq!(Scale::PaperShape.k_sweep(), vec![5, 10, 15, 20, 25]);
    }

    #[test]
    fn instances_are_buildable_and_queryable_at_smoke_scale() {
        let spec = InstanceSpec::new(12, 3, 8, 128);
        let instance = build_instance(spec);
        assert_eq!(instance.records, 12);
        let basic = time_basic(&instance, 2);
        let secure = time_secure(&instance, 2, 8);
        assert!(basic > Duration::ZERO);
        assert!(
            secure > basic,
            "the secure protocol costs more than the basic one"
        );
    }

    #[test]
    fn cached_keypairs_are_reused() {
        let a = cached_keypair(128);
        let b = cached_keypair(128);
        assert_eq!(a.public_key(), b.public_key());
    }
}
