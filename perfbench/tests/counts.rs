//! The exact counts a traced run reports must not depend on the run or on
//! the data: two runs with one seed, and on the 512-bit workloads two
//! different seeds, agree exactly. This is the data-obliviousness the
//! paper's security argument rests on, and the reason uniform synthetic
//! data can stand in for real traffic.

use perfbench::{find, run, Budget, Options, Workload, END_TO_END, PER_LAYER};
use std::sync::Mutex;

/// Counts that must repeat exactly. `c2_bytes_per_query` is not among
/// them: the wire encodes every value in its minimal big-endian length,
/// so the byte count moves with ciphertext and plaintext values.
const EXACT: &[&str] = &[
    "cts_to_c2",
    "cts_from_c2",
    "c2_decryptions",
    "round_trips_per_query",
    "pool_draws_per_query",
];

/// Runs measure `/proc` for the whole process, so they go one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn counts(workload: Workload, seed: u64) -> Vec<f64> {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let report = run(&Options {
        workload,
        seed,
        budget: Budget::Cycles(3),
        trace: true,
        out_dir: std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench"),
    })
    .expect("workload runs");
    assert!(report.correct(), "{:?}", report.problems);
    EXACT
        .iter()
        .map(|name| {
            find(&report.per_layer, name)
                .and_then(|m| m.value)
                .unwrap_or_else(|| panic!("{name} missing"))
        })
        .collect()
}

#[test]
fn sknn_b_counts_repeat_across_runs_and_seeds() {
    let first = counts(Workload::SknnB512, 1);
    assert_eq!(first, counts(Workload::SknnB512, 1), "{EXACT:?}");
    assert_eq!(first, counts(Workload::SknnB512, 2), "{EXACT:?}");
}

#[test]
fn sknn_m_counts_repeat_across_runs_and_seeds() {
    let first = counts(Workload::SknnM512, 1);
    assert_eq!(first, counts(Workload::SknnM512, 1), "{EXACT:?}");
    assert_eq!(first, counts(Workload::SknnM512, 2), "{EXACT:?}");
}

#[test]
fn churn_counts_repeat_across_runs() {
    assert_eq!(
        counts(Workload::Churn128, 1),
        counts(Workload::Churn128, 1),
        "{EXACT:?}"
    );
}

/// The objects of one list in `BENCHMARK.json`, in order.
fn objects<'a>(json: &'a str, list: &str) -> Vec<&'a str> {
    let start = json.find(&format!("\"{list}\"")).expect("list present");
    let body = &json[start..];
    body[..body.find(']').expect("list closes")]
        .split('{')
        .skip(1)
        .collect()
}

/// The string value of `key` in one flat JSON object.
fn field(obj: &str, key: &str) -> String {
    let at = obj.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
    let rest = &obj[at..];
    let open = rest.find('"').expect("string value") + 1;
    let len = rest[open..].find('"').expect("string closes");
    rest[open..open + len].to_string()
}

#[test]
fn benchmark_json_lists_what_the_runner_reports() {
    let json = include_str!("../../BENCHMARK.json");
    for (list, own) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let theirs: Vec<(String, String)> = objects(json, list)
            .into_iter()
            .map(|o| (field(o, "name"), field(o, "unit")))
            .collect();
        let own: Vec<(String, String)> = own
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(theirs, own, "{list}");
    }
    let workloads: Vec<String> = objects(json, "workloads")
        .into_iter()
        .map(|o| field(o, "name"))
        .collect();
    let own: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, own);
}
