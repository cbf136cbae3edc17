//! End-to-end rule tests against the checked-in fixture tree, plus the
//! acceptance gate that the real workspace has no findings.
//!
//! The fixture tree under `tests/fixtures/tree/` is a miniature workspace
//! with one deliberate violation (or deliberate negative) per rule; these
//! tests pin both that each rule fires where it must and that the
//! test-region, suppression, and allowlist escape hatches hold.

use sknn_lint::rules::Finding;
use std::path::{Path, PathBuf};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/tree")
}

fn fixture_findings() -> (Vec<Finding>, usize) {
    let analysis = sknn_lint::analyze(&fixture_root()).expect("fixture tree must scan");
    (analysis.findings, analysis.suppressed)
}

fn of_rule<'a>(findings: &'a [Finding], rule: &str) -> Vec<&'a Finding> {
    findings.iter().filter(|f| f.rule == rule).collect()
}

#[test]
fn decrypt_in_c1_module_is_caught() {
    let (findings, _) = fixture_findings();
    let hits = of_rule(&findings, "decrypt-containment");
    assert_eq!(
        hits.len(),
        1,
        "exactly the un-suppressed C1 decrypt must fire: {hits:?}"
    );
    assert_eq!(hits[0].file, "crates/core/src/leak.rs");
    assert_eq!(hits[0].line, 6);
    assert!(hits[0].message.contains("try_decrypt_u64"));
}

#[test]
fn decrypt_is_allowed_in_keyholder_and_tests_and_under_suppression() {
    // leak.rs carries a suppressed `decrypt` and a #[cfg(test)] one;
    // paillier/src/decrypt.rs is on the allowlist. None may fire.
    let (findings, suppressed) = fixture_findings();
    let hits = of_rule(&findings, "decrypt-containment");
    assert!(
        !hits.iter().any(|f| f.file.contains("paillier")),
        "allowlisted key-holder file must not be flagged"
    );
    assert!(
        !hits.iter().any(|f| f.line > 6),
        "test/suppressed decrypts fired: {hits:?}"
    );
    assert_eq!(
        suppressed, 1,
        "the inline allow() must be counted as suppressed"
    );
}

#[test]
fn secret_format_catches_print_interpolation_and_derive_debug() {
    let (findings, _) = fixture_findings();
    let hits = of_rule(&findings, "secret-format");
    assert_eq!(
        hits.len(),
        3,
        "println + {{sk:?}} + derive(Debug): {hits:?}"
    );
    assert!(hits.iter().all(|f| f.file == "crates/core/src/fmt.rs"));
    assert!(hits.iter().any(|f| f.message.contains("println")));
    assert!(hits
        .iter()
        .any(|f| f.message.contains("secret binding `sk`")));
    assert!(hits.iter().any(|f| f.message.contains("PrivateKey")));
    // The prose mention of `sk` in a plain string and the #[cfg(test)]
    // println must not fire (they would be extra findings above).
}

/// The `panic-free` findings in one fixture file.
fn panic_free_in<'a>(findings: &'a [Finding], file: &str) -> Vec<&'a Finding> {
    of_rule(findings, "panic-free")
        .into_iter()
        .filter(|f| f.file == file)
        .collect()
}

#[test]
fn panic_free_flags_library_sites_but_not_test_modules() {
    let (findings, _) = fixture_findings();
    let hits = of_rule(&findings, "panic-free");
    assert_eq!(hits.len(), 4, "unwrap/expect + two typed unwinds: {hits:?}");
    let lines: Vec<usize> = panic_free_in(&findings, "crates/protocols/src/proto.rs")
        .iter()
        .map(|f| f.line)
        .collect();
    assert_eq!(
        lines,
        vec![5, 9],
        "unwrap_or and the test-mod unwraps must not fire"
    );
}

#[test]
fn panic_free_flags_typed_unwinds() {
    let (findings, _) = fixture_findings();
    let hits = panic_free_in(&findings, "crates/core/src/unwind.rs");
    let lines: Vec<usize> = hits.iter().map(|f| f.line).collect();
    assert_eq!(
        lines,
        vec![7, 11],
        "the import and the test-mod unwind must not fire: {hits:?}"
    );
    assert!(hits[0].message.contains("resume_unwind"));
    assert!(hits[1].message.contains("panic_any"));
}

#[test]
fn wire_conformance_finds_missing_server_handler() {
    let (findings, _) = fixture_findings();
    let hits = of_rule(&findings, "wire-conformance");
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert!(
        hits[0].message.contains("Shutdown") && hits[0].message.contains("server-side handler"),
        "party.rs omits Request::Shutdown (comment and test mentions must not count): {hits:?}"
    );
}

#[test]
fn rng_discipline_flags_direct_seeding_but_not_the_helpers() {
    let (findings, _) = fixture_findings();
    let hits = of_rule(&findings, "rng-discipline");
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].file, "crates/core/src/exec/run.rs");
    assert_eq!(hits[0].line, 6);
    assert!(
        !findings.iter().any(|f| f.file.contains("engine/good.rs")),
        "derive_seeds/derived_rng callers are the approved pattern"
    );
}

#[test]
fn real_workspace_has_no_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let analysis = sknn_lint::analyze(&root).expect("workspace must scan");
    assert!(
        analysis.findings.is_empty(),
        "workspace has findings:\n{}",
        analysis
            .findings
            .iter()
            .map(|f| format!("  {}:{} [{}] {}", f.file, f.line, f.rule, f.message))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn named_thread_flags_unnamed_spawns_but_not_builders_or_tests() {
    let (findings, _) = fixture_findings();
    let hits = of_rule(&findings, "named-thread");
    assert_eq!(hits.len(), 2, "{hits:?}");
    assert!(hits.iter().all(|f| f.file == "crates/store/src/workers.rs"));
    let lines: Vec<usize> = hits.iter().map(|f| f.line).collect();
    assert_eq!(
        lines,
        vec![4, 6],
        "the named Builder chains and the test-module spawn must not fire"
    );
}
