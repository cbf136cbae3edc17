//! `sknn-lint` — trust-boundary leakage linter and protocol-conformance
//! static analysis for the sknn workspace.
//!
//! The security argument of the underlying paper (Elmehdwi, Samanthula,
//! Jiang — ICDE 2014) is a *static* property of this codebase: only the
//! key-holding cloud C2 may decrypt, C1 must never format or print
//! anything plaintext-derived, interactive rounds must stay inside the
//! typed wire protocol, and C1-side randomness must flow through the
//! derived-seed helpers that batch determinism rests on. This crate
//! machine-checks those properties with a dependency-free lexer and
//! token-level scanners (the build container is offline, so no `syn`).
//!
//! See [`rules`] for the six rules and DESIGN.md for the mapping from
//! each rule to the paper's threat model.
//!
//! # Usage
//!
//! ```bash
//! cargo run -p sknn-lint                     # human-readable diagnostics
//! cargo run -p sknn-lint -- --json out.json  # plus machine-readable report
//! ```
//!
//! Any finding fails the run: there is no baseline of tolerated sites.
//!
//! Findings can be suppressed inline, always with a reason:
//!
//! ```text
//! // sknn-lint: allow(panic-free, "batch of one returns exactly one result")
//! ```
//!
//! A suppression covers its own line and the next line.

pub mod json;
pub mod lexer;
pub mod rules;
pub mod source;

use rules::Finding;
use std::io;
use std::path::Path;

/// The result of scanning a tree.
#[derive(Debug)]
pub struct Analysis {
    /// Surviving findings, sorted by `(file, line, rule)`.
    pub findings: Vec<Finding>,
    /// Findings silenced by inline `allow(...)` comments.
    pub suppressed: usize,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Scans every `.rs` file under `root` and runs all rules.
///
/// # Errors
/// Propagates I/O errors from walking or reading the tree.
pub fn analyze(root: &Path) -> io::Result<Analysis> {
    let files = source::load_workspace(root)?;
    let (findings, suppressed) = rules::run_all(&files);
    Ok(Analysis {
        findings,
        suppressed,
        files_scanned: files.len(),
    })
}
