//! CLI driver for the sknn trust-boundary linter. See the library docs
//! for the rule catalogue; this binary adds JSON output and process exit
//! codes for CI:
//!
//! - `0` — no findings
//! - `1` — at least one finding
//! - `2` — usage or I/O error

use std::path::PathBuf;
use std::process::ExitCode;

struct Options {
    root: PathBuf,
    json: Option<PathBuf>,
}

const USAGE: &str = "usage: sknn-lint [--root DIR] [--json FILE] [--list-rules]

Scans the workspace for trust-boundary violations. Any finding not
suppressed inline fails the run.";

fn parse_args() -> Result<Option<Options>, String> {
    let mut opts = Options {
        root: PathBuf::from("."),
        json: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => opts.root = need(&mut args, "--root")?.into(),
            "--json" => opts.json = Some(need(&mut args, "--json")?.into()),
            "--list-rules" => {
                for rule in sknn_lint::rules::RULE_IDS {
                    println!("{rule}");
                }
                return Ok(None);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(Some(opts))
}

fn need(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(Some(opts)) => opts,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sknn-lint: {e}");
            return ExitCode::from(2);
        }
    };

    let analysis = match sknn_lint::analyze(&opts.root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sknn-lint: scanning {}: {e}", opts.root.display());
            return ExitCode::from(2);
        }
    };

    for f in &analysis.findings {
        println!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
    }
    println!(
        "sknn-lint: {} files scanned, {} failing, {} suppressed",
        analysis.files_scanned,
        analysis.findings.len(),
        analysis.suppressed
    );

    if let Some(json_path) = &opts.json {
        let doc = sknn_lint::json::report(&analysis.findings, analysis.suppressed);
        if let Err(e) = std::fs::write(json_path, doc) {
            eprintln!("sknn-lint: writing {}: {e}", json_path.display());
            return ExitCode::from(2);
        }
    }

    if analysis.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
