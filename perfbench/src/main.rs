//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sknn_b-512 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Every metric is printed on its own line with its unit and sample
//! count; the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and the metrics `BENCHMARK.json` lists
//! (end-to-end with `--trace 0`, per-layer with `--trace 1`).

use perfbench::{find, run, Budget, Metric, Options, Report, Workload, END_TO_END, PER_LAYER};
use std::path::Path;
use std::process::ExitCode;

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <n> --trace <0|1>",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        budget: Budget::Seconds(seconds.ok_or("--seconds is required")?),
        trace: trace.ok_or("--trace is required")?,
        out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    })
}

fn line(m: &Metric) -> String {
    let value = m.value.map_or("-".to_string(), |v| format!("{v:.4}"));
    format!("  {:<28} {:>14} {:<6} {}", m.name, value, m.unit, m.detail)
}

/// The final JSON line: the listed metrics, or the name of one the run
/// could not produce.
fn result_json(report: &Report, trace: bool) -> Result<String, String> {
    let (metrics, listed) = match trace {
        false => (&report.end_to_end, END_TO_END),
        true => (&report.per_layer, PER_LAYER),
    };
    let mut fields = Vec::with_capacity(listed.len());
    for (name, unit) in listed {
        let value = find(metrics, name)
            .and_then(|m| m.value)
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted,
        report.failed,
        fields.join(", ")
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{}: {e}", opts.workload.name());
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {}: {} of {} operations failed",
        opts.workload.name(),
        opts.seed,
        report.failed,
        report.attempted
    );
    for problem in &report.problems {
        println!("  problem: {problem}");
    }
    println!("end-to-end:");
    report
        .end_to_end
        .iter()
        .for_each(|m| println!("{}", line(m)));
    if opts.trace {
        println!("per-layer:");
        report
            .per_layer
            .iter()
            .for_each(|m| println!("{}", line(m)));
    }
    if let Some(path) = &report.trace_file {
        println!("spans: {}", path.display());
    }
    match result_json(&report, opts.trace) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}: {e}", opts.workload.name());
            ExitCode::FAILURE
        }
    }
}
