//! Compares the `BENCH_<target>.json` reports of a CI run against the
//! committed smoke baselines.
//!
//! ```sh
//! TOPK_BENCH_JSON_DIR=/tmp/bench-json cargo run -p topk-bench --bin bench_compare
//! cargo run -p topk-bench --bin bench_compare -- /tmp/bench-json  # same thing
//! ```
//!
//! Every `BENCH_*.json` in `crates/bench/baselines/` must have a
//! counterpart in the current directory and every metric must match
//! exactly (the emitted metrics are deterministic by construction).
//! Current reports with no baseline also fail: a new gated target must
//! commit its baseline in the same change. Exits non-zero on any
//! deviation, listing each one.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use topk_bench::emit::{BenchReport, JSON_DIR_ENV};

fn read_reports(dir: &Path) -> Result<Vec<BenchReport>, String> {
    let mut reports = Vec::new();
    let entries =
        std::fs::read_dir(dir).map_err(|err| format!("cannot read {}: {err}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|err| err.to_string())?.path();
        let name = path
            .file_name()
            .and_then(|name| name.to_str())
            .unwrap_or("");
        if !name.starts_with("BENCH_") || !name.ends_with(".json") {
            continue;
        }
        let text = std::fs::read_to_string(&path)
            .map_err(|err| format!("cannot read {}: {err}", path.display()))?;
        reports
            .push(BenchReport::parse(&text).map_err(|err| format!("{}: {err}", path.display()))?);
    }
    reports.sort_by(|a, b| a.target.cmp(&b.target));
    Ok(reports)
}

fn main() -> ExitCode {
    let current_dir: PathBuf = std::env::args()
        .nth(1)
        .or_else(|| std::env::var(JSON_DIR_ENV).ok())
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            eprintln!("usage: bench_compare <json-dir>  (or set {JSON_DIR_ENV})");
            std::process::exit(2);
        });
    let baseline_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("baselines");

    let baselines = match read_reports(&baseline_dir) {
        Ok(reports) => reports,
        Err(err) => {
            eprintln!("bench_compare: {err}");
            return ExitCode::from(2);
        }
    };
    let currents = match read_reports(&current_dir) {
        Ok(reports) => reports,
        Err(err) => {
            eprintln!("bench_compare: {err}");
            return ExitCode::from(2);
        }
    };

    println!(
        "comparing {} current report(s) in {} against {} baseline(s) in {}",
        currents.len(),
        current_dir.display(),
        baselines.len(),
        baseline_dir.display(),
    );

    let mut failures = 0usize;
    for baseline in &baselines {
        match currents.iter().find(|c| c.target == baseline.target) {
            None => {
                eprintln!(
                    "DEVIATION [{}]: no current report — the gated bench did not emit",
                    baseline.target
                );
                failures += 1;
            }
            Some(current) => {
                let deviations = BenchReport::compare(baseline, current);
                for deviation in &deviations {
                    eprintln!("DEVIATION [{}]: {deviation}", baseline.target);
                }
                if deviations.is_empty() {
                    println!(
                        "  {}: {} metric(s) match",
                        baseline.target,
                        current.metrics.len()
                    );
                } else {
                    failures += deviations.len();
                }
            }
        }
    }
    for current in &currents {
        if !baselines.iter().any(|b| b.target == current.target) {
            eprintln!(
                "DEVIATION [{}]: no committed baseline — add crates/bench/baselines/{}",
                current.target,
                current.file_name()
            );
            failures += 1;
        }
    }

    if failures > 0 {
        eprintln!("bench_compare: {failures} deviation(s) from the committed baselines");
        return ExitCode::FAILURE;
    }
    println!("bench_compare: all reports match the committed baselines");
    ExitCode::SUCCESS
}
