//! Figures 3-17 of the paper's Section 6, one row of [`FIGURES`] each:
//! execution cost, number of accesses, stop position, items scored and
//! median response time of TA, memoizing TA, BPA and BPA2.
//!
//! ```sh
//! cargo bench --bench figures                         # paper scale
//! TOPK_BENCH_SCALE=smoke cargo bench --bench figures  # CI smoke
//! ```
//!
//! The target **exits non-zero** when a pass over a point is not
//! repeatable (see [`topk_bench::measure_database`]), or when at any point
//! BPA makes more accesses than TA (Lemmas 1-2) or BPA2 more than BPA
//! (Theorem 7). `BENCH_figures.json` gates the deterministic values per
//! figure, point and algorithm; response times go to the ungated
//! `TREND_figures.json`.

use topk_bench::report::algorithm_label;
use topk_bench::Axis::{self, K, M, N};
use topk_bench::{
    print_header, print_metric_table, sweep, BenchReport, BenchScale, MetricKind, TrendReport,
};
use topk_core::AlgorithmKind;
use topk_datagen::DatabaseKind::{self, Correlated, Gaussian, Uniform};
use topk_datagen::DatabaseSpec;

/// TA-CACHED keeps TA's threshold but memoizes resolved items, so it
/// saves random accesses only; BPA and BPA2 change the stopping condition.
const ALGORITHMS: [AlgorithmKind; 4] = [
    AlgorithmKind::Ta,
    AlgorithmKind::TaCached,
    AlgorithmKind::Bpa,
    AlgorithmKind::Bpa2,
];

const UNIFORM_M: &str = "BPA beats TA by ~(m+6)/8 and BPA2 by ~(m+1)/2 on execution cost (m > 2).";
const GAUSSIAN_M: &str = "slightly better than the uniform database for all three algorithms, \
     with gains over TA close to the uniform case.";
const CORRELATED_M: &str = "the more correlated the database (smaller alpha), the lower the \
     execution cost of all three algorithms; BPA and BPA2 still stop much sooner than TA.";
const UNIFORM_K: &str = "execution cost grows only slightly with k on the uniform database.";
const CORRELATED_K: &str = "the impact of k is larger the more correlated the database is.";
const UNIFORM_N: &str = "n has a considerable impact on the uniform database.";
const CORRELATED_N: &str = "n has a much smaller impact on highly correlated databases.";

/// Figure label, database family, swept parameter (the other two at
/// Table 1's defaults) and the paper's expectation.
const FIGURES: [(&str, DatabaseKind, Axis, &str); 11] = [
    ("Figures 3-5", Uniform, M, UNIFORM_M),
    ("Figures 6-8", Gaussian, M, GAUSSIAN_M),
    ("Figure 9", Correlated { alpha: 0.001 }, M, CORRELATED_M),
    ("Figure 10", Correlated { alpha: 0.01 }, M, CORRELATED_M),
    ("Figure 11", Correlated { alpha: 0.1 }, M, CORRELATED_M),
    ("Figure 12", Uniform, K, UNIFORM_K),
    ("Figure 13", Correlated { alpha: 0.01 }, K, CORRELATED_K),
    ("Figure 14", Correlated { alpha: 0.001 }, K, CORRELATED_K),
    ("Figure 15", Uniform, N, UNIFORM_N),
    ("Figure 16", Correlated { alpha: 0.01 }, N, CORRELATED_N),
    ("Figure 17", Correlated { alpha: 0.0001 }, N, CORRELATED_N),
];

fn main() {
    let scale = BenchScale::from_env();
    let (m, n, k) = (scale.default_m(), scale.default_n(), scale.default_k());
    let mut summary = BenchReport::new("figures", scale.label());
    let mut trend = TrendReport::new("figures", scale.label());
    let mut failures = Vec::new();
    for (label, kind, axis, expectation) in FIGURES {
        let x = axis.label();
        print_header(
            label,
            &format!("{} database, varying {x}", kind.label()),
            &match axis {
                M => format!("n = {n}, k = {k}, f = sum, {}", scale.label()),
                K => format!("m = {m}, n = {n}, f = sum, {}", scale.label()),
                N => format!("m = {m}, k = {k}, f = sum, {}", scale.label()),
            },
        );
        let points = sweep(
            DatabaseSpec::new(kind, m, n),
            k,
            axis,
            &axis.values(scale),
            &ALGORITHMS,
        )
        .unwrap_or_else(|err| {
            eprintln!("FAILED: {label}: {err}");
            std::process::exit(1);
        });
        for metric in MetricKind::ALL {
            print_metric_table(x, metric, &ALGORITHMS, &points);
        }
        println!();
        println!("Paper expectation: {expectation}");

        // "Figures 3-5" -> "fig03_05".
        let figure: Vec<String> = label
            .split(|c: char| !c.is_ascii_digit())
            .filter(|digits| !digits.is_empty())
            .map(|digits| format!("{digits:0>2}"))
            .collect();
        let figure = figure.join("_");
        for point in &points {
            for run in &point.measurements {
                let algorithm = algorithm_label(run.algorithm).to_ascii_lowercase();
                let key = format!("fig{figure}.{x}{}.{}", point.x, algorithm.replace('-', "_"));
                for (name, value) in [
                    ("sorted", run.accesses.sorted as f64),
                    ("random", run.accesses.random as f64),
                    ("direct", run.accesses.direct as f64),
                    (
                        "stop_position",
                        run.stop_position.map_or(-1.0, |p| p as f64),
                    ),
                    ("items_scored", run.items_scored as f64),
                    ("execution_cost", run.execution_cost),
                ] {
                    summary.push(&format!("{key}.{name}"), value);
                }
                let nanos = (run.response_ms * 1e6).round() as u64;
                trend.push(&format!("{key}.response_ns"), nanos);
            }
            let accesses = |a| point.for_algorithm(a).map(|run| run.accesses.total());
            for (more, than, claim) in [
                (AlgorithmKind::Bpa, AlgorithmKind::Ta, "Lemmas 1-2"),
                (AlgorithmKind::Bpa2, AlgorithmKind::Bpa, "Theorem 7"),
            ] {
                if accesses(more) > accesses(than) {
                    failures.push(format!(
                        "{label} at {x} = {}: {more:?} made {:?} accesses, {than:?} {:?} ({claim})",
                        point.x,
                        accesses(more),
                        accesses(than)
                    ));
                }
            }
        }
    }

    summary.emit().expect("writing the bench JSON report");
    trend.emit().expect("writing the trend JSON report");
    for failure in &failures {
        eprintln!("FAILED: {failure}");
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
    println!();
    println!("figures passed: BPA <= TA and BPA2 <= BPA in accesses at every point");
}
