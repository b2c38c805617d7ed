//! Plain-text reporting of experiment series, in the shape of the paper's
//! figures.

use topk_core::AlgorithmKind;

use crate::measure::ExperimentPoint;

/// Which of the paper's three metrics a table reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Execution cost (Figures 3, 6, 9-17).
    ExecutionCost,
    /// Number of accesses (Figures 4 and 7).
    Accesses,
    /// Stopping depth (the paper's Lemmas 1-2 and Theorem 7 compare it).
    StopPosition,
    /// Distinct items whose overall score was computed.
    ItemsScored,
    /// Median response time in milliseconds (Figures 5 and 8).
    ResponseTimeMs,
}

impl MetricKind {
    /// Every metric, in the order the figure tables print them.
    pub const ALL: [MetricKind; 5] = [
        MetricKind::ExecutionCost,
        MetricKind::Accesses,
        MetricKind::StopPosition,
        MetricKind::ItemsScored,
        MetricKind::ResponseTimeMs,
    ];

    /// Column-header label.
    pub fn label(self) -> &'static str {
        match self {
            MetricKind::ExecutionCost => "execution cost",
            MetricKind::Accesses => "number of accesses",
            MetricKind::StopPosition => "stop position",
            MetricKind::ItemsScored => "items scored",
            MetricKind::ResponseTimeMs => "response time (ms)",
        }
    }

    fn value(self, point: &ExperimentPoint, algorithm: AlgorithmKind) -> Option<f64> {
        let m = point.for_algorithm(algorithm)?;
        match self {
            MetricKind::ExecutionCost => Some(m.execution_cost),
            MetricKind::Accesses => Some(m.accesses.total() as f64),
            MetricKind::StopPosition => m.stop_position.map(|p| p as f64),
            MetricKind::ItemsScored => Some(m.items_scored as f64),
            MetricKind::ResponseTimeMs => Some(m.response_ms),
        }
    }
}

/// Short display name for an algorithm column.
pub fn algorithm_label(algorithm: AlgorithmKind) -> &'static str {
    match algorithm {
        AlgorithmKind::Naive => "NAIVE",
        AlgorithmKind::Fa => "FA",
        AlgorithmKind::Ta => "TA",
        AlgorithmKind::TaCached => "TA-CACHED",
        AlgorithmKind::Bpa => "BPA",
        AlgorithmKind::Bpa2 => "BPA2",
        AlgorithmKind::Tput => "TPUT",
    }
}

/// Formats a gain factor `baseline / value`, the way Section 6.2 quotes
/// "BPA2 outperforms TA by a factor of approximately (m+1)/2".
pub fn format_factor(baseline: f64, value: f64) -> String {
    if value <= 0.0 {
        "-".to_owned()
    } else {
        format!("{:.2}x", baseline / value)
    }
}

/// Prints an experiment header: figure id, database family, fixed
/// parameters.
pub fn print_header(figure: &str, description: &str, fixed: &str) {
    println!();
    println!("=== {figure} — {description} ===");
    println!("    {fixed}");
}

/// Prints one metric of a series as an aligned table: one row per x value,
/// one column per algorithm, plus TA-relative gain columns for BPA and
/// BPA2 when TA is part of the series.
pub fn print_metric_table(
    x_label: &str,
    metric: MetricKind,
    algorithms: &[AlgorithmKind],
    points: &[ExperimentPoint],
) {
    let mut header = format!("{x_label:>8}");
    for &a in algorithms {
        header.push_str(&format!("{:>16}", algorithm_label(a)));
    }
    let with_factors = algorithms.contains(&AlgorithmKind::Ta);
    if with_factors {
        for &a in algorithms {
            if a != AlgorithmKind::Ta && a != AlgorithmKind::Naive {
                header.push_str(&format!("{:>14}", format!("TA/{}", algorithm_label(a))));
            }
        }
    }
    // Correlated databases answer in microseconds.
    let precision = if metric == MetricKind::ResponseTimeMs {
        3
    } else {
        1
    };
    println!();
    println!("  [{}]", metric.label());
    println!("{header}");
    for point in points {
        let mut row = format!("{:>8}", point.x);
        let ta_value = metric.value(point, AlgorithmKind::Ta);
        for &a in algorithms {
            match metric.value(point, a) {
                Some(v) => row.push_str(&format!("{v:>16.precision$}")),
                None => row.push_str(&format!("{:>16}", "-")),
            }
        }
        if with_factors {
            for &a in algorithms {
                if a != AlgorithmKind::Ta && a != AlgorithmKind::Naive {
                    let cell = match (ta_value, metric.value(point, a)) {
                        (Some(ta), Some(v)) => format_factor(ta, v),
                        _ => "-".to_owned(),
                    };
                    row.push_str(&format!("{cell:>14}"));
                }
            }
        }
        println!("{row}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::AlgorithmMeasurement;
    use topk_lists::AccessCounters;

    fn point(x: usize) -> ExperimentPoint {
        ExperimentPoint {
            x,
            measurements: vec![
                AlgorithmMeasurement {
                    algorithm: AlgorithmKind::Ta,
                    execution_cost: 100.0,
                    accesses: AccessCounters {
                        sorted: 12,
                        random: 48,
                        direct: 0,
                    },
                    items_scored: 12,
                    response_ms: 2.0,
                    stop_position: Some(6),
                },
                AlgorithmMeasurement {
                    algorithm: AlgorithmKind::Bpa,
                    execution_cost: 50.0,
                    accesses: AccessCounters {
                        sorted: 6,
                        random: 24,
                        direct: 0,
                    },
                    items_scored: 6,
                    response_ms: 1.0,
                    stop_position: Some(3),
                },
            ],
        }
    }

    #[test]
    fn metric_labels() {
        assert_eq!(MetricKind::ExecutionCost.label(), "execution cost");
        assert_eq!(MetricKind::Accesses.label(), "number of accesses");
        assert_eq!(MetricKind::ResponseTimeMs.label(), "response time (ms)");
        assert_eq!(MetricKind::ALL.len(), 5);
    }

    #[test]
    fn factor_formatting() {
        assert_eq!(format_factor(100.0, 50.0), "2.00x");
        assert_eq!(format_factor(100.0, 0.0), "-");
    }

    #[test]
    fn algorithm_labels_are_short() {
        for kind in AlgorithmKind::ALL {
            assert!(!algorithm_label(kind).is_empty());
            assert!(algorithm_label(kind).len() <= 9);
        }
    }

    #[test]
    fn printing_does_not_panic() {
        // Smoke test: exercises all formatting paths including missing
        // algorithms (BPA2 is requested but absent from the point).
        print_header("Figure X", "smoke test", "n=10, k=2");
        print_metric_table(
            "m",
            MetricKind::ExecutionCost,
            &[AlgorithmKind::Ta, AlgorithmKind::Bpa, AlgorithmKind::Bpa2],
            &[point(2), point(4)],
        );
        for metric in MetricKind::ALL {
            print_metric_table("m", metric, &[AlgorithmKind::Bpa], &[point(2)]);
        }
    }
}
