//! Running experiments and collecting the paper's three metrics.

use topk_core::{AlgorithmKind, CostModel, TopKQuery};
use topk_lists::{AccessCounters, Database};

/// Passes over the algorithms at each experiment point. Each pass starts
/// one algorithm later than the one before, so no algorithm always pays
/// the cold start.
pub const PASSES: usize = 5;

/// The measurements for one algorithm on one experiment point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlgorithmMeasurement {
    /// Which algorithm produced the numbers.
    pub algorithm: AlgorithmKind,
    /// Execution cost `as·cs + ar·cr` under the paper's cost model
    /// (`cs = 1`, `cr = log₂ n`, direct ≡ random).
    pub execution_cost: f64,
    /// Accesses to the lists by mode; `total()` is the paper's number of
    /// accesses.
    pub accesses: AccessCounters,
    /// Number of distinct items whose overall score was computed.
    pub items_scored: usize,
    /// Median response time in milliseconds over the [`PASSES`] runs.
    pub response_ms: f64,
    /// Stopping depth (sorted-scan position, or the final best position for
    /// BPA2).
    pub stop_position: Option<usize>,
}

impl AlgorithmMeasurement {
    /// Whether two runs agree on everything but the wall clock.
    pub fn same_outcome(&self, other: &Self) -> bool {
        AlgorithmMeasurement {
            response_ms: other.response_ms,
            ..*self
        } == *other
    }
}

/// One x-axis point of a figure: the varied parameter value plus one
/// measurement per algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentPoint {
    /// The varied parameter value (m, k or n, depending on the figure).
    pub x: usize,
    /// One measurement per algorithm, in the order they were requested.
    pub measurements: Vec<AlgorithmMeasurement>,
}

impl ExperimentPoint {
    /// The measurement for a specific algorithm, if it was run.
    pub fn for_algorithm(&self, algorithm: AlgorithmKind) -> Option<&AlgorithmMeasurement> {
        self.measurements.iter().find(|m| m.algorithm == algorithm)
    }
}

/// Runs the given algorithms [`PASSES`] times each on an already-generated
/// database, rotating their order from pass to pass. The deterministic
/// fields come from the first pass and the response time is the median.
/// Fails when a later pass's accesses, stop position, items scored or
/// execution cost differ from the first pass's.
pub fn measure_database(
    database: &Database,
    k: usize,
    algorithms: &[AlgorithmKind],
) -> Result<Vec<AlgorithmMeasurement>, String> {
    let query = TopKQuery::top(k);
    let cost_model = CostModel::paper_default(database.num_items());
    let run = |algorithm: AlgorithmKind| {
        let result = algorithm
            .create()
            .run(database, &query)
            .expect("benchmark queries are valid by construction");
        let stats = result.stats();
        AlgorithmMeasurement {
            algorithm,
            execution_cost: stats.execution_cost(&cost_model),
            accesses: stats.accesses,
            items_scored: stats.items_scored,
            response_ms: stats.response_time_ms(),
            stop_position: stats.stop_position,
        }
    };
    let mut runs = vec![Vec::new(); algorithms.len()];
    for pass in 0..PASSES {
        for offset in 0..algorithms.len() {
            let i = (pass + offset) % algorithms.len();
            runs[i].push(run(algorithms[i]));
        }
    }
    runs.into_iter()
        .map(|mut runs| {
            let mut measured = runs[0];
            if let Some(other) = runs.iter().find(|r| !r.same_outcome(&measured)) {
                return Err(format!("not repeatable: {other:?} after {measured:?}"));
            }
            runs.sort_by(|a, b| a.response_ms.total_cmp(&b.response_ms));
            measured.response_ms = runs[PASSES / 2].response_ms;
            Ok(measured)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use topk_datagen::{DatabaseKind, DatabaseSpec};

    #[test]
    fn measures_every_requested_algorithm() {
        let spec = DatabaseSpec::new(DatabaseKind::Uniform, 3, 500);
        let points = measure_database(&spec.generate(1), 5, &AlgorithmKind::EVALUATED).unwrap();
        assert_eq!(points.len(), 3);
        assert_eq!(points[0].algorithm, AlgorithmKind::Ta);
        for p in &points {
            assert!(p.execution_cost > 0.0);
            assert!(p.accesses.total() > 0);
            assert!(p.items_scored > 0);
            assert!(p.stop_position.is_some());
        }
    }

    #[test]
    fn bpa_never_costs_more_than_ta() {
        let spec = DatabaseSpec::new(DatabaseKind::Uniform, 4, 2_000);
        let points = measure_database(&spec.generate(7), 10, &AlgorithmKind::EVALUATED).unwrap();
        let ta = points
            .iter()
            .find(|p| p.algorithm == AlgorithmKind::Ta)
            .unwrap();
        let bpa = points
            .iter()
            .find(|p| p.algorithm == AlgorithmKind::Bpa)
            .unwrap();
        let bpa2 = points
            .iter()
            .find(|p| p.algorithm == AlgorithmKind::Bpa2)
            .unwrap();
        assert!(bpa.execution_cost <= ta.execution_cost);
        assert!(bpa2.accesses.total() <= bpa.accesses.total());
    }

    #[test]
    fn experiment_point_lookup() {
        let spec = DatabaseSpec::new(DatabaseKind::Correlated { alpha: 0.01 }, 3, 1_000);
        let point = ExperimentPoint {
            x: 3,
            measurements: measure_database(&spec.generate(2), 5, &AlgorithmKind::EVALUATED)
                .unwrap(),
        };
        assert!(point.for_algorithm(AlgorithmKind::Bpa2).is_some());
        assert!(point.for_algorithm(AlgorithmKind::Naive).is_none());
        assert_eq!(point.x, 3);
    }
}
