//! The parameter sweep behind the `figures` bench target: one of m, k or
//! n varies, the other two stay fixed.

use topk_core::AlgorithmKind;
use topk_datagen::DatabaseSpec;

use crate::config::{BenchScale, BENCH_SEED};
use crate::measure::{measure_database, ExperimentPoint};

/// The parameter a figure varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// The number of lists m (Figures 3-11): one database per point,
    /// seeded `BENCH_SEED ^ m`.
    M,
    /// The number of answers k (Figures 12-14): one database, seeded
    /// `BENCH_SEED` and shared by every point, as only the query changes.
    K,
    /// The number of items n (Figures 15-17): one database per point,
    /// seeded `BENCH_SEED ^ n.rotate_left(17)`.
    N,
}

impl Axis {
    /// The parameter's name, used as the x-axis label.
    pub fn label(self) -> &'static str {
        match self {
            Axis::M => "m",
            Axis::K => "k",
            Axis::N => "n",
        }
    }

    /// The values the paper sweeps, at `scale`.
    pub fn values(self, scale: BenchScale) -> Vec<usize> {
        match self {
            Axis::M => scale.m_sweep(),
            Axis::K => scale.k_sweep(),
            Axis::N => scale.n_sweep(),
        }
    }
}

/// Measures `algorithms` at every value of `axis`; the database family
/// and the parameters that do not vary come from `base` and `k`. Fails
/// when a measurement is not repeatable (see [`measure_database`]).
pub fn sweep(
    base: DatabaseSpec,
    k: usize,
    axis: Axis,
    values: &[usize],
    algorithms: &[AlgorithmKind],
) -> Result<Vec<ExperimentPoint>, String> {
    let shared = (axis == Axis::K).then(|| base.generate(BENCH_SEED));
    values
        .iter()
        .map(|&x| {
            let measurements = match (axis, &shared) {
                (Axis::K, Some(database)) => measure_database(database, x, algorithms),
                (Axis::M, _) => {
                    let spec = DatabaseSpec::new(base.kind, x, base.num_items);
                    measure_database(&spec.generate(BENCH_SEED ^ x as u64), k, algorithms)
                }
                // Axis::N: a k sweep always has its shared database.
                _ => {
                    let spec = DatabaseSpec::new(base.kind, base.num_lists, x);
                    let seed = BENCH_SEED ^ (x as u64).rotate_left(17);
                    measure_database(&spec.generate(seed), k, algorithms)
                }
            }
            .map_err(|err| format!("{} = {x}: {err}", axis.label()))?;
            Ok(ExperimentPoint { x, measurements })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use topk_datagen::DatabaseKind;

    const ALGOS: [AlgorithmKind; 3] = AlgorithmKind::EVALUATED;
    const UNIFORM: DatabaseSpec = DatabaseSpec {
        kind: DatabaseKind::Uniform,
        num_lists: 3,
        num_items: 300,
    };

    #[test]
    fn sweep_m_produces_one_point_per_m() {
        let points = sweep(UNIFORM, 5, Axis::M, &[2, 3], &ALGOS).unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].x, 2);
        assert_eq!(points[0].measurements.len(), 3);
    }

    #[test]
    fn sweep_k_reuses_one_database() {
        let kind = DatabaseKind::Correlated { alpha: 0.05 };
        let base = DatabaseSpec::new(kind, 3, 400);
        let points = sweep(base, 5, Axis::K, &[2, 4, 8], &ALGOS).unwrap();
        assert_eq!(points.len(), 3);
        // Larger k can never need fewer accesses on the same database.
        let ta = |p: &ExperimentPoint| p.for_algorithm(AlgorithmKind::Ta).unwrap().accesses;
        assert!(ta(&points[0]).total() <= ta(&points[2]).total());
    }

    #[test]
    fn sweep_n_produces_one_point_per_n() {
        let points = sweep(UNIFORM, 5, Axis::N, &[200, 400], &ALGOS).unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[1].x, 400);
    }

    #[test]
    fn every_axis_keeps_the_seed_of_its_former_sweep() {
        let n_seed = BENCH_SEED ^ 400u64.rotate_left(17);
        for (axis, x, spec, seed, k) in [
            (
                Axis::M,
                4,
                DatabaseSpec::new(UNIFORM.kind, 4, 300),
                BENCH_SEED ^ 4,
                5,
            ),
            (
                Axis::N,
                400,
                DatabaseSpec::new(UNIFORM.kind, 3, 400),
                n_seed,
                5,
            ),
            (Axis::K, 10, UNIFORM, BENCH_SEED, 10),
        ] {
            let point = &sweep(UNIFORM, 5, axis, &[x], &ALGOS).unwrap()[0];
            let expected = measure_database(&spec.generate(seed), k, &ALGOS).unwrap();
            for (got, want) in point.measurements.iter().zip(&expected) {
                assert!(got.same_outcome(want), "{axis:?}: {got:?} vs {want:?}");
            }
        }
    }
}
