//! Benchmark configuration: the paper's Table 1 defaults and parameter
//! sweeps, with an environment switch for quick runs.

/// Default number of data items per list (`n`) — Table 1.
pub const PAPER_DEFAULT_N: usize = 100_000;
/// Default number of requested answers (`k`) — Table 1.
pub const PAPER_DEFAULT_K: usize = 20;
/// Default number of lists (`m`) — Table 1.
pub const PAPER_DEFAULT_M: usize = 8;
/// Seed used for all generated databases, so published numbers are
/// reproducible run to run.
pub const BENCH_SEED: u64 = 2007;

/// The scale at which the benches run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchScale {
    /// The paper's sizes (n = 100 000 by default). Used for the recorded
    /// results in the repository-root `EXPERIMENTS.md`.
    Paper,
    /// Reduced sizes (n = 20 000 by default) for quick local runs. Selected
    /// with `TOPK_BENCH_SCALE=small`.
    Small,
    /// Tiny sizes (n = 2 000 by default) for CI smoke runs of the gated
    /// targets (e.g. `figures`, `planner_validation`). Selected with
    /// `TOPK_BENCH_SCALE=smoke`.
    Smoke,
}

impl BenchScale {
    /// Reads the scale from the `TOPK_BENCH_SCALE` environment variable
    /// (`small` selects [`BenchScale::Small`], `smoke` selects
    /// [`BenchScale::Smoke`]; anything else, or an unset variable, selects
    /// [`BenchScale::Paper`]).
    pub fn from_env() -> Self {
        match std::env::var("TOPK_BENCH_SCALE") {
            Ok(value) if value.eq_ignore_ascii_case("small") => BenchScale::Small,
            Ok(value) if value.eq_ignore_ascii_case("smoke") => BenchScale::Smoke,
            _ => BenchScale::Paper,
        }
    }

    /// Default number of items per list at this scale.
    pub fn default_n(self) -> usize {
        match self {
            BenchScale::Paper => PAPER_DEFAULT_N,
            BenchScale::Small => 20_000,
            BenchScale::Smoke => 2_000,
        }
    }

    /// Default k (the same at both scales; users "are interested in a small
    /// number of top answers").
    pub fn default_k(self) -> usize {
        PAPER_DEFAULT_K
    }

    /// Default m (Table 1).
    pub fn default_m(self) -> usize {
        PAPER_DEFAULT_M
    }

    /// The m sweep of Figures 3-11: 2, 4, …, 18.
    pub fn m_sweep(self) -> Vec<usize> {
        let max = match self {
            BenchScale::Paper => 18,
            BenchScale::Small => 10,
            BenchScale::Smoke => 6,
        };
        (2..=max).step_by(2).collect()
    }

    /// The k sweep of Figures 12-14: 10, 20, …, 100.
    pub fn k_sweep(self) -> Vec<usize> {
        let max = match self {
            BenchScale::Paper => 100,
            BenchScale::Small => 50,
            BenchScale::Smoke => 20,
        };
        (10..=max).step_by(10).collect()
    }

    /// The n sweep of Figures 15-17: 25k, 50k, …, 200k (scaled down for
    /// quick runs).
    pub fn n_sweep(self) -> Vec<usize> {
        match self {
            BenchScale::Paper => (1..=8).map(|i| i * 25_000).collect(),
            BenchScale::Small => (1..=8).map(|i| i * 5_000).collect(),
            BenchScale::Smoke => (1..=4).map(|i| i * 500).collect(),
        }
    }

    /// Human-readable label used in report headers.
    pub fn label(self) -> &'static str {
        match self {
            BenchScale::Paper => "paper scale",
            BenchScale::Small => "small scale (TOPK_BENCH_SCALE=small)",
            BenchScale::Smoke => "smoke scale (TOPK_BENCH_SCALE=smoke)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_table_1() {
        let s = BenchScale::Paper;
        assert_eq!(s.default_n(), 100_000);
        assert_eq!(s.default_k(), 20);
        assert_eq!(s.default_m(), 8);
        assert_eq!(s.m_sweep(), vec![2, 4, 6, 8, 10, 12, 14, 16, 18]);
        assert_eq!(s.k_sweep().first(), Some(&10));
        assert_eq!(s.k_sweep().last(), Some(&100));
        assert_eq!(s.n_sweep().first(), Some(&25_000));
        assert_eq!(s.n_sweep().last(), Some(&200_000));
        assert_eq!(s.label(), "paper scale");
    }

    #[test]
    fn small_scale_shrinks_every_dimension() {
        let s = BenchScale::Small;
        assert!(s.default_n() < BenchScale::Paper.default_n());
        assert!(s.m_sweep().last().unwrap() < BenchScale::Paper.m_sweep().last().unwrap());
        assert!(s.n_sweep().last().unwrap() < BenchScale::Paper.n_sweep().last().unwrap());
        assert!(s.label().contains("small"));
    }

    #[test]
    fn smoke_scale_shrinks_below_small() {
        let s = BenchScale::Smoke;
        assert!(s.default_n() < BenchScale::Small.default_n());
        assert!(s.m_sweep().last().unwrap() < BenchScale::Small.m_sweep().last().unwrap());
        assert!(s.k_sweep().last().unwrap() < BenchScale::Small.k_sweep().last().unwrap());
        assert!(s.n_sweep().last().unwrap() < BenchScale::Small.n_sweep().last().unwrap());
        assert!(s.label().contains("smoke"));
    }
}
