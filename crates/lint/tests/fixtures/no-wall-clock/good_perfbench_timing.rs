// lint-fixture-path: perfbench/src/timing.rs
// The end-to-end benchmark's metrics are wall time by definition, so
// perfbench/ is allowlisted beside the bench harness.

pub fn time_one(op: impl FnOnce()) -> std::time::Duration {
    let start = std::time::Instant::now();
    op();
    start.elapsed()
}
