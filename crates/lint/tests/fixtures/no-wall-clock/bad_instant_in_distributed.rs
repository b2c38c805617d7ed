// lint-fixture-path: crates/distributed/src/runtime.rs
// The cluster runtime prices time with its latency model; a wall-clock
// read here would leak real time into the simulated makespan.

pub fn reply_wait() -> std::time::Duration {
    let sent = std::time::Instant::now();
    sent.elapsed()
}
