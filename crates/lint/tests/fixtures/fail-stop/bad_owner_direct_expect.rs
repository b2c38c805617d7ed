// lint-fixture-path: crates/distributed/src/owner.rs
// An owner that unwraps its own read kills the worker thread; the
// originator then sees a timeout instead of the owner's reply.

pub fn direct_access(entries: &[(u64, f64)], first_unseen: usize) -> (u64, f64) {
    *entries
        .get(first_unseen - 1)
        .expect("first unseen position is within bounds")
}
