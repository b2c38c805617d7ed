// lint-fixture-path: crates/lists/src/sharded.rs
// A sharded block read runs inside a query; a panic in it aborts the
// query instead of surfacing through the failure contract.

pub fn last_shard_tail(shards: &[Vec<(u64, f64)>]) -> f64 {
    let last = shards.last().expect("a sharded list has >= 1 shard");
    last.last().expect("every shard holds >= 1 entry").1
}
