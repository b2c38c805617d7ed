//! Distributed execution: message and payload counts of distributed TA,
//! BPA and BPA2 (Section 5 / Section 6.1's "number of accesses" argument).
//!
//! The originator/list-owner simulation counts one request and one response
//! per access plus the scalars each message carries, showing the two
//! communication effects the paper attributes to BPA2: fewer accesses, and
//! no positions shipped to the query originator.

use topk_bench::config::BENCH_SEED;
use topk_bench::BenchScale;
use topk_core::{AlgorithmKind, TopKQuery};
use topk_datagen::{DatabaseKind, DatabaseSpec};
use topk_distributed::ClusterRuntime;

fn main() {
    let scale = BenchScale::from_env();
    // The distributed simulation clones each list into its owner node and
    // routes every access through typed messages; a tenth of the default n
    // keeps this bench quick without changing the relative message counts.
    let n = scale.default_n() / 10;
    let m = scale.default_m();
    let k = scale.default_k();
    let database = DatabaseSpec::new(DatabaseKind::Uniform, m, n).generate(BENCH_SEED);
    let query = TopKQuery::top(k);

    println!();
    println!("=== Distributed execution: messages and payload (Section 5) ===");
    println!("    uniform database, n = {n}, m = {m} list owners, k = {k}");
    println!(
        "{:>20}{:>14}{:>14}{:>18}{:>12}{:>16}",
        "protocol", "accesses", "messages", "payload (units)", "rounds", "peak round msgs"
    );

    // The naive baseline runs over the same runtime as the threshold
    // family, so distributed sweeps have the baseline the local sweeps
    // have.
    let runtime = ClusterRuntime::spawn(&database);
    for kind in [
        AlgorithmKind::Naive,
        AlgorithmKind::Ta,
        AlgorithmKind::Bpa,
        AlgorithmKind::Bpa2,
    ] {
        let algorithm = kind.create();
        let mut session = runtime.connect();
        let result = algorithm.run_on(&mut session, &query).expect("valid query");
        let network = session.network();
        println!(
            "{:>20}{:>14}{:>14}{:>18}{:>12}{:>16}",
            format!("distributed-{}", algorithm.name()),
            session.accesses_served(),
            network.messages,
            network.payload_units,
            result.stats().rounds,
            network.peak_round().map_or(0, |r| r.messages),
        );
    }
    println!();
    println!(
        "Paper expectation: message counts are proportional to accesses; BPA2 sends fewer and \
         smaller messages because best positions stay at the list owners."
    );
}
