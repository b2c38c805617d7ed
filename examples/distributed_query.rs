//! Distributed top-k execution: the setting of Section 5, where each sorted
//! list lives at a different node and the dominant cost is the number (and
//! size) of messages between the query originator and the list owners.
//!
//! Every protocol is the corresponding *core* algorithm running over a
//! session of the `ClusterRuntime` (one worker thread per list owner) —
//! there is no second implementation. The comparison reports accesses,
//! messages, shipped payload and the per-round traffic breakdown, then
//! shows the batching decorator coalescing a full scan into block
//! messages.
//!
//! ```sh
//! cargo run --release --example distributed_query
//! ```

use bpa_topk::datagen::{DatabaseGenerator, UniformGenerator};
use bpa_topk::distributed::{AsyncClusterSources, ClusterRuntime};
use bpa_topk::prelude::*;

fn main() {
    let m = 6;
    let n = 10_000;
    let k = 10;
    let database = UniformGenerator::new(m, n).generate(7);
    let query = TopKQuery::top(k);

    println!("Distributed top-{k} over {m} list owners, n = {n} items per list");
    println!();
    println!(
        "{:>20}{:>12}{:>12}{:>18}{:>10}{:>18}{:>18}",
        "protocol",
        "accesses",
        "messages",
        "payload (units)",
        "rounds",
        "msgs/round (avg)",
        "peak round msgs"
    );

    let runtime = ClusterRuntime::spawn(&database);
    let mut reference: Option<Vec<Score>> = None;
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
            "{:>20}{:>12}{:>12}{:>18}{:>10}{:>18}{:>18}",
            format!("distributed-{}", algorithm.name()),
            session.accesses_served(),
            network.messages,
            network.payload_units,
            result.stats().rounds,
            network.messages / network.rounds().max(1) as u64,
            network.peak_round().map_or(0, |r| r.messages),
        );

        // All protocols return the same top-k score sequence.
        let scores = result.scores();
        match &reference {
            None => reference = Some(scores),
            Some(expected) => assert_eq!(expected, &scores, "protocols must agree"),
        }
    }

    println!();
    println!(
        "BPA2 needs the fewest messages and ships the least payload: best positions stay at the \
         list owners, so the originator only ever receives scores. The per-round columns are the \
         first slice of latency modelling — with in-round requests overlapped, wall-clock cost \
         is bounded by rounds, not messages."
    );

    // The batching decorator: the same naive scan, with sequential sorted
    // accesses coalesced into SortedBlock messages of 256 entries.
    println!();
    println!("Batching (BatchingSource over a runtime session), naive full scan:");
    for (label, block) in [("per-position", 1), ("blocks of 256", 256)] {
        let mut session = if block == 1 {
            runtime.connect()
        } else {
            AsyncClusterSources::batched(&runtime, block)
        };
        let result = NaiveScan.run_on(&mut session, &query).expect("valid query");
        let network = session.network();
        println!(
            "{:>20}{:>12}{:>12}{:>18}   top score {:.4}",
            label,
            session.accesses_served(),
            network.messages,
            network.payload_units,
            result.scores()[0].value(),
        );
    }
    println!(
        "Same answers, ~256x fewer messages. For simulated LAN/WAN timings of these protocols, \
         run the latency_demo example."
    );
}
