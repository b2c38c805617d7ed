//! Integration tests spanning the application front-ends, the distributed
//! simulation and the core algorithms.

use bpa_topk::apps::{InvertedIndex, MonitoringSystem, Table};
use bpa_topk::datagen::{DatabaseGenerator, DatabaseKind, DatabaseSpec, UniformGenerator};
use bpa_topk::distributed::{Cluster, ClusterSources};
use bpa_topk::prelude::*;

#[test]
fn relational_ranking_is_algorithm_independent() {
    let mut table = Table::new(vec!["a", "b", "c"]);
    // 50 rows with deterministic pseudo-random attribute values.
    let mut state = 0xDEADBEEFu64;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 1000) as f64 / 1000.0
    };
    for _ in 0..50 {
        table.insert(vec![next(), next(), next()]).unwrap();
    }
    let reference = table
        .top_k_by_sum(&["a", "b", "c"], 5, AlgorithmKind::Naive)
        .unwrap();
    for kind in AlgorithmKind::ALL {
        let result = table.top_k_by_sum(&["a", "b", "c"], 5, kind).unwrap();
        let scores: Vec<f64> = result.answers.iter().map(|a| a.score).collect();
        let expected: Vec<f64> = reference.answers.iter().map(|a| a.score).collect();
        for (s, e) in scores.iter().zip(&expected) {
            assert!((s - e).abs() < 1e-9, "{kind:?}");
        }
    }
}

#[test]
fn document_search_and_monitoring_agree_across_algorithms() {
    let mut index = InvertedIndex::new();
    let mut system = MonitoringSystem::new();
    let loc_a = system.add_location("a");
    let loc_b = system.add_location("b");
    for doc in 0..40u64 {
        let name = format!("doc-{doc}");
        index.add_document(
            &name,
            [
                ("alpha", (doc % 7) as f64),
                ("beta", (doc % 11) as f64),
                ("gamma", (doc % 5) as f64),
            ],
        );
        system.record(loc_a, &name, doc % 13 + 1);
        system.record(loc_b, &name, (doc * 7) % 17 + 1);
    }

    let search_ref = index
        .search(&["alpha", "beta"], 6, AlgorithmKind::Naive)
        .unwrap();
    let urls_ref = system.top_k_urls(6, AlgorithmKind::Naive).unwrap();
    for kind in [AlgorithmKind::Ta, AlgorithmKind::Bpa, AlgorithmKind::Bpa2] {
        let search = index.search(&["alpha", "beta"], 6, kind).unwrap();
        let urls = system.top_k_urls(6, kind).unwrap();
        for (a, b) in search.answers.iter().zip(&search_ref.answers) {
            assert!((a.score - b.score).abs() < 1e-9, "{kind:?} search");
        }
        for (a, b) in urls.answers.iter().zip(&urls_ref.answers) {
            assert!((a.score - b.score).abs() < 1e-9, "{kind:?} urls");
        }
    }
}

#[test]
fn distributed_protocols_match_centralized_runs_on_generated_data() {
    for kind in [
        DatabaseKind::Uniform,
        DatabaseKind::Correlated { alpha: 0.05 },
    ] {
        let db = DatabaseSpec::new(kind, 4, 1_500).generate(99);
        let query = TopKQuery::top(10);

        let cluster = Cluster::new(&db);
        let run = |kind: AlgorithmKind| {
            let result = kind
                .create()
                .run_on(&mut ClusterSources::new(&cluster), &query)
                .unwrap();
            let centralized = kind.create().run(&db, &query).unwrap();
            let accesses = cluster.accesses_served();
            assert_eq!(accesses, centralized.stats().total_accesses(), "{kind:?}");
            // Messages are two per access for every protocol.
            assert_eq!(cluster.network().messages, 2 * accesses, "{kind:?}");
            (result, cluster.network())
        };
        let (d_ta, ta_net) = run(AlgorithmKind::Ta);
        let (d_bpa, bpa_net) = run(AlgorithmKind::Bpa);
        let (d_bpa2, bpa2_net) = run(AlgorithmKind::Bpa2);

        // Communication-cost ordering claimed by Section 5: BPA2 < BPA < TA.
        assert!(bpa2_net.payload_units < bpa_net.payload_units);
        assert!(bpa_net.messages <= ta_net.messages);

        // And all protocols agree on the answers.
        assert_eq!(d_ta.scores(), d_bpa.scores());
        assert_eq!(d_ta.scores(), d_bpa2.scores());
    }
}

#[test]
fn end_to_end_cost_ordering_on_a_paper_shaped_workload() {
    // A smaller version of the paper's default setting (Table 1), run end to
    // end: generator -> algorithms -> cost model -> gain factors.
    let db = UniformGenerator::new(8, 10_000).generate(2007);
    let query = TopKQuery::top(20);
    let model = CostModel::paper_default(db.num_items());

    let ta = Ta::literal().run(&db, &query).unwrap();
    let bpa = Bpa.run(&db, &query).unwrap();
    let bpa2 = Bpa2.run(&db, &query).unwrap();

    let ta_cost = ta.stats().execution_cost(&model);
    let bpa_cost = bpa.stats().execution_cost(&model);
    let bpa2_cost = bpa2.stats().execution_cost(&model);

    // Theorem 2 / Theorem 7 orderings always hold.
    assert!(bpa_cost <= ta_cost);
    assert!(bpa2.stats().total_accesses() <= bpa.stats().total_accesses());
    // On independent uniform data BPA's threshold is barely below TA's (the
    // best position can only run a short way past the scan depth — see
    // EXPERIMENTS.md), so only BPA2 is expected to show a clear
    // execution-cost gain at m = 8.
    let bpa_gain = ta_cost / bpa_cost;
    let bpa2_gain = ta_cost / bpa2_cost;
    assert!(bpa_gain >= 1.0, "BPA gain {bpa_gain} below 1");
    assert!(bpa2_gain > 1.2, "BPA2 gain {bpa2_gain} unexpectedly small");
    assert!(bpa2_gain > bpa_gain);
}

#[test]
fn tracker_choice_does_not_change_any_observable_behaviour() {
    use bpa_topk::lists::{Sources, TrackerKind};
    let db = DatabaseSpec::new(DatabaseKind::Gaussian, 5, 2_000).generate(5);
    let query = TopKQuery::top(15);
    let reference = Bpa2.run(&db, &query).unwrap();
    for kind in TrackerKind::ALL {
        let mut sources = Sources::in_memory_with_tracker(&db, kind);
        let bpa2 = Bpa2.run_on(&mut sources, &query).unwrap();
        assert_eq!(
            bpa2.stats().accesses,
            reference.stats().accesses,
            "{kind:?}"
        );
        assert!(bpa2.scores_match(&reference, 1e-9));
    }
    let bpa = Bpa.run(&db, &query).unwrap();
    assert!(bpa.scores_match(&reference, 1e-9));
}
