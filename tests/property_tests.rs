//! Property-based tests of the paper's invariants over arbitrary databases.
//!
//! Databases are generated directly by proptest (not by the `topk-datagen`
//! generators) so that small numbers of lists, items and duplicate scores
//! (ties) are all explored. The in-tree proptest stand-in (`vendor/`) does
//! not shrink failures; it reports the raw failing case, which is
//! reproducible because input streams are deterministic per test and case.

use proptest::prelude::*;

use bpa_topk::prelude::*;

/// Strategy: a database of `m ∈ [1, 5]` lists over `n ∈ [1, 40]` items with
/// small integer scores (to provoke ties), plus a valid `k`.
fn arb_database_and_k() -> impl Strategy<Value = (Vec<Vec<(u64, f64)>>, usize)> {
    (1usize..=5, 1usize..=40)
        .prop_flat_map(|(m, n)| {
            let lists =
                proptest::collection::vec(proptest::collection::vec(0u32..20, n..=n), m..=m);
            (lists, 1usize..=n)
        })
        .prop_map(|(raw_lists, k)| {
            let lists: Vec<Vec<(u64, f64)>> = raw_lists
                .into_iter()
                .map(|scores| {
                    scores
                        .into_iter()
                        .enumerate()
                        .map(|(item, score)| (item as u64, score as f64))
                        .collect()
                })
                .collect();
            (lists, k)
        })
}

fn build(lists: Vec<Vec<(u64, f64)>>) -> Database {
    Database::from_unsorted_lists(lists).expect("generated databases are valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every algorithm returns the same multiset of top-k overall scores as
    /// the naive full scan, for any database and any monotone function used
    /// in the paper. TPUT is sum-only: on the other functions it must
    /// surface a typed error rather than run its unsound pruning.
    #[test]
    fn all_algorithms_agree_with_naive((lists, k) in arb_database_and_k()) {
        let db = build(lists);
        for query in [TopKQuery::new(k, Sum), TopKQuery::new(k, Min), TopKQuery::new(k, Max)] {
            let naive = NaiveScan.run(&db, &query).unwrap();
            for kind in AlgorithmKind::ALL {
                if !kind.supports(&query) {
                    prop_assert!(matches!(
                        kind.create().run(&db, &query),
                        Err(TopKError::UnsupportedScoring { .. })
                    ));
                    continue;
                }
                let result = kind.create().run(&db, &query).unwrap();
                prop_assert!(
                    result.scores_match(&naive, 1e-9),
                    "{:?} disagrees with naive for k={} f={}",
                    kind, k, query.scoring().name()
                );
            }
        }
    }

    /// Lemmas 1 and 2: BPA never performs more sorted or random accesses
    /// than TA.
    #[test]
    fn bpa_is_never_costlier_than_ta((lists, k) in arb_database_and_k()) {
        let db = build(lists);
        let query = TopKQuery::top(k);
        let ta = Ta::literal().run(&db, &query).unwrap();
        let bpa = Bpa.run(&db, &query).unwrap();
        prop_assert!(bpa.stats().accesses.sorted <= ta.stats().accesses.sorted);
        prop_assert!(bpa.stats().accesses.random <= ta.stats().accesses.random);
        prop_assert!(bpa.stats().stop_position <= ta.stats().stop_position);
        let model = CostModel::paper_default(db.num_items());
        prop_assert!(bpa.stats().execution_cost(&model) <= ta.stats().execution_cost(&model) + 1e-9);
    }

    /// Theorems 5 and 7: BPA2 accesses each position at most once (so at
    /// most n accesses per list) and never does more total accesses than BPA.
    #[test]
    fn bpa2_access_bounds((lists, k) in arb_database_and_k()) {
        let db = build(lists);
        let query = TopKQuery::top(k);
        let bpa = Bpa.run(&db, &query).unwrap();
        let bpa2 = Bpa2::default().run(&db, &query).unwrap();
        prop_assert!(bpa2.stats().total_accesses() <= bpa.stats().total_accesses());
        for per_list in &bpa2.stats().per_list {
            prop_assert!(per_list.total() <= db.num_items() as u64);
        }
        prop_assert!(bpa2.scores_match(&bpa, 1e-9));
    }

    /// The memoizing TA ablation never changes the answers or the stopping
    /// position, only the number of random accesses.
    #[test]
    fn memoizing_ta_only_saves_random_accesses((lists, k) in arb_database_and_k()) {
        let db = build(lists);
        let query = TopKQuery::top(k);
        let literal = Ta::literal().run(&db, &query).unwrap();
        let cached = Ta::memoizing().run(&db, &query).unwrap();
        prop_assert_eq!(literal.stats().stop_position, cached.stats().stop_position);
        prop_assert_eq!(literal.stats().accesses.sorted, cached.stats().accesses.sorted);
        prop_assert!(cached.stats().accesses.random <= literal.stats().accesses.random);
        prop_assert!(cached.scores_match(&literal, 1e-9));
    }

    /// The result is always exactly k items, sorted by non-increasing score,
    /// and every reported score is the true overall score of its item.
    #[test]
    fn results_are_well_formed((lists, k) in arb_database_and_k()) {
        let db = build(lists.clone());
        let query = TopKQuery::top(k);
        for kind in AlgorithmKind::ALL {
            let result = kind.create().run(&db, &query).unwrap();
            prop_assert_eq!(result.len(), k);
            let scores = result.scores();
            prop_assert!(scores.windows(2).all(|w| w[0] >= w[1]));
            for answer in result.items() {
                let truth: f64 = db
                    .local_scores(answer.item)
                    .expect("answers come from the database")
                    .iter()
                    .map(|s| s.value())
                    .sum();
                prop_assert!((truth - answer.score.value()).abs() < 1e-9);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cross-algorithm agreement on generated databases: every algorithm
    /// (Naive, FA, TA, TA-cached, BPA, BPA2, TPUT) returns the same
    /// multiset of top-k overall scores on every `topk-datagen` family —
    /// uniform, gaussian and correlated (smaller case count: generation
    /// dominates).
    #[test]
    fn generated_databases_are_valid_and_consistent(
        m in 2usize..=4,
        n in 10usize..=200,
        seed in 0u64..1000,
        alpha in 0.0f64..=0.2,
    ) {
        use bpa_topk::datagen::{DatabaseKind, DatabaseSpec};
        for db_kind in [
            DatabaseKind::Uniform,
            DatabaseKind::Gaussian,
            DatabaseKind::Correlated { alpha },
        ] {
            let db = DatabaseSpec::new(db_kind, m, n).generate(seed);
            prop_assert_eq!(db.num_lists(), m);
            prop_assert_eq!(db.num_items(), n);
            let k = (n / 2).max(1);
            let query = TopKQuery::top(k);
            let naive = NaiveScan.run(&db, &query).unwrap();
            for algorithm in AlgorithmKind::ALL {
                let result = algorithm.create().run(&db, &query).unwrap();
                prop_assert!(
                    result.scores_match(&naive, 1e-9),
                    "{:?} disagrees with naive on {:?} (m={}, n={}, seed={})",
                    algorithm, db_kind, m, n, seed
                );
            }
        }
    }

    /// The cost-based planner picks a correct algorithm on every
    /// `topk-datagen` family: whatever `plan_and_run` selects must return
    /// the same top-k answer set as the naive scan.
    #[test]
    fn planner_choice_agrees_with_naive_on_all_families(
        m in 1usize..=5,
        n in 10usize..=300,
        seed in 0u64..1000,
        alpha in 0.0f64..=0.2,
        k_fraction in 1usize..=4,
    ) {
        use bpa_topk::core::planner::{plan_and_run, Planner};
        use bpa_topk::datagen::{DatabaseKind, DatabaseSpec};
        for db_kind in [
            DatabaseKind::Uniform,
            DatabaseKind::Gaussian,
            DatabaseKind::Correlated { alpha },
        ] {
            let db = DatabaseSpec::new(db_kind, m, n).generate(seed);
            let k = (n * k_fraction / 4).max(1);
            let query = TopKQuery::top(k);
            let (plan, result) = plan_and_run(&db, &query).unwrap();
            prop_assert!(Planner::CANDIDATES.contains(&plan.choice()));
            prop_assert!(plan.estimated_ta_depth >= 1 && plan.estimated_ta_depth <= n);
            let naive = NaiveScan.run(&db, &query).unwrap();
            prop_assert!(
                result.scores_match(&naive, 1e-9),
                "planner chose {:?} which disagrees with naive on {:?} (m={}, n={}, k={}, seed={})",
                plan.choice(), db_kind, m, n, k, seed
            );
        }
    }
}
