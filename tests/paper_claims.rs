//! Integration tests for the paper's headline claims, exercised across the
//! whole workspace (generators → algorithms → cost model).
//!
//! The theorems and lemmas of Sections 4 and 5 are checked on the worked
//! example databases and on generated databases of every family.

use bpa_topk::core::examples_paper::{figure1_database, figure2_database};
use bpa_topk::datagen::{DatabaseKind, DatabaseSpec};
use bpa_topk::prelude::*;

/// Moderate sizes keep the whole suite fast in debug builds while still
/// exercising non-trivial stopping behaviour.
const N: usize = 3_000;
const SEEDS: [u64; 3] = [1, 7, 2007];

fn specs(m: usize) -> Vec<DatabaseSpec> {
    vec![
        DatabaseSpec::new(DatabaseKind::Uniform, m, N),
        DatabaseSpec::new(DatabaseKind::Gaussian, m, N),
        DatabaseSpec::new(DatabaseKind::Correlated { alpha: 0.01 }, m, N),
        DatabaseSpec::new(DatabaseKind::Correlated { alpha: 0.1 }, m, N),
    ]
}

#[test]
fn figure1_walkthrough_matches_the_paper() {
    let db = figure1_database();
    let query = TopKQuery::top(3);

    let fa = Fa.run(&db, &query).unwrap();
    let ta = Ta::literal().run(&db, &query).unwrap();
    let bpa = Bpa.run(&db, &query).unwrap();

    // Example 1: FA stops at position 8.
    assert_eq!(fa.stats().stop_position, Some(8));
    // Example 2: TA stops at position 6 with 18 sorted and 36 random accesses.
    assert_eq!(ta.stats().stop_position, Some(6));
    assert_eq!(ta.stats().accesses.sorted, 18);
    assert_eq!(ta.stats().accesses.random, 36);
    // Example 3: BPA stops at position 3 — (m-1) times lower than TA.
    assert_eq!(bpa.stats().stop_position, Some(3));
    assert_eq!(bpa.stats().accesses.sorted, 9);
    assert_eq!(bpa.stats().accesses.random, 18);

    // All find the same top-3 scores {71, 70, 70}.
    for result in [&fa, &ta, &bpa] {
        let scores: Vec<f64> = result.scores().iter().map(|s| s.value()).collect();
        assert_eq!(scores, vec![71.0, 70.0, 70.0]);
    }
}

#[test]
fn figure2_walkthrough_matches_the_paper() {
    let db = figure2_database();
    let query = TopKQuery::top(3);

    let bpa = Bpa.run(&db, &query).unwrap();
    let bpa2 = Bpa2::default().run(&db, &query).unwrap();

    // Theorem 8's example: BPA does 63 accesses, BPA2 does 36 (≈ 1/(m-1)).
    assert_eq!(bpa.stats().total_accesses(), 63);
    assert_eq!(bpa2.stats().total_accesses(), 36);
    assert!(bpa2.scores_match(&bpa, 1e-9));
}

/// Every algorithm returns the naive scan's scores. TA, BPA and BPA2 also
/// certify exactly the items they scored, each with the naive scan's
/// overall score to the bit. BPA's bounds (from its own seen-score rows)
/// and BPA2's (piggybacked by the sources) both follow one rule: in each
/// list, the score at the end of the longest prefix whose items were all
/// resolved — the best position, since both algorithms see exactly the
/// positions of the items they resolve.
#[test]
fn all_algorithms_agree_on_generated_databases() {
    for spec in specs(4) {
        for &seed in &SEEDS {
            let db = spec.generate(seed);
            for k in [1, 10, 50] {
                let query = TopKQuery::top(k);
                let naive = NaiveScan.run(&db, &query).unwrap();
                let overall = &naive.certificate().unwrap().resolved;
                assert_eq!(overall.len(), db.num_items());
                for kind in AlgorithmKind::ALL {
                    let result = kind.create().run(&db, &query).unwrap();
                    let case = format!("{kind:?} on {:?} seed {seed} k {k}", spec.kind);
                    assert!(
                        result.scores_match(&naive, 1e-9),
                        "{case} disagrees with the naive scan"
                    );
                    if !AlgorithmKind::EVALUATED.contains(&kind) {
                        continue;
                    }
                    let certificate = result.certificate().unwrap();
                    let resolved = certificate.resolved.len();
                    assert_eq!(resolved, result.stats().items_scored, "{case}");
                    let mut found = 0;
                    for (&item, &score) in overall {
                        if let Some(certified) = certificate.resolved_score(item) {
                            assert_eq!(certified.value().to_bits(), score.value().to_bits());
                            found += 1;
                        }
                    }
                    assert_eq!(found, resolved, "{case}");
                    if kind == AlgorithmKind::Ta {
                        continue;
                    }
                    let bounds = certificate.bounds.as_ref().unwrap();
                    for (i, list) in db.lists().enumerate() {
                        let prefix = list
                            .items()
                            .take_while(|&item| certificate.resolved_score(item).is_some())
                            .count();
                        let at_best = list.score_at(Position::from_index(prefix - 1)).unwrap();
                        assert_eq!(
                            bounds[i].value().to_bits(),
                            at_best.value().to_bits(),
                            "{case}, list {i}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn lemma_1_and_2_bpa_never_does_more_accesses_than_ta() {
    for spec in specs(5) {
        for &seed in &SEEDS {
            let db = spec.generate(seed);
            for k in [1, 20] {
                let query = TopKQuery::top(k);
                let ta = Ta::literal().run(&db, &query).unwrap();
                let bpa = Bpa.run(&db, &query).unwrap();
                assert!(
                    bpa.stats().accesses.sorted <= ta.stats().accesses.sorted,
                    "Lemma 1 violated on {:?} seed {seed} k {k}",
                    spec.kind
                );
                assert!(
                    bpa.stats().accesses.random <= ta.stats().accesses.random,
                    "Lemma 2 violated on {:?} seed {seed} k {k}",
                    spec.kind
                );
            }
        }
    }
}

#[test]
fn theorem_2_bpa_execution_cost_never_exceeds_ta() {
    let model = CostModel::paper_default(N);
    for spec in specs(6) {
        let db = spec.generate(11);
        let query = TopKQuery::top(20);
        let ta = Ta::literal().run(&db, &query).unwrap();
        let bpa = Bpa.run(&db, &query).unwrap();
        assert!(bpa.stats().execution_cost(&model) <= ta.stats().execution_cost(&model));
    }
}

#[test]
fn theorem_7_bpa2_never_does_more_accesses_than_bpa() {
    for spec in specs(5) {
        for &seed in &SEEDS {
            let db = spec.generate(seed);
            let query = TopKQuery::top(20);
            let bpa = Bpa.run(&db, &query).unwrap();
            let bpa2 = Bpa2::default().run(&db, &query).unwrap();
            assert!(
                bpa2.stats().total_accesses() <= bpa.stats().total_accesses(),
                "Theorem 7 violated on {:?} seed {seed}",
                spec.kind
            );
        }
    }
}

#[test]
fn theorem_5_bpa2_accesses_each_list_at_most_n_times() {
    for spec in specs(4) {
        let db = spec.generate(3);
        let result = Bpa2::default().run(&db, &TopKQuery::top(20)).unwrap();
        for (i, per_list) in result.stats().per_list.iter().enumerate() {
            assert!(
                per_list.total() <= N as u64,
                "list {i} of {:?} accessed {} times for n = {N}",
                spec.kind,
                per_list.total()
            );
        }
    }
}

#[test]
fn ta_stops_no_later_than_fa_on_every_family() {
    for spec in specs(3) {
        let db = spec.generate(5);
        let query = TopKQuery::top(10);
        let fa = Fa.run(&db, &query).unwrap();
        let ta = Ta::literal().run(&db, &query).unwrap();
        assert!(ta.stats().stop_position.unwrap() <= fa.stats().stop_position.unwrap());
    }
}

#[test]
fn correlated_databases_are_much_cheaper_than_uniform_ones() {
    // Section 6.2.1: "Over these [correlated] databases, the performance of
    // the three algorithms is much better than that over Gaussian and
    // uniform databases." (The finer-grained dependence on alpha is
    // discussed in EXPERIMENTS.md: with rank-identical Zipf scores the
    // scan depth is bounded by the head of the score distribution, so all
    // alphas behave similarly in this reproduction.)
    let model = CostModel::paper_default(N);
    let query = TopKQuery::top(20);
    let cost_of = |kind: DatabaseKind| {
        let db = DatabaseSpec::new(kind, 8, N).generate(17);
        Ta::literal()
            .run(&db, &query)
            .unwrap()
            .stats()
            .execution_cost(&model)
    };
    let uniform = cost_of(DatabaseKind::Uniform);
    for alpha in [0.001, 0.01, 0.1] {
        let correlated = cost_of(DatabaseKind::Correlated { alpha });
        assert!(
            correlated * 5.0 < uniform,
            "correlated (alpha = {alpha}) cost {correlated} should be far below uniform {uniform}"
        );
    }
}

#[test]
fn headline_gain_factors_have_the_right_shape_on_uniform_data() {
    // Section 6.2 reports gains over TA that grow with m. This test checks
    // the qualitative shape that our faithful reimplementation reproduces
    // (see EXPERIMENTS.md for the full discussion): BPA never costs more
    // than TA, BPA2 always does fewer accesses than both, and BPA2's
    // access-count advantage over TA grows with the number of lists m.
    let model = CostModel::paper_default(N);
    let query = TopKQuery::top(20);
    let mut last_bpa2_access_gain = 0.0;
    for m in [4usize, 8, 12] {
        let db = DatabaseSpec::new(DatabaseKind::Uniform, m, N).generate(23);
        let run = |kind: AlgorithmKind| kind.create().run(&db, &query).unwrap();
        let ta = run(AlgorithmKind::Ta);
        let bpa = run(AlgorithmKind::Bpa);
        let bpa2 = run(AlgorithmKind::Bpa2);

        assert!(
            bpa.stats().execution_cost(&model) <= ta.stats().execution_cost(&model),
            "BPA must not cost more than TA (m = {m})"
        );
        assert!(
            bpa2.stats().total_accesses() <= bpa.stats().total_accesses(),
            "BPA2 must not do more accesses than BPA (m = {m})"
        );

        let access_gain = ta.stats().total_accesses() as f64 / bpa2.stats().total_accesses() as f64;
        assert!(
            access_gain > last_bpa2_access_gain,
            "BPA2's access advantage over TA should grow with m (m = {m}, gain {access_gain})"
        );
        last_bpa2_access_gain = access_gain;
    }
    assert!(
        last_bpa2_access_gain > 2.0,
        "BPA2 should do well under half of TA's accesses at m = 12 (got {last_bpa2_access_gain})"
    );
}
