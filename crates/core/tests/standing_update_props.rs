//! Interleaved updates and queries versus rebuild-from-scratch.
//!
//! Batches are fed to `StandingQuery::ingest` in **epoch order** with no
//! gaps (epoch continuity): the generators below advance the epoch by
//! exactly one per applied batch, which is what makes the incremental
//! maintenance comparable to the rebuilt reference.
//!
//! The refactor that made every layer updatable is only correct if a
//! mutated-in-place structure is *indistinguishable* from one rebuilt
//! from scratch over the same logical contents. This property test
//! interleaves random mutations (score updates, inserts, deletes) with
//! queries and checks, at every query point and across all three datagen
//! families:
//!
//! * all seven algorithms on the live in-memory database return the
//!   answer a `NaiveScan` computes on a freshly rebuilt database;
//! * a [`StandingQuery`] fed the mutation events serves answers that are
//!   **bit-identical** to the rebuilt truth — whether it absorbed the
//!   updates or refreshed.

use proptest::prelude::*;
use topk_core::standing::{StandingQuery, UpdateEvent};
use topk_core::{AlgorithmKind, DatabaseStats, NaiveScan, TopKAlgorithm, TopKQuery};
use topk_datagen::{DatabaseKind, DatabaseSpec};
use topk_lists::{Database, ItemId, Score, Sources};

/// A database with the same logical contents, built from scratch — the
/// ground truth any incrementally-maintained structure must match.
fn rebuild(db: &Database) -> Database {
    Database::from_unsorted_lists(
        db.lists()
            .map(|list| {
                list.iter()
                    .map(|entry| (entry.item.0, entry.score.value()))
                    .collect()
            })
            .collect(),
    )
    .expect("the live database is non-empty and NaN-free")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn interleaved_updates_and_queries_match_rebuild_from_scratch(
        family in 0usize..3,
        seed in 0u64..1_000,
        m in 2usize..=3,
        n in 8usize..=16,
        ops in proptest::collection::vec(
            (0u32..4, 0usize..64, 0usize..8, 0.0f64..100.0),
            4..=10,
        ),
    ) {
        let kind = match family {
            0 => DatabaseKind::Uniform,
            1 => DatabaseKind::Gaussian,
            _ => DatabaseKind::Correlated { alpha: 0.3 },
        };
        let mut db = DatabaseSpec::new(kind, m, n).generate(seed);
        let k = 3usize;
        let query = TopKQuery::top(k);
        let mut standing = StandingQuery::new(query.clone());
        let mut next_item = 1_000_000u64;

        for (op, item_sel, list_sel, raw_score) in ops {
            // One mutation, applied to the live database and announced to
            // the standing query.
            let list = list_sel % m;
            match op {
                // Score updates twice as often as the structural ops.
                0 | 3 => {
                    let items: Vec<ItemId> = db.items().collect();
                    let item = items[item_sel % items.len()];
                    let update = db.update_score(list, item, raw_score).unwrap();
                    standing.ingest(&UpdateEvent::Score { list, update });
                }
                1 => {
                    let item = ItemId(next_item);
                    next_item += 1;
                    let scores: Vec<f64> =
                        (0..m).map(|j| raw_score + j as f64).collect();
                    db.insert_item(item, &scores).unwrap();
                    standing.ingest(&UpdateEvent::Insert {
                        item,
                        scores: scores.iter().map(|&s| Score::from_f64(s)).collect(),
                        epochs: db.epochs(),
                    });
                }
                _ => {
                    if db.num_items() > k + 1 {
                        let items: Vec<ItemId> = db.items().collect();
                        let item = items[item_sel % items.len()];
                        db.delete_item(item).unwrap();
                        standing.ingest(&UpdateEvent::Delete {
                            item,
                            epochs: db.epochs(),
                        });
                    }
                }
            }

            // Query point: the truth is a naive scan over a database
            // rebuilt from scratch from the current logical contents.
            let fresh = rebuild(&db);
            let truth = NaiveScan.run(&fresh, &query).unwrap();

            for algorithm in AlgorithmKind::ALL {
                let live = algorithm.create().run(&db, &query).unwrap();
                prop_assert_eq!(
                    live.item_ids(),
                    truth.item_ids(),
                    "{algorithm:?} on the live in-memory database"
                );
                prop_assert!(live.scores_match(&truth, 1e-9), "{algorithm:?} scores");
            }

            // The standing query — absorbed or refreshed — must serve the
            // rebuilt truth bit for bit.
            let stats = DatabaseStats::collect(&db);
            let served = standing.serve(&mut Sources::in_memory(&db), &stats).unwrap();
            prop_assert_eq!(served.item_ids(), truth.item_ids());
            prop_assert_eq!(served.scores(), truth.scores(), "bit-identical scores");
        }
    }
}
