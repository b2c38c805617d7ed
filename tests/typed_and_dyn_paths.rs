//! The typed in-memory path and the `dyn` path run the same algorithm.
//!
//! `TopKAlgorithm::run(&db, q)` instantiates TA, BPA and BPA2 at the typed
//! in-memory source set; `run_on` instantiates them at `dyn SourceSet`,
//! here over `Sources::in_memory` and over its tracing decorator. All
//! three must make the same accesses and return the same answers,
//! statistics and certificates, bit for bit, for every algorithm kind the
//! query supports.
//!
//! The databases come from the `topk-datagen` families at list sizes
//! around a 64-bit word (n ∈ {1, 2, 63, 64, 65, 257}), with three id
//! layouts: the generator's dense ids, sparse ids (`i << 32`), and dense
//! ids whose tail is replaced by `2n + 63`, `2n + 64` and one far id. The
//! answer buffer keeps ids below `dense_bound(n) = 2n + 64` in a bitset
//! and the rest in a hashed set, so the last layout hits the last bitset
//! id, the first hashed id and a far one in the same query.

use proptest::prelude::*;

use bpa_topk::datagen::{DatabaseKind, DatabaseSpec};
use bpa_topk::lists::dense_bound;
use bpa_topk::prelude::*;

const SIZES: [usize; 6] = [1, 2, 63, 64, 65, 257];

const FAMILIES: [DatabaseKind; 3] = [
    DatabaseKind::Uniform,
    DatabaseKind::Gaussian,
    DatabaseKind::Correlated { alpha: 0.01 },
];

/// How the generator's items are renamed.
#[derive(Debug, Clone, Copy)]
enum Ids {
    /// The generator's own ids.
    Dense,
    /// Item `i` becomes `i << 32`: every id is far.
    Sparse,
    /// Dense, but the last items (as many as fit) become `2n + 63`,
    /// `2n + 64` and `1 << 40`.
    DensePlusFar,
}

const ID_LAYOUTS: [Ids; 3] = [Ids::Dense, Ids::Sparse, Ids::DensePlusFar];

/// Generates a database and renames its items under `ids`.
fn database(family: DatabaseKind, m: usize, n: usize, ids: Ids, seed: u64) -> Database {
    let db = DatabaseSpec::new(family, m, n).generate(seed);
    let mut items: Vec<ItemId> = db.items().collect();
    items.sort_unstable();
    let bound = dense_bound(n);
    let tail = [bound - 1, bound, 1 << 40];
    let renamed: Vec<u64> = (0..n as u64)
        .map(|i| match ids {
            Ids::Dense => items[i as usize].0,
            Ids::Sparse => i << 32,
            Ids::DensePlusFar => {
                let from_end = n as u64 - i;
                if from_end <= 3 {
                    tail[3 - from_end as usize]
                } else {
                    i
                }
            }
        })
        .collect();
    let lists = db
        .lists()
        .map(|list| {
            list.iter()
                .map(|entry| {
                    let at = items
                        .binary_search(&entry.item)
                        .expect("item of the database");
                    (renamed[at], entry.score.value())
                })
                .collect()
        })
        .collect();
    Database::from_unsorted_lists(lists).expect("renaming keeps the database valid")
}

/// Everything a run reports except its wall time, with scores as bits.
#[derive(Debug, PartialEq)]
struct Observed {
    answers: Vec<(u64, u64)>,
    accesses: AccessCounters,
    per_list: Vec<AccessCounters>,
    stop_position: Option<usize>,
    rounds: u64,
    items_scored: usize,
    bounds: Option<Vec<u64>>,
    resolved: Option<Vec<(u64, u64)>>,
}

fn observe(result: &TopKResult) -> Observed {
    let stats = result.stats();
    let certificate = result.certificate();
    Observed {
        answers: result
            .items()
            .iter()
            .map(|r| (r.item.0, r.score.value().to_bits()))
            .collect(),
        accesses: stats.accesses,
        per_list: stats.per_list.clone(),
        stop_position: stats.stop_position,
        rounds: stats.rounds,
        items_scored: stats.items_scored,
        bounds: certificate.and_then(|c| {
            c.bounds
                .as_ref()
                .map(|b| b.iter().map(|s| s.value().to_bits()).collect())
        }),
        resolved: certificate.map(|c| {
            c.resolved
                .iter()
                .map(|(item, score)| (item.0, score.value().to_bits()))
                .collect()
        }),
    }
}

/// Runs every supported kind on the three paths and compares them.
fn check_paths(db: &Database, query: &TopKQuery, case: &str) {
    for kind in AlgorithmKind::ALL {
        if !kind.supports(query) {
            continue;
        }
        let algorithm = kind.create();
        let typed = observe(&algorithm.run(db, query).unwrap());

        let mut plain = Sources::in_memory(db);
        let dynamic = observe(&algorithm.run_on(&mut plain, query).unwrap());
        assert_eq!(
            plain.per_list_counters(),
            dynamic.per_list,
            "{kind:?} {case}"
        );
        assert_eq!(dynamic, typed, "{kind:?} {case}: dyn path");

        let mut traced = Sources::in_memory(db).traced();
        let through_trace = observe(&algorithm.run_on(&mut traced, query).unwrap());
        assert_eq!(
            traced.per_list_counters(),
            through_trace.per_list,
            "{kind:?} {case}"
        );
        assert_eq!(through_trace, typed, "{kind:?} {case}: traced dyn path");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `layout` picks the family, the size and the id layout.
    #[test]
    fn typed_and_dyn_paths_agree(
        (layout, m, seed, k_raw, min) in (
            0usize..54,
            1usize..=4,
            0u64..1_000,
            0usize..1_000,
            0usize..2,
        ),
    ) {
        let (family, size, ids) = (layout / 18, layout / 3 % 6, layout % 3);
        let min = min == 1;
        let n = SIZES[size];
        let db = database(FAMILIES[family], m, n, ID_LAYOUTS[ids], seed);
        let k = k_raw % n.min(20) + 1;
        let query = if min { TopKQuery::new(k, Min) } else { TopKQuery::top(k) };
        let case = format!(
            "{:?} m = {m} n = {n} {:?} seed {seed} k = {k} min = {min}",
            FAMILIES[family], ID_LAYOUTS[ids]
        );
        check_paths(&db, &query, &case);
    }
}

/// Every family, size and id layout at least once, deterministically.
#[test]
fn typed_and_dyn_paths_agree_on_every_layout() {
    for family in FAMILIES {
        for n in SIZES {
            for ids in ID_LAYOUTS {
                let db = database(family, 3, n, ids, 7);
                for k in [1, n.min(10)] {
                    let case = format!("{family:?} n = {n} {ids:?} k = {k}");
                    check_paths(&db, &TopKQuery::top(k), &case);
                }
            }
        }
    }
}

/// The renaming does what the module docs say: the boundary ids are in
/// the database, and every id but the tail stays dense.
#[test]
fn dense_plus_far_hits_both_sides_of_the_bound() {
    for n in SIZES {
        let db = database(DatabaseKind::Uniform, 2, n, Ids::DensePlusFar, 1);
        let ids: Vec<u64> = db.items().map(|item| item.0).collect();
        let bound = dense_bound(n);
        assert!(ids.contains(&(1 << 40)), "n = {n}");
        if n >= 2 {
            assert!(ids.contains(&bound), "n = {n}");
        }
        if n >= 3 {
            assert!(ids.contains(&(bound - 1)), "n = {n}");
        }
        assert_eq!(
            ids.iter().filter(|&&id| id < n as u64).count(),
            n.saturating_sub(3),
            "n = {n}"
        );
    }
}
