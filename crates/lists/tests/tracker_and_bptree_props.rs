//! Property-test hardening for the two data structures behind
//! best-position tracking: the [`BPlusTree`] (§5.2.2) and the bulk
//! `mark_range_seen` fast path of the bit-array tracker (§5.2.1).
//!
//! Both are checked against trivially-correct references — `BTreeSet`
//! for the tree, per-position marking for the bulk path — over randomly
//! generated operation sequences. The vendored proptest stand-in shrinks
//! failing cases (truncating operation lists, decrementing scalars), so
//! a regression here reports a near-minimal witness.

use std::collections::BTreeSet;

use proptest::prelude::*;
use topk_lists::bptree::BPlusTree;
use topk_lists::tracker::{BPlusTreeTracker, BitArrayTracker, NaiveSetTracker, PositionTracker};
use topk_lists::Position;

fn position(value: usize) -> Position {
    Position::new(value).expect("positions in tests are >= 1")
}

/// Applies the same ranges to a bulk tracker and a mark-one-at-a-time
/// tracker of the same type and asserts the full observable state —
/// best position, seen count and every per-position bit — is identical.
fn check_ranges_against_reference<T: PositionTracker>(n: usize, ranges: &[(usize, usize)]) {
    let kind = std::any::type_name::<T>();
    let mut bulk = T::new(n);
    let mut one_by_one = T::new(n);
    for &(from, to) in ranges {
        bulk.mark_range_seen(position(from), position(to));
        for p in from..=to.min(n) {
            one_by_one.mark_seen(position(p));
        }
        assert_eq!(
            bulk.best_position(),
            one_by_one.best_position(),
            "{kind} n={n} after [{from}, {to}]"
        );
        assert_eq!(bulk.seen_count(), one_by_one.seen_count(), "{kind} n={n}");
        assert_eq!(bulk.first_unseen(), one_by_one.first_unseen(), "{kind}");
    }
    for p in 1..=n {
        assert_eq!(
            bulk.is_seen(position(p)),
            one_by_one.is_seen(position(p)),
            "{kind} n={n} at {p}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The B+tree agrees with `BTreeSet` on every observable operation,
    /// for every branching order, after any insertion sequence.
    #[test]
    fn bptree_matches_btreeset(
        (order, keys) in (3usize..=8).prop_flat_map(|order| {
            (order..=order, proptest::collection::vec(0u64..300, 0..=80))
        })
    ) {
        let mut tree = BPlusTree::with_order(order);
        let mut reference = BTreeSet::new();
        for key in &keys {
            prop_assert_eq!(tree.insert(*key), reference.insert(*key));
            prop_assert!(tree.contains(*key));
            prop_assert_eq!(tree.len(), reference.len());
        }
        tree.check_invariants().expect("structural invariants hold");
        prop_assert_eq!(tree.order(), order);
        prop_assert_eq!(tree.is_empty(), reference.is_empty());
        prop_assert_eq!(tree.min(), reference.iter().next().copied());
        prop_assert_eq!(tree.max(), reference.iter().next_back().copied());
        let ascending: Vec<u64> = tree.iter().collect();
        let expected: Vec<u64> = reference.iter().copied().collect();
        prop_assert_eq!(ascending, expected);
        // Successor queries at, between and beyond stored keys.
        for probe in [0u64, 1, 149, 150, 151, 299, 300, u64::MAX] {
            let expected = reference.range(probe..).next().copied();
            prop_assert_eq!(tree.successor(probe), expected, "successor({})", probe);
        }
    }

    /// Cursors started at any key walk exactly the `BTreeSet` suffix
    /// from that key, and `key_at`/`advance` agree along the way.
    #[test]
    fn bptree_cursors_walk_the_suffix(
        keys in proptest::collection::vec(0u64..200, 0..=60),
        start in 0u64..=200,
    ) {
        let mut tree = BPlusTree::new();
        let mut reference = BTreeSet::new();
        for key in &keys {
            tree.insert(*key);
            reference.insert(*key);
        }
        let mut cursor = tree.cursor_at(start);
        let mut walked = Vec::new();
        if let Some(first) = tree.key_at(cursor) {
            walked.push(first);
            while let Some(next) = tree.advance(&mut cursor) {
                walked.push(next);
            }
        }
        let expected: Vec<u64> = reference.range(start..).copied().collect();
        prop_assert_eq!(walked, expected);
    }

    /// The word-wise bulk range marking of every tracker kind is
    /// observationally identical to marking each position individually,
    /// including empty (`from > to`) ranges.
    #[test]
    fn range_marking_matches_individual_marking(
        (n, ranges) in (1usize..=200).prop_flat_map(|n| {
            (
                n..=n,
                proptest::collection::vec((1usize..=n, 1usize..=n), 0..=10),
            )
        })
    ) {
        check_ranges_against_reference::<BitArrayTracker>(n, &ranges);
        check_ranges_against_reference::<BPlusTreeTracker>(n, &ranges);
        check_ranges_against_reference::<NaiveSetTracker>(n, &ranges);
    }
}

/// Deterministic edge cases the random sweep may not pin every run:
/// ranges whose ends sit exactly on 64-bit word boundaries of the
/// bit-array's packed representation.
#[test]
fn word_boundary_range_ends_are_exact() {
    let boundary_ranges = [
        (1, 64),    // fills word 0 exactly
        (64, 64),   // single position at the top of word 0
        (65, 65),   // single position at the bottom of word 1
        (65, 128),  // fills word 1 exactly
        (64, 65),   // straddles the boundary
        (1, 128),   // two full words in one mask loop
        (63, 66),   // crosses with partial words on both sides
        (128, 128), // end of the list, top of word 1
    ];
    check_word_boundaries::<BitArrayTracker>(&boundary_ranges);
    check_word_boundaries::<BPlusTreeTracker>(&boundary_ranges);
    check_word_boundaries::<NaiveSetTracker>(&boundary_ranges);
}

fn check_word_boundaries<T: PositionTracker>(boundary_ranges: &[(usize, usize)]) {
    check_ranges_against_reference::<T>(128, boundary_ranges);
    // And each range alone, against a fresh tracker.
    for &(from, to) in boundary_ranges {
        check_ranges_against_reference::<T>(128, &[(from, to)]);
    }
}

/// A single-entry list: the smallest legal tracker, where every range is
/// either empty or the whole list.
#[test]
fn single_entry_lists_track_correctly() {
    check_single_entry::<BitArrayTracker>();
    check_single_entry::<BPlusTreeTracker>();
    check_single_entry::<NaiveSetTracker>();
}

fn check_single_entry<T: PositionTracker>() {
    let kind = std::any::type_name::<T>();
    let mut tracker = T::new(1);
    tracker.mark_range_seen(position(1), position(1));
    assert_eq!(tracker.best_position(), Some(position(1)), "{kind}");
    assert_eq!(tracker.seen_count(), 1, "{kind}");
    assert_eq!(tracker.first_unseen(), position(2), "{kind}");
    check_ranges_against_reference::<T>(1, &[(1, 1), (1, 1)]);
}

/// Empty ranges (`from > to`) are no-ops in any state, including when
/// the reversed bounds straddle a word boundary.
#[test]
fn empty_ranges_are_no_ops_in_any_state() {
    check_empty_ranges::<BitArrayTracker>();
    check_empty_ranges::<BPlusTreeTracker>();
    check_empty_ranges::<NaiveSetTracker>();
}

fn check_empty_ranges<T: PositionTracker>() {
    let kind = std::any::type_name::<T>();
    let mut tracker = T::new(130);
    tracker.mark_range_seen(position(10), position(9));
    assert_eq!(tracker.seen_count(), 0, "{kind}: empty range on empty");
    tracker.mark_range_seen(position(1), position(70));
    let best = tracker.best_position();
    let seen = tracker.seen_count();
    tracker.mark_range_seen(position(65), position(64)); // reversed, on the boundary
    tracker.mark_range_seen(position(130), position(1)); // reversed, whole list
    assert_eq!(tracker.best_position(), best, "{kind}");
    assert_eq!(tracker.seen_count(), seen, "{kind}");
}
