//! Bit-array best-position tracking (Section 5.2.1).

use crate::item::Position;
use crate::tracker::PositionTracker;

/// Tracks seen positions in an array of `n` bits plus a moving best-position
/// pointer, exactly as in Section 5.2.1 of the paper:
///
/// ```text
/// B[j] := 1;
/// while (bp < n) and (B[bp + 1] = 1) do bp := bp + 1;
/// ```
///
/// The total advance work over a whole query is O(n); the space is `n` bits
/// plus one word.
#[derive(Debug, Clone)]
pub struct BitArrayTracker {
    /// Packed bits; bit `p - 1` corresponds to position `p`.
    words: Vec<u64>,
    /// List size `n`.
    n: usize,
    /// Current best position (0 = none).
    bp: usize,
    /// Number of distinct positions marked.
    seen: usize,
}

impl BitArrayTracker {
    #[inline]
    fn bit(&self, position_value: usize) -> bool {
        let idx = position_value - 1;
        (self.words[idx / 64] >> (idx % 64)) & 1 == 1
    }

    #[inline]
    fn set_bit(&mut self, position_value: usize) -> bool {
        let idx = position_value - 1;
        let word = &mut self.words[idx / 64];
        let mask = 1u64 << (idx % 64);
        let newly = *word & mask == 0;
        *word |= mask;
        newly
    }
}

impl PositionTracker for BitArrayTracker {
    fn new(n: usize) -> Self {
        BitArrayTracker {
            words: vec![0u64; n.div_ceil(64)],
            n,
            bp: 0,
            seen: 0,
        }
    }

    fn mark_seen(&mut self, position: Position) -> bool {
        let p = position.get();
        assert!(
            p <= self.n,
            "position {p} out of range for list of {} items",
            self.n
        );
        let newly = self.set_bit(p);
        if newly {
            self.seen += 1;
        }
        // Advance the best-position pointer over the newly contiguous prefix.
        while self.bp < self.n && self.bit(self.bp + 1) {
            self.bp += 1;
        }
        newly
    }

    fn mark_range_seen(&mut self, from: Position, to: Position) {
        let (lo, hi) = (from.get(), to.get());
        if lo > hi {
            return;
        }
        assert!(
            hi <= self.n,
            "position {hi} out of range for list of {} items",
            self.n
        );
        // Bulk word-wise marking: one OR per 64 positions instead of one
        // call per position, and a single best-position advance at the end.
        let (first_bit, last_bit) = (lo - 1, hi - 1);
        for word_idx in first_bit / 64..=last_bit / 64 {
            let bit_lo = first_bit.max(word_idx * 64) % 64;
            let bit_hi = last_bit.min(word_idx * 64 + 63) % 64;
            let width = bit_hi - bit_lo + 1;
            let mask = if width == 64 {
                u64::MAX
            } else {
                ((1u64 << width) - 1) << bit_lo
            };
            let word = &mut self.words[word_idx];
            self.seen += (mask & !*word).count_ones() as usize;
            *word |= mask;
        }
        while self.bp < self.n && self.bit(self.bp + 1) {
            self.bp += 1;
        }
    }

    fn best_position(&self) -> Option<Position> {
        Position::new(self.bp)
    }

    fn is_seen(&self, position: Position) -> bool {
        let p = position.get();
        p <= self.n && self.bit(p)
    }

    fn seen_count(&self) -> usize {
        self.seen
    }

    fn capacity(&self) -> usize {
        self.n
    }

    fn clear_resize(&mut self, capacity: usize) {
        self.words.clear();
        self.words.resize(capacity.div_ceil(64), 0);
        self.n = capacity;
        self.bp = 0;
        self.seen = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty() {
        let t = BitArrayTracker::new(100);
        assert_eq!(t.best_position(), None);
        assert_eq!(t.seen_count(), 0);
        assert_eq!(t.capacity(), 100);
        assert!(!t.is_seen(Position::new(1).unwrap()));
    }

    #[test]
    fn contiguous_prefix_advances_bp() {
        let mut t = BitArrayTracker::new(8);
        for p in 1..=8 {
            t.mark_seen(Position::new(p).unwrap());
            assert_eq!(t.best_position(), Position::new(p));
        }
    }

    #[test]
    fn gap_blocks_bp_until_filled() {
        let mut t = BitArrayTracker::new(8);
        t.mark_seen(Position::new(1).unwrap());
        t.mark_seen(Position::new(2).unwrap());
        t.mark_seen(Position::new(5).unwrap());
        t.mark_seen(Position::new(6).unwrap());
        assert_eq!(t.best_position(), Position::new(2));
        t.mark_seen(Position::new(4).unwrap());
        assert_eq!(t.best_position(), Position::new(2));
        t.mark_seen(Position::new(3).unwrap());
        // Filling the single gap lets bp jump over all contiguous positions.
        assert_eq!(t.best_position(), Position::new(6));
    }

    #[test]
    fn word_boundaries_are_handled() {
        // Positions 63, 64, 65 straddle the first/second u64 word.
        let mut t = BitArrayTracker::new(130);
        for p in 1..=130 {
            assert!(t.mark_seen(Position::new(p).unwrap()));
        }
        assert_eq!(t.best_position(), Position::new(130));
        assert_eq!(t.seen_count(), 130);
    }

    #[test]
    fn repeated_marking_is_idempotent() {
        let mut t = BitArrayTracker::new(4);
        assert!(t.mark_seen(Position::new(2).unwrap()));
        assert!(!t.mark_seen(Position::new(2).unwrap()));
        assert_eq!(t.seen_count(), 1);
    }

    #[test]
    fn is_seen_out_of_range_is_false() {
        let t = BitArrayTracker::new(4);
        assert!(!t.is_seen(Position::new(9).unwrap()));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn marking_out_of_range_panics() {
        let mut t = BitArrayTracker::new(4);
        t.mark_seen(Position::new(5).unwrap());
    }
}
