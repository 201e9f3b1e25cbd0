//! Meraculous extension codes.
//!
//! During k-mer analysis every occurrence of a k-mer votes for the base that
//! *precedes* it (left extension) and the base that *follows* it (right
//! extension) in the read, provided those bases have sufficient quality.
//! After counting, each side collapses to one of three outcomes:
//!
//! * a unique high-quality base (`A`/`C`/`G`/`T`) — the k-mer can be walked
//!   through in that direction;
//! * a fork `F` — two or more high-quality candidates (repeat boundary or
//!   diploid bubble); contigs terminate here and the state feeds the bubble
//!   finder (§4.2 of the paper);
//! * no extension `X` — no candidate reached the vote threshold.
//!
//! A k-mer whose both sides are unique bases is a **UU k-mer**; only UU
//! k-mers become de Bruijn graph vertices (§2 of the paper).

use crate::base::decode_base;

/// Outcome of extension voting on one side of a k-mer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExtChoice {
    /// Unique high-quality extension with the given 2-bit base code.
    Unique(u8),
    /// Two or more high-quality candidate bases ("F" in Meraculous).
    Fork,
    /// No candidate reached the vote threshold ("X" in Meraculous).
    None,
}

impl ExtChoice {
    /// The Meraculous single-letter code for this outcome.
    pub fn code(self) -> u8 {
        match self {
            ExtChoice::Unique(c) => decode_base(c),
            ExtChoice::Fork => b'F',
            ExtChoice::None => b'X',
        }
    }

    /// Whether this side permits a unique walk.
    #[inline]
    pub fn is_unique(self) -> bool {
        matches!(self, ExtChoice::Unique(_))
    }

    /// The unique base code, if any.
    #[inline]
    pub fn unique_base(self) -> Option<u8> {
        match self {
            ExtChoice::Unique(c) => Some(c),
            _ => None,
        }
    }
}

/// The pair of per-side outcomes for a k-mer, in forward orientation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExtensionPair {
    /// Extension to the left (preceding base).
    pub left: ExtChoice,
    /// Extension to the right (following base).
    pub right: ExtChoice,
}

impl ExtensionPair {
    /// Whether the k-mer is UU: unique high-quality extension on both sides.
    #[inline]
    pub fn is_uu(&self) -> bool {
        self.left.is_unique() && self.right.is_unique()
    }

    /// The two-letter Meraculous code, e.g. `AG`, `FX`.
    pub fn code(&self) -> [u8; 2] {
        [self.left.code(), self.right.code()]
    }

    /// The pair as seen from the reverse-complement orientation: sides swap
    /// and unique bases complement.
    pub fn flip(&self) -> ExtensionPair {
        let comp = |c: ExtChoice| match c {
            ExtChoice::Unique(b) => ExtChoice::Unique(3 - b),
            other => other,
        };
        ExtensionPair {
            left: comp(self.right),
            right: comp(self.left),
        }
    }
}

/// One k-mer occurrence's vote in one byte: which base, if any, passed the
/// quality filter on each side, already oriented to the k-mer's canonical
/// form. Each side is a base code `0..=3` or "no vote", so there are 5 × 5
/// states — what the count pass ships per occurrence instead of a whole
/// [`ExtVotes`] tally holding a single vote.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExtCode(u8);

impl ExtCode {
    /// Packed wire bytes of one code.
    pub const WIRE_BYTES: u64 = 1;

    /// A side's "no vote" digit.
    const NO_VOTE: u8 = 4;

    /// Encode optional high-quality left/right base codes (`< 4`).
    #[inline]
    pub fn new(left: Option<u8>, right: Option<u8>) -> Self {
        debug_assert!(left.unwrap_or(0) < 4 && right.unwrap_or(0) < 4);
        ExtCode(left.unwrap_or(Self::NO_VOTE) * 5 + right.unwrap_or(Self::NO_VOTE))
    }

    /// The left base code that voted, if any.
    #[inline]
    pub fn left(self) -> Option<u8> {
        Some(self.0 / 5).filter(|&c| c != Self::NO_VOTE)
    }

    /// The right base code that voted, if any.
    #[inline]
    pub fn right(self) -> Option<u8> {
        Some(self.0 % 5).filter(|&c| c != Self::NO_VOTE)
    }
}

/// Per-side extension vote counters for one k-mer.
///
/// `left[c]` / `right[c]` count high-quality occurrences of base code `c`
/// immediately before / after the k-mer. Counts saturate instead of
/// wrapping: ultra-deep repeats (the paper's wheat k-mers occur >10⁷ times)
/// must not overflow the counters.
///
/// The eight votes are `u8`s, which is exact: [`decide`](Self::decide)
/// only asks whether a vote reached `min_votes: u8`, and a vote
/// saturated at 255 reaches every threshold its true count does. `count`
/// stays a `u32` — it is the k-mer's depth in the spectrum. The tally is
/// 12 bytes, so a `(Kmer, ExtVotes)` vote-table entry is 32.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExtVotes {
    /// Votes for each left-extension base code.
    pub left: [u8; 4],
    /// Votes for each right-extension base code.
    pub right: [u8; 4],
    /// Total occurrences of the k-mer (its depth / count).
    pub count: u32,
}

impl ExtVotes {
    /// Packed wire bytes of one tally: eight `u8` votes and the `u32`
    /// count, no padding — what a real sender serializes (the in-memory
    /// size of a *tuple* containing an `ExtVotes` can be larger once
    /// alignment padding to a neighboring field is counted).
    pub const WIRE_BYTES: u64 = 8 + 4;

    /// An empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one occurrence with optional high-quality left/right bases.
    #[inline]
    pub fn record(&mut self, left: Option<u8>, right: Option<u8>) {
        self.count = self.count.saturating_add(1);
        if let Some(c) = left {
            debug_assert!(c < 4);
            self.left[c as usize] = self.left[c as usize].saturating_add(1);
        }
        if let Some(c) = right {
            debug_assert!(c < 4);
            self.right[c as usize] = self.right[c as usize].saturating_add(1);
        }
    }

    /// Record one occurrence from its one-byte code; equal to
    /// `record(code.left(), code.right())`.
    #[inline]
    pub fn record_code(&mut self, code: ExtCode) {
        self.record(code.left(), code.right());
    }

    /// Merge another tally into this one (used by the heavy-hitter global
    /// reduction and by partial-count combining).
    pub fn merge(&mut self, other: &ExtVotes) {
        for i in 0..4 {
            self.left[i] = self.left[i].saturating_add(other.left[i]);
            self.right[i] = self.right[i].saturating_add(other.right[i]);
        }
        self.count = self.count.saturating_add(other.count);
    }

    /// The tally as seen from the reverse-complement orientation.
    pub fn flip(&self) -> ExtVotes {
        let mut out = ExtVotes {
            count: self.count,
            ..ExtVotes::default()
        };
        for c in 0..4 {
            // A left-extension base b in forward orientation is a
            // right-extension of complement(b) in RC orientation.
            out.right[3 - c] = self.left[c];
            out.left[3 - c] = self.right[c];
        }
        out
    }

    /// Collapse one side's votes given the minimum vote count for a base to
    /// be considered a high-quality candidate.
    fn decide_side(votes: &[u8; 4], min_votes: u8) -> ExtChoice {
        let mut candidates = 0;
        let mut winner = 0u8;
        for (c, &v) in votes.iter().enumerate() {
            if v >= min_votes {
                candidates += 1;
                winner = c as u8;
            }
        }
        match candidates {
            0 => ExtChoice::None,
            1 => ExtChoice::Unique(winner),
            _ => ExtChoice::Fork,
        }
    }

    /// Collapse both sides into an [`ExtensionPair`].
    pub fn decide(&self, min_votes: u8) -> ExtensionPair {
        ExtensionPair {
            left: Self::decide_side(&self.left, min_votes),
            right: Self::decide_side(&self.right, min_votes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_count() {
        let mut v = ExtVotes::new();
        v.record(Some(0), Some(3));
        v.record(Some(0), None);
        v.record(None, Some(3));
        assert_eq!(v.count, 3);
        assert_eq!(v.left[0], 2);
        assert_eq!(v.right[3], 2);
    }

    #[test]
    fn ext_code_round_trips_all_25_states_and_records_like_the_pair() {
        let sides = [None, Some(0u8), Some(1), Some(2), Some(3)];
        let mut seen: Vec<ExtCode> = Vec::new();
        let (mut by_code, mut by_pair) = (ExtVotes::new(), ExtVotes::new());
        for left in sides {
            for right in sides {
                let code = ExtCode::new(left, right);
                assert_eq!((code.left(), code.right()), (left, right));
                assert!(!seen.contains(&code), "{code:?} encodes two states");
                seen.push(code);
                // Accumulate, so a vote landing on the wrong counter shows
                // in the running tally as well as in a fresh one.
                by_code.record_code(code);
                by_pair.record(left, right);
                assert_eq!(by_code, by_pair);
                let mut one = ExtVotes::new();
                one.record_code(code);
                assert_eq!(one.count, 1);
                assert_eq!(one.left.iter().sum::<u8>(), u8::from(left.is_some()));
                assert_eq!(one.right.iter().sum::<u8>(), u8::from(right.is_some()));
            }
        }
        assert_eq!((seen.len(), by_code.count), (25, 25));
        assert_eq!((by_code.left, by_code.right), ([5; 4], [5; 4]));
        assert_eq!(std::mem::size_of::<ExtCode>() as u64, ExtCode::WIRE_BYTES);
    }

    #[test]
    fn decide_unique_both_sides() {
        let mut v = ExtVotes::new();
        for _ in 0..3 {
            v.record(Some(1), Some(2));
        }
        let pair = v.decide(2);
        assert_eq!(pair.left, ExtChoice::Unique(1));
        assert_eq!(pair.right, ExtChoice::Unique(2));
        assert!(pair.is_uu());
        assert_eq!(&pair.code(), b"CG");
    }

    #[test]
    fn decide_fork_when_two_candidates() {
        let mut v = ExtVotes::new();
        for _ in 0..2 {
            v.record(Some(0), Some(2));
            v.record(Some(3), Some(2));
        }
        let pair = v.decide(2);
        assert_eq!(pair.left, ExtChoice::Fork);
        assert_eq!(pair.right, ExtChoice::Unique(2));
        assert!(!pair.is_uu());
        assert_eq!(&pair.code(), b"FG");
    }

    #[test]
    fn decide_none_below_threshold() {
        let mut v = ExtVotes::new();
        v.record(Some(0), None);
        let pair = v.decide(2);
        assert_eq!(pair.left, ExtChoice::None);
        assert_eq!(pair.right, ExtChoice::None);
        assert_eq!(&pair.code(), b"XX");
    }

    #[test]
    fn merge_adds_votes() {
        let mut a = ExtVotes::new();
        a.record(Some(0), Some(1));
        let mut b = ExtVotes::new();
        b.record(Some(0), Some(2));
        a.merge(&b);
        assert_eq!(a.count, 2);
        assert_eq!(a.left[0], 2);
        assert_eq!(a.right[1], 1);
        assert_eq!(a.right[2], 1);
    }

    #[test]
    fn votes_saturate_at_u8_max_and_still_decide() {
        let mut a = ExtVotes {
            left: [u8::MAX, 0, 0, 0],
            right: [0, 0, 0, 250],
            count: u32::MAX,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(
            (a.left[0], a.right[3], a.count),
            (u8::MAX, u8::MAX, u32::MAX)
        );
        for _ in 0..10 {
            a.record(Some(0), Some(3));
        }
        assert_eq!((a.left[0], a.right[3]), (u8::MAX, u8::MAX));
        // A saturated vote still clears the highest threshold there is.
        assert_eq!(a.decide(u8::MAX).code(), *b"AT");
        assert_eq!(a.flip().left[0], u8::MAX);
    }

    #[test]
    fn layout_is_twelve_bytes_and_entries_are_32_and_24() {
        use crate::kmer::{Kmer, Kmer64};
        use std::mem::size_of;
        assert_eq!(size_of::<ExtVotes>() as u64, ExtVotes::WIRE_BYTES);
        assert_eq!(size_of::<ExtVotes>(), 12);
        assert_eq!(size_of::<(Kmer, ExtVotes)>(), 32);
        assert_eq!(size_of::<(Kmer64, ExtVotes)>(), 24);
    }

    #[test]
    fn flip_votes_swaps_and_complements() {
        let mut v = ExtVotes::new();
        v.record(Some(0), Some(1)); // left A, right C
        let f = v.flip();
        assert_eq!(f.right[3], 1); // left A -> right T
        assert_eq!(f.left[2], 1); // right C -> left G
        assert_eq!(f.flip(), v, "flip is an involution");
    }

    #[test]
    fn flip_pair_swaps_and_complements() {
        let pair = ExtensionPair {
            left: ExtChoice::Unique(0),
            right: ExtChoice::Fork,
        };
        let f = pair.flip();
        assert_eq!(f.left, ExtChoice::Fork);
        assert_eq!(f.right, ExtChoice::Unique(3));
        assert_eq!(f.flip(), pair);
    }

    #[test]
    fn ext_choice_codes() {
        assert_eq!(ExtChoice::Unique(2).code(), b'G');
        assert_eq!(ExtChoice::Fork.code(), b'F');
        assert_eq!(ExtChoice::None.code(), b'X');
        assert_eq!(ExtChoice::Unique(1).unique_base(), Some(1));
        assert_eq!(ExtChoice::Fork.unique_base(), None);
    }
}
