//! The one chain walker.
//!
//! The assembler walks chains three times — subcontigs into contigs after
//! the claim walks (§3.2), contigs into longer contigs after bubble merging
//! (§4.2's compressed contig graph), contigs into scaffolds along
//! reciprocal-best ties (§4.7). Every caller builds a table of validated
//! links between node sides and hands it to [`walk_chains`]; the walk, its
//! `used` vector and its cycle rule exist only here.

use hipmer_dna::revcomp;
use std::borrow::Cow;

/// One end of a contig, or one side of any chain node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ContigEnd {
    /// The `seq[0]` end.
    Left,
    /// The `seq[len-1]` end.
    Right,
}

impl ContigEnd {
    /// The opposite end.
    pub fn other(self) -> ContigEnd {
        match self {
            ContigEnd::Left => ContigEnd::Right,
            ContigEnd::Right => ContigEnd::Left,
        }
    }

    /// The end a chain member turns toward the chain's left: its left end,
    /// or its right end if it is read `reversed`.
    pub fn facing_left(reversed: bool) -> ContigEnd {
        if reversed {
            ContigEnd::Right
        } else {
            ContigEnd::Left
        }
    }
}

/// Partition the nodes `0..n` into chains along `link`.
///
/// `link(node, side)` names the `(neighbor, side)` joined to that side of
/// `node`, if any. **Contract:** `link` is symmetric — `link(a, s) ==
/// Some((b, t))` iff `link(b, t) == Some((a, s))` — so the links form
/// disjoint paths and cycles, and every node appears in exactly one chain
/// exactly once.
///
/// Seeds are taken in index order; from a seed the walk goes out of its
/// left side to the chain's terminus and the chain is emitted rightward
/// from there. A cycle is cut so that the chain ends at its seed. Each
/// member is `(node, reversed)`: `reversed` means the node's right side
/// faces the chain's left.
pub fn walk_chains(
    n: usize,
    link: impl Fn(usize, ContigEnd) -> Option<(usize, ContigEnd)>,
) -> Vec<Vec<(usize, bool)>> {
    let hop = |node: usize, side: ContigEnd| {
        let next = link(node, side);
        debug_assert!(
            next.is_none_or(|(m, t)| link(m, t) == Some((node, side))),
            "asymmetric link out of {node} {side:?}"
        );
        next
    };
    let mut used = vec![false; n];
    let mut chains = Vec::new();
    for seed in 0..n {
        if used[seed] {
            continue;
        }
        // `(node, side facing the chain's left)`; a path of n nodes has at
        // most n - 1 hops, so the bound only matters to a broken `link`.
        let mut cur = (seed, ContigEnd::Left);
        for _ in 1..n {
            match hop(cur.0, cur.1) {
                Some((prev, joined)) if prev != seed => cur = (prev, joined.other()),
                _ => break,
            }
        }
        let mut chain = Vec::new();
        loop {
            used[cur.0] = true;
            chain.push((cur.0, cur.1 == ContigEnd::Right));
            match hop(cur.0, cur.1.other()) {
                Some((next, joined)) if !used[next] => cur = (next, joined),
                _ => break,
            }
        }
        debug_assert!(used[seed], "seed {seed} missing from its own chain");
        chains.push(chain);
    }
    chains
}

/// `seq` as a chain member reads it: reverse-complemented if `reversed`.
pub fn oriented(seq: &[u8], reversed: bool) -> Cow<'_, [u8]> {
    if reversed {
        Cow::Owned(revcomp(seq))
    } else {
        Cow::Borrowed(seq)
    }
}

/// The `width` bases at `end` of `seq`, if it has that many.
fn tip(seq: &[u8], end: ContigEnd, width: usize) -> Option<&[u8]> {
    match end {
        ContigEnd::Left => seq.get(..width),
        ContigEnd::Right => seq.len().checked_sub(width).map(|from| &seq[from..]),
    }
}

/// Whether a walk leaving `a` through `a_end` and entering `b` through
/// `b_end` reads the same `width` bases on both sides of the join — the
/// condition under which [`stitch`] can place `b` after `a`. Only the tips
/// are oriented: a contig can be most of a genome.
pub fn ends_overlap(a: &[u8], a_end: ContigEnd, b: &[u8], b_end: ContigEnd, width: usize) -> bool {
    let (Some(a_tip), Some(b_tip)) = (tip(a, a_end, width), tip(b, b_end, width)) else {
        return false;
    };
    oriented(a_tip, a_end == ContigEnd::Left) == oriented(b_tip, b_end == ContigEnd::Right)
}

/// Concatenate a chain's sequences, each oriented as its member says and
/// overlapping its predecessor by `overlap` bases. The chain's links must
/// have passed [`ends_overlap`] at that width.
pub fn stitch<'a>(
    chain: &[(usize, bool)],
    seq_of: impl Fn(usize) -> &'a [u8],
    overlap: usize,
) -> Vec<u8> {
    let mut seq: Vec<u8> = Vec::new();
    for (i, &(node, reversed)) in chain.iter().enumerate() {
        let next = oriented(seq_of(node), reversed);
        let shared = if i == 0 { 0 } else { overlap };
        debug_assert_eq!(
            seq[seq.len() - shared..],
            next[..shared],
            "unvalidated join into node {node}"
        );
        seq.extend_from_slice(&next[shared..]);
    }
    seq
}

#[cfg(test)]
mod tests {
    use super::*;
    use ContigEnd::{Left, Right};

    type Slot = (usize, ContigEnd);

    /// A symmetric link table from a list of joins.
    fn table(n: usize, joins: &[(Slot, Slot)]) -> Vec<[Option<Slot>; 2]> {
        let mut t = vec![[None, None]; n];
        for &(a, b) in joins {
            t[a.0][a.1 as usize] = Some(b);
            t[b.0][b.1 as usize] = Some(a);
        }
        t
    }

    fn walk(n: usize, joins: &[(Slot, Slot)]) -> Vec<Vec<(usize, bool)>> {
        let t = table(n, joins);
        walk_chains(n, |i, s| t[i][s as usize])
    }

    #[test]
    fn path_is_emitted_from_its_left_terminus() {
        // 2.R-0.L, 0.R-1.L: seed 0 sits mid-chain.
        let chains = walk(4, &[((2, Right), (0, Left)), ((0, Right), (1, Left))]);
        assert_eq!(
            chains,
            vec![vec![(2, false), (0, false), (1, false)], vec![(3, false)]]
        );
    }

    #[test]
    fn same_side_links_flip_the_neighbor() {
        // 0.L-1.L: walking left out of 0 enters 1 by its left, so 1 is
        // read reversed and comes first.
        assert_eq!(
            walk(2, &[((0, Left), (1, Left))]),
            vec![vec![(1, true), (0, false)]]
        );
        assert_eq!(
            walk(2, &[((0, Right), (1, Right))]),
            vec![vec![(0, false), (1, true)]]
        );
    }

    #[test]
    fn cycle_is_cut_so_the_chain_ends_at_its_seed() {
        let chains = walk(
            3,
            &[
                ((0, Right), (1, Left)),
                ((1, Right), (2, Left)),
                ((2, Right), (0, Left)),
            ],
        );
        assert_eq!(chains, vec![vec![(1, false), (2, false), (0, false)]]);
        // One node linked to itself, either way round.
        assert_eq!(walk(1, &[((0, Right), (0, Left))]), vec![vec![(0, false)]]);
        assert_eq!(walk(1, &[((0, Left), (0, Left))]), vec![vec![(0, false)]]);
    }

    #[test]
    fn stitch_orients_and_overlaps() {
        let a = b"AACCGT".to_vec();
        let b = b"GGACGG".to_vec(); // revcomp = CCGTCC
        assert!(ends_overlap(&a, Right, &b, Right, 4));
        assert!(ends_overlap(&b, Right, &a, Right, 4));
        assert!(!ends_overlap(&a, Right, &b, Left, 4));
        assert!(!ends_overlap(&a, Right, &b, Right, 7));
        let seqs = [a, b];
        let out = stitch(&[(0, false), (1, true)], |i| &seqs[i], 4);
        assert_eq!(out, b"AACCGTCC");
    }
}
