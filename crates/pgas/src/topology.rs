//! Virtual machine topology: ranks and their grouping into nodes.
//!
//! The paper's Edison nodes hold 24 cores; whether a remote hash-table
//! access is *on-node* (shared memory, cheap) or *off-node* (Aries network,
//! expensive) is what Tables 1–2 measure. Ranks are laid out blocked, like
//! an SPMD launcher would: ranks `[0, rpn)` on node 0, `[rpn, 2·rpn)` on
//! node 1, and so on.

/// Ranks-per-node on NERSC Edison (two 12-core Ivy Bridge sockets).
pub const EDISON_RANKS_PER_NODE: usize = 24;

/// The shape of the simulated machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Topology {
    ranks: usize,
    ranks_per_node: usize,
}

impl Topology {
    /// A topology with `ranks` virtual ranks, `ranks_per_node` per node.
    ///
    /// # Panics
    /// Panics if either argument is zero.
    pub fn new(ranks: usize, ranks_per_node: usize) -> Self {
        assert!(ranks > 0, "need at least one rank");
        assert!(ranks_per_node > 0, "need at least one rank per node");
        Topology {
            ranks,
            ranks_per_node,
        }
    }

    /// An Edison-like topology (24 ranks per node).
    pub fn edison(ranks: usize) -> Self {
        Self::new(ranks, EDISON_RANKS_PER_NODE)
    }

    /// A single-node topology (everything is at worst on-node).
    pub fn single_node(ranks: usize) -> Self {
        Self::new(ranks, ranks)
    }

    /// Total virtual ranks.
    #[inline]
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Ranks per node.
    #[inline]
    pub fn ranks_per_node(&self) -> usize {
        self.ranks_per_node
    }

    /// Number of nodes (last node may be partially filled).
    #[inline]
    pub fn nodes(&self) -> usize {
        self.ranks.div_ceil(self.ranks_per_node)
    }

    /// The node hosting `rank`.
    #[inline]
    pub fn node_of(&self, rank: usize) -> usize {
        debug_assert!(rank < self.ranks);
        rank / self.ranks_per_node
    }

    /// Whether two ranks share a node.
    #[inline]
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// Split `n` items into this topology's per-rank contiguous chunks:
    /// returns the half-open range of items owned by `rank`.
    ///
    /// Items are distributed as evenly as possible (first `n % ranks` ranks
    /// get one extra).
    ///
    /// # Panics
    /// Panics if `rank >= self.ranks()` — a real `assert!`, not a debug
    /// one: in release builds an out-of-range rank would otherwise return a
    /// bogus range past `n`, and callers hold the result for a whole stage,
    /// so the check is never on a hot path.
    pub fn chunk(&self, n: usize, rank: usize) -> std::ops::Range<usize> {
        assert!(
            rank < self.ranks,
            "chunk rank {rank} out of range (ranks={})",
            self.ranks
        );
        let base = n / self.ranks;
        let extra = n % self.ranks;
        let start = rank * base + rank.min(extra);
        let len = base + usize::from(rank < extra);
        start..start + len
    }

    /// Split items of varying cost into this topology's per-rank contiguous
    /// chunks: returns the half-open range of items owned by `rank`, given
    /// `prefix`, the prefix sum of the items' costs (`prefix[0] == 0` and
    /// `prefix[i + 1] - prefix[i]` is item `i`'s cost; see
    /// [`prefix_sums`]).
    ///
    /// Rank `r` takes the items whose cumulative cost, counted to the
    /// item's end, lies in `(total · r / ranks, total · (r + 1) / ranks]`,
    /// so a block costs at most `total / ranks` plus the cost of its first
    /// item. The blocks depend only on `prefix` and the rank count, and
    /// concatenated in rank order they are the items in order. With no
    /// cost at all the items are dealt by count, as [`chunk`](Self::chunk)
    /// deals them.
    ///
    /// # Panics
    /// Panics if `rank >= self.ranks()` or `prefix` is empty.
    pub fn cost_chunk(&self, prefix: &[u64], rank: usize) -> std::ops::Range<usize> {
        let n = prefix
            .len()
            .checked_sub(1)
            .expect("a prefix sum starts at 0");
        let total = prefix[n];
        if total == 0 {
            return self.chunk(n, rank);
        }
        assert!(
            rank < self.ranks,
            "chunk rank {rank} out of range (ranks={})",
            self.ranks
        );
        // Items whose end is at most total · r / ranks, compared exactly.
        let cut = |r: usize| -> usize {
            let bound = total as u128 * r as u128;
            (prefix[1..]).partition_point(|&end| end as u128 * self.ranks as u128 <= bound)
        };
        let start = if rank == 0 { 0 } else { cut(rank) };
        let end = if rank + 1 == self.ranks {
            n
        } else {
            cut(rank + 1)
        };
        start..end
    }
}

/// The prefix sum of `costs`, the input of [`Topology::cost_chunk`]: one
/// more element than `costs`, starting at 0.
pub fn prefix_sums(costs: impl IntoIterator<Item = u64>) -> Vec<u64> {
    let mut total = 0;
    std::iter::once(0)
        .chain(costs.into_iter().map(|c| {
            total += c;
            total
        }))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_mapping_blocked() {
        let t = Topology::new(48, 24);
        assert_eq!(t.nodes(), 2);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(23), 0);
        assert_eq!(t.node_of(24), 1);
        assert!(t.same_node(0, 23));
        assert!(!t.same_node(23, 24));
    }

    #[test]
    fn partial_last_node() {
        let t = Topology::new(50, 24);
        assert_eq!(t.nodes(), 3);
        assert_eq!(t.node_of(49), 2);
    }

    #[test]
    fn single_node_never_off_node() {
        let t = Topology::single_node(16);
        for a in 0..16 {
            for b in 0..16 {
                assert!(t.same_node(a, b));
            }
        }
    }

    #[test]
    fn chunks_partition_exactly() {
        for (n, p) in [(100, 7), (5, 8), (0, 3), (24, 24), (1000, 1)] {
            let t = Topology::new(p, 4);
            let mut covered = 0;
            for r in 0..p {
                let c = t.chunk(n, r);
                assert_eq!(c.start, covered, "n={n} p={p} r={r}");
                covered = c.end;
            }
            assert_eq!(covered, n);
        }
    }

    #[test]
    fn chunks_are_balanced() {
        let t = Topology::new(7, 4);
        let sizes: Vec<usize> = (0..7).map(|r| t.chunk(100, r).len()).collect();
        let max = sizes.iter().max().unwrap();
        let min = sizes.iter().min().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn cost_chunks_tile_and_balance() {
        let costs: Vec<u64> = (0..200u64)
            .map(|i| (i * 7919) % 97 + (i % 13 == 0) as u64 * 900)
            .collect();
        let prefix = prefix_sums(costs.iter().copied());
        let total = prefix[costs.len()];
        for p in [1, 2, 3, 7, 16, 64, 300] {
            let t = Topology::new(p, 4);
            let mut covered = 0;
            for r in 0..p {
                let c = t.cost_chunk(&prefix, r);
                assert_eq!(c.start, covered, "p={p} r={r}");
                covered = c.end;
                let cost = prefix[c.end] - prefix[c.start];
                let first = costs.get(c.start).copied().unwrap_or(0);
                assert!(
                    cost <= total / p as u64 + 1 + first,
                    "p={p} r={r} cost={cost}"
                );
            }
            assert_eq!(covered, costs.len());
        }
    }

    #[test]
    fn costless_items_are_dealt_by_count() {
        let t = Topology::new(3, 4);
        let prefix = prefix_sums([0; 10]);
        for r in 0..3 {
            assert_eq!(t.cost_chunk(&prefix, r), t.chunk(10, r));
        }
        assert_eq!(t.cost_chunk(&[0], 2), 0..0);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        Topology::new(0, 24);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn chunk_rejects_out_of_range_rank() {
        // Must panic in release builds too, not just under debug_assert:
        // a silent bogus range past `n` would make the caller index out of
        // bounds (or worse, skip items) a whole stage later.
        Topology::new(4, 4).chunk(100, 4);
    }
}
