//! Dynamic work scheduling for skewed stages.
//!
//! Static `ctx.chunk(n)` partitioning assigns every rank the same *item
//! count*, but the paper's Fig. 6 stages are skewed in *work per item*:
//! one long contig, deep gap, or heavy-hitter-rich read pins the critical
//! rank while the rest idle. The follow-on HipMer papers (Georganas et al.
//! 2017, 2018) replace static decomposition with dynamic work distribution
//! for exactly these stages: a shared atomic counter from which ranks claim
//! chunks, with guided chunk-size decay so start-up chunks are large (few
//! counter round trips) and end-game chunks are small (bounded tail
//! imbalance).
//!
//! ## Determinism
//!
//! This runtime multiplexes virtual ranks over OS threads and may run them
//! one after another, so a *literal* shared counter would let the first
//! rank drain all the work. Instead the claim sequence itself is
//! simulated: chunks are carved off the front of the index space with
//! guided decay, then dealt to ranks by an earliest-finisher simulation —
//! each chunk goes to the rank with the least accumulated work (ties to
//! the lowest rank id), exactly the rank whose counter fetch-add would
//! have come back first on a real machine. The assignment is a pure
//! function of `(n, weights, topology)`, so every rank computes it
//! independently, results and counters are reproducible across OS-thread
//! schedules, and no cross-rank state is needed.
//!
//! ## Cost accounting
//!
//! Each claimed chunk is one modeled remote atomic fetch-add on the shared
//! counter, tallied in [`CommStats::steal_ops`] and priced by
//! [`CostModel::t_steal`]; every rank additionally pays one final
//! fetch-add that discovers the counter is exhausted. Dynamic scheduling
//! therefore buys balance with communication — the cost model makes that
//! trade visible rather than free.
//!
//! [`CommStats::steal_ops`]: crate::CommStats::steal_ops
//! [`CostModel::t_steal`]: crate::CostModel::t_steal

use crate::team::RankCtx;
use std::collections::BinaryHeap;
use std::ops::Range;

/// How a stage partitions its items across ranks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Schedule {
    /// Static blocked partitioning via [`crate::Topology::chunk`] (or the
    /// stage's historical decomposition): zero scheduling overhead, but one
    /// expensive item pins its rank.
    #[default]
    Static,
    /// Guided dynamic chunking off a shared work counter (see the module
    /// docs): balanced under skew, at [`crate::CostModel::t_steal`] per
    /// claimed chunk.
    Dynamic,
}

impl Schedule {
    /// The index ranges this rank processes out of `n` equal-weight items.
    ///
    /// `Static` returns the rank's single [`RankCtx::chunk`] and performs
    /// no communication; `Dynamic` returns the rank's claimed chunks and
    /// tallies one [`CommStats::steal_ops`](crate::CommStats::steal_ops)
    /// per chunk (plus the final empty claim).
    pub fn ranges(self, ctx: &mut RankCtx, n: usize) -> Vec<Range<usize>> {
        match self {
            Schedule::Static => vec![ctx.chunk(n)],
            Schedule::Dynamic => ctx.dynamic_ranges(n),
        }
    }

    /// As [`Schedule::ranges`], with one cost weight per item (contig
    /// length, gap depth, seed count, …). `Static` ignores the weights —
    /// that blindness is exactly what the dynamic path fixes.
    pub fn ranges_weighted(self, ctx: &mut RankCtx, weights: &[u64]) -> Vec<Range<usize>> {
        match self {
            Schedule::Static => vec![ctx.chunk(weights.len())],
            Schedule::Dynamic => ctx.dynamic_ranges_weighted(weights),
        }
    }
}

impl std::str::FromStr for Schedule {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "static" => Ok(Schedule::Static),
            "dynamic" => Ok(Schedule::Dynamic),
            other => Err(format!(
                "unknown schedule {other:?} (expected \"static\" or \"dynamic\")"
            )),
        }
    }
}

impl std::fmt::Display for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Schedule::Static => "static",
            Schedule::Dynamic => "dynamic",
        })
    }
}

/// Carve `n` items (with weight `w(i)`) into guided chunks off the front:
/// each chunk targets `remaining_weight / (2 * ranks)` — halving towards
/// the end so the last chunks are small — and always takes at least one
/// item, so a single heavy item becomes a chunk of its own.
fn guided_chunks(n: usize, w: &dyn Fn(usize) -> u64, ranks: usize) -> Vec<(Range<usize>, u128)> {
    let total: u128 = (0..n).map(|i| w(i) as u128).sum();
    let mut chunks = Vec::new();
    let mut start = 0usize;
    let mut remaining = total;
    while start < n {
        let target = (remaining / (2 * ranks as u128)).max(1);
        let mut end = start;
        let mut weight: u128 = 0;
        while end < n && (weight < target || end == start) {
            weight += w(end) as u128;
            end += 1;
        }
        chunks.push((start..end, weight));
        remaining -= weight;
        start = end;
    }
    chunks
}

/// Deal the guided chunks to ranks by earliest-finisher simulation and
/// return the chunks claimed by `rank`, in claim order.
fn claims_for_rank(
    n: usize,
    w: &dyn Fn(usize) -> u64,
    ranks: usize,
    rank: usize,
) -> Vec<Range<usize>> {
    debug_assert!(rank < ranks);
    let chunks = guided_chunks(n, w, ranks);
    // Min-heap of (accumulated weight, rank id): the next chunk goes to
    // the least-loaded rank, ties to the lowest id — the deterministic
    // stand-in for "whoever's fetch-add lands first".
    let mut heap: BinaryHeap<std::cmp::Reverse<(u128, usize)>> =
        (0..ranks).map(|r| std::cmp::Reverse((0, r))).collect();
    let mut mine = Vec::new();
    for (range, weight) in chunks {
        let std::cmp::Reverse((load, r)) = heap.pop().expect("ranks >= 1");
        if r == rank {
            mine.push(range);
        }
        heap.push(std::cmp::Reverse((load + weight, r)));
    }
    mine
}

impl RankCtx {
    /// The chunks of `0..n` this rank claims under guided dynamic
    /// scheduling, in claim order. Tallies one
    /// [`CommStats::steal_ops`](crate::CommStats::steal_ops) per claimed
    /// chunk plus one for the final fetch-add that finds the counter
    /// exhausted.
    pub fn dynamic_ranges(&mut self, n: usize) -> Vec<Range<usize>> {
        let mine = claims_for_rank(n, &|_| 1, self.topo().ranks(), self.rank);
        self.stats.steal(mine.len() as u64 + 1);
        mine
    }

    /// As [`RankCtx::dynamic_ranges`] with one cost weight per item, so
    /// chunk boundaries track modeled work instead of item count.
    pub fn dynamic_ranges_weighted(&mut self, weights: &[u64]) -> Vec<Range<usize>> {
        let mine = claims_for_rank(
            weights.len(),
            &|i| weights[i].max(1),
            self.topo().ranks(),
            self.rank,
        );
        self.stats.steal(mine.len() as u64 + 1);
        mine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Team, Topology};

    fn lcg(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed.wrapping_add(0x9e3779b97f4a7c15);
        move || {
            x ^= x >> 33;
            x = x.wrapping_mul(0xff51afd7ed558ccd);
            x ^= x >> 29;
            x
        }
    }

    /// Run one team phase and collect every (rank, index) visit.
    fn visits(ranks: usize, n: usize, weights: Option<Vec<u64>>) -> Vec<Vec<usize>> {
        let team = Team::new(Topology::new(ranks, 4)).with_os_threads(3);
        let (per_rank, _) = team.run(|ctx| {
            let mut seen = Vec::new();
            match &weights {
                Some(w) => seen.extend(ctx.dynamic_ranges_weighted(w).into_iter().flatten()),
                None => seen.extend(ctx.dynamic_ranges(n).into_iter().flatten()),
            }
            seen
        });
        per_rank
    }

    #[test]
    fn every_index_visited_exactly_once_unweighted() {
        let mut rng = lcg(1);
        for _ in 0..40 {
            let ranks = 1 + (rng() % 24) as usize;
            let n = (rng() % 300) as usize; // includes n == 0 and n < ranks
            let per_rank = visits(ranks, n, None);
            let mut all: Vec<usize> = per_rank.into_iter().flatten().collect();
            all.sort_unstable();
            assert_eq!(all, (0..n).collect::<Vec<_>>(), "ranks={ranks} n={n}");
        }
    }

    #[test]
    fn every_index_visited_exactly_once_weighted() {
        let mut rng = lcg(2);
        for _ in 0..40 {
            let ranks = 1 + (rng() % 24) as usize;
            let n = (rng() % 300) as usize;
            // Long-tail weights: mostly small, occasionally huge.
            let weights: Vec<u64> = (0..n)
                .map(|_| {
                    if rng().is_multiple_of(10) {
                        1_000 + rng() % 100_000
                    } else {
                        1 + rng() % 50
                    }
                })
                .collect();
            let per_rank = visits(ranks, n, Some(weights));
            let mut all: Vec<usize> = per_rank.into_iter().flatten().collect();
            all.sort_unstable();
            assert_eq!(all, (0..n).collect::<Vec<_>>(), "ranks={ranks} n={n}");
        }
    }

    #[test]
    fn more_ranks_than_items_still_covers_everything() {
        for (ranks, n) in [(16, 3), (24, 1), (8, 0), (64, 10)] {
            let per_rank = visits(ranks, n, None);
            let mut all: Vec<usize> = per_rank.into_iter().flatten().collect();
            all.sort_unstable();
            assert_eq!(all, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn assignment_is_deterministic_across_os_schedules() {
        let run = |threads: usize| {
            let team = Team::new(Topology::new(9, 3)).with_os_threads(threads);
            let (ranges, stats) = team.run(|ctx| ctx.dynamic_ranges(5_000));
            let scrubbed: Vec<_> = stats.into_iter().map(crate::CommStats::counted).collect();
            (ranges, scrubbed)
        };
        assert_eq!(run(1), run(6));
    }

    #[test]
    fn guided_chunks_decay_and_cover() {
        let chunks = guided_chunks(10_000, &|_| 1, 8);
        let mut covered = 0;
        for (range, weight) in &chunks {
            assert_eq!(range.start, covered);
            covered = range.end;
            assert_eq!(*weight as usize, range.len());
        }
        assert_eq!(covered, 10_000);
        // First chunk ≈ n / 2P, last chunk small.
        assert_eq!(chunks[0].0.len(), 10_000 / 16);
        assert!(chunks.last().unwrap().0.len() <= chunks[0].0.len() / 16);
    }

    #[test]
    fn weighted_claims_balance_a_long_tail() {
        // One item weighs as much as a whole rank's fair share; static
        // blocked chunking piles ~n/P ordinary items on top of it, dynamic
        // must let it travel (nearly) alone.
        let ranks = 8;
        let mut weights = vec![10u64; 4_000];
        weights[17] = 5_000;
        let total: u128 = weights.iter().map(|&w| w as u128).sum();
        let mean = total as f64 / ranks as f64;

        let topo = Topology::new(ranks, 4);
        let static_max = (0..ranks)
            .map(|r| {
                topo.chunk(weights.len(), r)
                    .map(|i| weights[i] as u128)
                    .sum::<u128>()
            })
            .max()
            .unwrap() as f64;

        let mut loads = vec![0u128; ranks];
        for (r, load) in loads.iter_mut().enumerate() {
            for range in claims_for_rank(weights.len(), &|i| weights[i], ranks, r) {
                *load += range.map(|i| weights[i] as u128).sum::<u128>();
            }
        }
        assert_eq!(loads.iter().sum::<u128>(), total);
        let dynamic_max = *loads.iter().max().unwrap() as f64;
        assert!(
            dynamic_max / mean < 1.25,
            "weighted dynamic imbalance {:.3} too high ({loads:?})",
            dynamic_max / mean
        );
        assert!(
            dynamic_max < static_max,
            "dynamic {dynamic_max} must beat static blocked {static_max}"
        );
    }

    #[test]
    fn steal_ops_count_claims_plus_final_empty_fetch() {
        let team = Team::new(Topology::new(4, 4)).with_os_threads(2);
        let (claims, stats) = team.run(|ctx| ctx.dynamic_ranges(1_000).len() as u64);
        for (rank, s) in stats.iter().enumerate() {
            assert_eq!(s.steal_ops, claims[rank] + 1, "rank {rank}");
        }
    }

    #[test]
    fn schedule_parses_and_displays() {
        assert_eq!("static".parse::<Schedule>().unwrap(), Schedule::Static);
        assert_eq!("dynamic".parse::<Schedule>().unwrap(), Schedule::Dynamic);
        assert!("guided".parse::<Schedule>().is_err());
        assert_eq!(Schedule::Static.to_string(), "static");
        assert_eq!(Schedule::Dynamic.to_string(), "dynamic");
        assert_eq!(Schedule::default(), Schedule::Static);
    }

    #[test]
    fn schedule_ranges_cover_for_both_modes() {
        let team = Team::new(Topology::new(6, 3)).with_os_threads(2);
        for schedule in [Schedule::Static, Schedule::Dynamic] {
            let (ranges, stats) = team.run(|ctx| schedule.ranges(ctx, 997));
            let mut all: Vec<usize> = ranges.into_iter().flatten().flatten().collect();
            all.sort_unstable();
            assert_eq!(all, (0..997).collect::<Vec<_>>());
            let steals: u64 = stats.iter().map(|s| s.steal_ops).sum();
            match schedule {
                Schedule::Static => assert_eq!(steals, 0),
                Schedule::Dynamic => assert!(steals > 0),
            }
        }
    }
}
