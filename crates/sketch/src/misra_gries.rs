//! The Misra–Gries frequent-items ("heavy hitters") summary \[24\].
//!
//! With θ counter slots, the summary reports every item whose true
//! frequency exceeds `N/θ` over a stream of length `N`, and the reported
//! count `f'(x)` is a **lower bound** on the true count with
//! `f(x) - N/θ ≤ f'(x) ≤ f(x)`. HipMer (§3.1) runs this during the
//! cardinality pass (θ = 32,000 in the paper's wheat experiments) and then
//! handles the reported k-mers by local accumulation + global reduction
//! instead of owner-computes, eliminating the load imbalance that
//! ultra-frequent wheat k-mers (70 k-mers with count > 10⁷) otherwise
//! cause.
//!
//! Summaries are *mergeable* (Agarwal et al. \[1\]): merging per-rank
//! summaries and re-pruning yields a summary with the same guarantee over
//! the concatenated stream, which is how the parallel version (Cafaro &
//! Tempesta \[7\]) works.

use hipmer_dna::KmerHashMap;
use std::hash::Hash;

/// A Misra–Gries summary with at most `capacity` counters.
///
/// The counters hash with the repo's deterministic [`KmerHashMap`] hasher, as
/// every table around the summary does: the sketch pass observes one item
/// per k-mer occurrence, so the hash is its whole cost, and a fixed hash
/// makes the map's iteration order repeat from run to run.
#[derive(Clone, Debug)]
pub struct MisraGries<K: Eq + Hash + Clone> {
    capacity: usize,
    counters: KmerHashMap<K, u64>,
    /// Total stream length observed (for the error bound).
    n: u64,
}

impl<K: Eq + Hash + Clone> MisraGries<K> {
    /// A summary with `capacity` (θ) counter slots.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        MisraGries {
            capacity,
            counters: KmerHashMap::with_capacity_and_hasher(capacity + 1, Default::default()),
            n: 0,
        }
    }

    /// θ — the number of counter slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Stream length observed so far.
    pub fn stream_len(&self) -> u64 {
        self.n
    }

    /// Observe one item (weight 1).
    #[inline]
    pub fn observe(&mut self, item: K) {
        self.observe_weighted(item, 1);
    }

    /// Observe an item with weight `w` (used when merging pre-counted
    /// chunks). A zero weight observes nothing.
    pub fn observe_weighted(&mut self, item: K, w: u64) {
        self.n += w;
        let mut rem = w;
        while rem > 0 {
            // Below capacity a tracked and an untracked item are one probe.
            if self.counters.len() < self.capacity {
                *self.counters.entry(item).or_insert(0) += rem;
                return;
            }
            if let Some(c) = self.counters.get_mut(&item) {
                *c += rem;
                return;
            }
            // Summary full: decrement everything by the smallest amount that
            // frees a slot (the classic algorithm decrements by 1 per arriving
            // item; the weighted generalization decrements by
            // min(w, min counter) and goes round again with the remainder,
            // which then finds the freed slot).
            let dec = rem.min(*self.counters.values().min().expect("non-empty"));
            self.counters.retain(|_, c| {
                *c -= dec;
                *c > 0
            });
            rem -= dec;
        }
    }

    /// The maximum undercount of any reported frequency: `N/θ`.
    pub fn error_bound(&self) -> u64 {
        self.n / self.capacity as u64
    }

    /// All currently-tracked items with their lower-bound counts.
    pub fn items(&self) -> impl Iterator<Item = (&K, u64)> {
        self.counters.iter().map(|(k, &c)| (k, c))
    }

    /// Items whose lower-bound count is at least `min_count`. Guaranteed to
    /// contain every item with true frequency ≥ `min_count + error_bound()`.
    /// Sorted by descending count, ties by ascending item, so a truncated
    /// prefix does not depend on `HashMap` iteration order.
    pub fn heavy_hitters(&self, min_count: u64) -> Vec<(K, u64)>
    where
        K: Ord,
    {
        let mut out: Vec<(K, u64)> = self
            .counters
            .iter()
            .filter(|(_, &c)| c >= min_count)
            .map(|(k, &c)| (k.clone(), c))
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Merge another summary into this one (mergeable-summaries property).
    pub fn merge(&mut self, other: &MisraGries<K>) {
        // Absorb the other side's counters, then prune back to capacity by
        // subtracting the (capacity+1)-th largest count from everything.
        for (k, &c) in other.counters.iter() {
            *self.counters.entry(k.clone()).or_insert(0) += c;
        }
        self.n += other.n;
        if self.counters.len() > self.capacity {
            let mut counts: Vec<u64> = self.counters.values().copied().collect();
            counts.sort_unstable_by(|a, b| b.cmp(a));
            let cutoff = counts[self.capacity];
            self.counters.retain(|_, c| {
                *c = c.saturating_sub(cutoff);
                *c > 0
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Zipf-ish stream: item i appears ~N/(i+1) times.
    fn skewed_stream(n_items: u64, scale: u64) -> Vec<u64> {
        let mut out = Vec::new();
        for i in 0..n_items {
            for _ in 0..(scale / (i + 1)).max(1) {
                out.push(i);
            }
        }
        out
    }

    #[test]
    fn exact_when_under_capacity() {
        let mut mg = MisraGries::new(100);
        for x in 0..50u64 {
            for _ in 0..=x {
                mg.observe(x);
            }
        }
        for (k, c) in mg.items() {
            assert_eq!(c, k + 1);
        }
    }

    #[test]
    fn finds_all_true_heavy_hitters() {
        let stream = skewed_stream(5_000, 10_000);
        let theta = 256;
        let mut mg = MisraGries::new(theta);
        for &x in &stream {
            mg.observe(x);
        }
        let n = stream.len() as u64;
        let threshold = n / theta as u64;
        // Every item with true count > N/θ must be reported.
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &x in &stream {
            *truth.entry(x).or_insert(0) += 1;
        }
        let reported: HashMap<u64, u64> = mg.items().map(|(k, c)| (*k, c)).collect();
        for (item, &count) in truth.iter() {
            if count > threshold {
                assert!(reported.contains_key(item), "missed heavy hitter {item}");
            }
        }
    }

    #[test]
    fn counts_are_lower_bounds_within_error() {
        let stream = skewed_stream(1_000, 5_000);
        let mut mg = MisraGries::new(128);
        for &x in &stream {
            mg.observe(x);
        }
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &x in &stream {
            *truth.entry(x).or_insert(0) += 1;
        }
        let bound = mg.error_bound();
        for (k, reported) in mg.items() {
            let t = truth[k];
            assert!(reported <= t, "overcount for {k}: {reported} > {t}");
            assert!(
                reported + bound >= t,
                "undercount beyond bound for {k}: {reported} + {bound} < {t}"
            );
        }
    }

    #[test]
    fn merged_summaries_keep_guarantee() {
        let stream = skewed_stream(2_000, 8_000);
        let theta = 200;
        // Split stream over 4 "ranks", summarize independently, merge.
        let mut parts: Vec<MisraGries<u64>> = (0..4).map(|_| MisraGries::new(theta)).collect();
        for (i, &x) in stream.iter().enumerate() {
            parts[i % 4].observe(x);
        }
        let mut merged = parts.remove(0);
        for p in &parts {
            merged.merge(p);
        }
        assert_eq!(merged.stream_len(), stream.len() as u64);

        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &x in &stream {
            *truth.entry(x).or_insert(0) += 1;
        }
        // Mergeable-summary guarantee: error ≤ N/θ over the whole stream
        // (we allow 2x slack for the simple merge-prune implementation).
        let bound = 2 * merged.error_bound();
        for (k, reported) in merged.items() {
            let t = truth[k];
            assert!(reported <= t);
            assert!(reported + bound >= t, "{k}: {reported}+{bound} < {t}");
        }
        // The top item must survive the merge.
        let (top, _) = merged.heavy_hitters(1).into_iter().next().unwrap();
        assert_eq!(top, 0, "most frequent item should be item 0");
    }

    #[test]
    fn heavy_hitters_sorted_desc() {
        let mut mg = MisraGries::new(10);
        for x in 0..5u64 {
            for _ in 0..(x + 1) * 10 {
                mg.observe(x);
            }
        }
        let hh = mg.heavy_hitters(1);
        for w in hh.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn heavy_hitter_ties_break_by_item() {
        // 40 items of equal count: whatever order the map iterates in, the
        // report — and so any truncated prefix of it — is in item order.
        let mut mg = MisraGries::new(64);
        for x in (0..40u64).rev() {
            mg.observe_weighted(x.wrapping_mul(0x9e37_79b9_7f4a_7c15), 5);
        }
        let hh = mg.heavy_hitters(1);
        assert_eq!(hh.len(), 40);
        assert!(hh.windows(2).all(|w| w[0].0 < w[1].0), "{hh:?}");
    }

    #[test]
    fn weighted_observe_equivalent_to_repeats() {
        let mut a = MisraGries::new(8);
        let mut b = MisraGries::new(8);
        for x in 0..20u64 {
            let w = x % 5 + 1;
            a.observe_weighted(x, w);
            for _ in 0..w {
                b.observe(x);
            }
        }
        assert_eq!(a.stream_len(), b.stream_len());
        // A weight-w decrement takes w unit steps at once: same counters.
        assert_eq!(a.heavy_hitters(0), b.heavy_hitters(0));
        assert!(!a.heavy_hitters(1).is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        MisraGries::<u64>::new(0);
    }
}
