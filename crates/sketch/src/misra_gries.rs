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

use hipmer_dna::KmerBuildHasher;
use std::hash::{BuildHasher, Hash};

/// Slots a new summary starts with (fewer when `2θ` is smaller).
const MIN_SLOTS: usize = 16;

/// The largest table observes reach by doubling. A summary that outgrows it
/// one counter at a time takes its full `2θ` slots at once: a rank's sample
/// of a large run fits well below it, and a summary that fills θ = 32,000
/// counters would otherwise rehash through four more tables, each
/// first-touched afresh.
const MAX_DOUBLED_SLOTS: usize = 4096;

/// A Misra–Gries summary with at most `capacity` counters.
///
/// The counters live in one flat open-addressed table, probed linearly
/// from the key's [`KmerBuildHasher`] hash; a count of 0 marks an empty
/// slot. The table starts small and grows, rehashing its live counters,
/// whenever a new counter would fill more than half of it: an observe
/// doubles it up to 4,096 slots and then takes the full `2θ` rounded up to
/// a power of two; a merge, which knows how many counters it adds, takes
/// the power of two they need. A summary that sees few items stays small.
/// What the summary holds does not depend on the table's size: growth
/// moves counters, never changes them. A slot only empties when every
/// counter steps down, and that rebuilds the table, so a probe stops at the
/// first empty slot and an observed item costs one probe. The hash is the
/// one every table around the summary uses: deterministic, so the slot
/// order — and with it [`items`](Self::items) — repeats from run to run.
#[derive(Clone, Debug)]
pub struct MisraGries<K> {
    capacity: usize,
    /// `(item, count)`; the item is meaningless where the count is 0.
    slots: Vec<(K, u64)>,
    /// Live counters: slots with a non-zero count.
    len: usize,
    /// Total stream length observed (for the error bound).
    n: u64,
}

impl<K: Copy + Eq + Hash + Default> MisraGries<K> {
    /// A summary with `capacity` (θ) counter slots.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        MisraGries {
            capacity,
            slots: vec![(K::default(), 0); MIN_SLOTS.min((2 * capacity).next_power_of_two())],
            len: 0,
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

    /// The hash [`observe_hashed`](Self::observe_hashed) expects of `item`.
    #[inline]
    pub fn item_hash(item: &K) -> u64 {
        KmerBuildHasher::default().hash_one(item)
    }

    /// Observe one item (weight 1).
    #[inline]
    pub fn observe(&mut self, item: K) {
        self.observe_hashed(item, Self::item_hash(&item));
    }

    /// Observe one item whose [`item_hash`](Self::item_hash) the caller
    /// already has (for a k-mer, `mix128` of its bits, which also feeds
    /// HyperLogLog).
    #[inline]
    pub fn observe_hashed(&mut self, item: K, hash: u64) {
        debug_assert_eq!(hash, Self::item_hash(&item), "hash of a different item");
        self.n += 1;
        let slot = self.probe(item, hash);
        if self.slots[slot].1 > 0 {
            self.slots[slot].1 += 1;
        } else if self.len < self.capacity {
            let slot = self.claim(slot, item, hash);
            self.slots[slot] = (item, 1);
        } else {
            // Summary full: the item and one unit of every counter cancel.
            self.decrement(1);
        }
    }

    /// Observe an item with weight `w` (used when merging pre-counted
    /// chunks). A zero weight observes nothing.
    pub fn observe_weighted(&mut self, item: K, w: u64) {
        let hash = Self::item_hash(&item);
        self.n += w;
        let mut rem = w;
        while rem > 0 {
            let slot = self.probe(item, hash);
            if self.slots[slot].1 > 0 {
                self.slots[slot].1 += rem;
                return;
            }
            if self.len < self.capacity {
                let slot = self.claim(slot, item, hash);
                self.slots[slot] = (item, rem);
                return;
            }
            // Summary full: decrement everything by the smallest amount that
            // frees a slot (the classic algorithm decrements by 1 per arriving
            // item; the weighted generalization decrements by
            // min(w, min counter) and goes round again with the remainder,
            // which then finds the freed slot).
            let min = self.live().map(|&(_, c)| c).min().expect("full");
            let dec = rem.min(min);
            self.decrement(dec);
            rem -= dec;
        }
    }

    /// The slot holding `item`, or the empty slot ending its probe.
    #[inline]
    fn probe(&self, item: K, hash: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            let (key, count) = self.slots[i];
            if count == 0 || key == item {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Count one more live counter, for `item`, whose probe ended at the
    /// empty `slot`, and return where to write it: `slot` while the table
    /// stays at most half full, else `item`'s slot in the grown table.
    #[inline]
    fn claim(&mut self, slot: usize, item: K, hash: u64) -> usize {
        self.len += 1;
        if 2 * self.len <= self.slots.len() {
            slot
        } else {
            self.grow_for(item, hash)
        }
    }

    /// [`claim`](Self::claim)'s growth, kept out of the observe loop:
    /// double the table up to [`MAX_DOUBLED_SLOTS`], then take the full
    /// `2θ` slots. A counter is claimed only while fewer than θ are live,
    /// so the doubled table is never larger than that.
    #[cold]
    #[inline(never)]
    fn grow_for(&mut self, item: K, hash: u64) -> usize {
        let doubled = 2 * self.slots.len();
        self.rehash(if doubled > MAX_DOUBLED_SLOTS {
            (2 * self.capacity).next_power_of_two()
        } else {
            doubled
        });
        self.probe(item, hash)
    }

    /// Move the live counters into a table of `slots` slots.
    fn rehash(&mut self, slots: usize) {
        let old = std::mem::replace(&mut self.slots, vec![(K::default(), 0); slots]);
        for (item, count) in old.into_iter().filter(|s| s.1 > 0) {
            let slot = self.probe(item, Self::item_hash(&item));
            self.slots[slot] = (item, count);
        }
    }

    /// The live `(item, count)` slots, in slot order.
    fn live(&self) -> impl Iterator<Item = &(K, u64)> {
        self.slots.iter().filter(|s| s.1 > 0)
    }

    /// Subtract `dec` from every counter and rebuild the table from the
    /// ones still positive, so no probe chain keeps a hole.
    fn decrement(&mut self, dec: u64) {
        // One pass with no branch per slot (on a merged summary about half
        // the counters survive, and a branch would mispredict): empty each
        // slot and write it to position `j ≤ i`, which only a survivor
        // keeps. Survivors end up packed at the front, the rest empty but
        // for the last write at `j`.
        let mut j = 0;
        for i in 0..self.slots.len() {
            let (item, count) = self.slots[i];
            self.slots[i].1 = 0;
            self.slots[j] = (item, count.wrapping_sub(dec));
            j += usize::from(count > dec);
        }
        self.slots[j].1 = 0;
        let survivors = self.slots[..j].to_vec();
        self.slots[..j].iter_mut().for_each(|s| s.1 = 0);
        self.len = j;
        for (item, count) in survivors {
            let slot = self.probe(item, Self::item_hash(&item));
            self.slots[slot] = (item, count);
        }
    }

    /// The maximum undercount of any reported frequency: `N/θ`.
    pub fn error_bound(&self) -> u64 {
        self.n / self.capacity as u64
    }

    /// All currently-tracked items with their lower-bound counts.
    pub fn items(&self) -> impl Iterator<Item = (&K, u64)> {
        self.live().map(|(k, c)| (k, *c))
    }

    /// Items whose lower-bound count is at least `min_count`. Guaranteed to
    /// contain every item with true frequency ≥ `min_count + error_bound()`.
    /// Sorted by descending count, ties by ascending item, so a truncated
    /// prefix does not depend on the table's slot order.
    pub fn heavy_hitters(&self, min_count: u64) -> Vec<(K, u64)>
    where
        K: Ord,
    {
        let mut out: Vec<(K, u64)> = self.live().filter(|s| s.1 >= min_count).copied().collect();
        out.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Merge another summary into this one (mergeable summaries, Agarwal et
    /// al.): add the counters up, then subtract the (θ+1)-th largest count
    /// from every counter and keep the positive ones. The merged counts
    /// keep `f − N/θ ≤ f' ≤ f` over the concatenated stream: a prune by
    /// `c` drops at least `(θ+1)·c` from the counters' total.
    pub fn merge(&mut self, other: &MisraGries<K>) {
        self.n += other.n;
        // Add the other side's counters in, and set aside the items this
        // table does not track (distinct from each other and from this
        // table's items). Both loops avoid a branch per slot or per item:
        // on a summary of mixed hits and misses it would mispredict.
        let mut theirs = vec![(K::default(), 0); other.len + 1];
        let mut m = 0;
        for &slot in &other.slots {
            theirs[m] = slot;
            m += usize::from(slot.1 > 0);
        }
        let mut untracked = vec![(K::default(), 0, 0); m];
        let mut u = 0;
        for &(item, count) in &theirs[..m] {
            let hash = Self::item_hash(&item);
            let slot = self.probe(item, hash);
            let tracked = self.slots[slot].1 > 0;
            self.slots[slot].1 += if tracked { count } else { 0 };
            untracked[u] = (item, hash, count);
            u += usize::from(!tracked);
        }
        untracked.truncate(u);
        if self.len + u > self.capacity {
            // The (θ+1)-th largest of the live counts, packed without a
            // branch per slot.
            let mut counts = vec![0; self.len + 1];
            let mut c = 0;
            for slot in &self.slots {
                counts[c] = slot.1;
                c += usize::from(slot.1 > 0);
            }
            counts.truncate(c);
            counts.extend(untracked.iter().map(|s| s.2));
            let at = counts.len() - 1 - self.capacity;
            let cutoff = *counts.select_nth_unstable(at).1;
            self.decrement(cutoff);
            untracked.retain(|s| s.2 > cutoff);
            untracked.iter_mut().for_each(|s| s.2 -= cutoff);
        }
        self.len += untracked.len();
        let want = (2 * self.len).next_power_of_two();
        if want > self.slots.len() {
            self.rehash(want);
        }
        for (item, hash, count) in untracked {
            let slot = self.probe(item, hash);
            self.slots[slot] = (item, count);
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
        // Mergeable-summary guarantee: error ≤ N/θ over the whole stream.
        let bound = merged.error_bound();
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
