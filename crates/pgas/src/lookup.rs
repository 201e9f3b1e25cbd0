//! Read-side communication avoidance: per-rank software caching.
//!
//! [`crate::Exchange`] batches the *store* path. The lookup path — de
//! Bruijn traversal probes, merAligner seed lookups, scaffolding bucket
//! reads — is just as irregular and, un-batched, pays one message of
//! latency per key. The paper (§4.4) and its follow-ups close that gap with
//! two levers:
//!
//! * batched reads: [`FrozenMap::multi_get`](crate::FrozenMap::multi_get)
//!   groups a set of keys by owner and ships **one** message per owner.
//!   Per-message latency is divided by the group size; bytes are accounted
//!   in full — batching never saves bandwidth;
//! * [`SoftwareCache`] (this module) — a bounded per-rank cache (CLOCK
//!   replacement) of data that no phase changes once built (contig
//!   replicas). A hit avoids the remote access entirely — latency *and*
//!   bandwidth — at the price of a local probe
//!   ([`CostModel::t_cache`](crate::CostModel::t_cache)).
//!
//! Both read frozen data only, so nothing a batch or a cache returns can
//! go stale. Hits and misses are tallied into
//! [`CommStats::cache_hits`](crate::CommStats::cache_hits) /
//! [`CommStats::cache_misses`](crate::CommStats::cache_misses) so cache
//! effectiveness is visible in `--report-json`.

use crate::team::RankCtx;
use hipmer_dna::KmerHashMap;
use std::hash::Hash;

/// A bounded per-rank read-only cache with CLOCK (second-chance)
/// replacement.
///
/// Fronting data no phase changes (see the [module docs](crate::lookup)),
/// a hit returns a local clone and records
/// [`CommStats::cache_hits`](crate::CommStats::cache_hits) — no message,
/// no bytes. A miss records
/// [`CommStats::cache_misses`](crate::CommStats::cache_misses); the
/// fall-through lookup (if any) is accounted by whoever performs it.
///
/// CLOCK is chosen over LRU for the same reason production caches choose
/// it: eviction is O(1) amortized with no list splicing, and one bit of
/// recency per slot is enough when the working set is streaming (contig
/// replicas under high coverage).
pub struct SoftwareCache<K, V> {
    /// `(key, value, referenced)` slots; the clock hand sweeps these.
    slots: Vec<(K, V, bool)>,
    /// Key → slot index. Probed once or twice per access, never iterated.
    index: KmerHashMap<K, usize>,
    hand: usize,
    capacity: usize,
}

impl<K, V> SoftwareCache<K, V>
where
    K: Hash + Eq + Clone,
    V: Clone,
{
    /// An empty cache holding at most `capacity` entries (must be ≥ 1).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "SoftwareCache capacity must be >= 1");
        SoftwareCache {
            slots: Vec::with_capacity(capacity.min(1 << 20)),
            index: KmerHashMap::default(),
            hand: 0,
            capacity,
        }
    }

    /// Probe the cache, tallying a hit or miss into `ctx.stats`. A hit
    /// sets the slot's reference bit and returns a clone.
    pub fn get(&mut self, ctx: &mut RankCtx, key: &K) -> Option<V> {
        match self.index.get(key) {
            Some(&slot) => {
                ctx.stats.cache_hits += 1;
                self.slots[slot].2 = true;
                Some(self.slots[slot].1.clone())
            }
            None => {
                ctx.stats.cache_misses += 1;
                None
            }
        }
    }

    /// Insert (or refresh) an entry, evicting via the clock hand when at
    /// capacity. Insertion is a local operation and is not accounted —
    /// the fetch that produced the value already was.
    pub fn insert(&mut self, key: K, value: V) {
        if let Some(&slot) = self.index.get(&key) {
            self.slots[slot] = (key, value, true);
            return;
        }
        if self.slots.len() < self.capacity {
            self.index.insert(key.clone(), self.slots.len());
            self.slots.push((key, value, false));
            return;
        }
        // Sweep: clear reference bits until an unreferenced victim appears.
        loop {
            let slot = &mut self.slots[self.hand];
            if slot.2 {
                slot.2 = false;
                self.hand = (self.hand + 1) % self.capacity;
            } else {
                break;
            }
        }
        let victim = self.hand;
        self.index.remove(&self.slots[victim].0);
        self.index.insert(key.clone(), victim);
        self.slots[victim] = (key, value, false);
        self.hand = (victim + 1) % self.capacity;
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Topology;

    fn ctx(rank: usize, topo: Topology) -> RankCtx {
        RankCtx::new(rank, topo)
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let topo = Topology::new(2, 2);
        let mut c = ctx(0, topo);
        let mut cache: SoftwareCache<u64, u32> = SoftwareCache::new(4);
        assert_eq!(cache.get(&mut c, &1), None);
        cache.insert(1, 10);
        assert_eq!(cache.get(&mut c, &1), Some(10));
        assert_eq!(cache.get(&mut c, &1), Some(10));
        assert_eq!(c.stats.cache_hits, 2);
        assert_eq!(c.stats.cache_misses, 1);
    }

    #[test]
    fn clock_evicts_unreferenced_first() {
        let topo = Topology::new(1, 1);
        let mut c = ctx(0, topo);
        let mut cache: SoftwareCache<u64, u32> = SoftwareCache::new(3);
        cache.insert(1, 1);
        cache.insert(2, 2);
        cache.insert(3, 3);
        // Touch 1 and 3 so their reference bits are set; 2 is the victim.
        cache.get(&mut c, &1);
        cache.get(&mut c, &3);
        cache.insert(4, 4);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.get(&mut c, &2), None, "unreferenced entry evicted");
        assert_eq!(cache.get(&mut c, &1), Some(1));
        assert_eq!(cache.get(&mut c, &3), Some(3));
        assert_eq!(cache.get(&mut c, &4), Some(4));
    }

    #[test]
    fn clock_hand_eventually_evicts_referenced_entries() {
        let topo = Topology::new(1, 1);
        let mut c = ctx(0, topo);
        let mut cache: SoftwareCache<u64, u32> = SoftwareCache::new(2);
        cache.insert(1, 1);
        cache.insert(2, 2);
        cache.get(&mut c, &1);
        cache.get(&mut c, &2);
        // All referenced: the sweep must clear bits and still find a victim.
        cache.insert(3, 3);
        assert_eq!(cache.len(), 2);
        assert!(cache.capacity() == 2);
        let survivors = [1u64, 2, 3]
            .iter()
            .filter(|k| cache.get(&mut c, k).is_some())
            .count();
        assert_eq!(survivors, 2);
        assert_eq!(cache.get(&mut c, &3), Some(3), "new entry resident");
    }
}
