//! Read-side communication avoidance: batched multi-gets and per-rank
//! software caching.
//!
//! [`crate::Exchange`] batches the *store* path; the lookup path —
//! de Bruijn traversal probes, merAligner seed lookups, scaffolding bucket
//! reads — is just as irregular and, un-batched, pays one message of
//! latency per key. This module provides the two levers the paper (§4.4)
//! and its follow-ups use to close that gap:
//!
//! * [`LookupBatch`] — an [`Outbox`] of key requests per destination
//!   rank. Each full buffer ships as **one**
//!   message (answered by [`FrozenMap::fetch_batch`]) and results are
//!   delivered through a per-key callback. Per-message latency is divided
//!   by the batch factor; bytes are accounted in full — batching never
//!   saves bandwidth.
//! * [`SoftwareCache`] — a bounded per-rank cache (CLOCK replacement) of
//!   data that no phase changes once built (seed hit lists from the frozen
//!   seed index, contig replicas). A hit avoids the remote access entirely
//!   — latency *and* bandwidth — at the price of a local probe
//!   ([`CostModel::t_cache`](crate::CostModel::t_cache)).
//!
//! Batches read [`FrozenMap`]s only, so nothing a batch or a cache returns
//! can go stale: the type is the coherence contract. Hits and misses are
//! tallied into [`CommStats::cache_hits`](crate::CommStats::cache_hits) /
//! [`CommStats::cache_misses`](crate::CommStats::cache_misses) so cache
//! effectiveness is visible in `--report-json`.

use crate::agg::Outbox;
use crate::dht::FrozenMap;
use crate::team::RankCtx;
use hipmer_dna::KmerHashMap;
use std::hash::Hash;

/// A per-destination buffer set for batched one-sided reads from a
/// [`FrozenMap`] — the read-side mirror of [`crate::Exchange`]: an
/// [`Outbox`] of `(key, tag)` requests whose ship step answers the batch on
/// the spot with [`FrozenMap::fetch_batch`] plus delivery.
///
/// Each queued key carries a caller-supplied *tag* (e.g. a read index or
/// sequence position) handed back to the delivery callback alongside the
/// looked-up value, so streaming call sites can route results without
/// holding their own key→context map. One `LookupBatch` is created per
/// acting rank per phase; it is not shared between ranks.
///
/// Unlike the write-side aggregator, un-flushed lookups are not merely
/// *lost* — the caller never observes its results — so the batch must be
/// consumed with [`finish`](Self::finish) (which hard-asserts all buffers
/// drained) or explicitly [`flush_all`](Self::flush_all)ed; the outbox's
/// `debug_assert` in `Drop` catches batches abandoned at phase end.
///
/// Results arrive grouped by owner, not in push order — callers must route
/// them by tag (as every call site in this repo does). Values are
/// unaffected by scheduling: a frozen table cannot change.
pub struct LookupBatch<'a, K, V, T> {
    dht: &'a FrozenMap<K, V>,
    outbox: Outbox<(K, T)>,
}

impl<'a, K, V, T> LookupBatch<'a, K, V, T>
where
    K: Hash + Eq,
{
    /// New buffer set reading from `dht` with the default batch size
    /// ([`crate::agg::DEFAULT_BATCH`]).
    pub fn new(dht: &'a FrozenMap<K, V>) -> Self {
        Self::with_batch(dht, crate::agg::DEFAULT_BATCH)
    }

    /// As [`new`](Self::new) with an explicit batch size (ablation hook).
    pub fn with_batch(dht: &'a FrozenMap<K, V>, batch: usize) -> Self {
        LookupBatch {
            dht,
            // Bytes in full, exactly like the write side: one message per
            // shipped request batch at `entry_bytes` per key.
            outbox: Outbox::new(*dht.topo(), batch).with_item_bytes(dht.entry_bytes()),
        }
    }

    /// Queue a lookup of `key`, remembering `tag`; if the owner's buffer is
    /// full it ships as one message and `deliver` is called once per
    /// resolved key (in queue order) with the tag and the value.
    pub fn push<F>(&mut self, ctx: &mut RankCtx, key: K, tag: T, deliver: &mut F)
    where
        F: FnMut(&mut RankCtx, T, Option<&'a V>),
    {
        let dest = self.dht.owner(&key);
        let mut apply = fetch_at_owner(self.dht, deliver);
        self.outbox.push(ctx, dest, (key, tag), &mut apply);
    }

    /// Ship every non-empty buffer — on return every queued lookup has been
    /// delivered (call before the phase barrier).
    pub fn flush_all<F>(&mut self, ctx: &mut RankCtx, deliver: &mut F)
    where
        F: FnMut(&mut RankCtx, T, Option<&'a V>),
    {
        let mut apply = fetch_at_owner(self.dht, deliver);
        self.outbox.flush_all(ctx, &mut apply);
    }

    /// Consume the batch: flush every buffer, then hard-assert nothing is
    /// left pending. Prefer this over a bare [`flush_all`](Self::flush_all)
    /// at the end of a phase — it cannot be silently skipped on an early
    /// return path.
    pub fn finish<F>(self, ctx: &mut RankCtx, deliver: &mut F)
    where
        F: FnMut(&mut RankCtx, T, Option<&'a V>),
    {
        let mut apply = fetch_at_owner(self.dht, deliver);
        self.outbox.finish(ctx, &mut apply);
    }
}

/// The apply step of [`LookupBatch`]: answer one shipped request batch as a
/// single multi-get at its owner and deliver each value by tag.
fn fetch_at_owner<'a, 'd, K, V, T, F>(
    dht: &'a FrozenMap<K, V>,
    deliver: &'d mut F,
) -> impl FnMut(&mut RankCtx, usize, &mut Vec<(K, T)>) + use<'a, 'd, K, V, T, F>
where
    K: Hash + Eq,
    F: FnMut(&mut RankCtx, T, Option<&'a V>),
{
    move |ctx, dest, requests| {
        ctx.stats.lookup_batches += 1;
        let keys: Vec<&K> = requests.iter().map(|(k, _)| k).collect();
        let values = dht.fetch_batch(dest, &keys);
        for ((_, tag), value) in requests.drain(..).zip(values) {
            deliver(ctx, tag, value);
        }
    }
}

impl<K, V, T> LookupBatch<'_, K, V, T> {
    /// Requests currently buffered.
    pub fn pending(&self) -> usize {
        self.outbox.pending()
    }

    /// Discard every queued request without resolving it — the abort-safe
    /// teardown for a stage that failed mid-flight (the stage re-executes
    /// from scratch, so the unanswered lookups are moot).
    pub fn abandon(self) {
        self.outbox.abandon();
    }
}

/// A bounded per-rank read-only cache with CLOCK (second-chance)
/// replacement.
///
/// Fronting data no phase changes (see the [module docs](crate::lookup)),
/// a hit returns a local clone — for the seed cache, of a reference into
/// the frozen index — and records
/// [`CommStats::cache_hits`](crate::CommStats::cache_hits) — no message,
/// no bytes. A miss records
/// [`CommStats::cache_misses`](crate::CommStats::cache_misses); the
/// fall-through lookup (if any) is accounted by whoever performs it.
///
/// CLOCK is chosen over LRU for the same reason production caches choose
/// it: eviction is O(1) amortized with no list splicing, and one bit of
/// recency per slot is enough when the working set is streaming (seed
/// lookups from overlapping reads, contig replicas under high coverage).
///
/// The value type is arbitrary: call sites that want *negative* caching
/// (remembering that a key is absent) simply use `V = Option<..>` and
/// [`insert`](Self::insert) the `None`s too.
pub struct SoftwareCache<K, V> {
    /// `(key, value, referenced)` slots; the clock hand sweeps these.
    slots: Vec<(K, V, bool)>,
    /// Key → slot index. Probed once or twice per seed, never iterated.
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
    use crate::{DistHashMap, Topology};

    fn ctx(rank: usize, topo: Topology) -> RankCtx {
        RankCtx::new(rank, topo)
    }

    #[test]
    fn lookup_batch_matches_sequential_gets_with_fewer_messages() {
        let topo = Topology::new(8, 4);
        let dht: DistHashMap<u64, u32> = DistHashMap::new(topo);
        let mut setup = ctx(0, topo);
        for k in 0..500u64 {
            dht.insert(&mut setup, k, (k * 3) as u32);
        }
        let dht = dht.freeze();

        // Fine-grained baseline (also probes absent keys).
        let mut fine = ctx(0, topo);
        let keys: Vec<u64> = (0..600).collect();
        let fine_vals: Vec<Option<&u32>> = keys.iter().map(|k| dht.get(&mut fine, k)).collect();

        // Batched.
        let mut bat = ctx(0, topo);
        let mut got: Vec<(u64, Option<&u32>)> = Vec::new();
        let mut deliver = |_: &mut RankCtx, tag: u64, v| got.push((tag, v));
        let mut lb = LookupBatch::with_batch(&dht, 64);
        for &k in &keys {
            lb.push(&mut bat, k, k, &mut deliver);
        }
        lb.finish(&mut bat, &mut deliver);

        got.sort_by_key(|(tag, _)| *tag);
        let batch_vals: Vec<Option<&u32>> = got.into_iter().map(|(_, v)| v).collect();
        assert_eq!(fine_vals, batch_vals);
        assert!(bat.stats.remote_msgs() * 16 < fine.stats.remote_msgs());
        // Bandwidth is NOT saved.
        assert_eq!(
            fine.stats.onnode_bytes + fine.stats.offnode_bytes,
            bat.stats.onnode_bytes + bat.stats.offnode_bytes
        );
        assert!(bat.stats.lookup_batches > 0);
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

    #[test]
    fn abandon_disarms_the_drop_assertion() {
        let topo = Topology::new(2, 2);
        let dht = DistHashMap::<u64, u32>::new(topo).freeze();
        let mut c = ctx(0, topo);
        let mut sink = |_: &mut RankCtx, _t: u64, _v: Option<&u32>| panic!("nothing may resolve");
        let mut lb = LookupBatch::with_batch(&dht, 100);
        lb.push(&mut c, 7, 7, &mut sink);
        assert_eq!(lb.pending(), 1);
        lb.abandon();
    }

    #[test]
    #[should_panic(expected = "batcher dropped with un-shipped items")]
    #[cfg(debug_assertions)]
    fn dropping_pending_lookups_panics_in_debug() {
        let topo = Topology::new(2, 2);
        let dht = DistHashMap::<u64, u32>::new(topo).freeze();
        let mut c = ctx(0, topo);
        let mut sink = |_: &mut RankCtx, _t: u64, _v: Option<&u32>| {};
        let mut lb = LookupBatch::new(&dht);
        lb.push(&mut c, 7, 7, &mut sink);
        drop(lb);
    }
}
