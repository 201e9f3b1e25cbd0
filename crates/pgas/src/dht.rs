//! The distributed hash table — the heart of HipMer (§7 of the paper:
//! "distributed hash tables lie in the heart of HipMer and the main
//! operations on them are irregular lookups").
//!
//! Keys are assigned to an **owner rank** by the table's one owner function
//! (`key_hash % ranks` unless the table was built [`with_owner`]); each
//! rank owns exactly one partition — one map under one lock, as each UPC
//! thread does in the paper — and every operation holds at most one
//! partition lock (see DESIGN.md §12). Lock count scales with the rank
//! count, which is never below the worker count.
//! Any rank may read or write any key (one-sided semantics): the access is
//! executed directly against the owner's partition, and the *acting* rank's
//! [`CommStats`] records whether it was local, on-node, or off-node —
//! exactly the accounting Tables 1–2 of the paper report. Work that lands
//! in a partition on behalf of other ranks is additionally tallied as
//! `service_ops` against the owner, which is where heavy-hitter load
//! imbalance (Fig. 6) becomes visible.
//!
//! Every table in HipMer is built in one phase and only read after it. A
//! [`DistHashMap`] is the build side; [`DistHashMap::freeze`] ends the
//! build and yields a [`FrozenMap`]: the same partitions and owner
//! function, read through `&self` with no lock, each access billed exactly
//! as before. Nothing can write a frozen table, so no reader needs to
//! check that nothing did.
//!
//! Batched builds write through an [`Exchange`](crate::Exchange): the
//! sender bills each batch, and the owner applies it to its own partition
//! with [`apply_batch`](DistHashMap::apply_batch) (or
//! [`merge_batch`](DistHashMap::merge_batch)) in the next superstep. One
//! thread then writes each partition, and its lock, which stays, is never
//! contended. The point writes [`insert`](DistHashMap::insert) and
//! [`update`](DistHashMap::update) lock the owner's partition from any
//! rank; the de Bruijn graph build and the benchmark's kernels use them.
//!
//! [`CommStats`]: crate::stats::CommStats
//! [`with_owner`]: DistHashMap::with_owner

use crate::team::RankCtx;
use crate::topology::Topology;
use hipmer_dna::KmerBuildHasher;
use hipmer_sketch::MisraGries;
use parking_lot::Mutex;
use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasher, Hash};
use std::sync::atomic::{AtomicU64, Ordering};

/// What one partition lock guards: the owner's entries and, when hot-key
/// tracking is on, the summary of the service operations that landed here.
struct Partition<K, V> {
    map: HashMap<K, V, KmerBuildHasher>,
    /// Misra–Gries summary over the key hashes of this partition's service
    /// operations, for naming the heavy hitters behind `service_ops` skew.
    /// `None` (free) unless the table was built
    /// [`DistHashMap::with_hot_keys`]. A key has one owner, so the
    /// partitions' summaries cover disjoint keys.
    hot_keys: Option<MisraGries<u64>>,
}

impl<K, V> Partition<K, V> {
    /// Observe one service operation on the key hashing to `key_hash()`.
    /// The hash is only computed when tracking is on.
    #[inline]
    fn track_hot_key(&mut self, key_hash: impl FnOnce() -> u64) {
        if let Some(mg) = &mut self.hot_keys {
            mg.observe(key_hash());
        }
    }
}

/// One owner rank's partition.
struct Shard<K, V> {
    part: Mutex<Partition<K, V>>,
    /// Times an accessor found `part`'s lock held and waited for it, since
    /// the last [`DistHashMap::drain_service_into`].
    lock_waits: AtomicU64,
}

impl<K, V> Shard<K, V> {
    fn new() -> Self {
        Shard {
            part: Mutex::new(Partition {
                map: HashMap::default(),
                hot_keys: None,
            }),
            lock_waits: AtomicU64::new(0),
        }
    }
}

/// A table's owner function: key → owner rank (see
/// [`DistHashMap::with_owner`]).
type OwnerFn<K> = Box<dyn Fn(&K) -> usize + Send + Sync>;

/// Where a table's keys live and what an access to them costs: the part a
/// table keeps when it is frozen.
struct Routing<K> {
    topo: Topology,
    /// The one routing decision: `None` is uniform hashing
    /// (`key_hash % ranks`); `Some` is whatever the table was built with
    /// ([`DistHashMap::with_owner`]).
    owner_fn: Option<OwnerFn<K>>,
    hasher: KmerBuildHasher,
    /// Logical payload bytes per transferred entry (key + value estimate).
    entry_bytes: u64,
}

impl<K: Hash> Routing<K> {
    fn key_hash(&self, key: &K) -> u64 {
        self.hasher.hash_one(key)
    }

    /// See [`DistHashMap::owner`].
    #[inline]
    fn owner(&self, key: &K) -> usize {
        let ranks = self.topo.ranks();
        match &self.owner_fn {
            None => (self.key_hash(key) % ranks as u64) as usize,
            Some(f) => {
                let r = f(key);
                assert!(
                    r < ranks,
                    "owner function returned rank {r} for a table of {ranks} ranks"
                );
                r
            }
        }
    }

    /// Record one one-sided access by `ctx.rank` against `owner`'s shard
    /// (subject to fault injection when the rank's team carries a
    /// [`crate::FaultPlan`]).
    #[inline]
    fn account(&self, ctx: &mut RankCtx, owner: usize) {
        ctx.comm(&self.topo, owner, self.entry_bytes);
    }

    /// Group `keys` by owner and bill one message per distinct owner (bytes
    /// in full: `group_len * entry_bytes`) plus one
    /// [`CommStats::lookup_batches`](crate::CommStats::lookup_batches) each.
    /// Returns the key indices of each owner's group.
    fn bill_multi_get(&self, ctx: &mut RankCtx, keys: &[K]) -> Vec<Vec<usize>> {
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); self.topo.ranks()];
        for (i, k) in keys.iter().enumerate() {
            groups[self.owner(k)].push(i);
        }
        for (dest, group) in groups.iter().enumerate() {
            if !group.is_empty() {
                ctx.comm(&self.topo, dest, group.len() as u64 * self.entry_bytes);
                ctx.stats.lookup_batches += 1;
            }
        }
        groups
    }
}

/// A hash table partitioned across the virtual ranks of a [`Topology`],
/// while it is being built (see [`freeze`](Self::freeze)).
pub struct DistHashMap<K, V> {
    route: Routing<K>,
    /// One partition per rank, indexed by owner.
    shards: Vec<Shard<K, V>>,
    /// Remote-landed updates serviced by each shard's owner.
    service: Vec<AtomicU64>,
}

impl<K, V> DistHashMap<K, V>
where
    K: Hash + Eq + Send,
    V: Send,
{
    /// An empty table over `topo` with uniform ownership:
    /// `owner = key_hash % ranks`.
    pub fn new(topo: Topology) -> Self {
        Self::build(topo, None)
    }

    /// An empty table whose keys are owned by `owner(key)` — the hook the
    /// oracle of §3.2 ([`crate::OracleVector::table`]) plugs into. The function is
    /// fixed for the table's lifetime (re-homing a populated table would
    /// orphan its entries) and must return a rank `< topo.ranks()`, which
    /// [`owner`](Self::owner) checks on every call.
    pub fn with_owner(topo: Topology, owner: impl Fn(&K) -> usize + Send + Sync + 'static) -> Self {
        Self::build(topo, Some(Box::new(owner)))
    }

    fn build(topo: Topology, owner_fn: Option<OwnerFn<K>>) -> Self {
        let ranks = topo.ranks();
        DistHashMap {
            route: Routing {
                topo,
                owner_fn,
                hasher: KmerBuildHasher::default(),
                entry_bytes: (std::mem::size_of::<K>() + std::mem::size_of::<V>()) as u64,
            },
            shards: (0..ranks).map(|_| Shard::new()).collect(),
            service: (0..ranks).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Keep a Misra–Gries summary of `capacity` counters per partition over
    /// the key hashes of its service operations, for [`hot_keys`]
    /// (`capacity` 0 tracks nothing). For the one table whose skew a run
    /// reports, the k-mer analysis vote table; call it on the empty table.
    ///
    /// [`hot_keys`]: Self::hot_keys
    pub fn with_hot_keys(mut self, capacity: usize) -> Self {
        if capacity > 0 {
            for shard in &mut self.shards {
                shard.part.get_mut().hot_keys = Some(MisraGries::new(capacity));
            }
        }
        self
    }

    /// The `top_k` heaviest key hashes seen by service operations, as
    /// `(key_hash, estimated_count)` sorted by descending count, ties by
    /// hash. Empty when tracking is off. Counts are Misra–Gries lower
    /// bounds, each from its owner's summary: the partitions track disjoint
    /// keys, so their reports are concatenated, not re-pruned.
    pub fn hot_keys(&self, top_k: usize) -> Vec<(u64, u64)> {
        let mut all: Vec<(u64, u64)> = Vec::new();
        for shard in &self.shards {
            if let Some(mg) = &shard.part.lock().hot_keys {
                all.extend(mg.items().map(|(&hash, count)| (hash, count)));
            }
        }
        all.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        all.truncate(top_k);
        all
    }

    /// The topology this table is partitioned over.
    #[inline]
    pub fn topo(&self) -> &Topology {
        &self.route.topo
    }

    /// Logical payload bytes accounted per transferred entry (key + value
    /// size estimate). Batched reads and writes charge `n * entry_bytes`
    /// per shipped buffer so bandwidth totals match the fine-grained path.
    #[inline]
    pub fn entry_bytes(&self) -> u64 {
        self.route.entry_bytes
    }

    /// The 64-bit hash behind uniform ownership and the hot-key summary
    /// (stable across tables, ranks and runs).
    #[inline]
    pub fn key_hash(&self, key: &K) -> u64 {
        self.route.key_hash(key)
    }

    /// The rank owning `key`.
    ///
    /// An owner function's result is range-checked with a **release-mode**
    /// assert, so a bogus owner fails naming the table's size instead of as
    /// a bare index panic deep inside an operation — the same rationale as
    /// `Topology::chunk`'s release bounds check.
    #[inline]
    pub fn owner(&self, key: &K) -> usize {
        self.route.owner(key)
    }

    /// Take `owner`'s partition lock. A failed `try_lock` first counts one
    /// lock wait against the owner (drained into
    /// [`CommStats::lock_waits`](crate::CommStats::lock_waits)) before
    /// blocking — the simulator's stand-in for the remote atomics HipMer's
    /// UPC tables contend on.
    #[inline]
    fn lock_shard(&self, owner: usize) -> parking_lot::MutexGuard<'_, Partition<K, V>> {
        let shard = &self.shards[owner];
        shard.part.try_lock().unwrap_or_else(|| {
            shard.lock_waits.fetch_add(1, Ordering::Relaxed);
            shard.part.lock()
        })
    }

    /// One-sided write; returns the previous value if any. Counts a service
    /// op at the owner.
    pub fn insert(&self, ctx: &mut RankCtx, key: K, value: V) -> Option<V> {
        let owner = self.owner(&key);
        self.route.account(ctx, owner);
        self.service[owner].fetch_add(1, Ordering::Relaxed);
        let mut part = self.lock_shard(owner);
        part.track_hot_key(|| self.key_hash(&key));
        part.map.insert(key, value)
    }

    /// One-sided upsert: create the entry with `default` if absent, then
    /// apply `f`. The fine-grained write every batched one is measured
    /// against.
    pub fn update<D, F>(&self, ctx: &mut RankCtx, key: K, default: D, f: F)
    where
        D: FnOnce() -> V,
        F: FnOnce(&mut V),
    {
        let owner = self.owner(&key);
        self.route.account(ctx, owner);
        self.service[owner].fetch_add(1, Ordering::Relaxed);
        let mut part = self.lock_shard(owner);
        part.track_hot_key(|| self.key_hash(&key));
        f(part.map.entry(key).or_insert_with(default));
    }

    /// Batched one-sided read of a table still being built: group `keys` by
    /// owner, ship **one** message per distinct owner, and return clones of
    /// the values in input-key order, each owner's partition locked once.
    /// It exists for the benchmark's multi-get microbench, which times this
    /// locked path; every pipeline read goes through
    /// [`FrozenMap::multi_get`], which bills the same.
    pub fn multi_get(&self, ctx: &mut RankCtx, keys: &[K]) -> Vec<Option<V>>
    where
        V: Clone,
    {
        let mut out: Vec<Option<V>> = Vec::with_capacity(keys.len());
        out.resize_with(keys.len(), || None);
        for (dest, group) in self.route.bill_multi_get(ctx, keys).into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let part = self.lock_shard(dest);
            for i in group {
                out[i] = part.map.get(&keys[i]).cloned();
            }
        }
        out
    }

    /// Apply a batch of items that arrived at `dest` as **one** aggregated
    /// message (see [`crate::Exchange`]) — the one batch-apply loop, run
    /// by `dest` itself; the sender has already accounted the message. `dest`'s partition is
    /// locked once and the items are applied straight from the caller's
    /// iterator, in its order: `occupied(slot, item)` where the key has an
    /// entry; where it has none, `vacant(item)` becomes the entry, or the
    /// item is **dropped** if `vacant` is `None`. The item type `U` is the
    /// sender's, not the table's: one byte of votes recorded into a tally in
    /// place, or `()` for insert-if-absent. Each item is one service op at
    /// the owner (and one hot-key observation when tracking is on), and
    /// every key must be owned by `dest`.
    pub fn apply_batch<U, O, C>(
        &self,
        dest: usize,
        items: impl IntoIterator<Item = (K, U)>,
        occupied: O,
        vacant: Option<C>,
    ) where
        O: Fn(&mut V, U),
        C: Fn(U) -> V,
    {
        let mut applied = 0u64;
        let mut part = self.lock_shard(dest);
        // Key hashes for the hot-key summary, observed after the loop: its
        // bookkeeping between two table probes would serialize the probes'
        // cache misses. Stays empty and unallocated while tracking is off.
        let mut tracked: Vec<u64> = Vec::new();
        for (k, item) in items {
            applied += 1;
            if part.hot_keys.is_some() {
                tracked.push(self.key_hash(&k));
            }
            match &vacant {
                None => {
                    if let Some(slot) = part.map.get_mut(&k) {
                        occupied(slot, item);
                    }
                }
                Some(create) => match part.map.entry(k) {
                    Entry::Occupied(mut e) => occupied(e.get_mut(), item),
                    Entry::Vacant(e) => {
                        e.insert(create(item));
                    }
                },
            }
        }
        if let Some(summary) = &mut part.hot_keys {
            tracked.into_iter().for_each(|hash| summary.observe(hash));
        }
        self.service[dest].fetch_add(applied, Ordering::Relaxed);
    }

    /// [`apply_batch`](Self::apply_batch) for items that are values: merge
    /// into the entry, or become it.
    ///
    /// `entries` is any owned sequence: a `Vec`, or the `drain(..)` of a
    /// sender's per-destination buffer, which then keeps its capacity for
    /// the next batch. Entries are merged in sequence order under one lock,
    /// so the result equals a loop of [`update`](Self::update)s even for a
    /// merge that does not commute.
    pub fn merge_batch<M>(&self, dest: usize, entries: impl IntoIterator<Item = (K, V)>, merge: M)
    where
        M: Fn(&mut V, V),
    {
        self.apply_batch(dest, entries, merge, Some(|v| v));
    }

    /// Total entries across all shards (collective metadata; not counted).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.part.lock().map.len()).sum()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.part.lock().map.is_empty())
    }

    /// Move each partition owner's tallies into the per-rank stats vector
    /// collected from a finished phase: the service work and lock waits
    /// accumulated since the last drain (both reset), and the partition's
    /// current entry count ([`CommStats::table_entries`](crate::CommStats)).
    pub fn drain_service_into(&self, stats: &mut [crate::CommStats]) {
        assert_eq!(stats.len(), self.topo().ranks());
        for ((s, shard), service) in stats.iter_mut().zip(&self.shards).zip(&self.service) {
            s.service_ops += service.swap(0, Ordering::Relaxed);
            s.lock_waits += shard.lock_waits.swap(0, Ordering::Relaxed);
            s.table_entries += shard.part.lock().map.len() as u64;
        }
    }

    /// Bulk-load entries into their owner shards, **without** touching any
    /// counters or service tallies — the checkpoint-restore path, whose I/O
    /// cost is accounted by the resume machinery as a `checkpoint/load-*`
    /// phase instead of as table traffic.
    pub fn preload(&self, entries: impl IntoIterator<Item = (K, V)>) {
        for (k, v) in entries {
            let owner = self.owner(&k);
            self.shards[owner].part.lock().map.insert(k, v);
        }
    }

    /// Consume the table, yielding every entry (for tests / final output).
    pub fn into_entries(self) -> Vec<(K, V)> {
        let mut out = Vec::new();
        for shard in self.shards {
            out.extend(shard.part.into_inner().map);
        }
        out
    }

    /// Snapshot of the per-rank partition sizes (load-balance diagnostics).
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.part.lock().map.len())
            .collect()
    }

    /// End the build: move each partition's map out of its lock into a
    /// [`FrozenMap`] with the same owner function. Drain the build phase's
    /// tallies ([`drain_service_into`](Self::drain_service_into)) first;
    /// the hot-key summaries are dropped.
    pub fn freeze(self) -> FrozenMap<K, V> {
        FrozenMap {
            route: self.route,
            parts: (self.shards.into_iter())
                .map(|shard| shard.part.into_inner().map)
                .collect(),
        }
    }
}

/// A [`DistHashMap`] after its build phase ([`DistHashMap::freeze`]): the
/// same per-owner maps and owner function, read through `&self` with no
/// lock. Reads return references into the table, and every access is
/// billed through [`RankCtx::comm`] exactly as the locked table billed it,
/// so message, byte and fault-injection counts do not depend on which of
/// the two a phase reads.
///
/// The one value HipMer writes after a build, a graph vertex's claim flag,
/// is an atomic inside the value (`hipmer_contig::GraphNode::visited`).
pub struct FrozenMap<K, V> {
    route: Routing<K>,
    /// One map per rank, indexed by owner.
    parts: Vec<HashMap<K, V, KmerBuildHasher>>,
}

impl<K: Hash + Eq, V> FrozenMap<K, V> {
    /// The topology this table is partitioned over.
    #[inline]
    pub fn topo(&self) -> &Topology {
        &self.route.topo
    }

    /// See [`DistHashMap::entry_bytes`].
    #[inline]
    pub fn entry_bytes(&self) -> u64 {
        self.route.entry_bytes
    }

    /// The rank owning `key`: the owner function the table was built with.
    #[inline]
    pub fn owner(&self, key: &K) -> usize {
        self.route.owner(key)
    }

    /// One-sided read.
    pub fn get(&self, ctx: &mut RankCtx, key: &K) -> Option<&V> {
        let owner = self.owner(key);
        self.route.account(ctx, owner);
        self.parts[owner].get(key)
    }

    /// Answer a batch of lookups that arrived as **one** multi-get message
    /// (see [`crate::LookupBatch`] / [`multi_get`](Self::multi_get)). The
    /// caller has already accounted the message; like [`get`](Self::get),
    /// this tallies **no** service ops, so converting a loop of `get`s into
    /// one `fetch_batch` leaves every counter except the message count
    /// unchanged. Every key must be owned by `dest` (checked in debug
    /// builds); `dest`'s map is probed in input order.
    pub fn fetch_batch(&self, dest: usize, keys: &[&K]) -> Vec<Option<&V>> {
        let part = &self.parts[dest];
        keys.iter()
            .map(|k| {
                debug_assert_eq!(self.owner(k), dest, "fetch_batch key not owned by dest");
                part.get(k)
            })
            .collect()
    }

    /// Batched one-sided read: group `keys` by owner, ship **one** message
    /// per distinct owner (bytes accounted in full — `group_len *
    /// entry_bytes` — mirroring [`crate::Outbox`] semantics), and return the
    /// values in input-key order.
    ///
    /// Results equal `keys.iter().map(|k| self.get(ctx, k))`; only the
    /// accounting differs: per-message latency is divided by the group
    /// size, bandwidth is not saved, and
    /// [`CommStats::lookup_batches`](crate::CommStats::lookup_batches) is
    /// incremented once per shipped group. For streaming call sites that
    /// cannot collect keys up front, use [`crate::LookupBatch`].
    pub fn multi_get(&self, ctx: &mut RankCtx, keys: &[K]) -> Vec<Option<&V>> {
        let mut out: Vec<Option<&V>> = vec![None; keys.len()];
        for (dest, group) in self.route.bill_multi_get(ctx, keys).into_iter().enumerate() {
            for i in group {
                out[i] = self.parts[dest].get(&keys[i]);
            }
        }
        out
    }

    /// Iterate the acting rank's own partition, counting one local op per
    /// entry (each rank post-processing its local buckets is a standard
    /// phase in the paper: link assessment, depth summation, ...).
    pub fn fold_local<T, F>(&self, ctx: &mut RankCtx, init: T, mut f: F) -> T
    where
        F: FnMut(T, &K, &V) -> T,
    {
        let part = &self.parts[ctx.rank];
        ctx.stats.local_ops += part.len() as u64;
        part.iter().fold(init, |acc, (k, v)| f(acc, k, v))
    }

    /// The acting rank's own partition for a seed scan, charging only
    /// compute: a linear pass over local memory whose per-entry cost is a
    /// flag check, not a table operation.
    pub fn scan_local(&self, ctx: &mut RankCtx) -> impl ExactSizeIterator<Item = (&K, &V)> {
        let part = &self.parts[ctx.rank];
        ctx.stats.compute(part.len() as u64);
        part.iter()
    }

    /// Every entry across all partitions, **without** touching any counters
    /// — a collective metadata operation, used by the checkpoint writer,
    /// which prices the traffic as checkpoint I/O instead.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.parts.iter().flatten()
    }

    /// Total entries across all partitions (collective metadata; not
    /// counted).
    pub fn len(&self) -> usize {
        self.parts.iter().map(HashMap::len).sum()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.parts.iter().all(HashMap::is_empty)
    }

    /// The per-rank partition sizes (load-balance diagnostics).
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.parts.iter().map(HashMap::len).collect()
    }

    /// Add each partition's entry count to its owner's
    /// [`CommStats::table_entries`](crate::CommStats) in the stats of a
    /// phase that read this table. A frozen table serves no writes and
    /// takes no lock, so there are no service ops or lock waits to move.
    pub fn record_entries(&self, stats: &mut [crate::CommStats]) {
        assert_eq!(stats.len(), self.topo().ranks());
        for (s, part) in stats.iter_mut().zip(&self.parts) {
            s.table_entries += part.len() as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(rank: usize, topo: Topology) -> RankCtx {
        RankCtx::new(rank, topo)
    }

    #[test]
    fn insert_get_roundtrip() {
        let topo = Topology::new(4, 2);
        let dht: DistHashMap<u64, String> = DistHashMap::new(topo);
        let mut c = ctx(0, topo);
        assert_eq!(dht.insert(&mut c, 42, "hello".into()), None);
        assert_eq!(dht.len(), 1);
        let frozen = dht.freeze();
        assert_eq!(frozen.get(&mut c, &42).map(String::as_str), Some("hello"));
        assert_eq!(frozen.get(&mut c, &43), None);
        assert_eq!(frozen.len(), 1);
    }

    #[test]
    fn owner_is_stable_and_in_range() {
        let topo = Topology::new(7, 3);
        let dht: DistHashMap<u64, u32> = DistHashMap::new(topo);
        for key in 0..1000u64 {
            let o = dht.owner(&key);
            assert!(o < 7);
            assert_eq!(o, dht.owner(&key));
        }
    }

    #[test]
    fn comm_accounting_matches_owner_locality() {
        let topo = Topology::new(48, 24);
        let dht: DistHashMap<u64, u32> = DistHashMap::new(topo);
        let mut c = ctx(0, topo);
        // Find keys owned locally / on node 0 / off node.
        let local_key = (0..).find(|k| dht.owner(k) == 0).unwrap();
        let onnode_key = (0..).find(|k| (1..24).contains(&dht.owner(k))).unwrap();
        let offnode_key = (0..).find(|k| dht.owner(k) >= 24).unwrap();
        dht.insert(&mut c, local_key, 1);
        dht.insert(&mut c, onnode_key, 2);
        dht.insert(&mut c, offnode_key, 3);
        assert_eq!(c.stats.local_ops, 1);
        assert_eq!(c.stats.onnode_msgs, 1);
        assert_eq!(c.stats.offnode_msgs, 1);
    }

    #[test]
    fn update_upserts() {
        let topo = Topology::new(2, 2);
        let dht: DistHashMap<u64, u32> = DistHashMap::new(topo);
        let mut c = ctx(1, topo);
        dht.update(&mut c, 5, || 0, |v| *v += 10);
        dht.update(&mut c, 5, || 0, |v| *v += 10);
        assert_eq!(dht.freeze().get(&mut c, &5), Some(&20));
    }

    #[test]
    fn service_ops_attributed_to_owner() {
        let topo = Topology::new(4, 2);
        let dht: DistHashMap<u64, u32> = DistHashMap::new(topo);
        let mut c = ctx(0, topo);
        // Insert many keys; service ops land at owners, not at rank 0.
        for k in 0..100 {
            dht.insert(&mut c, k, 0);
        }
        let mut stats = vec![crate::CommStats::new(); 4];
        dht.drain_service_into(&mut stats);
        let total: u64 = stats.iter().map(|s| s.service_ops).sum();
        assert_eq!(total, 100);
        // And the counters reset.
        let mut again = vec![crate::CommStats::new(); 4];
        dht.drain_service_into(&mut again);
        assert!(again.iter().all(|s| s.service_ops == 0));
    }

    #[test]
    fn fold_local_only_touches_own_shard() {
        let topo = Topology::new(4, 2);
        let dht: DistHashMap<u64, u32> = DistHashMap::new(topo);
        let mut c0 = ctx(0, topo);
        for k in 0..200 {
            dht.insert(&mut c0, k, 1);
        }
        let frozen = dht.freeze();
        let mut seen = 0usize;
        for rank in 0..4 {
            let mut c = ctx(rank, topo);
            let mine = frozen.fold_local(&mut c, 0usize, |acc, k, _| {
                assert_eq!(frozen.owner(k), rank);
                acc + 1
            });
            assert_eq!(c.stats.local_ops, mine as u64);
            seen += mine;
        }
        assert_eq!(seen, 200);
    }

    #[test]
    fn owner_function_is_respected() {
        let topo = Topology::new(4, 2);
        // Everything on rank 3.
        let dht: DistHashMap<u64, u32> = DistHashMap::with_owner(topo, |_| 3);
        let mut c = ctx(0, topo);
        for k in 0..50 {
            dht.insert(&mut c, k, 0);
        }
        assert_eq!(dht.shard_sizes(), vec![0, 0, 0, 50]);
    }

    #[test]
    fn out_of_range_owner_is_rejected_in_release_builds_too() {
        // The check must be a real assert, not a debug_assert (this test
        // runs under `--release` in the bench/CI configurations as well).
        // `ranks` itself is the smallest bad owner.
        let topo = Topology::new(4, 2);
        let dht: DistHashMap<u64, u32> = DistHashMap::with_owner(topo, |_| 4);
        let mut c = ctx(0, topo);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dht.insert(&mut c, 1, 1);
        }))
        .expect_err("out-of-range owner must panic even with debug_asserts off");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap_or(&"").to_string());
        assert!(
            msg.contains("owner function returned rank 4 for a table of 4 ranks"),
            "unexpected panic message: {msg}"
        );
    }

    #[test]
    fn owner_function_is_evaluated_once_per_point_op() {
        let topo = Topology::new(4, 2);
        let calls = std::sync::Arc::new(AtomicU64::new(0));
        let counter = std::sync::Arc::clone(&calls);
        let dht: DistHashMap<u64, u32> = DistHashMap::with_owner(topo, move |_k| {
            counter.fetch_add(1, Ordering::Relaxed);
            3
        });
        let mut c = ctx(0, topo);
        // Every point operation routes with exactly one owner evaluation.
        let mut expect_one_call = |what: &str, op: &mut dyn FnMut(&mut RankCtx)| {
            let before = calls.load(Ordering::Relaxed);
            op(&mut c);
            assert_eq!(calls.load(Ordering::Relaxed) - before, 1, "{what}");
        };
        expect_one_call("insert", &mut |c| assert_eq!(dht.insert(c, 7, 0), None));
        expect_one_call("update", &mut |c| dht.update(c, 8, || 0, |v| *v += 1));
        // Batched reads agree with the function, before and after freezing.
        for k in 0..256u64 {
            dht.insert(&mut c, k, 0);
        }
        assert_eq!(dht.shard_sizes(), vec![0, 0, 0, 256]);
        assert_eq!(dht.multi_get(&mut c, &[1, 2, 3]), vec![Some(0); 3]);
        let frozen = dht.freeze();
        let before = calls.load(Ordering::Relaxed);
        assert_eq!(frozen.get(&mut c, &7), Some(&0));
        assert_eq!(calls.load(Ordering::Relaxed) - before, 1, "frozen get");
        assert_eq!(frozen.shard_sizes(), vec![0, 0, 0, 256]);
        assert_eq!(frozen.multi_get(&mut c, &[1, 2, 3]), vec![Some(&0); 3]);
    }

    #[test]
    fn owner_function_keeps_grouped_keys_on_one_owner() {
        // Keys bucketed by key/8: every group of 8 consecutive keys shares
        // an owner — the shape of an oracle's contig slots — and
        // preload/drain respect it.
        let topo = Topology::new(8, 4);
        let build =
            || -> DistHashMap<u64, u32> { DistHashMap::with_owner(topo, |k| (k / 8 % 8) as usize) };
        let dht = build();
        let mut c = ctx(0, topo);
        for k in 0..640u64 {
            dht.insert(&mut c, k, k as u32);
        }
        for group in 0..80u64 {
            let owners: std::collections::HashSet<usize> =
                (group * 8..group * 8 + 8).map(|k| dht.owner(&k)).collect();
            assert_eq!(owners.len(), 1, "group {group} split across owners");
        }
        // preload places by the same owner function.
        let restored = build();
        let sizes = dht.shard_sizes();
        restored.preload(dht.into_entries());
        assert_eq!(restored.shard_sizes(), sizes);
    }

    #[test]
    fn uniform_and_oracle_tables_keep_their_owners() {
        // Digests of `owner(key)` over 10 000 random 31-mers, taken at the
        // commit before ownership became one closure (when it was a
        // placement over a locality hash): the refactor moved no key.
        use crate::OracleVector;
        use hipmer_dna::{Kmer, KmerCodec};
        let k = 31;
        let codec = KmerCodec::new(k);
        let topo = Topology::new(16, 8);
        let mut x = 0x9e3779b97f4a7c15u64;
        let kmers: Vec<Kmer> = (0..10_000)
            .map(|_| {
                let seq: Vec<u8> = (0..k)
                    .map(|_| {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        b"ACGT"[(x >> 62) as usize]
                    })
                    .collect();
                codec.canonical(codec.pack(&seq).unwrap())
            })
            .collect();
        // (FNV-style digest of all owners, the first six owners).
        let owners = |t: &DistHashMap<Kmer, u32>| -> (u64, Vec<usize>) {
            let all: Vec<usize> = kmers.iter().map(|km| t.owner(km)).collect();
            let digest = all.iter().fold(0xcbf29ce484222325u64, |d, &o| {
                d.wrapping_mul(0x100000001b3) ^ o as u64
            });
            (digest, all[..6].to_vec())
        };

        let uniform = DistHashMap::new(topo);
        assert_eq!(
            owners(&uniform),
            (0xbd50dbfff5db97f9, vec![7, 4, 0, 5, 10, 10])
        );
        // Half the keys claim oracle slots (with collisions); the rest fall
        // back to uniform ownership.
        let mut oracle = OracleVector::new(4096, 16);
        for (i, km) in kmers.iter().take(5_000).enumerate() {
            oracle.assign(uniform.key_hash(km), i % 16);
        }
        let routed = std::sync::Arc::new(oracle).table(topo);
        assert_eq!(
            owners(&routed),
            (0xeaba6ee1441f1650, vec![0, 1, 2, 3, 4, 5])
        );
    }

    #[test]
    fn merge_batch_applies_and_counts_service() {
        let topo = Topology::new(2, 2);
        let dht: DistHashMap<u64, u32> = DistHashMap::new(topo);
        let mut c = ctx(0, topo);
        dht.insert(&mut c, 1000, 5);
        let dest = dht.owner(&1000);
        dht.merge_batch(dest, vec![(1000, 7)], |a, b| *a += b);
        let mut stats = vec![crate::CommStats::new(); 2];
        dht.drain_service_into(&mut stats);
        assert_eq!(stats[dest].service_ops, 2); // insert + merged entry
        assert_eq!(dht.freeze().get(&mut c, &1000), Some(&12));
    }

    #[test]
    fn apply_batch_occupied_vacant_and_existing_only() {
        // Items are not values: a `u8` code lands in a `Vec<u8>` log.
        let topo = Topology::new(2, 2);
        let dht: DistHashMap<u64, Vec<u8>> = DistHashMap::new(topo);
        let owned: Vec<u64> = (0..64).filter(|k| dht.owner(k) == 1).collect();
        let (a, b, c) = (owned[0], owned[1], owned[2]);
        let push = |log: &mut Vec<u8>, code: u8| log.push(code);

        // With `vacant`: the first item of a key creates the entry from the
        // item, later ones go through `occupied`, in batch order.
        let batch = vec![(a, 1u8), (b, 2), (a, 3), (a, 4)];
        dht.apply_batch(1, batch, push, Some(|code: u8| vec![100 + code]));
        // Without: items for absent keys are dropped, present ones applied.
        let batch = vec![(c, 5u8), (b, 6), (c, 7)];
        dht.apply_batch(1, batch, push, None::<fn(u8) -> Vec<u8>>);
        // Insert-if-absent, the Bloom pass's shape: unit items, an
        // `occupied` that leaves the entry alone.
        let batch = [a, c].map(|k| (k, ()));
        dht.apply_batch(1, batch, |_, ()| {}, Some(|()| vec![0]));

        // One service op per item shipped — dropped or not — at the owner.
        let mut stats = vec![crate::CommStats::new(); 2];
        dht.drain_service_into(&mut stats);
        assert_eq!((stats[0].service_ops, stats[1].service_ops), (0, 4 + 3 + 2));
        let mut got = dht.into_entries();
        got.sort();
        let mut want = vec![(a, vec![101, 3, 4]), (b, vec![102, 6]), (c, vec![0])];
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn merge_batch_equals_sequential_updates_in_input_order() {
        // Appending is not commutative, so any reordering of same-key (or,
        // through the shared log, different-key) entries would show.
        let topo = Topology::new(2, 2);
        let batched: DistHashMap<u64, String> = DistHashMap::new(topo);
        let reference: DistHashMap<u64, String> = DistHashMap::new(topo);
        let mut c = ctx(0, topo);
        let owned: Vec<u64> = (0..64).filter(|k| batched.owner(k) == 1).collect();
        let batch: Vec<(u64, String)> = (0..500usize)
            .map(|i| (owned[(i * 7) % owned.len()], format!("{i},")))
            .collect();
        let log = Mutex::new(Vec::new());
        batched.merge_batch(1, batch.clone(), |a: &mut String, b: String| {
            log.lock().push(b.clone());
            a.push_str(&b);
        });
        for (k, v) in batch.clone() {
            reference.update(&mut c, k, String::new, |s| s.push_str(&v));
        }
        assert_eq!(
            batched.multi_get(&mut c, &owned),
            reference.multi_get(&mut c, &owned)
        );
        // Merges ran in batch order across keys, not just within one key.
        let merged = log.into_inner();
        let mut seen = std::collections::HashSet::new();
        let expect: Vec<String> = batch
            .iter()
            .filter(|(k, _)| !seen.insert(*k))
            .map(|(_, v)| v.clone())
            .collect();
        assert_eq!(merged, expect);

        // Without a `vacant` arm absent keys are dropped (the second-pass
        // counting semantics of §3.1) and the order is kept.
        let absent = (64..).find(|k| batched.owner(k) == 1).unwrap();
        let second = vec![
            (owned[0], "x".to_string()),
            (absent, "dropped".to_string()),
            (owned[0], "y".to_string()),
        ];
        let append = |a: &mut String, b: String| a.push_str(&b);
        batched.apply_batch(1, second, append, None::<fn(String) -> String>);
        let batched = batched.freeze();
        assert_eq!(batched.get(&mut c, &absent), None);
        assert!(batched.get(&mut c, &owned[0]).unwrap().ends_with("xy"));
    }

    #[test]
    fn fetch_batch_equals_per_key_get_in_input_order() {
        let topo = Topology::new(2, 2);
        let dht: DistHashMap<u64, u32> = DistHashMap::new(topo);
        let mut c = ctx(0, topo);
        // Even keys of rank 0 are present, odd ones are misses.
        let owned: Vec<u64> = (0..400).filter(|k| dht.owner(k) == 0).collect();
        for &k in owned.iter().filter(|&&k| k % 2 == 0) {
            dht.insert(&mut c, k, k as u32 * 3);
        }
        let dht = dht.freeze();
        // Duplicates, interleaved: forward then backward over the same keys.
        let probes: Vec<u64> = owned.iter().chain(owned.iter().rev()).copied().collect();
        let refs: Vec<&u64> = probes.iter().collect();
        let expect: Vec<Option<&u32>> = probes.iter().map(|k| dht.get(&mut c, k)).collect();
        assert_eq!(dht.fetch_batch(0, &refs), expect);
        assert!(expect.iter().any(Option::is_none) && expect.iter().any(Option::is_some));
        assert_eq!(dht.fetch_batch(0, &[]), Vec::<Option<&u32>>::new());
    }

    #[test]
    fn frozen_reads_bill_like_locked_reads() {
        // Freezing moves the maps, keeps the owner function, and leaves every
        // counter of a batched read where the locked table put it.
        let topo = Topology::new(6, 3);
        let dht: DistHashMap<u64, u32> = DistHashMap::with_owner(topo, |k| (k % 5) as usize);
        let mut setup = ctx(0, topo);
        for k in (0..300u64).step_by(3) {
            dht.insert(&mut setup, k, k as u32 * 7);
        }
        let probes: Vec<u64> = (0..200).collect();
        let (mut locked, mut frozen) = (ctx(4, topo), ctx(4, topo));
        let want = dht.multi_get(&mut locked, &probes);
        let sizes = dht.shard_sizes();
        let table = dht.freeze();
        let got: Vec<Option<u32>> = table
            .multi_get(&mut frozen, &probes)
            .into_iter()
            .map(Option::<&u32>::copied)
            .collect();
        assert_eq!(got, want);
        assert_eq!(frozen.stats, locked.stats);
        assert_eq!(table.shard_sizes(), sizes);
        assert_eq!(sizes[5], 0, "owner function kept");
        // Entry counts land on their owners; nothing else moves.
        let mut stats = vec![crate::CommStats::new(); 6];
        table.record_entries(&mut stats);
        let entries: Vec<u64> = stats.iter().map(|s| s.table_entries).collect();
        assert_eq!(entries, sizes.iter().map(|&n| n as u64).collect::<Vec<_>>());
        assert!(stats
            .iter()
            .all(|s| s.lock_waits == 0 && s.service_ops == 0));
    }

    #[test]
    fn hot_key_tracking_is_per_table() {
        // A plain table (or one built with capacity 0) tracks nothing; one
        // built `with_hot_keys` names the heavy hitter.
        let topo = Topology::new(4, 2);
        let off: DistHashMap<u64, u32> = DistHashMap::new(topo).with_hot_keys(0);
        let dht: DistHashMap<u64, u32> = DistHashMap::new(topo).with_hot_keys(16);
        let mut c = ctx(0, topo);
        // One ultra-frequent key among a uniform background, and a second,
        // half as hot, on another owner: each lands in its own partition's
        // summary and the report ranks them together.
        let second = (0..).find(|k| dht.owner(k) != dht.owner(&7777)).unwrap();
        for i in 0..500u64 {
            for t in [&off, &dht] {
                t.update(&mut c, 7777, || 0, |v| *v += 1);
                t.update(&mut c, 1000 + i, || 0, |v| *v += 1);
                if i % 2 == 0 {
                    t.merge_batch(t.owner(&second), [(second, 1)], |a, b| *a += b);
                }
            }
        }
        assert!(off.hot_keys(10).is_empty());
        let hot = dht.hot_keys(3);
        assert_eq!(hot.len(), 3);
        assert_eq!(hot[0].0, dht.key_hash(&7777));
        assert!(hot[0].1 > 100, "count {} too low", hot[0].1);
        assert_eq!(hot[1].0, dht.key_hash(&second));
        assert!(hot[1].1 > 50 && hot[1].1 <= 250, "count {}", hot[1].1);
        for w in hot.windows(2) {
            assert!(w[0].1 >= w[1].1, "sorted descending");
        }
    }

    #[test]
    fn preload_bypasses_counters() {
        let topo = Topology::new(4, 2);
        let dht: DistHashMap<u64, u32> = DistHashMap::new(topo);
        let mut c = ctx(0, topo);
        for k in 0..100 {
            dht.insert(&mut c, k, (k * 2) as u32);
        }
        let sizes = dht.shard_sizes();
        let entries = dht.into_entries();
        assert_eq!(entries.len(), 100);

        let restored: DistHashMap<u64, u32> = DistHashMap::new(topo);
        let mut c2 = ctx(1, topo);
        restored.preload(entries);
        // No accesses, no service ops were recorded.
        assert_eq!(c2.stats.total_accesses(), 0);
        let mut stats = vec![crate::CommStats::new(); 4];
        restored.drain_service_into(&mut stats);
        assert!(stats.iter().all(|s| s.service_ops == 0));
        // But the data round-tripped, landing on the same owners.
        assert_eq!(restored.shard_sizes(), sizes);
        assert_eq!(restored.freeze().get(&mut c2, &7), Some(&14));
    }

    #[test]
    fn drained_stats_capture_occupancy_and_contention() {
        let topo = Topology::new(4, 2);
        // All keys on rank 3.
        let dht: DistHashMap<u64, u32> = DistHashMap::with_owner(topo, |_| 3);
        let mut c = ctx(0, topo);
        for k in 0..80 {
            dht.insert(&mut c, k, 0);
        }

        // Contention: hold rank 3's partition lock while another thread
        // inserts. The insert's try_lock fails and counts the wait *before*
        // blocking, so we can watch the tally and then release.
        let shard = &dht.shards[3];
        let held = shard.part.lock();
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut c2 = RankCtx::new(1, topo);
                dht.insert(&mut c2, 0, 9); // blocks until `held` drops
            });
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
            while shard.lock_waits.load(Ordering::Relaxed) == 0 {
                assert!(
                    std::time::Instant::now() < deadline,
                    "blocked insert never counted a lock wait"
                );
                std::thread::yield_now();
            }
            drop(held);
        });

        let mut stats = vec![crate::CommStats::new(); 4];
        dht.drain_service_into(&mut stats);
        let total = crate::stats::total(&stats);
        assert_eq!(total.table_entries, 80);
        assert_eq!(stats[3].table_entries, 80, "max partition = the one owner");
        assert!(stats[3].lock_waits >= 1, "blocked insert must count a wait");
        assert_eq!(
            total.lock_waits, stats[3].lock_waits,
            "waits go to the owner"
        );

        // Waits reset with the drain; occupancy is read afresh each time.
        let mut again = vec![crate::CommStats::new(); 4];
        dht.drain_service_into(&mut again);
        assert_eq!((again[3].lock_waits, again[3].table_entries), (0, 80));
    }

    #[test]
    fn cyclic_placement_is_roughly_balanced() {
        let topo = Topology::new(16, 8);
        let dht: DistHashMap<u64, ()> = DistHashMap::new(topo);
        let mut c = ctx(0, topo);
        for k in 0..16_000u64 {
            dht.insert(&mut c, k, ());
        }
        let sizes = dht.shard_sizes();
        let expect = 1000.0;
        for (rank, &s) in sizes.iter().enumerate() {
            let dev = (s as f64 - expect).abs() / expect;
            assert!(dev < 0.25, "rank {rank} has {s} entries (expect ~1000)");
        }
    }
}
