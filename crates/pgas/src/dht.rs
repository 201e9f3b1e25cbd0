//! The distributed hash table — the heart of HipMer (§7 of the paper:
//! "distributed hash tables lie in the heart of HipMer and the main
//! operations on them are irregular lookups").
//!
//! Keys are assigned to an **owner rank** by the table's one owner function
//! (`key_hash % ranks` unless the table was built [`with_owner`]); each
//! rank owns exactly one partition — one map under one lock, as each UPC
//! thread does in the paper — and every operation holds at most one
//! partition lock (see DESIGN.md §12). Every access is billed to the
//! *acting* rank's [`CommStats`] as local, on-node, or off-node — exactly
//! the accounting Tables 1–2 of the paper report. Work applied to a
//! partition is additionally tallied as `service_ops` against its owner,
//! which is where heavy-hitter load imbalance (Fig. 6) becomes visible.
//!
//! Every table in HipMer is built in one phase and only read after it. A
//! [`DistHashMap`] is the build side; [`DistHashMap::freeze`] ends the
//! build and yields a [`FrozenMap`]: the same partitions and owner
//! function, read through `&self` with no lock, each access billed exactly
//! as before. Nothing can write a frozen table, so no reader needs to
//! check that nothing did. A phase that reads many keys collects them
//! and calls [`FrozenMap::multi_get`], the one batched read: one message
//! per owner, bytes in full.
//!
//! A table is built through an [`Exchange`](crate::Exchange): the sender
//! bills each batch, and the owner applies it to its own partition with
//! [`apply_batch`](DistHashMap::apply_batch) (or
//! [`merge_batch`](DistHashMap::merge_batch)) in the next superstep. One
//! thread then writes each partition, in an order that depends on the
//! input and the rank count only. The only other writer is the checkpoint
//! restore, [`preload`](DistHashMap::preload). The partition lock stays
//! because the benchmark's microbenches merge into every partition from
//! every rank.
//!
//! [`CommStats`]: crate::stats::CommStats
//! [`with_owner`]: DistHashMap::with_owner

use crate::team::RankCtx;
use crate::topology::Topology;
use hipmer_dna::KmerBuildHasher;
use parking_lot::Mutex;
use std::collections::hash_map::{Entry, HashMap};
use std::hash::{BuildHasher, Hash};

/// What one partition lock guards: the owner's entries and the service
/// operations applied to them.
struct Partition<K, V> {
    map: HashMap<K, V, KmerBuildHasher>,
    /// Items applied here since the last
    /// [`DistHashMap::drain_service_into`].
    service_ops: u64,
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
    parts: Vec<Mutex<Partition<K, V>>>,
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
            parts: (0..ranks)
                .map(|_| {
                    Mutex::new(Partition {
                        map: HashMap::default(),
                        service_ops: 0,
                    })
                })
                .collect(),
        }
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

    /// The 64-bit hash behind uniform ownership (stable across tables, ranks
    /// and runs); the sketch phase names its hot keys by it.
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
            let part = self.parts[dest].lock();
            for i in group {
                out[i] = part.map.get(&keys[i]).cloned();
            }
        }
        out
    }

    /// Apply a batch of items that arrived at `dest` as **one** aggregated
    /// message (see [`crate::Exchange`]) — the one batch-apply loop, run
    /// by `dest` itself; the sender has already accounted the message.
    /// `dest`'s partition is locked once and the items are applied straight
    /// from the caller's iterator, in its order: `occupied(slot, item)`
    /// where the key has an entry; where it has none, `vacant(key, item)`
    /// returns the entry to create, or `None` to **decline** the item. The
    /// item type `U` is the sender's, not the table's: one byte of votes
    /// recorded into a tally in place, or `()` for insert-if-absent. Every
    /// key must be owned by `dest`.
    ///
    /// Each item recorded into an entry or made one is one service op at
    /// the owner. A declined item is not: the callback has taken it over,
    /// and a caller that settles it later (applies it again, or drops it)
    /// bills it then. A declined item never grows the table, so the table
    /// ends with the capacity, and the iteration order, it would have had
    /// if the item had never been offered.
    pub fn apply_batch<U, O, C>(
        &self,
        dest: usize,
        items: impl IntoIterator<Item = (K, U)>,
        occupied: O,
        mut vacant: C,
    ) where
        O: Fn(&mut V, U),
        C: FnMut(&K, U) -> Option<V>,
    {
        let mut applied = 0u64;
        let mut part = self.parts[dest].lock();
        for (k, item) in items {
            debug_assert_eq!(self.owner(&k), dest, "apply_batch key not owned by dest");
            // `entry` makes room for one more entry before it returns a
            // vacant one: on a full table, look the key up first so that
            // a declined item cannot grow it.
            if part.map.len() < part.map.capacity() {
                match part.map.entry(k) {
                    Entry::Occupied(mut e) => occupied(e.get_mut(), item),
                    Entry::Vacant(e) => match vacant(e.key(), item) {
                        Some(v) => {
                            e.insert(v);
                        }
                        None => continue,
                    },
                }
            } else if let Some(slot) = part.map.get_mut(&k) {
                occupied(slot, item);
            } else {
                match vacant(&k, item) {
                    Some(v) => part.map.insert(k, v),
                    None => continue,
                };
            }
            applied += 1;
        }
        part.service_ops += applied;
    }

    /// [`apply_batch`](Self::apply_batch) for items that are values: merge
    /// into the entry, or become it.
    ///
    /// `entries` is any owned sequence: a `Vec`, or the `drain(..)` of a
    /// sender's per-destination buffer, which then keeps its capacity for
    /// the next batch. Entries are merged in sequence order under one lock,
    /// so the result equals a sequential fold of the entries even for a
    /// merge that does not commute.
    pub fn merge_batch<M>(&self, dest: usize, entries: impl IntoIterator<Item = (K, V)>, merge: M)
    where
        M: Fn(&mut V, V),
    {
        self.apply_batch(dest, entries, merge, |_, v| Some(v));
    }

    /// Move each partition owner's tallies into the per-rank stats vector
    /// collected from a finished phase: the service work accumulated since
    /// the last drain (reset), and the partition's current entry count
    /// ([`CommStats::table_entries`](crate::CommStats)).
    pub fn drain_service_into(&self, stats: &mut [crate::CommStats]) {
        assert_eq!(stats.len(), self.topo().ranks());
        for (s, part) in stats.iter_mut().zip(&self.parts) {
            let mut part = part.lock();
            s.service_ops += std::mem::take(&mut part.service_ops);
            s.table_entries += part.map.len() as u64;
        }
    }

    /// Bulk-load entries into their owner partitions, **without** touching any
    /// counters or service tallies — the checkpoint-restore path, whose I/O
    /// cost is accounted by the resume machinery as a `checkpoint/load-*`
    /// phase instead of as table traffic.
    pub fn preload(&self, entries: impl IntoIterator<Item = (K, V)>) {
        for (k, v) in entries {
            let owner = self.owner(&k);
            self.parts[owner].lock().map.insert(k, v);
        }
    }

    /// End the build: move each partition's map out of its lock into a
    /// [`FrozenMap`] with the same owner function. Drain the build phase's
    /// tallies ([`drain_service_into`](Self::drain_service_into)) first;
    /// the hot-key summaries are dropped.
    pub fn freeze(self) -> FrozenMap<K, V> {
        FrozenMap {
            route: self.route,
            parts: (self.parts.into_iter())
                .map(|part| part.into_inner().map)
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

    /// One-sided read, billed as one message to the owner (subject to
    /// fault injection when the rank's team carries a [`crate::FaultPlan`]).
    pub fn get(&self, ctx: &mut RankCtx, key: &K) -> Option<&V> {
        let owner = self.owner(key);
        ctx.comm(&self.route.topo, owner, self.route.entry_bytes);
        self.parts[owner].get(key)
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
    /// incremented once per shipped group.
    pub fn multi_get(&self, ctx: &mut RankCtx, keys: &[K]) -> Vec<Option<&V>> {
        let mut out: Vec<Option<&V>> = vec![None; keys.len()];
        for (dest, group) in self.route.bill_multi_get(ctx, keys).into_iter().enumerate() {
            for i in group {
                out[i] = self.parts[dest].get(&keys[i]);
            }
        }
        out
    }

    /// The acting rank's own partition, charging one compute op per entry:
    /// a linear pass over local memory (each rank post-processing its local
    /// buckets is a standard phase in the paper: link assessment, bubble
    /// survivors, finalizing counts, ...), not a table operation per
    /// entry.
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
    /// phase that read this table. A frozen table serves no writes, so
    /// there are no service ops to move.
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
    fn preload_get_roundtrip() {
        let topo = Topology::new(4, 2);
        let dht: DistHashMap<u64, String> = DistHashMap::new(topo);
        let mut c = ctx(0, topo);
        dht.preload([(42, "hello".to_string())]);
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
        let dht: FrozenMap<u64, u32> = DistHashMap::new(topo).freeze();
        let mut c = ctx(0, topo);
        // Find keys owned locally / on node 0 / off node.
        let local_key = (0..).find(|k| dht.owner(k) == 0).unwrap();
        let onnode_key = (0..).find(|k| (1..24).contains(&dht.owner(k))).unwrap();
        let offnode_key = (0..).find(|k| dht.owner(k) >= 24).unwrap();
        for key in [local_key, onnode_key, offnode_key] {
            assert_eq!(dht.get(&mut c, &key), None);
        }
        assert_eq!(c.stats.local_ops, 1);
        assert_eq!(c.stats.onnode_msgs, 1);
        assert_eq!(c.stats.offnode_msgs, 1);
    }

    #[test]
    fn service_ops_attributed_to_owner() {
        let topo = Topology::new(4, 2);
        let dht: DistHashMap<u64, u32> = DistHashMap::new(topo);
        // Each applied item is a service op at its key's owner.
        for k in 0..100 {
            dht.merge_batch(dht.owner(&k), [(k, 0)], |a, b| *a += b);
        }
        let mut stats = vec![crate::CommStats::new(); 4];
        dht.drain_service_into(&mut stats);
        let total: u64 = stats.iter().map(|s| s.service_ops).sum();
        assert_eq!(total, 100);
        assert!(stats.iter().all(|s| s.service_ops > 0), "{stats:?}");
        // And the counters reset.
        let mut again = vec![crate::CommStats::new(); 4];
        dht.drain_service_into(&mut again);
        assert!(again.iter().all(|s| s.service_ops == 0));
    }

    #[test]
    fn scan_local_only_touches_own_shard() {
        let topo = Topology::new(4, 2);
        let dht: DistHashMap<u64, u32> = DistHashMap::new(topo);
        dht.preload((0..200).map(|k| (k, 1)));
        let frozen = dht.freeze();
        let mut seen = 0usize;
        for rank in 0..4 {
            let mut c = ctx(rank, topo);
            let mine = (frozen.scan_local(&mut c))
                .inspect(|(k, _)| assert_eq!(frozen.owner(k), rank))
                .count();
            assert_eq!(c.stats.compute_ops, mine as u64);
            assert_eq!(c.stats.local_ops, 0);
            seen += mine;
        }
        assert_eq!(seen, 200);
    }

    #[test]
    fn owner_function_is_respected() {
        let topo = Topology::new(4, 2);
        // Everything on rank 3.
        let dht: DistHashMap<u64, u32> = DistHashMap::with_owner(topo, |_| 3);
        dht.preload((0..50).map(|k| (k, 0)));
        assert_eq!(dht.freeze().shard_sizes(), vec![0, 0, 0, 50]);
    }

    #[test]
    fn out_of_range_owner_is_rejected_in_release_builds_too() {
        // The check must be a real assert, not a debug_assert (this test
        // runs under `--release` in the bench/CI configurations as well).
        // `ranks` itself is the smallest bad owner.
        let topo = Topology::new(4, 2);
        let dht: DistHashMap<u64, u32> = DistHashMap::with_owner(topo, |_| 4);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            dht.preload([(1, 1)]);
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
        use std::sync::atomic::{AtomicU64, Ordering};
        let topo = Topology::new(4, 2);
        let calls = std::sync::Arc::new(AtomicU64::new(0));
        let counter = std::sync::Arc::clone(&calls);
        let dht: DistHashMap<u64, u32> = DistHashMap::with_owner(topo, move |_k| {
            counter.fetch_add(1, Ordering::Relaxed);
            3
        });
        let mut c = ctx(0, topo);
        // Batched reads agree with the function, before and after freezing.
        dht.preload((0..256u64).map(|k| (k, 0)));
        assert_eq!(calls.load(Ordering::Relaxed), 256, "one call per entry");
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
        dht.preload((0..640u64).map(|k| (k, k as u32)));
        for group in 0..80u64 {
            let owners: std::collections::HashSet<usize> =
                (group * 8..group * 8 + 8).map(|k| dht.owner(&k)).collect();
            assert_eq!(owners.len(), 1, "group {group} split across owners");
        }
        // preload places by the same owner function.
        let dht = dht.freeze();
        let restored = build();
        restored.preload(dht.iter().map(|(&k, &v)| (k, v)));
        assert_eq!(restored.freeze().shard_sizes(), dht.shard_sizes());
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
        let dest = dht.owner(&1000);
        dht.merge_batch(dest, vec![(1000, 5)], |a, b| *a += b);
        dht.merge_batch(dest, vec![(1000, 7)], |a, b| *a += b);
        let mut stats = vec![crate::CommStats::new(); 2];
        dht.drain_service_into(&mut stats);
        assert_eq!(stats[dest].service_ops, 2); // created + merged entry
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
        dht.apply_batch(1, batch, push, |_, code| Some(vec![100 + code]));
        // Declining every vacant key: items for absent keys are dropped,
        // present ones applied.
        let batch = vec![(c, 5u8), (b, 6), (c, 7)];
        dht.apply_batch(1, batch, push, |_, _| None);
        // Insert-if-absent: unit items, an `occupied` that leaves the
        // entry alone.
        let batch = [a, c].map(|k| (k, ()));
        dht.apply_batch(1, batch, |_, ()| {}, |_, ()| Some(vec![0]));
        // The callback sees the key and may keep what it declines.
        let (d, e) = (owned[3], owned[4]);
        let mut declined = Vec::new();
        let batch = vec![(d, 8u8), (e, 9), (d, 10)];
        dht.apply_batch(1, batch, push, |&k, code| {
            if k == d {
                return Some(vec![code]);
            }
            declined.push((k, code));
            None
        });
        assert_eq!(declined, vec![(e, 9)]);

        // One service op per item recorded or made an entry, at the owner;
        // the three declined items are the callers' to bill.
        let mut stats = vec![crate::CommStats::new(); 2];
        dht.drain_service_into(&mut stats);
        assert_eq!(
            (stats[0].service_ops, stats[1].service_ops),
            (0, 4 + 1 + 2 + 2)
        );
        let mut got: Vec<(u64, Vec<u8>)> = (dht.freeze().iter())
            .map(|(&k, log)| (k, log.clone()))
            .collect();
        got.sort();
        let mut want = vec![
            (a, vec![101, 3, 4]),
            (b, vec![102, 6]),
            (c, vec![0]),
            (d, vec![8, 10]),
        ];
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    #[should_panic(expected = "apply_batch key not owned by dest")]
    #[cfg(debug_assertions)]
    fn apply_batch_rejects_a_key_owned_by_another_rank() {
        let dht: DistHashMap<u64, u64> = DistHashMap::new(Topology::new(2, 2));
        let foreign = (0..64).find(|k| dht.owner(k) == 0).unwrap();
        dht.apply_batch(1, [(foreign, 1)], |v, x| *v += x, |_, x| Some(x));
    }

    #[test]
    fn a_declined_item_never_grows_the_table() {
        // Fill the one partition to its capacity: one more entry grows it.
        let dht: DistHashMap<u64, u32> = DistHashMap::new(Topology::new(1, 1));
        let mut next = 0u64;
        let full = |dht: &DistHashMap<u64, u32>| {
            let part = dht.parts[0].lock();
            (part.map.len() == part.map.capacity()).then_some(part.map.capacity())
        };
        let capacity = loop {
            dht.merge_batch(0, [(next, 1)], |a, b| *a += b);
            next += 1;
            if let Some(capacity) = full(&dht) {
                break capacity;
            }
        };
        // Absent keys declined, present ones recorded: still full, no
        // larger, and only the recorded items are service ops.
        let batch = (0..2 * next).map(|k| (k, 1));
        dht.apply_batch(0, batch, |v, x| *v += x, |_, _| None);
        assert_eq!(full(&dht), Some(capacity));
        // A created entry grows it as before.
        dht.apply_batch(0, [(2 * next, 1)], |v, x| *v += x, |_, x| Some(x));
        assert!(dht.parts[0].lock().map.capacity() > capacity);
        let mut stats = vec![crate::CommStats::new()];
        dht.drain_service_into(&mut stats);
        assert_eq!(stats[0].service_ops, next + next + 1);
        assert_eq!(stats[0].table_entries, next + 1);
    }

    #[test]
    fn merge_batch_equals_sequential_updates_in_input_order() {
        // Appending is not commutative, so any reordering of same-key (or,
        // through the shared log, different-key) entries would show.
        let topo = Topology::new(2, 2);
        let batched: DistHashMap<u64, String> = DistHashMap::new(topo);
        let mut reference: HashMap<u64, String> = HashMap::new();
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
        for (k, v) in &batch {
            reference.entry(*k).or_default().push_str(v);
        }
        let want: Vec<Option<String>> = owned.iter().map(|k| reference.get(k).cloned()).collect();
        assert_eq!(batched.multi_get(&mut c, &owned), want);
        // Merges ran in batch order across keys, not just within one key.
        let merged = log.into_inner();
        let mut seen = std::collections::HashSet::new();
        let expect: Vec<String> = batch
            .iter()
            .filter(|(k, _)| !seen.insert(*k))
            .map(|(_, v)| v.clone())
            .collect();
        assert_eq!(merged, expect);

        // A `vacant` that declines drops absent keys (the held sightings'
        // flush of §3.1) and keeps the order.
        let absent = (64..).find(|k| batched.owner(k) == 1).unwrap();
        let second = vec![
            (owned[0], "x".to_string()),
            (absent, "dropped".to_string()),
            (owned[0], "y".to_string()),
        ];
        let append = |a: &mut String, b: String| a.push_str(&b);
        batched.apply_batch(1, second, append, |_, _| None);
        let batched = batched.freeze();
        assert_eq!(batched.get(&mut c, &absent), None);
        assert!(batched.get(&mut c, &owned[0]).unwrap().ends_with("xy"));
    }

    #[test]
    fn frozen_reads_bill_like_locked_reads() {
        // Freezing moves the maps, keeps the owner function, and leaves every
        // counter of a batched read where the locked table put it.
        let topo = Topology::new(6, 3);
        let dht: DistHashMap<u64, u32> = DistHashMap::with_owner(topo, |k| (k % 5) as usize);
        dht.preload((0..300u64).step_by(3).map(|k| (k, k as u32 * 7)));
        let probes: Vec<u64> = (0..200).collect();
        let (mut locked, mut frozen) = (ctx(4, topo), ctx(4, topo));
        let want = dht.multi_get(&mut locked, &probes);
        let table = dht.freeze();
        let sizes = table.shard_sizes();
        let got: Vec<Option<u32>> = table
            .multi_get(&mut frozen, &probes)
            .into_iter()
            .map(Option::<&u32>::copied)
            .collect();
        assert_eq!(got, want);
        assert_eq!(frozen.stats, locked.stats);
        assert_eq!(sizes[5], 0, "owner function kept");
        // Entry counts land on their owners; nothing else moves.
        let mut stats = vec![crate::CommStats::new(); 6];
        table.record_entries(&mut stats);
        let entries: Vec<u64> = stats.iter().map(|s| s.table_entries).collect();
        assert_eq!(entries, sizes.iter().map(|&n| n as u64).collect::<Vec<_>>());
        assert!(stats.iter().all(|s| s.service_ops == 0));
    }

    #[test]
    fn preload_bypasses_counters() {
        let topo = Topology::new(4, 2);
        let restored: DistHashMap<u64, u32> = DistHashMap::new(topo);
        let mut c2 = ctx(1, topo);
        restored.preload((0..100).map(|k| (k, (k * 2) as u32)));
        // No accesses, no service ops were recorded.
        assert_eq!(c2.stats.total_accesses(), 0);
        let mut stats = vec![crate::CommStats::new(); 4];
        restored.drain_service_into(&mut stats);
        assert!(stats.iter().all(|s| s.service_ops == 0));
        // But the data landed, each entry on its owner.
        let restored = restored.freeze();
        let mut sizes = vec![0; 4];
        (0..100).for_each(|k| sizes[restored.owner(&k)] += 1);
        assert_eq!(restored.shard_sizes(), sizes);
        assert_eq!(restored.get(&mut c2, &7), Some(&14));
    }

    #[test]
    fn drained_stats_capture_occupancy() {
        let topo = Topology::new(4, 2);
        // All keys on rank 3.
        let dht: DistHashMap<u64, u32> = DistHashMap::with_owner(topo, |_| 3);
        dht.preload((0..80).map(|k| (k, 0)));

        let mut stats = vec![crate::CommStats::new(); 4];
        dht.drain_service_into(&mut stats);
        let total = crate::stats::total(&stats);
        assert_eq!(total.table_entries, 80);
        assert_eq!(stats[3].table_entries, 80, "max partition = the one owner");

        // Occupancy is read afresh at each drain.
        let mut again = vec![crate::CommStats::new(); 4];
        dht.drain_service_into(&mut again);
        assert_eq!(again[3].table_entries, 80);
    }

    #[test]
    fn cyclic_placement_is_roughly_balanced() {
        let topo = Topology::new(16, 8);
        let dht: DistHashMap<u64, ()> = DistHashMap::new(topo);
        dht.preload((0..16_000u64).map(|k| (k, ())));
        let sizes = dht.freeze().shard_sizes();
        let expect = 1000.0;
        for (rank, &s) in sizes.iter().enumerate() {
            let dev = (s as f64 - expect).abs() / expect;
            assert!(dev < 0.25, "rank {rank} has {s} entries (expect ~1000)");
        }
    }
}
