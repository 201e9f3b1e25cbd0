//! The oracle partitioning vector of §3.2.
//!
//! The communication-avoiding traversal replaces the uniform
//! hash-to-owner mapping with an **oracle**: a compact vector, replicated on
//! every rank (or node), whose slot `uniform_hash(kmer) % m` stores the rank
//! that should own the k-mer — chosen so that all k-mers of one contig land
//! on one rank. Collisions (two contigs' k-mers hashing to the same slot)
//! send a k-mer to the wrong (remote) rank; a larger vector trades memory
//! for fewer collisions and less communication, exactly the knob the paper
//! turns between "oracle-1" (115 MB/thread) and "oracle-4" (4×).
//!
//! [`OracleVector::table`] is how the oracle reaches a table: it builds the
//! [`DistHashMap`] whose one owner function is the vector's lookup.

use crate::dht::DistHashMap;
use crate::topology::Topology;
use hipmer_dna::{Kmer, KmerBuildHasher};
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Slot value meaning "no contig claimed this slot".
const EMPTY: u32 = u32::MAX;

/// The replicated oracle partitioning vector.
pub struct OracleVector {
    slots: Vec<u32>,
    ranks: usize,
    collisions: AtomicU64,
    assigned: AtomicU64,
}

impl OracleVector {
    /// An empty oracle with `slots` entries targeting `ranks` owners.
    ///
    /// # Panics
    /// Panics if `slots == 0`, `ranks == 0`, or `ranks >= u32::MAX`.
    pub fn new(slots: usize, ranks: usize) -> Self {
        assert!(slots > 0 && ranks > 0);
        assert!((ranks as u64) < EMPTY as u64);
        OracleVector {
            slots: vec![EMPTY; slots],
            ranks,
            collisions: AtomicU64::new(0),
            assigned: AtomicU64::new(0),
        }
    }

    /// Number of slots (the memory knob).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the vector has zero slots (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Approximate replicated memory per rank, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<u32>()
    }

    /// Offline assignment (step 2 of the oracle construction): claim the
    /// slot for `hash` on behalf of `rank`. First writer wins; a later
    /// claim by a *different* rank is a collision and is dropped (the
    /// k-mer will live on the first writer's rank — remote for its contig).
    ///
    /// Returns `true` if the slot now maps to `rank`.
    pub fn assign(&mut self, hash: u64, rank: usize) -> bool {
        debug_assert!(rank < self.ranks);
        let idx = (hash % self.slots.len() as u64) as usize;
        let slot = &mut self.slots[idx];
        if *slot == EMPTY {
            *slot = rank as u32;
            self.assigned.fetch_add(1, Ordering::Relaxed);
            true
        } else if *slot == rank as u32 {
            true
        } else {
            self.collisions.fetch_add(1, Ordering::Relaxed);
            false
        }
    }

    /// Lookup: the owner for `hash`, falling back to uniform ownership
    /// (`hash % ranks`) for unclaimed slots (k-mers not seen when the oracle
    /// was built — e.g. novel k-mers of a different individual or a
    /// different k).
    #[inline]
    pub fn owner(&self, hash: u64) -> usize {
        let idx = (hash % self.slots.len() as u64) as usize;
        let slot = self.slots[idx];
        if slot == EMPTY {
            (hash % self.ranks as u64) as usize
        } else {
            slot as usize
        }
    }

    /// Collisions observed while building (≈ communication events the
    /// traversal will incur, per the paper).
    pub fn collisions(&self) -> u64 {
        self.collisions.load(Ordering::Relaxed)
    }

    /// Slots successfully assigned.
    pub fn assigned(&self) -> u64 {
        self.assigned.load(Ordering::Relaxed)
    }

    /// Coarsen rank-level ownership to node-level ownership (§3.2's SMP
    /// refinement): every slot's rank is replaced by the first rank of its
    /// node, so traversal lookups stay *on node* even when they miss the
    /// exact rank.
    pub fn coarsen_to_nodes(&mut self, topo: &crate::Topology) {
        for slot in &mut self.slots {
            if *slot != EMPTY {
                let node = topo.node_of(*slot as usize);
                *slot = (node * topo.ranks_per_node()) as u32;
            }
        }
    }

    /// The hash the vector is indexed by: `uniform_hash(kmer)`, what
    /// [`DistHashMap::key_hash`] computes for k-mer keys. Builders
    /// [`assign`](Self::assign) under it and [`table`](Self::table) looks
    /// up under it.
    #[inline]
    pub fn kmer_hash(km: &Kmer) -> u64 {
        KmerBuildHasher::default().hash_one(km)
    }

    /// An empty k-mer table over `topo` whose owner function is this oracle:
    /// `owner(kmer_hash(kmer))`.
    ///
    /// # Panics
    /// Panics if the oracle targets a different rank count than `topo`.
    pub fn table<V: Send>(self: Arc<Self>, topo: Topology) -> DistHashMap<Kmer, V> {
        assert_eq!(
            self.ranks,
            topo.ranks(),
            "oracle built for a different rank count than the table's topology"
        );
        DistHashMap::with_owner(topo, move |km: &Kmer| self.owner(Self::kmer_hash(km)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_then_lookup() {
        let mut o = OracleVector::new(64, 4);
        assert!(o.assign(10, 2));
        assert_eq!(o.owner(10), 2);
        // Same slot, same rank: fine.
        assert!(o.assign(10, 2));
        assert_eq!(o.collisions(), 0);
    }

    #[test]
    fn collision_keeps_first_writer() {
        let mut o = OracleVector::new(1, 4);
        assert!(o.assign(0, 1));
        assert!(!o.assign(5, 3)); // same slot, different rank
        assert_eq!(o.owner(5), 1);
        assert_eq!(o.collisions(), 1);
    }

    #[test]
    fn unclaimed_slots_fall_back_to_cyclic() {
        let o = OracleVector::new(16, 4);
        for h in 0..100u64 {
            assert_eq!(o.owner(h), (h % 4) as usize);
        }
    }

    #[test]
    fn bigger_vector_fewer_collisions() {
        let n_keys = 10_000u64;
        let count_collisions = |slots: usize| {
            let mut o = OracleVector::new(slots, 8);
            for h in 0..n_keys {
                // Spread hashes; alternate ranks so same-slot hits collide.
                o.assign(hipmer_dna::mix64(h), (h % 8) as usize);
            }
            o.collisions()
        };
        let small = count_collisions(8_192);
        let large = count_collisions(8_192 * 4);
        assert!(
            large * 2 < small,
            "4x slots must cut collisions well below half: {large} vs {small}"
        );
    }

    #[test]
    fn node_coarsening_maps_to_node_leaders() {
        let topo = Topology::new(48, 24);
        let mut o = OracleVector::new(8, 48);
        o.assign(0, 5); // node 0
        o.assign(1, 30); // node 1
        o.coarsen_to_nodes(&topo);
        assert_eq!(o.owner(0), 0);
        assert_eq!(o.owner(1), 24);
    }

    #[test]
    fn table_routes_by_the_oracle() {
        let topo = Topology::new(4, 2);
        let codec = hipmer_dna::KmerCodec::new(21);
        let km = codec.pack(b"ACGTTGCAAGGCTTAACCGGT").unwrap();
        let mut o = OracleVector::new(32, 4);
        let table: DistHashMap<Kmer, u32> = DistHashMap::new(topo);
        let claimed = (table.owner(&km) + 1) % 4;
        o.assign(table.key_hash(&km), claimed);
        let routed: DistHashMap<Kmer, u32> = Arc::new(o).table(topo);
        assert_eq!(routed.owner(&km), claimed);
    }
}
