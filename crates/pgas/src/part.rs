//! Typed k-mer partitioners: how a table family maps keys to owner ranks.
//!
//! HipMer's Tables 1–2 identify the off-node get/put fraction as the
//! quantity that decides scaling, and both the journal version of the
//! paper and the MetaHipMer lineage move beyond uniform `hash % ranks`
//! ownership toward **locality-aware** k-mer placement. This module is the
//! repo's first-class form of that idea:
//!
//! [`PartitionScheme`] is both the user-facing knob (`--partition
//! uniform|minimizer`, carried by every stage config) and the thing a stage
//! builds its tables from once it knows its key length:
//! [`PartitionScheme::table`]. Under `Minimizer` each k-mer is bucketed by
//! the rank owning its window minimizer
//! ([`hipmer_dna::KmerCodec::minimizer_hash`]); the minimizer length `m`
//! and the window count `w` follow from the key length alone.
//!
//! **Why minimizers cut the off-node fraction:** adjacent k-mers of a read
//! or a contig walk overlap in `k - 1` bases, so they share `w - 1 = k - m`
//! of their `w` minimizer windows and therefore *usually* share a
//! minimizer — and an owner rank. Per-operation access patterns that slide
//! along the sequence (the traversal's claim/probe steps, extension
//! lookups) then stay on one rank for a whole minimizer run and pay a
//! remote message only at run boundaries, instead of on (P-1)/P of all
//! steps under uniform hashing. Placement is invisible to results: every
//! access goes through [`DistHashMap::owner`], so the assembled output is
//! byte-identical under any scheme — only the communication tallies move.
//!
//! The scheme feeds [`DistHashMap::with_owner`]: the owner is
//! `minimizer_hash % ranks`, and that one function is all the routing there
//! is — a minimizer run lands in one rank's partition, under its one lock.
//!
//! Coherence rule: tables whose entries flow into each other without
//! re-homing (the k-mer votes table and the final spectrum table, the
//! spectrum and the de Bruijn node table) must be built from the **same**
//! scheme — [`PartitionScheme::table`] is the one construction path the
//! stages share.

use crate::dht::DistHashMap;
use crate::topology::Topology;
use hipmer_dna::{Kmer, KmerCodec};
use std::hash::Hash;
use std::str::FromStr;

/// Default minimizer length `m` (capped at the key length). Short enough
/// that minimizer runs are long (`w = k - m + 1` windows per k-mer) even
/// for the aligner's 15-base seeds, long enough that minimizers spread
/// uniformly over ranks.
pub const DEFAULT_MINIMIZER_LEN: usize = 7;

/// The user-facing partitioning knob, one per pipeline run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PartitionScheme {
    /// Uniform hashing: `owner = mix(key) % ranks`. The seed behavior.
    #[default]
    Uniform,
    /// Minimizer bucketing: `owner = minimizer_hash(key) % ranks`, so
    /// adjacent k-mers land on one rank.
    Minimizer,
}

impl FromStr for PartitionScheme {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "uniform" => Ok(PartitionScheme::Uniform),
            "minimizer" => Ok(PartitionScheme::Minimizer),
            other => Err(format!("unknown partition scheme {other:?}")),
        }
    }
}

impl std::fmt::Display for PartitionScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PartitionScheme::Uniform => write!(f, "uniform"),
            PartitionScheme::Minimizer => write!(f, "minimizer"),
        }
    }
}

impl PartitionScheme {
    /// Human/report label for tables keyed by `k`-mers, e.g. `"uniform"` or
    /// `"minimizer(w=25,m=7)"`: minimizer length
    /// `m = min(DEFAULT_MINIMIZER_LEN, k)`, `w = k - m + 1` windows per key.
    pub fn label(self, k: usize) -> String {
        match self {
            PartitionScheme::Uniform => "uniform".to_string(),
            PartitionScheme::Minimizer => {
                let m = DEFAULT_MINIMIZER_LEN.min(k);
                format!("minimizer(w={},m={m})", k - m + 1)
            }
        }
    }

    /// The one construction path for partitioned k-mer tables: an empty
    /// [`DistHashMap`] over `topo` whose owner function follows this scheme
    /// (`key_hash % ranks` for uniform, `minimizer_hash % ranks` for
    /// minimizer bucketing). Stages that feed entries between tables must
    /// build both ends through the same scheme (see the module docs).
    ///
    /// The key is a [`Kmer`] or a narrower word that widens into one
    /// ([`hipmer_dna::Kmer64`]): the minimizer owner is computed on the
    /// widened k-mer, and a key that hashes as its widened `Kmer` has the
    /// same uniform owner too.
    pub fn table<K, V: Send>(self, topo: Topology, codec: KmerCodec) -> DistHashMap<K, V>
    where
        K: Copy + Into<Kmer> + Hash + Eq + Send + 'static,
    {
        match self {
            PartitionScheme::Uniform => DistHashMap::new(topo),
            PartitionScheme::Minimizer => {
                let m = DEFAULT_MINIMIZER_LEN.min(codec.k());
                let ranks = topo.ranks() as u64;
                DistHashMap::with_owner(topo, move |km: &K| {
                    (codec.minimizer_hash((*km).into(), m) % ranks) as usize
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::team::RankCtx;

    #[test]
    fn scheme_parses_and_displays() {
        assert_eq!("uniform".parse(), Ok(PartitionScheme::Uniform));
        assert_eq!("minimizer".parse(), Ok(PartitionScheme::Minimizer));
        assert_eq!("MINIMIZER".parse(), Ok(PartitionScheme::Minimizer));
        assert!("oracle".parse::<PartitionScheme>().is_err());
        assert_eq!(PartitionScheme::Uniform.to_string(), "uniform");
        assert_eq!(PartitionScheme::Minimizer.to_string(), "minimizer");
        assert_eq!(PartitionScheme::default(), PartitionScheme::Uniform);
    }

    #[test]
    fn labels_carry_the_window_geometry() {
        assert_eq!(PartitionScheme::Minimizer.label(31), "minimizer(w=25,m=7)");
        // m is capped at k (degenerate single-window case).
        assert_eq!(PartitionScheme::Minimizer.label(5), "minimizer(w=1,m=5)");
        assert_eq!(PartitionScheme::Uniform.label(31), "uniform");
    }

    #[test]
    fn minimizer_tables_group_adjacent_kmers() {
        let k = 21;
        let codec = KmerCodec::new(k);
        let topo = Topology::new(8, 4);
        let table: DistHashMap<Kmer, u32> = PartitionScheme::Minimizer.table(topo, codec);

        // A synthetic read: adjacent canonical k-mers must mostly share an
        // owner (the property the placement exists for), and owners must
        // agree with a direct minimizer computation.
        let seq: Vec<u8> = (0..400)
            .map(|i: usize| hipmer_dna::BASES[(i * 13 + 2) % 4])
            .collect();
        let owners: Vec<usize> = codec
            .canonical_kmers(&seq)
            .map(|(_, _, canon)| table.owner(&canon))
            .collect();
        assert!(owners.len() > 300);
        for (i, (_, _, canon)) in codec.canonical_kmers(&seq).enumerate() {
            let expect = (codec.minimizer_hash(canon, 7) % 8) as usize;
            assert_eq!(owners[i], expect);
        }
        let changes = owners.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(
            changes * 3 < owners.len(),
            "owner changed {changes} times over {} steps",
            owners.len()
        );

        // Placement is invisible to contents: same entries either way.
        let uni: DistHashMap<Kmer, u32> = PartitionScheme::Uniform.table(topo, codec);
        let mut c = RankCtx::new(0, topo);
        for (_, _, canon) in codec.canonical_kmers(&seq) {
            table.update(&mut c, canon, || 0, |v| *v += 1);
            uni.update(&mut c, canon, || 0, |v| *v += 1);
        }
        let mut a = table.snapshot_entries();
        let mut b = uni.snapshot_entries();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }
}
