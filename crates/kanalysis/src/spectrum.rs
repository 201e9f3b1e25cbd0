//! The k-mer analysis output: the table of non-erroneous k-mers.

use hipmer_dna::{ExtensionPair, Kmer, KmerCodec};
use hipmer_pgas::{DistHashMap, FrozenMap, RankCtx, Topology};
use hipmer_sketch::CountHistogram;

/// One surviving canonical k-mer: exact count plus decided extensions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KmerEntry {
    /// Exact occurrence count ("depth").
    pub count: u32,
    /// High-quality extension decision for each side, in canonical
    /// orientation.
    pub exts: ExtensionPair,
}

/// The distributed set of non-erroneous k-mers with their extensions.
pub struct KmerSpectrum {
    /// Codec carrying k.
    pub codec: KmerCodec,
    /// Canonical k-mer → entry, partitioned over the topology; frozen at
    /// the end of k-mer analysis.
    pub table: FrozenMap<Kmer, KmerEntry>,
}

impl KmerSpectrum {
    /// Number of distinct surviving k-mers.
    pub fn distinct(&self) -> usize {
        self.table.len()
    }

    /// One-sided lookup of a k-mer (callers pass any orientation; the
    /// lookup canonicalizes).
    pub fn get(&self, ctx: &mut RankCtx, kmer: Kmer) -> Option<&KmerEntry> {
        let canon = self.codec.canonical(kmer);
        self.table.get(ctx, &canon)
    }

    /// Batched one-sided lookup: canonicalize every k-mer and resolve the
    /// whole set through [`FrozenMap::multi_get`] — one message per
    /// distinct owner rank instead of one per k-mer. Results come back in
    /// input order and equal calling [`get`](Self::get) per k-mer; only
    /// the message accounting differs.
    pub fn get_batch(&self, ctx: &mut RankCtx, kmers: &[Kmer]) -> Vec<Option<&KmerEntry>> {
        let canon: Vec<Kmer> = kmers.iter().map(|&km| self.codec.canonical(km)).collect();
        self.table.multi_get(ctx, &canon)
    }

    /// Count spectrum histogram (k-mer frequency distribution), tracked up
    /// to `max_count`. Computed over all shards; used to report singleton
    /// fractions (§5.4's 95% human vs 36% metagenome contrast).
    pub fn count_histogram(&self, ctx: &mut RankCtx, max_count: u64) -> CountHistogram {
        let mut h = CountHistogram::new(max_count as usize);
        self.table.fold_local(ctx, (), |(), _, entry| {
            h.record(entry.count as u64);
        });
        h
    }

    /// Export every entry in a canonical order (ascending packed k-mer
    /// bits), uncounted — the checkpoint serialization path, whose I/O is
    /// priced by the checkpoint machinery rather than as table traffic.
    /// The ordering makes the serialized artifact byte-identical across
    /// runs and topologies.
    pub fn export_entries(&self) -> Vec<(Kmer, KmerEntry)> {
        let mut entries: Vec<(Kmer, KmerEntry)> =
            self.table.iter().map(|(&k, &e)| (k, e)).collect();
        entries.sort_unstable_by_key(|(km, _)| km.0);
        entries
    }

    /// Rebuild a spectrum from exported entries over a (possibly
    /// different) topology, uncounted — the checkpoint restore path.
    /// Entries land on their `key_hash % ranks` owners in `topo` (the
    /// exported artifact is placement-independent), so the restored table
    /// is indistinguishable from a freshly-counted one.
    pub fn from_entries(
        topo: Topology,
        k: usize,
        entries: impl IntoIterator<Item = (Kmer, KmerEntry)>,
    ) -> Self {
        let codec = KmerCodec::new(k);
        let table = DistHashMap::new(topo);
        table.preload(entries);
        KmerSpectrum {
            codec,
            table: table.freeze(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipmer_dna::{ExtChoice, ExtensionPair};
    use hipmer_pgas::Topology;

    fn entry(count: u32, uu: bool) -> KmerEntry {
        let exts = if uu {
            ExtensionPair {
                left: ExtChoice::Unique(0),
                right: ExtChoice::Unique(1),
            }
        } else {
            ExtensionPair {
                left: ExtChoice::Fork,
                right: ExtChoice::None,
            }
        };
        KmerEntry { count, exts }
    }

    /// A spectrum over `topo` holding the k-mer `names[i]` (canonicalized;
    /// a later name overwrites an earlier one of the same canonical form)
    /// as `entry(base + i, uu(i))`.
    fn spectrum_of(
        topo: Topology,
        names: &[&str],
        base: u32,
        uu: fn(usize) -> bool,
    ) -> KmerSpectrum {
        let codec = KmerCodec::new(names[0].len());
        let canon = |s: &str| codec.canonical(codec.pack(s.as_bytes()).unwrap());
        let entries =
            (names.iter().enumerate()).map(|(i, s)| (canon(s), entry(base + i as u32, uu(i))));
        KmerSpectrum::from_entries(topo, codec.k(), entries)
    }

    #[test]
    fn lookup_canonicalizes() {
        let topo = Topology::new(2, 2);
        let spectrum = spectrum_of(topo, &["TTT"], 5, |_| true);
        let codec = spectrum.codec;
        let mut ctx = RankCtx::new(0, topo);

        let fwd = codec.pack(b"TTT").unwrap(); // canonical form is AAA
        let canon = codec.canonical(fwd);
        assert_eq!(spectrum.get(&mut ctx, fwd).unwrap().count, 5);
        assert_eq!(spectrum.get(&mut ctx, canon).unwrap().count, 5);
    }

    #[test]
    fn batched_lookup_matches_sequential() {
        let topo = Topology::new(4, 2);
        let names = ["AAA", "ACG", "TTT", "GGG", "CCA"];
        let spectrum = spectrum_of(topo, &names[..3], 1, |_| true);
        let codec = spectrum.codec;
        let kmers: Vec<_> = (names.iter())
            .map(|s| codec.pack(s.as_bytes()).unwrap())
            .collect();
        let mut seq = RankCtx::new(0, topo);
        let one_by_one: Vec<_> = kmers.iter().map(|&km| spectrum.get(&mut seq, km)).collect();
        let mut bat = RankCtx::new(0, topo);
        let batched = spectrum.get_batch(&mut bat, &kmers);
        assert_eq!(one_by_one, batched);
        assert!(bat.stats.total_accesses() <= seq.stats.total_accesses());
        assert!(bat.stats.lookup_batches > 0);
    }

    #[test]
    fn export_entries_round_trip_across_topologies() {
        let topo = Topology::new(4, 2);
        let names = ["AACGT", "CGTAA", "TTACG", "GGGCA"];
        let spectrum = spectrum_of(topo, &names, 2, |i| i % 2 == 0);
        let exported = spectrum.export_entries();
        assert!(
            exported.windows(2).all(|w| w[0].0 .0 < w[1].0 .0),
            "entries sorted by packed bits"
        );
        // Restore onto a different topology: contents and canonical export
        // order are identical.
        let restored = KmerSpectrum::from_entries(Topology::new(7, 3), 5, exported.clone());
        assert_eq!(restored.codec.k(), 5);
        assert_eq!(restored.export_entries(), exported);
        let homed: DistHashMap<Kmer, KmerEntry> = DistHashMap::new(Topology::new(7, 3));
        for &(km, _) in &exported {
            assert_eq!(restored.table.owner(&km), homed.owner(&km));
        }
        let mut c2 = RankCtx::new(0, Topology::new(7, 3));
        for (km, e) in &exported {
            assert_eq!(restored.get(&mut c2, *km), Some(e));
        }
    }

    #[test]
    fn count_histogram_bins_local_counts() {
        let topo = Topology::new(1, 1);
        let spectrum = spectrum_of(topo, &["AAA", "AAC", "AAG", "AAT"], 1, |i| i % 2 == 0);
        let mut ctx = RankCtx::new(0, topo);
        let h = spectrum.count_histogram(&mut ctx, 100);
        assert_eq!(h.count(), 4);
        assert_eq!(h.bin(1), Some(1));
    }
}
