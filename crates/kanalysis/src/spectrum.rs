//! The k-mer analysis output: the table of non-erroneous k-mers.

use hipmer_dna::{ExtensionPair, Kmer, KmerCodec};
use hipmer_pgas::{DistHashMap, RankCtx, Topology};
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
    /// Canonical k-mer → entry, partitioned over the topology.
    pub table: DistHashMap<Kmer, KmerEntry>,
}

impl KmerSpectrum {
    /// Number of distinct surviving k-mers.
    pub fn distinct(&self) -> usize {
        self.table.len()
    }

    /// One-sided lookup of a k-mer (callers pass any orientation; the
    /// lookup canonicalizes).
    pub fn get(&self, ctx: &mut RankCtx, kmer: Kmer) -> Option<KmerEntry> {
        let canon = self.codec.canonical(kmer);
        self.table.get(ctx, &canon)
    }

    /// Batched one-sided lookup: canonicalize every k-mer and resolve the
    /// whole set through [`DistHashMap::multi_get`] — one message per
    /// distinct owner rank instead of one per k-mer. Results come back in
    /// input order and are byte-identical to calling
    /// [`get`](Self::get) per k-mer; only the message accounting differs.
    /// The table is read-only after k-mer analysis, so batch windows of any
    /// size are safe.
    pub fn get_batch(&self, ctx: &mut RankCtx, kmers: &[Kmer]) -> Vec<Option<KmerEntry>> {
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
        let mut entries = self.table.snapshot_entries();
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
        KmerSpectrum { codec, table }
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

    #[test]
    fn lookup_canonicalizes() {
        let topo = Topology::new(2, 2);
        let codec = KmerCodec::new(3);
        let table = DistHashMap::new(topo);
        let spectrum = KmerSpectrum { codec, table };
        let mut ctx = RankCtx::new(0, topo);

        let fwd = codec.pack(b"TTT").unwrap(); // canonical form is AAA
        let canon = codec.canonical(fwd);
        spectrum.table.insert(&mut ctx, canon, entry(5, true));
        assert_eq!(spectrum.get(&mut ctx, fwd).unwrap().count, 5);
        assert_eq!(spectrum.get(&mut ctx, canon).unwrap().count, 5);
    }

    #[test]
    fn batched_lookup_matches_sequential() {
        let topo = Topology::new(4, 2);
        let codec = KmerCodec::new(3);
        let table = DistHashMap::new(topo);
        let spectrum = KmerSpectrum { codec, table };
        let mut ctx = RankCtx::new(0, topo);

        let kmers: Vec<_> = ["AAA", "ACG", "TTT", "GGG", "CCA"]
            .iter()
            .map(|s| codec.pack(s.as_bytes()).unwrap())
            .collect();
        for (i, &km) in kmers.iter().take(3).enumerate() {
            let canon = codec.canonical(km);
            spectrum
                .table
                .insert(&mut ctx, canon, entry(i as u32 + 1, true));
        }
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
        let codec = KmerCodec::new(5);
        let table = DistHashMap::new(topo);
        let spectrum = KmerSpectrum { codec, table };
        let mut ctx = RankCtx::new(0, topo);
        for (i, s) in ["AACGT", "CGTAA", "TTACG", "GGGCA"].iter().enumerate() {
            let km = codec.canonical(codec.pack(s.as_bytes()).unwrap());
            spectrum
                .table
                .insert(&mut ctx, km, entry(i as u32 + 2, i % 2 == 0));
        }
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
        for &(km, e) in &exported {
            assert_eq!(restored.get(&mut c2, km), Some(e));
        }
    }

    #[test]
    fn count_histogram_bins_local_counts() {
        let topo = Topology::new(1, 1);
        let codec = KmerCodec::new(3);
        let table = DistHashMap::new(topo);
        let spectrum = KmerSpectrum { codec, table };
        let mut ctx = RankCtx::new(0, topo);

        let kmers = ["AAA", "AAC", "AAG", "AAT"];
        for (i, s) in kmers.iter().enumerate() {
            let km = codec.canonical(codec.pack(s.as_bytes()).unwrap());
            spectrum
                .table
                .insert(&mut ctx, km, entry(i as u32 + 1, i % 2 == 0));
        }
        let h = spectrum.count_histogram(&mut ctx, 100);
        assert_eq!(h.count(), 4);
        assert_eq!(h.bin(1), Some(1));
    }
}
