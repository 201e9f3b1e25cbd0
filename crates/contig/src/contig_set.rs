//! Contigs: the uncontested linear sequences the traversal emits.

use hipmer_dna::KmerCodec;
use std::ops::Range;

/// One contig. Sequences are stored in canonical orientation (the
/// traversal's tie-break guarantees a deterministic orientation), ids are
/// assigned after a global sort so they are schedule-independent.
#[derive(Clone, Debug, PartialEq)]
pub struct Contig {
    /// Dense id, 0-based, assigned longest-first.
    pub id: usize,
    /// The contig sequence (length ≥ k).
    pub seq: Vec<u8>,
    /// Mean k-mer depth; 0 until the scaffolding depth stage fills it.
    pub depth: f64,
}

impl Contig {
    /// Sequence length in bases.
    pub fn len(&self) -> usize {
        self.seq.len()
    }

    /// Whether the contig is empty (never true for traversal output).
    pub fn is_empty(&self) -> bool {
        self.seq.is_empty()
    }
}

/// The complete contig set of one assembly.
#[derive(Clone, Debug)]
pub struct ContigSet {
    /// Contigs sorted by decreasing length (ties broken by sequence), with
    /// `id == index`.
    pub contigs: Vec<Contig>,
    /// The k-mer codec the contigs were built with.
    pub codec: KmerCodec,
}

impl ContigSet {
    /// Build from raw sequences: sorts longest-first and assigns ids (see
    /// [`ContigSet::sort_order`]).
    pub fn from_sequences(codec: KmerCodec, mut seqs: Vec<Vec<u8>>) -> Self {
        let contigs = Self::sort_order(&seqs)
            .into_iter()
            .enumerate()
            .map(|(id, i)| Contig {
                id,
                seq: std::mem::take(&mut seqs[i]),
                depth: 0.0,
            })
            .collect();
        ContigSet { contigs, codec }
    }

    /// The ids [`ContigSet::from_sequences`] gives `seqs`: element `id` is
    /// the index in `seqs` of the sequence that becomes contig `id` —
    /// longest first, equal lengths by bytes, equal sequences in input
    /// order.
    pub fn sort_order(seqs: &[Vec<u8>]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..seqs.len()).collect();
        order.sort_by(|&a, &b| {
            let (a, b) = (&seqs[a], &seqs[b]);
            b.len().cmp(&a.len()).then_with(|| a.cmp(b))
        });
        order
    }

    /// Number of contigs.
    pub fn len(&self) -> usize {
        self.contigs.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.contigs.is_empty()
    }

    /// Total assembled bases.
    pub fn total_bases(&self) -> usize {
        self.contigs.iter().map(Contig::len).sum()
    }

    /// N50: the length L such that contigs of length ≥ L cover half the
    /// assembled bases. The standard assembly contiguity metric.
    pub fn n50(&self) -> usize {
        let total = self.total_bases();
        let mut acc = 0usize;
        for c in &self.contigs {
            acc += c.len();
            if 2 * acc >= total {
                return c.len();
            }
        }
        0
    }

    /// The longest contig length.
    pub fn max_len(&self) -> usize {
        self.contigs.first().map(Contig::len).unwrap_or(0)
    }

    /// Parallel work units over the set: each contig's `k`-mer offsets cut
    /// into ranges of at most `window`, as `(contig, offsets)` in contig
    /// order. Dealing windows rather than whole contigs keeps one dominant
    /// contig from serializing a stage onto one rank (the assemblies in
    /// the paper have millions of contigs; small test genomes may have
    /// one). Every contig gets at least one window.
    pub fn kmer_windows(&self, k: usize, window: usize) -> Vec<(usize, Range<usize>)> {
        let mut out = Vec::new();
        for (ci, c) in self.contigs.iter().enumerate() {
            let n_kmers = c.len().saturating_sub(k) + 1;
            for lo in (0..n_kmers).step_by(window) {
                out.push((ci, lo..(lo + window).min(n_kmers)));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(lens: &[usize]) -> ContigSet {
        let seqs = lens.iter().map(|&l| vec![b'A'; l]).collect();
        ContigSet::from_sequences(KmerCodec::new(21), seqs)
    }

    #[test]
    fn sorted_longest_first_with_dense_ids() {
        let s = set(&[10, 50, 30]);
        let lens: Vec<usize> = s.contigs.iter().map(Contig::len).collect();
        assert_eq!(lens, vec![50, 30, 10]);
        for (i, c) in s.contigs.iter().enumerate() {
            assert_eq!(c.id, i);
        }
    }

    #[test]
    fn n50_definition() {
        // Lengths 50+30+10 = 90; half = 45; cumulative 50 >= 45 -> N50 = 50.
        assert_eq!(set(&[10, 50, 30]).n50(), 50);
        // 10 x 10 = 100; half = 50; fifth contig reaches 50 -> N50 = 10.
        assert_eq!(set(&[10; 10]).n50(), 10);
        assert_eq!(set(&[]).n50(), 0);
    }

    #[test]
    fn deterministic_order_for_equal_lengths() {
        let a = ContigSet::from_sequences(
            KmerCodec::new(5),
            vec![b"CCCCC".to_vec(), b"AAAAA".to_vec()],
        );
        let b = ContigSet::from_sequences(
            KmerCodec::new(5),
            vec![b"AAAAA".to_vec(), b"CCCCC".to_vec()],
        );
        assert_eq!(a.contigs, b.contigs);
    }

    #[test]
    fn sort_order_names_the_source_of_every_id() {
        let seqs = vec![
            b"CCCCC".to_vec(),
            b"AAAAAAA".to_vec(),
            b"AAAAA".to_vec(),
            b"CCCCC".to_vec(),
        ];
        let order = ContigSet::sort_order(&seqs);
        assert_eq!(order, vec![1, 2, 0, 3]);
        let set = ContigSet::from_sequences(KmerCodec::new(5), seqs.clone());
        for (id, &i) in order.iter().enumerate() {
            assert_eq!(set.contigs[id].seq, seqs[i]);
        }
    }

    #[test]
    fn kmer_windows_cover_every_offset_once() {
        // 50 + 30 + 10 bases at k = 21: 30, 10 and (too short) 1 offsets.
        let w = set(&[10, 50, 30]).kmer_windows(21, 16);
        assert_eq!(w, vec![(0, 0..16), (0, 16..30), (1, 0..10), (2, 0..1)]);
    }

    #[test]
    fn totals() {
        let s = set(&[10, 20]);
        assert_eq!(s.total_bases(), 30);
        assert_eq!(s.max_len(), 20);
        assert_eq!(s.len(), 2);
    }
}
