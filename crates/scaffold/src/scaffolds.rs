//! Scaffold data types.

use hipmer_contig::ContigSet;

/// One oriented contig inside a scaffold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScaffoldMember {
    /// Contig id (into the scaffolding contig set).
    pub contig: u32,
    /// `true` if the contig participates reverse-complemented.
    pub reversed: bool,
    /// Estimated gap in bases between the previous member and this one
    /// (unused for the first member; negative = overlap/splint).
    pub gap_before: i64,
}

/// An ordered, oriented chain of contigs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Scaffold {
    /// Members in left-to-right order.
    pub members: Vec<ScaffoldMember>,
}

impl Scaffold {
    /// Number of member contigs.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the scaffold has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Number of internal gaps.
    pub fn gaps(&self) -> usize {
        self.members.len().saturating_sub(1)
    }

    /// Span in bases over `contigs`, counting positive gaps.
    pub fn span(&self, contigs: &ContigSet) -> usize {
        let mut total = 0i64;
        for (i, m) in self.members.iter().enumerate() {
            if i > 0 {
                total += m.gap_before.max(0);
            }
            total += contigs.contigs[m.contig as usize].len() as i64;
        }
        total.max(0) as usize
    }
}

/// The scaffolding result: scaffolds plus their final sequences (after gap
/// closing).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScaffoldSet {
    /// The contig chains.
    pub scaffolds: Vec<Scaffold>,
    /// Final sequence per scaffold (gaps closed or N-filled), same order.
    pub sequences: Vec<Vec<u8>>,
    /// Where each member's (oriented) contig starts in its scaffold's
    /// sequence: one entry per member, same order. A member joined by an
    /// overlap starts inside its predecessor's tail, on the bases the two
    /// share.
    pub offsets: Vec<Vec<u32>>,
}

impl ScaffoldSet {
    /// Number of scaffolds.
    pub fn len(&self) -> usize {
        self.scaffolds.len()
    }

    /// Whether there are no scaffolds.
    pub fn is_empty(&self) -> bool {
        self.scaffolds.is_empty()
    }

    /// Total bases over all final sequences.
    pub fn total_bases(&self) -> usize {
        self.sequences.iter().map(Vec::len).sum()
    }

    /// Scaffold N50 over the final sequences.
    pub fn n50(&self) -> usize {
        let mut lens: Vec<usize> = self.sequences.iter().map(Vec::len).collect();
        lens.sort_unstable_by(|a, b| b.cmp(a));
        let total: usize = lens.iter().sum();
        let mut acc = 0;
        for l in lens {
            acc += l;
            if 2 * acc >= total {
                return l;
            }
        }
        0
    }

    /// The longest final sequence.
    pub fn max_len(&self) -> usize {
        self.sequences.iter().map(Vec::len).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipmer_dna::KmerCodec;

    fn contigs(lens: &[usize]) -> ContigSet {
        ContigSet::from_sequences(
            KmerCodec::new(21),
            lens.iter().map(|&l| vec![b'A'; l]).collect(),
        )
    }

    #[test]
    fn span_counts_gaps_and_lengths() {
        let cs = contigs(&[100, 50]);
        let s = Scaffold {
            members: vec![
                ScaffoldMember {
                    contig: 0,
                    reversed: false,
                    gap_before: 0,
                },
                ScaffoldMember {
                    contig: 1,
                    reversed: true,
                    gap_before: 25,
                },
            ],
        };
        assert_eq!(s.span(&cs), 175);
        assert_eq!(s.gaps(), 1);
        // Negative gap (overlap) does not shrink the span below the sum.
        let mut s2 = s.clone();
        s2.members[1].gap_before = -10;
        assert_eq!(s2.span(&cs), 150);
    }

    #[test]
    fn scaffold_set_n50() {
        let set = ScaffoldSet {
            scaffolds: vec![Scaffold::default(); 3],
            sequences: vec![vec![b'A'; 50], vec![b'A'; 30], vec![b'A'; 10]],
            offsets: vec![Vec::new(); 3],
        };
        assert_eq!(set.n50(), 50);
        assert_eq!(set.total_bases(), 90);
        assert_eq!(set.max_len(), 50);
    }
}
