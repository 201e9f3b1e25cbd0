//! Insert-size estimation (§4.4).
//!
//! Pairs whose both mates align full-length to one common contig reveal
//! the library's fragment-size distribution. Each rank histograms its
//! sampled pairs locally; the histograms are merged into a global one and
//! the mean/σ are read off it.

use crate::splints::{pair_groups, unique_full_length_mates};
use hipmer_align::Alignment;
use hipmer_pgas::{PhaseReport, Team};
use hipmer_sketch::CountHistogram;

/// Largest insert tracked exactly (the paper's biggest library is
/// 4.2 kbp; 20 kbp leaves generous headroom while keeping the per-rank
/// histogram reduction message small).
const MAX_INSERT: usize = 20_000;

/// Estimated library geometry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InsertEstimate {
    /// Mean fragment length.
    pub mean: f64,
    /// Standard deviation.
    pub sd: f64,
    /// Pairs that contributed.
    pub pairs: u64,
}

/// Estimate the insert size from read-to-contig alignments.
///
/// `alignments` must be sorted by read (as [`hipmer_align::align_reads`]
/// returns them); reads `2i`/`2i+1` form pair `i`.
pub fn estimate_insert_size(
    team: &Team,
    alignments: &[Alignment],
) -> (Option<InsertEstimate>, PhaseReport) {
    // Cheap serial scan; the heavy part — histogramming — is parallel below.
    let pairs = pair_groups(alignments);

    let (histograms, stats) = team.run_named("scaffold/insert-size", |ctx| {
        let mut h = CountHistogram::new(MAX_INSERT);
        for &group in &pairs[ctx.chunk(pairs.len())] {
            ctx.stats.compute(group.len() as u64);
            // Use the pair only if each mate maps uniquely and to a common
            // contig, with opposite orientations (FR).
            if let Some((a1, a2)) = unique_full_length_mates(group) {
                if a1.contig == a2.contig && a1.rc != a2.rc {
                    let lo = a1.contig_start.min(a2.contig_start) as u64;
                    let hi = a1.contig_end.max(a2.contig_end) as u64;
                    h.record(hi - lo);
                }
            }
        }
        // Histogram reduction: one message of histogram size to the root.
        ctx.access(0, MAX_INSERT as u64 * 8);
        h
    });

    let mut merged = CountHistogram::new(MAX_INSERT);
    for h in &histograms {
        merged.merge(h);
    }
    let estimate = if merged.count() == 0 {
        None
    } else {
        Some(InsertEstimate {
            mean: merged.mean().unwrap(),
            sd: merged.stddev().unwrap_or(0.0),
            pairs: merged.count(),
        })
    };
    (
        estimate,
        PhaseReport::new("scaffold/insert-size", *team.topo(), stats),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipmer_align::{align_reads, AlignConfig};
    use hipmer_contig::ContigSet;
    use hipmer_dna::{revcomp, KmerCodec};
    use hipmer_pgas::Topology;
    use hipmer_seqio::SeqRecord;

    fn lcg(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(31);
                b"ACGT"[(x >> 60) as usize % 4]
            })
            .collect()
    }

    #[test]
    fn recovers_known_insert_size() {
        let genome = lcg(5000, 3);
        let contigs = ContigSet::from_sequences(KmerCodec::new(21), vec![genome.clone()]);
        // Pairs with fixed fragment 500, read length 100.
        let mut reads = Vec::new();
        for (i, start) in (0..4000).step_by(80).enumerate() {
            let frag = &genome[start..start + 500];
            reads.push(SeqRecord::with_uniform_quality(
                format!("p{i}/1"),
                frag[..100].to_vec(),
                35,
            ));
            reads.push(SeqRecord::with_uniform_quality(
                format!("p{i}/2"),
                revcomp(&frag[400..]),
                35,
            ));
        }
        let team = Team::new(Topology::new(4, 2));
        let (alns, _) = align_reads(&team, &contigs, &reads, &AlignConfig::new(15));
        let (est, _) = estimate_insert_size(&team, &alns);
        let est = est.expect("pairs found");
        assert!(est.pairs > 30, "pairs {}", est.pairs);
        assert!(
            (est.mean - 500.0).abs() < 5.0,
            "mean {} should be ~500",
            est.mean
        );
        assert!(est.sd < 10.0, "sd {}", est.sd);
    }

    #[test]
    fn no_common_contig_pairs_yields_none() {
        let team = Team::new(Topology::new(2, 2));
        let (est, _) = estimate_insert_size(&team, &[]);
        assert!(est.is_none());
    }
}
