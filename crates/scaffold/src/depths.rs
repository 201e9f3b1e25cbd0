//! Contig depths and termination states (§4.1).
//!
//! Each rank takes 1/p of the contigs, looks every contained k-mer up in
//! the k-mer table (one-sided reads of a frozen table, so no
//! synchronization), sums the counts into a mean depth, and classifies why
//! each contig end stopped extending.
//!
//! The per-window lookups ship as batched multi-gets
//! ([`hipmer_pgas::FrozenMap::multi_get`] via
//! [`KmerSpectrum::get_batch`]): one message per owner rank per window
//! instead of one per k-mer, with identical results — the read-side
//! analogue of the aggregating stores used to build the table.

use hipmer_contig::ContigSet;
use hipmer_dna::{ExtChoice, Kmer};
use hipmer_kanalysis::KmerSpectrum;
use hipmer_pgas::{PhaseReport, RankCtx, Team};

/// Why a contig stopped extending at one end.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TerminationState {
    /// The next k-mer does not exist in the table (dropped as erroneous or
    /// beyond coverage).
    DeadEnd,
    /// The next k-mer exists but is a fork (two high-quality neighbors —
    /// the diploid/repeat case §4.2 feeds on).
    Fork,
    /// The next k-mer exists and is UU but its back-pointer disagrees
    /// (non-mutual link).
    NonMutual,
}

/// Depth and end-state information for one contig.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ContigEndInfo {
    /// Mean k-mer count over the contig.
    pub depth: f64,
    /// Termination at the sequence's left (`seq[0]`) end.
    pub left_state: TerminationState,
    /// The k-mer just beyond the left end (canonical), if derivable — the
    /// "attachment" the bubble finder keys on.
    pub left_attach: Option<Kmer>,
    /// Termination at the right end.
    pub right_state: TerminationState,
    /// The k-mer just beyond the right end (canonical).
    pub right_attach: Option<Kmer>,
}

/// Classify one contig end. `end_kmer` is the terminal k-mer *oriented in
/// contig direction*, `outward_left` selects which side points away from
/// the contig.
fn classify_end(
    ctx: &mut RankCtx,
    spectrum: &KmerSpectrum,
    end_kmer: Kmer,
    outward_left: bool,
) -> (TerminationState, Option<Kmer>) {
    let codec = &spectrum.codec;
    let canon = codec.canonical(end_kmer);
    let Some(entry) = spectrum.table.get(ctx, &canon) else {
        // The contig's own end k-mer vanished (should not happen for
        // traversal output, but tolerate foreign contig sets).
        return (TerminationState::DeadEnd, None);
    };
    let exts = if canon == end_kmer {
        entry.exts
    } else {
        entry.exts.flip()
    };
    let outward = if outward_left { exts.left } else { exts.right };
    match outward {
        ExtChoice::None => (TerminationState::DeadEnd, None),
        ExtChoice::Fork => (TerminationState::Fork, None),
        ExtChoice::Unique(b) => {
            let neighbor = if outward_left {
                codec.extend_left(end_kmer, b)
            } else {
                codec.extend_right(end_kmer, b)
            };
            let ncanon = codec.canonical(neighbor);
            match spectrum.table.get(ctx, &ncanon) {
                None => (TerminationState::DeadEnd, Some(ncanon)),
                Some(nentry) => {
                    // Orient the neighbor's extensions in walk direction;
                    // the side facing the contig is "back", the other is
                    // "far". A fork on either side is a branch point; a
                    // missing far extension means coverage ran out; a UU
                    // neighbor means the traversal stopped for mutuality.
                    let nexts = if ncanon == neighbor {
                        nentry.exts
                    } else {
                        nentry.exts.flip()
                    };
                    let (far, back) = if outward_left {
                        (nexts.left, nexts.right)
                    } else {
                        (nexts.right, nexts.left)
                    };
                    use hipmer_dna::ExtChoice as E;
                    let state = match (far, back) {
                        (E::Fork, _) | (_, E::Fork) => TerminationState::Fork,
                        (E::None, _) | (_, E::None) => TerminationState::DeadEnd,
                        _ => TerminationState::NonMutual,
                    };
                    (state, Some(ncanon))
                }
            }
        }
    }
}

/// The depth below which half the bases of `contigs` (as `(depth, length)`)
/// lie — the genome-wide reference depth of the bubble and repeat gates.
/// `total_cmp` keeps the sort total even if a depth is NaN (a foreign
/// contig set whose depth stage never ran): NaNs sort to the end, and a
/// NaN median disarms the gates rather than panicking. `0.0` when empty.
pub(crate) fn weighted_median_depth(contigs: impl Iterator<Item = (f64, usize)>) -> f64 {
    let mut weighted: Vec<(f64, usize)> = contigs.collect();
    weighted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let half_bases: usize = weighted.iter().map(|(_, l)| l).sum::<usize>() / 2;
    let mut acc = 0usize;
    for (d, l) in &weighted {
        acc += l;
        if acc >= half_bases {
            return *d;
        }
    }
    0.0
}

/// Compute depth and end states for every contig (parallel over contigs).
/// Returns per-contig info indexed by contig id, and the phase report.
/// Each rank takes one contiguous block of windows.
pub fn compute_depths(
    team: &Team,
    spectrum: &KmerSpectrum,
    contigs: &ContigSet,
) -> (Vec<ContigEndInfo>, PhaseReport) {
    let codec = &spectrum.codec;
    let k = codec.k();

    // Work units are fixed-size windows of k-mers, not whole contigs.
    const WINDOW: usize = 1024;
    let windows = contigs.kmer_windows(k, WINDOW);

    let (chunks, mut stats) = team.run_named("scaffold/depths", |ctx| {
        // Per-window partial sums plus end info computed by the windows
        // that hold the contig's first/last k-mer.
        let mut partial: Vec<(usize, u64, u64)> = Vec::new(); // (contig, sum, n)
        let mut ends: Vec<(usize, bool, TerminationState, Option<Kmer>)> = Vec::new();
        for (ci, window) in &windows[ctx.chunk(windows.len())] {
            let (ci, lo, hi) = (*ci, window.start, window.end);
            let contig = &contigs.contigs[ci];
            let n_kmers = contig.seq.len() - k + 1;
            // Resolve the window's k-mers as one batched multi-get per
            // owner rank instead of one message per k-mer.
            let kmers: Vec<Kmer> = (lo..hi)
                .filter_map(|off| codec.pack(&contig.seq[off..off + k]))
                .collect();
            ctx.stats.compute((hi - lo) as u64);
            let mut sum = 0u64;
            let mut n = 0u64;
            for entry in spectrum.get_batch(ctx, &kmers).into_iter().flatten() {
                sum += entry.count as u64;
                n += 1;
            }
            partial.push((ci, sum, n));
            if lo == 0 {
                let first = codec
                    .pack(&contig.seq[..k])
                    .expect("contig starts with k clean bases");
                let (state, attach) = classify_end(ctx, spectrum, first, true);
                ends.push((ci, true, state, attach));
            }
            if hi == n_kmers {
                let last = codec
                    .pack(&contig.seq[contig.seq.len() - k..])
                    .expect("contig ends with k clean bases");
                let (state, attach) = classify_end(ctx, spectrum, last, false);
                ends.push((ci, false, state, attach));
            }
        }
        (partial, ends)
    });
    spectrum.table.record_entries(&mut stats);

    let mut info = vec![
        ContigEndInfo {
            depth: 0.0,
            left_state: TerminationState::DeadEnd,
            left_attach: None,
            right_state: TerminationState::DeadEnd,
            right_attach: None,
        };
        contigs.contigs.len()
    ];
    let mut sums = vec![(0u64, 0u64); contigs.contigs.len()];
    for (partial, ends) in chunks {
        for (ci, s, n) in partial {
            sums[ci].0 += s;
            sums[ci].1 += n;
        }
        for (ci, is_left, state, attach) in ends {
            if is_left {
                info[ci].left_state = state;
                info[ci].left_attach = attach;
            } else {
                info[ci].right_state = state;
                info[ci].right_attach = attach;
            }
        }
    }
    for (ci, (s, n)) in sums.into_iter().enumerate() {
        info[ci].depth = if n == 0 { 0.0 } else { s as f64 / n as f64 };
    }
    (
        info,
        PhaseReport::new("scaffold/depths", *team.topo(), stats),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipmer_contig::{generate_contigs, ContigConfig};
    use hipmer_kanalysis::{analyze_kmers, KmerAnalysisConfig};
    use hipmer_pgas::Topology;
    use hipmer_seqio::SeqRecord;

    fn lcg(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(11);
                b"ACGT"[(x >> 60) as usize % 4]
            })
            .collect()
    }

    fn tile_reads(genome: &[u8], read_len: usize, depth: usize) -> Vec<SeqRecord> {
        let mut out = Vec::new();
        for d in 0..depth {
            let mut pos = d * 11 % 40;
            while pos + read_len <= genome.len() {
                out.push(SeqRecord::with_uniform_quality(
                    format!("r{d}_{pos}"),
                    genome[pos..pos + read_len].to_vec(),
                    35,
                ));
                pos += 40;
            }
        }
        out
    }

    #[test]
    fn depth_reflects_coverage() {
        let genome = lcg(2000, 1);
        let team = Team::new(Topology::new(4, 2));
        let reads = tile_reads(&genome, 80, 6);
        let (spectrum, _) = analyze_kmers(&team, &reads, &KmerAnalysisConfig::new(21));
        let (contigs, _) = generate_contigs(&team, &spectrum, &ContigConfig::default());
        let (info, _) = compute_depths(&team, &spectrum, &contigs);
        assert_eq!(info.len(), contigs.len());
        // Reads tile at stride 40 with 6 offsets over 80bp reads -> each
        // base covered ~12x; interior k-mer count ≈ reads covering it.
        let d = info[0].depth;
        assert!(d > 4.0 && d < 20.0, "depth {d}");
    }

    #[test]
    fn clean_genome_ends_are_dead_ends() {
        let genome = lcg(1500, 3);
        let team = Team::new(Topology::new(2, 2));
        let reads = tile_reads(&genome, 80, 6);
        let (spectrum, _) = analyze_kmers(&team, &reads, &KmerAnalysisConfig::new(21));
        let (contigs, _) = generate_contigs(&team, &spectrum, &ContigConfig::default());
        let (info, _) = compute_depths(&team, &spectrum, &contigs);
        // The dominant contig's ends stop because coverage runs out.
        let main = &info[0];
        assert_eq!(main.left_state, TerminationState::DeadEnd);
        assert_eq!(main.right_state, TerminationState::DeadEnd);
    }

    #[test]
    fn snp_bubble_ends_report_fork_and_shared_attachment() {
        // Two haplotypes differing by one SNP in the middle.
        let h1 = lcg(800, 5);
        let mut h2 = h1.clone();
        h2[400] = match h2[400] {
            b'A' => b'C',
            _ => b'A',
        };
        let mut reads = tile_reads(&h1, 80, 4);
        reads.extend(tile_reads(&h2, 80, 4));
        let team = Team::new(Topology::new(2, 2));
        let (spectrum, _) = analyze_kmers(&team, &reads, &KmerAnalysisConfig::new(21));
        let (contigs, _) = generate_contigs(&team, &spectrum, &ContigConfig::default());
        let (info, _) = compute_depths(&team, &spectrum, &contigs);

        // Expect ≥4 contigs: two flanks + two bubble arms. The bubble arms
        // (length 2k-1 = 41) terminate at forks on both sides and share
        // attachment k-mers pairwise.
        let arms: Vec<usize> = (0..contigs.len())
            .filter(|&i| contigs.contigs[i].len() < 100)
            .collect();
        assert!(arms.len() >= 2, "expected bubble arms, got {:?}", arms);
        let a0 = &info[arms[0]];
        let a1 = &info[arms[1]];
        assert_eq!(a0.left_state, TerminationState::Fork);
        assert_eq!(a0.right_state, TerminationState::Fork);
        // Shared attachments (possibly swapped left/right since arms are
        // canonical-oriented independently).
        let set0: std::collections::HashSet<_> =
            [a0.left_attach, a0.right_attach].into_iter().collect();
        let set1: std::collections::HashSet<_> =
            [a1.left_attach, a1.right_attach].into_iter().collect();
        assert_eq!(set0, set1, "bubble arms must share attachment k-mers");
    }
}
