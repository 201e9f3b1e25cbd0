//! Property tests for the alignment kernels.

use hipmer_align::{
    align_read_subset, align_reads, banded_sw, banded_sw_reference, ungapped_matches,
    ungapped_matches_reference, AlignConfig, Alignment, SwParams,
};
use hipmer_contig::ContigSet;
use hipmer_dna::{revcomp, KmerCodec, BASES};
use hipmer_pgas::{Team, Topology};
use hipmer_seqio::SeqRecord;
use proptest::prelude::*;

fn dna(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop::sample::select(&BASES[..]), len)
}

/// Mutate `a` into a related sequence: substitutions plus small indels,
/// the read-vs-contig shape the banded kernel is built for.
fn mutate(a: &[u8], edits: &[(usize, usize, u8)]) -> Vec<u8> {
    let mut b = a.to_vec();
    for &(pos, kind, alt) in edits {
        if b.is_empty() {
            break;
        }
        let pos = pos % b.len();
        match kind % 3 {
            0 => b[pos] = BASES[alt as usize % 4],
            1 => {
                b.insert(pos, BASES[alt as usize % 4]);
            }
            _ => {
                b.remove(pos);
            }
        }
    }
    b
}

proptest! {
    #[test]
    fn score_bounded_by_match_count(a in dna(1..120), b in dna(1..120)) {
        let p = SwParams::default();
        let r = banded_sw(&a, &b, &p);
        prop_assert!(r.score <= (a.len().min(b.len()) as i32) * p.mat);
        prop_assert!(r.score >= 0);
        prop_assert!(r.matches <= r.aligned);
        prop_assert!(r.a_end <= a.len());
        prop_assert!(r.b_end <= b.len());
    }

    #[test]
    fn self_alignment_is_perfect(a in dna(1..150)) {
        let p = SwParams::default();
        let r = banded_sw(&a, &a, &p);
        prop_assert_eq!(r.score, a.len() as i32 * p.mat);
        prop_assert_eq!(r.matches, a.len());
        prop_assert_eq!(r.aligned, a.len());
    }

    #[test]
    fn substitutions_only_score_is_symmetric(
        a in dna(10..100),
        positions in prop::collection::vec(0usize..100, 0..5),
    ) {
        let mut b = a.clone();
        for &p in &positions {
            if p < b.len() {
                b[p] = if b[p] == b'A' { b'C' } else { b'A' };
            }
        }
        let params = SwParams::default();
        let r1 = banded_sw(&a, &b, &params);
        let r2 = banded_sw(&b, &a, &params);
        prop_assert_eq!(r1.score, r2.score);
        prop_assert_eq!(r1.matches, r2.matches);
    }

    #[test]
    fn few_substitutions_alignment_found(a in dna(40..120), pos in 0usize..200, alt in 0usize..4) {
        let mut b = a.clone();
        if pos < b.len() {
            b[pos] = BASES[alt];
        }
        let mismatches = a.iter().zip(&b).filter(|(x, y)| x != y).count();
        let r = banded_sw(&a, &b, &SwParams::default());
        // At most one substitution: alignment must recover all matches.
        prop_assert!(r.matches >= a.len() - mismatches - 2,
            "matches {} of {} (mismatches {})", r.matches, a.len(), mismatches);
    }

    #[test]
    fn optimized_sw_equals_reference_on_random_pairs(
        a in dna(0..140),
        b in dna(0..140),
        band in 0usize..12,
    ) {
        let p = SwParams { band, ..SwParams::default() };
        prop_assert_eq!(banded_sw(&a, &b, &p), banded_sw_reference(&a, &b, &p));
    }

    #[test]
    fn optimized_sw_equals_reference_on_related_pairs(
        a in dna(1..160),
        edits in prop::collection::vec((0usize..200, 0usize..3, 0u8..4), 0..6),
        mat in 1i32..4,
        mis in -4i32..1,
        gap in -5i32..0,
        band in 1usize..10,
    ) {
        let b = mutate(&a, &edits);
        let p = SwParams { mat, mis, gap, band };
        prop_assert_eq!(banded_sw(&a, &b, &p), banded_sw_reference(&a, &b, &p),
            "a={} b={} p={:?}",
            String::from_utf8_lossy(&a), String::from_utf8_lossy(&b), p);
    }

    #[test]
    fn optimized_ungapped_equals_reference(a in dna(0..130), b in dna(0..130)) {
        prop_assert_eq!(ungapped_matches(&a, &b), ungapped_matches_reference(&a, &b));
    }

    #[test]
    fn ungapped_matches_bounds(a in dna(0..100), b in dna(0..100)) {
        let (m, len) = ungapped_matches(&a, &b);
        prop_assert_eq!(len, a.len().min(b.len()));
        prop_assert!(m <= len);
        let (m2, _) = ungapped_matches(&b, &a);
        prop_assert_eq!(m, m2);
    }
}

/// Contigs cut from a genome that carries three copies of a 150-base
/// repeat, and 80 reads sampled from it on both strands with a
/// substitution or an indel now and then (some cross a cut, some are
/// noise).
fn subset_fixture() -> (ContigSet, Vec<SeqRecord>) {
    let mut x = 77u64;
    let mut rand = move |n: usize| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) as usize % n
    };
    let mut genome: Vec<u8> = (0..3000).map(|_| BASES[rand(4)]).collect();
    let repeat = genome[200..350].to_vec();
    genome[1200..1350].copy_from_slice(&repeat);
    genome[2400..2550].copy_from_slice(&repeat);
    let cuts = [0, 900, 1700, 2300, 3000];
    let contigs = ContigSet::from_sequences(
        KmerCodec::new(21),
        cuts.windows(2)
            .map(|w| genome[w[0]..w[1]].to_vec())
            .collect(),
    );
    let reads = (0..80)
        .map(|i| {
            let mut seq: Vec<u8> = if i % 10 == 9 {
                (0..100).map(|_| BASES[rand(4)]).collect()
            } else {
                let start = rand(genome.len() - 100);
                genome[start..start + 100].to_vec()
            };
            match rand(4) {
                0 => seq[rand(100)] = BASES[rand(4)],
                1 => {
                    seq.remove(rand(100));
                }
                2 => seq.insert(rand(100), BASES[rand(4)]),
                _ => {}
            }
            if rand(2) == 0 {
                seq = revcomp(&seq);
            }
            SeqRecord::with_uniform_quality(format!("r{i}"), seq, 35)
        })
        .collect();
    (contigs, reads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // A read's alignments depend on the read, the contigs and the config
    // only: aligning any subset of the reads returns exactly the full run's
    // alignments of those reads, whatever the rank count.
    #[test]
    fn a_read_subset_aligns_as_in_the_full_run(keep in prop::collection::vec(any::<bool>(), 80)) {
        let (contigs, reads) = subset_fixture();
        let subset: Vec<u32> = (0u32..).zip(&keep).filter(|(_, &k)| k).map(|(i, _)| i).collect();
        let cfg = AlignConfig::new(15);
        for ranks in [1, 8] {
            let team = Team::new(Topology::new(ranks, 4));
            let (full, _) = align_reads(&team, &contigs, &reads, &cfg);
            let expect: Vec<Alignment> =
                full.into_iter().filter(|a| keep[a.read as usize]).collect();
            let (part, reports) = align_read_subset(&team, &contigs, &reads, &subset, &cfg);
            prop_assert_eq!(part, expect, "ranks {}", ranks);
            prop_assert_eq!(reports.len(), 2);
        }
    }
}
