//! Property tests for the alignment kernels.

use hipmer_align::{
    align_read_subset, align_reads, banded_sw, banded_sw_batch, banded_sw_reference,
    ungapped_matches, ungapped_matches_reference, AlignConfig, Alignment, SwParams,
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

/// `banded_sw_batch(jobs)[i]` and `banded_sw(jobs[i])` both equal
/// `banded_sw_reference(jobs[i])`.
fn assert_batch_and_single_match_reference(jobs: &[(Vec<u8>, Vec<u8>)], p: &SwParams) {
    let pairs: Vec<(&[u8], &[u8])> = jobs.iter().map(|(a, b)| (&a[..], &b[..])).collect();
    let batch = banded_sw_batch(&pairs, p);
    assert_eq!(batch.len(), jobs.len());
    for (&(a, b), got) in pairs.iter().zip(batch) {
        let want = banded_sw_reference(a, b, p);
        let shown = || {
            format!(
                "a={} b={} p={p:?}",
                String::from_utf8_lossy(a),
                String::from_utf8_lossy(b)
            )
        };
        assert_eq!(got, want, "batch: {}", shown());
        assert_eq!(banded_sw(a, b, p), want, "single: {}", shown());
    }
}

/// The default scoring and two others: a heavier one, and one where a
/// mismatch and a gap cost the same, so that more candidates tie.
const SCORINGS: [(i32, i32, i32); 3] = [(1, -2, -3), (2, -3, -5), (1, -1, -1)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Mixed lengths inside a batch (so the lanes of one pass end on
    // different rows and columns), related and unrelated pairs.
    #[test]
    fn batch_and_single_equal_reference_on_mixed_batches(
        jobs in prop::collection::vec(
            (
                dna(0..300),
                prop::collection::vec((0usize..300, 0usize..3, 0u8..4), 0..6),
                any::<bool>(),
                dna(0..300),
            ),
            1..41,
        ),
        band in prop::sample::select(&[0usize, 1, 8, 64][..]),
        (mat, mis, gap) in prop::sample::select(&SCORINGS[..]),
    ) {
        let jobs: Vec<(Vec<u8>, Vec<u8>)> = jobs
            .into_iter()
            .map(|(a, edits, related, other)| {
                let b = if related { mutate(&a, &edits) } else { other };
                (a, b)
            })
            .collect();
        assert_batch_and_single_match_reference(&jobs, &SwParams { mat, mis, gap, band });
    }
}

fn lcg_dna(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed;
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            BASES[(x >> 60) as usize % 4]
        })
        .collect()
}

#[test]
fn indels_at_both_band_edges_match_reference() {
    // A read with `shift` bases deleted moves the alignment `shift`
    // diagonals up; with `shift` bases inserted, down. At shift = band the
    // tail runs on the band's edge, at band + 1 just outside it. The window
    // starts on the read's diagonal, as merAligner's fallback does.
    for band in [1usize, 8] {
        let mut jobs = Vec::new();
        for shift in [band - 1, band, band + 1] {
            for at in [10usize, 60, 110] {
                let contig = lcg_dna(
                    120 + 2 * shift + band,
                    (band * 100 + shift * 10 + at) as u64,
                );
                let mut deleted = contig[..120 + shift].to_vec();
                deleted.drain(at..at + shift);
                let mut inserted = contig[..120].to_vec();
                let extra = lcg_dna(shift, at as u64);
                inserted.splice(at..at, extra);
                for read in [deleted, inserted] {
                    let window = contig[..(read.len() + band).min(contig.len())].to_vec();
                    jobs.push((read, window));
                }
            }
        }
        assert_batch_and_single_match_reference(
            &jobs,
            &SwParams {
                band,
                ..SwParams::default()
            },
        );
    }
}

#[test]
fn jobs_either_side_of_the_i16_bound_match_reference() {
    // Lanes are i16 while |a| + |b| < 32767 and the best score plus one
    // step fits; these pairs sit one base either side of each limit. A
    // mismatch at the start keeps them off the perfect-diagonal shortcut,
    // and three copies of a pair fill enough lanes for a batch pass.
    let mismatched = |mut s: Vec<u8>| {
        s[3] = if s[3] == b'A' { b'C' } else { b'A' };
        s
    };
    for n in [32_700usize, 32_701] {
        let a = lcg_dna(n, 5);
        let b = mismatched(a[..66].to_vec());
        assert_batch_and_single_match_reference(&vec![(a, b); 3], &SwParams::default());
    }
    let heavy = SwParams {
        mat: 300,
        mis: -300,
        gap: -300,
        band: 8,
    };
    for n in [108usize, 109] {
        let a = lcg_dna(n, 7);
        let b = mismatched(a.clone());
        let jobs = [(a.clone(), b.clone()), (b.clone(), a.clone()), (a, b)];
        assert_batch_and_single_match_reference(&jobs, &heavy);
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
