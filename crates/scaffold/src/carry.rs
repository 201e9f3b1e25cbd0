//! Carrying alignments from one scaffolding round to the next.
//!
//! A round's scaffolds become the next round's contigs: every contig of
//! round r sits, whole and at a known offset and orientation, inside
//! exactly one contig of round r + 1 (gap closing records the offsets;
//! overlap closures only drop bases the two members share). An alignment
//! to a round-r contig is therefore also an alignment to its round-(r + 1)
//! contig, with the contig coordinates shifted — and mirrored, with the
//! strand flipped, for a member that joined reverse-complemented.
//!
//! What a shift cannot reproduce is what the join changes, and a read
//! goes back through the aligner if the join can change its alignments:
//!
//! - it had no alignment;
//! - it reaches a junction: one of its alignments, extended by the read
//!   bases it left unaligned, comes within [`BAND`] bases of a member end
//!   that faced a junction (the read may now align across it, and the
//!   gapped fallback's window may reach past the old end) or into the
//!   prefix an overlap closure dropped there (those bases now exist once);
//! - one of its seeds changed: it occurs in a window that spans a junction
//!   or a gap fill, or in bases an overlap merged, so the read may gain or
//!   lose a candidate anywhere — a repeat copy filled into a gap is the
//!   common case.
//!
//! Everything else is translated and finds, on the new contigs, the very
//! candidates it found before. A read reaches at most its own length past
//! an alignment, so the junction zone lies inside δ = read length +
//! [`BAND`] of the end; measuring it from the read rather than from that
//! worst case sends far fewer reads back (EXPERIMENTS.md has both).

use crate::scaffolds::ScaffoldSet;
use hipmer_align::aligner::BAND;
use hipmer_align::index::MAX_SEED_HITS;
use hipmer_align::{drop_contained, stride_seeds, Alignment};
use hipmer_contig::ContigSet;
use hipmer_dna::{Kmer, KmerCodec, KmerHashMap, KmerHashSet};
use hipmer_pgas::{PhaseReport, Team};
use hipmer_seqio::SeqRecord;

/// Where one round-r contig landed in the round-(r + 1) contig set.
#[derive(Clone, Copy, Debug, Default)]
struct Landing {
    /// Its round-(r + 1) contig id.
    contig: u32,
    /// First base of the (oriented) contig in that contig.
    offset: u32,
    /// It joined its scaffold reverse-complemented.
    reversed: bool,
    /// Per end, in the contig's own coordinates (start, end): `None` if
    /// that end faced no junction, else the bases at it an overlap closure
    /// dropped (0 for none).
    junction: [Option<u32>; 2],
}

/// One [`Landing`] per contig of `prev`, the contig set `set` scaffolded.
fn landings(prev: &ContigSet, set: &ScaffoldSet) -> Vec<Landing> {
    // Scaffold index -> its id in the next round's `ContigSet`.
    let mut new_id = vec![0u32; set.sequences.len()];
    for (id, si) in ContigSet::sort_order(&set.sequences)
        .into_iter()
        .enumerate()
    {
        new_id[si] = id as u32;
    }
    let len = |c: u32| prev.contigs[c as usize].len() as u32;
    let mut out = vec![Landing::default(); prev.len()];
    for ((s, offsets), &contig) in set.scaffolds.iter().zip(&set.offsets).zip(&new_id) {
        for (j, m) in s.members.iter().enumerate() {
            // The leading end faces a junction unless the member is first;
            // a preceding member that reaches past this one's offset
            // shares (and an overlap closure dropped) those bases.
            let leading = (j > 0).then(|| {
                let before = &s.members[j - 1];
                (offsets[j - 1] + len(before.contig)).saturating_sub(offsets[j])
            });
            let trailing = (j + 1 < s.members.len()).then_some(0);
            out[m.contig as usize] = Landing {
                contig,
                offset: offsets[j],
                reversed: m.reversed,
                junction: if m.reversed {
                    [trailing, leading]
                } else {
                    [leading, trailing]
                },
            };
        }
    }
    out
}

/// Whether the read of an alignment to a contig of `len` bases comes within
/// [`BAND`] of a contig end that faced a junction, or reaches into the
/// bases an overlap closure dropped there.
fn near_junction(a: &Alignment, landing: &Landing, len: u32) -> bool {
    // The read projected onto the contig: its unaligned bases continue past
    // the alignment on the side its strand puts them.
    let (before, after) = if a.rc {
        (a.read_len - a.read_end, a.read_start)
    } else {
        (a.read_start, a.read_len - a.read_end)
    };
    let lo = a.contig_start as i64 - before as i64;
    let hi = (a.contig_end + after) as i64;
    let band = BAND as i64;
    let [start, end] = landing.junction;
    start.is_some_and(|dropped| lo < band.max(dropped as i64))
        || end.is_some_and(|dropped| hi + band.max(dropped as i64) > len as i64)
}

/// The canonical seeds whose hits in the next round's contigs are not just
/// the translated hits in `prev`: those of every window that lies inside
/// no member (it spans a junction or a gap fill) or inside two (bases an
/// overlap closure merged). A seed the aligner skips as a repeat in both
/// contig sets changes nothing and is left out. A read none of whose seeds
/// remain finds the same candidates, translated, in either set.
fn changed_seeds(
    prev: &ContigSet,
    set: &ScaffoldSet,
    next: &ContigSet,
    codec: &KmerCodec,
) -> KmerHashSet<Kmer> {
    let k = codec.k();
    // Canonical seed -> (occurrences in `next`, occurrences in `prev` minus
    // those in `next`).
    let mut counts: KmerHashMap<Kmer, (u32, i64)> = KmerHashMap::default();
    for ((s, offsets), seq) in set.scaffolds.iter().zip(&set.offsets).zip(&set.sequences) {
        if s.members.len() < 2 || seq.len() < k {
            continue;
        }
        // Running count of the members that hold the window starting at p.
        let mut delta = vec![0i64; seq.len() - k + 2];
        for (m, &off) in s.members.iter().zip(offsets) {
            let len = prev.contigs[m.contig as usize].len();
            if len >= k {
                delta[off as usize] += 1;
                delta[off as usize + len - k + 1] -= 1;
            }
        }
        let mut holders = 0;
        for (p, d) in delta[..=seq.len() - k].iter().enumerate() {
            holders += d;
            if holders != 1 {
                if let Some(km) = codec.pack(&seq[p..p + k]) {
                    counts.entry(codec.canonical(km)).or_default().1 += holders - 1;
                }
            }
        }
    }
    for c in &next.contigs {
        for (_, _, canon) in codec.canonical_kmers(&c.seq) {
            if let Some(n) = counts.get_mut(&canon) {
                n.0 += 1;
            }
        }
    }
    let repeat = |n: i64| n > MAX_SEED_HITS as i64;
    counts
        .into_iter()
        .filter(|&(_, (now, gone))| !(repeat(now as i64) && repeat(now as i64 + gone)))
        .map(|(canon, _)| canon)
        .collect()
}

/// `a` moved onto the contig `landing` names.
fn translate(a: &Alignment, landing: &Landing, len: u32) -> Alignment {
    let (start, end, rc) = if landing.reversed {
        (len - a.contig_end, len - a.contig_start, !a.rc)
    } else {
        (a.contig_start, a.contig_end, a.rc)
    };
    Alignment {
        contig: landing.contig,
        contig_start: landing.offset + start,
        contig_end: landing.offset + end,
        rc,
        ..*a
    }
}

/// Split round r's `alignments` (of `reads` to `prev`, sorted by read)
/// into what the round-(r + 1) contig set `next` — built from `set`'s
/// sequences — can inherit and what it cannot. Returns the translated
/// alignments of every read that keeps its alignments (in read order, not
/// re-sorted: contig ids changed), the ascending indices of the reads that
/// must be aligned afresh, and the report of the `scaffold/carry` phase,
/// in which each rank takes one contiguous block of reads. `seed_len` is
/// the aligner's.
pub(crate) fn carry_alignments(
    team: &Team,
    prev: &ContigSet,
    set: &ScaffoldSet,
    next: &ContigSet,
    alignments: &[Alignment],
    reads: &[SeqRecord],
    seed_len: usize,
) -> (Vec<Alignment>, Vec<u32>, PhaseReport) {
    let landings = landings(prev, set);
    let codec = KmerCodec::new(seed_len);
    let changed = changed_seeds(prev, set, next, &codec);
    let len = |a: &Alignment| prev.contigs[a.contig as usize].len() as u32;
    let (blocks, stats) = team.run_named("scaffold/carry", |ctx| {
        let block = ctx.chunk(reads.len());
        let lo = alignments.partition_point(|a| (a.read as usize) < block.start);
        let hi = alignments.partition_point(|a| (a.read as usize) < block.end);
        let mut rest = &alignments[lo..hi];
        let mut carried = Vec::with_capacity(rest.len());
        let mut realign = Vec::new();
        for read in block.start as u32..block.end as u32 {
            let (mine, after) = rest.split_at(rest.partition_point(|a| a.read == read));
            rest = after;
            ctx.stats.compute(1 + mine.len() as u64);
            if mine.is_empty()
                || mine
                    .iter()
                    .any(|a| near_junction(a, &landings[a.contig as usize], len(a)))
                || (!changed.is_empty()
                    && stride_seeds(&codec, &reads[read as usize].seq)
                        .any(|(_, _, canon)| changed.contains(&canon)))
            {
                realign.push(read);
                continue;
            }
            let mut moved_all = Vec::with_capacity(mine.len());
            for a in mine {
                let moved = translate(a, &landings[a.contig as usize], len(a));
                debug_assert!(
                    {
                        let old = &prev.contigs[a.contig as usize].seq
                            [a.contig_start as usize..a.contig_end as usize];
                        let new = &next.contigs[moved.contig as usize].seq
                            [moved.contig_start as usize..moved.contig_end as usize];
                        if landings[a.contig as usize].reversed {
                            hipmer_dna::revcomp(old) == new
                        } else {
                            old == new
                        }
                    },
                    "carried alignment does not cover the same bases: {a:?} -> {moved:?}"
                );
                moved_all.push(moved);
            }
            // Two contigs that now share one may hold one alignment each
            // where the aligner keeps only the better.
            carried.extend(drop_contained(moved_all));
        }
        (carried, realign)
    });
    debug_assert!(
        alignments
            .last()
            .is_none_or(|a| (a.read as usize) < reads.len()),
        "alignments name reads past the read slice"
    );
    let (carried, realign): (Vec<_>, Vec<_>) = blocks.into_iter().unzip();
    (
        carried.concat(),
        realign.concat(),
        PhaseReport::new("scaffold/carry", *team.topo(), stats),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gapclose::{close_gaps, GapCloseConfig};
    use crate::scaffolds::{Scaffold, ScaffoldMember};
    use hipmer_align::{align_reads, AlignConfig};
    use hipmer_dna::revcomp;
    use hipmer_pgas::Topology;

    fn lcg(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(43);
                b"ACGT"[(x >> 60) as usize % 4]
            })
            .collect()
    }

    fn member(contigs: &ContigSet, seq: &[u8], reversed: bool, gap_before: i64) -> ScaffoldMember {
        let stored = if reversed { revcomp(seq) } else { seq.to_vec() };
        let contig = contigs
            .contigs
            .iter()
            .position(|c| c.seq == stored)
            .unwrap() as u32;
        ScaffoldMember {
            contig,
            reversed,
            gap_before,
        }
    }

    /// What one round hands the next: the contigs it scaffolded, its
    /// gap-closed scaffolds, the next round's contigs, and its alignments of
    /// the reads.
    struct Round {
        prev: ContigSet,
        set: ScaffoldSet,
        next: ContigSet,
        before: Vec<Alignment>,
        reads: Vec<SeqRecord>,
        /// D's bases.
        d: Vec<u8>,
    }

    /// One scaffold joins A, reverse-complemented B (overlapping A by 30
    /// bases) and C (an unclosable 100-base gap after B); D stays a
    /// singleton. Reads tile the genome on both strands.
    fn round() -> Round {
        let genome = lcg(1100, 1);
        let a = genome[..400].to_vec();
        let b = genome[370..700].to_vec();
        let c = genome[800..].to_vec();
        let d = lcg(250, 2);
        let prev = ContigSet::from_sequences(
            KmerCodec::new(21),
            vec![a.clone(), revcomp(&b), c.clone(), d.clone()],
        );
        let scaffolds = vec![
            Scaffold {
                members: vec![
                    member(&prev, &a, false, 0),
                    member(&prev, &b, true, -30),
                    member(&prev, &c, false, 100),
                ],
            },
            Scaffold {
                members: vec![member(&prev, &d, false, 0)],
            },
        ];
        let team = Team::new(Topology::new(2, 2));
        let (set, gap_stats, _) = close_gaps(
            &team,
            &prev,
            &scaffolds,
            &[],
            &[],
            &GapCloseConfig::default(),
        );
        assert_eq!((gap_stats.overlap_joined, gap_stats.nfilled), (1, 1));
        assert_eq!(set.offsets, vec![vec![0, 370, 800], vec![0]]);

        let mut reads = Vec::new();
        for (source, step) in [(&genome, 10), (&d, 25)] {
            for start in (0..=source.len() - 100).step_by(step) {
                let seq = source[start..start + 100].to_vec();
                for seq in [seq.clone(), revcomp(&seq)] {
                    let id = format!("r{}", reads.len());
                    reads.push(SeqRecord::with_uniform_quality(id, seq, 35));
                }
            }
        }
        let (before, _) = align_reads(&team, &prev, &reads, &AlignConfig::new(15));
        let next = ContigSet::from_sequences(prev.codec, set.sequences.clone());
        Round {
            prev,
            set,
            next,
            before,
            reads,
            d,
        }
    }

    #[test]
    fn carried_alignments_equal_fresh_ones_over_every_closure_kind() {
        let Round {
            prev,
            set,
            next,
            before,
            reads,
            d,
        } = round();
        let team = Team::new(Topology::new(2, 2));
        let (carried, realign, _) =
            carry_alignments(&team, &prev, &set, &next, &before, &reads, 15);
        let (fresh, _) = align_reads(&team, &next, &reads, &AlignConfig::new(15));

        // Every carried read has exactly the alignments the aligner finds
        // on the new contigs, over the same bases.
        let of = |alns: &[Alignment], read: u32| -> Vec<Alignment> {
            let mut v: Vec<Alignment> = alns.iter().filter(|a| a.read == read).copied().collect();
            hipmer_align::sort_alignments(&mut v);
            v
        };
        let carried_reads: Vec<u32> = (0..reads.len() as u32)
            .filter(|r| !realign.contains(r))
            .collect();
        for &r in &carried_reads {
            assert_eq!(of(&carried, r), of(&fresh, r), "read {r}");
        }
        for m in carried.iter() {
            let read = &reads[m.read as usize].seq[m.read_start as usize..m.read_end as usize];
            let on_contig = &next.contigs[m.contig as usize].seq
                [m.contig_start as usize..m.contig_end as usize];
            let oriented = if m.rc { revcomp(read) } else { read.to_vec() };
            assert_eq!(oriented, on_contig);
        }

        // Reads on A's scaffold-start end, on the reversed member's
        // interior and on the singleton were carried; reads across A's end
        // (into bases only B held) or within the band of the N run were
        // re-aligned.
        let joined = next
            .contigs
            .iter()
            .position(|c| c.seq == set.sequences[0])
            .unwrap() as u32;
        let fresh_on_joined = |read: u32, at: &dyn Fn(&Alignment) -> bool| {
            of(&fresh, read).iter().any(|a| a.contig == joined && at(a))
        };
        let carried_within = |lo: u32, hi: u32| {
            carried_reads.iter().any(|&r| {
                fresh_on_joined(r, &|a: &Alignment| {
                    lo <= a.contig_start && a.contig_end <= hi
                })
            })
        };
        assert!(carried_within(0, 100), "A's free end");
        assert!(carried_within(480, 580), "B's interior, reversed");
        assert!(carried
            .iter()
            .any(|m| next.contigs[m.contig as usize].seq == d));
        let across_a_end = |a: &Alignment| a.contig_start < 400 && 400 < a.contig_end;
        let near_n_run = |a: &Alignment| a.contig_start < 800 + 8 && 700 - 8 < a.contig_end;
        for r in 0..reads.len() as u32 {
            if fresh_on_joined(r, &across_a_end) || fresh_on_joined(r, &near_n_run) {
                assert!(realign.contains(&r), "read {r} was carried");
            }
        }
    }

    #[test]
    fn carry_is_the_same_at_every_thread_and_rank_count() {
        let r = round();
        let carry = |ranks: usize, threads: usize| {
            let team = Team::new(Topology::new(ranks, 4)).with_os_threads(threads);
            let (carried, realign, report) =
                carry_alignments(&team, &r.prev, &r.set, &r.next, &r.before, &r.reads, 15);
            assert_eq!(report.name, "scaffold/carry");
            assert_eq!(report.stats.len(), ranks);
            (carried, realign)
        };
        let serial = carry(1, 1);
        assert!(!serial.0.is_empty() && !serial.1.is_empty());
        for threads in [1, 2, 4, 8] {
            for ranks in [3, 8] {
                assert_eq!(
                    carry(ranks, threads),
                    serial,
                    "{ranks} ranks, {threads} threads"
                );
            }
        }
    }
}
