//! Locating splints and spans (§4.5).
//!
//! *Splints*: one read segment aligns across the ends of two contigs —
//! direct evidence that the contigs abut (de Bruijn contigs overlap by up
//! to k-2 bases across the fork k-mer that separated them, so splint gaps
//! are typically negative).
//!
//! *Spans*: the two mates of a pair align to two different contigs; with
//! the library's insert size this bounds the gap between the contigs.
//!
//! Both detectors are embarrassingly parallel: each rank assesses 1/p of
//! the read alignments.

use hipmer_align::Alignment;
use hipmer_contig::ContigEnd;
use hipmer_pgas::{PhaseReport, Team};

/// Evidence that two contig ends abut (from a single read).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Splint {
    /// The two contig ends, in detection order.
    pub ends: [(u32, ContigEnd); 2],
    /// Estimated separation (negative = the contigs overlap).
    pub gap: i64,
}

/// Evidence that two contig ends are within a fragment length (from a
/// read pair).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// The two contig ends faced by the mates.
    pub ends: [(u32, ContigEnd); 2],
    /// Estimated gap between the faced ends.
    pub gap: i64,
}

/// How close an alignment must reach a contig end to count (bases): the
/// aligner may clip a few mismatching bases off an alignment's tail.
const END_SLACK: u32 = 5;
/// Full-length slack for paired mates (as [`END_SLACK`], on the read).
const READ_SLACK: u32 = 3;
/// Reject spans whose implied gap is below this (repeat mis-mappings): no
/// two contigs overlap by more than a couple of read lengths.
const MIN_GAP: i64 = -200;

/// Split read-sorted alignments into one slice per read pair (reads `2i`
/// and `2i+1` form pair `i`).
pub(crate) fn pair_groups(alignments: &[Alignment]) -> Vec<&[Alignment]> {
    alignments
        .chunk_by(|a, b| a.read / 2 == b.read / 2)
        .collect()
}

/// The two mates' alignments, if each mate of the pair has exactly one
/// full-length alignment (multi-mapping mates are repeat evidence, not
/// geometry).
pub(crate) fn unique_full_length_mates(group: &[Alignment]) -> Option<(&Alignment, &Alignment)> {
    let mate = |read: u32| {
        let mut full = group
            .iter()
            .filter(|a| a.read == read && a.is_full_length(READ_SLACK));
        full.next().filter(|_| full.next().is_none())
    };
    let first = group[0].read & !1;
    Some((mate(first)?, mate(first + 1)?))
}

/// Which contig end an alignment reaches, looking along the read.
///
/// `outgoing` = the read *leaves* the contig after this alignment (the
/// alignment must reach the end the read runs off); otherwise the read
/// *enters* the contig here.
fn touched_end(a: &Alignment, contig_len: usize, outgoing: bool, slack: u32) -> Option<ContigEnd> {
    let at_right = a.contig_end + slack >= contig_len as u32;
    let at_left = a.contig_start <= slack;
    let facing_right = a.rc != outgoing; // outgoing && fwd -> right; incoming && fwd -> left
    if facing_right {
        // Outgoing fwd / incoming rc: the junction is at the contig's right.
        if at_right {
            Some(ContigEnd::Right)
        } else {
            None
        }
    } else if at_left {
        Some(ContigEnd::Left)
    } else {
        None
    }
}

/// Scan all alignments for splints and spans.
///
/// `alignments` must be sorted by read; `contig_lens[c]` gives contig
/// lengths; `insert_mean` is the library insert size the span gap
/// estimates use. Returns splints, spans, and the phase report.
pub fn locate_splints_and_spans(
    team: &Team,
    alignments: &[Alignment],
    contig_lens: &[usize],
    insert_mean: f64,
) -> (Vec<Splint>, Vec<Span>, PhaseReport) {
    let pairs = pair_groups(alignments);

    let (results, stats) = team.run_named("scaffold/splints-spans", |ctx| {
        let mut splints = Vec::new();
        let mut spans = Vec::new();
        for &group in &pairs[ctx.chunk(pairs.len())] {
            ctx.stats.compute(group.len() as u64);

            // --- Splints: within each read, ordered alignment pairs on
            // different contigs.
            let pair = group[0].read / 2;
            for mate in [2 * pair, 2 * pair + 1] {
                let of_read: Vec<&Alignment> = group.iter().filter(|a| a.read == mate).collect();
                for a in &of_read {
                    for b in &of_read {
                        if a.contig == b.contig || a.read_end > b.read_start + 30 {
                            continue;
                        }
                        if a.read_start >= b.read_start {
                            continue;
                        }
                        let (Some(ea), Some(eb)) = (
                            touched_end(a, contig_lens[a.contig as usize], true, END_SLACK),
                            touched_end(b, contig_lens[b.contig as usize], false, END_SLACK),
                        ) else {
                            continue;
                        };
                        splints.push(Splint {
                            ends: [(a.contig, ea), (b.contig, eb)],
                            gap: b.read_start as i64 - a.read_end as i64,
                        });
                    }
                }
            }

            // --- Spans: unique full-length mates on different contigs.
            if let Some((a1, a2)) = unique_full_length_mates(group) {
                if a1.contig != a2.contig {
                    // For either mate, the rest of the fragment lies in the
                    // read's *forward* direction (mate 2 is sequenced
                    // pointing back at mate 1), so the faced contig end
                    // depends only on the alignment strand.
                    let geom = |a: &Alignment| -> (ContigEnd, i64) {
                        let increasing = !a.rc;
                        if increasing {
                            (
                                ContigEnd::Right,
                                contig_lens[a.contig as usize] as i64 - a.contig_start as i64,
                            )
                        } else {
                            (ContigEnd::Left, a.contig_end as i64)
                        }
                    };
                    let (e1, d1) = geom(a1);
                    let (e2, d2) = geom(a2);
                    let gap = insert_mean as i64 - d1 - d2;
                    if gap >= MIN_GAP {
                        spans.push(Span {
                            ends: [(a1.contig, e1), (a2.contig, e2)],
                            gap,
                        });
                    }
                }
            }
        }
        (splints, spans)
    });

    let mut splints = Vec::new();
    let mut spans = Vec::new();
    for (sp, sn) in results {
        splints.extend(sp);
        spans.extend(sn);
    }
    (
        splints,
        spans,
        PhaseReport::new("scaffold/splints-spans", *team.topo(), stats),
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
                x = x.wrapping_mul(6364136223846793005).wrapping_add(37);
                b"ACGT"[(x >> 60) as usize % 4]
            })
            .collect()
    }

    /// Genome split into two known contigs with a junction read.
    #[test]
    fn junction_read_produces_splint() {
        let g1 = lcg(300, 1);
        let g2 = lcg(300, 2);
        let contigs = ContigSet::from_sequences(KmerCodec::new(21), vec![g1.clone(), g2.clone()]);
        // Contig ids: sorted by length then sequence; equal lengths -> by
        // sequence. Find which is which.
        let id_of = |seq: &Vec<u8>| -> u32 {
            contigs
                .contigs
                .iter()
                .find(|c| {
                    c.seq == hipmer_dna::canonical_seq(seq.clone())
                        || c.seq == *seq
                        || c.seq == revcomp(seq)
                })
                .unwrap()
                .id as u32
        };
        let (id1, id2) = (id_of(&g1), id_of(&g2));

        let mut junction = g1[250..].to_vec();
        junction.extend_from_slice(&g2[..50]);
        let reads = vec![
            SeqRecord::with_uniform_quality("j/1", junction, 35),
            SeqRecord::with_uniform_quality("j/2", lcg(100, 999), 35), // noise mate
        ];
        let team = Team::new(Topology::new(2, 2));
        let (alns, _) = align_reads(&team, &contigs, &reads, &AlignConfig::new(15));
        let lens: Vec<usize> = contigs.contigs.iter().map(|c| c.len()).collect();
        let (splints, _, _) = locate_splints_and_spans(&team, &alns, &lens, 400.0);
        assert_eq!(splints.len(), 1, "{splints:?}");
        let s = &splints[0];
        let hit: std::collections::HashSet<u32> = s.ends.iter().map(|(c, _)| *c).collect();
        assert!(hit.contains(&id1) && hit.contains(&id2));
        assert_eq!(s.gap, 0, "abutting contigs, zero gap in read coords");
    }

    #[test]
    fn mate_pair_across_contigs_produces_span_with_gap() {
        // Genome = A (400) + gap 100 + B (400); fragment length 400
        // straddles the gap.
        let a = lcg(400, 5);
        let gap = lcg(100, 6);
        let b = lcg(400, 7);
        let mut genome = a.clone();
        genome.extend_from_slice(&gap);
        genome.extend_from_slice(&b);

        let contigs = ContigSet::from_sequences(KmerCodec::new(21), vec![a.clone(), b.clone()]);
        // One pair: r1 at genome[250..350] (inside A), r2 rc at
        // genome[550..650] (inside B). Fragment = genome[250..650], 400bp.
        let reads = vec![
            SeqRecord::with_uniform_quality("p/1", genome[250..350].to_vec(), 35),
            SeqRecord::with_uniform_quality("p/2", revcomp(&genome[550..650]), 35),
        ];
        let team = Team::new(Topology::new(1, 1));
        let (alns, _) = align_reads(&team, &contigs, &reads, &AlignConfig::new(15));
        assert_eq!(alns.len(), 2, "{alns:?}");
        let lens: Vec<usize> = contigs.contigs.iter().map(|c| c.len()).collect();
        let (_, spans, _) = locate_splints_and_spans(&team, &alns, &lens, 400.0);
        assert_eq!(spans.len(), 1, "{spans:?}");
        let s = &spans[0];
        // d1 = 400-250 = 150 (A right end), d2 = 650-500... B occupies
        // genome[500..900]; r2 on B at [50..150], contig_end=150 -> d2=150.
        // gap = 400 - 150 - 150 = 100. Exactly the planted gap.
        assert_eq!(s.gap, 100);
        // A faced via its right end, B via its left end (modulo the
        // canonical orientation of the stored contigs).
        let ends: std::collections::HashMap<u32, ContigEnd> = s.ends.iter().copied().collect();
        assert_eq!(ends.len(), 2);
    }

    #[test]
    fn same_contig_pairs_produce_nothing() {
        let g = lcg(600, 9);
        let contigs = ContigSet::from_sequences(KmerCodec::new(21), vec![g.clone()]);
        let reads = vec![
            SeqRecord::with_uniform_quality("p/1", g[100..200].to_vec(), 35),
            SeqRecord::with_uniform_quality("p/2", revcomp(&g[400..500]), 35),
        ];
        let team = Team::new(Topology::new(1, 1));
        let (alns, _) = align_reads(&team, &contigs, &reads, &AlignConfig::new(15));
        let lens = vec![g.len()];
        let (splints, spans, _) = locate_splints_and_spans(&team, &alns, &lens, 400.0);
        assert!(splints.is_empty());
        assert!(spans.is_empty());
    }
}
