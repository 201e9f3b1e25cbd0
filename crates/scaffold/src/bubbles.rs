//! Bubble detection and the bubble–contig graph (§4.2).
//!
//! A *bubble* is a pair of contigs flanked by the same fork k-mers — in a
//! diploid genome, the two haplotype arms around a heterozygous site. The
//! contig set is contracted into a **bubble–contig graph** (orders of
//! magnitude smaller than the k-mer graph): vertices are contigs,
//! connections run through the shared attachment k-mers computed in §4.1.
//! Qualifying bubbles are merged by keeping the deeper arm, and the
//! resulting chains of contigs are compressed into single sequences; the
//! output is what the rest of scaffolding calls "contigs".

use crate::depths::{weighted_median_depth, ContigEndInfo};
use hipmer_contig::chain::{ends_overlap, stitch, walk_chains};
use hipmer_contig::{ContigEnd, ContigSet};
use hipmer_dna::Kmer;
use hipmer_pgas::stats::merge_ranks;
use hipmer_pgas::{DistHashMap, Exchange, PhaseReport, Team};

/// One end of a contig in the bubble–contig graph.
type End = (u32, ContigEnd);

/// Merge bubbles and compress contig chains.
///
/// Returns the new contig set (merged paths plus untouched contigs;
/// absorbed bubble arms dropped) and the phase report. The final chain
/// compression is serial (the graph is tiny — the paper's speculative
/// traversal spends ~99% of its time in parallel walks precisely because
/// there is so little of it); its work — edges placed plus bases stitched
/// — is recorded as the report's serial ops.
pub fn merge_bubbles(
    team: &Team,
    contigs: &ContigSet,
    info: &[ContigEndInfo],
) -> (ContigSet, PhaseReport) {
    assert_eq!(info.len(), contigs.contigs.len());
    let n = contigs.contigs.len();
    let codec = contigs.codec;
    let k = codec.k();

    // An empty contig set has no median depth to gate on; short-circuit
    // instead of letting `median_depth = 0.0` pretend the guard is armed.
    if n == 0 {
        let stats = vec![hipmer_pgas::CommStats::new(); team.topo().ranks()];
        return (
            ContigSet::from_sequences(codec, Vec::new()),
            PhaseReport::new("scaffold/bubbles", *team.topo(), stats),
        );
    }

    // Depth gate for bubble absorption: heterozygous arms carry ~half the
    // genome-wide depth (one haplotype each), while the divergent bridges
    // of a segmental duplication carry *full* depth (each copy is
    // sequenced independently). Absorbing the latter would weld the two
    // repeat copies into a mosaic — a real misassembly. Use the
    // length-weighted median depth as the genome-wide reference (NaN
    // depths disarm absorption below).
    let median_depth = weighted_median_depth(
        contigs
            .contigs
            .iter()
            .zip(info)
            .map(|(c, i)| (i.depth, c.len())),
    );
    let max_arm_depth = 0.75 * median_depth;

    // Phase A (parallel): bubble grouping. Key = the normalized pair of
    // attachment k-mers; contigs sharing both attachments are bubble arms.
    let bubble_groups: DistHashMap<(Kmer, Kmer), Vec<u32>> = DistHashMap::new(*team.topo());
    let mail = Exchange::for_table(&bubble_groups);
    let mut stats = team.run_supersteps("scaffold/bubbles/group", |ctx, step| {
        let rank = ctx.rank;
        mail.deliver(rank, step, |_, arms| {
            bubble_groups.merge_batch(rank, arms.drain(..), |a, b| a.extend(b))
        });
        let mine = ctx.chunk(n);
        mail.send(ctx, step, mine.len(), |ctx, unit, post| {
            let ci = mine.start + unit;
            let i = &info[ci];
            if let (Some(la), Some(ra)) = (i.left_attach, i.right_attach) {
                let key = if la <= ra { (la, ra) } else { (ra, la) };
                let ci32 = u32::try_from(ci)
                    .expect("contig index exceeds u32::MAX; the bubble-contig graph uses u32 ids");
                post.push(ctx, bubble_groups.owner(&key), (key, vec![ci32]));
            }
            ctx.stats.compute(1);
        })
    });
    bubble_groups.drain_service_into(&mut stats);
    let bubble_groups = bubble_groups.freeze();

    // Phase B (parallel over local buckets): pick bubble survivors.
    let (absorbed_lists, stats_b) = team.run_named("scaffold/bubbles/survivors", |ctx| {
        bubble_groups.fold_local(ctx, Vec::<u32>::new(), |mut absorbed, _key, group| {
            if group.len() >= 2 {
                // Arms must be length-similar (SNP/small-indel bubbles).
                let mut arms: Vec<u32> = group.clone();
                arms.sort_unstable();
                let base_len = contigs.contigs[arms[0] as usize].len();
                let similar: Vec<u32> = arms
                    .into_iter()
                    .filter(|&c| {
                        let l = contigs.contigs[c as usize].len();
                        let lo = base_len.min(l);
                        let hi = base_len.max(l);
                        hi - lo <= (hi / 10).max(2) && info[c as usize].depth <= max_arm_depth
                    })
                    .collect();
                if similar.len() >= 2 {
                    // Survivor: max depth, then smallest id. `total_cmp`
                    // keeps the comparison total under NaN depths.
                    let survivor = *similar
                        .iter()
                        .max_by(|&&a, &&b| {
                            info[a as usize]
                                .depth
                                .total_cmp(&info[b as usize].depth)
                                .then(b.cmp(&a))
                        })
                        .unwrap();
                    absorbed.extend(similar.iter().copied().filter(|&c| c != survivor));
                }
            }
            absorbed
        })
    });
    merge_ranks(&mut stats, &stats_b);
    let mut absorbed = vec![false; n];
    for c in absorbed_lists.into_iter().flatten() {
        absorbed[c as usize] = true;
    }

    // Phase C (parallel): attachment incidence for chain edges.
    let attachments: DistHashMap<Kmer, Vec<End>> = DistHashMap::new(*team.topo());
    let mail = Exchange::for_table(&attachments);
    let stats_c = team.run_supersteps("scaffold/bubbles/attachments", |ctx, step| {
        let rank = ctx.rank;
        mail.deliver(rank, step, |_, ends| {
            attachments.merge_batch(rank, ends.drain(..), |a, b| a.extend(b))
        });
        let mine = ctx.chunk(n);
        mail.send(ctx, step, mine.len(), |ctx, unit, post| {
            let ci = mine.start + unit;
            if absorbed[ci] {
                return;
            }
            let i = &info[ci];
            let ci32 = u32::try_from(ci)
                .expect("contig index exceeds u32::MAX; the bubble-contig graph uses u32 ids");
            if let Some(la) = i.left_attach {
                post.push(
                    ctx,
                    attachments.owner(&la),
                    (la, vec![(ci32, ContigEnd::Left)]),
                );
            }
            if let Some(ra) = i.right_attach {
                post.push(
                    ctx,
                    attachments.owner(&ra),
                    (ra, vec![(ci32, ContigEnd::Right)]),
                );
            }
        })
    });
    attachments.drain_service_into(&mut stats);
    merge_ranks(&mut stats, &stats_c);
    let attachments = attachments.freeze();

    // Phase D (parallel): unambiguous joins — exactly two distinct contig
    // ends at one attachment k-mer.
    let (edge_lists, stats_d) = team.run_named("scaffold/bubbles/joins", |ctx| {
        attachments.fold_local(ctx, Vec::<(End, End)>::new(), |mut edges, _km, ends| {
            if ends.len() == 2 && ends[0].0 != ends[1].0 {
                let mut pair = [ends[0], ends[1]];
                pair.sort_unstable();
                edges.push((pair[0], pair[1]));
            }
            edges
        })
    });
    merge_ranks(&mut stats, &stats_d);
    let mut edges: Vec<(End, End)> = edge_lists.into_iter().flatten().collect();
    edges.sort_unstable();
    edges.dedup();

    // Phase E (serial; tiny graph): walk the chains and stitch sequences.
    // Two contigs joined through an attachment k-mer F overlap by k-2
    // bases (the last k-mer R of one, F = R[1..] + b, the other starts
    // with F[1..]). An edge whose ends, read as the walk would read them,
    // do not (two unique flanks converging on one repeat k-mer share an
    // attachment without being adjacent) is not a join: it is left out, so
    // it neither takes the slot of a good edge nor gets walked.
    let seq_of = |c: usize| &contigs.contigs[c].seq[..];
    let mut adj: Vec<[Option<(usize, ContigEnd)>; 2]> = vec![[None, None]; n];
    for &((c1, s1), (c2, s2)) in &edges {
        let (c1, c2) = (c1 as usize, c2 as usize);
        if adj[c1][s1 as usize].is_none()
            && adj[c2][s2 as usize].is_none()
            && ends_overlap(seq_of(c1), s1, seq_of(c2), s2, k - 2)
        {
            adj[c1][s1 as usize] = Some((c2, s2));
            adj[c2][s2 as usize] = Some((c1, s1));
        }
    }
    let out_seqs: Vec<Vec<u8>> = walk_chains(n, |c, side| adj[c][side as usize])
        .iter()
        .filter(|chain| !absorbed[chain[0].0]) // absorbed arms have no edges
        .map(|chain| hipmer_dna::canonical_seq(stitch(chain, seq_of, k - 2)))
        .collect();
    // The serial section's work: one op per edge assessed, per base stitched.
    let stitched: usize = out_seqs.iter().map(Vec::len).sum();
    let serial_ops = (edges.len() + stitched) as u64;

    let new_set = ContigSet::from_sequences(codec, out_seqs);
    let report =
        PhaseReport::new("scaffold/bubbles", *team.topo(), stats).with_serial_ops(serial_ops);
    (new_set, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::depths::compute_depths;
    use hipmer_contig::{generate_contigs, ContigConfig};
    use hipmer_dna::revcomp;
    use hipmer_kanalysis::{analyze_kmers, KmerAnalysisConfig};
    use hipmer_pgas::Topology;
    use hipmer_seqio::SeqRecord;

    fn lcg(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(23);
                b"ACGT"[(x >> 60) as usize % 4]
            })
            .collect()
    }

    fn tile_reads(genome: &[u8], read_len: usize, depth: usize) -> Vec<SeqRecord> {
        let mut out = Vec::new();
        for d in 0..depth {
            let mut pos = d * 13 % 37;
            while pos + read_len <= genome.len() {
                out.push(SeqRecord::with_uniform_quality(
                    format!("r{d}_{pos}"),
                    genome[pos..pos + read_len].to_vec(),
                    35,
                ));
                pos += 37;
            }
        }
        out
    }

    /// Assemble a diploid pair and run depths + bubbles.
    fn run_bubbles(h1: &[u8], h2: &[u8], topo: Topology) -> (ContigSet, ContigSet) {
        let team = Team::new(topo);
        let mut reads = tile_reads(h1, 80, 4);
        reads.extend(tile_reads(h2, 80, 4));
        let (spectrum, _) = analyze_kmers(&team, &reads, &KmerAnalysisConfig::new(21));
        let (contigs, _) = generate_contigs(&team, &spectrum, &ContigConfig::default());
        let (info, _) = compute_depths(&team, &spectrum, &contigs);
        let (merged, _) = merge_bubbles(&team, &contigs, &info);
        (contigs, merged)
    }

    #[test]
    fn snp_bubble_collapses_to_one_long_contig() {
        let h1 = lcg(1200, 41);
        let mut h2 = h1.clone();
        h2[600] = match h2[600] {
            b'A' => b'G',
            b'G' => b'A',
            b'C' => b'T',
            _ => b'C',
        };
        let (raw, merged) = run_bubbles(&h1, &h2, Topology::new(2, 2));
        assert!(
            raw.len() >= 4,
            "expected a bubble, got {} contigs",
            raw.len()
        );
        // After merging, the dominant contig spans (almost) the genome.
        assert!(
            merged.max_len() > 1000,
            "bubble merge failed: max len {} (raw max {})",
            merged.max_len(),
            raw.max_len()
        );
        // And the merged contig matches one of the haplotypes around the
        // SNP (no chimera of both).
        let big = &merged.contigs[0].seq;
        let h1rc = revcomp(&h1);
        let h2rc = revcomp(&h2);
        let contained = [&h1[..], &h2[..], &h1rc[..], &h2rc[..]]
            .iter()
            .any(|h| h.windows(big.len()).any(|w| w == &big[..]));
        assert!(contained, "merged contig is not a haplotype substring");
    }

    #[test]
    fn two_bubbles_merge_into_one_chain() {
        let h1 = lcg(2000, 77);
        let mut h2 = h1.clone();
        for &pos in &[500usize, 1400] {
            h2[pos] = match h2[pos] {
                b'A' => b'C',
                b'C' => b'A',
                b'G' => b'T',
                _ => b'G',
            };
        }
        let (raw, merged) = run_bubbles(&h1, &h2, Topology::new(4, 2));
        assert!(raw.len() >= 7, "expected two bubbles, got {}", raw.len());
        assert!(
            merged.max_len() > 1800,
            "chain compression failed: {}",
            merged.max_len()
        );
    }

    #[test]
    fn haploid_input_is_unchanged() {
        let g = lcg(1000, 9);
        let team = Team::new(Topology::new(2, 2));
        let reads = tile_reads(&g, 80, 4);
        let (spectrum, _) = analyze_kmers(&team, &reads, &KmerAnalysisConfig::new(21));
        let (contigs, _) = generate_contigs(&team, &spectrum, &ContigConfig::default());
        let (info, _) = compute_depths(&team, &spectrum, &contigs);
        let (merged, _) = merge_bubbles(&team, &contigs, &info);
        let a: Vec<&Vec<u8>> = contigs.contigs.iter().map(|c| &c.seq).collect();
        let b: Vec<&Vec<u8>> = merged.contigs.iter().map(|c| &c.seq).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_contig_set_is_handled_explicitly() {
        let team = Team::new(Topology::new(2, 2));
        let empty = ContigSet::from_sequences(hipmer_dna::KmerCodec::new(21), Vec::new());
        let (merged, report) = merge_bubbles(&team, &empty, &[]);
        assert!(merged.is_empty());
        assert_eq!(report.name, "scaffold/bubbles");
    }

    #[test]
    fn nan_depths_do_not_panic() {
        use crate::depths::TerminationState;
        // A foreign contig set whose depth stage never ran: depths are NaN.
        // The median sort and the survivor selection must stay total — and
        // a NaN depth gate must disarm absorption, not corrupt it.
        let codec = hipmer_dna::KmerCodec::new(21);
        let seq_a: Vec<u8> = lcg(60, 7);
        let mut seq_b = seq_a.clone();
        seq_b[30] = match seq_b[30] {
            b'A' => b'C',
            _ => b'A',
        };
        let set = ContigSet::from_sequences(codec, vec![seq_a.clone(), seq_b.clone()]);
        let ka = codec.pack(&seq_a[..21]).unwrap();
        let kb = codec.pack(&seq_a[seq_a.len() - 21..]).unwrap();
        let info: Vec<ContigEndInfo> = (0..2)
            .map(|i| ContigEndInfo {
                depth: if i == 0 { f64::NAN } else { 1.0 },
                left_state: TerminationState::Fork,
                left_attach: Some(ka),
                right_state: TerminationState::Fork,
                right_attach: Some(kb),
            })
            .collect();
        let team = Team::new(Topology::new(2, 2));
        let (merged, _) = merge_bubbles(&team, &set, &info);
        // With a NaN in the depth pool the absorption gate cannot qualify
        // both arms, so nothing is merged away silently.
        assert!(!merged.is_empty());
    }

    /// `merge_bubbles` over hand-made contigs whose only end information is
    /// the given `(left, right)` attachment k-mers.
    fn merge_with_attachments(
        seqs: Vec<Vec<u8>>,
        attach: impl Fn(&[u8]) -> (Option<Kmer>, Option<Kmer>),
    ) -> ContigSet {
        use crate::depths::TerminationState;
        let set = ContigSet::from_sequences(hipmer_dna::KmerCodec::new(21), seqs);
        let info: Vec<ContigEndInfo> = set
            .contigs
            .iter()
            .map(|c| {
                let (left_attach, right_attach) = attach(&c.seq);
                ContigEndInfo {
                    depth: 10.0,
                    left_state: TerminationState::Fork,
                    left_attach,
                    right_state: TerminationState::Fork,
                    right_attach,
                }
            })
            .collect();
        let team = Team::new(Topology::new(2, 2));
        merge_bubbles(&team, &set, &info).0
    }

    /// Strand-neutral, order-neutral view of a set of sequences.
    fn canonical_sorted(seqs: impl IntoIterator<Item = Vec<u8>>) -> Vec<String> {
        let mut out: Vec<String> = seqs
            .into_iter()
            .map(|s| String::from_utf8(hipmer_dna::canonical_seq(s)).unwrap())
            .collect();
        out.sort();
        out
    }

    fn seqs_of(set: &ContigSet) -> Vec<Vec<u8>> {
        set.contigs.iter().map(|c| c.seq.clone()).collect()
    }

    /// Two unique flanks converging on one repeat k-mer share an attachment
    /// on the same side without being adjacent. The walk used to cross that
    /// edge leftward, fail to stitch across it, and emit only the far
    /// contig: the one it started from vanished.
    #[test]
    fn same_side_attachment_conserves_both_contigs() {
        let x = hipmer_dna::KmerCodec::new(21).pack(&lcg(21, 5)).unwrap();
        let seqs = vec![lcg(300, 1), lcg(200, 2)];
        let want = canonical_sorted(seqs.clone());
        let left = merge_with_attachments(seqs.clone(), |_| (Some(x), None));
        assert_eq!(canonical_sorted(seqs_of(&left)), want, "left-left");
        let right = merge_with_attachments(seqs, |_| (None, Some(x)));
        assert_eq!(canonical_sorted(seqs_of(&right)), want, "right-right");
    }

    /// c ~ b → a: b → a is a real join (k-2 overlap), c and b share an
    /// attachment on their left sides. The seed is b (the longest): its
    /// leftward walk must not cross to c. a+b are stitched, c stays.
    #[test]
    fn chain_with_a_same_side_middle_join_conserves_every_contig() {
        let codec = hipmer_dna::KmerCodec::new(21);
        let genome = lcg(500, 3);
        let (b, a) = (genome[..281].to_vec(), genome[262..].to_vec()); // k-2 = 19 shared
        let c = lcg(150, 4);
        let fork = codec.pack(&genome[261..282]).unwrap();
        let y = codec.pack(&lcg(21, 6)).unwrap();
        let merged = merge_with_attachments(vec![a.clone(), b.clone(), c.clone()], |seq| {
            if seq == b {
                (Some(y), Some(fork))
            } else if seq == a {
                (Some(fork), None)
            } else {
                (Some(y), None)
            }
        });
        assert_eq!(
            canonical_sorted(seqs_of(&merged)),
            canonical_sorted([genome, c]),
            "a+b stitched, c alone"
        );
    }

    #[test]
    fn bubble_merge_is_schedule_independent() {
        let h1 = lcg(900, 123);
        let mut h2 = h1.clone();
        h2[450] = match h2[450] {
            b'T' => b'A',
            _ => b'T',
        };
        let (_, m1) = run_bubbles(&h1, &h2, Topology::new(1, 1));
        let (_, m2) = run_bubbles(&h1, &h2, Topology::new(8, 4));
        let s1: Vec<&Vec<u8>> = m1.contigs.iter().map(|c| &c.seq).collect();
        let s2: Vec<&Vec<u8>> = m2.contigs.iter().map(|c| &c.seq).collect();
        assert_eq!(s1, s2);
    }
}
