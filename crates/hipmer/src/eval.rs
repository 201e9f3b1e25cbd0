//! Assembly evaluation against a known reference.
//!
//! The paper defers accuracy to the Assemblathon studies ("HipMer …
//! produces results that are biologically equivalent to the original
//! Meraculous results") — but a reproduction on *simulated* genomes can
//! check itself directly. This module computes the standard evaluation
//! metrics (QUAST/Assemblathon-style) with an alignment-free k-mer
//! anchoring scheme that is fast enough to run inside tests:
//!
//! * contiguity: N50, NG50 (against the reference size), L50, largest
//!   scaffold;
//! * completeness: fraction of reference k-mers covered;
//! * correctness: k-mer precision, duplication ratio, and **misassembly
//!   detection** — a scaffold whose anchor chain jumps between distant
//!   reference loci, switches strand, or switches haplotype/reference
//!   sequence is counted as misassembled (QUAST's relocation /
//!   inversion / translocation categories collapsed into one count).

use hipmer_dna::{Kmer, KmerCodec, KmerHashMap};

/// Where a k-mer anchor sits in the reference set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Anchor {
    /// Which reference sequence.
    seq: u32,
    /// Offset of the k-mer within it.
    pos: u32,
    /// `true` if the scaffold shows the reverse complement of the
    /// reference's forward orientation at this anchor.
    rc: bool,
}

/// The evaluation result.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EvalReport {
    /// Scaffold N50 over the assembly.
    pub n50: usize,
    /// NG50: N50 computed against the *reference* length (0 if the
    /// assembly covers less than half the reference).
    pub ng50: usize,
    /// Number of scaffolds needed to reach half the assembly (L50).
    pub l50: usize,
    /// Longest scaffold.
    pub largest: usize,
    /// Total assembled bases (Ns excluded).
    pub assembled_bases: usize,
    /// Fraction of reference k-mers present in the assembly.
    pub genome_fraction: f64,
    /// Fraction of assembly k-mers present in the reference.
    pub precision: f64,
    /// Mean number of times a covered reference k-mer appears in the
    /// assembly (1.0 = no duplication).
    pub duplication_ratio: f64,
    /// Scaffolds whose anchor chain breaks (relocation/inversion/
    /// translocation).
    pub misassembled_scaffolds: usize,
    /// Scaffolds evaluated (with at least two anchors).
    pub scaffolds_evaluated: usize,
}

/// Anchors two neighboring scaffold k-mers must stay within to be called
/// colinear (bases).
const MAX_JUMP: i64 = 1000;
/// Minimum anchors on each side of a break to call a misassembly (guards
/// against stray repeat anchors).
const MIN_FLANK_ANCHORS: usize = 5;

/// Evaluate `scaffolds` against a set of reference sequences (haplotypes
/// or community genomes) using `k`-mer anchors.
pub fn evaluate(references: &[&[u8]], scaffolds: &[Vec<u8>], k: usize) -> EvalReport {
    let codec = KmerCodec::new(k);

    // Reference index: canonical k-mer -> up to 2 anchor positions (repeat
    // k-mers beyond that are unreliable anchors and are skipped).
    let mut index: KmerHashMap<Kmer, Vec<Anchor>> = KmerHashMap::default();
    for (si, r) in references.iter().enumerate() {
        for (pos, km, canon) in codec.canonical_kmers(r) {
            let e = index.entry(canon).or_default();
            if e.len() < 2 {
                e.push(Anchor {
                    seq: si as u32,
                    pos: pos as u32,
                    rc: canon != km,
                });
            }
        }
    }
    // Distinct reference k-mers (for fraction denominators).
    let ref_distinct = index.len();

    let mut covered: KmerHashMap<Kmer, u32> = KmerHashMap::default();
    let mut asm_kmers = 0usize;
    let mut asm_hits = 0usize;
    let mut misassembled = 0usize;
    let mut evaluated = 0usize;

    for scaffold in scaffolds {
        // Anchor chain for misassembly detection, over unambiguous
        // (single-locus) anchors only.
        let mut chain: Vec<(i64, Anchor)> = Vec::new(); // (scaffold pos, anchor)
        for (pos, km, canon) in codec.canonical_kmers(scaffold) {
            asm_kmers += 1;
            if let Some(anchors) = index.get(&canon) {
                asm_hits += 1;
                *covered.entry(canon).or_insert(0) += 1;
                if anchors.len() == 1 {
                    let a = anchors[0];
                    // Orientation of the scaffold relative to the
                    // reference at this anchor.
                    let scaffold_rc = canon != km;
                    chain.push((
                        pos as i64,
                        Anchor {
                            seq: a.seq,
                            pos: a.pos,
                            rc: a.rc != scaffold_rc,
                        },
                    ));
                }
            }
        }
        if chain.len() < 2 {
            continue;
        }
        evaluated += 1;
        // Scan the chain for breaks: a change of reference sequence, a
        // strand flip, or a diagonal jump, with enough support on both
        // sides.
        let mut breaks = 0usize;
        let mut run_len = 0usize;
        for w in chain.windows(2) {
            let ((p1, a1), (p2, a2)) = (w[0], w[1]);
            let step = p2 - p1;
            let colinear = a1.seq == a2.seq && a1.rc == a2.rc && {
                let rstep = if a1.rc {
                    a1.pos as i64 - a2.pos as i64
                } else {
                    a2.pos as i64 - a1.pos as i64
                };
                (rstep - step).abs() <= MAX_JUMP
            };
            if colinear {
                run_len += 1;
            } else {
                let remaining = chain.len() - run_len - 1;
                if run_len >= MIN_FLANK_ANCHORS && remaining >= MIN_FLANK_ANCHORS {
                    breaks += 1;
                }
                run_len = 0;
            }
        }
        if breaks > 0 {
            misassembled += 1;
        }
    }

    // Contiguity metrics.
    let mut lens: Vec<usize> = scaffolds
        .iter()
        .map(|s| s.iter().filter(|&&b| b != b'N').count())
        .collect();
    lens.sort_unstable_by(|a, b| b.cmp(a));
    let assembled: usize = lens.iter().sum();
    let reference_len: usize = references.iter().map(|r| r.len()).sum();
    let stat_50 = |target: usize| -> (usize, usize) {
        let mut acc = 0usize;
        for (i, &l) in lens.iter().enumerate() {
            acc += l;
            if acc * 2 >= target {
                return (l, i + 1);
            }
        }
        (0, lens.len())
    };
    let (n50, l50) = stat_50(assembled);
    let (ng50, _) = stat_50(reference_len);

    let total_cov_instances: u64 = covered.values().map(|&c| c as u64).sum();
    EvalReport {
        n50,
        ng50,
        l50,
        largest: lens.first().copied().unwrap_or(0),
        assembled_bases: assembled,
        genome_fraction: if ref_distinct == 0 {
            0.0
        } else {
            covered.len() as f64 / ref_distinct as f64
        },
        precision: if asm_kmers == 0 {
            0.0
        } else {
            asm_hits as f64 / asm_kmers as f64
        },
        duplication_ratio: if covered.is_empty() {
            0.0
        } else {
            total_cov_instances as f64 / covered.len() as f64
        },
        misassembled_scaffolds: misassembled,
        scaffolds_evaluated: evaluated,
    }
}

impl EvalReport {
    /// Render a compact text report.
    pub fn render(&self) -> String {
        format!(
            "N50 {}  NG50 {}  L50 {}  largest {}  bases {}\n\
             genome fraction {:.2}%  precision {:.2}%  duplication {:.3}\n\
             misassembled scaffolds {}/{}",
            self.n50,
            self.ng50,
            self.l50,
            self.largest,
            self.assembled_bases,
            100.0 * self.genome_fraction,
            100.0 * self.precision,
            self.duplication_ratio,
            self.misassembled_scaffolds,
            self.scaffolds_evaluated
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(17);
                b"ACGT"[(x >> 60) as usize % 4]
            })
            .collect()
    }

    #[test]
    fn perfect_assembly_scores_clean() {
        let reference = lcg(5_000, 1);
        let scaffolds = vec![reference.clone()];
        let r = evaluate(&[&reference], &scaffolds, 21);
        assert!((r.genome_fraction - 1.0).abs() < 1e-9);
        assert!((r.precision - 1.0).abs() < 1e-9);
        assert!((r.duplication_ratio - 1.0).abs() < 1e-9);
        assert_eq!(r.misassembled_scaffolds, 0);
        assert_eq!(r.n50, 5_000);
        assert_eq!(r.ng50, 5_000);
        assert_eq!(r.l50, 1);
    }

    #[test]
    fn fragmented_assembly_has_lower_ng50() {
        let reference = lcg(10_000, 2);
        // Assembly = first 60% in 3 pieces; 40% missing.
        let scaffolds = vec![
            reference[..2_000].to_vec(),
            reference[2_000..4_000].to_vec(),
            reference[4_000..6_000].to_vec(),
        ];
        let r = evaluate(&[&reference], &scaffolds, 21);
        assert!(r.genome_fraction < 0.65);
        assert_eq!(r.n50, 2_000);
        // NG50 against the full 10k reference: cumulative 6k ≥ 5k at the
        // third piece.
        assert_eq!(r.ng50, 2_000);
        assert_eq!(r.misassembled_scaffolds, 0);
    }

    #[test]
    fn relocation_is_detected() {
        let reference = lcg(10_000, 3);
        // Chimeric scaffold: [1000..2000] glued to [7000..8000].
        let mut chimera = reference[1_000..2_000].to_vec();
        chimera.extend_from_slice(&reference[7_000..8_000]);
        let r = evaluate(&[&reference], &[chimera], 21);
        assert_eq!(r.misassembled_scaffolds, 1, "{r:?}");
        // The k-mers themselves are all real.
        assert!(r.precision > 0.97);
    }

    #[test]
    fn inversion_is_detected() {
        let reference = lcg(8_000, 4);
        let mut inv = reference[..2_000].to_vec();
        inv.extend(hipmer_dna::revcomp(&reference[2_000..4_000]));
        let r = evaluate(&[&reference], &[inv], 21);
        assert_eq!(r.misassembled_scaffolds, 1);
    }

    #[test]
    fn translocation_between_references_is_detected() {
        let ref_a = lcg(5_000, 5);
        let ref_b = lcg(5_000, 6);
        let mut chimera = ref_a[..1_500].to_vec();
        chimera.extend_from_slice(&ref_b[..1_500]);
        let r = evaluate(&[&ref_a, &ref_b], &[chimera], 21);
        assert_eq!(r.misassembled_scaffolds, 1);
    }

    #[test]
    fn adjacent_pieces_do_not_false_positive() {
        // A scaffold that simply spans a small N gap stays clean.
        let reference = lcg(6_000, 7);
        let mut scaffold = reference[..3_000].to_vec();
        scaffold.extend(std::iter::repeat_n(b'N', 50));
        scaffold.extend_from_slice(&reference[3_050..6_000]);
        let r = evaluate(&[&reference], &[scaffold], 21);
        assert_eq!(r.misassembled_scaffolds, 0, "{r:?}");
        assert!(r.genome_fraction > 0.95);
    }

    #[test]
    fn duplication_ratio_counts_extra_copies() {
        let reference = lcg(4_000, 8);
        let scaffolds = vec![reference.clone(), reference[..2_000].to_vec()];
        let r = evaluate(&[&reference], &scaffolds, 21);
        assert!(r.duplication_ratio > 1.4, "{}", r.duplication_ratio);
        assert_eq!(r.misassembled_scaffolds, 0);
    }

    #[test]
    fn junk_scaffold_hurts_precision_only() {
        let reference = lcg(4_000, 9);
        let scaffolds = vec![reference.clone(), lcg(1_000, 999)];
        let r = evaluate(&[&reference], &scaffolds, 21);
        assert!(r.precision < 0.9);
        assert!((r.genome_fraction - 1.0).abs() < 1e-9);
        assert_eq!(r.misassembled_scaffolds, 0);
    }

    #[test]
    fn partial_query_lowers_precision_and_genome_fraction() {
        let reference = b"ACGTACGTTGCAACGGATCGATCGAAT".to_vec();
        let r = evaluate(&[&reference], std::slice::from_ref(&reference), 11);
        assert!((r.precision - 1.0).abs() < 1e-12);
        assert!((r.genome_fraction - 1.0).abs() < 1e-12);
        // Half-matching query.
        let mut q = reference[..15].to_vec();
        q.extend(b"TTTTTTTTTTTTTTT");
        let r = evaluate(&[&reference], &[q], 11);
        assert!(r.precision > 0.0 && r.precision < 1.0, "{r:?}");
        assert!(r.genome_fraction > 0.0 && r.genome_fraction < 1.0, "{r:?}");
    }

    #[test]
    fn reverse_complement_scores_like_the_forward_strand() {
        let reference = b"ACGTTGCAACGGATCGATCGAATCCGT".to_vec();
        let rc = hipmer_dna::revcomp(&reference);
        let r = evaluate(&[&reference], &[rc], 11);
        assert!((r.precision - 1.0).abs() < 1e-12);
        assert!((r.genome_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn render_contains_key_fields() {
        let reference = lcg(2_000, 10);
        let r = evaluate(&[&reference], std::slice::from_ref(&reference), 21);
        let text = r.render();
        assert!(text.contains("N50"));
        assert!(text.contains("genome fraction"));
    }
}
