//! The complete scaffolding pipeline: §4.1 → §4.8 in order.

use crate::bubbles::merge_bubbles;
use crate::carry::carry_alignments;
use crate::depths::{compute_depths, weighted_median_depth};
use crate::gapclose::{close_gaps, GapCloseConfig, GapCloseStats};
use crate::inserts::estimate_insert_size;
use crate::links::generate_links;
use crate::scaffolds::ScaffoldSet;
use crate::splints::locate_splints_and_spans;
use crate::ties::order_and_orient;
use hipmer_align::{align_read_subset, align_reads, sort_alignments, AlignConfig, Alignment};
use hipmer_contig::ContigSet;
use hipmer_kanalysis::KmerSpectrum;
use hipmer_pgas::{PhaseReport, Schedule, Team};
use hipmer_seqio::SeqRecord;
use std::ops::Range;

/// Fallback insert size when a library yields no same-contig pairs (the
/// simulated short-insert library's nominal size).
const DEFAULT_INSERT: f64 = 400.0;
/// Contigs shorter than this do not participate in links/ties (repeat
/// scraps produce conflicting links; Meraculous likewise scaffolds only
/// sufficiently long contigs — here, one read length).
const MIN_TIE_CONTIG: usize = 100;
/// Contigs whose depth exceeds this factor times the median depth are
/// treated as repeats and masked from links/ties: between the 1× of unique
/// sequence and the 2× of a two-copy repeat, nearer the latter so diploid
/// depth noise is not masked.
const REPEAT_DEPTH_FACTOR: f64 = 1.75;

/// Scaffolding configuration.
#[derive(Clone, Debug)]
pub struct ScaffoldConfig {
    /// merAligner settings.
    pub align: AlignConfig,
    /// Gap-closing settings.
    pub gap: GapCloseConfig,
    /// Scaffolding rounds (the paper's wheat pipeline runs four).
    pub rounds: usize,
    /// Ignored: every stage partitions statically. It and the fourth
    /// parameter of [`prepare_contigs`] stay only because the wall-clock
    /// benchmark crate names them.
    pub schedule: Schedule,
}

impl ScaffoldConfig {
    /// Defaults for a given seed length.
    pub fn new(seed_len: usize) -> Self {
        ScaffoldConfig {
            align: AlignConfig::new(seed_len),
            gap: GapCloseConfig::default(),
            rounds: 1,
            schedule: Schedule::Static,
        }
    }
}

/// Everything the scaffolder produces.
pub struct ScaffoldOutput {
    /// Final scaffolds with gap-closed sequences.
    pub scaffolds: ScaffoldSet,
    /// The contig set the final round scaffolded (post bubble merging).
    pub contigs: ContigSet,
    /// Per-library insert estimates (mean, sd) actually used.
    pub insert_means: Vec<f64>,
    /// Gap-closing outcome counters, summed over rounds.
    pub gap_stats: GapCloseStats,
    /// One report per module execution, in order.
    pub reports: Vec<PhaseReport>,
}

/// Select the alignments belonging to a read-index range (alignments are
/// sorted by read).
fn alignment_slice<'a>(alignments: &'a [Alignment], reads: &Range<usize>) -> &'a [Alignment] {
    let lo = alignments.partition_point(|a| (a.read as usize) < reads.start);
    let hi = alignments.partition_point(|a| (a.read as usize) < reads.end);
    &alignments[lo..hi]
}

/// Run the full scaffolding pipeline.
///
/// `lib_ranges` partitions the read indices by library (paired reads
/// `2i`/`2i+1` must share a library); insert sizes are estimated per
/// library, exactly as §4.4 prescribes.
pub fn scaffold_pipeline(
    team: &Team,
    spectrum: &KmerSpectrum,
    raw_contigs: &ContigSet,
    reads: &[SeqRecord],
    lib_ranges: &[Range<usize>],
    cfg: &ScaffoldConfig,
) -> ScaffoldOutput {
    let (contigs, mut reports) = prepare_contigs(team, spectrum, raw_contigs, cfg.schedule);
    let mut out = scaffold_rounds(team, spectrum, contigs, reads, lib_ranges, cfg, None);
    reports.append(&mut out.reports);
    out.reports = reports;
    out
}

/// The scaffold-preparation stage: §4.1 contig depths/termination states
/// followed by §4.2 bubble merging. Returns the merged contig set every
/// later module (alignment, links, ties, gap closing) operates on.
///
/// Split out of [`scaffold_pipeline`] so the checkpoint/restart machinery
/// can persist the merged contigs at a stage boundary.
///
/// The fourth parameter is ignored (every stage partitions statically); it
/// stays only because the wall-clock benchmark crate passes it.
pub fn prepare_contigs(
    team: &Team,
    spectrum: &KmerSpectrum,
    raw_contigs: &ContigSet,
    _schedule: Schedule,
) -> (ContigSet, Vec<PhaseReport>) {
    let mut reports: Vec<PhaseReport> = Vec::new();

    // §4.1 Contig depths and termination states.
    let (info, r) = compute_depths(team, spectrum, raw_contigs);
    reports.push(r);

    // §4.2 Bubble merging (the output is "contigs" from here on).
    let (contigs, r) = merge_bubbles(team, raw_contigs, &info);
    reports.push(r);

    (contigs, reports)
}

/// The per-round scaffolding loop: §4.3 alignment through §4.8 gap
/// closing, `cfg.rounds` times, over the *prepared* (bubble-merged)
/// contig set from [`prepare_contigs`].
///
/// Round 0 aligns every read. Each later round scaffolds the previous
/// round's scaffolds, which contain the previous contigs whole, so it
/// inherits their alignments translated onto the new contigs and sends
/// back through the aligner only the reads the joins can change: reads
/// with no alignment, reads that reach within the aligner's band of a
/// contig end that faced a junction, and reads with a seed whose hits the
/// joins changed (the `carry` module has the rule). A round with no such
/// read builds no seed index; a one-round run never reaches that branch.
///
/// `round0_alignments`, when provided, replaces round 0's
/// [`align_reads`] call. Round-0 alignment depends only on the prepared
/// contigs, the reads, and `cfg.align` — not on the round's depth mask —
/// so results are byte-identical either way. This is the hook the
/// checkpoint/restart machinery uses to persist alignments at a stage
/// boundary; when it fires, the align phase reports belong to the
/// alignment stage and are *not* repeated here.
#[allow(clippy::too_many_arguments)]
pub fn scaffold_rounds(
    team: &Team,
    spectrum: &KmerSpectrum,
    contigs: ContigSet,
    reads: &[SeqRecord],
    lib_ranges: &[Range<usize>],
    cfg: &ScaffoldConfig,
    round0_alignments: Option<Vec<Alignment>>,
) -> ScaffoldOutput {
    run_rounds(
        team,
        spectrum,
        contigs,
        reads,
        lib_ranges,
        cfg,
        round0_alignments,
        |_, _| {},
    )
}

/// [`scaffold_rounds`], showing `inspect` each round's contigs and the
/// alignments the round scaffolds with.
#[allow(clippy::too_many_arguments)]
fn run_rounds(
    team: &Team,
    spectrum: &KmerSpectrum,
    mut contigs: ContigSet,
    reads: &[SeqRecord],
    lib_ranges: &[Range<usize>],
    cfg: &ScaffoldConfig,
    mut round0_alignments: Option<Vec<Alignment>>,
    mut inspect: impl FnMut(&ContigSet, &[Alignment]),
) -> ScaffoldOutput {
    let mut reports: Vec<PhaseReport> = Vec::new();
    let mut gap_stats = GapCloseStats::default();
    let mut insert_means: Vec<f64> = Vec::new();
    let mut result: Option<ScaffoldSet> = None;
    // From round 1 on: the previous round's alignments translated onto
    // this round's contigs, and the reads to align afresh.
    let mut carried: Option<(Vec<Alignment>, Vec<u32>)> = None;

    for round in 0..cfg.rounds.max(1) {
        // Repeat/short-contig mask: depth and length over the current
        // contig set. Masked contigs never join ties (they scaffold as
        // singletons); gap closing can still walk through their sequence.
        let (round_info, r) = compute_depths(team, spectrum, &contigs);
        reports.push(r);
        // Median depth weighted by contig length over tie-eligible contigs:
        // short error-derived contigs sit at the count threshold and would
        // otherwise poison the repeat cutoff.
        let median_depth = weighted_median_depth(
            contigs
                .contigs
                .iter()
                .zip(&round_info)
                .filter(|(c, _)| c.len() >= MIN_TIE_CONTIG)
                .map(|(c, i)| (i.depth, c.len())),
        );
        let masked: Vec<bool> = contigs
            .contigs
            .iter()
            .zip(&round_info)
            .map(|(c, i)| {
                c.len() < MIN_TIE_CONTIG
                    || (median_depth > 0.0 && i.depth > REPEAT_DEPTH_FACTOR * median_depth)
            })
            .collect();

        // §4.3 merAligner: from round 1 on, inherited alignments plus
        // those of the reads the joins can change; round 0 may be
        // satisfied from a checkpointed alignment set (see the function
        // docs).
        let alignments = if let Some((mut alns, realign)) = carried.take() {
            if !realign.is_empty() {
                let (fresh, rs) = align_read_subset(team, &contigs, reads, &realign, &cfg.align);
                reports.extend(rs);
                alns.extend(fresh);
            }
            sort_alignments(&mut alns);
            alns
        } else if let Some(alns) = round0_alignments.take() {
            alns
        } else {
            let (alns, rs) = align_reads(team, &contigs, reads, &cfg.align);
            reports.extend(rs);
            alns
        };
        inspect(&contigs, &alignments);

        // §4.4 insert sizes + §4.5 splints/spans, per library.
        let lens: Vec<usize> = contigs.contigs.iter().map(|c| c.len()).collect();
        let mut splints = Vec::new();
        let mut spans = Vec::new();
        insert_means.clear();
        for range in lib_ranges {
            let lib_alns = alignment_slice(&alignments, range);
            let (est, r) = estimate_insert_size(team, lib_alns);
            reports.push(r);
            let mean = est.map(|e| e.mean).unwrap_or(DEFAULT_INSERT);
            insert_means.push(mean);
            let (sp, sn, r) = locate_splints_and_spans(team, lib_alns, &lens, mean);
            reports.push(r);
            splints.extend(sp);
            spans.extend(sn);
        }
        splints.retain(|s| s.ends.iter().all(|(c, _)| !masked[*c as usize]));
        spans.retain(|s| s.ends.iter().all(|(c, _)| !masked[*c as usize]));

        // §4.6 links.
        let (links, r) = generate_links(team, &splints, &spans);
        reports.push(r);

        // §4.7 ordering and orientation.
        let (scaffolds, r) = order_and_orient(team, &contigs, &links);
        reports.push(r);

        // §4.8 gap closing.
        let (set, gs, r) = close_gaps(team, &contigs, &scaffolds, &alignments, reads, &cfg.gap);
        reports.push(r);
        gap_stats.merge(&gs);

        if round + 1 < cfg.rounds {
            // Next round scaffolds the current scaffolds.
            let next = ContigSet::from_sequences(contigs.codec, set.sequences.clone());
            carried = Some(carry_alignments(
                &contigs,
                &set,
                &next,
                &alignments,
                reads,
                cfg.align.seed_len,
            ));
            contigs = next;
        }
        result = Some(set);
    }

    ScaffoldOutput {
        scaffolds: result.expect("at least one round"),
        contigs,
        insert_means,
        gap_stats,
        reports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipmer_contig::{generate_contigs, ContigConfig};
    use hipmer_kanalysis::{analyze_kmers, KmerAnalysisConfig};
    use hipmer_pgas::Topology;
    use hipmer_readsim::{human_like_dataset, wheat_scaffolding_dataset, Dataset};

    fn run_pipeline(dataset: &Dataset, topo: Topology) -> (ScaffoldOutput, usize) {
        let team = Team::new(topo);
        let reads = dataset.all_reads();
        let lib_ranges = dataset.lib_ranges();
        let kcfg = KmerAnalysisConfig::new(21);
        let (spectrum, _) = analyze_kmers(&team, &reads, &kcfg);
        let (contigs, _) = generate_contigs(&team, &spectrum, &ContigConfig::default());
        let n_raw = contigs.len();
        let out = scaffold_pipeline(
            &team,
            &spectrum,
            &contigs,
            &reads,
            &lib_ranges,
            &ScaffoldConfig::new(15),
        );
        (out, n_raw)
    }

    #[test]
    fn end_to_end_scaffolding_improves_contiguity() {
        let dataset = human_like_dataset(40_000, 18.0, false, 42);
        let (out, _) = run_pipeline(&dataset, Topology::new(4, 2));
        assert!(!out.scaffolds.is_empty());
        let genome_len = dataset.genomes[0].reference_len();
        // The scaffold N50 must reach a large fraction of the genome.
        assert!(
            out.scaffolds.n50() > genome_len / 3,
            "scaffold N50 {} vs genome {}",
            out.scaffolds.n50(),
            genome_len
        );
        // Insert estimation found the short library's ~395bp insert.
        assert!(
            (out.insert_means[0] - 395.0).abs() < 40.0,
            "insert {:?}",
            out.insert_means
        );
    }

    #[test]
    fn pipeline_is_deterministic_across_concurrency() {
        let dataset = human_like_dataset(25_000, 16.0, false, 7);
        let (a, _) = run_pipeline(&dataset, Topology::new(1, 1));
        let (b, _) = run_pipeline(&dataset, Topology::new(8, 4));
        assert_eq!(a.scaffolds.sequences, b.scaffolds.sequences);
    }

    /// Carrying alignments forward stands in for re-aligning every read
    /// against every round's contigs. On the repetitive Tier-1 wheat input
    /// the two may disagree on fewer than 1 % of the reads in any round.
    #[test]
    fn carried_alignments_match_full_realignment_on_wheat() {
        let dataset = wheat_scaffolding_dataset(60_000, 16.0, false, 321);
        let team = Team::new(Topology::new(6, 3));
        let reads = dataset.all_reads();
        let (spectrum, _) = analyze_kmers(&team, &reads, &KmerAnalysisConfig::new(21));
        let (raw, _) = generate_contigs(&team, &spectrum, &ContigConfig::default());
        let (prepared, _) = prepare_contigs(&team, &spectrum, &raw, Schedule::Static);
        let cfg = ScaffoldConfig {
            rounds: 4,
            ..ScaffoldConfig::new(15)
        };
        let per_read = |alns: &[Alignment]| {
            let mut sets = vec![Vec::new(); reads.len()];
            for a in alns {
                sets[a.read as usize].push(*a);
            }
            sets
        };
        let mut rounds = Vec::new();
        run_rounds(
            &team,
            &spectrum,
            prepared,
            &reads,
            &dataset.lib_ranges(),
            &cfg,
            None,
            |contigs, carried| {
                let (full, _) = align_reads(&team, contigs, &reads, &cfg.align);
                let differ = per_read(carried)
                    .iter()
                    .zip(&per_read(&full))
                    .filter(|(c, f)| c != f)
                    .count();
                rounds.push((contigs.len(), differ));
            },
        );
        for (round, &(contigs, differ)) in rounds.iter().enumerate() {
            println!(
                "round {round}: {contigs} contigs, {differ} of {} reads with another \
                 alignment set than full re-alignment",
                reads.len()
            );
        }
        assert_eq!(rounds.len(), 4);
        for &(_, differ) in &rounds {
            assert!(100 * differ < reads.len(), "{rounds:?}");
        }
    }

    /// Preparation may join contigs and absorb bubble arms; it may not lose
    /// sequence. On a repetitive genome unique flanks converge on repeat
    /// k-mers and share attachments without being adjacent — the input on
    /// which the bubble walk used to drop 14 of 449 contigs.
    #[test]
    fn prepare_contigs_conserves_every_contig_on_a_repetitive_genome() {
        let dataset = wheat_scaffolding_dataset(60_000, 16.0, false, 321);
        let team = Team::new(Topology::new(6, 3));
        let reads = dataset.all_reads();
        let (spectrum, _) = analyze_kmers(&team, &reads, &KmerAnalysisConfig::new(21));
        let (raw, _) = generate_contigs(&team, &spectrum, &ContigConfig::default());
        let (info, _) = compute_depths(&team, &spectrum, &raw);
        let (prepared, _) = prepare_contigs(&team, &spectrum, &raw, Schedule::Static);

        let survives = |seq: &[u8]| {
            let rc = hipmer_dna::revcomp(seq);
            prepared
                .contigs
                .iter()
                .any(|p| p.seq.windows(seq.len()).any(|w| w == seq || w == &rc[..]))
        };
        // An absorbed bubble arm shares both attachment k-mers with the
        // arm that was kept.
        let bubble_key = |ci: usize| {
            let (l, r) = (info[ci].left_attach?, info[ci].right_attach?);
            Some((l.min(r), l.max(r)))
        };
        let (kept, gone): (Vec<usize>, Vec<usize>) =
            (0..raw.len()).partition(|&ci| survives(&raw.contigs[ci].seq));
        let kept_keys: Vec<_> = kept.iter().filter_map(|&ci| bubble_key(ci)).collect();
        let lost: Vec<usize> = gone
            .into_iter()
            .filter(|&ci| bubble_key(ci).is_none_or(|key| !kept_keys.contains(&key)))
            .map(|ci| raw.contigs[ci].len())
            .collect();
        assert!(lost.is_empty(), "contigs lost, by length: {lost:?}");
    }
}
