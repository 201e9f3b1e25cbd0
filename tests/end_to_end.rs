//! Cross-crate integration tests: the full assembler driven through its
//! public API, checked against the simulated ground truth.

use hipmer::{assemble, assemble_fastq, evaluate, PipelineConfig, StageTimes};
use hipmer_pgas::{trace, CommStats, CostModel, Team, Topology};
use hipmer_readsim::{human_like_dataset, metagenome_dataset, wheat_scaffolding_dataset, Dataset};

/// Reference sequence: all haplotypes joined with an N separator.
fn references_of(d: &Dataset) -> Vec<&[u8]> {
    (d.genomes.iter())
        .flat_map(|g| g.haplotypes.iter().map(Vec::as_slice))
        .collect()
}

#[test]
fn human_like_with_errors_assembles_accurately() {
    let dataset = human_like_dataset(50_000, 20.0, true, 123);
    let team = Team::new(Topology::new(8, 4));
    let reads = dataset.all_reads();
    let assembly = assemble(
        &team,
        &reads,
        &dataset.lib_ranges(),
        &PipelineConfig::new(21),
    );

    let eval = evaluate(&references_of(&dataset), &assembly.scaffolds.sequences, 21);
    let (precision, completeness) = (eval.precision, eval.genome_fraction);
    assert!(
        precision > 0.97,
        "erroneous sequence leaked into scaffolds: precision {precision}"
    );
    assert!(
        completeness > 0.85,
        "genome lost: completeness {completeness}"
    );
    // Scaffolding must add contiguity beyond raw contigs.
    assert!(assembly.stats.scaffold_n50 >= assembly.stats.contig_n50);
}

#[test]
fn wheat_preset_runs_multiple_rounds_and_improves() {
    let dataset = wheat_scaffolding_dataset(60_000, 16.0, false, 321);
    let team = Team::new(Topology::new(6, 3));
    let reads = dataset.all_reads();
    let one = assemble(&team, &reads, &dataset.lib_ranges(), &{
        let mut c = PipelineConfig::new(21);
        c.scaffold.rounds = 1;
        c
    });
    let four = assemble(
        &team,
        &reads,
        &dataset.lib_ranges(),
        &PipelineConfig::wheat_preset(21),
    );
    assert!(
        four.stats.scaffold_n50 >= one.stats.scaffold_n50,
        "extra rounds must not hurt: {} vs {}",
        four.stats.scaffold_n50,
        one.stats.scaffold_n50
    );
    // Repetitive assembly stays honest: high k-mer precision.
    let references = references_of(&dataset);
    let recall = |seqs: &[Vec<u8>]| evaluate(&references, seqs, 21).genome_fraction;
    let four_eval = evaluate(&references, &four.scaffolds.sequences, 21);
    let (precision, four_recall) = (four_eval.precision, four_eval.genome_fraction);
    assert!(precision > 0.95, "precision {precision}");
    // ... and complete: scaffolding reorders and joins contigs, it does not
    // lose them. (Bubble merging once dropped a contig per unique flank
    // pair converging on a repeat: 0.915 / 0.956 against 0.996 raw.)
    let contig_seqs: Vec<Vec<u8>> = one.contigs.contigs.iter().map(|c| c.seq.clone()).collect();
    let raw_recall = recall(&contig_seqs);
    let one_recall = recall(&one.scaffolds.sequences);
    for (rounds, recall) in [(1, one_recall), (4, four_recall)] {
        assert!(
            recall >= raw_recall - 0.005,
            "{rounds}-round scaffolds cover {recall} of the reference k-mers, raw contigs {raw_recall}"
        );
    }
    // Rounds 1-3 inherit alignments and re-align only the reads at new
    // junctions: together they may not out-work round 0, which aligns
    // every read (re-aligning everything costs about three times round 0).
    // Operation counts are deterministic, so this holds on any machine.
    let align_ops: Vec<u64> = four
        .report
        .phases
        .iter()
        .filter(|p| p.name == "scaffold/meraligner-align")
        .map(|p| p.totals().compute_ops)
        .collect();
    let later: u64 = align_ops[1..].iter().sum();
    assert!(
        later <= align_ops[0],
        "rounds 1-3 aligned {later} ops against round 0's {}: {align_ops:?}",
        align_ops[0]
    );
}

#[test]
fn metagenome_recovers_abundant_species_only() {
    let dataset = metagenome_dataset(150_000, 30, 8.0, false, 555);
    let team = Team::new(Topology::new(8, 4));
    let reads = dataset.all_reads();
    let assembly = assemble(
        &team,
        &reads,
        std::slice::from_ref(&(0..reads.len())),
        &PipelineConfig::metagenome_preset(21),
    );
    let mut best = 0.0f64;
    let mut worst = 1.0f64;
    for g in &dataset.genomes {
        let completeness =
            evaluate(&[g.reference()], &assembly.scaffolds.sequences, 21).genome_fraction;
        best = best.max(completeness);
        worst = worst.min(completeness);
    }
    assert!(
        best > 0.8,
        "the most abundant species must assemble: {best}"
    );
    assert!(
        worst < 0.7,
        "some species must be under-sampled (lognormal abundances): {worst}"
    );
}

#[test]
fn assembly_is_invariant_across_machine_shapes() {
    let dataset = human_like_dataset(25_000, 16.0, true, 99);
    let reads = dataset.all_reads();
    let cfg = PipelineConfig::new(21);
    let run = |ranks: usize, rpn: usize| {
        let team = Team::new(Topology::new(ranks, rpn));
        assemble(&team, &reads, &dataset.lib_ranges(), &cfg)
            .scaffolds
            .sequences
    };
    let a = run(1, 1);
    let b = run(16, 4);
    let c = run(48, 24);
    assert_eq!(a, b);
    assert_eq!(a, c);
}

#[test]
fn file_and_memory_paths_agree() {
    let dataset = human_like_dataset(15_000, 16.0, false, 7);
    let reads = dataset.all_reads();
    let cfg = PipelineConfig::new(21);
    let team = Team::new(Topology::new(4, 2));

    // In-memory (single-library call to match the file path semantics).
    let mem = assemble(&team, &reads, std::slice::from_ref(&(0..reads.len())), &cfg);

    // Through a FASTQ file.
    let dir = std::env::temp_dir().join(format!("hipmer-int-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("reads.fastq");
    let mut buf = Vec::new();
    hipmer_seqio::write_fastq(&mut buf, &reads).unwrap();
    std::fs::write(&path, &buf).unwrap();
    let filed = assemble_fastq(&team, &path, &cfg).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(mem.scaffolds.sequences, filed.scaffolds.sequences);
    // The file path must additionally price I/O.
    let t = StageTimes::from_report(&filed.report, &CostModel::edison());
    assert!(t.io > 0.0);
}

#[test]
fn modeled_times_strong_scale_on_meaningful_input() {
    // Strong scaling sanity at integration level: 8x the ranks on the
    // same input must cut the modeled end-to-end time. The input must be
    // large enough that per-rank communication still dominates the fixed
    // latency floor at 96 ranks — read-side batching/caching (DESIGN.md
    // §5) cut the per-key latency share, so a smaller genome flattens
    // the modeled curve before the rank sweep ends.
    let dataset = human_like_dataset(200_000, 14.0, false, 31);
    let reads = dataset.all_reads();
    let cfg = PipelineConfig::new(21);
    let time_at = |ranks: usize| {
        let team = Team::new(Topology::edison(ranks));
        let a = assemble(&team, &reads, &dataset.lib_ranges(), &cfg);
        StageTimes::from_report(&a.report, &CostModel::edison()).total()
    };
    let t12 = time_at(12);
    let t96 = time_at(96);
    assert!(
        t96 < t12 * 0.6,
        "8x ranks should speed up meaningfully: {t12} -> {t96}"
    );
}

#[test]
fn haploid_assembly_has_no_misassemblies() {
    // QUAST-style evaluation: with error-free reads from a HAPLOID genome,
    // scaffolds must anchor colinearly to the source — zero
    // relocations/inversions. (Diploid assemblies legitimately switch
    // haplotype phase between bubbles, which single-reference evaluation
    // counts as breaks; see the diploid test below.)
    use hipmer_readsim::{simulate_library, ErrorModel, Genome, Library};
    let genome = Genome::haploid(
        "hap",
        hipmer_readsim::human_like(60_000, 777).haplotypes.remove(0),
    );
    let mut reads = simulate_library(
        &genome,
        &Library::short_insert(16.0),
        &ErrorModel::perfect(),
        1,
    );
    let r2 = simulate_library(
        &genome,
        &Library::long_insert(1000, 4.0),
        &ErrorModel::perfect(),
        2,
    );
    let split = reads.len();
    reads.extend(r2);
    let team = Team::new(Topology::new(8, 4));
    let assembly = assemble(
        &team,
        &reads,
        &[0..split, split..reads.len()],
        &PipelineConfig::new(31),
    );
    let report = hipmer::evaluate(&[genome.reference()], &assembly.scaffolds.sequences, 31);
    assert_eq!(
        report.misassembled_scaffolds, 0,
        "misassemblies on clean haploid data: {report:?}"
    );
    assert!(report.genome_fraction > 0.9, "{report:?}");
    assert!(report.precision > 0.99, "{report:?}");
    assert!(report.duplication_ratio < 1.2, "{report:?}");
}

#[test]
fn diploid_breaks_are_only_phase_switches() {
    // Against the two haplotypes separately, the only chain breaks allowed
    // are haplotype switches (few), not genuine structural errors (which
    // would also tank precision).
    let dataset = human_like_dataset(60_000, 18.0, false, 777);
    let team = Team::new(Topology::new(8, 4));
    let reads = dataset.all_reads();
    let assembly = assemble(
        &team,
        &reads,
        &dataset.lib_ranges(),
        &PipelineConfig::new(31),
    );
    let refs: Vec<&[u8]> = dataset.genomes[0]
        .haplotypes
        .iter()
        .map(|h| h.as_slice())
        .collect();
    let report = hipmer::evaluate(&refs, &assembly.scaffolds.sequences, 31);
    assert!(
        report.misassembled_scaffolds <= report.scaffolds_evaluated / 4,
        "too many breaks for phase switching alone: {report:?}"
    );
    assert!(report.precision > 0.99, "{report:?}");
    assert!(report.genome_fraction > 0.9, "{report:?}");
}

/// FNV-1a of the FASTA at 1, 2, 4 and 8 OS threads; all four must equal
/// `golden`.
fn assert_golden_fasta(
    dataset: &Dataset,
    libs: &[std::ops::Range<usize>],
    cfg: &PipelineConfig,
    golden: u64,
) {
    let reads = dataset.all_reads();
    for threads in [1, 2, 4, 8] {
        let team = Team::new(Topology::new(8, 4)).with_os_threads(threads);
        let fasta = assemble(&team, &reads, libs, cfg).to_fasta();
        assert_eq!(
            hipmer::checkpoint::fnv1a(&fasta),
            golden,
            "assembled bytes moved at {threads} thread(s)"
        );
    }
}

#[test]
fn assembled_bytes_are_pinned_across_commits() {
    // Every other identity test compares two runs of the same build, so a
    // default that silently changes value passes them all. A change that
    // moves these literals changes the assembly and must say so.
    //
    // The human literal was 0x8bbb_6ee5_394d_1ba4 from a7971ae until the
    // commit that routed the three chain walks through
    // `hipmer_contig::chain::walk_chains` (child of 8f4c132): on this input
    // `merge_bubbles` used to walk 2 of its 36 attachment edges that it
    // then could not stitch, and each cost the assembly the contig the
    // walk started from. Those edges are no longer placed; the parent with
    // only that check added produces this same value.
    let human = human_like_dataset(25_000, 16.0, false, 7);
    assert_golden_fasta(
        &human,
        &human.lib_ranges(),
        &PipelineConfig::new(21),
        0xbaa7_df63_437d_aaf4,
    );
    // Multi-k on a repeat-bearing community: covers `round_stage_configs`
    // and the non-final-round pruning floor (a floor of 0 gives 92
    // scaffolds instead of 93 on this input). Computed at a7971ae and
    // deliberately NOT moved by the walker commit: this input never reaches
    // `merge_bubbles`, so it shows that routing `merge_chains` through the
    // shared walker changed no contig.
    let meta = hipmer_readsim::metagenome_repeats_dataset(40_000, 6, 30, 300, 12.0, false, 9);
    let all = 0..meta.all_reads().len();
    let cfg = PipelineConfig::metagenome_preset(33)
        .try_multi_k(&[21, 33])
        .unwrap();
    assert_golden_fasta(&meta, &[all], &cfg, 0x1380_19c0_0df8_1fe6);
}

/// `[compute_ops, cache_hits, cache_misses, remote_msgs]` of every
/// `scaffold/meraligner-align` phase of one assembly on one OS thread.
fn aligner_counters(dataset: &Dataset, cfg: &PipelineConfig) -> Vec<[u64; 4]> {
    let team = Team::new(Topology::new(8, 4)).with_os_threads(1);
    let reads = dataset.all_reads();
    let assembly = assemble(&team, &reads, &dataset.lib_ranges(), cfg);
    (assembly.report.phases.iter())
        .filter(|p| p.name == "scaffold/meraligner-align")
        .map(|p| {
            let t = p.totals();
            [t.compute_ops, t.cache_hits, t.cache_misses, t.remote_msgs()]
        })
        .collect()
}

#[test]
fn aligner_counters_are_pinned_across_commits() {
    // merAligner computes a block's gapped extensions before the candidate
    // loop that consumes them. The loop must still charge compute only for
    // the candidates it reaches and touch the contig replica cache in
    // candidate order, up to the read's last accepted alignment: the CLOCK
    // cache's hits and misses depend on that order. The FASTA cannot show
    // either; these counts can. Taken at 49eca00.
    //
    // Moved once, by the exact-match shortcut: a read that equals a contig
    // window whose seeds all occur once is resolved by its anchor seed
    // alone (one lookup, compute for the anchor and the compared span)
    // instead of by all ~22 stride seeds, the anchors are flushed before
    // the other seeds are queued, and a contig replica now carries its
    // ⌈len/8⌉ bytes of shared-seed bits. Before, the rows read: human
    // [547_052, 15_357, 77_011, 636]; wheat [8_021_598, 40_925, 196_370,
    // 2_496], [5_831_948, 19_917, 70_134, 1_224], [1_222_653, 1_656,
    // 11_033, 332], [446_191, 653, 5_365, 173]. Rounds 1-3 re-align reads
    // at new junctions, which rarely take the shortcut, so there the flush
    // between the two lookup passes adds a few messages.
    //
    // Moved again when stage 1 became two `FrozenMap::multi_get` gathers
    // behind a per-rank memo instead of a streaming lookup batch behind a
    // 4,096-entry seed cache: a rank now fetches each distinct seed once
    // (no re-fetch of a key in flight or evicted), so misses fall and hits
    // rise by the same amount, and a gather ships one message per owner
    // instead of one per 256 keys. Compute does not move. At the shortcut's
    // pin the rows read: human [481_841, 5_121, 14_536, 468]; wheat
    // [7_960_761, 39_989, 136_469, 2_317], [5_831_057, 19_957, 69_203,
    // 1_278], [1_222_653, 1_771, 10_918, 388], [446_170, 695, 5_302, 225].
    let human = human_like_dataset(25_000, 16.0, false, 7);
    assert_eq!(
        aligner_counters(&human, &PipelineConfig::new(21)),
        [[481_841, 7_071, 12_586, 468]]
    );
    let wheat = wheat_scaffolding_dataset(60_000, 16.0, false, 321);
    assert_eq!(
        aligner_counters(&wheat, &PipelineConfig::wheat_preset(21)),
        [
            [7_960_761, 57_248, 119_210, 1_919],
            [5_831_057, 25_239, 63_921, 1_076],
            [1_222_653, 3_397, 9_292, 388],
            [446_170, 1_553, 4_444, 225],
        ]
    );
}

/// `[compute_ops, remote_msgs, service_ops, onnode_bytes + offnode_bytes]`
/// of every `kmer-analysis/*` phase of one assembly on one OS thread, in
/// phase order (sketch, bloom, count, finalize; once per multi-k round).
fn kmer_analysis_counters(
    dataset: &Dataset,
    libs: &[std::ops::Range<usize>],
    cfg: &PipelineConfig,
) -> Vec<[u64; 4]> {
    let team = Team::new(Topology::new(8, 4)).with_os_threads(1);
    let reads = dataset.all_reads();
    let assembly = assemble(&team, &reads, libs, cfg);
    (assembly.report.phases.iter())
        .filter(|p| p.name.starts_with("kmer-analysis/"))
        .map(|p| {
            let t = p.totals();
            let bytes = t.onnode_bytes + t.offnode_bytes;
            [t.compute_ops, t.remote_msgs(), t.service_ops, bytes]
        })
        .collect()
}

#[test]
fn kmer_analysis_counters_are_pinned_across_commits() {
    // K-mer analysis keys its tables by a 64-bit word at k <= 32 and by the
    // 128-bit `Kmer` above; neither may move a counted event. Taken at
    // 9bd9526, with one exception: the count pass's bytes. A heavy
    // hitter's per-rank partial tally ships as the packed k-mer plus
    // `ExtVotes::WIRE_BYTES`, which went from 36 (nine `u32`s) to 12 (eight
    // `u8` votes and the `u32` count), so each partial shipped to another
    // rank bills exactly 24 B less. At the parent these three read
    // human 5_767_580 = pinned + 24 * 137_319, meta round 1 2_280_894 =
    // pinned + 24 * 49_162 and round 2 (k = 33, the 128-bit path)
    // 3_251_220 = pinned + 24 * 60_064. (The other occurrences the count
    // pass ships are those of the Bloom pass, one vote byte heavier, which
    // pins the partial counts: human 26 * 7 + 137_319 * 18 = 2_471_924.)
    //
    // The Bloom, count and finalize rows moved once more when a heavy
    // hitter came to need a merged count of N/(16·P): on these inputs
    // that is 2,509 (human) and 2,337 / 2,536 (meta) occurrences, none
    // reaches it, and every occurrence takes the owner path. The rows now
    // read exactly what the earlier code read with heavy hitters off. At
    // the previous pin they read, in the order above, human
    // [321_084, 13, 0, 156], [321_084, 69, 156_965, 2_471_924],
    // [24_906, 0, 24_906, 0]; meta round 1 [299_052, 150, 23_695, 185_220],
    // [299_052, 206, 91_624, 1_101_006], [37_518, 0, 37_518, 0]; round 2
    // [324_564, 251, 48_781, 493_506], [324_564, 307, 131_394, 1_809_684],
    // [37_800, 0, 37_800, 0]. (Finalize now also reads the few singletons
    // the Bloom filters let into the vote table, which heavy k-mers used
    // to bypass.)
    let human = human_like_dataset(25_000, 16.0, false, 7);
    assert_eq!(
        kmer_analysis_counters(&human, &human.lib_ranges(), &PipelineConfig::new(21)),
        [
            [321_084, 7, 0, 5_490_688],
            [321_084, 1_126, 296_176, 1_685_544],
            [321_084, 1_126, 321_084, 1_966_468],
            [24_906, 0, 24_906, 0],
        ]
    );
    let meta = hipmer_readsim::metagenome_repeats_dataset(40_000, 6, 30, 300, 12.0, false, 9);
    let all = 0..meta.all_reads().len();
    let cfg = PipelineConfig::metagenome_preset(33)
        .try_multi_k(&[21, 33])
        .unwrap();
    assert_eq!(
        kmer_analysis_counters(&meta, &[all], &cfg),
        [
            [299_052, 7, 0, 5_490_688],
            [299_052, 1_048, 260_862, 1_571_220],
            [299_052, 1_048, 299_052, 1_833_090],
            [37_523, 0, 37_518, 0],
            [324_564, 7, 0, 5_490_688],
            [324_564, 1_136, 285_527, 2_555_082],
            [324_564, 1_136, 324_564, 2_838_980],
            [37_817, 0, 37_800, 0],
        ]
    );
}

/// `[compute_ops, local_ops, remote_msgs, lookup_batches, cache_misses,
/// table_entries]` of every `contig/traversal`, `contig/prune`,
/// `scaffold/depths` and `scaffold/gap-closing` phase of one assembly on
/// one OS thread, by name in phase order.
fn read_phase_counters(
    dataset: &Dataset,
    libs: &[std::ops::Range<usize>],
    cfg: &PipelineConfig,
) -> Vec<(&'static str, [u64; 6])> {
    const READ_PHASES: [&str; 4] = [
        "contig/traversal",
        "contig/prune",
        "scaffold/depths",
        "scaffold/gap-closing",
    ];
    let team = Team::new(Topology::new(8, 4)).with_os_threads(1);
    let reads = dataset.all_reads();
    let assembly = assemble(&team, &reads, libs, cfg);
    (assembly.report.phases.iter())
        .filter_map(|p| {
            let name = READ_PHASES.into_iter().find(|&n| n == p.name)?;
            let t = p.totals();
            let counts = [
                t.compute_ops,
                t.local_ops,
                t.remote_msgs(),
                t.lookup_batches,
                t.cache_misses,
                t.table_entries,
            ];
            Some((name, counts))
        })
        .collect()
}

#[test]
fn read_phase_counters_are_pinned_across_commits() {
    // The phases that only read tables built earlier: the claim walk over
    // the de Bruijn graph, hair pruning and contig depths over the k-mer
    // spectrum, and gap closing over the read buckets. How a table is read
    // may change; what the reads count may not. Taken at f237ba7, with one
    // exception: the traversal's cache misses. The graph used to be read
    // through a per-rank node cache that only the probe one step past a
    // walk cap consulted; it never hit, and it is gone. At f237ba7 that
    // column read 2 on human and 0 and 2 on the two meta rounds.
    //
    // The traversal rows moved when these inputs stopped having heavy
    // hitters (see `kmer_analysis_counters_are_pinned_across_commits`):
    // the vote table is built in another insertion order, so the frozen
    // graph deals its seeds in another order and the claim walks race
    // differently, while the contigs stay byte for byte the same. They read
    // what the earlier code read with heavy hitters off; before, human
    // read [101_467, 3_380, 21_851, ..] and the meta rounds
    // [152_071, 5_232, 32_666, ..] and [153_349, 5_138, 32_942, ..].
    //
    // The depths rows moved when their windows came to be cut into rank
    // blocks by cost (k-mers plus a fixed cost per window) instead of by
    // window count: the same windows send the same multi-gets, but a window
    // now and then lands on another rank, so a group that was local is
    // remote or the other way round. `local_ops + remote_msgs` is
    // unchanged; before, the two rows read
    // [24_834, 163, 1_150, 893, ..] and [24_505, 95, 678, 557, ..].
    let human = human_like_dataset(25_000, 16.0, false, 7);
    assert_eq!(
        read_phase_counters(&human, &human.lib_ranges(), &PipelineConfig::new(21)),
        [
            ("contig/traversal", [101_319, 3_388, 21_834, 0, 0, 24_834]),
            ("scaffold/depths", [24_834, 175, 1_138, 893, 0, 24_906]),
            ("scaffold/depths", [24_505, 106, 667, 557, 0, 24_906]),
            ("scaffold/gap-closing", [21_448, 14, 90, 40, 0, 100]),
        ]
    );
    let meta = hipmer_readsim::metagenome_repeats_dataset(40_000, 6, 30, 300, 12.0, false, 9);
    let all = 0..meta.all_reads().len();
    let cfg = PipelineConfig::metagenome_preset(33)
        .try_multi_k(&[21, 33])
        .unwrap();
    assert_eq!(
        read_phase_counters(&meta, &[all], &cfg),
        [
            ("contig/traversal", [152_081, 5_233, 32_666, 0, 0, 37_266]),
            ("contig/prune", [652, 40, 303, 291, 0, 37_518]),
            ("contig/traversal", [153_425, 5_146, 32_944, 0, 0, 37_655]),
        ]
    );
}

/// The phases that build a table by owner-applied batches: k-mer analysis
/// and the seed index, whose every counted field is compared across
/// thread counts, and the scaffolding tables, merged into larger reports.
const WRITE_PHASES: [&str; 4] = [
    "scaffold/meraligner-index",
    "scaffold/links",
    "scaffold/bubbles",
    "scaffold/gap-closing",
];

/// One compared write phase: name, every rank's counted `CommStats`,
/// `(entries, max_partition_entries)` and hot keys.
type WritePhase = (String, Vec<CommStats>, (u64, u64), Vec<(u64, u64)>);

/// Every `kmer-analysis/*` and `scaffold/meraligner-index` phase of one
/// assembly at `threads` OS threads, with hot-key tracking on, after
/// checking that no write phase waited for a lock.
fn write_phases(
    dataset: &Dataset,
    libs: &[std::ops::Range<usize>],
    cfg: &PipelineConfig,
    threads: usize,
) -> Vec<WritePhase> {
    let team = Team::new(Topology::new(8, 4))
        .with_os_threads(threads)
        .with_hot_keys(trace::HOT_KEY_CAPACITY);
    let reads = dataset.all_reads();
    let assembly = assemble(&team, &reads, libs, cfg);
    let phases = assembly.report.phases;
    for p in &phases {
        if p.name.starts_with("kmer-analysis/") || WRITE_PHASES.contains(&p.name.as_str()) {
            let waits = p.totals().lock_waits;
            assert_eq!(waits, 0, "{} waited at {threads} threads", p.name);
        }
    }
    (phases.into_iter())
        .filter(|p| p.name.starts_with("kmer-analysis/") || p.name == WRITE_PHASES[0])
        .map(|p| {
            let table = p.table();
            let counted = p.stats.into_iter().map(CommStats::counted).collect();
            (p.name, counted, table, p.hot_keys)
        })
        .collect()
}

#[test]
fn write_phases_count_the_same_at_every_thread_count() {
    // Each owner applies the batches sent to it, sources in rank order, so
    // the order they land in — which decides the Bloom filter's false
    // positives and the hot-key summaries — depends on the input and the
    // rank count, not on the threads; and no owner ever waits for a lock.
    let check = |dataset: &Dataset, libs: &[std::ops::Range<usize>], cfg: &PipelineConfig| {
        let serial = write_phases(dataset, libs, cfg, 1);
        assert!(serial
            .iter()
            .any(|p| p.0 == "kmer-analysis/count" && !p.3.is_empty()));
        for threads in [2, 4, 8] {
            let threaded = write_phases(dataset, libs, cfg, threads);
            assert_eq!(threaded.len(), serial.len(), "{threads} threads");
            for (t, s) in threaded.iter().zip(&serial) {
                assert_eq!(t, s, "{} at {threads} threads", s.0);
            }
        }
    };
    let human = human_like_dataset(25_000, 16.0, false, 7);
    check(&human, &human.lib_ranges(), &PipelineConfig::new(21));
    let meta = hipmer_readsim::metagenome_repeats_dataset(40_000, 6, 30, 300, 12.0, false, 9);
    let all = 0..meta.all_reads().len();
    let multi_k = PipelineConfig::metagenome_preset(33)
        .try_multi_k(&[21, 33])
        .unwrap();
    check(&meta, &[all], &multi_k);
}
