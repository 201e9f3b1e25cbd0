//! Partition ablation: uniform vs minimizer-bucketed k-mer ownership
//! (the tentpole experiment for communication-avoiding placement).
//!
//! The same read set is assembled at P ∈ {16, 64, 256} (8 ranks/node, so
//! every concurrency spans multiple nodes and off-node traffic is real)
//! under both `PartitionScheme`s, and three stages' off-node fractions are
//! recorded to `BENCH_partition.json`:
//!
//! 1. **K-mer analysis (count pass)**: expected to be placement-*neutral*
//!    in message counts — aggregating stores flush one message per full
//!    batch regardless of where keys live, so this row documents that the
//!    minimizer win is not an artifact of batch accounting.
//!
//! 2. **Contig traversal**: the headline. Minimizer bucketing co-locates
//!    each minimizer run of adjacent k-mers on one rank, and the
//!    cooperative traversal stops walks at ownership boundaries (the
//!    owning rank claims its own run locally; chain merging stitches the
//!    per-run subcontigs). Per-vertex remote claims collapse into
//!    rank-local ones, leaving ~two boundary probes per run.
//!
//! 3. **merAligner (seed index + align)**: adjacent stride seeds of a read
//!    share minimizer buckets, shrinking the distinct-owner set each
//!    read's lookup batch touches.
//!
//! Output must be **byte-identical** under the two schemes — asserted at
//! every concurrency for both the contig FASTA and the alignments. The
//! regression gate (CI runs it in fast mode): at every P the minimizer
//! traversal off-node fraction must undercut uniform by >= 25%.

use hipmer_align::{align_reads, AlignConfig};
use hipmer_bench::{banner, fast, scaled};
use hipmer_contig::{generate_contigs, ContigConfig};
use hipmer_kanalysis::{analyze_kmers, KmerAnalysisConfig};
use hipmer_pgas::json::Value;
use hipmer_pgas::{PartitionScheme, PhaseReport, Team, Topology};
use hipmer_seqio::SeqRecord;

const RANKS_PER_NODE: usize = 8;
const K: usize = 31;
/// The gate: minimizer off-node fraction < uniform * (1 - REDUCTION).
const REDUCTION: f64 = 0.25;

fn lcg_seq(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed;
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            b"ACGT"[(x >> 60) as usize % 4]
        })
        .collect()
}

/// Perfect reads tiling the genome at ~4x depth.
fn tile_reads(genome: &[u8], read_len: usize) -> Vec<SeqRecord> {
    let mut out = Vec::new();
    for off in [0usize, read_len / 2] {
        let mut pos = off;
        while pos + read_len <= genome.len() {
            out.push(SeqRecord::with_uniform_quality(
                format!("r{pos}"),
                genome[pos..pos + read_len].to_vec(),
                35,
            ));
            pos += read_len / 2;
        }
    }
    out
}

struct Row {
    stage: &'static str,
    ranks: usize,
    partition: PartitionScheme,
    placement: String,
    offnode_fraction: f64,
    local_ops: u64,
    onnode_msgs: u64,
    offnode_msgs: u64,
}

fn row_json(r: &Row) -> Value {
    let mut v = Value::obj();
    v.set("stage", r.stage)
        .set("ranks", r.ranks)
        .set("partition", r.partition.to_string())
        .set("placement", r.placement.as_str())
        .set("offnode_fraction", r.offnode_fraction)
        .set("local_ops", r.local_ops)
        .set("onnode_msgs", r.onnode_msgs)
        .set("offnode_msgs", r.offnode_msgs);
    v
}

fn record(
    rows: &mut Vec<Row>,
    stage: &'static str,
    ranks: usize,
    scheme: PartitionScheme,
    report: &PhaseReport,
) -> f64 {
    let t = report.totals();
    let frac = report.offnode_fraction();
    rows.push(Row {
        stage,
        ranks,
        partition: scheme,
        placement: report.placement.clone().unwrap_or_default(),
        offnode_fraction: frac,
        local_ops: t.local_ops,
        onnode_msgs: t.onnode_msgs,
        offnode_msgs: t.offnode_msgs,
    });
    frac
}

fn find<'a>(reports: &'a [PhaseReport], name: &str) -> &'a PhaseReport {
    reports
        .iter()
        .find(|r| r.name == name)
        .unwrap_or_else(|| panic!("no phase named {name}"))
}

fn main() {
    banner(
        "Partition ablation",
        "uniform vs minimizer k-mer ownership: off-node traffic at identical output",
    );
    let concurrencies: Vec<usize> = if fast() { vec![16] } else { vec![16, 64, 256] };

    let genome = lcg_seq(scaled(60_000), 77);
    let reads = tile_reads(&genome, 100);
    println!(
        "workload: {} bp genome, {} perfect 100 bp reads (~4x), k = {K}",
        genome.len(),
        reads.len()
    );
    println!(
        "\n{:>7} {:>10} {:>24} {:>10} {:>10} {:>10}",
        "cores", "scheme", "stage", "off-node", "uniform", "cut"
    );

    let mut rows: Vec<Row> = Vec::new();
    let mut gates: Vec<Value> = Vec::new();
    for &ranks in &concurrencies {
        let topo = Topology::new(ranks, RANKS_PER_NODE);
        let team = Team::new(topo);

        let mut fasta: Vec<Vec<Vec<u8>>> = Vec::new();
        let mut alignments = Vec::new();
        let mut traversal_frac = [0.0f64; 2];
        for (i, scheme) in [PartitionScheme::Uniform, PartitionScheme::Minimizer]
            .into_iter()
            .enumerate()
        {
            let mut kcfg = KmerAnalysisConfig::new(K);
            kcfg.partition = scheme;
            let (spectrum, kreports) = analyze_kmers(&team, &reads, &kcfg);
            record(
                &mut rows,
                "kmer-analysis/count",
                ranks,
                scheme,
                find(&kreports, "kmer-analysis/count"),
            );

            let ccfg = ContigConfig {
                partition: scheme,
                ..ContigConfig::default()
            };
            let (contigs, creports) = generate_contigs(&team, &spectrum, &ccfg);
            traversal_frac[i] = record(
                &mut rows,
                "contig/traversal",
                ranks,
                scheme,
                find(&creports, "contig/traversal"),
            );

            let mut acfg = AlignConfig::new(15);
            acfg.partition = scheme;
            let (alns, areports) = align_reads(&team, &contigs, &reads, &acfg);
            for stage in ["scaffold/meraligner-index", "scaffold/meraligner-align"] {
                record(&mut rows, stage, ranks, scheme, find(&areports, stage));
            }

            fasta.push(contigs.contigs.iter().map(|c| c.seq.clone()).collect());
            alignments.push(alns);
        }

        // Hard correctness gate: the placement must be invisible in the
        // output, bytes included.
        assert_eq!(
            fasta[0], fasta[1],
            "partition schemes must emit byte-identical contigs at P={ranks}"
        );
        assert_eq!(
            alignments[0], alignments[1],
            "partition schemes must emit identical alignments at P={ranks}"
        );

        // Hard traffic gate: >= 25% off-node reduction on the traversal.
        let (uni, min) = (traversal_frac[0], traversal_frac[1]);
        println!(
            "{:>7} {:>10} {:>24} {:>10.3} {:>10.3} {:>9.0}%",
            ranks,
            "minimizer",
            "contig/traversal",
            min,
            uni,
            100.0 * (1.0 - min / uni.max(f64::MIN_POSITIVE))
        );
        assert!(
            min < uni * (1.0 - REDUCTION),
            "minimizer must cut traversal off-node fraction by >= {:.0}% at P={ranks}: {min:.3} vs uniform {uni:.3}",
            100.0 * REDUCTION
        );
        let mut g = Value::obj();
        g.set("ranks", ranks)
            .set("stage", "contig/traversal")
            .set("uniform_offnode_fraction", uni)
            .set("minimizer_offnode_fraction", min)
            .set("reduction", 1.0 - min / uni.max(f64::MIN_POSITIVE))
            .set("required_reduction", REDUCTION)
            .set("byte_identical_fasta", true)
            .set("identical_alignments", true);
        gates.push(g);
    }

    let mut doc = Value::obj();
    doc.set("schema_version", 1u64)
        .set("bench", "partition_ablation");
    hipmer_bench::stamp(&mut doc);
    doc.set("k", K as u64)
        .set("minimizer_len", hipmer_pgas::DEFAULT_MINIMIZER_LEN as u64)
        .set("ranks_per_node", RANKS_PER_NODE as u64)
        .set("gates", Value::Arr(gates))
        .set(
            "rows",
            Value::Arr(rows.iter().map(row_json).collect::<Vec<_>>()),
        );
    std::fs::write("BENCH_partition.json", doc.to_json()).unwrap();
    println!(
        "\n(byte-identical output under both partitions at every concurrency; wrote BENCH_partition.json)"
    );
}
