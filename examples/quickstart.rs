//! Quickstart: assemble a small synthetic genome end-to-end and inspect
//! the result.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```
//!
//! What it does:
//! 1. simulates a 100 kbp diploid "human-like" genome and a paired-end
//!    read set (with sequencing errors and qualities);
//! 2. writes the reads to a FASTQ file and assembles straight from that
//!    file with [`hipmer::assemble_fastq`] (exercising the §3.3 parallel
//!    block reader);
//! 3. writes the scaffolds as FASTA with [`hipmer::Assembly::to_fasta`] (the
//!    bytes `hipmer assemble -o` and the job service write);
//! 4. prints assembly statistics, the per-phase modeled times on a
//!    480-core Cray-XC30-like machine, and an accuracy check against the
//!    known source genome.

use hipmer::{assemble_fastq, evaluate, PipelineConfig, StageTimes};
use hipmer_pgas::{CostModel, Team, Topology};
use hipmer_readsim::human_like_dataset;
use hipmer_seqio::write_fastq;

fn main() -> std::io::Result<()> {
    // 1. Simulate.
    let genome_len = 100_000;
    let dataset = human_like_dataset(genome_len, 16.0, true, 2026);
    println!(
        "simulated {} ({} bp diploid), {} reads in {} libraries",
        dataset.name,
        genome_len,
        dataset.all_reads().len(),
        dataset.libraries.len()
    );

    // 2. Write FASTQ and assemble from the file.
    let dir = std::env::temp_dir().join("hipmer-quickstart");
    std::fs::create_dir_all(&dir)?;
    let fastq = dir.join("reads.fastq");
    let mut buf = Vec::new();
    write_fastq(&mut buf, &dataset.all_reads())?;
    std::fs::write(&fastq, &buf)?;
    println!("wrote {} ({} MB)", fastq.display(), buf.len() / 1_000_000);

    let team = Team::new(Topology::edison(480));
    let cfg = PipelineConfig::new(31);
    let assembly = assemble_fastq(&team, &fastq, &cfg)?;

    // 3. The scaffolds, in the one output format.
    let fasta = dir.join("scaffolds.fasta");
    std::fs::write(&fasta, assembly.to_fasta())?;
    println!("wrote {}", fasta.display());

    // 4. Report.
    let s = &assembly.stats;
    println!("\n--- assembly ---");
    println!("reads            : {} ({} bases)", s.n_reads, s.read_bases);
    println!("distinct k-mers  : {}", s.distinct_kmers);
    println!("contigs          : {} (N50 {})", s.n_contigs, s.contig_n50);
    println!(
        "scaffolds        : {} (N50 {})",
        s.n_scaffolds, s.scaffold_n50
    );
    println!(
        "gap closing      : {} spanned, {} walked, {} patched, {} overlap-joined, {} N-filled",
        s.gaps.spanned, s.gaps.walked, s.gaps.patched, s.gaps.overlap_joined, s.gaps.nfilled
    );

    let model = CostModel::edison();
    let t = StageTimes::from_report(&assembly.report, &model);
    println!("\n--- modeled time on 480 Edison-like cores ---");
    println!("file I/O         : {:>9.4} s", t.io);
    println!("k-mer analysis   : {:>9.4} s", t.kmer_analysis);
    println!("contig generation: {:>9.4} s", t.contig_generation);
    println!(
        "scaffolding      : {:>9.4} s  (merAligner {:.4}, gap closing {:.4}, rest {:.4})",
        t.scaffolding(),
        t.meraligner,
        t.gap_closing,
        t.rest_scaffolding
    );
    println!("TOTAL            : {:>9.4} s", t.total());

    // Accuracy vs the known truth (QUAST-style evaluation).
    let refs: Vec<&[u8]> = dataset.genomes[0]
        .haplotypes
        .iter()
        .map(|h| h.as_slice())
        .collect();
    let report = evaluate(&refs, &assembly.scaffolds.sequences, 31);
    println!("\n--- accuracy vs simulated truth (QUAST-style, k-mer anchors) ---");
    println!("{}", report.render());
    println!(
        "(evaluated against BOTH haplotypes: NG50 uses the diploid {}-bp\n \
         denominator, and 'misassembled' scaffolds on a diploid reference\n \
         are haplotype phase switches, not structural errors — see\n \
         tests/end_to_end.rs for the haploid zero-misassembly invariant)",
        2 * genome_len
    );

    std::fs::remove_file(&fastq).ok();
    Ok(())
}
