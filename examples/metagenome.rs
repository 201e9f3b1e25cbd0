//! Metagenome contig generation (§5.4's Twitchell Wetlands use case).
//!
//! ```text
//! cargo run --release --example metagenome
//! ```
//!
//! Metagenomes break two single-genome assumptions the paper calls out:
//! the k-mer spectrum is flat (few deep k-mers, so Bloom filters save
//! less memory), and single-genome scaffolding logic would mis-join
//! strains — so HipMer runs metagenomes through *contig generation only*
//! ([`PipelineConfig::metagenome_preset`]). This example assembles a
//! simulated lognormal-abundance community and reports per-species
//! recovery: abundant species assemble well, rare ones stay below the
//! count threshold — the paper's point that most reads of a real soil
//! metagenome cannot be assembled without deeper sampling.

use hipmer::{assemble, evaluate, PipelineConfig, StageTimes};
use hipmer_kanalysis::{analyze_kmers, KmerAnalysisConfig};
use hipmer_pgas::{CostModel, RankCtx, Team, Topology};
use hipmer_readsim::{human_like_dataset, metagenome_dataset};
use hipmer_sketch::CountHistogram;

fn spectrum_histogram(team: &Team, reads: &[hipmer_seqio::SeqRecord], k: usize) -> CountHistogram {
    let (spectrum, _) = analyze_kmers(team, reads, &KmerAnalysisConfig::new(k));
    let mut hist = CountHistogram::new(256);
    for r in 0..team.ranks() {
        let mut ctx = RankCtx::new(r, *team.topo());
        hist.merge(&spectrum.count_histogram(&mut ctx, 256));
    }
    hist
}

fn main() {
    let total_len = 400_000;
    let species = 50;
    let k = 31;
    let dataset = metagenome_dataset(total_len, species, 12.0, true, 777);
    let reads = dataset.all_reads();
    println!(
        "community: {species} species, {} bp total, {} reads",
        dataset.total_genome_bases(),
        reads.len()
    );

    let ranks = 1024;
    let team = Team::new(Topology::edison(ranks));
    let cfg = PipelineConfig::metagenome_preset(k);
    let lib_range = 0..reads.len();
    let lib_ranges = std::slice::from_ref(&lib_range);
    let assembly = assemble(&team, &reads, lib_ranges, &cfg);

    println!("\n--- contig generation only (scaffolding skipped by design, §5.4) ---");
    println!(
        "distinct k-mers {} | contigs {} | contig N50 {}",
        assembly.stats.distinct_kmers, assembly.stats.n_contigs, assembly.stats.contig_n50
    );
    let t = StageTimes::from_report(&assembly.report, &CostModel::edison());
    println!(
        "modeled on {ranks} cores: k-mer analysis {:.3} s, contig generation {:.3} s",
        t.kmer_analysis, t.contig_generation
    );

    // Spectrum flatness vs an isolate genome at matched coverage.
    let small_team = Team::new(Topology::single_node(8));
    let meta_hist = spectrum_histogram(&small_team, &reads, k);
    let isolate = human_like_dataset(total_len / 4, 12.0, true, 778);
    let iso_hist = spectrum_histogram(&small_team, &isolate.all_reads(), k);
    let low = |h: &CountHistogram| (2..=4u64).map(|v| h.fraction(v)).sum::<f64>();
    println!(
        "\nk-mer spectrum shape (fraction of surviving k-mers at count 2-4):\n  \
         metagenome {:.1}%  vs  isolate genome {:.1}%",
        100.0 * low(&meta_hist),
        100.0 * low(&iso_hist)
    );
    println!("(flat spectra weaken Bloom filtering: the paper saw 36% singleton");
    println!(" k-mers on the wetlands data vs 95% on human)");

    // Per-species recovery vs abundance.
    println!("\n--- per-species genome recovery (k-mer completeness) ---");
    let mut rows: Vec<(String, usize, f64)> = Vec::new();
    for g in &dataset.genomes {
        let completeness =
            evaluate(&[g.reference()], &assembly.scaffolds.sequences, k).genome_fraction;
        rows.push((g.name.clone(), g.reference_len(), completeness));
    }
    rows.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap());
    println!(
        "{:<14} {:>10} {:>14}",
        "species", "size (bp)", "completeness"
    );
    for (name, len, c) in rows.iter().take(8) {
        println!("{:<14} {:>10} {:>13.1}%", name, len, 100.0 * c);
    }
    println!("   ...");
    for (name, len, c) in rows.iter().skip(rows.len().saturating_sub(4)) {
        println!("{:<14} {:>10} {:>13.1}%", name, len, 100.0 * c);
    }
    let recovered = rows.iter().filter(|r| r.2 > 0.5).count();
    println!(
        "\n{recovered}/{species} species >50% recovered; the rest are low-abundance \
         (under-sampled), as in real soil metagenomes"
    );
}
