//! Figure 8: end-to-end strong scaling on human-like (left) and
//! wheat-like (right) data (§5.5).
//!
//! Decomposition: k-mer analysis / contig generation / scaffolding /
//! overall. Shapes to reproduce:
//! * overall speedup grows with concurrency (paper: 11.9× at 15,360 vs
//!   480 for human; 5.9× vs 960 for wheat);
//! * scaffolding dominates (68% at 960 cores for human), k-mer analysis
//!   second (28%), contig generation least (4%).

use hipmer::{assemble, PipelineConfig, StageTimes};
use hipmer_bench::{banner, concurrencies, model, scaled};
use hipmer_pgas::{Team, Topology};
use hipmer_readsim::{human_like_dataset, wheat_scaffolding_dataset, Dataset};

fn run(dataset: &Dataset, cfg: &PipelineConfig, label: &str) {
    let reads = dataset.all_reads();
    let ranges = dataset.lib_ranges();
    println!(
        "\n--- {label}: {} bp genome, {} reads ---",
        dataset.total_genome_bases(),
        reads.len()
    );
    println!(
        "{:>7} {:>10} {:>10} {:>12} {:>10} {:>9} {:>9}",
        "cores", "kmer", "contig", "scaffold", "overall", "speedup", "N50"
    );
    let mut base: Option<f64> = None;
    for ranks in concurrencies() {
        let team = Team::new(Topology::edison(ranks));
        let assembly = assemble(&team, &reads, &ranges, cfg);
        let t = StageTimes::from_report(&assembly.report, &model());
        let overall = t.total();
        let speedup = match base {
            None => {
                base = Some(overall);
                1.0
            }
            Some(b) => b / overall,
        };
        println!(
            "{:>7} {:>10.3} {:>10.3} {:>12.3} {:>10.3} {:>8.1}x {:>9}",
            ranks,
            t.kmer_analysis,
            t.contig_generation,
            t.scaffolding(),
            overall,
            speedup,
            assembly.stats.scaffold_n50
        );
    }
}

fn main() {
    banner(
        "Figure 8",
        "end-to-end strong scaling: human-like (left) and wheat-like (right)",
    );
    let human = human_like_dataset(scaled(200_000), 14.0, true, 80_001);
    run(&human, &PipelineConfig::new(31), "human-like");
    let wheat = wheat_scaffolding_dataset(scaled(150_000), 12.0, true, 80_002);
    run(&wheat, &PipelineConfig::wheat_preset(31), "wheat-like");
    println!("\npaper: human 11.9x @15360 vs 480 (8.4 minutes end-to-end);");
    println!("       wheat 5.9x @15360 vs 960 (39 minutes); at 960 cores human spends");
    println!("       68% in scaffolding, 28% in k-mer analysis, 4% in contig generation.");
}
