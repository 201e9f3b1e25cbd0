//! Figure 7: strong scaling of scaffolding on human-like (left) and
//! wheat-like (right) data (§5.3).
//!
//! Decomposition per concurrency: merAligner / gap closing / remaining
//! scaffolding modules / overall. Shapes to reproduce:
//! * merAligner is the most expensive module and scales best;
//! * gap closing is I/O-and-latency bound and scales worst;
//! * wheat's "rest scaffolding" share is larger than human's (more
//!   fragmented contigs, and four scaffolding rounds with a relatively
//!   larger serial ordering/orientation component).

use hipmer::StageTimes;
use hipmer_bench::{banner, concurrencies, efficiency, model, scaled};
use hipmer_contig::{generate_contigs, ContigConfig};
use hipmer_kanalysis::{analyze_kmers, KmerAnalysisConfig};
use hipmer_pgas::{Team, Topology};
use hipmer_readsim::{human_like_dataset, wheat_scaffolding_dataset, Dataset};
use hipmer_scaffold::{scaffold_pipeline, ScaffoldConfig};

fn run(dataset: &Dataset, rounds: usize, label: &str) {
    let k = 31;
    let reads = dataset.all_reads();
    let ranges = dataset.lib_ranges();
    println!(
        "\n--- {label}: {} bp genome, {} reads, {} libraries, {} scaffolding round(s) ---",
        dataset.total_genome_bases(),
        reads.len(),
        dataset.libraries.len(),
        rounds
    );
    println!(
        "{:>7} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "cores", "merAligner", "gap-close", "rest", "overall", "eff"
    );
    let mut base: Option<(usize, f64)> = None;
    for ranks in concurrencies() {
        let team = Team::new(Topology::edison(ranks));
        let (spectrum, _) = analyze_kmers(&team, &reads, &KmerAnalysisConfig::new(k));
        let (contigs, _) = generate_contigs(&team, &spectrum, &ContigConfig::default());
        let mut cfg = ScaffoldConfig::new(15);
        cfg.rounds = rounds;
        let out = scaffold_pipeline(&team, &spectrum, &contigs, &reads, &ranges, &cfg);
        let mut report = hipmer_pgas::PipelineReport::new();
        for p in out.reports {
            report.push(p);
        }
        let t = StageTimes::from_report(&report, &model());
        let overall = t.scaffolding();
        let eff = match base {
            None => {
                base = Some((ranks, overall));
                1.0
            }
            Some(b) => efficiency(b, (ranks, overall)),
        };
        println!(
            "{:>7} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>8.2}",
            ranks, t.meraligner, t.gap_closing, t.rest_scaffolding, overall, eff
        );
    }
}

fn main() {
    banner(
        "Figure 7",
        "scaffolding strong scaling: human-like (left) and wheat-like (right)",
    );
    let human = human_like_dataset(scaled(200_000), 14.0, true, 70_001);
    run(&human, 1, "human-like");
    let wheat = wheat_scaffolding_dataset(scaled(150_000), 12.0, true, 70_002);
    run(&wheat, 4, "wheat-like");
    println!("\npaper: human efficiencies 0.48 @7680 / 0.33 @15360 (vs 480);");
    println!("       wheat 0.61 / 0.37 (vs 960); merAligner scales best (0.64 @15360),");
    println!("       gap closing worst (0.19 @15360); wheat rest-share larger than human's.");
}
