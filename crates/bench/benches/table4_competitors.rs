//! §5.6: HipMer vs competing parallel de novo assemblers at 960 cores.
//!
//! Paper's numbers: Ray needed 10h46m end-to-end on human at 960 cores
//! (≈13× slower than HipMer); ABySS took 13h26m just to finish contig
//! generation (≥16× slower), with scaffolding not distributed at all; the
//! original Meraculous needed 23.8 hours (≈170× slower than HipMer at
//! 15,360 cores). The baselines here run the same real assembly under
//! each competitor's execution model (see `hipmer-baselines`).

use hipmer::PipelineConfig;
use hipmer_baselines::{abyss_like, hipmer_reference, ray_like, serial_meraculous};
use hipmer_bench::{banner, scaled};
use hipmer_readsim::human_like_dataset;

fn main() {
    banner(
        "Section 5.6",
        "competing assemblers on the human-like dataset (paper: 960 cores)",
    );
    let dataset = human_like_dataset(scaled(300_000), 14.0, true, 90_001);
    let reads = dataset.all_reads();
    let ranges = dataset.lib_ranges();
    let cfg = PipelineConfig::new(31);
    // Paper compares at 960 cores; concurrency matched to our data volume.
    let ranks = 240;

    let rows = vec![
        hipmer_reference(ranks, &reads, &ranges, &cfg),
        ray_like(ranks, &reads, &ranges, &cfg),
        abyss_like(ranks, &reads, &ranges, &cfg),
        serial_meraculous(&reads, &ranges, &cfg),
    ];
    let hipmer_total = rows[0].total();

    println!(
        "\n{:<42} {:>12} {:>10} {:>14} {:>9}",
        "assembler", "total (s)", "vs HipMer", "scaffold (s)", "N50"
    );
    for r in &rows {
        println!(
            "{:<42} {:>12.3} {:>9.1}x {:>14.3} {:>9}",
            r.name,
            r.total(),
            r.total() / hipmer_total,
            r.times.scaffolding(),
            r.scaffold_n50
        );
    }
    println!("\npaper: Ray ~13x slower, ABySS >=16x slower (contig gen only; serial");
    println!("scaffolding), original Meraculous ~170x slower than HipMer@15K.");
}
