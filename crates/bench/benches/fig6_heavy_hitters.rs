//! Figure 6: strong scaling of k-mer analysis on the wheat dataset, with
//! and without the heavy-hitter optimization (§5.1).
//!
//! Paper's observations to reproduce in shape:
//! * the heavy-hitters run beats the default at every concurrency, and
//!   the gap grows with scale (2.4× at 15,360 cores);
//! * the default's communication share explodes (23% → 68%) while the
//!   optimized version stays modest (16% → 22%);
//! * I/O is flat across the sweep (Lustre saturated by 960 cores), which
//!   limits scaling at the top end.

use hipmer_bench::{banner, efficiency, fast, model, scaled};
use hipmer_kanalysis::{analyze_kmers, KmerAnalysisConfig};
use hipmer_pgas::{CommStats, PhaseReport, Team, Topology};
use hipmer_readsim::wheat_like_dataset;

fn kmer_analysis_seconds(reports: &[PhaseReport], io_bytes: u64, ranks: usize) -> (f64, f64) {
    let m = model();
    let mut compute_comm = 0.0;
    for r in reports {
        compute_comm += r.modeled(&m).total();
    }
    // The FASTQ read the paper folds into these runs: flat beyond
    // saturation.
    let topo = Topology::edison(ranks);
    let per = io_bytes / ranks as u64;
    let io_stats: Vec<CommStats> = (0..ranks)
        .map(|_| CommStats {
            io_read_bytes: per,
            ..CommStats::default()
        })
        .collect();
    let io = m.io_seconds(&topo, &io_stats);
    (compute_comm, io)
}

fn main() {
    banner(
        "Figure 6",
        "k-mer analysis strong scaling on wheat-like data: Default vs Heavy Hitters",
    );
    let genome_len = scaled(1_000_000);
    let dataset = wheat_like_dataset(genome_len, 12.0, true, 4242);
    let reads = dataset.all_reads();
    let read_bytes: u64 = 2 * dataset.total_read_bases() as u64; // seq + qual
    println!(
        "wheat-like genome: {} bp, reads: {} ({} Mbase)",
        genome_len,
        reads.len(),
        dataset.total_read_bases() / 1_000_000
    );
    println!(
        "\n{:>7} {:>14} {:>14} {:>9} {:>12} {:>12} {:>8}",
        "cores", "default (s)", "heavy-hit (s)", "speedup", "comm% dflt", "comm% hh", "io (s)"
    );

    // Concurrency sweep scaled to keep items-per-rank in the paper's
    // regime (the paper runs ~0.5 Gbase/core on wheat; at our genome size
    // the same ratio lands at tens-to-hundreds of ranks). EXPERIMENTS.md
    // documents the mapping.
    let sweep: Vec<usize> = if fast() {
        vec![48, 192]
    } else {
        vec![48, 96, 192, 384, 768]
    };
    let mut base: Option<((usize, f64), (usize, f64))> = None;
    for ranks in sweep {
        let team = Team::new(Topology::edison(ranks));
        let mut results = Vec::new();
        let mut comm_fracs = Vec::new();
        for use_hh in [false, true] {
            let mut cfg = KmerAnalysisConfig::new(31);
            cfg.use_heavy_hitters = use_hh;
            // Paper uses theta = 32,000 against 330G 51-mers; scaled to our
            // k-mer volume (and well inside the paper's 1K-64K
            // insensitivity sweep, reproduced in the ablations bench).
            cfg.theta = 4096;
            let (spectrum, reports) = analyze_kmers(&team, &reads, &cfg);
            let (secs, io) = kmer_analysis_seconds(&reports, read_bytes, ranks);
            // Communication share: priced comm seconds / total.
            let m = model();
            let comm: f64 = reports
                .iter()
                .map(|r| {
                    let t = r.modeled(&m);
                    let mut no_comm = r.clone();
                    for s in no_comm.stats.iter_mut() {
                        s.onnode_msgs = 0;
                        s.offnode_msgs = 0;
                        s.onnode_bytes = 0;
                        s.offnode_bytes = 0;
                        s.service_ops = 0;
                    }
                    t.total() - no_comm.modeled(&m).total()
                })
                .sum();
            comm_fracs.push(comm / (secs + io));
            results.push((secs + io, spectrum.distinct()));
            let _ = io;
        }
        let (t_default, d1) = results[0];
        let (t_hh, d2) = results[1];
        assert_eq!(d1, d2, "optimization must not change the spectrum");
        let (_, io) = kmer_analysis_seconds(&[], read_bytes, ranks);
        if base.is_none() {
            base = Some(((ranks, t_default), (ranks, t_hh)));
        }
        println!(
            "{:>7} {:>14.3} {:>14.3} {:>8.2}x {:>11.1}% {:>11.1}% {:>8.3}",
            ranks,
            t_default,
            t_hh,
            t_default / t_hh,
            100.0 * comm_fracs[0],
            100.0 * comm_fracs[1],
            io
        );
    }
    let _ = base.map(|(bd, _)| efficiency(bd, bd));
    println!(
        "\npaper: heavy hitters 2.4x at 15,360 cores; default comm 23%->68%, optimized 16%->22%."
    );
}
