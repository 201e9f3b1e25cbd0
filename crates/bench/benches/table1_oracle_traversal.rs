//! Tables 1 & 2: the communication-avoiding de Bruijn graph traversal
//! (§5.2).
//!
//! Scenario exactly as in the paper: assemble one individual, build the
//! oracle partitioning function from its contigs, then assemble a
//! *different individual of the same species* (0.2% SNPs) using (a) no
//! oracle, (b) a small oracle vector ("oracle-1"), (c) a 4× larger vector
//! ("oracle-4"). Report traversal time (Table 1) and the off-node lookup
//! fractions (Table 2).

use hipmer_bench::{banner, fast, model, scaled};
use hipmer_contig::{build_graph, build_oracle, traverse_graph, ContigConfig};
use hipmer_kanalysis::{analyze_kmers, KmerAnalysisConfig};
use hipmer_pgas::{Team, Topology};
use hipmer_readsim::{
    apply_snps, repeat_fragmented, simulate_library, ErrorModel, Genome, Library,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    banner(
        "Tables 1 & 2",
        "communication-avoiding traversal: no-oracle vs oracle-1 vs oracle-4",
    );
    let genome_len = scaled(600_000);
    let k = 31;

    // Individual A: source of the draft assembly and the oracle. The
    // genome is engineered to fragment into thousands of contigs — the
    // paper's human assembly has millions, and the oracle's balance
    // depends on contigs outnumbering ranks (see readsim docs).
    let genome_a = repeat_fragmented(genome_len, 200, 777);
    let reads_a_lib = simulate_library(
        &genome_a,
        &Library::short_insert(14.0),
        &ErrorModel::perfect(),
        776,
    );
    // Individual B: same species, ~0.2% divergence from A's reference.
    let mut rng = StdRng::seed_from_u64(778);
    let (h1, n_snps) = apply_snps(genome_a.reference(), 0.002, &mut rng);
    let genome_b = Genome {
        name: "individual-B".into(),
        haplotypes: vec![h1],
    };
    let reads_b = simulate_library(
        &genome_b,
        &Library::short_insert(14.0),
        &ErrorModel::perfect(),
        779,
    );
    println!(
        "genome: {} bp; individual B differs by {} SNPs ({:.2}%)",
        genome_len,
        n_snps,
        100.0 * n_snps as f64 / genome_len as f64
    );

    // Paper: 480 and 1,920 cores; same 4x contrast at matched data volume.
    let concurrencies = if fast() { vec![120] } else { vec![120, 480] };
    let m = model();

    println!(
        "\n{:>7} {:>12} {:>12} {:>12} {:>10} {:>10}   (Table 1)",
        "cores", "no-oracle", "oracle-1", "oracle-4", "speedup1", "speedup4"
    );
    let mut table2: Vec<(usize, [f64; 3])> = Vec::new();
    for &ranks in &concurrencies {
        let topo = Topology::edison(ranks);
        let team = Team::new(topo);

        // Draft assembly of individual A at this concurrency.
        let (spectrum_a, _) = analyze_kmers(&team, &reads_a_lib, &KmerAnalysisConfig::new(k));
        let cfg = ContigConfig::default();
        let (graph_a, _) = build_graph(&team, &spectrum_a, None);
        let (contigs_a, _) = traverse_graph(&team, &graph_a, &cfg);

        // Oracle vectors from A's contigs. "oracle-4" has 4x the slots
        // (memory <-> collision trade-off). oracle-1 is sized at ~load
        // factor 1 so a substantial fraction of k-mers is displaced, like
        // the paper's 115 MB/thread oracle-1 against 3G k-mers.
        let slots1 = (genome_len / 2).next_power_of_two();
        let oracle1 = Arc::new(build_oracle(&contigs_a, &topo, slots1));
        let oracle4 = Arc::new(build_oracle(&contigs_a, &topo, slots1 * 4));
        println!(
            "# cores={ranks}: oracle-1 {} KB/rank ({} collisions), oracle-4 {} KB/rank ({} collisions)",
            oracle1.memory_bytes() / 1024,
            oracle1.collisions(),
            oracle4.memory_bytes() / 1024,
            oracle4.collisions()
        );

        // K-mer analysis of individual B (shared by all three variants).
        let (spectrum_b, _) = analyze_kmers(&team, &reads_b, &KmerAnalysisConfig::new(k));

        let mut times = [0.0f64; 3];
        let mut offnode = [0.0f64; 3];
        let mut contig_counts = [0usize; 3];
        for (i, oracle) in [None, Some(oracle1.clone()), Some(oracle4.clone())]
            .into_iter()
            .enumerate()
        {
            let (graph, _) = build_graph(&team, &spectrum_b, oracle);
            let (contigs, traversal) = traverse_graph(&team, &graph, &cfg);
            times[i] = traversal.modeled(&m).total();
            offnode[i] = traversal.offnode_fraction();
            contig_counts[i] = contigs.len();
        }
        assert_eq!(contig_counts[0], contig_counts[1]);
        assert_eq!(contig_counts[0], contig_counts[2]);
        println!(
            "{:>7} {:>12.4} {:>12.4} {:>12.4} {:>9.1}x {:>9.1}x",
            ranks,
            times[0],
            times[1],
            times[2],
            times[0] / times[1],
            times[0] / times[2]
        );
        table2.push((ranks, offnode));
    }

    println!(
        "\n{:>7} {:>12} {:>12} {:>12} {:>10} {:>10}   (Table 2)",
        "cores", "no-oracle", "oracle-1", "oracle-4", "reduc-1", "reduc-4"
    );
    for (ranks, f) in table2 {
        println!(
            "{:>7} {:>11.1}% {:>11.1}% {:>11.1}% {:>9.1}% {:>9.1}%",
            ranks,
            100.0 * f[0],
            100.0 * f[1],
            100.0 * f[2],
            100.0 * (1.0 - f[1] / f[0]),
            100.0 * (1.0 - f[2] / f[0])
        );
    }
    println!("\npaper Table 1: speedups 1.4x/2.8x @480, 1.3x/1.9x @1920.");
    println!(
        "paper Table 2: off-node 92.8/54.6/22.8% @480, 97.2/54.5/23.0% @1920; reductions 41-76%."
    );
}
