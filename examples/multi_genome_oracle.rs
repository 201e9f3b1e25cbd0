//! The communication-avoiding use case of §3.2: assembling *multiple
//! individuals of the same species* (or sweeping k on one individual)
//! with an oracle partitioning function built from the first assembly.
//!
//! ```text
//! cargo run --release --example multi_genome_oracle
//! ```
//!
//! Humans differ by only 0.1–0.4% of base pairs, so the contigs of a
//! first individual predict which k-mers co-travel in every other
//! individual's de Bruijn graph. The oracle maps each contig's k-mers to
//! one rank; traversal lookups then stay local/on-node instead of
//! hammering the network.

use hipmer_contig::{build_graph, build_oracle, build_oracle_for_k, traverse_graph, ContigConfig};
use hipmer_kanalysis::{analyze_kmers, KmerAnalysisConfig};
use hipmer_pgas::{CostModel, Team, Topology};
use hipmer_readsim::{
    apply_snps, human_like_dataset, simulate_library, ErrorModel, Genome, Library,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    let k = 31;
    let genome_len = 150_000;
    // Concurrency matched to the genome: oracle balance needs contigs to
    // outnumber ranks (the paper's human assembly has millions of contigs
    // on thousands of cores; a 150 kbp genome has hundreds).
    let ranks = 48;
    let topo = Topology::edison(ranks);
    let team = Team::new(topo);
    let model = CostModel::edison();

    // Individual 1: the draft assembly the oracle is built from.
    println!("assembling individual 1 (draft)...");
    let d1 = human_like_dataset(genome_len, 14.0, false, 11);
    let reads1 = d1.all_reads();
    let (spectrum1, _) = analyze_kmers(&team, &reads1, &KmerAnalysisConfig::new(k));
    let cfg = ContigConfig::default();
    let (graph1, _) = build_graph(&team, &spectrum1, None);
    let (contigs1, t1) = traverse_graph(&team, &graph1, &cfg);
    println!(
        "  {} contigs, N50 {}, traversal {:.4} s ({:.1}% off-node lookups)",
        contigs1.len(),
        contigs1.n50(),
        t1.modeled(&model).total(),
        100.0 * t1.offnode_fraction()
    );

    // Build the oracle from those contigs (offline, off the critical path).
    let oracle = Arc::new(build_oracle(
        &contigs1,
        &topo,
        (genome_len * 4).next_power_of_two(),
    ));
    println!(
        "oracle: {} KB replicated per rank, {} collisions",
        oracle.memory_bytes() / 1024,
        oracle.collisions()
    );

    // Individuals 2..4: same species, 0.1-0.4% SNPs each.
    let mut rng = StdRng::seed_from_u64(12);
    for (i, rate) in [(2, 0.001), (3, 0.002), (4, 0.004)] {
        // Each individual is diploid, sharing ~99.8% of both haplotypes
        // with the draft individual.
        let (ha, snps_a) = apply_snps(&d1.genomes[0].haplotypes[0], rate, &mut rng);
        let (hb, snps_b) = apply_snps(&d1.genomes[0].haplotypes[1], rate, &mut rng);
        let snps = snps_a + snps_b;
        let g = Genome {
            name: format!("individual-{i}"),
            haplotypes: vec![ha, hb],
        };
        let reads = simulate_library(&g, &Library::short_insert(14.0), &ErrorModel::perfect(), i);
        let (spectrum, _) = analyze_kmers(&team, &reads, &KmerAnalysisConfig::new(k));

        // Without the oracle.
        let (graph_a, _) = build_graph(&team, &spectrum, None);
        let (set_a, trav_a) = traverse_graph(&team, &graph_a, &cfg);
        // With the oracle from individual 1.
        let (graph_b, _) = build_graph(&team, &spectrum, Some(oracle.clone()));
        let (set_b, trav_b) = traverse_graph(&team, &graph_b, &cfg);

        assert_eq!(
            set_a.contigs.iter().map(|c| &c.seq).collect::<Vec<_>>(),
            set_b.contigs.iter().map(|c| &c.seq).collect::<Vec<_>>(),
            "oracle must not change the assembly"
        );
        let ta = trav_a.modeled(&model).total();
        let tb = trav_b.modeled(&model).total();
        println!(
            "individual {i} ({snps} SNPs): traversal {:.4} s -> {:.4} s with oracle \
             ({:.1}x; off-node {:.1}% -> {:.1}%)",
            ta,
            tb,
            ta / tb,
            100.0 * trav_a.offnode_fraction(),
            100.0 * trav_b.offnode_fraction()
        );
    }
    println!("\n(the oracle was built once from individual 1 and reused unchanged)");

    // Second use case (§3.2): sweeping k on ONE individual. The draft
    // assembly at k=31 seeds an oracle for a k=41 assembly — different
    // k-mers entirely, but extracted from the same draft contigs.
    println!("\n--- k-sweep: oracle from the k={k} draft, applied at k=41 ---");
    let k2 = 41;
    let (spectrum_k2, _) = analyze_kmers(&team, &reads1, &KmerAnalysisConfig::new(k2));
    let cfg2 = ContigConfig::default();
    let (graph_a, _) = build_graph(&team, &spectrum_k2, None);
    let (set_a, trav_a) = traverse_graph(&team, &graph_a, &cfg2);
    let oracle_k2 = Arc::new(build_oracle_for_k(
        &contigs1,
        &topo,
        (genome_len * 4).next_power_of_two(),
        k2,
    ));
    let (graph_b, _) = build_graph(&team, &spectrum_k2, Some(oracle_k2));
    let (set_b, trav_b) = traverse_graph(&team, &graph_b, &cfg2);
    assert_eq!(
        set_a.contigs.iter().map(|c| &c.seq).collect::<Vec<_>>(),
        set_b.contigs.iter().map(|c| &c.seq).collect::<Vec<_>>()
    );
    let ta = trav_a.modeled(&model).total();
    let tb = trav_b.modeled(&model).total();
    println!(
        "k=41 traversal: {:.4} s -> {:.4} s with the k=31-derived oracle          ({:.1}x; off-node {:.1}% -> {:.1}%)",
        ta,
        tb,
        ta / tb,
        100.0 * trav_a.offnode_fraction(),
        100.0 * trav_b.offnode_fraction()
    );
}
