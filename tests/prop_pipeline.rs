//! Property-based integration tests over the pipeline's invariants.

use hipmer::{assemble, evaluate, PipelineConfig};
use hipmer_pgas::{Team, Topology};
use hipmer_readsim::{human_like, simulate_library, ErrorModel, Genome, Library};
use proptest::prelude::*;

/// Small but structurally varied assemblies must always satisfy the core
/// invariants, whatever the seed/shape.
fn assembly_invariants(genome_len: usize, coverage: f64, seed: u64, ranks: usize) {
    let genome = human_like(genome_len, seed);
    let reads = simulate_library(
        &genome,
        &Library::short_insert(coverage),
        &ErrorModel::perfect(),
        seed ^ 0xabcd,
    );
    let team = Team::new(Topology::new(ranks, 4));
    let cfg = PipelineConfig::new(21);
    let assembly = assemble(&team, &reads, std::slice::from_ref(&(0..reads.len())), &cfg);

    // 1. Scaffold sequences contain only ACGTN.
    for s in &assembly.scaffolds.sequences {
        assert!(hipmer_dna::validate_dna(s).is_ok());
    }
    // 2. Every scaffold's non-N k-mers come from the genome (no invented
    //    sequence with error-free reads).
    let haplotypes = [&genome.haplotypes[0][..], &genome.haplotypes[1][..]];
    let precision = evaluate(&haplotypes, &assembly.scaffolds.sequences, 21).precision;
    assert!(
        precision > 0.999,
        "seed {seed}: precision {precision} (invented sequence!)"
    );
    // 3. Stats agree with the structures.
    assert_eq!(
        assembly.stats.n_scaffolds,
        assembly.scaffolds.sequences.len()
    );
    assert_eq!(
        assembly.stats.scaffold_bases,
        assembly.scaffolds.total_bases()
    );
    // 4. Every phase charged at least one unit of work somewhere.
    for phase in &assembly.report.phases {
        let t = phase.totals();
        assert!(
            t.compute_ops + t.total_accesses() + t.barriers > 0,
            "phase {} did nothing",
            phase.name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn assembly_invariants_hold(
        seed in 0u64..1000,
        len in 8_000usize..20_000,
        ranks in 1usize..12,
    ) {
        assembly_invariants(len, 16.0, seed, ranks);
    }

    #[test]
    fn scaffold_output_is_topology_independent(
        seed in 0u64..100,
        ranks_a in 1usize..10,
        ranks_b in 10usize..32,
    ) {
        let genome = Genome::haploid(
            "g",
            hipmer_readsim::random_genome(
                10_000,
                0.45,
                &mut rand::SeedableRng::seed_from_u64(seed),
            ),
        );
        let reads = simulate_library(
            &genome,
            &Library::short_insert(16.0),
            &ErrorModel::perfect(),
            seed,
        );
        let cfg = PipelineConfig::new(21);
        let run = |ranks: usize| {
            let team = Team::new(Topology::new(ranks, 4));
            assemble(&team, &reads, std::slice::from_ref(&(0..reads.len())), &cfg).scaffolds.sequences
        };
        prop_assert_eq!(run(ranks_a), run(ranks_b));
    }
}
