//! Property tests for contig generation: the traversal must reconstruct
//! arbitrary clean genomes exactly, in every mode, at any concurrency.

use hipmer_contig::{generate_contigs, ContigConfig, TraversalMode};
use hipmer_dna::{revcomp, BASES};
use hipmer_kanalysis::{analyze_kmers, KmerAnalysisConfig};
use hipmer_pgas::{Team, Topology};
use hipmer_seqio::SeqRecord;
use proptest::prelude::*;

/// Tile a genome with overlapping error-free reads at depth ≥ 2.
fn tile(genome: &[u8], read_len: usize) -> Vec<SeqRecord> {
    let mut out = Vec::new();
    for offset in [0usize, read_len / 3, 2 * read_len / 3] {
        let mut pos = offset;
        loop {
            let end = (pos + read_len).min(genome.len());
            if end - pos >= 25 {
                out.push(SeqRecord::with_uniform_quality(
                    format!("r{pos}"),
                    genome[pos..end].to_vec(),
                    35,
                ));
            }
            if end == genome.len() {
                break;
            }
            pos += read_len / 2;
        }
    }
    // Second copy for the count threshold.
    let copy: Vec<SeqRecord> = out
        .iter()
        .map(|r| SeqRecord::with_uniform_quality(format!("{}x", r.id), r.seq.clone(), 35))
        .collect();
    out.extend(copy);
    out
}

fn genome_strategy() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(prop::sample::select(&BASES[..]), 300..1500)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn contigs_are_genome_substrings_and_cover_interior(
        genome in genome_strategy(),
        ranks in 1usize..10,
        mode_pick in 0usize..2,
    ) {
        let k = 21;
        let reads = tile(&genome, 80);
        let team = Team::new(Topology::new(ranks, 4));
        let (spectrum, _) = analyze_kmers(&team, &reads, &KmerAnalysisConfig::new(k));
        let cfg = ContigConfig {
            mode: [TraversalMode::Cooperative, TraversalMode::EndpointWalk][mode_pick],
            walk_cap: 64, // exercise subcontig chaining
            ..ContigConfig::default()
        };
        let (set, _) = generate_contigs(&team, &spectrum, &cfg);

        // Every contig is an exact substring of the genome or its reverse
        // complement (no chimeras, no invented bases).
        let rc = revcomp(&genome);
        for c in &set.contigs {
            let hit = genome.windows(c.len()).any(|w| w == &c.seq[..])
                || rc.windows(c.len()).any(|w| w == &c.seq[..]);
            prop_assert!(hit, "contig of length {} not in genome", c.len());
        }
        // Coverage: total assembled bases reach most of the genome
        // (boundary k-mers fall below the count threshold).
        if genome.len() > 500 {
            prop_assert!(
                set.total_bases() + 300 >= genome.len(),
                "assembled {} of {}",
                set.total_bases(),
                genome.len()
            );
        }
    }

    #[test]
    fn both_modes_agree(genome in genome_strategy(), ranks in 1usize..8) {
        let k = 21;
        let reads = tile(&genome, 80);
        let team = Team::new(Topology::new(ranks, 4));
        let (spectrum, _) = analyze_kmers(&team, &reads, &KmerAnalysisConfig::new(k));
        let mut sets = Vec::new();
        for mode in [TraversalMode::Cooperative, TraversalMode::EndpointWalk] {
            let cfg = ContigConfig {
                mode,
                walk_cap: 50,
                ..ContigConfig::default()
            };
            let (set, _) = generate_contigs(&team, &spectrum, &cfg);
            sets.push(
                set.contigs
                    .into_iter()
                    .map(|c| c.seq)
                    .collect::<Vec<_>>(),
            );
        }
        prop_assert_eq!(&sets[0], &sets[1]);
    }
}
