//! Property tests for contig generation: the traversal must reconstruct
//! arbitrary clean genomes exactly, as does the endpoint-walk reference it
//! is held to, at any concurrency —
//! and the chain walker under it must place every node exactly once.

use hipmer_contig::{
    build_graph, traverse_endpoints, traverse_graph, walk_chains, ContigConfig, ContigEnd,
};
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

type Slot = (usize, ContigEnd);

/// A symmetric link table over `n` nodes: proposals are taken in order and
/// placed when both slots are still free, so the result mixes paths,
/// closed cycles, same-side joins, self-links and isolated nodes.
fn link_table(n: usize, proposals: &[(usize, bool, usize, bool)]) -> Vec<[Option<Slot>; 2]> {
    let end = |right: bool| [ContigEnd::Left, ContigEnd::Right][right as usize];
    let mut table = vec![[None, None]; n];
    for &(a, sa, b, sb) in proposals {
        let (a, b) = ((a % n, end(sa)), (b % n, end(sb)));
        // (A slot joined to itself is no chain edge; `chain.rs` unit-tests it.)
        if a != b && table[a.0][a.1 as usize].is_none() && table[b.0][b.1 as usize].is_none() {
            table[a.0][a.1 as usize] = Some(b);
            table[b.0][b.1 as usize] = Some(a);
        }
    }
    table
}

/// The tie walk `scaffold::ties::order_and_orient` carried before the
/// shared walker existed, kept here as the reference.
fn reference_walk(
    n: usize,
    link: impl Fn(usize, ContigEnd) -> Option<Slot>,
) -> Vec<Vec<(usize, bool)>> {
    let mut used = vec![false; n];
    let mut chains = Vec::new();
    for seed in 0..n {
        if used[seed] {
            continue;
        }
        let mut start = (seed, ContigEnd::Left);
        while let Some(prev) = link(start.0, start.1) {
            if prev.0 == seed || used[prev.0] {
                break;
            }
            start = (prev.0, prev.1.other());
        }
        let mut chain = vec![(start.0, start.1 == ContigEnd::Right)];
        used[start.0] = true;
        let mut cursor = (start.0, start.1.other());
        while let Some(next) = link(cursor.0, cursor.1) {
            if used[next.0] {
                break;
            }
            used[next.0] = true;
            chain.push((next.0, next.1 == ContigEnd::Right));
            cursor = (next.0, next.1.other());
        }
        chains.push(chain);
    }
    chains
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
        endpoint_walk in any::<bool>(),
    ) {
        let k = 21;
        let reads = tile(&genome, 80);
        let team = Team::new(Topology::new(ranks, 4));
        let (spectrum, _) = analyze_kmers(&team, &reads, &KmerAnalysisConfig::new(k));
        let (graph, _) = build_graph(&team, &spectrum, None);
        let cfg = ContigConfig {
            walk_cap: 64, // exercise subcontig chaining
            ..ContigConfig::default()
        };
        let (set, _) = if endpoint_walk {
            traverse_endpoints(&team, &graph)
        } else {
            traverse_graph(&team, &graph, &cfg)
        };

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
        let cfg = ContigConfig {
            walk_cap: 50,
            ..ContigConfig::default()
        };
        let seqs = |set: hipmer_contig::ContigSet| {
            set.contigs.into_iter().map(|c| c.seq).collect::<Vec<_>>()
        };
        // Separate graphs: each traversal claims every vertex it visits.
        let (graph, _) = build_graph(&team, &spectrum, None);
        let cooperative = seqs(traverse_graph(&team, &graph, &cfg).0);
        let (graph, _) = build_graph(&team, &spectrum, None);
        let endpoints = seqs(traverse_endpoints(&team, &graph).0);
        prop_assert_eq!(&cooperative, &endpoints);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn walker_places_every_node_exactly_once(
        n in 1usize..=64,
        proposals in prop::collection::vec(
            (0usize..64, any::<bool>(), 0usize..64, any::<bool>()),
            0..96,
        ),
    ) {
        let table = link_table(n, &proposals);
        let link = |node: usize, side: ContigEnd| table[node][side as usize];
        let chains = walk_chains(n, link);

        let mut seen = vec![0usize; n];
        for &(node, _) in chains.iter().flatten() {
            seen[node] += 1;
        }
        prop_assert_eq!(seen, vec![1usize; n]);

        let facing_left = |(_, reversed): (usize, bool)| ContigEnd::facing_left(reversed);
        for chain in &chains {
            for pair in chain.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                prop_assert_eq!(
                    link(a.0, facing_left(a).other()),
                    Some((b.0, facing_left(b)))
                );
            }
            // Maximal: beyond either tip lies nothing, or (a cycle) the
            // chain's other tip — and a cut cycle ends at its seed.
            let (first, last) = (chain[0], chain[chain.len() - 1]);
            let seed = chain.iter().map(|m| m.0).min().unwrap();
            match link(first.0, facing_left(first)) {
                None => prop_assert_eq!(link(last.0, facing_left(last).other()), None),
                Some(before) => {
                    prop_assert_eq!(before, (last.0, facing_left(last).other()));
                    prop_assert_eq!(last.0, seed);
                }
            }
        }

        // Chains come out in order of their lowest member, the seed.
        let seeds: Vec<usize> = chains
            .iter()
            .map(|c| c.iter().map(|m| m.0).min().unwrap())
            .collect();
        prop_assert!(seeds.windows(2).all(|w| w[0] < w[1]), "seed order {:?}", seeds);

        prop_assert_eq!(chains, reference_walk(n, link));
    }
}
