//! Offline construction of the oracle partitioning function (§3.2).
//!
//! Given a finished contig set, assign each contig a rank cyclically (load
//! balance), then claim the oracle-vector slot of every k-mer in the
//! contig for that rank. Collisions leave the first writer in place — the
//! affected k-mer will live on a "wrong" rank and cost one remote lookup
//! during traversal, which is why a larger vector (more memory) means less
//! communication. The build is off the critical path ("has to be completed
//! only once") and is reused across genomes of the same species or across
//! k-sweeps of one genome.

use crate::contig_set::ContigSet;
use hipmer_pgas::{OracleVector, Topology};

/// Build an oracle vector with `slots` entries from `contigs`, targeting
/// `topo.ranks()` owners, keyed by the contigs' own k.
pub fn build_oracle(contigs: &ContigSet, topo: &Topology, slots: usize) -> OracleVector {
    build_oracle_for_k(contigs, topo, slots, contigs.codec.k())
}

/// As [`build_oracle`], but extract `k`-mers of a *different* k from the
/// contig sequences — the paper's second use case (§3.2): a draft
/// assembly at one k seeds the oracle for assemblies that sweep other k
/// values ("the new set of contigs will have a high degree of similarity
/// with the first draft assembly").
pub fn build_oracle_for_k(
    contigs: &ContigSet,
    topo: &Topology,
    slots: usize,
    k: usize,
) -> OracleVector {
    let mut oracle = OracleVector::new(slots, topo.ranks());
    let codec = hipmer_dna::KmerCodec::new(k);
    let codec = &codec;
    // Step 1: contig-to-rank assignment. The paper assigns cyclically "to
    // ensure load balance", which works when contigs vastly outnumber
    // ranks; at scaled-down contig counts we realize the same intent with
    // longest-processing-time assignment (contigs are already sorted
    // longest-first): each contig goes to the currently lightest rank, so
    // per-rank k-mer loads stay even. Deterministic tie-break by rank id.
    let mut heap: std::collections::BinaryHeap<(
        std::cmp::Reverse<usize>,
        std::cmp::Reverse<usize>,
    )> = (0..topo.ranks())
        .map(|r| (std::cmp::Reverse(0usize), std::cmp::Reverse(r)))
        .collect();
    for contig in contigs.contigs.iter() {
        let (std::cmp::Reverse(load), std::cmp::Reverse(rank)) =
            heap.pop().expect("at least one rank");
        // Step 2: claim every k-mer's slot for that rank.
        for (_, _, canon) in codec.canonical_kmers(&contig.seq) {
            oracle.assign(OracleVector::kmer_hash(&canon), rank);
        }
        heap.push((
            std::cmp::Reverse(load + contig.len()),
            std::cmp::Reverse(rank),
        ));
    }
    oracle
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipmer_dna::KmerCodec;

    fn lcg_genome(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(99);
                b"ACGT"[(x >> 60) as usize % 4]
            })
            .collect()
    }

    fn contig_set(n: usize, len: usize) -> ContigSet {
        let seqs = (0..n).map(|i| lcg_genome(len, i as u64 + 1)).collect();
        ContigSet::from_sequences(KmerCodec::new(21), seqs)
    }

    #[test]
    fn oracle_colocates_contig_kmers() {
        let topo = Topology::new(8, 4);
        let set = contig_set(16, 500);
        // Large vector: negligible collisions.
        let oracle = build_oracle(&set, &topo, 1 << 18);
        let codec = &set.codec;
        for contig in &set.contigs {
            let ranks: Vec<usize> = contig
                .seq
                .windows(21)
                .filter_map(|w| codec.pack(w))
                .map(|km| oracle.owner(OracleVector::kmer_hash(&codec.canonical(km))))
                .collect();
            // Nearly all k-mers of one contig land on one rank; slot
            // collisions with other contigs leak a small fraction.
            let mut per_rank = [0usize; 8];
            for &r in &ranks {
                per_rank[r] += 1;
            }
            let dominant = *per_rank.iter().max().unwrap();
            let frac = dominant as f64 / ranks.len() as f64;
            assert!(
                frac > 0.9,
                "contig {}: only {frac:.2} of k-mers colocated",
                contig.id
            );
        }
    }

    #[test]
    fn cyclic_contig_assignment_balances_ranks() {
        let topo = Topology::new(4, 4);
        let set = contig_set(40, 300);
        let oracle = build_oracle(&set, &topo, 1 << 18);
        // Count slots per rank via sampling the contigs' k-mers.
        let codec = &set.codec;
        let mut per_rank = vec![0usize; 4];
        for contig in &set.contigs {
            if let Some(w) = contig.seq.windows(21).next() {
                let km = codec.canonical(codec.pack(w).unwrap());
                per_rank[oracle.owner(OracleVector::kmer_hash(&km))] += 1;
            }
        }
        let max = *per_rank.iter().max().unwrap();
        let min = *per_rank.iter().min().unwrap();
        assert!(max - min <= 6, "imbalanced contig assignment {per_rank:?}");
    }

    #[test]
    fn smaller_vector_more_collisions() {
        let topo = Topology::new(8, 4);
        let set = contig_set(32, 400);
        let small = build_oracle(&set, &topo, 1 << 10);
        let large = build_oracle(&set, &topo, 1 << 16);
        assert!(
            large.collisions() < small.collisions(),
            "{} !< {}",
            large.collisions(),
            small.collisions()
        );
        assert!(large.memory_bytes() > small.memory_bytes());
    }
}
