//! De Bruijn graph construction in a distributed hash table.
//!
//! [`build_graph`] is where vertex ownership is decided, once: the node
//! table is owned by the oracle ([`OracleVector::table`]) when one is given
//! and by uniform hashing ([`DistHashMap::new`]) otherwise. The table is
//! frozen when the build phase ends; only the vertices' claim flags change
//! after that.

use hipmer_dna::{ExtensionPair, Kmer, KmerCodec};
use hipmer_kanalysis::KmerSpectrum;
use hipmer_pgas::{DistHashMap, FrozenMap, OracleVector, PhaseReport, Team};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// A graph vertex: one UU k-mer with its unique extensions.
#[derive(Debug)]
pub struct GraphNode {
    /// Extension decision in canonical orientation (always `is_uu()` for
    /// vertices admitted to the graph).
    pub exts: ExtensionPair,
    /// Exact k-mer count, carried along for contig depth.
    pub count: u32,
    /// Claim flag for the traversal's lightweight synchronization (§3.2;
    /// a remote atomic in the UPC code): set, once, by the walk that
    /// consumes this vertex (also the visited mark of the endpoint-walk
    /// reference).
    pub visited: AtomicBool,
}

/// The distributed de Bruijn graph.
pub struct DebruijnGraph {
    /// Canonical UU k-mer → node.
    pub nodes: FrozenMap<Kmer, GraphNode>,
    /// K-mer codec.
    pub codec: KmerCodec,
}

/// Build the graph from a finished k-mer spectrum. Vertices are owned as
/// `oracle` says when one is given (the communication-avoiding traversal
/// of §3.2), otherwise by `key_hash % ranks`, as the spectrum's are.
///
/// Only UU k-mers become vertices (§2: "for k-mers where the extensions
/// are \[unique\] in both directions"). Each rank streams its local spectrum
/// shard into the graph table; with matching spectrum→graph ownership this
/// is mostly rank-local, while an oracle reshuffles vertices to their
/// contig's rank (paying the one-time movement the paper folds into graph
/// construction).
pub fn build_graph(
    team: &Team,
    spectrum: &KmerSpectrum,
    oracle: Option<Arc<OracleVector>>,
) -> (DebruijnGraph, PhaseReport) {
    let topo = *team.topo();
    let (nodes, label): (DistHashMap<Kmer, GraphNode>, _) = match oracle {
        Some(oracle) => (oracle.table(topo), "oracle"),
        None => (DistHashMap::new(topo), "uniform"),
    };

    let (_, mut stats) = team.run_named("contig/graph-build", |ctx| {
        let mut uu: Vec<(Kmer, GraphNode)> = Vec::new();
        spectrum.table.fold_local(ctx, (), |(), km, entry| {
            if entry.exts.is_uu() {
                uu.push((
                    *km,
                    GraphNode {
                        exts: entry.exts,
                        count: entry.count,
                        visited: AtomicBool::new(false),
                    },
                ));
            }
        });
        for (km, node) in uu {
            nodes.insert(ctx, km, node);
        }
    });
    nodes.drain_service_into(&mut stats);
    let report = PhaseReport::new("contig/graph-build", topo, stats).with_placement(label);
    (
        DebruijnGraph {
            nodes: nodes.freeze(),
            codec: spectrum.codec,
        },
        report,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipmer_dna::ExtChoice;
    use hipmer_kanalysis::KmerEntry;
    use hipmer_pgas::{RankCtx, Topology};

    /// Build a spectrum by hand from (kmer string, left, right) triples.
    fn spectrum_from(
        topo: Topology,
        k: usize,
        entries: &[(&str, ExtChoice, ExtChoice)],
    ) -> KmerSpectrum {
        let codec = KmerCodec::new(k);
        let entries = entries.iter().map(|&(s, left, right)| {
            let km = codec.pack(s.as_bytes()).unwrap();
            let canon = codec.canonical(km);
            // Re-orient the given (forward-sense) extensions to canonical.
            let fwd = ExtensionPair { left, right };
            let exts = if canon == km { fwd } else { fwd.flip() };
            (canon, KmerEntry { count: 3, exts })
        });
        KmerSpectrum::from_entries(topo, k, entries)
    }

    #[test]
    fn only_uu_kmers_become_vertices() {
        let topo = Topology::new(2, 2);
        let team = Team::new(topo);
        let spectrum = spectrum_from(
            topo,
            3,
            &[
                // Distinct canonical 3-mers (note CGT canonicalizes to ACG,
                // so it must not be reused here).
                ("ACG", ExtChoice::Unique(3), ExtChoice::Unique(0)), // UU
                ("CCG", ExtChoice::Fork, ExtChoice::Unique(1)),      // FU
                ("GTA", ExtChoice::Unique(2), ExtChoice::None),      // UX
            ],
        );
        let (graph, _) = build_graph(&team, &spectrum, None);
        assert_eq!(graph.nodes.len(), 1);
        let mut ctx = RankCtx::new(0, topo);
        let codec = KmerCodec::new(3);
        let acg = codec.canonical(codec.pack(b"ACG").unwrap());
        assert!(graph.nodes.get(&mut ctx, &acg).is_some());
    }

    /// A one-slot oracle: every k-mer is owned by `rank`.
    fn everything_on(rank: usize, ranks: usize) -> Option<Arc<OracleVector>> {
        let mut oracle = OracleVector::new(1, ranks);
        oracle.assign(0, rank);
        Some(Arc::new(oracle))
    }

    #[test]
    fn oracle_moves_vertices() {
        let topo = Topology::new(4, 2);
        let team = Team::new(topo);
        let spectrum = spectrum_from(
            topo,
            3,
            &[
                ("ACG", ExtChoice::Unique(3), ExtChoice::Unique(0)),
                ("CCG", ExtChoice::Unique(3), ExtChoice::Unique(0)),
                ("GCG", ExtChoice::Unique(3), ExtChoice::Unique(0)),
            ],
        );
        let (graph, report) = build_graph(&team, &spectrum, everything_on(3, 4));
        assert_eq!(graph.nodes.shard_sizes(), vec![0, 0, 0, 3]);
        assert_eq!(report.placement.as_deref(), Some("oracle"));
        let (_, report) = build_graph(&team, &spectrum, None);
        assert_eq!(report.placement.as_deref(), Some("uniform"));
    }
}
