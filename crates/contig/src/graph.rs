//! De Bruijn graph construction in a distributed hash table.
//!
//! [`build_graph`] is where vertex ownership is decided, once: the node
//! table is built either by the oracle ([`OracleVector::table`]) or by the
//! run's partition scheme ([`PartitionScheme::table`]), and the traversal reads the
//! consequence — whether walks stop at ownership boundaries — from
//! [`DebruijnGraph::stop_foreign`] instead of asking the table how it
//! routes.

use hipmer_dna::{ExtensionPair, Kmer, KmerCodec};
use hipmer_kanalysis::KmerSpectrum;
use hipmer_pgas::{DistHashMap, OracleVector, PartitionScheme, PhaseReport, Team};
use std::sync::Arc;

/// A graph vertex: one UU k-mer with its unique extensions.
#[derive(Clone, Copy, Debug)]
pub struct GraphNode {
    /// Extension decision in canonical orientation (always `is_uu()` for
    /// vertices admitted to the graph).
    pub exts: ExtensionPair,
    /// Exact k-mer count, carried along for contig depth.
    pub count: u32,
    /// Claim flag for the traversal's lightweight synchronization: set
    /// when a subcontig has consumed this vertex (also used as the
    /// visited mark by the endpoint-walk and cycle passes).
    pub visited: bool,
}

/// The distributed de Bruijn graph.
pub struct DebruijnGraph {
    /// Canonical UU k-mer → node.
    pub nodes: DistHashMap<Kmer, GraphNode>,
    /// K-mer codec.
    pub codec: KmerCodec,
    /// Whether claim walks stop at ownership boundaries (see
    /// `traverse::step_claim`). Set when the node table co-locates adjacent
    /// k-mers by minimizer, so each rank claims its own runs locally; unset
    /// under uniform hashing (nothing to exploit) and under an oracle (whose
    /// owner already follows whole contigs, so a walk that crosses ranks is
    /// a collision to walk through, not a run boundary).
    pub stop_foreign: bool,
}

/// Build the graph from a finished k-mer spectrum. Vertices are owned as
/// `oracle` says when one is given (the communication-avoiding traversal
/// of §3.2), otherwise as `partition` says. An oracle supersedes the
/// partition scheme: it already encodes a (stronger, contig-exact) locality
/// decision per k-mer, so a minimizer layer under it would only re-home the
/// k-mers the oracle deliberately grouped.
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
    partition: PartitionScheme,
) -> (DebruijnGraph, PhaseReport) {
    let topo = *team.topo();
    let (nodes, label, stop_foreign): (DistHashMap<Kmer, GraphNode>, String, bool) = match oracle {
        Some(oracle) => (oracle.table(topo), "oracle".to_string(), false),
        None => (
            partition.table(topo, spectrum.codec),
            partition.label(spectrum.codec.k()),
            partition != PartitionScheme::Uniform,
        ),
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
                        visited: false,
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
            nodes,
            codec: spectrum.codec,
            stop_foreign,
        },
        report,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipmer_dna::{ExtChoice, ExtVotes};
    use hipmer_kanalysis::KmerEntry;
    use hipmer_pgas::{RankCtx, Topology};

    /// Build a spectrum by hand from (kmer string, left, right) triples.
    fn spectrum_from(
        topo: Topology,
        k: usize,
        entries: &[(&str, ExtChoice, ExtChoice)],
    ) -> KmerSpectrum {
        let codec = KmerCodec::new(k);
        let table = DistHashMap::new(topo);
        let mut ctx = RankCtx::new(0, topo);
        for (s, l, r) in entries {
            let km = codec.pack(s.as_bytes()).unwrap();
            let canon = codec.canonical(km);
            // Re-orient the given (forward-sense) extensions to canonical.
            let fwd = ExtensionPair {
                left: *l,
                right: *r,
            };
            let exts = if canon == km { fwd } else { fwd.flip() };
            table.insert(&mut ctx, canon, KmerEntry { count: 3, exts });
        }
        let _ = ExtVotes::new();
        KmerSpectrum { codec, table }
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
        let (graph, _) = build_graph(&team, &spectrum, None, PartitionScheme::Uniform);
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
        let (graph, _) = build_graph(
            &team,
            &spectrum,
            everything_on(3, 4),
            PartitionScheme::Uniform,
        );
        assert_eq!(graph.nodes.shard_sizes(), vec![0, 0, 0, 3]);
        assert!(!graph.stop_foreign);
    }

    #[test]
    fn oracle_supersedes_the_minimizer_partitioner() {
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
        let part = PartitionScheme::Minimizer;
        // No oracle: the partitioner decides owners, and minimizer runs
        // are worth stopping at.
        let (graph, report) = build_graph(&team, &spectrum, None, part);
        assert!(graph.stop_foreign);
        assert_eq!(report.placement.as_deref(), Some("minimizer(w=1,m=3)"));
        let by_minimizer: DistHashMap<Kmer, GraphNode> = part.table(topo, graph.codec);
        for (km, _) in graph.nodes.snapshot_entries() {
            assert_eq!(graph.nodes.owner(&km), by_minimizer.owner(&km));
        }
        // An oracle supersedes it — owners, label, and walks that do NOT
        // stop at ownership boundaries even though the run's partition
        // scheme is minimizer.
        let (graph, report) = build_graph(&team, &spectrum, everything_on(1, 4), part);
        assert!(!graph.stop_foreign);
        assert_eq!(report.placement.as_deref(), Some("oracle"));
        assert_eq!(graph.nodes.shard_sizes(), vec![0, 3, 0, 0]);
        // Uniform hashing has no runs to stop at either.
        let (graph, _) = build_graph(&team, &spectrum, None, PartitionScheme::Uniform);
        assert!(!graph.stop_foreign);
    }
}
