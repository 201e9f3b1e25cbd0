//! De Bruijn graph construction in a distributed hash table.
//!
//! [`build_graph`] is where vertex ownership is decided, once: the node
//! table is owned by the oracle ([`OracleVector::table`]) when one is given
//! and by uniform hashing ([`DistHashMap::new`]) otherwise. Either way the
//! vertices reach their owners through an [`Exchange`], as every table's
//! entries do, so the frozen table does not depend on the thread count.
//! The table is frozen when the build phase ends; only the vertices' claim
//! flags change after that.

use hipmer_dna::{ExtensionPair, Kmer, KmerCodec};
use hipmer_kanalysis::{KmerEntry, KmerSpectrum};
use hipmer_pgas::{DistHashMap, Exchange, FrozenMap, OracleVector, PhaseReport, Team};
use parking_lot::Mutex;
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
/// partition, one superstep's budget at a time, and posts each vertex to
/// its owner, which applies its mail sources in rank order. With matching
/// spectrum→graph ownership every vertex stays on its rank, while an oracle
/// reshuffles vertices to their contig's rank (paying the one-time movement
/// the paper folds into graph construction).
pub fn build_graph(
    team: &Team,
    spectrum: &KmerSpectrum,
    oracle: Option<Arc<OracleVector>>,
) -> (DebruijnGraph, PhaseReport) {
    let topo = *team.topo();
    let nodes: DistHashMap<Kmer, GraphNode> = match oracle {
        Some(oracle) => oracle.table(topo),
        None => DistHashMap::new(topo),
    };

    // Vertices travel as references into the spectrum, which outlives the
    // pass, and become nodes at their owner: half a node copy's bytes.
    let mail = Exchange::for_table(&nodes);
    // Each rank's partition size and place in it, kept across the
    // supersteps so that no rank collects its vertices first.
    let scans: Vec<Mutex<Option<_>>> = (0..topo.ranks()).map(|_| Mutex::new(None)).collect();
    let mut stats = team.run_supersteps("contig/graph-build", |ctx, step| {
        let rank = ctx.rank;
        mail.deliver(rank, step, |_, vertices| {
            let vertices = vertices.drain(..).map(|(&km, entry)| (km, entry));
            let node = |entry: &KmerEntry| GraphNode {
                exts: entry.exts,
                count: entry.count,
                visited: AtomicBool::new(false),
            };
            nodes.apply_batch(
                rank,
                vertices,
                |_, _| unreachable!("a spectrum holds each k-mer once"),
                |_, entry| Some(node(entry)),
            )
        });
        let mut scan = scans[rank].lock();
        let (units, scan) = scan.get_or_insert_with(|| {
            let scan = spectrum.table.scan_local(ctx);
            (scan.len(), scan)
        });
        mail.send(ctx, step, *units, |ctx, _, post| {
            let (km, entry) = scan.next().expect("one entry per unit");
            if entry.exts.is_uu() {
                post.push(ctx, nodes.owner(km), (km, entry));
            }
        })
    });
    nodes.drain_service_into(&mut stats);
    let report = PhaseReport::new("contig/graph-build", topo, stats);
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
        let (graph, _) = build_graph(&team, &spectrum, everything_on(3, 4));
        assert_eq!(graph.nodes.shard_sizes(), vec![0, 0, 0, 3]);
    }

    #[test]
    fn oracle_graph_does_not_depend_on_the_threads() {
        // An oracle moves most vertices off the rank that scanned them. The
        // frozen graph's key order, which deals the traversal's seeds, is
        // the order the owners inserted them in: rank order at any thread
        // count.
        use crate::traverse::tests::{lcg_genome, perfect_reads};
        use crate::{build_oracle, generate_contigs, ContigConfig};
        use hipmer_kanalysis::{analyze_kmers, KmerAnalysisConfig};
        let topo = Topology::new(16, 4);
        let reads = perfect_reads(&lcg_genome(60_000, 5), 80, 4);
        let team = Team::new(topo).with_os_threads(1);
        let (spectrum, _) = analyze_kmers(&team, &reads, &KmerAnalysisConfig::new(21));
        let (contigs, _) = generate_contigs(&team, &spectrum, &ContigConfig::default());
        let oracle = Arc::new(build_oracle(&contigs, &topo, 1 << 16));
        let key_order = |threads: usize| -> Vec<Kmer> {
            let team = Team::new(topo).with_os_threads(threads);
            let (graph, _) = build_graph(&team, &spectrum, Some(Arc::clone(&oracle)));
            graph.nodes.iter().map(|(&km, _)| km).collect()
        };
        let serial = key_order(1);
        assert!(serial.len() > 50_000, "{} vertices", serial.len());
        for threads in [1, 2, 4, 8] {
            for run in 0..2 {
                assert!(key_order(threads) == serial, "{threads} threads, run {run}");
            }
        }
    }
}
