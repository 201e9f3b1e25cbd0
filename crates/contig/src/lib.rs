//! Contig generation: distributed de Bruijn graph construction and
//! traversal (§2 stage 2, communication-avoiding algorithm §3.2).
//!
//! The UU k-mers from k-mer analysis are the graph's vertices; edges are
//! implicit in the two-letter extension code (`[ACGT][ACGT]`). The graph
//! lives in a distributed hash table and is traversed in parallel: every
//! extension step is one hash-table lookup, which with uniform placement is
//! almost always remote — the O(G) message bottleneck the paper's oracle
//! partitioning attacks.
//!
//! Traversal is the paper's cooperative scheme — one claim walk per seed
//! ([`TraversalMode::Cooperative`]): every rank seeds from its local
//! buckets, claims vertices in the access that reads them, stops where
//! another walk's claim begins, and a serial pass merges the subcontig
//! chains with the one chain walker ([`chain::walk_chains`], which the
//! scaffolder's bubble and tie stages share). [`TraversalMode::EndpointWalk`] — one walker per path endpoint,
//! emitted by an endpoint tie-break, cycles swept in a cleanup pass — is
//! the schedule-independent reference the tests hold it to; both have the
//! same per-extension communication profile (one lookup per explored
//! vertex).

pub mod chain;
pub mod contig_set;
pub mod graph;
pub mod oracle_build;
pub mod traverse;

pub use chain::{walk_chains, ContigEnd};
pub use contig_set::{Contig, ContigSet};
pub use graph::{build_graph, DebruijnGraph, GraphNode};
pub use oracle_build::{build_oracle, build_oracle_for_k};
pub use traverse::{generate_contigs, prune_hairs, traverse_graph, ContigConfig, TraversalMode};
