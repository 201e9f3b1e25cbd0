//! Parallel k-mer analysis (§2 stage 1, optimizations §3.1).
//!
//! Input: reads with qualities. Output: the set of non-erroneous canonical
//! k-mers, each with its exact count and its high-quality extension pair —
//! the vertices of the de Bruijn graph the contig stage traverses.
//!
//! Two passes over the reads — the paper's three, with its Bloom and count
//! passes fused into one:
//!
//! 1. **Sketch pass** ([`pass1::sketch_reads`]): every rank streams its
//!    read chunk through a HyperLogLog (cardinality, to size the Bloom
//!    filters) and a Misra–Gries summary (heavy-hitter identification,
//!    θ = 32,000 in the paper). Summaries are merged in a reduction. The
//!    paper calls the pass "essentially free in terms of I/O costs"
//!    because it shares the cardinality scan; in CPU it is not: over every
//!    occurrence, Misra–Gries costs 25–33 ns each, more than half the
//!    pass. So Misra–Gries sees a fixed one-in-16 sample of the reads,
//!    which took the pass from 0.26–0.27 s to 0.08–0.13 s on one thread
//!    over 5.6 M occurrences, and HyperLogLog still sees every
//!    occurrence.
//! 2. **Count pass** (`count::count_pass`): each k-mer occurrence is
//!    routed once to its owner (aggregating stores) with its
//!    quality-filtered extension votes. The owner inserts the key hash
//!    into its Bloom filter; an occurrence the filter may have seen
//!    before is recorded into the k-mer's tally at once (creating the
//!    entry), and a first sighting is held until every occurrence has
//!    arrived and then recorded only if its k-mer has an entry by then.
//!    Singletons — overwhelmingly sequencing errors — never enter the
//!    table, the paper's up-to-85% memory saving. The paper routes every
//!    occurrence twice instead, a Bloom pass that creates the entries and
//!    a count pass that fills them; the fused pass gives the same counts
//!    and votes (DESIGN.md §1). Heavy hitters bypass the owner-computes
//!    path: every rank accumulates them locally and one final global
//!    reduction merges the partials — O(p) messages per heavy k-mer
//!    instead of O(count), removing the load imbalance of Fig. 6.
//!
//! Finalization drops below-threshold k-mers and decides each side's
//! extension (`[ACGT]`, fork, or none).

pub mod config;
pub mod count;
pub mod pass1;
pub mod spectrum;

pub use config::KmerAnalysisConfig;
pub use count::analyze_kmers;
pub use pass1::{sketch_reads, SketchResult};
pub use spectrum::{KmerEntry, KmerSpectrum};
