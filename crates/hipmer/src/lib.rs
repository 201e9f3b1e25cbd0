//! HipMer: an extreme-scale de novo genome assembler — end-to-end
//! pipeline.
//!
//! This crate ties the whole reproduction together (Fig. 1 of the paper:
//! reads → k-mers → contigs → scaffolds):
//!
//! 1. **k-mer analysis** (`hipmer-kanalysis`): error-excluding k-mer
//!    counting with Bloom filters and heavy-hitter handling;
//! 2. **contig generation** (`hipmer-contig`): distributed de Bruijn graph
//!    construction and traversal, optionally communication-avoiding via
//!    oracle partitioning;
//! 3. **scaffolding** (`hipmer-scaffold` + `hipmer-align`): depths,
//!    bubbles, merAligner, insert sizes, splints/spans, links, ties, gap
//!    closing.
//!
//! ```no_run
//! use hipmer::{assemble, PipelineConfig};
//! use hipmer_pgas::{CostModel, Team, Topology};
//! # let reads = vec![];
//! # let lib_ranges = vec![0..0];
//! let team = Team::new(Topology::edison(480));
//! let assembly = assemble(&team, &reads, &lib_ranges, &PipelineConfig::new(31));
//! println!("{}", assembly.report.render(&CostModel::edison()));
//! println!("scaffold N50: {}", assembly.stats.scaffold_n50);
//! ```
//!
//! Every stage both *runs for real* (the scaffolds are genuine assemblies
//! of the input reads) and produces per-rank communication counters which
//! the [`hipmer_pgas::CostModel`] converts into modeled Cray-XC30-like
//! execution times; [`StageTimes`] groups them the way the paper's figures
//! do.

pub mod checkpoint;
pub mod config;
pub mod eval;
pub mod pipeline;
pub mod service;
pub mod stats;

pub use checkpoint::{CheckpointStore, Fingerprint, ScaffoldState};
pub use config::PipelineConfig;
pub use eval::{evaluate, EvalReport};
pub use pipeline::{
    assemble, assemble_fastq, planned_stage_names, run_assembly, run_assembly_fastq, Assembly,
    PipelineError, RunOptions,
};
pub use service::AssemblyExecutor;
pub use stats::{AssemblyStats, StageTimes};
