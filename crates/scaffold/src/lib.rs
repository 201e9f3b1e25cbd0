//! Scaffolding: every module of §4 of the paper.
//!
//! The scaffolder consumes the contig set and the original reads and
//! produces scaffolds — ordered, oriented chains of contigs with their
//! gaps closed where possible:
//!
//! | module | paper § | this crate |
//! |---|---|---|
//! | contig depths & termination states | 4.1 | [`depths`] |
//! | bubble detection + bubble–contig graph | 4.2 | [`bubbles`] |
//! | read-to-contig alignment (merAligner) | 4.3 | `hipmer-align`; carried from round to round by `carry` |
//! | insert-size estimation | 4.4 | [`inserts`] |
//! | splint & span location | 4.5 | [`splints`] |
//! | contig link generation | 4.6 | [`links`] |
//! | ordering & orientation (ties) | 4.7 | [`ties`] |
//! | gap closing | 4.8 | [`gapclose`] |
//!
//! [`pipeline::scaffold_pipeline`] chains them end-to-end and returns the
//! final scaffolds plus one [`hipmer_pgas::PhaseReport`] per module, which
//! is what the Fig. 7 bench decomposes into "merAligner", "gap closing",
//! and "rest scaffolding".

pub mod bubbles;
mod carry;
pub mod depths;
pub mod gapclose;
pub mod inserts;
pub mod links;
pub mod pipeline;
pub mod scaffolds;
pub mod splints;
pub mod ties;

pub use bubbles::merge_bubbles;
pub use depths::{compute_depths, ContigEndInfo, TerminationState};
pub use gapclose::{close_gaps, GapCloseConfig, GapCloseStats};
pub use hipmer_contig::ContigEnd;
pub use inserts::estimate_insert_size;
pub use links::{generate_links, EndKey, Link, LinkKind};
pub use pipeline::{
    prepare_contigs, scaffold_pipeline, scaffold_rounds, ScaffoldConfig, ScaffoldOutput,
};
pub use scaffolds::{Scaffold, ScaffoldMember, ScaffoldSet};
pub use splints::{locate_splints_and_spans, Span, Splint};
pub use ties::order_and_orient;
