//! merAligner: parallel seed-and-extend read-to-contig alignment (§4.3,
//! and reference \[12\] in the paper).
//!
//! merAligner is the most expensive scaffolding module (Fig. 7 plots it
//! separately). It builds a **distributed seed index** over the contigs —
//! unlike the tools the paper compares against, which "mostly build their
//! lookup tables serially" — then, for every read, looks up seed k-mers in
//! the index (one one-sided lookup each), groups the hits by
//! (contig, strand, diagonal), and extends the best candidates with a
//! banded Smith–Waterman to produce full alignments.
//!
//! Alignments are the input to everything downstream: insert-size
//! estimation (§4.4), splint/span detection (§4.5), and gap closing
//! (§4.8).

pub mod aligner;
pub mod index;
pub mod sw;

pub use aligner::{
    align_read_subset, align_reads, drop_contained, sort_alignments, stride_seeds, AlignConfig,
    Alignment,
};
pub use index::{build_seed_index, SeedHit, SeedIndex};
pub use sw::{
    banded_sw, banded_sw_batch, banded_sw_batch_with, banded_sw_reference, banded_sw_with,
    ungapped_matches, ungapped_matches_reference, SwParams, SwResult, SwWorkspace,
};
