//! Sequence I/O: FASTQ/FASTA records, parsers and writers, and the
//! parallel block FASTQ reader of §3.3. Reads come in as FASTQ only.
//!
//! The paper replaced its earlier SeqDB/HDF5 input path with a parallel
//! FASTQ reader so end users would not have to convert their files; the
//! reader samples the file to estimate record lengths, splits it into
//! per-rank byte ranges, fixes each range up to the next record boundary,
//! and reads with large buffers ("close to the I/O bandwidth achieved by
//! reading SeqDB"). [`block::read_fastq_parallel`] reproduces exactly that
//! scheme against ordinary files, tallying the bytes each rank moved so the
//! cost model can price I/O with aggregate-bandwidth saturation.

pub mod block;
pub mod fasta;
pub mod fastq;
pub mod record;
pub mod scan;

pub use block::{read_fastq_parallel, FastqSplit};
pub use fasta::{parse_fasta, write_fasta};
pub use fastq::{parse_fastq, parse_fastq_complete, write_fastq, FastqScanner, RawRecord};
pub use record::SeqRecord;
