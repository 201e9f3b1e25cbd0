//! DNA primitives for the HipMer reproduction.
//!
//! This crate provides the base-level machinery every pipeline stage builds
//! on: 2-bit packed k-mers (k ≤ 64), canonicalization and reverse
//! complement, the Meraculous extension code (`[ACGT]`, fork `F`, terminal
//! `X`), a fast non-cryptographic hasher for k-mer keyed tables, and ASCII
//! DNA sequence utilities.
//!
//! K-mers are stored as a bare `u128` ([`Kmer`]); the k-mer length lives in a
//! [`KmerCodec`] shared by a whole table rather than being duplicated in
//! every key, which halves the memory footprint of the distributed hash
//! tables that dominate the assembler (the paper stores the human genome's
//! ~3·10⁹-vertex de Bruijn graph this way). K-mer analysis, whose tables
//! hold every distinct k-mer of the reads, halves its keys again with
//! [`Kmer64`] when k ≤ 32 and drops the `u128`'s 16-byte alignment with
//! [`KmerPair`] above.

pub mod base;
pub mod ext;
pub mod hash;
pub mod kmer;
pub mod seq;

pub use base::{complement_ascii, complement_code, decode_base, encode_base, is_acgt, BASES};
pub use ext::{ExtChoice, ExtCode, ExtVotes, ExtensionPair};
pub use hash::{mix128, mix64, KmerBuildHasher, KmerHashMap, KmerHashSet};
pub use kmer::{
    CanonicalKmerIter, Kmer, Kmer64, KmerCodec, KmerIter, KmerKey, KmerLenError, KmerPair, MAX_K,
};
pub use seq::{
    canonical_seq, gc_content, hamming, is_canonical_seq, revcomp, revcomp_in_place, validate_dna,
};
