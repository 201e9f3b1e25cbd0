//! The vestige of the k-mer partition knob.
//!
//! Every k-mer table is owned by `key_hash % ranks`
//! ([`DistHashMap::new`](crate::DistHashMap::new)) or by the oracle of §3.2
//! ([`OracleVector::table`](crate::OracleVector::table)); there is no other
//! owner function.

/// A one-variant enum kept only because the wall-clock benchmark crate
/// names it (`PartitionScheme::Uniform`, passed to
/// `hipmer::checkpoint::decode_spectrum`) and that crate is changed only
/// together with its baseline. It selects nothing; remove it with the
/// benchmark's next change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartitionScheme {
    /// Uniform hashing: `owner = key_hash % ranks`.
    Uniform,
}
