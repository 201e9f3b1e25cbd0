//! The one way a stage partitions its items across ranks: static blocked
//! partitioning ([`crate::RankCtx::chunk`]), as the paper does. DESIGN.md
//! §10 records why there is no other.

/// How a stage partitions its items across ranks.
///
/// Only static blocked partitioning remains. The type survives because
/// `ScaffoldConfig.schedule` and `prepare_contigs`'s fourth parameter,
/// which the wall-clock benchmark crate names, still carry it; both are
/// ignored and go with the type in a benchmark-side change.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Schedule {
    /// Static blocked partitioning via [`crate::Topology::chunk`].
    #[default]
    Static,
}
