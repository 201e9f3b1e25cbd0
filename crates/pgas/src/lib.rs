//! A PGAS (Partitioned Global Address Space) runtime *simulator* for the
//! HipMer reproduction.
//!
//! HipMer is written in UPC and runs SPMD on up to 15,360 Cray XC30 cores;
//! its algorithms communicate through distributed hash tables accessed with
//! one-sided gets/puts. This crate reproduces that execution model in a
//! single process:
//!
//! * a [`Team`] executes an SPMD phase for *P* **virtual ranks**,
//!   multiplexed over however many OS threads the host has;
//! * a [`DistHashMap`] is sharded by owner rank exactly like a UPC
//!   distributed hash table; every access is classified **local**,
//!   **on-node**, or **off-node** from the acting rank, the owning rank,
//!   and the configured ranks-per-node, and tallied in per-rank
//!   [`CommStats`]; once built, it is frozen into a [`FrozenMap`], read
//!   without locks;
//! * an [`Exchange`] implements the paper's "aggregating stores"
//!   optimization: per-destination batching of fine-grained updates, each
//!   batch applied by its owner in supersteps
//!   ([`Team::run_supersteps`]);
//! * [`FrozenMap::multi_get`] and [`SoftwareCache`] are the read-side
//!   counterparts (§4.4's seed-index batching and contig caching): a
//!   batched read that pays one message of latency per owner, and a
//!   per-rank CLOCK cache for immutable-after-build data;
//! * a [`CostModel`] converts the per-rank counters of a finished phase into
//!   modeled wall-clock seconds (critical-path max over ranks, plus barrier
//!   and I/O terms with aggregate-bandwidth saturation).
//!
//! The algorithms therefore run *for real* — the assembler output is genuine
//! — while scaling experiments at paper-scale concurrencies (480…20,480
//! ranks) report modeled time derived from the same event counts the Aries
//! network would have carried. `DESIGN.md` §1 documents this substitution.

#![warn(missing_docs)]

pub mod agg;
pub mod cost;
pub mod dht;
pub mod fault;
pub mod json;
pub mod lookup;
pub mod metrics;
pub mod oracle;
pub mod part;
pub mod pool;
pub mod report;
pub mod sched;
pub mod stats;
pub mod team;
pub mod topology;
pub mod trace;

pub use agg::{AggregatingStores, Exchange, Outbox, Post, SUPERSTEP_BYTES};
pub use cost::{CostModel, ModeledTime, RankBreakdown};
pub use dht::{DistHashMap, FrozenMap};
pub use fault::{catch_stage_abort, FailureCause, FaultEvent, FaultPlan, RankFailure, StageAbort};
pub use lookup::SoftwareCache;
pub use oracle::OracleVector;
pub use part::PartitionScheme;
pub use pool::{TeamLease, TeamPool};
pub use report::{CheckpointEvent, PhaseReport, PipelineReport, RoundReport, StageAttempt};
pub use sched::Schedule;
pub use stats::CommStats;
pub use team::{RankCtx, Team};
pub use topology::{prefix_sums, Topology};
pub use trace::Recorder;
