//! Deterministic, seeded fault injection for the PGAS runtime.
//!
//! At the paper's scale (15,360 cores for multiple hours) the dominant
//! operational risks are *transient* network faults — a one-sided access
//! that must be retried — and *hard* rank failures that take a whole stage
//! down. This module supplies the failure model for both, wired into the
//! runtime's classified communication points (every
//! [`RankCtx::comm`](crate::RankCtx::comm) call: `DistHashMap`
//! gets/puts/multi-gets and `Outbox` flushes, whether an `Exchange` posts
//! the batch or a `LookupBatch` answers it):
//!
//! * A [`FaultPlan`] deterministically schedules faults from a seed. Each
//!   *remote* communication event of each rank gets an event number; the
//!   fault decision is a pure hash of `(seed, rank, event)`, so a plan
//!   replays identically regardless of how virtual ranks are multiplexed
//!   over OS threads (each rank's own event sequence is deterministic, a
//!   repo-wide invariant).
//! * A **transient fault** forces the message to be re-sent: the retry is
//!   re-accounted in full (latency + bytes) and tallied in
//!   [`CommStats::transient_faults`](crate::CommStats::transient_faults) /
//!   [`CommStats::retries`](crate::CommStats::retries), and a capped
//!   exponential backoff penalty accumulates in
//!   [`CommStats::backoff_units`](crate::CommStats::backoff_units) (priced
//!   by [`CostModel::t_backoff`](crate::CostModel::t_backoff)). A message
//!   whose retry budget is exhausted escalates to a hard failure.
//! * A **hard rank failure** ([`FaultPlan::with_rank_failure`], or an
//!   escalated transient) unwinds the failing rank's phase body with a
//!   [`RankFailure`] payload. [`crate::Team::run_named`] catches it and,
//!   once every rank has run, raises a [`StageAbort`] panic so
//!   drivers that checkpoint (see the `hipmer` crate) can catch the whole
//!   stage with [`catch_stage_abort`] and re-execute it from the last
//!   checkpoint. Injected hard failures are one-shot: the re-executed
//!   stage does not re-fail at the same event.
//!
//! Faults only ever perturb *accounting and control flow*, never data: a
//! retried message re-runs no shard mutation, and an aborted stage is
//! re-executed from scratch, so a faulty run that completes produces
//! byte-identical results to a fault-free run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Default per-message retry budget before a transient fault escalates.
pub const DEFAULT_MAX_RETRIES: u32 = 4;

/// Cap on the backoff exponent: attempt `n` adds `2^min(n-1, cap)` backoff
/// units.
pub const BACKOFF_CAP: u32 = 6;

/// Why a rank failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureCause {
    /// A hard failure scheduled by [`FaultPlan::with_rank_failure`].
    Injected,
    /// A transient fault whose per-message retry budget ran out.
    RetryBudgetExhausted,
}

impl std::fmt::Display for FailureCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FailureCause::Injected => write!(f, "injected rank failure"),
            FailureCause::RetryBudgetExhausted => write!(f, "retry budget exhausted"),
        }
    }
}

/// Panic payload raised inside a phase body when the acting rank dies.
/// Caught by [`crate::Team::run_named`]; never escapes a worker thread.
#[derive(Clone, Copy, Debug)]
pub struct RankFailure {
    /// The rank that died.
    pub rank: usize,
    /// Why it died.
    pub cause: FailureCause,
}

/// Panic payload raised by [`crate::Team::run_named`] when a stage aborts.
/// Catch it at a stage boundary with [`catch_stage_abort`].
#[derive(Clone, Debug)]
pub struct StageAbort {
    /// Label of the phase that aborted.
    pub phase: String,
    /// The rank whose failure aborted the stage.
    pub rank: usize,
    /// Why the rank failed.
    pub cause: FailureCause,
}

impl std::fmt::Display for StageAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stage aborted in phase {:?}: rank {} failed ({})",
            self.phase, self.rank, self.cause
        )
    }
}

/// What [`FaultPlan::on_remote_event`] decided for one communication event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultEvent {
    /// The message goes through.
    Delivered,
    /// The message is lost; retry it.
    Transient,
    /// The acting rank dies now.
    Kill,
}

/// A deterministic, seeded schedule of communication faults.
///
/// Attach a plan to a team with [`crate::Team::with_fault_plan`]; every
/// remote (non-local) communication event on every rank then consults it.
/// Construction is cheap; the per-event cost is one atomic increment and
/// one hash.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    /// `P(transient fault)` per delivery attempt, as a 2^-64 fixed-point
    /// threshold (`u128` so probability 1.0 is representable).
    transient_threshold: u128,
    max_retries: u32,
    /// One-shot hard kill: `(rank, at_event)`.
    kill: Option<(usize, u64)>,
    kill_fired: AtomicBool,
    /// Per-rank remote-communication event counters (whole plan lifetime;
    /// never reset, so a re-executed stage sees fresh event numbers).
    events: Vec<AtomicU64>,
}

impl FaultPlan {
    /// A plan over `ranks` ranks that injects nothing yet.
    pub fn new(seed: u64, ranks: usize) -> Self {
        FaultPlan {
            seed,
            transient_threshold: 0,
            max_retries: DEFAULT_MAX_RETRIES,
            kill: None,
            kill_fired: AtomicBool::new(false),
            events: (0..ranks).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Inject transient message faults with probability `prob` per
    /// delivery attempt (clamped to `[0, 1]`).
    pub fn with_transient(mut self, prob: f64) -> Self {
        let p = prob.clamp(0.0, 1.0);
        self.transient_threshold = (p * (u128::from(u64::MAX) + 1) as f64) as u128;
        self
    }

    /// Per-message retry budget before a transient fault escalates to a
    /// hard rank failure (must be ≥ 1).
    pub fn with_max_retries(mut self, max_retries: u32) -> Self {
        assert!(max_retries >= 1);
        self.max_retries = max_retries;
        self
    }

    /// Schedule a one-shot hard failure: `rank` dies at its `at_event`-th
    /// remote communication event. Because event counters persist across
    /// stages, the re-executed stage does not hit the same event again —
    /// and the kill is additionally latched so it can fire at most once
    /// per plan.
    pub fn with_rank_failure(mut self, rank: usize, at_event: u64) -> Self {
        assert!(rank < self.events.len(), "kill rank out of range");
        self.kill = Some((rank, at_event));
        self
    }

    /// The per-message retry budget.
    #[inline]
    pub fn max_retries(&self) -> u32 {
        self.max_retries
    }

    /// Number of ranks the plan covers.
    pub fn events_len(&self) -> usize {
        self.events.len()
    }

    /// Consult the plan for the next remote communication event on `rank`
    /// (each delivery attempt — including retries — is its own event).
    pub fn on_remote_event(&self, rank: usize) -> FaultEvent {
        let ev = self.events[rank].fetch_add(1, Ordering::Relaxed);
        if let Some((kill_rank, at_event)) = self.kill {
            if kill_rank == rank && ev >= at_event && !self.kill_fired.swap(true, Ordering::Relaxed)
            {
                return FaultEvent::Kill;
            }
        }
        if self.transient_threshold > 0
            && u128::from(mix64(
                self.seed
                    ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ ev.wrapping_mul(0xBF58_476D_1CE4_E5B9),
            )) < self.transient_threshold
        {
            return FaultEvent::Transient;
        }
        FaultEvent::Delivered
    }

    /// Raise a [`RankFailure`] panic for `rank` (used by the runtime when
    /// the plan returns [`FaultEvent::Kill`] or a retry budget runs out).
    pub fn fail_rank(rank: usize, cause: FailureCause) -> ! {
        install_quiet_hook();
        std::panic::panic_any(RankFailure { rank, cause })
    }
}

/// SplitMix64 finalizer: a well-mixed 64-bit hash of `x`.
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Install (once) a panic hook that stays silent for the runtime's own
/// control-flow payloads ([`RankFailure`], [`StageAbort`]) and delegates to
/// the previous hook for everything else. Without this every injected
/// failure would splatter a "panicked at ..." line on stderr even though
/// the unwind is caught and handled.
fn install_quiet_hook() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let p = info.payload();
            if p.is::<RankFailure>() || p.is::<StageAbort>() {
                return;
            }
            previous(info);
        }));
    });
}

/// Run a stage closure, converting a [`StageAbort`] panic (raised by
/// [`crate::Team::run_named`] when a rank dies) into an `Err`. Any other
/// panic resumes unwinding unchanged.
pub fn catch_stage_abort<T>(f: impl FnOnce() -> T) -> Result<T, StageAbort> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => Ok(v),
        Err(payload) => match payload.downcast::<StageAbort>() {
            Ok(abort) => Err(*abort),
            Err(other) => std::panic::resume_unwind(other),
        },
    }
}

/// Raise a [`StageAbort`] panic (used by [`crate::Team::run_named`]; pairs
/// with [`catch_stage_abort`]).
pub fn raise_stage_abort(abort: StageAbort) -> ! {
    install_quiet_hook();
    std::panic::panic_any(abort)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_by_default() {
        let plan = FaultPlan::new(42, 4);
        for _ in 0..10_000 {
            assert_eq!(plan.on_remote_event(1), FaultEvent::Delivered);
        }
    }

    #[test]
    fn transient_rate_tracks_probability() {
        let plan = FaultPlan::new(7, 1).with_transient(0.05);
        let n = 100_000;
        let faults = (0..n)
            .filter(|_| plan.on_remote_event(0) == FaultEvent::Transient)
            .count();
        let rate = faults as f64 / n as f64;
        assert!((rate - 0.05).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn decisions_are_deterministic_per_rank_and_event() {
        // Two plans with the same seed agree event-for-event even when the
        // ranks are interrogated in different interleavings.
        let a = FaultPlan::new(99, 2).with_transient(0.2);
        let b = FaultPlan::new(99, 2).with_transient(0.2);
        let mut seq_a = Vec::new();
        for _ in 0..500 {
            seq_a.push(a.on_remote_event(0));
        }
        for _ in 0..500 {
            a.on_remote_event(1);
        }
        // Interleaved on plan b.
        let mut seq_b = Vec::new();
        for _ in 0..500 {
            b.on_remote_event(1);
            seq_b.push(b.on_remote_event(0));
        }
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn seeds_change_the_schedule() {
        let a = FaultPlan::new(1, 1).with_transient(0.1);
        let b = FaultPlan::new(2, 1).with_transient(0.1);
        let seq = |p: &FaultPlan| -> Vec<FaultEvent> {
            (0..2000).map(|_| p.on_remote_event(0)).collect()
        };
        assert_ne!(seq(&a), seq(&b));
    }

    #[test]
    fn kill_fires_once_at_the_scheduled_event() {
        let plan = FaultPlan::new(0, 2).with_rank_failure(1, 3);
        // Rank 0 is never killed.
        for _ in 0..10 {
            assert_eq!(plan.on_remote_event(0), FaultEvent::Delivered);
        }
        assert_eq!(plan.on_remote_event(1), FaultEvent::Delivered); // ev 0
        assert_eq!(plan.on_remote_event(1), FaultEvent::Delivered); // ev 1
        assert_eq!(plan.on_remote_event(1), FaultEvent::Delivered); // ev 2
        assert_eq!(plan.on_remote_event(1), FaultEvent::Kill); // ev 3
        for _ in 0..10 {
            // One-shot: the retried stage must not die again.
            assert_eq!(plan.on_remote_event(1), FaultEvent::Delivered);
        }
    }

    #[test]
    fn probability_one_always_faults() {
        let plan = FaultPlan::new(3, 1).with_transient(1.0);
        for _ in 0..100 {
            assert_eq!(plan.on_remote_event(0), FaultEvent::Transient);
        }
    }

    #[test]
    fn catch_stage_abort_round_trips() {
        let abort = StageAbort {
            phase: "test/phase".into(),
            rank: 3,
            cause: FailureCause::Injected,
        };
        let err = catch_stage_abort(|| -> () { raise_stage_abort(abort.clone()) }).unwrap_err();
        assert_eq!(err.rank, 3);
        assert_eq!(err.cause, FailureCause::Injected);
        assert_eq!(err.phase, "test/phase");
        assert!(err.to_string().contains("rank 3"));
        // Plain values pass through untouched.
        assert_eq!(catch_stage_abort(|| 5).unwrap(), 5);
    }

    #[test]
    fn unrelated_panics_are_not_swallowed() {
        let res = std::panic::catch_unwind(|| {
            let _ = catch_stage_abort(|| panic!("real bug"));
        });
        assert!(res.is_err(), "ordinary panics must resume unwinding");
    }
}
