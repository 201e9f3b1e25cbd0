//! SPMD phase execution over virtual ranks.
//!
//! A [`Team`] runs one closure per virtual rank, exactly like a UPC program
//! runs one copy per thread. Virtual ranks are multiplexed over the host's
//! OS threads (override with `HIPMER_THREADS`), so experiments can model
//! 15,360-rank concurrencies on a laptop. Phase bodies must therefore be
//! **non-blocking with respect to other ranks**: they may share concurrent
//! data structures, but must never wait for a rank that has not run yet.
//! Every algorithm in this reproduction is written in that style (the
//! paper's own algorithms are asynchronous one-sided for the same reason:
//! to avoid synchronization and message-matching logic).
//!
//! Rank→thread placement is blocked: worker `w` of `W` executes the
//! **contiguous block** of ranks `w·P/W .. (w+1)·P/W`. A rank's working
//! set — its DHT partition, its aggregation buffers — stays on one worker
//! for a whole phase, every superstep of it included
//! ([`Team::run_supersteps`]), and consecutive ranks, whose DHT partitions
//! are adjacent, share that worker's caches: the single-process analogue
//! of NUMA-aware rank pinning (DESIGN.md §12).

use crate::fault::{self, FailureCause, FaultEvent, FaultPlan, StageAbort};
use crate::stats::CommStats;
use crate::topology::Topology;
use crate::trace;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Per-rank execution context handed to a phase body.
pub struct RankCtx {
    /// This rank's id, `0..topology.ranks()`.
    pub rank: usize,
    topo: Topology,
    /// Counters the phase body and the data structures tally into.
    pub stats: CommStats,
    /// Fault schedule consulted by [`RankCtx::comm`] (set by
    /// [`Team::with_fault_plan`]; `None` = fault-free).
    faults: Option<Arc<FaultPlan>>,
}

impl RankCtx {
    /// Create a context (public so data-structure unit tests can forge one).
    pub fn new(rank: usize, topo: Topology) -> Self {
        RankCtx {
            rank,
            topo,
            stats: CommStats::new(),
            faults: None,
        }
    }

    /// The machine topology this phase runs on.
    #[inline]
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// The contiguous chunk of `n` items this rank owns.
    #[inline]
    pub fn chunk(&self, n: usize) -> std::ops::Range<usize> {
        self.topo.chunk(n, self.rank)
    }

    /// The contiguous chunk of items this rank owns when they are cut by
    /// cost: see [`Topology::cost_chunk`].
    #[inline]
    pub fn cost_chunk(&self, prefix: &[u64]) -> std::ops::Range<usize> {
        self.topo.cost_chunk(prefix, self.rank)
    }

    /// Record participation in a barrier.
    #[inline]
    pub fn barrier(&mut self) {
        self.stats.barriers += 1;
    }

    /// Record one one-sided access from this rank to `to`'s partition.
    #[inline]
    pub fn access(&mut self, to: usize, bytes: u64) {
        let topo = self.topo;
        self.comm(&topo, to, bytes);
    }

    /// Record one classified communication event from this rank to `to`
    /// under `topo` — **the** choke point every one-sided access, batched
    /// flush, and multi-get message goes through. With no
    /// [`FaultPlan`] attached this is exactly
    /// [`CommStats::access`]; with one, remote events additionally consult
    /// the plan: a transient fault re-sends the message (re-accounted in
    /// full, with capped exponential backoff tallied in
    /// [`CommStats::backoff_units`]), and a hard fault unwinds the rank
    /// (see [`crate::fault`]).
    #[inline]
    pub fn comm(&mut self, topo: &Topology, to: usize, bytes: u64) {
        self.stats.access(topo, self.rank, to, bytes);
        if to != self.rank && self.faults.is_some() {
            self.comm_faulty(topo, to, bytes);
        }
    }

    /// Out-of-line fault path of [`RankCtx::comm`].
    #[cold]
    fn comm_faulty(&mut self, topo: &Topology, to: usize, bytes: u64) {
        let plan = self.faults.clone().expect("checked by caller");
        let mut attempt = 0u32;
        loop {
            match plan.on_remote_event(self.rank) {
                FaultEvent::Delivered => return,
                FaultEvent::Kill => FaultPlan::fail_rank(self.rank, FailureCause::Injected),
                FaultEvent::Transient => {
                    attempt += 1;
                    self.stats.transient_faults += 1;
                    if attempt > plan.max_retries() {
                        FaultPlan::fail_rank(self.rank, FailureCause::RetryBudgetExhausted);
                    }
                    self.stats.retries += 1;
                    self.stats.backoff_units += 1u64 << (attempt - 1).min(fault::BACKOFF_CAP);
                    // The re-sent message pays latency and bytes again.
                    self.stats.access(topo, self.rank, to, bytes);
                }
            }
        }
    }
}

/// An SPMD team of virtual ranks.
#[derive(Clone, Debug)]
pub struct Team {
    topo: Topology,
    os_threads: usize,
    faults: Option<Arc<FaultPlan>>,
    recorder: Option<trace::Recorder>,
}

/// Number of OS worker threads to use (env `HIPMER_THREADS`, else the
/// host's available parallelism).
fn default_os_threads() -> usize {
    if let Ok(v) = std::env::var("HIPMER_THREADS") {
        match v.parse::<usize>() {
            Ok(n) if n >= 1 => return n,
            Ok(0) => {
                eprintln!("hipmer: HIPMER_THREADS=0 is not runnable; clamping to 1 thread");
                return 1;
            }
            _ => eprintln!(
                "hipmer: ignoring HIPMER_THREADS={v:?} (expected a positive \
                 integer); falling back to available parallelism"
            ),
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Execute one rank's phase body, stamping measured execution time into its
/// stats; also returns when the body started. A panic unwinding out of the
/// body is caught and returned as `Err` with its payload: a
/// [`fault::RankFailure`] for an injected failure, anything else for a bug.
fn run_rank<R, F>(
    f: &F,
    rank: usize,
    topo: Topology,
    faults: Option<&Arc<FaultPlan>>,
) -> (std::thread::Result<R>, CommStats, Instant)
where
    F: Fn(&mut RankCtx) -> R,
{
    let rank_start = Instant::now();
    let mut ctx = RankCtx::new(rank, topo);
    ctx.faults = faults.cloned();
    // AssertUnwindSafe: on unwind only `ctx.stats` is read, and counters
    // are plain integers that stay valid mid-phase.
    let out = catch_unwind(AssertUnwindSafe(|| f(&mut ctx)));
    ctx.barrier();
    ctx.stats.exec_nanos = rank_start.elapsed().as_nanos() as u64;
    (out, ctx.stats, rank_start)
}

/// What one worker hands back from [`Team::run_steps`]: per rank of its
/// block, the last step's result and the counters summed over the steps;
/// the lowest failed rank of the block; and a bug's panic payload.
struct BlockOutcome<R> {
    results: Vec<Option<R>>,
    stats: Vec<CommStats>,
    failure: Option<fault::RankFailure>,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl Team {
    /// A team over the given topology, with default OS-thread multiplexing.
    pub fn new(topo: Topology) -> Self {
        Team {
            topo,
            os_threads: default_os_threads(),
            faults: None,
            recorder: None,
        }
    }

    /// Attach a span [`trace::Recorder`]: every phase of this team records
    /// spans there (the recorder's existence is the enable flag). Without
    /// one, the team records no spans.
    pub fn with_recorder(mut self, recorder: trace::Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Override the number of OS worker threads (mostly for tests).
    ///
    /// `0` is clamped to `1` with a warning — a zero-worker scope would
    /// never run any rank.
    pub fn with_os_threads(mut self, n: usize) -> Self {
        if n == 0 {
            eprintln!("hipmer: Team::with_os_threads(0) is not runnable; clamping to 1 thread");
        }
        self.os_threads = n.max(1);
        self
    }

    /// Arm this team with a fault-injection schedule: every remote
    /// communication event of every phase consults `plan` (see
    /// [`crate::fault`]). The plan is shared, so event counters persist
    /// across phases and across team clones.
    pub fn with_fault_plan(mut self, plan: Arc<FaultPlan>) -> Self {
        assert_eq!(
            plan.events_len(),
            self.topo.ranks(),
            "fault plan must cover every rank"
        );
        self.faults = Some(plan);
        self
    }

    /// The topology this team executes on.
    #[inline]
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// Number of virtual ranks.
    #[inline]
    pub fn ranks(&self) -> usize {
        self.topo.ranks()
    }

    /// Execute one named SPMD phase: `f` runs once per virtual rank.
    /// Returns the per-rank results and per-rank communication counters,
    /// both indexed by rank.
    ///
    /// The implicit barrier at phase end is recorded in every rank's stats,
    /// and each rank's measured execution time is stamped into
    /// [`CommStats::exec_nanos`]. With a [`trace::Recorder`] attached, a
    /// span per sampled rank is recorded under `label`.
    ///
    /// An injected rank failure aborts the stage with a
    /// [`StageAbort`] panic for [`fault::catch_stage_abort`] to catch at a
    /// stage boundary. Every rank still executes (a real failure detector
    /// also lags the failure; phase bodies are non-blocking, so survivors
    /// always finish); the aborted attempt's per-rank results and counters
    /// are discarded — the caller re-executes the stage (see
    /// `PipelineReport::rollback_to`).
    pub fn run_named<R, F>(&self, label: &str, f: F) -> (Vec<R>, Vec<CommStats>)
    where
        R: Send,
        F: Fn(&mut RankCtx) -> R + Sync,
    {
        self.run_steps(label, |ctx, _| f(ctx), |_| false)
    }

    /// Execute a phase in supersteps: step `s` runs `body(ctx, s)` for
    /// every rank, and the workers meet at a barrier after each step. The
    /// steps end after the first in which no rank's body returned `true`.
    /// Returns each rank's counters summed over the steps, one barrier
    /// billed per step.
    ///
    /// One worker thread runs the same contiguous rank block in every step
    /// and lives for the whole phase, so a rank's working set stays with
    /// one thread from step to step. Each step is traced as a phase named
    /// `label`, and an injected rank failure aborts the stage after the
    /// step it happened in, as in [`run_named`](Self::run_named). This is
    /// the phase runner of owner-applied writes ([`crate::Exchange`]) and of
    /// reductions that merge up a tree of ranks.
    pub fn run_supersteps<F>(&self, label: &str, body: F) -> Vec<CommStats>
    where
        F: Fn(&mut RankCtx, usize) -> bool + Sync,
    {
        self.run_steps(label, body, |&again| again).1
    }

    /// The one execution engine: run `body(ctx, step)` for steps 0, 1, …
    /// until a step after which `again` holds for no rank's result. Returns
    /// the last step's per-rank results and the counters summed over the
    /// steps.
    fn run_steps<R, F, A>(&self, label: &str, body: F, again: A) -> (Vec<R>, Vec<CommStats>)
    where
        R: Send,
        F: Fn(&mut RankCtx, usize) -> R + Sync,
        A: Fn(&R) -> bool + Sync,
    {
        let ranks = self.topo.ranks();
        let workers = self.os_threads.min(ranks);
        let recorder = self.recorder.as_ref();
        let sample = recorder.map_or(0, trace::Recorder::sample_ranks);
        let faults = self.faults.as_ref();

        // Blocked placement: worker `w` owns one contiguous rank block.
        let base = ranks / workers;
        let rem = ranks % workers;
        let block = |w: usize| {
            let start = w * base + w.min(rem);
            start..start + base + usize::from(w < rem)
        };

        // After each step every worker publishes whether one of its ranks
        // wants another step and whether one failed or panicked, in the
        // slots of the step's parity: a slot is rewritten two steps later,
        // after every reader has passed the next step's barrier. So every
        // worker reads the same flags and all stop after the same step (a
        // flag shared across steps could be set by a fast worker's next
        // step before a slow one read it for this one, and strand the fast
        // worker at a barrier nobody else reaches).
        let launch = Instant::now();
        let barrier = std::sync::Barrier::new(workers);
        let go_on: Vec<[AtomicBool; 2]> = (0..workers).map(|_| Default::default()).collect();
        let failed: Vec<[AtomicBool; 2]> = (0..workers).map(|_| Default::default()).collect();

        // One worker's share of the phase: run its ranks in order, step
        // after step, and record the sampled ranks' spans in one batch per
        // step.
        let run_block = |w: usize| {
            let ranks = block(w);
            let mut out = BlockOutcome {
                results: (0..ranks.len()).map(|_| None).collect(),
                stats: vec![CommStats::new(); ranks.len()],
                failure: None,
                panic: None,
            };
            for step in 0.. {
                // A rank's queue delay counts from the phase's launch, or
                // from the barrier that released the step.
                let step_start = if step == 0 { launch } else { Instant::now() };
                let step_body = |ctx: &mut RankCtx| body(ctx, step);
                let mut spans = Vec::new();
                let mut more = false;
                for (i, rank) in ranks.clone().enumerate() {
                    let (result, stats, rank_start) = run_rank(&step_body, rank, self.topo, faults);
                    out.stats[i].merge(&stats);
                    if rank < sample {
                        let since = |t: Instant| rank_start.saturating_duration_since(t).as_nanos();
                        spans.push(trace::SpanEvent {
                            phase: label.to_string(),
                            rank,
                            start_nanos: since(trace::epoch()) as u64,
                            queue_nanos: since(step_start) as u64,
                            stats,
                        });
                    }
                    match result {
                        Ok(r) => {
                            more |= again(&r);
                            out.results[i] = Some(r);
                        }
                        Err(payload) => match payload.downcast::<fault::RankFailure>() {
                            // Ranks ascend within a block: the first is the lowest.
                            Ok(rf) => out.failure = out.failure.or(Some(*rf)),
                            Err(bug) => {
                                out.panic = Some(bug);
                                break;
                            }
                        },
                    }
                }
                if let Some(recorder) = recorder.filter(|_| !spans.is_empty()) {
                    recorder.record(spans);
                }
                let fail = out.failure.is_some() || out.panic.is_some();
                failed[w][step % 2].store(fail, Ordering::Relaxed);
                go_on[w][step % 2].store(more, Ordering::Relaxed);
                if workers > 1 {
                    barrier.wait();
                }
                let more = go_on.iter().any(|g| g[step % 2].load(Ordering::Relaxed));
                let stop = failed.iter().any(|f| f[step % 2].load(Ordering::Relaxed));
                if stop || !more {
                    break;
                }
            }
            if let Some(bug) = out.panic.take() {
                std::panic::resume_unwind(bug);
            }
            out
        };

        let collected: Vec<BlockOutcome<R>> = if workers <= 1 {
            vec![run_block(0)]
        } else {
            crossbeam::thread::scope(|scope| {
                let run_block = &run_block;
                let handles: Vec<_> = (0..workers)
                    .map(|w| scope.spawn(move |_| run_block(w)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("phase body panicked"))
                    .collect()
            })
            .expect("team scope panicked")
        };

        // Any dead rank aborts the stage; pick the lowest rank so the
        // reported failure is deterministic across OS-thread schedules.
        if let Some(failure) = collected.iter().find_map(|b| b.failure) {
            fault::raise_stage_abort(StageAbort {
                phase: label.to_string(),
                rank: failure.rank,
                cause: failure.cause,
            });
        }

        // Blocks are contiguous and joined in worker order, so the
        // concatenated blocks are already in rank order.
        let mut results = Vec::with_capacity(ranks);
        let mut stats = Vec::with_capacity(ranks);
        for b in collected {
            results.extend(
                b.results
                    .into_iter()
                    .map(|r| r.expect("no failure implies a result")),
            );
            stats.extend(b.stats);
        }
        debug_assert_eq!(results.len(), ranks);
        (results, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rank_runs_exactly_once() {
        let team = Team::new(Topology::new(100, 24)).with_os_threads(4);
        let (ranks_seen, stats) = team.run_named("test/every-rank", |ctx| ctx.rank);
        assert_eq!(ranks_seen, (0..100).collect::<Vec<_>>());
        assert_eq!(stats.len(), 100);
        assert!(stats.iter().all(|s| s.barriers == 1));
    }

    #[test]
    fn serial_fallback_matches() {
        let team = Team::new(Topology::new(7, 24)).with_os_threads(1);
        let (out, _) = team.run_named("test/serial", |ctx| ctx.rank * 2);
        assert_eq!(out, vec![0, 2, 4, 6, 8, 10, 12]);
    }

    #[test]
    fn stats_are_attributed_to_the_acting_rank() {
        let team = Team::new(Topology::new(8, 4)).with_os_threads(3);
        let (_, stats) = team.run_named("test/attribution", |ctx| {
            ctx.stats.compute(ctx.rank as u64);
        });
        for (rank, s) in stats.iter().enumerate() {
            assert_eq!(s.compute_ops, rank as u64);
        }
    }

    #[test]
    fn chunks_cover_input() {
        let team = Team::new(Topology::new(13, 24)).with_os_threads(2);
        let n = 1000;
        let (chunks, _) = team.run_named("test/chunks", |ctx| ctx.chunk(n));
        let mut covered = 0;
        for c in chunks {
            assert_eq!(c.start, covered);
            covered = c.end;
        }
        assert_eq!(covered, n);
    }

    #[test]
    fn cost_chunks_are_the_same_at_every_thread_count() {
        let topo = Topology::new(13, 24);
        let prefix = crate::prefix_sums((0..500u64).map(|i| i % 17 * (i % 5)));
        let serial: Vec<_> = (0..13).map(|r| topo.cost_chunk(&prefix, r)).collect();
        for threads in [1, 2, 4, 8] {
            let team = Team::new(topo).with_os_threads(threads);
            let (chunks, _) = team.run_named("test/cost-chunks", |ctx| ctx.cost_chunk(&prefix));
            assert_eq!(chunks, serial, "{threads} threads");
        }
    }

    #[test]
    fn exec_nanos_are_stamped_for_every_rank() {
        let team = Team::new(Topology::new(4, 4)).with_os_threads(2);
        let (_, stats) = team.run_named("test/exec-nanos", |_| {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        assert!(stats.iter().all(|s| s.exec_nanos >= 1_000_000), "{stats:?}");
    }

    #[test]
    fn tracing_records_spans_for_sampled_ranks_only() {
        // Per-team recorder: no process-global state, no test serialization.
        let label = "test/tracing-sampled-spans";
        let recorder = crate::trace::Recorder::new(2);
        let team = Team::new(Topology::new(8, 4))
            .with_os_threads(3)
            .with_recorder(recorder.clone());
        team.run_named(label, |ctx| {
            ctx.barrier();
            ctx.rank
        });
        let mine = recorder.take_events();
        assert!(mine.iter().all(|e| e.phase == label));
        let mut ranks: Vec<usize> = mine.iter().map(|e| e.rank).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, vec![0, 1], "only sampled ranks recorded");
        for e in &mine {
            assert_eq!(e.stats.barriers, 2, "explicit + implicit barrier");
            assert!(e.stats.exec_nanos > 0);
        }
    }

    #[test]
    fn recorder_with_zero_sample_captures_every_rank() {
        let recorder = crate::trace::Recorder::new(0);
        let team = Team::new(Topology::new(5, 4))
            .with_os_threads(2)
            .with_recorder(recorder.clone());
        team.run_named("test/tracing-all-ranks", |ctx| ctx.rank);
        let mut ranks: Vec<usize> = recorder.take_events().iter().map(|e| e.rank).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, vec![0, 1, 2, 3, 4]);
    }

    /// Deterministic stage-abort selection must hold while ranks ship
    /// batched traffic, across OS thread counts, and the aborted attempt's
    /// undelivered mail is dropped without tripping the exchange's
    /// drained-mail assertion.
    #[test]
    fn abort_selection_is_deterministic_under_batched_sends_across_threads() {
        use crate::agg::Exchange;
        use crate::dht::DistHashMap;

        let topo = Topology::new(8, 4);
        let run_with = |threads: usize| {
            // Fresh plan per run: the kill is latched (one-shot).
            let plan = FaultPlan::new(42, topo.ranks()).with_rank_failure(5, 30);
            let team = Team::new(topo)
                .with_os_threads(threads)
                .with_fault_plan(Arc::new(plan));
            let dht: DistHashMap<u64, u64> = DistHashMap::new(topo);
            fault::catch_stage_abort(|| {
                // Inside the stage, as in the pipeline: an abort unwinds
                // through the exchange.
                let mail: Exchange<(u64, u64)> = Exchange::new(topo, 4);
                team.run_supersteps("test/batched-abort", |ctx, step| {
                    let rank = ctx.rank;
                    mail.deliver(rank, step, |_, items| {
                        dht.merge_batch(rank, items.drain(..), |acc, v| *acc += v)
                    });
                    mail.send(ctx, step, 200, |ctx, i, post| {
                        let key = i as u64 * 7;
                        post.push(ctx, dht.owner(&key), (key, 1));
                    })
                })
            })
        };
        let mut aborted_ranks = Vec::new();
        for threads in [1usize, 4, 8] {
            match run_with(threads) {
                Err(abort) => {
                    assert_eq!(abort.phase, "test/batched-abort");
                    aborted_ranks.push(abort.rank);
                }
                Ok(_) => panic!("stage must abort at {threads} threads"),
            }
        }
        assert_eq!(
            aborted_ranks,
            vec![aborted_ranks[0]; 3],
            "same aborting rank at 1, 4, and 8 OS threads"
        );
    }

    /// A rank that fails in a later superstep must stop every worker after
    /// that step. Rank 0's first step is slow, so its worker reaches the
    /// barrier last and runs on while the other is still waking; it then
    /// fails at once. Every worker must still agree to stop after step 1.
    #[test]
    fn a_failure_after_the_first_superstep_stops_every_worker() {
        use std::sync::mpsc;
        use std::time::Duration;
        let (done, finished) = mpsc::channel();
        std::thread::spawn(move || {
            let team = Team::new(Topology::new(2, 2)).with_os_threads(2);
            for _ in 0..20 {
                let outcome = fault::catch_stage_abort(|| {
                    team.run_supersteps("test/late-failure", |ctx, step| {
                        if ctx.rank == 0 && step == 0 {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        if ctx.rank == 0 && step == 1 {
                            FaultPlan::fail_rank(0, FailureCause::Injected);
                        }
                        step < 3
                    })
                });
                assert_eq!(outcome.expect_err("rank 0 failed").rank, 0);
            }
            done.send(()).unwrap();
        });
        let waited = finished.recv_timeout(Duration::from_secs(60));
        assert!(
            waited.is_ok(),
            "a worker waits at a barrier nobody else reaches"
        );
    }

    #[test]
    fn shared_state_is_visible_across_ranks() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let team = Team::new(Topology::new(64, 24)).with_os_threads(4);
        let acc = AtomicU64::new(0);
        team.run_named("test/shared-state", |ctx| {
            acc.fetch_add(ctx.rank as u64, Ordering::Relaxed);
        });
        assert_eq!(acc.load(Ordering::Relaxed), (0..64u64).sum());
    }

    #[test]
    fn transient_faults_retry_and_are_counted() {
        let topo = Topology::new(8, 4);
        let plan = FaultPlan::new(11, topo.ranks()).with_transient(0.05);
        let team = Team::new(topo)
            .with_os_threads(2)
            .with_fault_plan(Arc::new(plan));
        let (_, stats) = team.run_named("test/transient", |ctx| {
            for to in 0..8 {
                for _ in 0..200 {
                    ctx.access(to, 16);
                }
            }
        });
        let total = crate::stats::total(&stats);
        assert!(total.transient_faults > 0, "{total:?}");
        assert_eq!(total.transient_faults, total.retries, "all faults retried");
        assert!(total.backoff_units >= total.retries);
        // Retried messages are re-accounted: more messages than the
        // fault-free op count (8 ranks x 8 dests x 200, one local each).
        assert_eq!(
            total.total_accesses(),
            8 * 8 * 200 + total.retries,
            "each retry re-accounts its message"
        );
    }

    #[test]
    fn fault_counters_are_schedule_independent() {
        let topo = Topology::new(8, 4);
        let run_with = |threads: usize| {
            let plan = FaultPlan::new(99, topo.ranks()).with_transient(0.03);
            let team = Team::new(topo)
                .with_os_threads(threads)
                .with_fault_plan(Arc::new(plan));
            let (_, stats) = team.run_named("test/deterministic-faults", |ctx| {
                for to in 0..8 {
                    for _ in 0..300 {
                        ctx.access(to, 8);
                    }
                }
            });
            stats
        };
        // Scrub measured host time: everything else must match exactly.
        let scrub = |stats: Vec<CommStats>| -> Vec<CommStats> {
            stats.into_iter().map(CommStats::counted).collect()
        };
        let serial = scrub(run_with(1));
        let threaded = scrub(run_with(4));
        assert_eq!(serial, threaded, "per-rank counters identical");
        assert!(crate::stats::total(&serial).transient_faults > 0);
    }

    #[test]
    fn hard_rank_failure_aborts_the_stage() {
        let topo = Topology::new(8, 4);
        let plan = FaultPlan::new(5, topo.ranks()).with_rank_failure(3, 50);
        let team = Team::new(topo)
            .with_os_threads(3)
            .with_fault_plan(Arc::new(plan));
        let body = |ctx: &mut RankCtx| {
            for to in 0..8 {
                for _ in 0..100 {
                    ctx.access(to, 16);
                }
            }
            ctx.rank
        };
        let abort = fault::catch_stage_abort(|| team.run_named("test/hard-kill", body))
            .expect_err("stage must abort");
        assert_eq!(abort.phase, "test/hard-kill");
        assert_eq!(abort.rank, 3);
        assert_eq!(abort.cause, FailureCause::Injected);
        // The kill is one-shot: the same team retries the stage and wins.
        let (results, stats) = team.run_named("test/hard-kill-retry", body);
        assert_eq!(results, (0..8).collect::<Vec<_>>());
        assert_eq!(stats.len(), 8);
    }

    #[test]
    fn run_named_raises_catchable_stage_abort() {
        let topo = Topology::new(4, 4);
        let plan = FaultPlan::new(1, topo.ranks()).with_rank_failure(1, 0);
        let team = Team::new(topo)
            .with_os_threads(1)
            .with_fault_plan(Arc::new(plan));
        let caught = fault::catch_stage_abort(|| {
            team.run_named("test/raise-abort", |ctx| {
                ctx.access((ctx.rank + 1) % 4, 8);
            })
        });
        let abort = caught.expect_err("must abort");
        assert_eq!(abort.rank, 1);
        assert_eq!(abort.phase, "test/raise-abort");
    }

    #[test]
    fn retry_budget_exhaustion_escalates_to_abort() {
        let topo = Topology::new(2, 2);
        // Probability 1.0: every delivery attempt faults, so the budget
        // must run out and escalate to a hard failure.
        let plan = FaultPlan::new(3, topo.ranks())
            .with_transient(1.0)
            .with_max_retries(2);
        let team = Team::new(topo)
            .with_os_threads(1)
            .with_fault_plan(Arc::new(plan));
        let abort = fault::catch_stage_abort(|| {
            team.run_named("test/budget", |ctx| {
                ctx.access((ctx.rank + 1) % 2, 8);
            })
        })
        .expect_err("stage must abort");
        assert_eq!(abort.cause, FailureCause::RetryBudgetExhausted);
        assert_eq!(abort.rank, 0, "lowest failing rank reported");
    }

    #[test]
    #[should_panic(expected = "fault plan must cover every rank")]
    fn fault_plan_arity_is_checked() {
        let plan = FaultPlan::new(0, 4);
        let _ = Team::new(Topology::new(8, 4)).with_fault_plan(Arc::new(plan));
    }

    #[test]
    fn zero_os_threads_clamps_to_one_and_still_runs() {
        // Regression: `with_os_threads(0)` used to assert; it must clamp
        // to a single worker and execute every rank.
        let team = Team::new(Topology::new(4, 2)).with_os_threads(0);
        let (results, _) = team.run_named("test/zero-threads", |ctx| ctx.rank);
        assert_eq!(results, vec![0, 1, 2, 3]);
    }

    #[test]
    fn hipmer_threads_zero_env_clamps_to_one() {
        // `default_os_threads` reads the env each `Team::new`; other tests
        // in this binary do not depend on HIPMER_THREADS being unset, and
        // a clamped value of 1 is valid for any concurrently-built team.
        std::env::set_var("HIPMER_THREADS", "0");
        let team = Team::new(Topology::new(3, 2));
        let (results, _) = team.run_named("test/zero-threads-env", |ctx| ctx.rank);
        std::env::remove_var("HIPMER_THREADS");
        assert_eq!(results, vec![0, 1, 2]);
    }
}
