//! Shared rank pool: leasing [`Team`] allocations to concurrent jobs.
//!
//! A long-lived service (the `hipmer serve` daemon) runs many assemblies
//! at once on one host. Letting every job build a full-sized [`Team`]
//! would oversubscribe both the virtual-rank budget the operator sized
//! the machine for and the OS threads the teams multiplex onto. A
//! [`TeamPool`] owns that budget: jobs **lease** a rank allocation
//! ([`TeamLease`]), build a `Team` from it, and return the ranks
//! automatically when the lease drops — including on panic, so an
//! aborted job can never leak its allocation.
//!
//! The pool is deliberately policy-free: it answers "are `n` ranks
//! free?" and fails fast, while *which* job gets the next
//! lease (fair share, priorities, anti-starvation) is the scheduler's
//! decision in the serving layer. OS threads are divided proportionally:
//! a lease for half the pool's ranks runs its team on half the pool's
//! worker threads (always at least one), so concurrent teams don't
//! oversubscribe the host.

use crate::team::Team;
use crate::topology::Topology;
use std::sync::{Arc, Mutex};

/// Mutable pool state guarded by the mutex: ranks currently leased out.
#[derive(Debug)]
struct PoolState {
    leased: usize,
}

/// A shared budget of virtual ranks (and the OS threads they multiplex
/// onto) that concurrent jobs lease [`Team`] allocations from. See the
/// [module docs](self).
#[derive(Debug)]
pub struct TeamPool {
    total_ranks: usize,
    ranks_per_node: usize,
    os_threads: usize,
    state: Mutex<PoolState>,
}

impl TeamPool {
    /// A pool of `total_ranks` virtual ranks grouped `ranks_per_node` to
    /// a node, multiplexed over the host's available parallelism.
    ///
    /// # Panics
    /// Panics if either argument is zero.
    pub fn new(total_ranks: usize, ranks_per_node: usize) -> Self {
        // Validate eagerly with the same contract as `Topology::new`.
        let _ = Topology::new(total_ranks, ranks_per_node);
        let os_threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        TeamPool {
            total_ranks,
            ranks_per_node,
            os_threads,
            state: Mutex::new(PoolState { leased: 0 }),
        }
    }

    /// Override the pool's OS-thread budget (`0` clamps to 1).
    pub fn with_os_threads(mut self, n: usize) -> Self {
        self.os_threads = n.max(1);
        self
    }

    /// Total virtual ranks the pool owns.
    pub fn total_ranks(&self) -> usize {
        self.total_ranks
    }

    /// The pool's default ranks-per-node grouping.
    pub fn ranks_per_node(&self) -> usize {
        self.ranks_per_node
    }

    /// The pool's OS-thread budget, divided proportionally among leases.
    pub fn os_threads(&self) -> usize {
        self.os_threads
    }

    /// Ranks currently leased out.
    pub fn leased_ranks(&self) -> usize {
        let state = self.state.lock().expect("pool lock poisoned");
        state.leased
    }

    /// Clamp a requested allocation to something the pool can ever grant
    /// (at least 1 rank, at most the whole pool).
    pub fn clamp_request(&self, ranks: usize) -> usize {
        ranks.clamp(1, self.total_ranks)
    }

    /// The OS-thread share of an `n`-rank lease (proportional, ≥ 1).
    fn thread_share(&self, ranks: usize) -> usize {
        (self.os_threads * ranks / self.total_ranks).max(1)
    }

    /// Lease `ranks` ranks if they are free right now; `None` otherwise.
    /// Requests are clamped with [`TeamPool::clamp_request`].
    pub fn try_lease(self: &Arc<Self>, ranks: usize) -> Option<TeamLease> {
        let ranks = self.clamp_request(ranks);
        let mut state = self.state.lock().expect("pool lock poisoned");
        if state.leased + ranks > self.total_ranks {
            return None;
        }
        state.leased += ranks;
        drop(state);
        Some(TeamLease {
            pool: Arc::clone(self),
            ranks,
            os_threads: self.thread_share(ranks),
        })
    }

    /// Return `ranks` ranks to the pool (the lease's `Drop` path).
    fn release(&self, ranks: usize) {
        let mut state = self.state.lock().expect("pool lock poisoned");
        debug_assert!(state.leased >= ranks, "double release");
        state.leased = state.leased.saturating_sub(ranks);
    }
}

/// An exclusive allocation of ranks (and a proportional OS-thread share)
/// out of a [`TeamPool`]. Returned to the pool on drop.
#[derive(Debug)]
pub struct TeamLease {
    pool: Arc<TeamPool>,
    ranks: usize,
    os_threads: usize,
}

impl TeamLease {
    /// Ranks granted to this lease.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// OS worker threads this lease's team should multiplex onto.
    pub fn os_threads(&self) -> usize {
        self.os_threads
    }

    /// Build a [`Team`] over this allocation with an explicit
    /// ranks-per-node grouping (clamped to the lease size).
    pub fn team_with_rpn(&self, ranks_per_node: usize) -> Team {
        let rpn = ranks_per_node.clamp(1, self.ranks);
        Team::new(Topology::new(self.ranks, rpn)).with_os_threads(self.os_threads)
    }
}

impl Drop for TeamLease {
    fn drop(&mut self) {
        self.pool.release(self.ranks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(ranks: usize) -> Arc<TeamPool> {
        Arc::new(TeamPool::new(ranks, 4).with_os_threads(4))
    }

    #[test]
    fn leases_grant_and_return_ranks() {
        let p = pool(16);
        assert_eq!(p.leased_ranks(), 0);
        let a = p.try_lease(10).expect("10 of 16 free");
        assert_eq!(a.ranks(), 10);
        assert_eq!(p.leased_ranks(), 10);
        assert!(p.try_lease(8).is_none(), "only 6 left");
        let b = p.try_lease(6).expect("exactly 6 left");
        assert_eq!(p.leased_ranks(), 16);
        drop(a);
        assert_eq!(p.leased_ranks(), 6);
        drop(b);
        assert_eq!(p.leased_ranks(), 0);
    }

    #[test]
    fn requests_are_clamped_to_the_pool() {
        let p = pool(8);
        let lease = p.try_lease(1000).expect("clamped to whole pool");
        assert_eq!(lease.ranks(), 8);
        assert!(p.try_lease(0).is_none(), "clamps to 1, pool exhausted");
        drop(lease);
        assert_eq!(p.try_lease(0).expect("1 rank minimum").ranks(), 1);
    }

    #[test]
    fn thread_share_is_proportional_and_at_least_one() {
        let p = Arc::new(TeamPool::new(16, 4).with_os_threads(8));
        let half = p.try_lease(8).unwrap();
        assert_eq!(half.os_threads(), 4);
        let sliver = p.try_lease(1).unwrap();
        assert_eq!(sliver.os_threads(), 1, "never zero threads");
        drop((half, sliver));
    }

    #[test]
    fn leased_team_runs_every_rank() {
        let p = pool(12);
        let lease = p.try_lease(5).expect("5 of 12 free");
        let team = lease.team_with_rpn(p.ranks_per_node());
        assert_eq!(team.ranks(), 5);
        let (ranks_seen, _) = team.run_named("test/leased", |ctx| ctx.rank);
        assert_eq!(ranks_seen, (0..5).collect::<Vec<_>>());
        // An explicit rpn wider than the lease clamps cleanly.
        assert_eq!(lease.team_with_rpn(64).topo().ranks_per_node(), 5);
    }

    #[test]
    fn lease_is_returned_even_when_the_job_panics() {
        let p = pool(8);
        let res = std::panic::catch_unwind({
            let p = Arc::clone(&p);
            move || {
                let _lease = p.try_lease(8).expect("pool is idle");
                panic!("job died");
            }
        });
        assert!(res.is_err());
        assert_eq!(p.leased_ranks(), 0, "drop ran during unwind");
    }
}
