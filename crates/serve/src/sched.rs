//! Admission control and fair-share job selection.
//!
//! This module is pure bookkeeping — no threads, no I/O — so every policy
//! is unit-testable. The server owns a [`SchedQueue`] behind a mutex and
//! drives it: admit on `POST /v1/jobs`, `pick` from the scheduler thread,
//! `mark_running` / `mark_finished` around execution.
//!
//! Policies, in order of application:
//!
//! 1. **Admission** — reject with a typed reason when the bounded queue is
//!    full, or when one tenant's queued+running jobs would exceed its
//!    quota. Both map to HTTP 429 so clients can back off and retry.
//! 2. **Duplicate suppression** — the server marks a queued job *blocked*
//!    while another job with the same cache key is running; `pick` skips
//!    blocked jobs. When the primary finishes, the duplicate dispatches
//!    and resolves instantly as a cache hit instead of recomputing.
//! 3. **Fair share** — among tenants with an eligible queued job, pick
//!    the tenant currently holding the fewest leased ranks (HipMer's
//!    `Team` pool is the contended resource, so fairness is measured in
//!    ranks, not job counts). Within a tenant: highest priority, then
//!    submission order.
//! 4. **Anti-starvation** — a job passed over `max_starvation_passes`
//!    times is picked unconditionally next, oldest first, so a stream of
//!    high-priority submissions cannot starve a low-priority job forever.

use std::collections::HashMap;

/// Why admission refused a job; both reasons map to HTTP 429.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The bounded queue is at capacity.
    QueueFull,
    /// The tenant is at its queued+running quota.
    TenantQuota,
}

impl RejectReason {
    /// Wire name for the JSON error body.
    pub fn as_str(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue_full",
            RejectReason::TenantQuota => "tenant_quota",
        }
    }
}

#[derive(Debug)]
struct QueuedJob {
    id: u64,
    tenant: String,
    priority: i64,
    /// Times `pick` chose some other eligible job over this one.
    passes: u64,
    /// True while another running job shares this job's cache key.
    blocked: bool,
}

#[derive(Debug, Default)]
struct TenantShare {
    queued: usize,
    running: usize,
    leased_ranks: usize,
}

/// Scheduler state: the bounded queue plus per-tenant accounting.
#[derive(Debug)]
pub struct SchedQueue {
    queue_capacity: usize,
    tenant_quota: usize,
    max_starvation_passes: u64,
    queued: Vec<QueuedJob>,
    tenants: HashMap<String, TenantShare>,
}

impl SchedQueue {
    /// A queue bounded at `queue_capacity` jobs, with each tenant limited
    /// to `tenant_quota` queued+running jobs, promoting jobs passed over
    /// more than `max_starvation_passes` times.
    pub fn new(queue_capacity: usize, tenant_quota: usize, max_starvation_passes: u64) -> Self {
        SchedQueue {
            queue_capacity,
            tenant_quota,
            max_starvation_passes,
            queued: Vec::new(),
            tenants: HashMap::new(),
        }
    }

    /// Jobs currently queued.
    pub fn depth(&self) -> usize {
        self.queued.len()
    }

    /// Total ranks currently leased across all tenants.
    pub fn leased_ranks(&self) -> usize {
        self.tenants.values().map(|t| t.leased_ranks).sum()
    }

    /// Admit a job or reject it with a reason.
    pub fn try_admit(&mut self, id: u64, tenant: &str, priority: i64) -> Result<(), RejectReason> {
        if self.queued.len() >= self.queue_capacity {
            return Err(RejectReason::QueueFull);
        }
        let share = self.tenants.entry(tenant.to_string()).or_default();
        if share.queued + share.running >= self.tenant_quota {
            return Err(RejectReason::TenantQuota);
        }
        share.queued += 1;
        self.queued.push(QueuedJob {
            id,
            tenant: tenant.to_string(),
            priority,
            passes: 0,
            blocked: false,
        });
        Ok(())
    }

    /// Mark a queued job (un)blocked by a running job with the same cache
    /// key. No-op if the id is not queued.
    pub fn set_blocked(&mut self, id: u64, blocked: bool) {
        if let Some(j) = self.queued.iter_mut().find(|j| j.id == id) {
            j.blocked = blocked;
        }
    }

    /// Choose and remove the next job to dispatch, or `None` if no queued
    /// job is eligible. Returns `(id, tenant)`.
    pub fn pick(&mut self) -> Option<(u64, String)> {
        let eligible: Vec<usize> = self
            .queued
            .iter()
            .enumerate()
            .filter(|(_, j)| !j.blocked)
            .map(|(i, _)| i)
            .collect();

        // Fair share: min leased ranks, then max priority, then FIFO. No
        // eligible job, no pick.
        let fairest = eligible.iter().copied().min_by_key(|&i| {
            let j = &self.queued[i];
            let leased = self
                .tenants
                .get(&j.tenant)
                .map(|t| t.leased_ranks)
                .unwrap_or(0);
            (leased, std::cmp::Reverse(j.priority), j.id)
        })?;
        // Anti-starvation overrides it: any job passed over too many times
        // wins, oldest first (queue order is submission order).
        let chosen = (eligible.iter().copied())
            .find(|&i| self.queued[i].passes >= self.max_starvation_passes)
            .unwrap_or(fairest);

        for &i in &eligible {
            if i != chosen {
                self.queued[i].passes += 1;
            }
        }
        let job = self.queued.remove(chosen);
        if let Some(share) = self.tenants.get_mut(&job.tenant) {
            share.queued = share.queued.saturating_sub(1);
        }
        Some((job.id, job.tenant))
    }

    /// Record that a picked job is now running on `ranks` leased ranks.
    pub fn mark_running(&mut self, tenant: &str, ranks: usize) {
        let share = self.tenants.entry(tenant.to_string()).or_default();
        share.running += 1;
        share.leased_ranks += ranks;
    }

    /// Record that a running job released its `ranks`.
    pub fn mark_finished(&mut self, tenant: &str, ranks: usize) {
        if let Some(share) = self.tenants.get_mut(tenant) {
            share.running = share.running.saturating_sub(1);
            share.leased_ranks = share.leased_ranks.saturating_sub(ranks);
        }
    }

    /// Remove every queued job (drain). Returns the cancelled ids.
    pub fn cancel_all_queued(&mut self) -> Vec<u64> {
        let ids: Vec<u64> = self.queued.iter().map(|j| j.id).collect();
        for j in &self.queued {
            if let Some(share) = self.tenants.get_mut(&j.tenant) {
                share.queued = share.queued.saturating_sub(1);
            }
        }
        self.queued.clear();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn queue() -> SchedQueue {
        SchedQueue::new(4, 2, 3)
    }

    #[test]
    fn queue_capacity_rejects_overflow() {
        let mut q = SchedQueue::new(2, 10, 3);
        q.try_admit(1, "a", 0).unwrap();
        q.try_admit(2, "b", 0).unwrap();
        assert_eq!(q.try_admit(3, "c", 0), Err(RejectReason::QueueFull));
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn tenant_quota_counts_queued_plus_running() {
        let mut q = queue();
        q.try_admit(1, "a", 0).unwrap();
        let (id, tenant) = q.pick().unwrap();
        assert_eq!(id, 1);
        q.mark_running(&tenant, 4);
        q.try_admit(2, "a", 0).unwrap();
        // 1 running + 1 queued = quota of 2.
        assert_eq!(q.try_admit(3, "a", 0), Err(RejectReason::TenantQuota));
        // Other tenants are unaffected.
        q.try_admit(4, "b", 0).unwrap();
        // Finishing the running job frees quota for one more submission.
        q.mark_finished("a", 4);
        q.try_admit(5, "a", 0).unwrap();
        assert_eq!(q.try_admit(6, "a", 0), Err(RejectReason::TenantQuota));
    }

    #[test]
    fn fair_share_prefers_tenant_with_fewer_leased_ranks() {
        let mut q = queue();
        q.mark_running("a", 8); // tenant a holds 8 ranks
        q.try_admit(1, "a", 100).unwrap(); // high priority but rich tenant
        q.try_admit(2, "b", 0).unwrap(); // poor tenant wins
        assert_eq!(q.pick().unwrap().0, 2);
        assert_eq!(q.pick().unwrap().0, 1);
    }

    #[test]
    fn priority_then_fifo_within_a_tenant() {
        let mut q = SchedQueue::new(8, 8, 100);
        q.try_admit(1, "a", 0).unwrap();
        q.try_admit(2, "a", 5).unwrap();
        q.try_admit(3, "a", 5).unwrap();
        assert_eq!(q.pick().unwrap().0, 2); // highest priority, earliest id
        assert_eq!(q.pick().unwrap().0, 3);
        assert_eq!(q.pick().unwrap().0, 1);
    }

    #[test]
    fn starved_job_is_promoted_after_max_passes() {
        let mut q = SchedQueue::new(16, 16, 2);
        q.try_admit(1, "a", 0).unwrap(); // low priority, submitted first
        q.try_admit(2, "a", 9).unwrap();
        q.try_admit(3, "a", 9).unwrap();
        q.try_admit(4, "a", 9).unwrap();
        assert_eq!(q.pick().unwrap().0, 2); // job 1 passed over (1)
        assert_eq!(q.pick().unwrap().0, 3); // job 1 passed over (2) -> starved
        assert_eq!(q.pick().unwrap().0, 1); // promoted past job 4
        assert_eq!(q.pick().unwrap().0, 4);
    }

    #[test]
    fn blocked_jobs_are_skipped_until_unblocked() {
        let mut q = queue();
        q.try_admit(1, "a", 0).unwrap();
        q.try_admit(2, "b", 0).unwrap();
        q.set_blocked(1, true);
        assert_eq!(q.pick().unwrap().0, 2);
        assert_eq!(q.pick(), None);
        q.set_blocked(1, false);
        assert_eq!(q.pick().unwrap().0, 1);
    }

    #[test]
    fn drain_cancels_everything_queued() {
        let mut q = queue();
        q.try_admit(1, "a", 0).unwrap();
        q.try_admit(2, "b", 0).unwrap();
        assert_eq!(q.cancel_all_queued(), vec![1, 2]);
        assert_eq!(q.depth(), 0);
        // Quota accounting was released.
        q.try_admit(3, "a", 0).unwrap();
        q.try_admit(4, "a", 0).unwrap();
    }
}
