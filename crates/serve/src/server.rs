//! The daemon: accept loop, scheduler thread, worker threads, HTTP
//! routing, and graceful drain.
//!
//! Thread structure:
//!
//! * **accept loop** — a nonblocking `TcpListener` polled every ~20 ms so
//!   it can notice shutdown; each accepted connection is handled on its
//!   own short-lived thread (one request per connection).
//! * **scheduler** — wakes on admissions/completions (condvar, with a
//!   20 ms timeout so it also polls OS signals), applies the
//!   [`crate::sched::SchedQueue`] policies, resolves cache hits without
//!   leasing, and spawns a **worker thread** per dispatched job. Rank
//!   leasing uses [`hipmer_pgas::TeamPool::try_lease`]; when the pool
//!   cannot satisfy the request the picked job is held as
//!   `pending_dispatch` and retried on the next wake, which deliberately
//!   creates head-of-line blocking: the fair-share decision stays binding
//!   instead of being bypassed by whichever smaller job fits.
//! * **workers** — run the executor on the leased sub-team, then update
//!   the record, release the lease (via `Drop`), and wake the scheduler.
//!
//! Drain (SIGTERM/SIGINT or `POST /admin/drain`): admission flips to 503,
//! queued jobs become `cancelled`, running jobs get their cancel flag set
//! so the pipeline stops at the next stage boundary (leaving resumable
//! checkpoints), and the scheduler exits once the last worker finishes.
//!
//! Every counter the daemon keeps lives in its own state, under the one
//! state lock: `GET /v1/stats` serializes a snapshot of them as JSON and
//! `GET /metrics` writes the same snapshot as Prometheus series, so two
//! servers in one process never share a number.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, LockResult, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use hipmer_pgas::json::Value;
use hipmer_pgas::TeamPool;

use crate::cache::{CacheState, ResultCache};
use crate::http;
use crate::job::{CacheDisposition, JobRecord, JobSpec, JobStatus};
use crate::sched::SchedQueue;
use crate::signal;
use crate::{ExecOutcome, JobExecutor};

/// How often the accept loop and scheduler poll for shutdown/signals.
const POLL_INTERVAL: Duration = Duration::from_millis(20);

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; use port 0 to let the OS choose.
    pub addr: String,
    /// Root for the result cache and any server state.
    pub state_dir: PathBuf,
    /// Bounded queue size; admissions beyond it get 429.
    pub queue_capacity: usize,
    /// Max queued+running jobs per tenant; beyond it 429.
    pub tenant_quota: usize,
    /// Total virtual ranks in the shared [`TeamPool`].
    pub pool_ranks: usize,
    /// Ranks per simulated node for the pool's topology.
    pub ranks_per_node: usize,
    /// OS threads multiplexing the pool (`None` = host parallelism).
    pub pool_threads: Option<usize>,
    /// Scheduler passes before a passed-over job is force-picked.
    pub max_starvation_passes: u64,
    /// React to SIGINT/SIGTERM by draining (disable for in-process tests
    /// that must not install handlers).
    pub handle_signals: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            state_dir: PathBuf::from("serve-state"),
            queue_capacity: 64,
            tenant_quota: 16,
            pool_ranks: 16,
            ranks_per_node: 8,
            pool_threads: None,
            max_starvation_passes: 8,
            handle_signals: false,
        }
    }
}

/// Job counters, updated under the state lock with the records they
/// count.
#[derive(Debug, Default)]
struct Stats {
    submitted: u64,
    rejected: u64,
    completed: u64,
    failed: u64,
    cancelled: u64,
    interrupted: u64,
    cache_hits: u64,
    resumed: u64,
}

struct Inner {
    stats: Stats,
    jobs: BTreeMap<u64, JobRecord>,
    queue: SchedQueue,
    /// cache key -> id of the job currently running under it.
    running_keys: HashMap<String, u64>,
    /// Job picked by the scheduler but waiting for pool ranks.
    pending_dispatch: Option<u64>,
    /// Cancel flags of running jobs (drain sets them all).
    cancel_flags: HashMap<u64, Arc<AtomicBool>>,
    running: usize,
    workers: Vec<thread::JoinHandle<()>>,
}

struct Shared {
    cfg: ServeConfig,
    executor: Arc<dyn JobExecutor>,
    pool: Arc<TeamPool>,
    cache: ResultCache,
    started: Instant,
    state: Mutex<Inner>,
    wake: Condvar,
    draining: AtomicBool,
    /// Set once the scheduler has fully drained.
    stopped: AtomicBool,
    /// Set by `join` after the scheduler exits; the accept loop then
    /// stops. Kept separate from `stopped` so status endpoints stay
    /// readable between drain completion and `join` (clients may still be
    /// polling for their jobs' terminal state).
    accept_stop: AtomicBool,
    next_id: AtomicU64,
}

/// A lock or condvar result, recovered if a thread panicked holding the
/// lock: a bug in one request or job must not turn every later request
/// into a panic too, so the server goes on with the state as it was left.
fn recover<T>(result: LockResult<T>) -> T {
    result.unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    fn now_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        recover(self.state.lock())
    }

    /// Release the lock until a wake-up or [`POLL_INTERVAL`], then retake it.
    fn wait<'a>(&self, inner: MutexGuard<'a, Inner>) -> MutexGuard<'a, Inner> {
        recover(self.wake.wait_timeout(inner, POLL_INTERVAL)).0
    }
}

/// A running daemon; dropping it without [`Server::join`] leaks the
/// threads, so call `join` (it returns once drain completes).
pub struct Server {
    shared: Arc<Shared>,
    addr: std::net::SocketAddr,
    accept_thread: Option<thread::JoinHandle<()>>,
    sched_thread: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the accept loop and scheduler, and return the handle.
    pub fn start(cfg: ServeConfig, executor: Arc<dyn JobExecutor>) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let cache = ResultCache::open(&cfg.state_dir)?;
        let mut pool = TeamPool::new(cfg.pool_ranks, cfg.ranks_per_node);
        if let Some(threads) = cfg.pool_threads {
            pool = pool.with_os_threads(threads);
        }
        if cfg.handle_signals {
            signal::install();
        }
        let shared = Arc::new(Shared {
            state: Mutex::new(Inner {
                stats: Stats::default(),
                jobs: BTreeMap::new(),
                queue: SchedQueue::new(
                    cfg.queue_capacity,
                    cfg.tenant_quota,
                    cfg.max_starvation_passes,
                ),
                running_keys: HashMap::new(),
                pending_dispatch: None,
                cancel_flags: HashMap::new(),
                running: 0,
                workers: Vec::new(),
            }),
            cfg,
            executor,
            pool: Arc::new(pool),
            cache,
            started: Instant::now(),
            wake: Condvar::new(),
            draining: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            accept_stop: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
        });

        let accept_shared = Arc::clone(&shared);
        let accept_thread = thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;
        let sched_shared = Arc::clone(&shared);
        let sched_thread = thread::Builder::new()
            .name("serve-sched".into())
            .spawn(move || scheduler_loop(sched_shared))?;

        Ok(Server {
            shared,
            addr,
            accept_thread: Some(accept_thread),
            sched_thread: Some(sched_thread),
        })
    }

    /// The actual bound address (resolves port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Begin a graceful drain (idempotent): stop admitting, cancel the
    /// queue, ask running jobs to stop at the next stage boundary.
    pub fn begin_drain(&self) {
        begin_drain(&self.shared);
    }

    /// True once the scheduler has fully drained.
    pub fn drained(&self) -> bool {
        self.shared.stopped.load(Ordering::SeqCst)
    }

    /// Block until drain completes and both loops have exited.
    pub fn join(mut self) {
        if let Some(t) = self.sched_thread.take() {
            let _ = t.join();
        }
        self.shared.accept_stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

fn begin_drain(shared: &Arc<Shared>) {
    if shared.draining.swap(true, Ordering::SeqCst) {
        return;
    }
    let mut inner = shared.lock();
    let now = shared.now_s();
    // A job picked but still waiting for pool ranks is queued in spirit:
    // cancel it along with the queue proper.
    let mut doomed = inner.queue.cancel_all_queued();
    doomed.extend(inner.pending_dispatch.take());
    for id in doomed {
        if let Some(rec) = inner.jobs.get_mut(&id) {
            rec.status = JobStatus::Cancelled;
            rec.finished_s = Some(now);
        }
        inner.stats.cancelled += 1;
    }
    for flag in inner.cancel_flags.values() {
        flag.store(true, Ordering::SeqCst);
    }
    drop(inner);
    shared.wake.notify_all();
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        if shared.accept_stop.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let conn_shared = Arc::clone(&shared);
                let _ = thread::Builder::new()
                    .name("serve-conn".into())
                    .spawn(move || handle_connection(stream, conn_shared));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(POLL_INTERVAL);
            }
            Err(_) => thread::sleep(POLL_INTERVAL),
        }
    }
}

fn scheduler_loop(shared: Arc<Shared>) {
    loop {
        if shared.cfg.handle_signals && signal::triggered() {
            begin_drain(&shared);
        }
        let mut inner = shared.lock();

        // Exit once drained: nothing queued, pending, or running.
        if shared.draining.load(Ordering::SeqCst)
            && inner.queue.depth() == 0
            && inner.pending_dispatch.is_none()
            && inner.running == 0
        {
            let workers = std::mem::take(&mut inner.workers);
            drop(inner);
            for w in workers {
                let _ = w.join();
            }
            shared.stopped.store(true, Ordering::SeqCst);
            return;
        }

        // Retry a dispatch that was waiting for pool ranks, else pick.
        let candidate = inner.pending_dispatch.take().or_else(|| {
            if shared.draining.load(Ordering::SeqCst) {
                None
            } else {
                inner.queue.pick().map(|(id, _)| id)
            }
        });

        match candidate {
            Some(id) if try_dispatch(&shared, &mut inner, id) => {}
            Some(id) => {
                inner.pending_dispatch = Some(id);
                drop(shared.wait(inner));
            }
            None => drop(shared.wait(inner)),
        }
    }
}

/// Dispatch job `id`: resolve it as a cache hit, or lease ranks and spawn
/// a worker. Returns false when the pool cannot satisfy the request yet
/// (the caller re-queues it as `pending_dispatch`).
fn try_dispatch(shared: &Arc<Shared>, inner: &mut Inner, id: u64) -> bool {
    let now = shared.now_s();
    // A vanished record, or one drain cancelled between pick and dispatch,
    // drops the dispatch.
    let Some(rec) = inner.jobs.get_mut(&id) else {
        return true;
    };
    if rec.status != JobStatus::Queued {
        return true;
    }
    let key = rec.cache_key.clone();

    // A completed cache entry satisfies the job without leasing anything.
    if shared.cache.state(&key) == CacheState::Complete {
        rec.status = JobStatus::Completed;
        rec.cache = CacheDisposition::Hit;
        rec.started_s = Some(now);
        rec.finished_s = Some(now);
        inner.stats.cache_hits += 1;
        inner.stats.completed += 1;
        return true;
    }

    let Some(lease) = shared
        .pool
        .try_lease(shared.pool.clamp_request(rec.spec.ranks))
    else {
        return false;
    };
    let resume = shared.cache.state(&key) == CacheState::Partial;
    // An unwritable state dir, or no thread for the worker, fails the job,
    // not the server; the lease goes back to the pool as it drops.
    let fail = |rec: &mut JobRecord, error: &str| {
        rec.status = JobStatus::Failed;
        rec.error = Some(error.to_string());
        rec.finished_s = Some(now);
    };
    if shared.cache.prepare(&key).is_err() {
        fail(rec, "cannot create cache directory");
        inner.stats.failed += 1;
        return true;
    }

    let cancel = Arc::new(AtomicBool::new(shared.draining.load(Ordering::SeqCst)));
    let ranks = lease.ranks();
    // The worker reports back through `finish_job`, which waits for the
    // state lock this dispatch holds.
    let worker = {
        let (shared, key, spec, cancel) = (
            Arc::clone(shared),
            key.clone(),
            rec.spec.clone(),
            Arc::clone(&cancel),
        );
        let out_dir = shared.cache.dir(&key);
        thread::Builder::new()
            .name(format!("serve-job-{id}"))
            .spawn(move || {
                let outcome = shared
                    .executor
                    .execute(id, &spec, &lease, &out_dir, resume, &cancel);
                drop(lease); // release ranks before taking the state lock
                finish_job(&shared, id, &key, &spec.tenant, ranks, outcome);
            })
    };
    let Ok(worker) = worker else {
        fail(rec, "worker spawn failed");
        inner.stats.failed += 1;
        return true;
    };
    rec.status = JobStatus::Running;
    rec.cache = if resume {
        CacheDisposition::Resumed
    } else {
        CacheDisposition::Miss
    };
    rec.started_s = Some(now);
    rec.leased_ranks = ranks;
    inner.stats.resumed += u64::from(resume);
    inner.queue.mark_running(&rec.spec.tenant, ranks);
    inner.workers.push(worker);
    inner.running += 1;
    inner.running_keys.insert(key.clone(), id);
    inner.cancel_flags.insert(id, cancel);
    // Queued duplicates wait for this run rather than recomputing.
    set_duplicates_blocked(inner, &key, true);
    true
}

/// Block or unblock every queued job under cache key `key`.
fn set_duplicates_blocked(inner: &mut Inner, key: &str, blocked: bool) {
    let queued = inner.jobs.values();
    let dups = queued.filter(|j| j.status == JobStatus::Queued && j.cache_key == key);
    for dup in dups {
        inner.queue.set_blocked(dup.id, blocked);
    }
}

fn finish_job(
    shared: &Shared,
    id: u64,
    key: &str,
    tenant: &str,
    ranks: usize,
    outcome: ExecOutcome,
) {
    let mut inner = shared.lock();
    let inner = &mut *inner;
    let (status, error) = match outcome {
        ExecOutcome::Completed { summary } => match shared.cache.commit(key, &summary) {
            Ok(()) => (JobStatus::Completed, None),
            Err(e) => (JobStatus::Failed, Some(format!("cache commit failed: {e}"))),
        },
        ExecOutcome::Interrupted => (JobStatus::Interrupted, None),
        ExecOutcome::Failed { error } => (JobStatus::Failed, Some(error)),
    };
    let tally = match status {
        JobStatus::Completed => &mut inner.stats.completed,
        JobStatus::Interrupted => &mut inner.stats.interrupted,
        _ => &mut inner.stats.failed,
    };
    *tally += 1;
    if let Some(rec) = inner.jobs.get_mut(&id) {
        rec.status = status;
        rec.error = error;
        rec.finished_s = Some(shared.now_s());
    }

    inner.running -= 1;
    inner.running_keys.remove(key);
    inner.cancel_flags.remove(&id);
    inner.queue.mark_finished(tenant, ranks);
    // Unblock queued duplicates: if we completed they will resolve as
    // cache hits; otherwise one of them becomes the new primary (and will
    // resume from whatever checkpoints this run left).
    set_duplicates_blocked(inner, key, false);
    shared.wake.notify_all();
}

fn json_error(reason: &str, detail: &str) -> Vec<u8> {
    let mut v = Value::obj();
    v.set("error", reason).set("detail", detail);
    v.to_json().into_bytes()
}

fn handle_connection(mut stream: TcpStream, shared: Arc<Shared>) {
    let req = match http::read_request(&mut stream) {
        Ok(r) => r,
        Err(http::ParseError::TooLarge(d)) => {
            let _ = http::write_response(
                &mut stream,
                413,
                "application/json",
                &json_error("too_large", d),
            );
            return;
        }
        Err(http::ParseError::Bad(d)) => {
            let _ = http::write_response(
                &mut stream,
                400,
                "application/json",
                &json_error("bad_request", d),
            );
            return;
        }
        Err(http::ParseError::Io(_)) => return,
    };
    let (status, content_type, body) = route(&req, &shared);
    let _ = http::write_response(&mut stream, status, content_type, &body);
}

fn route(req: &http::Request, shared: &Arc<Shared>) -> (u16, &'static str, Vec<u8>) {
    let path: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), path.as_slice()) {
        ("GET", ["healthz"]) => {
            let mut v = Value::obj();
            v.set("status", "ok")
                .set("draining", shared.draining.load(Ordering::SeqCst));
            (200, "application/json", v.to_json().into_bytes())
        }
        ("GET", ["metrics"]) => (
            200,
            "text/plain; version=0.0.4",
            metrics_text(shared).into_bytes(),
        ),
        ("GET", ["v1", "stats"]) => (200, "application/json", stats_doc(shared).into_bytes()),
        ("GET", ["v1", "jobs"]) => {
            let inner = shared.lock();
            let list: Vec<Value> = inner.jobs.values().map(JobRecord::to_value).collect();
            (
                200,
                "application/json",
                Value::Arr(list).to_json().into_bytes(),
            )
        }
        ("GET", ["v1", "jobs", id]) => match lookup_job(shared, id) {
            Some(rec) => (
                200,
                "application/json",
                rec.to_value().to_json().into_bytes(),
            ),
            None => (
                404,
                "application/json",
                json_error("not_found", "no such job"),
            ),
        },
        ("GET", ["v1", "jobs", id, "report"]) => {
            serve_artifact(shared, id, "report.json", "application/json")
        }
        ("GET", ["v1", "jobs", id, "fasta"]) => {
            serve_artifact(shared, id, "scaffolds.fasta", "text/plain")
        }
        ("GET", ["v1", "jobs", id, "trace"]) => {
            serve_artifact(shared, id, "trace.json", "application/json")
        }
        ("POST", ["v1", "jobs"]) => submit(shared, &req.body),
        ("POST", ["admin", "drain"]) => {
            begin_drain(shared);
            let mut v = Value::obj();
            v.set("status", "draining");
            (202, "application/json", v.to_json().into_bytes())
        }
        ("GET", _) => (
            404,
            "application/json",
            json_error("not_found", "unknown path"),
        ),
        _ => (
            405,
            "application/json",
            json_error("method_not_allowed", "unsupported method"),
        ),
    }
}

fn lookup_job(shared: &Arc<Shared>, id: &str) -> Option<JobRecord> {
    let id: u64 = id.parse().ok()?;
    shared.lock().jobs.get(&id).cloned()
}

/// A completed job's output `file` from the result cache.
fn serve_artifact(
    shared: &Arc<Shared>,
    id: &str,
    file: &str,
    content_type: &'static str,
) -> (u16, &'static str, Vec<u8>) {
    let Some(rec) = lookup_job(shared, id) else {
        return (
            404,
            "application/json",
            json_error("not_found", "no such job"),
        );
    };
    if rec.status != JobStatus::Completed {
        return (
            409,
            "application/json",
            json_error("not_ready", rec.status.as_str()),
        );
    }
    match shared.cache.read_output(&rec.cache_key, file) {
        Ok(bytes) => (200, content_type, bytes),
        Err(_) => (
            404,
            "application/json",
            json_error("not_found", "artifact missing from cache"),
        ),
    }
}

fn submit(shared: &Arc<Shared>, body: &[u8]) -> (u16, &'static str, Vec<u8>) {
    if shared.draining.load(Ordering::SeqCst) {
        return (
            503,
            "application/json",
            json_error("draining", "server is draining; not admitting jobs"),
        );
    }
    let spec = match JobSpec::from_json(body) {
        Ok(s) => s,
        Err(e) => return (400, "application/json", json_error("bad_spec", &e)),
    };
    let key = match shared.executor.cache_key(&spec) {
        Ok(k) => k,
        Err(e) => return (400, "application/json", json_error("bad_input", &e)),
    };

    let mut inner = shared.lock();
    let id = shared.next_id.fetch_add(1, Ordering::SeqCst);
    if let Err(reason) = inner.queue.try_admit(id, &spec.tenant, spec.priority) {
        inner.stats.rejected += 1;
        return (
            429,
            "application/json",
            json_error(reason.as_str(), "admission refused; retry with backoff"),
        );
    }
    if inner.running_keys.contains_key(&key) {
        inner.queue.set_blocked(id, true);
    }
    let rec = JobRecord::new(id, spec, key, shared.now_s());
    let doc = rec.to_value().to_json().into_bytes();
    inner.jobs.insert(id, rec);
    inner.stats.submitted += 1;
    drop(inner);
    shared.wake.notify_all();
    (200, "application/json", doc)
}

/// The daemon's numbers at one instant, in `/v1/stats` order, each as
/// `(field, series, type, value)`: `/v1/stats` writes `field: value`, and
/// `/metrics` one sample of the Prometheus `series` of that `type`.
fn stats_snapshot(shared: &Shared) -> [(&'static str, &'static str, &'static str, f64); 13] {
    let inner = shared.lock();
    let s = &inner.stats;
    let (counter, gauge) = ("counter", "gauge");
    [
        (
            "submitted",
            "serve_jobs_submitted",
            counter,
            s.submitted as f64,
        ),
        (
            "rejected",
            "serve_jobs_rejected",
            counter,
            s.rejected as f64,
        ),
        (
            "completed",
            "serve_jobs_completed",
            counter,
            s.completed as f64,
        ),
        ("failed", "serve_jobs_failed", counter, s.failed as f64),
        (
            "cancelled",
            "serve_jobs_cancelled",
            counter,
            s.cancelled as f64,
        ),
        (
            "interrupted",
            "serve_jobs_interrupted",
            counter,
            s.interrupted as f64,
        ),
        (
            "cache_hits",
            "serve_cache_hits",
            counter,
            s.cache_hits as f64,
        ),
        ("resumed", "serve_cache_resumes", counter, s.resumed as f64),
        (
            "queue_depth",
            "serve_sched_queue_depth",
            gauge,
            inner.queue.depth() as f64,
        ),
        ("running", "serve_jobs_running", gauge, inner.running as f64),
        (
            "pool_ranks",
            "serve_pool_ranks",
            gauge,
            shared.pool.total_ranks() as f64,
        ),
        (
            "leased_ranks",
            "serve_pool_leased_ranks",
            gauge,
            shared.pool.leased_ranks() as f64,
        ),
        ("uptime_s", "serve_uptime_seconds", gauge, shared.now_s()),
    ]
}

/// `GET /v1/stats`: the snapshot, plus whether the daemon is draining.
fn stats_doc(shared: &Shared) -> String {
    let mut v = Value::obj();
    for (field, _, _, value) in stats_snapshot(shared) {
        v.set(field, value);
    }
    v.set("draining", shared.draining.load(Ordering::SeqCst));
    v.to_json()
}

/// `GET /metrics`: the snapshot in Prometheus text-exposition format.
fn metrics_text(shared: &Shared) -> String {
    let mut out = String::new();
    for (_, series, kind, value) in stats_snapshot(shared) {
        let _ = writeln!(out, "# TYPE {series} {kind}\n{series} {value}");
    }
    out
}
