//! A multi-tenant job server: queued submission, scheduling pools,
//! admission control and cooperative cancellation on one shared
//! [`Cluster`].
//!
//! PR 5's DAG scheduler gave one job concurrent stages; this module is
//! the next scale step — many *jobs* in flight on one long-lived cluster,
//! the "thousands of concurrent decomposition/prediction requests"
//! deployment the CSTF paper gestures at and Spark serves with its
//! FIFO/FAIR scheduler pools. The moving parts:
//!
//! * **Submission queue.** [`JobServer::submit`] enqueues a job closure
//!   under a tenant name and returns a [`JobHandle`] immediately; the
//!   caller can poll, block on, or cancel the job through the handle.
//! * **Scheduling pools.** Each tenant maps to a [`PoolConfig`] pool (a
//!   fresh weight-1 pool is created on first submission if none is
//!   declared). Under [`SchedulingMode::Fifo`] the server dispatches in
//!   strict submission order across all pools; under
//!   [`SchedulingMode::Fair`] it picks the pool with the least executed
//!   service (stage waves) per unit weight, so a pool of short
//!   prediction jobs is never starved behind long training jobs.
//! * **Admission control.** At most `max_concurrent_jobs` jobs run at
//!   once; the rest wait in their pool's queue. Queue delay is metered
//!   per job and reported per pool (the JOBS report section).
//! * **Cancellation.** [`JobHandle::cancel`] sets a [`CancelToken`] the
//!   scheduler checks before every wave — shuffle-map and result waves
//!   run through the same loop — and that
//!   [`Executor::run_wave`](crate::executor::Executor::run_wave) observes
//!   inside one: before starting each queued attempt, and from the
//!   driver's timed wait while every worker is busy. In-flight attempts
//!   finish but a cancelled wave commits nothing, so shuffle and
//!   block-manager state stay consistent and the cluster remains
//!   reusable.
//!
//! # Determinism under concurrency
//!
//! Stages from distinct jobs interleave freely in the shared
//! [`crate::executor::Executor`] task-slot pool, yet every job's results
//! are bit-identical to a solo [`crate::ClusterConfig::sequential_stages`] run
//! (`crates/dataflow/tests/jobserver.rs` proves this over seeded
//! interleavings, quiet and under fault injection). The argument is the
//! scheduler's own determinism argument, applied per job: each job runs
//! on its own driver thread, which commits that job's stage outputs in
//! deterministic stage order after each wave; shuffle map outputs are
//! first-writer-wins per (shuffle, partition), and shuffle ids are
//! allocated from the lineage a job's own closure builds. Cross-job
//! interleaving only perturbs *when* waves run and how task attempts
//! share cores — never which value a (shuffle, partition) slot commits.
//!
//! ```
//! use cstf_dataflow::prelude::*;
//! use cstf_dataflow::{JobServer, JobServerConfig};
//!
//! let cluster = Cluster::new(ClusterConfig::local(4));
//! let server = JobServer::new(&cluster, JobServerConfig::fair(2));
//! let job = server.submit("tenant-a", |c: &Cluster| {
//!     c.parallelize(vec![1u32, 2, 3], 2).map(|x| x * 2).collect()
//! });
//! assert_eq!(job.join().completed().unwrap(), vec![2, 4, 6]);
//! ```

use crate::context::{Cluster, JobSession};
use crate::executor::{panic_message, CancelToken};
use crate::metrics::{JobOutcomeKind, JobRecord};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Weak};
use std::time::Instant;

use crate::config::{JobServerConfig, SchedulingMode};

/// Panic payload used to unwind a cancelled job's driver thread. The
/// scheduler raises it before a wave (via `Cluster::check_cancel`) or
/// when the executor reports the wave cancelled, and the server's driver
/// wrapper catches it and records the job as
/// [`JobOutcomeKind::Cancelled`] — it never escapes the server.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JobCancelled;

/// Where a submitted job currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JobStatus {
    /// Waiting in its pool's queue for an admission slot.
    Queued,
    /// Dispatched; its closure is running on a driver thread.
    Running,
    /// Finished (completed, cancelled or failed); the outcome is ready.
    Finished,
}

/// How a job ended, with its value if it completed.
#[derive(Debug)]
pub enum JobOutcome<T> {
    /// The job's closure returned this value.
    Completed(T),
    /// The job was cancelled before or while running.
    Cancelled,
    /// The job's closure panicked; the payload's message is preserved.
    Failed(String),
}

impl<T> JobOutcome<T> {
    /// The completed value, if any.
    pub fn completed(self) -> Option<T> {
        match self {
            JobOutcome::Completed(v) => Some(v),
            _ => None,
        }
    }

    /// The metrics-side classification of this outcome.
    pub fn kind(&self) -> JobOutcomeKind {
        match self {
            JobOutcome::Completed(_) => JobOutcomeKind::Completed,
            JobOutcome::Cancelled => JobOutcomeKind::Cancelled,
            JobOutcome::Failed(_) => JobOutcomeKind::Failed,
        }
    }
}

/// Handle state shared between a [`JobHandle`] and the server.
enum HandleState<T> {
    Queued,
    Running,
    /// `None` once the outcome has been taken by [`JobHandle::join`].
    Finished(Option<JobOutcome<T>>),
}

struct HandleShared<T> {
    state: Mutex<HandleState<T>>,
    ready: Condvar,
    cancel: CancelToken,
}

impl<T> HandleShared<T> {
    fn set_running(&self) {
        let mut st = self.state.lock();
        if matches!(*st, HandleState::Queued) {
            *st = HandleState::Running;
        }
    }

    /// The outcome is stored under the lock `join` checks and parks under,
    /// so a joiner either sees it or is already parked when notified.
    fn finish(&self, outcome: JobOutcome<T>) {
        *self.state.lock() = HandleState::Finished(Some(outcome));
        self.ready.notify_all();
    }
}

/// Caller-side handle to a submitted job: poll it, block on it, or
/// cancel it. Dropping the handle detaches from the job (it still runs).
pub struct JobHandle<T> {
    shared: Arc<HandleShared<T>>,
    server: Weak<ServerInner>,
    id: usize,
    pool: String,
}

impl<T> JobHandle<T> {
    /// Server-assigned job id (the `server_job` on this job's stages and
    /// on its [`JobRecord`]).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Non-blocking lifecycle probe.
    pub(crate) fn status(&self) -> JobStatus {
        match *self.shared.state.lock() {
            HandleState::Queued => JobStatus::Queued,
            HandleState::Running => JobStatus::Running,
            HandleState::Finished(_) => JobStatus::Finished,
        }
    }

    /// Requests cooperative cancellation. A queued job is dropped from
    /// its pool at the dispatcher's next pass; a running job stops at
    /// its next wave boundary. Idempotent; a job that already finished
    /// is unaffected.
    pub fn cancel(&self) {
        self.shared.cancel.cancel();
        if let Some(server) = self.server.upgrade() {
            // Signal under `state`: the dispatcher scans the cancel tokens
            // and parks while holding it, so it cannot miss this wakeup.
            let _st = server.state.lock();
            server.wake.notify_all();
        }
    }

    /// Blocks until the job finishes and returns its outcome.
    ///
    /// # Panics
    ///
    /// If called twice for the same job (the outcome is taken by value).
    pub fn join(self) -> JobOutcome<T> {
        let mut st = self.shared.state.lock();
        loop {
            if let HandleState::Finished(outcome) = &mut *st {
                return outcome.take().expect("job outcome already taken");
            }
            st = self.shared.ready.wait(st).expect("job handle poisoned");
        }
    }
}

impl<T> std::fmt::Debug for JobHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.id)
            .field("pool", &self.pool)
            .field("status", &self.status())
            .finish()
    }
}

/// A queued, not-yet-dispatched job: everything the dispatcher needs,
/// with the typed closure and handle erased behind `FnOnce` boxes.
struct QueuedJob {
    id: usize,
    tenant: String,
    pool: usize,
    submit_seq: usize,
    submitted_at: Instant,
    cancel: CancelToken,
    /// Runs the job on the given session cluster handle and resolves the
    /// caller's handle; returns how the job ended.
    run: Box<dyn FnOnce(&Cluster) -> JobOutcomeKind + Send>,
    /// Resolves the caller's handle as cancelled without running.
    abandon: Box<dyn FnOnce() + Send>,
}

/// One scheduling pool: a FIFO queue plus its live service counter
/// (stage waves executed by the pool's jobs, bumped by the scheduler
/// through [`JobSession::pool_service`] as waves run — not on completion,
/// so fairness reacts to long jobs *while* they run).
struct Pool {
    name: String,
    weight: f64,
    queue: VecDeque<QueuedJob>,
    service: Arc<AtomicU64>,
}

struct ServerState {
    pools: Vec<Pool>,
    paused: bool,
    /// Set by [`JobServer::stop`]; the dispatcher exits when it sees it.
    shutdown: bool,
    /// Jobs currently dispatched (admission-controlled: ≤ cap).
    running: usize,
    next_job: usize,
    next_submit: usize,
    /// Driver threads of dispatched jobs, joined on shutdown.
    drivers: Vec<std::thread::JoinHandle<()>>,
}

struct ServerInner {
    cluster: Cluster,
    mode: SchedulingMode,
    cap: usize,
    state: Mutex<ServerState>,
    /// Signalled on submission, job completion, cancel and shutdown —
    /// always after the signalled change was made under `state`, which the
    /// dispatcher holds from its check to its park.
    wake: Condvar,
    /// Dispatch order across the whole server (JobRecord `start_seq`).
    next_start_seq: AtomicUsize,
    /// High-water mark of concurrently running jobs (cap audit).
    peak_running: AtomicUsize,
}

impl ServerInner {
    /// Index of the pool named `name`, creating a weight-1 pool if absent.
    fn pool_index(st: &mut ServerState, name: &str) -> usize {
        if let Some(i) = st.pools.iter().position(|p| p.name == name) {
            return i;
        }
        st.pools.push(Pool {
            name: name.to_string(),
            weight: 1.0,
            queue: VecDeque::new(),
            service: Arc::new(AtomicU64::new(0)),
        });
        st.pools.len() - 1
    }

    /// Picks the next queued job under the configured policy. FIFO takes
    /// the globally earliest submission; FAIR takes the front of the
    /// pool with the least executed service per unit weight, breaking
    /// ties by earliest front submission (which also orders the all-zero
    /// cold start deterministically).
    fn pick(&self, st: &mut ServerState) -> Option<QueuedJob> {
        let candidate = match self.mode {
            SchedulingMode::Fifo => st
                .pools
                .iter()
                .enumerate()
                .filter(|(_, p)| !p.queue.is_empty())
                .min_by_key(|(_, p)| p.queue[0].submit_seq)
                .map(|(i, _)| i),
            SchedulingMode::Fair => st
                .pools
                .iter()
                .enumerate()
                .filter(|(_, p)| !p.queue.is_empty())
                .min_by(|(_, a), (_, b)| {
                    let sa = a.service.load(Ordering::Relaxed) as f64 / a.weight;
                    let sb = b.service.load(Ordering::Relaxed) as f64 / b.weight;
                    sa.total_cmp(&sb)
                        .then(a.queue[0].submit_seq.cmp(&b.queue[0].submit_seq))
                })
                .map(|(i, _)| i),
        };
        candidate.and_then(|i| st.pools[i].queue.pop_front())
    }

    /// Records a job that never ran (cancelled while queued, or dropped
    /// at shutdown) and resolves its handle.
    fn abandon(&self, job: QueuedJob) {
        let record = JobRecord {
            server_job: job.id,
            tenant: job.tenant,
            pool: self.state.lock().pools[job.pool].name.clone(),
            submit_seq: job.submit_seq,
            start_seq: usize::MAX,
            queue_delay_secs: job.submitted_at.elapsed().as_secs_f64(),
            run_secs: 0.0,
            waves: 0,
            outcome: JobOutcomeKind::Cancelled,
        };
        self.cluster.metrics().record_job(record);
        (job.abandon)();
    }

    /// Dispatches one job: allocates its start sequence, spawns its
    /// driver thread, and parks the thread handle for shutdown. The
    /// caller has already counted the job in `running`.
    fn launch(self: &Arc<Self>, job: QueuedJob) {
        let start_seq = self.next_start_seq.fetch_add(1, Ordering::Relaxed);
        let queue_delay = job.submitted_at.elapsed().as_secs_f64();
        let pool_name;
        let pool_service;
        {
            let st = self.state.lock();
            let pool = &st.pools[job.pool];
            pool_name = pool.name.clone();
            pool_service = pool.service.clone();
        }
        let server = self.clone();
        let driver = std::thread::spawn(move || {
            let waves = Arc::new(AtomicU64::new(0));
            let session = JobSession {
                server_job: Some(job.id),
                cancel: Some(job.cancel.clone()),
                waves: Some(waves.clone()),
                pool_service: Some(pool_service),
            };
            let session_cluster = server.cluster.with_job_session(session);
            let t0 = Instant::now();
            let outcome = (job.run)(&session_cluster);
            let record = JobRecord {
                server_job: job.id,
                tenant: job.tenant,
                pool: pool_name,
                submit_seq: job.submit_seq,
                start_seq,
                queue_delay_secs: queue_delay,
                run_secs: t0.elapsed().as_secs_f64(),
                waves: waves.load(Ordering::Relaxed),
                outcome,
            };
            server.cluster.metrics().record_job(record);
            // Only now release the admission slot: the fairness replay
            // invariant (tests) reconstructs dispatch decisions from
            // JobRecords, which requires every record to be visible
            // before the slot it frees is reused.
            {
                let mut st = server.state.lock();
                st.running -= 1;
            }
            server.wake.notify_all();
        });
        let mut st = self.state.lock();
        st.drivers.retain(|d| !d.is_finished());
        st.drivers.push(driver);
    }

    /// Dispatcher loop: drains cancelled queued jobs, then dispatches
    /// while admission slots are free; sleeps on the wake condvar
    /// otherwise.
    fn dispatch_loop(self: &Arc<Self>) {
        enum Action {
            Stop,
            Drain(Vec<QueuedJob>),
            Launch(QueuedJob),
        }
        loop {
            let action = {
                let mut st = self.state.lock();
                loop {
                    if st.shutdown {
                        break Action::Stop;
                    }
                    let mut dropped = Vec::new();
                    for pool in &mut st.pools {
                        let mut kept = VecDeque::with_capacity(pool.queue.len());
                        for job in pool.queue.drain(..) {
                            if job.cancel.is_cancelled() {
                                dropped.push(job);
                            } else {
                                kept.push_back(job);
                            }
                        }
                        pool.queue = kept;
                    }
                    if !dropped.is_empty() {
                        break Action::Drain(dropped);
                    }
                    if !st.paused && st.running < self.cap {
                        if let Some(job) = self.pick(&mut st) {
                            st.running += 1;
                            self.peak_running.fetch_max(st.running, Ordering::Relaxed);
                            break Action::Launch(job);
                        }
                    }
                    st = self.wake.wait(st).expect("dispatcher poisoned");
                }
            };
            match action {
                Action::Stop => return,
                Action::Drain(jobs) => {
                    for job in jobs {
                        self.abandon(job);
                    }
                }
                Action::Launch(job) => self.launch(job),
            }
        }
    }
}

/// The job server: one dispatcher thread multiplexing tenant jobs onto a
/// shared [`Cluster`] under a scheduling policy and an admission cap.
/// Each job runs on its own driver thread; every job's results stay
/// bit-identical to a solo run, whatever the interleaving.
pub struct JobServer {
    inner: Arc<ServerInner>,
    dispatcher: Option<std::thread::JoinHandle<()>>,
}

impl JobServer {
    /// Starts a server on `cluster` with the given policy. Declared
    /// pools are created up front (in declaration order — relevant for
    /// fair-mode cold-start tie-breaks); unknown tenants get a weight-1
    /// pool named after them on first submission.
    pub fn new(cluster: &Cluster, config: JobServerConfig) -> Self {
        assert!(config.max_concurrent_jobs > 0, "admission cap must be ≥ 1");
        let pools = config
            .pools
            .iter()
            .map(|p| Pool {
                name: p.name.clone(),
                weight: p.weight,
                queue: VecDeque::new(),
                service: Arc::new(AtomicU64::new(0)),
            })
            .collect();
        let inner = Arc::new(ServerInner {
            cluster: cluster.clone(),
            mode: config.mode,
            cap: config.max_concurrent_jobs,
            state: Mutex::new(ServerState {
                pools,
                paused: config.start_paused,
                shutdown: false,
                running: 0,
                next_job: 0,
                next_submit: 0,
                drivers: Vec::new(),
            }),
            wake: Condvar::new(),
            next_start_seq: AtomicUsize::new(0),
            peak_running: AtomicUsize::new(0),
        });
        let dispatcher = {
            let inner = inner.clone();
            std::thread::spawn(move || inner.dispatch_loop())
        };
        JobServer {
            inner,
            dispatcher: Some(dispatcher),
        }
    }

    /// Submits a job for `tenant` and returns its handle immediately.
    /// The closure receives a [`Cluster`] handle carrying the job's
    /// session — build all RDDs from it so stages are attributed to the
    /// job and cancellation reaches them.
    pub fn submit<T, F>(&self, tenant: &str, f: F) -> JobHandle<T>
    where
        T: Send + 'static,
        F: FnOnce(&Cluster) -> T + Send + 'static,
    {
        let shared = Arc::new(HandleShared {
            state: Mutex::new(HandleState::Queued),
            ready: Condvar::new(),
            cancel: CancelToken::new(),
        });
        let (id, pool_name) = {
            let mut st = self.inner.state.lock();
            let pool = ServerInner::pool_index(&mut st, tenant);
            let id = st.next_job;
            st.next_job += 1;
            let submit_seq = st.next_submit;
            st.next_submit += 1;
            let run_shared = shared.clone();
            let abandon_shared = shared.clone();
            let cancel = shared.cancel.clone();
            st.pools[pool].queue.push_back(QueuedJob {
                id,
                tenant: tenant.to_string(),
                pool,
                submit_seq,
                submitted_at: Instant::now(),
                cancel: cancel.clone(),
                run: Box::new(move |cluster| {
                    run_shared.set_running();
                    let result = catch_unwind(AssertUnwindSafe(|| f(cluster)));
                    let outcome = match result {
                        Ok(value) => {
                            // A cancel that lands after the last wave
                            // still cancels: the caller asked for no
                            // result, so don't hand one out.
                            if cancel.is_cancelled() {
                                JobOutcome::Cancelled
                            } else {
                                JobOutcome::Completed(value)
                            }
                        }
                        Err(payload) => {
                            if payload.downcast_ref::<JobCancelled>().is_some() {
                                JobOutcome::Cancelled
                            } else {
                                JobOutcome::Failed(panic_message(&*payload))
                            }
                        }
                    };
                    let kind = outcome.kind();
                    run_shared.finish(outcome);
                    kind
                }),
                abandon: Box::new(move || {
                    abandon_shared.finish(JobOutcome::Cancelled);
                }),
            });
            (id, st.pools[pool].name.clone())
        };
        self.inner.wake.notify_all();
        JobHandle {
            shared,
            server: Arc::downgrade(&self.inner),
            id,
            pool: pool_name,
        }
    }

    /// Unpauses dispatch (see [`JobServerConfig::start_paused`]).
    pub fn resume(&self) {
        self.inner.state.lock().paused = false;
        self.inner.wake.notify_all();
    }

    /// Jobs currently dispatched and running.
    pub(crate) fn running_jobs(&self) -> usize {
        self.inner.state.lock().running
    }

    /// Jobs waiting in pool queues.
    pub(crate) fn queued_jobs(&self) -> usize {
        self.inner
            .state
            .lock()
            .pools
            .iter()
            .map(|p| p.queue.len())
            .sum()
    }

    /// High-water mark of concurrently running jobs since the server
    /// started — never exceeds the admission cap.
    pub fn peak_concurrent_jobs(&self) -> usize {
        self.inner.peak_running.load(Ordering::Relaxed)
    }

    /// Stops the server: no new dispatches, queued jobs resolve as
    /// cancelled, running jobs are joined to completion. Also runs on
    /// drop; call it explicitly to block at a chosen point.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.inner.state.lock().shutdown = true;
        self.inner.wake.notify_all();
        if let Some(d) = self.dispatcher.take() {
            let _ = d.join();
        }
        // Resolve whatever never dispatched, then wait out the drivers.
        let (queued, drivers) = {
            let mut st = self.inner.state.lock();
            let queued: Vec<QueuedJob> = st
                .pools
                .iter_mut()
                .flat_map(|p| p.queue.drain(..))
                .collect();
            let drivers = std::mem::take(&mut st.drivers);
            (queued, drivers)
        };
        for job in queued {
            self.inner.abandon(job);
        }
        for d in drivers {
            let _ = d.join();
        }
    }
}

impl Drop for JobServer {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for JobServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobServer")
            .field("mode", &self.inner.mode)
            .field("cap", &self.inner.cap)
            .field("running", &self.running_jobs())
            .field("queued", &self.queued_jobs())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use std::sync::atomic::AtomicBool;

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::local(4))
    }

    #[test]
    fn completes_a_job_and_returns_its_value() {
        let c = cluster();
        let server = JobServer::new(&c, JobServerConfig::fifo(2));
        let h = server.submit("t", |c: &Cluster| {
            c.parallelize(vec![1u32, 2, 3], 2).map(|x| x + 1).collect()
        });
        assert_eq!(h.join().completed().unwrap(), vec![2, 3, 4]);
    }

    #[test]
    fn records_job_metrics() {
        let c = cluster();
        let server = JobServer::new(&c, JobServerConfig::fair(1).pool("t", 2.0));
        let h = server.submit("t", |c: &Cluster| {
            c.parallelize((0..20u64).collect::<Vec<_>>(), 4)
                .map(|x| (x % 3, x))
                .reduce_by_key(|a, b| a + b)
                .collect()
        });
        let id = h.id();
        let _ = h.join();
        server.shutdown();
        let m = c.metrics().snapshot();
        let records: Vec<_> = m.job_records().collect();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].server_job, id);
        assert_eq!(records[0].pool, "t");
        assert_eq!(records[0].outcome, JobOutcomeKind::Completed);
        assert!(records[0].waves >= 2, "shuffle wave + result wave");
        assert!(m.stages_in_server_job(id).count() >= 2);
        assert!(m.render_report().contains("JOBS   pool t"));
    }

    #[test]
    fn report_truncates_multibyte_names_on_char_boundaries() {
        let c = cluster();
        // Byte 10 falls inside 'ü' (bytes 9–10) and inside '→' (8–10).
        c.metrics().set_scope("MTTKRP-1→2");
        let server = JobServer::new(&c, JobServerConfig::fifo(1));
        let h = server.submit("mandant-zürich", |c: &Cluster| {
            c.parallelize(vec![(1u8, 1u32), (1, 2)], 2)
                .reduce_by_key(|a, b| a + b)
                .collect()
        });
        assert_eq!(h.join().completed(), Some(vec![(1, 3)]));
        server.shutdown();
        let report = c.metrics().snapshot().render_report();
        assert!(report.contains(" MTTKRP-1   ShuffleMap "), "{report}");
        assert!(
            report.contains("[mandant-z/mandant-z] Completed"),
            "{report}"
        );
        assert!(report.contains("JOBS   pool mandant-zürich "), "{report}");
    }

    #[test]
    fn cancel_while_queued_never_runs() {
        let c = cluster();
        let server = JobServer::new(&c, JobServerConfig::fifo(1).start_paused());
        let ran = Arc::new(AtomicBool::new(false));
        let flag = ran.clone();
        let h = server.submit("t", move |_c: &Cluster| {
            flag.store(true, Ordering::SeqCst);
        });
        h.cancel();
        let h2 = server.submit("t", |_c: &Cluster| 7u32);
        server.resume();
        assert_eq!(h2.join().completed(), Some(7));
        server.shutdown();
        assert!(!ran.load(Ordering::SeqCst));
        let m = c.metrics().snapshot();
        let cancelled: Vec<_> = m
            .job_records()
            .filter(|r| r.outcome == JobOutcomeKind::Cancelled)
            .collect();
        assert_eq!(cancelled.len(), 1);
        assert_eq!(cancelled[0].start_seq, usize::MAX);
    }

    #[test]
    fn failed_job_reports_message_and_server_survives() {
        let c = cluster();
        let server = JobServer::new(&c, JobServerConfig::fifo(1));
        let h = server.submit("t", |_c: &Cluster| -> u32 { panic!("boom") });
        match h.join() {
            JobOutcome::Failed(msg) => assert!(msg.contains("boom")),
            other => panic!("expected failure, got {:?}", other.kind()),
        }
        let h2 = server.submit("t", |_c: &Cluster| 3u32);
        assert_eq!(h2.join().completed(), Some(3));
    }

    #[test]
    fn shutdown_cancels_queued_jobs() {
        let c = cluster();
        let server = JobServer::new(&c, JobServerConfig::fifo(1).start_paused());
        let h = server.submit("t", |_c: &Cluster| 1u32);
        server.shutdown();
        assert!(matches!(h.join(), JobOutcome::Cancelled));
    }
}
