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
//!   under a tenant name and returns a [`JobHandle`]; the caller can
//!   block on or cancel the job through the handle. No thread waits to
//!   dispatch: `submit`, `resume` and the end of every job start what
//!   the cap admits under the server's lock before they return.
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
//! * **Cancellation.** [`JobHandle::cancel`] takes a queued job out of
//!   its pool and resolves it at once. For a running job it sets a
//!   [`CancelToken`] the scheduler checks before every wave —
//!   shuffle-map and result waves run through the same loop — and that
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
use std::sync::atomic::{AtomicU64, Ordering};
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

/// Handle state shared between a [`JobHandle`] and the server: the
/// outcome once the job has ended, and the condvar `join` parks on.
struct HandleShared<T> {
    outcome: Mutex<Option<JobOutcome<T>>>,
    ready: Condvar,
    cancel: CancelToken,
}

impl<T> HandleShared<T> {
    /// The outcome is stored under the lock `join` checks and parks under,
    /// so a joiner either sees it or is already parked when notified.
    fn finish(&self, outcome: JobOutcome<T>) {
        *self.outcome.lock() = Some(outcome);
        self.ready.notify_all();
    }
}

/// Caller-side handle to a submitted job: block on it or cancel it.
/// Dropping the handle detaches from the job (it still runs).
pub struct JobHandle<T> {
    shared: Arc<HandleShared<T>>,
    server: Weak<ServerInner>,
    id: usize,
}

impl<T> JobHandle<T> {
    /// Server-assigned job id (the `server_job` on this job's stages and
    /// on its [`JobRecord`]).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Requests cooperative cancellation. A queued job leaves its pool
    /// and resolves as cancelled before this returns; a running job stops
    /// at its next wave boundary. Idempotent; a job that already finished
    /// is unaffected.
    pub fn cancel(&self) {
        self.shared.cancel.cancel();
        if let Some(server) = self.server.upgrade() {
            let mut st = server.state.lock();
            let queued = st.pools.iter_mut().find_map(|p| {
                let i = p.queue.iter().position(|job| job.id == self.id)?;
                p.queue.remove(i)
            });
            if let Some(job) = queued {
                server.abandon(job);
            }
        }
    }

    /// Blocks until the job finishes and returns its outcome.
    pub fn join(self) -> JobOutcome<T> {
        let mut outcome = self.shared.outcome.lock();
        loop {
            if let Some(outcome) = outcome.take() {
                return outcome;
            }
            outcome = self
                .shared
                .ready
                .wait(outcome)
                .expect("job handle poisoned");
        }
    }
}

impl<T> std::fmt::Debug for JobHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle").field("id", &self.id).finish()
    }
}

/// A queued, not-yet-dispatched job: everything dispatch needs, with the
/// typed closure and handle erased behind `FnOnce` boxes. Its `id` is
/// also its submission order.
struct QueuedJob {
    id: usize,
    tenant: String,
    pool: usize,
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

impl Pool {
    fn new(name: String, weight: f64) -> Self {
        Pool {
            name,
            weight,
            queue: VecDeque::new(),
            service: Arc::new(AtomicU64::new(0)),
        }
    }
}

#[derive(Default)]
struct ServerState {
    pools: Vec<Pool>,
    paused: bool,
    /// Set by [`JobServer::shutdown`]: nothing dispatches afterwards.
    shutdown: bool,
    /// Jobs currently dispatched (admission-controlled: ≤ cap).
    running: usize,
    /// High-water mark of `running` (cap audit).
    peak_running: usize,
    next_job: usize,
    /// Dispatch order across the whole server (JobRecord `start_seq`).
    next_start: usize,
    /// Driver threads of dispatched jobs, joined on shutdown.
    drivers: Vec<std::thread::JoinHandle<()>>,
}

struct ServerInner {
    cluster: Cluster,
    mode: SchedulingMode,
    cap: usize,
    state: Mutex<ServerState>,
}

impl ServerInner {
    /// Index of the pool named `name`, creating a weight-1 pool if absent.
    fn pool_index(st: &mut ServerState, name: &str) -> usize {
        if let Some(i) = st.pools.iter().position(|p| p.name == name) {
            return i;
        }
        st.pools.push(Pool::new(name.to_string(), 1.0));
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
                .min_by_key(|(_, p)| p.queue[0].id)
                .map(|(i, _)| i),
            SchedulingMode::Fair => st
                .pools
                .iter()
                .enumerate()
                .filter(|(_, p)| !p.queue.is_empty())
                .min_by(|(_, a), (_, b)| {
                    let sa = a.service.load(Ordering::Relaxed) as f64 / a.weight;
                    let sb = b.service.load(Ordering::Relaxed) as f64 / b.weight;
                    sa.total_cmp(&sb).then(a.queue[0].id.cmp(&b.queue[0].id))
                })
                .map(|(i, _)| i),
        };
        candidate.and_then(|i| st.pools[i].queue.pop_front())
    }

    /// Records a job that never ran (cancelled while queued, or dropped
    /// at shutdown) and resolves its handle. A tenant's pool is named
    /// after the tenant.
    fn abandon(&self, job: QueuedJob) {
        let record = JobRecord {
            server_job: job.id,
            pool: job.tenant.clone(),
            tenant: job.tenant,
            start_seq: usize::MAX,
            queue_delay_secs: job.submitted_at.elapsed().as_secs_f64(),
            run_secs: 0.0,
            waves: 0,
            outcome: JobOutcomeKind::Cancelled,
        };
        self.cluster.metrics().record_job(record);
        (job.abandon)();
    }

    /// Starts queued jobs on driver threads while the server is neither
    /// paused nor shut down and an admission slot is free. Runs under the
    /// state lock from every call that can make a job startable —
    /// `submit`, `resume` and the end of each job — so no thread waits
    /// to be woken for it.
    fn dispatch(self: &Arc<Self>, st: &mut ServerState) {
        while !st.paused && !st.shutdown && st.running < self.cap {
            let Some(job) = self.pick(st) else { return };
            st.running += 1;
            st.peak_running = st.peak_running.max(st.running);
            let start_seq = st.next_start;
            st.next_start += 1;
            let queue_delay_secs = job.submitted_at.elapsed().as_secs_f64();
            let session = Arc::new(JobSession {
                server_job: job.id,
                cancel: job.cancel.clone(),
                waves: AtomicU64::new(0),
                pool_service: st.pools[job.pool].service.clone(),
            });
            let server = self.clone();
            let driver = std::thread::spawn(move || {
                let cluster = server.cluster.with_job_session(session.clone());
                let t0 = Instant::now();
                let outcome = (job.run)(&cluster);
                let record = JobRecord {
                    server_job: job.id,
                    pool: job.tenant.clone(),
                    tenant: job.tenant,
                    start_seq,
                    queue_delay_secs,
                    run_secs: t0.elapsed().as_secs_f64(),
                    waves: session.waves.load(Ordering::Relaxed),
                    outcome,
                };
                server.cluster.metrics().record_job(record);
                // Only now release the admission slot: the fairness replay
                // invariant (tests) reconstructs dispatch decisions from
                // JobRecords, which requires every record to be visible
                // before the slot it frees is reused.
                let mut st = server.state.lock();
                st.running -= 1;
                server.dispatch(&mut st);
            });
            st.drivers.retain(|d| !d.is_finished());
            st.drivers.push(driver);
        }
    }
}

/// The job server: multiplexes tenant jobs onto a shared [`Cluster`]
/// under a scheduling policy and an admission cap. Each job runs on its
/// own driver thread; every job's results stay bit-identical to a solo
/// run, whatever the interleaving.
pub struct JobServer {
    inner: Arc<ServerInner>,
}

impl JobServer {
    /// Creates a server on `cluster` with the given policy; it starts no
    /// thread. Declared pools are created up front (in declaration order
    /// — relevant for fair-mode cold-start tie-breaks); unknown tenants
    /// get a weight-1 pool named after them on first submission.
    pub fn new(cluster: &Cluster, config: JobServerConfig) -> Self {
        assert!(config.max_concurrent_jobs > 0, "admission cap must be ≥ 1");
        let pools = config
            .pools
            .iter()
            .map(|p| Pool::new(p.name.clone(), p.weight))
            .collect();
        JobServer {
            inner: Arc::new(ServerInner {
                cluster: cluster.clone(),
                mode: config.mode,
                cap: config.max_concurrent_jobs,
                state: Mutex::new(ServerState {
                    pools,
                    paused: config.start_paused,
                    ..ServerState::default()
                }),
            }),
        }
    }

    /// Submits a job for `tenant` and returns its handle; if a slot is
    /// free the job is already running. The closure receives a
    /// [`Cluster`] handle carrying the job's session — build all RDDs
    /// from it so stages are attributed to the job and cancellation
    /// reaches them.
    pub fn submit<T, F>(&self, tenant: &str, f: F) -> JobHandle<T>
    where
        T: Send + 'static,
        F: FnOnce(&Cluster) -> T + Send + 'static,
    {
        let shared = Arc::new(HandleShared {
            outcome: Mutex::new(None),
            ready: Condvar::new(),
            cancel: CancelToken::new(),
        });
        let run_shared = shared.clone();
        let abandon_shared = shared.clone();
        let cancel = shared.cancel.clone();
        let run = Box::new(move |cluster: &Cluster| {
            let outcome = match catch_unwind(AssertUnwindSafe(|| f(cluster))) {
                // A cancel that lands after the last wave still cancels:
                // the caller asked for no result, so don't hand one out.
                Ok(_) if cancel.is_cancelled() => JobOutcome::Cancelled,
                Ok(value) => JobOutcome::Completed(value),
                Err(payload) if payload.downcast_ref::<JobCancelled>().is_some() => {
                    JobOutcome::Cancelled
                }
                Err(payload) => JobOutcome::Failed(panic_message(&*payload)),
            };
            let kind = outcome.kind();
            run_shared.finish(outcome);
            kind
        });
        let mut st = self.inner.state.lock();
        let pool = ServerInner::pool_index(&mut st, tenant);
        let id = st.next_job;
        st.next_job += 1;
        st.pools[pool].queue.push_back(QueuedJob {
            id,
            tenant: tenant.to_string(),
            pool,
            submitted_at: Instant::now(),
            cancel: shared.cancel.clone(),
            run,
            abandon: Box::new(move || abandon_shared.finish(JobOutcome::Cancelled)),
        });
        self.inner.dispatch(&mut st);
        drop(st);
        JobHandle {
            shared,
            server: Arc::downgrade(&self.inner),
            id,
        }
    }

    /// Unpauses dispatch (see [`JobServerConfig::start_paused`]); queued
    /// jobs that fit under the cap are running when this returns.
    pub fn resume(&self) {
        let mut st = self.inner.state.lock();
        st.paused = false;
        self.inner.dispatch(&mut st);
    }

    /// High-water mark of concurrently running jobs since the server
    /// started — never exceeds the admission cap.
    pub fn peak_concurrent_jobs(&self) -> usize {
        self.inner.state.lock().peak_running
    }

    /// Stops the server: no new dispatches, queued jobs resolve as
    /// cancelled, running jobs are joined to completion. Also runs on
    /// drop; call it explicitly to block at a chosen point.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for JobServer {
    fn drop(&mut self) {
        // Drivers are joined outside the lock: each takes it once more to
        // release its slot, and finds `shutdown` set.
        let drivers = {
            let mut st = self.inner.state.lock();
            st.shutdown = true;
            for job in st.pools.iter_mut().flat_map(|p| p.queue.drain(..)) {
                self.inner.abandon(job);
            }
            std::mem::take(&mut st.drivers)
        };
        for d in drivers {
            let _ = d.join();
        }
    }
}

impl std::fmt::Debug for JobServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobServer")
            .field("mode", &self.inner.mode)
            .field("cap", &self.inner.cap)
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
    fn submit_and_resume_dispatch_before_returning() {
        let c = cluster();
        for paused in [false, true] {
            let config = JobServerConfig::fifo(1);
            let server = JobServer::new(
                &c,
                if paused {
                    config.start_paused()
                } else {
                    config
                },
            );
            let barrier = Arc::new(std::sync::Barrier::new(2));
            let gate = barrier.clone();
            let h = server.submit("t", move |_c: &Cluster| {
                gate.wait();
            });
            let before_resume = server.peak_concurrent_jobs();
            if paused {
                server.resume();
            }
            // The job parks on the barrier until this thread reaches it, so
            // it was dispatched by the call that just returned. Asserted
            // after the barrier: a failure must not leave the job parked.
            let dispatched = server.peak_concurrent_jobs();
            barrier.wait();
            assert!(matches!(h.join(), JobOutcome::Completed(())));
            server.shutdown();
            assert_eq!(before_resume, usize::from(!paused), "paused: {paused}");
            assert_eq!(dispatched, 1, "paused: {paused}");
        }
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
    fn shutdown_cancels_jobs_still_in_queue() {
        let c = cluster();
        let server = JobServer::new(&c, JobServerConfig::fifo(1).start_paused());
        let h = server.submit("t", |_c: &Cluster| 1u32);
        server.shutdown();
        assert!(matches!(h.join(), JobOutcome::Cancelled));
    }
}
