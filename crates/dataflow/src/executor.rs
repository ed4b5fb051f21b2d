//! Task execution: a simple scoped fork-join executor.
//!
//! Each stage turns into a batch of independent tasks (one per partition).
//! Tasks are pulled from a shared queue by `threads` scoped worker threads,
//! giving dynamic load balancing (tensor partitions can be skewed) without
//! `'static` bounds on the closures — everything a task borrows lives on
//! the driver's stack for the duration of the stage, so no deadlock-prone
//! nested submission can occur.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar};
use std::time::{Duration, Instant};

/// Cooperative cancellation flag shared between a job's driver and the
/// executor. Cancelling never interrupts a running attempt — attempts are
/// short and complete on their own — it stops *pending* attempts from
/// starting and makes the wave return [`WaveError::Cancelled`] instead of
/// results. Because the driver commits shuffle outputs only after a wave
/// returns `Ok`, a cancelled wave publishes nothing: shuffle and
/// block-manager state stay exactly as the last completed wave left them.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Creates a token in the not-cancelled state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Why [`Executor::run_wave`] stopped without results.
#[derive(Debug)]
pub enum WaveError {
    /// A task exhausted its retry budget (see [`TaskError`]).
    Task(TaskError),
    /// The wave's [`CancelToken`] fired; no stage of this wave committed
    /// any output.
    Cancelled,
}

impl std::fmt::Display for WaveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WaveError::Task(e) => e.fmt(f),
            WaveError::Cancelled => write!(f, "wave cancelled"),
        }
    }
}

impl std::error::Error for WaveError {}

impl From<TaskError> for WaveError {
    fn from(e: TaskError) -> Self {
        WaveError::Task(e)
    }
}

/// Counting semaphore bounding how many task attempts execute at once
/// across *every* concurrently-running wave of one executor — the shared
/// task-slot pool that makes several jobs' stages genuinely interleave on
/// `threads` cores instead of each wave spawning its own unbounded pool.
#[derive(Debug)]
struct Slots {
    free: Mutex<usize>,
    available: Condvar,
}

impl Slots {
    fn new(n: usize) -> Self {
        Slots {
            free: Mutex::new(n),
            available: Condvar::new(),
        }
    }

    fn acquire(&self) {
        let mut free = self.free.lock();
        while *free == 0 {
            free = self.available.wait(free).expect("slot pool poisoned");
        }
        *free -= 1;
    }

    fn release(&self) {
        *self.free.lock() += 1;
        self.available.notify_one();
    }
}

/// Retry and speculation policy for [`Executor::run_wave`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunPolicy {
    /// Maximum attempts per task, counting the first (Spark's
    /// `spark.task.maxFailures`, default 4). Clamped to at least 1.
    pub max_attempts: usize,
    /// Speculative-execution policy; `None` disables speculation.
    pub speculation: Option<SpeculationPolicy>,
}

impl Default for RunPolicy {
    fn default() -> Self {
        RunPolicy {
            max_attempts: 4,
            speculation: None,
        }
    }
}

/// When to launch a backup copy of a slow task.
///
/// Once at least half of a batch's tasks have committed, a task whose
/// oldest live attempt has been running longer than
/// `max(median_task_secs × multiplier, min_task_secs)` gets one backup
/// attempt. Whichever attempt commits first wins; the loser's output is
/// discarded. Both attempts compute the same deterministic partition
/// function, so the winner's result is bit-identical either way.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeculationPolicy {
    /// Straggler threshold as a multiple of the median committed task
    /// duration (Spark's `spark.speculation.multiplier`).
    pub multiplier: f64,
    /// Absolute floor for the threshold, so short healthy tasks are not
    /// speculated on scheduling noise.
    pub min_task_secs: f64,
}

impl Default for SpeculationPolicy {
    fn default() -> Self {
        SpeculationPolicy {
            multiplier: 1.5,
            min_task_secs: 0.1,
        }
    }
}

/// A task that exhausted its retry budget, aborting the batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskError {
    /// *Flat* index of the failing task across the wave's concatenated
    /// stages, in submission order.
    pub task: usize,
    /// Attempts consumed (== the policy's `max_attempts`).
    pub attempts: usize,
    /// Failure message of the last attempt (error string or panic
    /// payload).
    pub message: String,
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "task {} failed after {} attempt(s): {}",
            self.task, self.attempts, self.message
        )
    }
}

impl std::error::Error for TaskError {}

/// Recovery accounting for one stage of an [`Executor::run_wave`] call:
/// the `task_failures`, `task_retries`, `speculative_*` and
/// `wasted_task_secs` fields of the engine's counter block, the rest zero —
/// ready to merge into the stage's metrics.
pub type RunStats = crate::metrics::Counters;

/// Results plus recovery accounting for one stage of a wave.
#[derive(Debug)]
pub struct StageOutcome<R> {
    /// Committed task results, in the stage's task order.
    pub results: Vec<R>,
    /// Recovery statistics attributed to this stage's tasks only.
    pub stats: RunStats,
}

/// One queued execution of a task.
struct Attempt {
    task: usize,
    attempt: usize,
    speculative: bool,
}

/// Per-task bookkeeping shared by workers and the speculation monitor.
struct TaskState<R> {
    result: Mutex<Option<R>>,
    /// First-writer-wins latch: set by the attempt that commits.
    committed: AtomicBool,
    /// Failures so far (== attempts consumed by failures). Drives the
    /// retry budget, so failures made moot by a committed duplicate are
    /// *not* counted here (see `stat_failures`).
    failures: AtomicUsize,
    /// Next attempt id to hand out (0 went to the initial attempt).
    next_attempt: AtomicUsize,
    /// Whether a speculative copy was already launched.
    speculated: AtomicBool,
    /// Start of the oldest still-relevant attempt, for straggler age.
    running_since: Mutex<Option<Instant>>,
    /// Every failed attempt, including ones made moot by a duplicate that
    /// already committed. Kept per task so a multi-stage wave can report
    /// per-stage [`RunStats`].
    stat_failures: AtomicU64,
    stat_retries: AtomicU64,
    stat_spec_launched: AtomicU64,
    stat_spec_won: AtomicU64,
    stat_wasted_nanos: AtomicU64,
}

/// How long [`Batch::monitor`] parks between two looks at the cancel token
/// and the straggler ages. A timeout, not a floor: the end of the wave
/// wakes the monitor at once.
const MONITOR_INTERVAL: Duration = Duration::from_millis(2);

/// State shared across the worker threads of one wave (one or more
/// stages whose task batches execute concurrently).
struct Batch<'t, F, R> {
    tasks: &'t [F],
    policy: RunPolicy,
    /// Executor-wide task-slot pool; every attempt of every concurrent
    /// wave holds one slot while it executes.
    slots: &'t Slots,
    /// Cooperative cancellation for the whole wave, if the caller
    /// provided a token.
    cancel: Option<CancelToken>,
    /// Latched once a worker observes the cancel token: the wave returns
    /// [`WaveError::Cancelled`] instead of results.
    cancelled: AtomicBool,
    queue: Mutex<VecDeque<Attempt>>,
    available: Condvar,
    /// Where the driver's [`Batch::monitor`] parks; paired with the queue
    /// lock like `available`, but signalled by `finish` alone, so an
    /// enqueue's `notify_one` always reaches a worker.
    finished: Condvar,
    done: AtomicBool,
    /// Stage index of each flat task.
    stage_of: Vec<usize>,
    /// Per-stage completion latch: uncommitted task count per stage.
    stage_remaining: Vec<AtomicUsize>,
    /// Stages with at least one uncommitted task left.
    remaining_stages: AtomicUsize,
    states: Vec<TaskState<R>>,
    /// Committed attempt durations (seconds), for the speculation median.
    /// Shared across the whole wave, like one Spark executor pool serving
    /// several concurrently-submitted stages.
    durations: Mutex<Vec<f64>>,
    error: Mutex<Option<TaskError>>,
}

impl<'t, F, R> Batch<'t, F, R>
where
    F: Fn(usize) -> Result<R, String> + Sync,
    R: Send,
{
    fn new(
        tasks: &'t [F],
        sizes: &[usize],
        policy: RunPolicy,
        slots: &'t Slots,
        cancel: Option<CancelToken>,
    ) -> Self {
        let n = tasks.len();
        debug_assert_eq!(sizes.iter().sum::<usize>(), n);
        let stage_of: Vec<usize> = sizes
            .iter()
            .enumerate()
            .flat_map(|(stage, &len)| std::iter::repeat_n(stage, len))
            .collect();
        Batch {
            tasks,
            policy,
            slots,
            cancel,
            cancelled: AtomicBool::new(false),
            queue: Mutex::new(
                (0..n)
                    .map(|task| Attempt {
                        task,
                        attempt: 0,
                        speculative: false,
                    })
                    .collect(),
            ),
            available: Condvar::new(),
            finished: Condvar::new(),
            done: AtomicBool::new(false),
            stage_of,
            stage_remaining: sizes.iter().map(|&len| AtomicUsize::new(len)).collect(),
            remaining_stages: AtomicUsize::new(sizes.iter().filter(|&&len| len > 0).count()),
            states: (0..n)
                .map(|_| TaskState {
                    result: Mutex::new(None),
                    committed: AtomicBool::new(false),
                    failures: AtomicUsize::new(0),
                    next_attempt: AtomicUsize::new(1),
                    speculated: AtomicBool::new(false),
                    running_since: Mutex::new(None),
                    stat_failures: AtomicU64::new(0),
                    stat_retries: AtomicU64::new(0),
                    stat_spec_launched: AtomicU64::new(0),
                    stat_spec_won: AtomicU64::new(0),
                    stat_wasted_nanos: AtomicU64::new(0),
                })
                .collect(),
            durations: Mutex::new(Vec::new()),
            error: Mutex::new(None),
        }
    }

    /// Wakes everyone up to exit. The store and the notifies happen under
    /// the queue lock: workers and the monitor check `done` and park while
    /// holding that lock, so each either sees the flag or is already
    /// parked when the notification goes out — none can check, miss the
    /// only wakeup, and then park forever.
    fn finish(&self) {
        let _queue = self.queue.lock();
        self.done.store(true, Ordering::Release);
        self.available.notify_all();
        self.finished.notify_all();
    }

    fn enqueue(&self, attempt: Attempt) {
        self.queue.lock().push_back(attempt);
        self.available.notify_one();
    }

    /// Observes the cancel token, if any. On the first observation the
    /// wave is latched as cancelled and everyone is woken up to exit.
    fn check_cancelled(&self) -> bool {
        match &self.cancel {
            Some(token) if token.is_cancelled() => {
                self.cancelled.store(true, Ordering::Release);
                self.finish();
                true
            }
            _ => false,
        }
    }

    /// Allocates the next attempt id for `task` and enqueues it — the one
    /// relaunch path shared by the failure-retry and speculation sides, so
    /// their bookkeeping (attempt ids, per-kind counters) cannot drift.
    fn launch_attempt(&self, task: usize, speculative: bool) {
        let state = &self.states[task];
        if speculative {
            state.stat_spec_launched.fetch_add(1, Ordering::Relaxed);
        } else {
            state.stat_retries.fetch_add(1, Ordering::Relaxed);
        }
        let attempt = state.next_attempt.fetch_add(1, Ordering::AcqRel);
        self.enqueue(Attempt {
            task,
            attempt,
            speculative,
        });
    }

    /// Commits one successful attempt: first writer wins, then the
    /// per-stage latch and the wave latch release in that order, so the
    /// wave finishes exactly when its last stage commits its last task.
    /// A losing duplicate only adds wasted time. This is the single
    /// stage-outcome latch path — retries, speculative backups and first
    /// attempts all land here.
    fn commit(&self, att: &Attempt, value: R, elapsed: f64) {
        let state = &self.states[att.task];
        if state.committed.swap(true, Ordering::AcqRel) {
            state.add_wasted(elapsed); // lost the commit race
            return;
        }
        *state.result.lock() = Some(value);
        self.durations.lock().push(elapsed);
        if att.speculative {
            state.stat_spec_won.fetch_add(1, Ordering::Relaxed);
        }
        let stage = self.stage_of[att.task];
        if self.stage_remaining[stage].fetch_sub(1, Ordering::AcqRel) == 1
            && self.remaining_stages.fetch_sub(1, Ordering::AcqRel) == 1
        {
            self.finish();
        }
    }

    /// Worker loop: pull attempts until the batch finishes or aborts.
    fn work(&self) {
        loop {
            let att = {
                let mut q = self.queue.lock();
                loop {
                    if self.done.load(Ordering::Acquire) {
                        return;
                    }
                    if let Some(a) = q.pop_front() {
                        break a;
                    }
                    q = self.available.wait(q).expect("executor queue poisoned");
                }
            };
            if self.check_cancelled() {
                return; // pending attempts are released, never started
            }
            let state = &self.states[att.task];
            if state.committed.load(Ordering::Acquire) {
                continue; // losing speculative duplicate, never started
            }
            // Hold one executor-wide slot for the duration of the attempt,
            // so concurrent waves (one per running job) share `threads`
            // cores instead of multiplying them.
            self.slots.acquire();
            if self.done.load(Ordering::Acquire) || state.committed.load(Ordering::Acquire) {
                // The wave finished or a duplicate won while this worker
                // queued for a core — drop the stale attempt.
                self.slots.release();
                if self.done.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
            {
                let mut since = state.running_since.lock();
                if since.is_none() {
                    *since = Some(Instant::now());
                }
            }
            let t0 = Instant::now();
            let outcome =
                match catch_unwind(AssertUnwindSafe(|| (self.tasks[att.task])(att.attempt))) {
                    Ok(Ok(value)) => Ok(value),
                    Ok(Err(message)) => Err(message),
                    Err(payload) => Err(panic_message(&*payload)),
                };
            self.slots.release();
            let elapsed = t0.elapsed().as_secs_f64();
            match outcome {
                Ok(value) => self.commit(&att, value, elapsed),
                Err(message) => {
                    state.stat_failures.fetch_add(1, Ordering::Relaxed);
                    state.add_wasted(elapsed);
                    if state.committed.load(Ordering::Acquire) {
                        continue; // a duplicate already won; failure is moot
                    }
                    let fails = state.failures.fetch_add(1, Ordering::AcqRel) + 1;
                    if fails >= self.policy.max_attempts {
                        *self.error.lock() = Some(TaskError {
                            task: att.task,
                            attempts: fails,
                            message,
                        });
                        self.finish();
                    } else {
                        self.launch_attempt(att.task, false);
                    }
                }
            }
        }
    }

    /// Speculation and cancellation monitor, run by the driver thread while
    /// the workers execute: parks until `finish` signals the end of the
    /// wave, and every [`MONITOR_INTERVAL`] in between polls the cancel
    /// token (so a cancel takes effect even while every worker is busy
    /// inside a long attempt) and launches backup copies of stragglers.
    /// With neither a token nor a speculation policy there is nothing to
    /// poll, and the scope's join is the only wait.
    fn monitor(&self) {
        let spec = self.policy.speculation.clone();
        if spec.is_none() && self.cancel.is_none() {
            return;
        }
        let n = self.states.len();
        loop {
            {
                let queue = self.queue.lock();
                if self.done.load(Ordering::Acquire) {
                    return;
                }
                let _parked = self
                    .finished
                    .wait_timeout(queue, MONITOR_INTERVAL)
                    .expect("executor queue poisoned");
            }
            if self.done.load(Ordering::Acquire) || self.check_cancelled() {
                return;
            }
            let Some(spec) = &spec else { continue };
            let median = {
                let d = self.durations.lock();
                // Like Spark, wait for a quorum of finished tasks before
                // trusting the duration distribution.
                if d.len() * 2 < n {
                    continue;
                }
                let mut sorted = d.clone();
                sorted.sort_by(f64::total_cmp);
                sorted[sorted.len() / 2]
            };
            let threshold = (median * spec.multiplier).max(spec.min_task_secs);
            for (task, state) in self.states.iter().enumerate() {
                if state.committed.load(Ordering::Acquire)
                    || state.speculated.load(Ordering::Acquire)
                {
                    continue;
                }
                let age = state
                    .running_since
                    .lock()
                    .map(|t| t.elapsed().as_secs_f64());
                if let Some(age) = age {
                    if age > threshold && !state.speculated.swap(true, Ordering::AcqRel) {
                        self.launch_attempt(task, true);
                    }
                }
            }
        }
    }

    /// Aggregates the recovery statistics of one contiguous task range
    /// (one stage of the wave).
    fn stage_stats(&self, range: std::ops::Range<usize>) -> RunStats {
        let mut stats = RunStats::default();
        let mut wasted_nanos = 0u64;
        for state in &self.states[range] {
            stats.task_failures += state.stat_failures.load(Ordering::Relaxed);
            stats.task_retries += state.stat_retries.load(Ordering::Relaxed);
            stats.speculative_launched += state.stat_spec_launched.load(Ordering::Relaxed);
            stats.speculative_won += state.stat_spec_won.load(Ordering::Relaxed);
            wasted_nanos += state.stat_wasted_nanos.load(Ordering::Relaxed);
        }
        stats.wasted_task_secs = wasted_nanos as f64 * 1e-9;
        stats
    }
}

impl<R> TaskState<R> {
    fn add_wasted(&self, secs: f64) {
        self.stat_wasted_nanos
            .fetch_add((secs * 1e9) as u64, Ordering::Relaxed);
    }
}

pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "task panicked".to_string()
    }
}

/// A fork-join executor with a fixed worker count.
///
/// Concurrent waves (one per running job on a shared cluster) each spawn
/// their own scoped worker threads, but every task attempt must hold one
/// of the executor-wide `Slots` for its duration — so total CPU-bound
/// concurrency stays at `threads` however many jobs are in flight.
#[derive(Debug)]
pub struct Executor {
    threads: usize,
    slots: Slots,
}

impl Executor {
    /// Creates an executor that runs up to `threads` tasks concurrently.
    pub fn new(threads: usize) -> Self {
        Executor {
            threads: threads.max(1),
            slots: Slots::new(threads.max(1)),
        }
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs a *wave* of stages concurrently: every stage contributes one
    /// task batch, all tasks share the worker pool, and the call returns
    /// one [`StageOutcome`] per stage (results in task order, recovery
    /// stats attributed to that stage's tasks only).
    ///
    /// Each task is a *re-runnable* closure called with its attempt index
    /// (0 for the first attempt). A task attempt fails by returning `Err`
    /// or panicking; the panic is caught and the task is retried until it
    /// succeeds or `policy.max_attempts` attempts have failed, at which
    /// point the whole wave stops and [`WaveError::Task`] reports the
    /// *flat* task index across the concatenated stages — no result is
    /// ever silently dropped and no worker is left hanging.
    ///
    /// Exactly one attempt per task **commits** (first writer wins); the
    /// output of failed attempts and of losing speculative duplicates is
    /// discarded. With deterministic task closures the returned results
    /// are therefore bit-identical to a serial run of the same closures,
    /// whatever the interleaving, fault and race history. The speculation
    /// median is computed over the whole wave (one executor pool serving
    /// all concurrently-submitted stages, as in Spark).
    ///
    /// This is the executor half of the DAG scheduler: independent stages
    /// of one job are submitted together so their tasks interleave, while
    /// per-stage completion latches let the driver commit each stage's
    /// outputs exactly once. Tasks from different stages never exchange
    /// data here — ordering between dependent stages is the scheduler's
    /// responsibility (it only puts independent stages in the same wave).
    ///
    /// If `cancel` is supplied and fires, pending attempts are released
    /// without being started, in-flight attempts run to completion (their
    /// commits are discarded with the rest of the wave), and the call
    /// returns [`WaveError::Cancelled`]. Because the driver only publishes
    /// stage outputs *after* a wave returns successfully, a cancelled wave
    /// leaves shuffle and block-manager state exactly as it found them.
    pub fn run_wave<F, R>(
        &self,
        stages: Vec<Vec<F>>,
        policy: &RunPolicy,
        cancel: Option<&CancelToken>,
    ) -> Result<Vec<StageOutcome<R>>, WaveError>
    where
        F: Fn(usize) -> Result<R, String> + Send + Sync,
        R: Send,
    {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(WaveError::Cancelled);
        }
        let sizes: Vec<usize> = stages.iter().map(Vec::len).collect();
        let tasks: Vec<F> = stages.into_iter().flatten().collect();
        let n = tasks.len();
        if n == 0 {
            return Ok(sizes
                .iter()
                .map(|_| StageOutcome {
                    results: Vec::new(),
                    stats: RunStats::default(),
                })
                .collect());
        }
        let mut policy = policy.clone();
        policy.max_attempts = policy.max_attempts.max(1);

        let batch = Batch::new(&tasks, &sizes, policy, &self.slots, cancel.cloned());
        std::thread::scope(|scope| {
            for _ in 0..self.threads.min(n) {
                scope.spawn(|| batch.work());
            }
            // The driver thread doubles as the speculation / cancellation
            // monitor (no-op when both are off); workers run until
            // `finish()`.
            batch.monitor();
        });

        if batch.cancelled.load(Ordering::Acquire) {
            return Err(WaveError::Cancelled);
        }
        if let Some(err) = batch.error.lock().take() {
            return Err(WaveError::Task(err));
        }
        let stats: Vec<RunStats> = {
            let mut offset = 0;
            sizes
                .iter()
                .map(|&len| {
                    let s = batch.stage_stats(offset..offset + len);
                    offset += len;
                    s
                })
                .collect()
        };
        let mut results = batch
            .states
            .into_iter()
            .map(|s| s.result.into_inner().expect("uncommitted task result"));
        Ok(sizes
            .iter()
            .zip(stats)
            .map(|(&len, stats)| StageOutcome {
                results: results.by_ref().take(len).collect(),
                stats,
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One stage, no token: the shape most tests want.
    fn run_one<F, R>(
        ex: &Executor,
        tasks: Vec<F>,
        policy: &RunPolicy,
    ) -> Result<(Vec<R>, RunStats), WaveError>
    where
        F: Fn(usize) -> Result<R, String> + Send + Sync,
        R: Send,
    {
        let mut wave = ex.run_wave(vec![tasks], policy, None)?;
        let outcome = wave.pop().expect("one stage in, one outcome out");
        Ok((outcome.results, outcome.stats))
    }

    fn task_error(e: WaveError) -> TaskError {
        match e {
            WaveError::Task(e) => e,
            WaveError::Cancelled => panic!("no cancel token was supplied"),
        }
    }

    #[test]
    fn zero_thread_request_clamped() {
        assert_eq!(Executor::new(0).threads(), 1);
    }

    #[test]
    fn results_preserve_task_order() {
        let ex = Executor::new(4);
        let tasks: Vec<_> = (0..100).map(|i| move |_attempt: usize| Ok(i * i)).collect();
        let (out, stats) = run_one(&ex, tasks, &RunPolicy::default()).unwrap();
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(stats, RunStats::default());
    }

    #[test]
    fn tasks_can_borrow_driver_state() {
        let data = vec![1u64, 2, 3, 4];
        let ex = Executor::new(2);
        let tasks: Vec<_> = (0..4)
            .map(|i| {
                let d = &data;
                move |_attempt: usize| Ok(d[i] * 10)
            })
            .collect();
        let (out, _) = run_one(&ex, tasks, &RunPolicy::default()).unwrap();
        assert_eq!(out, vec![10, 20, 30, 40]);
    }

    #[test]
    fn failed_attempts_are_retried() {
        let ex = Executor::new(4);
        let tasks: Vec<_> = (0..40)
            .map(|i| {
                move |attempt: usize| {
                    if i % 4 == 0 && attempt == 0 {
                        Err(format!("injected failure of task {i}"))
                    } else {
                        Ok(i)
                    }
                }
            })
            .collect();
        let (out, stats) = run_one(&ex, tasks, &RunPolicy::default()).unwrap();
        assert_eq!(out, (0..40).collect::<Vec<_>>());
        assert_eq!(stats.task_failures, 10);
        assert_eq!(stats.task_retries, 10);
        assert!(stats.wasted_task_secs >= 0.0);
    }

    #[test]
    fn panics_are_contained_and_retried() {
        let ex = Executor::new(4);
        let tasks: Vec<_> = (0..20)
            .map(|i| {
                move |attempt: usize| {
                    if i == 7 && attempt < 2 {
                        panic!("task 7 blew up on attempt {attempt}");
                    }
                    Ok(i)
                }
            })
            .collect();
        let (out, stats) = run_one(&ex, tasks, &RunPolicy::default()).unwrap();
        assert_eq!(out, (0..20).collect::<Vec<_>>());
        assert_eq!(stats.task_failures, 2);
        assert_eq!(stats.task_retries, 2);
    }

    #[test]
    fn retry_exhaustion_returns_clean_error() {
        let ex = Executor::new(4);
        let tasks: Vec<_> = (0..10)
            .map(|i| {
                move |_attempt: usize| {
                    if i == 3 {
                        Err("always fails".to_string())
                    } else {
                        Ok(i)
                    }
                }
            })
            .collect();
        let policy = RunPolicy {
            max_attempts: 4,
            speculation: None,
        };
        let err = task_error(run_one(&ex, tasks, &policy).unwrap_err());
        assert_eq!(err.task, 3);
        assert_eq!(err.attempts, 4);
        assert!(err.message.contains("always fails"));
        assert!(err.to_string().contains("task 3"));
    }

    #[test]
    fn max_attempts_zero_clamped_to_one() {
        let ex = Executor::new(2);
        let tasks: Vec<_> = vec![|_a: usize| Err::<u32, _>("boom".to_string())];
        let policy = RunPolicy {
            max_attempts: 0,
            speculation: None,
        };
        let err = task_error(run_one(&ex, tasks, &policy).unwrap_err());
        assert_eq!(err.attempts, 1);
    }

    #[test]
    fn speculation_rescues_straggler() {
        // One task stalls only on its first attempt; the speculative
        // backup (attempt 1) completes immediately and wins.
        let ex = Executor::new(4);
        let tasks: Vec<_> = (0..8)
            .map(|i| {
                move |attempt: usize| {
                    if i == 5 && attempt == 0 {
                        std::thread::sleep(Duration::from_millis(400));
                    }
                    Ok(i * 2)
                }
            })
            .collect();
        let policy = RunPolicy {
            max_attempts: 4,
            speculation: Some(SpeculationPolicy {
                multiplier: 1.5,
                min_task_secs: 0.02,
            }),
        };
        let t0 = Instant::now();
        let (out, stats) = run_one(&ex, tasks, &policy).unwrap();
        assert_eq!(out, (0..8).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(stats.speculative_launched, 1);
        assert_eq!(stats.speculative_won, 1);
        // The batch returned before the straggler's 400 ms nap finished
        // processing would have allowed (scope still joins the sleeper,
        // so just check the speculative copy actually committed first).
        assert!(t0.elapsed() >= Duration::from_millis(20));
        assert!(stats.wasted_task_secs > 0.0, "loser time must be counted");
    }

    #[test]
    fn wave_outcomes_split_by_stage() {
        let ex = Executor::new(4);
        // One closure-builder so every stage shares a task type, as the
        // scheduler's single closure site guarantees.
        let mk = |v: usize| move |_a: usize| Ok::<_, String>(v);
        let stages: Vec<Vec<_>> = vec![
            (0..3).map(|i| mk(i * 10)).collect(),
            Vec::new(),
            (0..2).map(|i| mk(i + 100)).collect(),
        ];
        let out = ex.run_wave(stages, &RunPolicy::default(), None).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].results, vec![0, 10, 20]);
        assert!(out[1].results.is_empty());
        assert_eq!(out[2].results, vec![100, 101]);
    }

    #[test]
    fn wave_stats_attributed_to_failing_stage() {
        let ex = Executor::new(4);
        let mk = |flaky: bool, i: usize| {
            move |attempt: usize| {
                if flaky && attempt == 0 {
                    Err(format!("flaky task {i}"))
                } else {
                    Ok(i)
                }
            }
        };
        let stages: Vec<Vec<_>> = vec![
            (0..4).map(|i| mk(true, i)).collect(),
            (0..4).map(|i| mk(false, i)).collect(),
        ];
        let out = ex.run_wave(stages, &RunPolicy::default(), None).unwrap();
        assert_eq!(out[0].stats.task_failures, 4);
        assert_eq!(out[0].stats.task_retries, 4);
        assert_eq!(out[1].stats, RunStats::default());
    }

    #[test]
    fn wave_stages_actually_interleave() {
        // One task per stage, two stages, two threads: a shared barrier
        // can only be passed if tasks of *different* stages run at the
        // same time.
        let barrier = std::sync::Barrier::new(2);
        let ex = Executor::new(2);
        let stages: Vec<Vec<_>> = (0..2)
            .map(|s| {
                let b = &barrier;
                vec![move |_a: usize| {
                    b.wait();
                    Ok::<usize, String>(s)
                }]
            })
            .collect();
        let out = ex.run_wave(stages, &RunPolicy::default(), None).unwrap();
        assert_eq!(out[0].results, vec![0]);
        assert_eq!(out[1].results, vec![1]);
    }

    #[test]
    fn wave_error_reports_flat_task_index() {
        let ex = Executor::new(2);
        let mk = |doomed: bool, i: usize| {
            move |_a: usize| {
                if doomed {
                    Err("doomed".to_string())
                } else {
                    Ok(i)
                }
            }
        };
        let stages: Vec<Vec<_>> = vec![(0..2).map(|i| mk(false, i)).collect(), vec![mk(true, 0)]];
        let policy = RunPolicy {
            max_attempts: 2,
            speculation: None,
        };
        let err = task_error(ex.run_wave(stages, &policy, None).unwrap_err());
        assert_eq!(err.task, 2);
        assert_eq!(err.attempts, 2);
    }

    #[test]
    fn fallible_empty_batch() {
        let ex = Executor::new(4);
        let tasks = Vec::<fn(usize) -> Result<u32, String>>::new();
        let (out, stats) = run_one(&ex, tasks, &RunPolicy::default()).unwrap();
        assert!(out.is_empty());
        assert_eq!(stats, RunStats::default());
    }
}
