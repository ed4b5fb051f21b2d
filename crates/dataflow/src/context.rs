//! The cluster driver: owns executor, shuffle service, cache and metrics.
//! Actions run through [`crate::scheduler`] (the engine's DAGScheduler),
//! which borrows them from here; this module also holds the one task
//! attempt wrapper, `run_attempt`.

use crate::cache::BlockManager;
use crate::config::ClusterConfig;
use crate::executor::{CancelToken, Executor, RunPolicy};
use crate::fault::{FaultInjector, InjectedFault};
use crate::metrics::{AttemptCounters, Counters, MetricsRegistry};
use crate::rdd::Rdd;
use crate::shuffle::ShuffleService;
use crate::Data;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Everything a winning task attempt hands back to the driver: the task's
/// value plus the metrics that must only be committed once per task.
pub(crate) struct TaskRun<O> {
    pub(crate) value: O,
    pub(crate) records: u64,
    pub(crate) cpu_secs: f64,
    pub(crate) counters: Counters,
}

/// Runs one attempt of a task: applies the injected fault (if any),
/// computes `body` against the attempt's own counter block, and packages
/// the result for driver-side commit. Failed attempts return `Err`, and
/// their counters — along with any shuffle output `body` prepared — are
/// dropped here, never reaching shared state.
pub(crate) fn run_attempt<O>(
    cluster: &Cluster,
    injector: Option<&FaultInjector>,
    stage_id: usize,
    partition: usize,
    attempt: usize,
    body: impl FnOnce(&TaskContext) -> (O, u64),
) -> Result<TaskRun<O>, String> {
    let fault = injector.and_then(|i| i.decide(stage_id, partition, attempt));
    match fault {
        Some(InjectedFault::Crash) => {
            return Err(format!(
                "injected crash (stage {stage_id}, partition {partition}, attempt {attempt})"
            ));
        }
        Some(InjectedFault::Delay(d)) => std::thread::sleep(d),
        _ => {}
    }
    let sink = AttemptCounters::default();
    let t0 = Instant::now();
    let (value, records) = {
        let ctx = TaskContext {
            cluster,
            stage: &sink,
        };
        body(&ctx)
    };
    let cpu_secs = t0.elapsed().as_secs_f64();
    let counters = sink.into_inner();
    if let Some(InjectedFault::LateCrash) = fault {
        return Err(format!(
            "injected late crash (stage {stage_id}, partition {partition}, attempt {attempt})"
        ));
    }
    Ok(TaskRun {
        value,
        records,
        cpu_secs,
        counters,
    })
}

struct ClusterInner {
    config: ClusterConfig,
    executor: Executor,
    shuffle: Arc<ShuffleService>,
    blocks: BlockManager,
    metrics: Arc<MetricsRegistry>,
    next_shuffle_id: AtomicUsize,
}

/// Per-job driver context threaded through a [`Cluster`] handle while a
/// [`crate::jobserver::JobServer`] job runs: identifies the server job in
/// metrics, carries its cancel token, and accrues executed waves to the
/// job and to its scheduling pool. Jobs run directly on the cluster have
/// none, which keeps the non-server path untouched.
pub(crate) struct JobSession {
    /// Server-assigned job id, recorded on every stage's [`StageDag`].
    pub(crate) server_job: usize,
    /// Cooperative cancellation token checked between waves.
    pub(crate) cancel: CancelToken,
    /// Waves executed by this job (for the job's latency record).
    pub(crate) waves: AtomicU64,
    /// Waves executed by this job's pool (the fair scheduler's live
    /// service counter).
    pub(crate) pool_service: Arc<AtomicU64>,
}

/// Handle to a simulated cluster. Cheap to clone (an `Arc` inside);
/// all clones share executor, shuffle data, cache and metrics. A clone
/// may additionally carry a `JobSession` when it is the driver handle
/// of a job-server job; RDDs built from it inherit that session.
#[derive(Clone)]
pub struct Cluster {
    inner: Arc<ClusterInner>,
    session: Option<Arc<JobSession>>,
}

/// Per-task execution context handed to [`crate::rdd::RddNode::compute`].
pub(crate) struct TaskContext<'a> {
    /// The cluster the task runs on.
    pub cluster: &'a Cluster,
    /// Counter block of the running task attempt; reaches its stage's
    /// metrics only if the attempt commits.
    pub stage: &'a AttemptCounters,
}

impl Cluster {
    /// Creates a cluster with the given configuration. Panics if it has
    /// no node, partition or attempt, or a speculation or memory setting
    /// no builder would accept.
    pub fn new(config: ClusterConfig) -> Self {
        config.check_runnable();
        let executor = Executor::new(config.executor_threads);
        let metrics = Arc::new(MetricsRegistry::new());
        let budget = config.memory_budget;
        Cluster {
            inner: Arc::new(ClusterInner {
                config,
                executor,
                shuffle: Arc::new(ShuffleService::new(budget, metrics.clone())),
                blocks: BlockManager::new(budget, metrics.clone()),
                metrics,
                next_shuffle_id: AtomicUsize::new(0),
            }),
            session: None,
        }
    }

    /// Returns a handle to the same cluster carrying `session` — the
    /// driver handle a [`crate::jobserver::JobServer`] hands to each job
    /// closure, so every action the job runs is attributed and
    /// cancellable.
    pub(crate) fn with_job_session(&self, session: Arc<JobSession>) -> Cluster {
        Cluster {
            inner: self.inner.clone(),
            session: Some(session),
        }
    }

    /// True if this handle's job has been asked to cancel.
    pub(crate) fn cancel_requested(&self) -> bool {
        self.cancel_token().is_some_and(CancelToken::is_cancelled)
    }

    /// Cancel token of the current job session, if any.
    pub(crate) fn cancel_token(&self) -> Option<&CancelToken> {
        self.session.as_ref().map(|s| &s.cancel)
    }

    /// Server job id of the current job session, if any.
    pub(crate) fn server_job(&self) -> Option<usize> {
        self.session.as_ref().map(|s| s.server_job)
    }

    /// Accrues one executed wave to the current job and to its pool's
    /// live service counter (the fair scheduler's currency).
    pub(crate) fn note_wave(&self) {
        if let Some(s) = &self.session {
            s.waves.fetch_add(1, Ordering::Relaxed);
            s.pool_service.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Unwinds with a [`crate::jobserver::JobCancelled`] payload if the
    /// current job has been cancelled. Called by the scheduler before each
    /// wave — never mid-wave, so cancellation cannot observe a
    /// half-committed stage.
    pub(crate) fn check_cancel(&self) {
        if self.cancel_requested() {
            std::panic::panic_any(crate::jobserver::JobCancelled);
        }
    }

    /// Cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.inner.config
    }

    /// Metrics log.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// Shuffle data service.
    pub fn shuffle_service(&self) -> &ShuffleService {
        &self.inner.shuffle
    }

    /// Shared handle to the shuffle service (used by shuffle dependencies
    /// for reference-based cleanup).
    pub(crate) fn shuffle_service_arc(&self) -> Arc<ShuffleService> {
        self.inner.shuffle.clone()
    }

    /// Cache of computed partitions.
    pub fn block_manager(&self) -> &BlockManager {
        &self.inner.blocks
    }

    /// Allocates a fresh shuffle id.
    pub(crate) fn next_shuffle_id(&self) -> usize {
        self.inner.next_shuffle_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Distributes `data` over `partitions` partitions (Spark
    /// `parallelize`). Elements are split into contiguous, nearly-equal
    /// chunks.
    pub fn parallelize<T: Data>(&self, data: Vec<T>, partitions: usize) -> Rdd<T> {
        Rdd::parallelize(self.clone(), data, partitions.max(1))
    }

    /// Distributes key-value records bucketed by `partitioner` on the
    /// driver, recording the partitioner on the resulting RDD.
    /// Downstream `join`/`reduce_by_key`/`cogroup` onto the same
    /// partitioner then run as narrow (zero-shuffle) dependencies. Records
    /// keep their relative order within each bucket — the same sequence a
    /// shuffle onto `partitioner` would deliver, so results are
    /// bit-identical to the shuffled path.
    pub fn parallelize_by_key<K: crate::Key, V: Data>(
        &self,
        data: Vec<(K, V)>,
        partitioner: crate::HashPartitioner,
    ) -> Rdd<(K, V)> {
        let mut buckets: Vec<Vec<(K, V)>> = (0..partitioner.num_partitions())
            .map(|_| Vec::new())
            .collect();
        for (k, v) in data {
            buckets[partitioner.partition(&k)].push((k, v));
        }
        let node = Arc::new(crate::rdd::nodes::SourceNode::new("parallelize", buckets));
        Rdd::from_node(self.clone(), node).with_partitioner(Some(partitioner))
    }

    /// Simulates the failure of one worker node: every cached partition
    /// and every shuffle map output living on that node is lost. Later
    /// jobs transparently recover by recomputing exactly the lost pieces
    /// from lineage — the fault-tolerance property (Zaharia et al., NSDI
    /// 2012) that motivates building tensor factorization on RDDs in the
    /// first place (paper §1). Returns `(cache_blocks, map_outputs)` lost.
    pub fn simulate_node_failure(&self, node: usize) -> (usize, usize) {
        let config = self.inner.config.clone();
        let blocks = self
            .inner
            .blocks
            .remove_where(|partition| config.node_of(partition) == node);
        let outputs = self
            .inner
            .shuffle
            .remove_map_outputs_where(|map_partition| config.node_of(map_partition) == node);
        (blocks, outputs)
    }

    /// The task executor (used by the scheduler to run stage waves).
    pub(crate) fn executor(&self) -> &Executor {
        &self.inner.executor
    }

    /// Retry/speculation policy derived from the cluster config.
    pub(crate) fn run_policy(&self) -> RunPolicy {
        RunPolicy {
            max_attempts: self.inner.config.max_task_attempts,
            speculation: self.inner.config.speculation.clone(),
        }
    }

    /// Fault injector derived from the cluster config, if chaos testing
    /// is enabled.
    pub(crate) fn fault_injector(&self) -> Option<FaultInjector> {
        self.inner.config.faults.clone().map(FaultInjector::new)
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("config", &self.inner.config)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_state() {
        let c1 = Cluster::new(ClusterConfig::local(2));
        let c2 = c1.clone();
        c1.metrics().record_disk_read(10);
        assert_eq!(c2.metrics().snapshot().total_disk_read(), 10);
    }

    #[test]
    fn shuffle_ids_unique() {
        let c = Cluster::new(ClusterConfig::local(1));
        let a = c.next_shuffle_id();
        let b = c.next_shuffle_id();
        assert_ne!(a, b);
    }

    #[test]
    fn parallelize_clamps_zero_partitions() {
        let c = Cluster::new(ClusterConfig::local(2));
        let r = c.parallelize(vec![1, 2, 3], 0);
        assert_eq!(r.num_partitions(), 1);
        assert_eq!(r.collect(), vec![1, 2, 3]);
    }
}
