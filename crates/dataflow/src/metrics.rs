//! Execution metrics: per-stage CPU, record and shuffle-byte accounting.
//!
//! The paper's evaluation leans on two Spark metrics — *remote bytes read*
//! and *local bytes read* across shuffle phases (§6.5, Figure 4) — plus
//! per-stage structure (how many shuffles a workflow performs, Table 4).
//! This module records those quantities as jobs execute. All byte counts
//! come from [`crate::size::EstimateSize`] and are deterministic; CPU times
//! are measured and feed the [`crate::sim::TimeModel`].

use crate::executor::RunStats;
use crate::kernel::KernelCounters;
use parking_lot::Mutex;
use serde::Serialize;
use std::collections::BTreeMap;

/// What a stage produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum StageKind {
    /// Map side of a shuffle: computed parent partitions and wrote buckets.
    ShuffleMap,
    /// Final stage of a job: computed the action's target partitions.
    Result,
}

/// Placement of a stage in its job's dependency DAG, recorded by the
/// [`crate::scheduler`] when it submits the stage.
///
/// Parents are metrics-log stage ids (including skipped stages), so the
/// DAG can be reconstructed from the event log alone — that is what the
/// critical-path time model and the report's STAGES section do.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct StageDag {
    /// Job (action) this stage was executed for; monotonic per cluster.
    pub job: usize,
    /// Scheduling wave: the longest pending-stage path below this stage.
    /// The job's result stage runs as the final wave.
    pub wave: usize,
    /// Metrics-log stage ids of the stages this one reads shuffles from.
    pub parents: Vec<usize>,
    /// Shuffle produced by this stage (`None` for the result stage).
    pub shuffle_id: Option<usize>,
    /// [`crate::jobserver::JobServer`] job this stage ran for (`None` when
    /// the job was run directly on the cluster). Unlike `job` — which is
    /// allocated per *action* — one server job spans every action its
    /// closure runs, so this is the key for per-tenant accounting.
    pub server_job: Option<usize>,
}

/// How a [`crate::jobserver::JobServer`] job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum JobOutcomeKind {
    /// The job's closure returned a value.
    Completed,
    /// The job was cancelled (before or during execution).
    Cancelled,
    /// The job's closure panicked or a stage exhausted its attempts.
    Failed,
}

/// Lifecycle record of one [`crate::jobserver::JobServer`] job, emitted as
/// an [`Event::JobFinished`] when the job leaves the server. Queue-delay
/// and latency come from the server's own clock; `waves` counts executed
/// stage waves (the fair scheduler's service currency).
#[derive(Debug, Clone, Serialize)]
pub struct JobRecord {
    /// Server-assigned job id (the `server_job` on this job's stages).
    pub server_job: usize,
    /// Submitting tenant.
    pub tenant: String,
    /// Scheduling pool the job ran in.
    pub pool: String,
    /// Submission order across the whole server (0-based).
    pub submit_seq: usize,
    /// Dispatch order across the whole server (0-based). Jobs cancelled
    /// while still queued never dispatch and record `usize::MAX`.
    pub start_seq: usize,
    /// Seconds spent queued before dispatch.
    pub queue_delay_secs: f64,
    /// Seconds from dispatch to completion (0 if never dispatched).
    pub run_secs: f64,
    /// Stage waves executed by the job (including each action's result
    /// wave).
    pub waves: u64,
    /// How the job ended.
    pub outcome: JobOutcomeKind,
}

/// Aggregated measurements for one executed stage.
#[derive(Debug, Clone, Serialize)]
pub struct StageMetrics {
    /// Monotonic stage id within the cluster.
    pub stage_id: usize,
    /// Where this stage sits in its job's DAG (`None` for stages recorded
    /// outside the DAG scheduler, e.g. synthetic test stages).
    pub dag: Option<StageDag>,
    /// User-set scope label active when the stage ran (e.g. `"MTTKRP-1"`).
    pub scope: String,
    /// Human-readable stage name (operator that caused it).
    pub name: String,
    /// Stage kind.
    pub kind: StageKind,
    /// Number of tasks (= partitions) executed.
    pub num_tasks: usize,
    /// Records produced by the stage's tasks.
    pub records_out: u64,
    /// Records computed across the whole narrow pipeline of the stage's
    /// tasks, *including* recomputation of uncached parents — the work
    /// measure the modeled CPU cost uses. Always ≥ `records_out`.
    pub records_computed: u64,
    /// Records written into shuffle buckets (ShuffleMap stages).
    pub shuffle_write_records: u64,
    /// Bytes written into shuffle buckets (ShuffleMap stages).
    pub shuffle_write_bytes: u64,
    /// Shuffle bytes read from buckets on a *different* simulated node.
    pub remote_bytes_read: u64,
    /// Shuffle bytes read from buckets on the *same* simulated node.
    pub local_bytes_read: u64,
    /// Records read from shuffle buckets.
    pub shuffle_read_records: u64,
    /// Measured task CPU seconds summed per simulated node.
    pub node_cpu_secs: Vec<f64>,
    /// Longest single task, in seconds.
    pub max_task_secs: f64,
    /// Task attempts that failed (fault injection, panic, or error) and
    /// were discarded.
    pub task_failures: u64,
    /// Retry attempts launched after failures.
    pub task_retries: u64,
    /// Speculative backup attempts launched against stragglers.
    pub speculative_launched: u64,
    /// Tasks whose speculative backup committed first.
    pub speculative_won: u64,
    /// Wall-clock seconds burned by discarded attempts (failed attempts
    /// and losing speculative duplicates); priced as recovery cost by the
    /// [`crate::sim::TimeModel`].
    pub wasted_task_secs: f64,
    /// Sorted-runs kernel: contiguous key runs combined (= distinct keys
    /// the kernel reduced). Zero on record-at-a-time stages.
    pub kernel_runs: u64,
    /// Sorted-runs kernel: records folded by the largest single combine —
    /// the stage's straggler bound (max over tasks).
    pub kernel_max_subtask_records: u64,
    /// Row-arena hits inside this stage's winning task attempts: row
    /// buffers reused from the [`crate::kernel::pool`] instead of
    /// allocated.
    pub kernel_arena_hits: u64,
}

impl StageMetrics {
    fn new(stage_id: usize, scope: String, name: String, kind: StageKind, nodes: usize) -> Self {
        StageMetrics {
            stage_id,
            dag: None,
            scope,
            name,
            kind,
            num_tasks: 0,
            records_out: 0,
            records_computed: 0,
            shuffle_write_records: 0,
            shuffle_write_bytes: 0,
            remote_bytes_read: 0,
            local_bytes_read: 0,
            shuffle_read_records: 0,
            node_cpu_secs: vec![0.0; nodes],
            max_task_secs: 0.0,
            task_failures: 0,
            task_retries: 0,
            speculative_launched: 0,
            speculative_won: 0,
            wasted_task_secs: 0.0,
            kernel_runs: 0,
            kernel_max_subtask_records: 0,
            kernel_arena_hits: 0,
        }
    }

    /// Total shuffle bytes read (remote + local).
    pub fn shuffle_read_bytes(&self) -> u64 {
        self.remote_bytes_read + self.local_bytes_read
    }

    /// Total measured CPU seconds across all nodes.
    pub fn total_cpu_secs(&self) -> f64 {
        self.node_cpu_secs.iter().sum()
    }
}

/// Concurrent sink tasks write into while a stage runs.
///
/// Under fault injection a task may run several attempts, only one of
/// which commits. So that failed attempts and losing speculative
/// duplicates never pollute the stage's counters, each *attempt* writes
/// into its own private sink (`StageCollector::attempt_sink`); the
/// driver absorbs the sink into the real stage collector only for the
/// winning attempt (`StageCollector::absorb`). Byte/record counts are
/// therefore retry-invariant by construction.
#[derive(Debug)]
pub struct StageCollector {
    inner: Mutex<StageMetrics>,
}

impl StageCollector {
    /// Stage id this collector records into.
    pub fn stage_id(&self) -> usize {
        self.inner.lock().stage_id
    }

    /// Creates a private per-attempt sink with the same node count. The
    /// sink's identity fields are irrelevant — only its counters are
    /// merged back on commit.
    pub(crate) fn attempt_sink(nodes: usize) -> StageCollector {
        StageCollector {
            inner: Mutex::new(StageMetrics::new(
                usize::MAX,
                String::new(),
                String::new(),
                StageKind::Result,
                nodes,
            )),
        }
    }

    /// Merges a winning attempt's counters into this stage's metrics.
    pub(crate) fn absorb(&self, sink: StageCollector) {
        let s = sink.inner.into_inner();
        let mut m = self.inner.lock();
        m.records_computed += s.records_computed;
        m.shuffle_write_records += s.shuffle_write_records;
        m.shuffle_write_bytes += s.shuffle_write_bytes;
        m.remote_bytes_read += s.remote_bytes_read;
        m.local_bytes_read += s.local_bytes_read;
        m.shuffle_read_records += s.shuffle_read_records;
        m.kernel_runs += s.kernel_runs;
        m.kernel_max_subtask_records = m
            .kernel_max_subtask_records
            .max(s.kernel_max_subtask_records);
        m.kernel_arena_hits += s.kernel_arena_hits;
    }

    /// Records the recovery statistics of the stage's executor batch.
    pub(crate) fn record_run_stats(&self, stats: &RunStats) {
        let mut m = self.inner.lock();
        m.task_failures += stats.task_failures;
        m.task_retries += stats.task_retries;
        m.speculative_launched += stats.speculative_launched;
        m.speculative_won += stats.speculative_won;
        m.wasted_task_secs += stats.wasted_task_secs;
    }

    /// Records one finished task.
    pub fn record_task(&self, node: usize, cpu_secs: f64, records_out: u64) {
        let mut m = self.inner.lock();
        m.num_tasks += 1;
        m.records_out += records_out;
        if node < m.node_cpu_secs.len() {
            m.node_cpu_secs[node] += cpu_secs;
        }
        m.max_task_secs = m.max_task_secs.max(cpu_secs);
    }

    /// Records pipeline work: `n` records produced by one lineage node
    /// while computing a partition (called per node, so recomputed
    /// parents are counted every time they run).
    pub fn add_records_computed(&self, n: u64) {
        self.inner.lock().records_computed += n;
    }

    /// Records a map-side shuffle write.
    pub fn add_shuffle_write(&self, records: u64, bytes: u64) {
        let mut m = self.inner.lock();
        m.shuffle_write_records += records;
        m.shuffle_write_bytes += bytes;
    }

    /// Records a reduce-side shuffle read from one map output bucket.
    pub fn add_shuffle_read(&self, remote_bytes: u64, local_bytes: u64, records: u64) {
        let mut m = self.inner.lock();
        m.remote_bytes_read += remote_bytes;
        m.local_bytes_read += local_bytes;
        m.shuffle_read_records += records;
    }

    /// Records one sorted-runs kernel invocation's counters.
    pub fn add_kernel(&self, counters: &KernelCounters) {
        let mut m = self.inner.lock();
        m.kernel_runs += counters.runs;
        m.kernel_max_subtask_records = m
            .kernel_max_subtask_records
            .max(counters.max_subtask_records);
    }

    /// Records row-arena reuse hits (buffers taken from the pool instead
    /// of allocated) attributed to this attempt.
    pub fn add_arena_hits(&self, hits: u64) {
        self.inner.lock().kernel_arena_hits += hits;
    }

    fn finish(self) -> StageMetrics {
        self.inner.into_inner()
    }
}

/// One event in a job's execution log.
#[derive(Debug, Clone, Serialize)]
pub enum Event {
    /// A stage executed. Boxed: a `StageMetrics` is an order of magnitude
    /// larger than any other variant, and logs hold many mixed events.
    Stage(Box<StageMetrics>),
    /// The driver declared bytes read from distributed storage (models
    /// HDFS input for the Hadoop platform profile).
    DiskRead {
        /// Scope label active when recorded.
        scope: String,
        /// Bytes read.
        bytes: u64,
    },
    /// The driver declared bytes written to distributed storage (models
    /// Hadoop materializing job output between MapReduce jobs).
    DiskWrite {
        /// Scope label active when recorded.
        scope: String,
        /// Bytes written.
        bytes: u64,
    },
    /// A MapReduce-style job boundary (models Hadoop job launch overhead).
    JobBoundary {
        /// Scope label active when recorded.
        scope: String,
    },
    /// A broadcast: `bytes` moved over the network to replicate a value
    /// on every node.
    Broadcast {
        /// Scope label active when recorded.
        scope: String,
        /// Total remote bytes (replica size × receiving nodes).
        bytes: u64,
    },
    /// A shuffle the partitioner-aware planner elided: the input was
    /// already partitioned by the requested partitioner, so the wide
    /// operation ran as a narrow dependency — no shuffle-map stage, no
    /// shuffle bytes. Recorded at graph-construction time.
    SkippedShuffle {
        /// Scope label active when recorded.
        scope: String,
        /// Operator whose shuffle was skipped (e.g. `"cogroup-left"`).
        name: String,
    },
    /// A shuffle-map stage the DAG scheduler skipped because its shuffle
    /// is already fully materialized (the Spark UI's grey "skipped"
    /// stage). It consumes a stage id so later stages can cite it as a
    /// DAG parent, but runs no tasks and costs no modeled time.
    SkippedStage {
        /// Scope label active when recorded.
        scope: String,
        /// Stage id allocated to the skipped stage.
        stage_id: usize,
        /// Job the pruned stage was planned for.
        job: usize,
        /// Stage name, e.g. `shuffle-map(partition_by)`.
        name: String,
        /// The already-materialized shuffle.
        shuffle_id: usize,
    },
    /// The memory budget enforcer dropped or spilled a block from memory.
    StorageEvicted {
        /// Scope label active when recorded.
        scope: String,
        /// Storage owner (`"rdd-<id>"` or `"shuffle-<id>"`).
        owner: String,
        /// Estimated bytes removed from memory.
        bytes: u64,
    },
    /// Bytes written to the local-disk spill store (a `MemoryAndDisk`
    /// eviction, a `DiskOnly` put, or an oversized shuffle map output).
    /// Priced by `TimeModel::spill_write_bw`.
    StorageSpillWrite {
        /// Scope label active when recorded.
        scope: String,
        /// Storage owner (`"rdd-<id>"` or `"shuffle-<id>"`).
        owner: String,
        /// Estimated bytes written.
        bytes: u64,
    },
    /// Bytes read back from the local-disk spill store (reload +
    /// deserialization). Priced by `TimeModel::spill_read_bw`.
    StorageSpillRead {
        /// Scope label active when recorded.
        scope: String,
        /// Storage owner (`"rdd-<id>"` or `"shuffle-<id>"`).
        owner: String,
        /// Estimated bytes read.
        bytes: u64,
    },
    /// An evicted (dropped, not spilled) block was recomputed from
    /// lineage on a later read — the cache-miss analogue of lost-partition
    /// recovery. The recompute CPU itself lands in the reading stage's
    /// task metrics.
    StorageRecompute {
        /// Scope label active when recorded.
        scope: String,
        /// Storage owner (`"rdd-<id>"`).
        owner: String,
    },
    /// A [`crate::jobserver::JobServer`] job finished (completed, failed
    /// or cancelled); carries its queue-delay / latency record.
    JobFinished(JobRecord),
}

/// An immutable snapshot of everything recorded since the last reset.
#[derive(Debug, Clone, Default, Serialize)]
pub struct JobMetrics {
    /// Ordered execution log.
    pub events: Vec<Event>,
}

impl JobMetrics {
    /// All executed stages, in order.
    pub fn stages(&self) -> impl Iterator<Item = &StageMetrics> + '_ {
        self.events.iter().filter_map(|e| match e {
            Event::Stage(s) => Some(s.as_ref()),
            _ => None,
        })
    }

    /// Number of shuffles performed (ShuffleMap stages — each shuffle
    /// dependency materializes exactly one).
    pub fn shuffle_count(&self) -> usize {
        self.stages()
            .filter(|s| s.kind == StageKind::ShuffleMap)
            .count()
    }

    /// Shuffles that moved at least `min_records` records. The paper counts
    /// only tensor-sized shuffles (a factor-matrix side of a join is
    /// negligible next to `nnz` tensor records); pass `min_records ≈ nnz/2`
    /// to reproduce the Table 4 "Shuffles" column.
    pub fn significant_shuffle_count(&self, min_records: u64) -> usize {
        self.stages()
            .filter(|s| s.kind == StageKind::ShuffleMap && s.shuffle_write_records >= min_records)
            .count()
    }

    /// Number of shuffles the partitioner-aware planner skipped because
    /// the input was already co-partitioned (narrow-join accounting; the
    /// savings ablations report).
    pub fn skipped_shuffle_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, Event::SkippedShuffle { .. }))
            .count()
    }

    /// Number of stages the DAG scheduler skipped as already
    /// materialized (lineage pruned below a complete shuffle).
    pub fn skipped_stage_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, Event::SkippedStage { .. }))
            .count()
    }

    /// Job ids that appear in the log, in first-seen order.
    pub fn dag_jobs(&self) -> Vec<usize> {
        let mut jobs = Vec::new();
        for e in &self.events {
            let job = match e {
                Event::Stage(s) => s.dag.as_ref().map(|d| d.job),
                Event::SkippedStage { job, .. } => Some(*job),
                _ => None,
            };
            if let Some(job) = job {
                if !jobs.contains(&job) {
                    jobs.push(job);
                }
            }
        }
        jobs
    }

    /// Executed stages belonging to one job, in execution order.
    pub fn stages_in_job(&self, job: usize) -> impl Iterator<Item = &StageMetrics> + '_ {
        self.stages()
            .filter(move |s| s.dag.as_ref().is_some_and(|d| d.job == job))
    }

    /// Executed stages belonging to one [`crate::jobserver::JobServer`]
    /// job (all its actions), in execution order — the per-tenant
    /// counterpart of [`Self::stages_in_job`].
    pub fn stages_in_server_job(&self, server_job: usize) -> impl Iterator<Item = &StageMetrics> {
        self.stages().filter(move |s| {
            s.dag
                .as_ref()
                .is_some_and(|d| d.server_job == Some(server_job))
        })
    }

    /// Lifecycle records of finished job-server jobs, in finish order.
    pub fn job_records(&self) -> impl Iterator<Item = &JobRecord> {
        self.events.iter().filter_map(|e| match e {
            Event::JobFinished(r) => Some(r),
            _ => None,
        })
    }

    /// Scheduling pools that finished at least one job, in first-seen
    /// order.
    pub fn job_pools(&self) -> Vec<String> {
        let mut pools: Vec<String> = Vec::new();
        for r in self.job_records() {
            if !pools.contains(&r.pool) {
                pools.push(r.pool.clone());
            }
        }
        pools
    }

    /// Finished-job records of one scheduling pool, in finish order.
    pub fn jobs_in_pool<'a>(&'a self, pool: &'a str) -> impl Iterator<Item = &'a JobRecord> + 'a {
        self.job_records().filter(move |r| r.pool == pool)
    }

    /// Queue delays (seconds spent between submission and dispatch) of
    /// one pool's finished jobs, in finish order.
    pub fn pool_queue_delays(&self, pool: &str) -> Vec<f64> {
        self.jobs_in_pool(pool)
            .map(|r| r.queue_delay_secs)
            .collect()
    }

    /// Total remote shuffle bytes read.
    pub fn total_remote_bytes(&self) -> u64 {
        self.stages().map(|s| s.remote_bytes_read).sum()
    }

    /// Total local shuffle bytes read.
    pub fn total_local_bytes(&self) -> u64 {
        self.stages().map(|s| s.local_bytes_read).sum()
    }

    /// Total shuffle bytes read (remote + local).
    pub fn total_shuffle_bytes(&self) -> u64 {
        self.total_remote_bytes() + self.total_local_bytes()
    }

    /// Total bytes declared as distributed-storage reads.
    pub fn total_disk_read(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e {
                Event::DiskRead { bytes, .. } => *bytes,
                _ => 0,
            })
            .sum()
    }

    /// Total bytes declared as distributed-storage writes.
    pub fn total_disk_write(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e {
                Event::DiskWrite { bytes, .. } => *bytes,
                _ => 0,
            })
            .sum()
    }

    /// Total bytes moved by broadcasts.
    pub fn total_broadcast_bytes(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e {
                Event::Broadcast { bytes, .. } => *bytes,
                _ => 0,
            })
            .sum()
    }

    /// Total failed task attempts across all stages.
    pub fn total_task_failures(&self) -> u64 {
        self.stages().map(|s| s.task_failures).sum()
    }

    /// Total retry attempts across all stages.
    pub fn total_task_retries(&self) -> u64 {
        self.stages().map(|s| s.task_retries).sum()
    }

    /// Total speculative attempts launched across all stages.
    pub fn total_speculative_launched(&self) -> u64 {
        self.stages().map(|s| s.speculative_launched).sum()
    }

    /// Total tasks won by their speculative backup across all stages.
    pub fn total_speculative_won(&self) -> u64 {
        self.stages().map(|s| s.speculative_won).sum()
    }

    /// Total seconds burned by discarded attempts across all stages.
    pub fn total_wasted_task_secs(&self) -> f64 {
        self.stages().map(|s| s.wasted_task_secs).sum()
    }

    /// Total sorted-runs kernel key runs combined across all stages.
    pub fn total_kernel_runs(&self) -> u64 {
        self.stages().map(|s| s.kernel_runs).sum()
    }

    /// Total row-arena reuse hits across all stages.
    pub fn total_arena_hits(&self) -> u64 {
        self.stages().map(|s| s.kernel_arena_hits).sum()
    }

    /// Records folded by the largest single kernel combine in any stage.
    pub fn max_kernel_subtask_records(&self) -> u64 {
        self.stages()
            .map(|s| s.kernel_max_subtask_records)
            .max()
            .unwrap_or(0)
    }

    /// Total bytes the budget enforcer removed from memory.
    pub fn evicted_bytes(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e {
                Event::StorageEvicted { bytes, .. } => *bytes,
                _ => 0,
            })
            .sum()
    }

    /// Number of blocks the budget enforcer removed from memory.
    pub fn eviction_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, Event::StorageEvicted { .. }))
            .count()
    }

    /// Total bytes written to the local-disk spill store.
    pub fn spilled_bytes(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e {
                Event::StorageSpillWrite { bytes, .. } => *bytes,
                _ => 0,
            })
            .sum()
    }

    /// Total bytes read back from the local-disk spill store.
    pub fn spill_read_bytes(&self) -> u64 {
        self.events
            .iter()
            .map(|e| match e {
                Event::StorageSpillRead { bytes, .. } => *bytes,
                _ => 0,
            })
            .sum()
    }

    /// Number of evicted blocks that were recomputed from lineage.
    pub fn recompute_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, Event::StorageRecompute { .. }))
            .count()
    }

    /// Per-owner storage activity, in first-seen order: `(owner,
    /// evicted_bytes, spilled_bytes, spill_read_bytes, recomputes)` for
    /// each RDD/shuffle that saw any storage event — the per-RDD storage
    /// table in [`Self::render_report`].
    pub fn storage_by_owner(&self) -> Vec<(String, u64, u64, u64, u64)> {
        let mut order: Vec<String> = Vec::new();
        let mut agg: BTreeMap<String, (u64, u64, u64, u64)> = BTreeMap::new();
        let mut touch = |agg: &mut BTreeMap<String, (u64, u64, u64, u64)>, owner: &String| {
            if !agg.contains_key(owner) {
                order.push(owner.clone());
                agg.insert(owner.clone(), (0, 0, 0, 0));
            }
        };
        for e in &self.events {
            match e {
                Event::StorageEvicted { owner, bytes, .. } => {
                    touch(&mut agg, owner);
                    agg.get_mut(owner).expect("touched").0 += bytes;
                }
                Event::StorageSpillWrite { owner, bytes, .. } => {
                    touch(&mut agg, owner);
                    agg.get_mut(owner).expect("touched").1 += bytes;
                }
                Event::StorageSpillRead { owner, bytes, .. } => {
                    touch(&mut agg, owner);
                    agg.get_mut(owner).expect("touched").2 += bytes;
                }
                Event::StorageRecompute { owner, .. } => {
                    touch(&mut agg, owner);
                    agg.get_mut(owner).expect("touched").3 += 1;
                }
                _ => {}
            }
        }
        order
            .into_iter()
            .map(|k| {
                let (e, w, r, c) = agg[&k];
                (k, e, w, r, c)
            })
            .collect()
    }

    /// Number of declared job boundaries.
    pub fn job_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, Event::JobBoundary { .. }))
            .count()
    }

    /// Aggregates `(remote, local)` shuffle bytes per scope label, in
    /// first-seen scope order — the per-MTTKRP stacks of Figure 4.
    pub fn shuffle_bytes_by_scope(&self) -> Vec<(String, u64, u64)> {
        let mut order: Vec<String> = Vec::new();
        let mut agg: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for s in self.stages() {
            if !agg.contains_key(&s.scope) {
                order.push(s.scope.clone());
            }
            let e = agg.entry(s.scope.clone()).or_insert((0, 0));
            e.0 += s.remote_bytes_read;
            e.1 += s.local_bytes_read;
        }
        order
            .into_iter()
            .map(|k| {
                let (r, l) = agg[&k];
                (k, r, l)
            })
            .collect()
    }

    /// Renders a human-readable per-stage report (the engine's analogue
    /// of the Spark UI's stage table), plus event and total summaries.
    pub fn render_report(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>5}  {:<10} {:<10} {:<32} {:>6} {:>10} {:>12} {:>12} {:>12}",
            "stage",
            "scope",
            "kind",
            "name",
            "tasks",
            "records",
            "shfl wr B",
            "remote rd B",
            "local rd B"
        );
        for e in &self.events {
            match e {
                Event::Stage(s) => {
                    let _ = writeln!(
                        out,
                        "{:>5}  {:<10} {:<10} {:<32} {:>6} {:>10} {:>12} {:>12} {:>12}",
                        s.stage_id,
                        truncate(&s.scope, 10),
                        format!("{:?}", s.kind),
                        truncate(&s.name, 32),
                        s.num_tasks,
                        s.records_out,
                        s.shuffle_write_bytes,
                        s.remote_bytes_read,
                        s.local_bytes_read,
                    );
                }
                Event::DiskRead { scope, bytes } => {
                    let _ = writeln!(
                        out,
                        "       {:<10} disk-read  {bytes} B",
                        truncate(scope, 10)
                    );
                }
                Event::DiskWrite { scope, bytes } => {
                    let _ = writeln!(
                        out,
                        "       {:<10} disk-write {bytes} B",
                        truncate(scope, 10)
                    );
                }
                Event::JobBoundary { scope } => {
                    let _ = writeln!(out, "       {:<10} job-launch", truncate(scope, 10));
                }
                Event::Broadcast { scope, bytes } => {
                    let _ = writeln!(
                        out,
                        "       {:<10} broadcast  {bytes} B",
                        truncate(scope, 10)
                    );
                }
                Event::SkippedShuffle { scope, name } => {
                    let _ = writeln!(
                        out,
                        "       {:<10} skipped-shuffle {}",
                        truncate(scope, 10),
                        truncate(name, 32)
                    );
                }
                Event::SkippedStage {
                    scope,
                    stage_id,
                    name,
                    ..
                } => {
                    let _ = writeln!(
                        out,
                        "{:>5}  {:<10} skipped    {:<32} (materialized)",
                        stage_id,
                        truncate(scope, 10),
                        truncate(name, 32),
                    );
                }
                // Storage events are high-volume (one per block); they are
                // aggregated into the STORAGE summary below instead of
                // printed inline.
                Event::StorageEvicted { .. }
                | Event::StorageSpillWrite { .. }
                | Event::StorageSpillRead { .. }
                | Event::StorageRecompute { .. } => {}
                Event::JobFinished(r) => {
                    let _ = writeln!(
                        out,
                        "       job {:>3} [{}/{}] {:?} | queued {:.4} s | ran {:.4} s | {} waves",
                        r.server_job,
                        truncate(&r.tenant, 10),
                        truncate(&r.pool, 10),
                        r.outcome,
                        r.queue_delay_secs,
                        r.run_secs,
                        r.waves,
                    );
                }
            }
        }
        // Per-job stage DAGs: edges, wave per stage, and the
        // critical-path / serialized-sum ratio (priced with the default
        // Spark time-model profile), so stage-overlap wins are visible
        // without reading the sim code.
        let model = crate::sim::TimeModel::spark();
        for job in self.dag_jobs() {
            let waves = self
                .stages_in_job(job)
                .filter_map(|s| s.dag.as_ref())
                .map(|d| d.wave + 1)
                .max()
                .unwrap_or(0);
            let critical = model.job_critical_path(self, job);
            let serialized = model.job_serialized(self, job);
            let ratio = if serialized > 0.0 {
                critical / serialized
            } else {
                1.0
            };
            let _ = writeln!(
                out,
                "STAGES job {job} | {waves} waves | critical-path {critical:.4} s / serialized {serialized:.4} s = {ratio:.2}",
            );
            for e in &self.events {
                match e {
                    Event::Stage(s) => {
                        if let Some(d) = s.dag.as_ref().filter(|d| d.job == job) {
                            let _ = writeln!(
                                out,
                                "  wave {:>2}  stage {:>3}  {:<32} <- {:?}",
                                d.wave,
                                s.stage_id,
                                truncate(&s.name, 32),
                                d.parents,
                            );
                        }
                    }
                    Event::SkippedStage {
                        stage_id,
                        job: j,
                        name,
                        ..
                    } if *j == job => {
                        let _ = writeln!(
                            out,
                            "  cached    stage {:>3}  {:<32} <- []",
                            stage_id,
                            truncate(name, 32),
                        );
                    }
                    _ => {}
                }
            }
        }
        let _ = writeln!(
            out,
            "TOTAL  {} shuffles ({} skipped) | {} remote B | {} local B | {} disk rd B | {} jobs | {} broadcast B",
            self.shuffle_count(),
            self.skipped_shuffle_count(),
            self.total_remote_bytes(),
            self.total_local_bytes(),
            self.total_disk_read(),
            self.job_count(),
            self.total_broadcast_bytes(),
        );
        let _ = writeln!(
            out,
            "FAULT  {} task failures | {} retries | {} speculative launched | {} speculative won | {:.3} s wasted",
            self.total_task_failures(),
            self.total_task_retries(),
            self.total_speculative_launched(),
            self.total_speculative_won(),
            self.total_wasted_task_secs(),
        );
        if self.total_kernel_runs() > 0 || self.total_arena_hits() > 0 {
            let _ = writeln!(
                out,
                "KERNEL {} runs | largest combine {} records | {} arena hits",
                self.total_kernel_runs(),
                self.max_kernel_subtask_records(),
                self.total_arena_hits(),
            );
        }
        let _ = writeln!(
            out,
            "STORAGE {} evictions ({} B) | {} B spilled | {} B spill-read | {} recomputes",
            self.eviction_count(),
            self.evicted_bytes(),
            self.spilled_bytes(),
            self.spill_read_bytes(),
            self.recompute_count(),
        );
        for (owner, evicted, spilled, reread, recomputes) in self.storage_by_owner() {
            let _ = writeln!(
                out,
                "  {owner:<12} evicted {evicted} B | spilled {spilled} B | spill-read {reread} B | recomputed {recomputes}",
            );
        }
        // Per-pool job-server summary: queue-delay distribution and run
        // time, the numbers the fair-vs-FIFO ablation compares.
        for pool in self.job_pools() {
            let records: Vec<&JobRecord> = self.jobs_in_pool(&pool).collect();
            let delays = self.pool_queue_delays(&pool);
            let mean_delay = delays.iter().sum::<f64>() / delays.len().max(1) as f64;
            let mean_run =
                records.iter().map(|r| r.run_secs).sum::<f64>() / records.len().max(1) as f64;
            let count = |k: JobOutcomeKind| records.iter().filter(|r| r.outcome == k).count();
            let waves: u64 = records.iter().map(|r| r.waves).sum();
            let _ = writeln!(
                out,
                "JOBS   pool {pool:<10} {} jobs ({} completed, {} cancelled, {} failed) | queue-delay mean {mean_delay:.4} s p50 {:.4} s p99 {:.4} s | run mean {mean_run:.4} s | {waves} waves",
                records.len(),
                count(JobOutcomeKind::Completed),
                count(JobOutcomeKind::Cancelled),
                count(JobOutcomeKind::Failed),
                percentile(&delays, 50.0),
                percentile(&delays, 99.0),
            );
        }
        out
    }

    /// Stages belonging to one scope.
    pub fn stages_in_scope<'a>(
        &'a self,
        scope: &'a str,
    ) -> impl Iterator<Item = &'a StageMetrics> + 'a {
        self.stages().filter(move |s| s.scope == scope)
    }
}

fn truncate(s: &str, n: usize) -> &str {
    if s.len() <= n {
        s
    } else {
        &s[..n]
    }
}

/// Nearest-rank percentile of `values` (`pct` in 0..=100). Returns 0.0
/// for an empty slice. Used for the queue-delay / latency distributions
/// in the JOBS report and the offered-load model.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Cluster-wide metrics log. Thread-safe; cheap to share.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    events: Mutex<Vec<Event>>,
    scope: Mutex<String>,
    next_stage: std::sync::atomic::AtomicUsize,
    next_job: std::sync::atomic::AtomicUsize,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the scope label recorded on subsequent events (e.g.
    /// `"MTTKRP-2"`). The paper's Figure 4 stacks bytes per such label.
    pub fn set_scope(&self, scope: impl Into<String>) {
        *self.scope.lock() = scope.into();
    }

    /// Clears the scope label (events record an empty scope).
    pub fn clear_scope(&self) {
        self.scope.lock().clear();
    }

    /// Current scope label.
    pub fn scope(&self) -> String {
        self.scope.lock().clone()
    }

    /// Starts collecting a new stage.
    pub(crate) fn begin_stage(
        &self,
        name: impl Into<String>,
        kind: StageKind,
        nodes: usize,
    ) -> StageCollector {
        let id = self
            .next_stage
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        StageCollector {
            inner: Mutex::new(StageMetrics::new(
                id,
                self.scope(),
                name.into(),
                kind,
                nodes,
            )),
        }
    }

    /// Starts collecting a new stage with its DAG placement recorded
    /// (used by the scheduler; [`Self::begin_stage`] keeps `dag: None`
    /// for stages recorded outside a job plan).
    pub(crate) fn begin_stage_in_dag(
        &self,
        name: impl Into<String>,
        kind: StageKind,
        nodes: usize,
        dag: StageDag,
    ) -> StageCollector {
        let collector = self.begin_stage(name, kind, nodes);
        collector.inner.lock().dag = Some(dag);
        collector
    }

    /// Allocates the next job id (one per action submitted to the
    /// scheduler).
    pub(crate) fn begin_job(&self) -> usize {
        self.next_job
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }

    /// Records a stage the scheduler skipped as already materialized,
    /// allocating (and returning) a stage id for it so children can cite
    /// it as a DAG parent.
    pub(crate) fn record_skipped_stage(&self, name: &str, job: usize, shuffle_id: usize) -> usize {
        let stage_id = self
            .next_stage
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let scope = self.scope();
        self.events.lock().push(Event::SkippedStage {
            scope,
            stage_id,
            job,
            name: name.to_string(),
            shuffle_id,
        });
        stage_id
    }

    /// Appends a finished stage to the log.
    pub(crate) fn finish_stage(&self, collector: StageCollector) {
        self.events
            .lock()
            .push(Event::Stage(Box::new(collector.finish())));
    }

    /// Records the lifecycle of a finished job-server job.
    pub fn record_job(&self, record: JobRecord) {
        self.events.lock().push(Event::JobFinished(record));
    }

    /// Declares a distributed-storage read (Hadoop platform modeling).
    pub fn record_disk_read(&self, bytes: u64) {
        let scope = self.scope();
        self.events.lock().push(Event::DiskRead { scope, bytes });
    }

    /// Declares a distributed-storage write (Hadoop platform modeling).
    pub fn record_disk_write(&self, bytes: u64) {
        let scope = self.scope();
        self.events.lock().push(Event::DiskWrite { scope, bytes });
    }

    /// Declares a MapReduce job boundary (Hadoop platform modeling).
    pub fn record_job_boundary(&self) {
        let scope = self.scope();
        self.events.lock().push(Event::JobBoundary { scope });
    }

    /// Records a broadcast transfer (see [`crate::broadcast`]).
    pub fn record_broadcast(&self, bytes: u64) {
        let scope = self.scope();
        self.events.lock().push(Event::Broadcast { scope, bytes });
    }

    /// Records a shuffle elided by partitioner-aware planning (the input
    /// was already partitioned as requested, so the wide op became a
    /// narrow dependency).
    pub fn record_skipped_shuffle(&self, name: impl Into<String>) {
        let scope = self.scope();
        self.events.lock().push(Event::SkippedShuffle {
            scope,
            name: name.into(),
        });
    }

    /// Records a block evicted from memory by the budget enforcer.
    pub fn record_storage_eviction(&self, owner: &str, bytes: u64) {
        let scope = self.scope();
        self.events.lock().push(Event::StorageEvicted {
            scope,
            owner: owner.to_string(),
            bytes,
        });
    }

    /// Records bytes written to the local-disk spill store.
    pub fn record_spill_write(&self, owner: &str, bytes: u64) {
        let scope = self.scope();
        self.events.lock().push(Event::StorageSpillWrite {
            scope,
            owner: owner.to_string(),
            bytes,
        });
    }

    /// Records bytes read back from the local-disk spill store.
    pub fn record_spill_read(&self, owner: &str, bytes: u64) {
        let scope = self.scope();
        self.events.lock().push(Event::StorageSpillRead {
            scope,
            owner: owner.to_string(),
            bytes,
        });
    }

    /// Records a lineage recompute of an evicted block.
    pub fn record_storage_recompute(&self, owner: &str) {
        let scope = self.scope();
        self.events.lock().push(Event::StorageRecompute {
            scope,
            owner: owner.to_string(),
        });
    }

    /// Copies the current log.
    pub fn snapshot(&self) -> JobMetrics {
        JobMetrics {
            events: self.events.lock().clone(),
        }
    }

    /// Clears the log (scope is kept).
    pub fn reset(&self) {
        self.events.lock().clear();
    }

    /// Clears the log and returns what was recorded.
    pub fn take(&self) -> JobMetrics {
        JobMetrics {
            events: std::mem::take(&mut *self.events.lock()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(reg: &MetricsRegistry, kind: StageKind, write_records: u64, remote: u64, local: u64) {
        let c = reg.begin_stage("s", kind, 2);
        c.record_task(0, 0.5, 10);
        c.record_task(1, 0.25, 20);
        c.add_shuffle_write(write_records, write_records * 8);
        c.add_shuffle_read(remote, local, 5);
        reg.finish_stage(c);
    }

    #[test]
    fn stage_aggregation() {
        let reg = MetricsRegistry::new();
        stage(&reg, StageKind::ShuffleMap, 100, 0, 0);
        let m = reg.snapshot();
        let s = m.stages().next().unwrap();
        assert_eq!(s.num_tasks, 2);
        assert_eq!(s.records_out, 30);
        assert_eq!(s.shuffle_write_records, 100);
        assert_eq!(s.shuffle_write_bytes, 800);
        assert!((s.total_cpu_secs() - 0.75).abs() < 1e-12);
        assert!((s.max_task_secs - 0.5).abs() < 1e-12);
        assert_eq!(s.node_cpu_secs.len(), 2);
    }

    #[test]
    fn shuffle_counting() {
        let reg = MetricsRegistry::new();
        stage(&reg, StageKind::ShuffleMap, 1000, 10, 5);
        stage(&reg, StageKind::ShuffleMap, 10, 1, 1);
        stage(&reg, StageKind::Result, 0, 3, 4);
        let m = reg.snapshot();
        assert_eq!(m.shuffle_count(), 2);
        assert_eq!(m.significant_shuffle_count(500), 1);
        assert_eq!(m.total_remote_bytes(), 14);
        assert_eq!(m.total_local_bytes(), 10);
        assert_eq!(m.total_shuffle_bytes(), 24);
    }

    #[test]
    fn scopes_label_events() {
        let reg = MetricsRegistry::new();
        reg.set_scope("MTTKRP-1");
        stage(&reg, StageKind::ShuffleMap, 10, 100, 50);
        reg.set_scope("MTTKRP-2");
        stage(&reg, StageKind::ShuffleMap, 10, 200, 25);
        stage(&reg, StageKind::Result, 0, 10, 10);
        reg.clear_scope();
        let m = reg.snapshot();
        let by_scope = m.shuffle_bytes_by_scope();
        assert_eq!(
            by_scope,
            vec![
                ("MTTKRP-1".to_string(), 100, 50),
                ("MTTKRP-2".to_string(), 210, 35),
            ]
        );
        assert_eq!(m.stages_in_scope("MTTKRP-2").count(), 2);
    }

    #[test]
    fn disk_and_job_events() {
        let reg = MetricsRegistry::new();
        reg.record_disk_read(1000);
        reg.record_disk_write(500);
        reg.record_job_boundary();
        reg.record_job_boundary();
        let m = reg.snapshot();
        assert_eq!(m.total_disk_read(), 1000);
        assert_eq!(m.total_disk_write(), 500);
        assert_eq!(m.job_count(), 2);
    }

    #[test]
    fn reset_and_take() {
        let reg = MetricsRegistry::new();
        stage(&reg, StageKind::Result, 0, 0, 0);
        assert_eq!(reg.snapshot().events.len(), 1);
        let taken = reg.take();
        assert_eq!(taken.events.len(), 1);
        assert!(reg.snapshot().events.is_empty());
        stage(&reg, StageKind::Result, 0, 0, 0);
        reg.reset();
        assert!(reg.snapshot().events.is_empty());
    }

    #[test]
    fn report_renders_every_event_kind() {
        let reg = MetricsRegistry::new();
        reg.set_scope("MTTKRP-1");
        stage(&reg, StageKind::ShuffleMap, 10, 100, 50);
        reg.record_disk_read(777);
        reg.record_job_boundary();
        reg.record_broadcast(42);
        let report = reg.snapshot().render_report();
        assert!(report.contains("MTTKRP-1"));
        assert!(report.contains("ShuffleMap"));
        assert!(report.contains("777"));
        assert!(report.contains("job-launch"));
        assert!(report.contains("broadcast  42 B"));
        assert!(report.contains("TOTAL"));
    }

    #[test]
    fn attempt_sink_absorbed_only_on_commit() {
        let reg = MetricsRegistry::new();
        let c = reg.begin_stage("s", StageKind::ShuffleMap, 2);
        // Winning attempt: absorbed.
        let winner = StageCollector::attempt_sink(2);
        winner.add_records_computed(10);
        winner.add_shuffle_write(5, 40);
        winner.add_shuffle_read(7, 3, 5);
        winner.add_kernel(&KernelCounters {
            runs: 4,
            max_subtask_records: 9,
        });
        winner.add_arena_hits(6);
        c.absorb(winner);
        // Failed attempt's sink: dropped, never absorbed.
        let loser = StageCollector::attempt_sink(2);
        loser.add_records_computed(999);
        loser.add_shuffle_write(999, 9999);
        drop(loser);
        c.record_task(0, 0.1, 5);
        reg.finish_stage(c);
        let m = reg.snapshot();
        let s = m.stages().next().unwrap();
        assert_eq!(s.records_computed, 10);
        assert_eq!(s.shuffle_write_records, 5);
        assert_eq!(s.shuffle_write_bytes, 40);
        assert_eq!(s.remote_bytes_read, 7);
        assert_eq!(s.local_bytes_read, 3);
        assert_eq!(s.shuffle_read_records, 5);
        assert_eq!(s.kernel_runs, 4);
        assert_eq!(s.kernel_max_subtask_records, 9);
        assert_eq!(s.kernel_arena_hits, 6);
        assert_eq!(m.total_kernel_runs(), 4);
        assert_eq!(m.max_kernel_subtask_records(), 9);
        assert_eq!(m.total_arena_hits(), 6);
        assert!(m
            .render_report()
            .contains("KERNEL 4 runs | largest combine 9"));
    }

    #[test]
    fn run_stats_recorded_and_totalled() {
        let reg = MetricsRegistry::new();
        let c = reg.begin_stage("s", StageKind::Result, 1);
        c.record_run_stats(&RunStats {
            task_failures: 3,
            task_retries: 2,
            speculative_launched: 1,
            speculative_won: 1,
            wasted_task_secs: 0.25,
        });
        reg.finish_stage(c);
        let m = reg.snapshot();
        let s = m.stages().next().unwrap();
        assert_eq!(s.task_failures, 3);
        assert_eq!(s.task_retries, 2);
        assert_eq!(s.speculative_launched, 1);
        assert_eq!(s.speculative_won, 1);
        assert!((s.wasted_task_secs - 0.25).abs() < 1e-12);
        assert_eq!(m.total_task_failures(), 3);
        assert_eq!(m.total_task_retries(), 2);
        assert_eq!(m.total_speculative_launched(), 1);
        assert_eq!(m.total_speculative_won(), 1);
        let report = m.render_report();
        assert!(report.contains("FAULT  3 task failures | 2 retries"));
    }

    #[test]
    fn skipped_shuffles_counted_and_rendered() {
        let reg = MetricsRegistry::new();
        reg.set_scope("MTTKRP-1");
        reg.record_skipped_shuffle("cogroup-right");
        reg.record_skipped_shuffle("reduce_by_key");
        let m = reg.snapshot();
        assert_eq!(m.skipped_shuffle_count(), 2);
        assert_eq!(m.shuffle_count(), 0);
        let report = m.render_report();
        assert!(report.contains("skipped-shuffle cogroup-right"));
        assert!(report.contains("(2 skipped)"));
    }

    #[test]
    fn stage_dag_recorded_and_rendered() {
        let reg = MetricsRegistry::new();
        let job = reg.begin_job();
        let skipped = reg.record_skipped_stage("shuffle-map(partition_by)", job, 7);
        let a = reg.begin_stage_in_dag(
            "shuffle-map(join-left)",
            StageKind::ShuffleMap,
            2,
            StageDag {
                job,
                wave: 0,
                parents: vec![skipped],
                shuffle_id: Some(8),
                server_job: None,
            },
        );
        let a_id = a.stage_id();
        a.record_task(0, 0.1, 10);
        reg.finish_stage(a);
        let b = reg.begin_stage_in_dag(
            "collect(map)",
            StageKind::Result,
            2,
            StageDag {
                job,
                wave: 1,
                parents: vec![a_id],
                shuffle_id: None,
                server_job: None,
            },
        );
        b.record_task(0, 0.1, 10);
        reg.finish_stage(b);

        let m = reg.snapshot();
        assert_eq!(m.skipped_stage_count(), 1);
        assert_eq!(m.dag_jobs(), vec![job]);
        assert_eq!(m.stages_in_job(job).count(), 2);
        let result = m.stages_in_job(job).last().unwrap();
        assert_eq!(result.dag.as_ref().unwrap().parents, vec![a_id]);
        let report = m.render_report();
        assert!(report.contains(&format!("STAGES job {job} | 2 waves")));
        assert!(report.contains("critical-path"));
        assert!(report.contains("cached"));
    }

    #[test]
    fn skipped_stages_consume_stage_ids() {
        let reg = MetricsRegistry::new();
        let skipped = reg.record_skipped_stage("shuffle-map(x)", 0, 1);
        let next = reg.begin_stage("s", StageKind::Result, 1);
        assert_eq!(next.stage_id(), skipped + 1);
        reg.finish_stage(next);
        // Skipped stages are not executed stages: counters ignore them.
        let m = reg.snapshot();
        assert_eq!(m.shuffle_count(), 0);
        assert_eq!(m.stages().count(), 1);
    }

    #[test]
    fn stage_ids_are_monotonic() {
        let reg = MetricsRegistry::new();
        stage(&reg, StageKind::Result, 0, 0, 0);
        stage(&reg, StageKind::Result, 0, 0, 0);
        let m = reg.snapshot();
        let ids: Vec<usize> = m.stages().map(|s| s.stage_id).collect();
        assert_eq!(ids, vec![0, 1]);
    }
}
