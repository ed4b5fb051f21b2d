//! Execution metrics: one event table, one counter block.
//!
//! The paper's evaluation leans on two Spark metrics — *remote bytes read*
//! and *local bytes read* across shuffle phases (§6.5, Figure 4) — plus
//! per-stage structure (how many shuffles a workflow performs, Table 4).
//! This module records those quantities as jobs execute. All byte counts
//! come from [`crate::size::EstimateSize`] and are deterministic. The
//! engine only counts: the `cstf-model` crate prices the log in modeled
//! seconds.
//!
//! The log is a sequence of [`Event`]s: a stage (a [`StageMetrics`], whose
//! additive part is one [`Counters`] block), a job-server lifecycle record,
//! or a [`Note`] under the scope label active at the time. Every plainly
//! metered quantity — disk and broadcast bytes, job launches, evictions,
//! spills, recomputes — is one `Note::Metered` kind whose `Meter::row`
//! holds all that is kind-specific: unit and report label. A new metered
//! kind is a `Meter` variant, its row and a `record_*` one-liner; a new
//! counter is a [`Counters`] field and its line in `merge`.

use crate::hash::FxHashMap;
use parking_lot::Mutex;
use serde::Serialize;
use std::cell::RefCell;
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};

/// What a stage produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum StageKind {
    /// Map side of a shuffle: computed parent partitions and wrote buckets.
    ShuffleMap,
    /// Final stage of a job: computed the action's target partitions.
    Result,
}

/// Placement of a stage in its job's dependency DAG, recorded by the
/// DAG scheduler ([`crate::Job`]) when it submits the stage.
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
    /// Server-assigned job id (the `server_job` on this job's stages),
    /// which is also its submission order across the server (0-based).
    pub server_job: usize,
    /// Submitting tenant.
    pub tenant: String,
    /// Scheduling pool the job ran in.
    pub pool: String,
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

/// The engine's additive counters: what a task attempt counts while it
/// runs, what a kernel invocation reports, what the executor reports about
/// a stage's recovery. A stage's block is the [`merge`](Counters::merge)
/// of its winning attempts' blocks and its executor batch's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct Counters {
    /// Records computed across the whole narrow pipeline of the stage's
    /// tasks, *including* recomputation of uncached parents — the work
    /// measure the modeled CPU cost uses.
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
    /// Sorted-runs kernel: contiguous key runs combined (= distinct keys
    /// the kernel reduced). Zero on record-at-a-time stages.
    pub kernel_runs: u64,
    /// Sorted-runs kernel: records folded by the largest single combine —
    /// a combine is one schedulable unit, so this is the stage's straggler
    /// bound. The one field that merges by `max`.
    pub kernel_max_subtask_records: u64,
    /// Row-arena hits inside winning task attempts: row buffers reused
    /// from the [`crate::kernel::pool`] instead of allocated.
    pub kernel_arena_hits: u64,
    /// Task attempts that failed (fault injection, panic, or error) and
    /// were discarded, including the final attempt of a task that
    /// exhausted its budget.
    pub task_failures: u64,
    /// Retry attempts launched after failures.
    pub task_retries: u64,
    /// Speculative backup attempts launched against stragglers.
    pub speculative_launched: u64,
    /// Tasks whose speculative backup committed first.
    pub speculative_won: u64,
    /// Wall-clock seconds burned by discarded attempts (failed attempts
    /// and losing speculative duplicates); the time model prices them as
    /// recovery cost.
    pub wasted_task_secs: f64,
}

impl Counters {
    /// Adds `other` into `self`, field by field
    /// (`kernel_max_subtask_records` keeps the larger).
    pub fn merge(&mut self, other: &Counters) {
        self.records_computed += other.records_computed;
        self.shuffle_write_records += other.shuffle_write_records;
        self.shuffle_write_bytes += other.shuffle_write_bytes;
        self.remote_bytes_read += other.remote_bytes_read;
        self.local_bytes_read += other.local_bytes_read;
        self.shuffle_read_records += other.shuffle_read_records;
        self.kernel_runs += other.kernel_runs;
        self.kernel_max_subtask_records = self
            .kernel_max_subtask_records
            .max(other.kernel_max_subtask_records);
        self.kernel_arena_hits += other.kernel_arena_hits;
        self.task_failures += other.task_failures;
        self.task_retries += other.task_retries;
        self.speculative_launched += other.speculative_launched;
        self.speculative_won += other.speculative_won;
        self.wasted_task_secs += other.wasted_task_secs;
    }
}

/// The counter block of one task attempt, reached through
/// [`crate::TaskContext::stage`].
///
/// A task may run several attempts, only one of which commits. So that
/// failed attempts and losing speculative duplicates never pollute the
/// stage's counters, each *attempt* owns a block and the driver merges it
/// into the stage only for the winner: byte/record counts are
/// retry-invariant by construction. An attempt runs on one thread, so the
/// block is a plain `RefCell` (which makes a `TaskContext` `!Sync`).
#[derive(Debug, Default)]
pub(crate) struct AttemptCounters(RefCell<Counters>);

impl AttemptCounters {
    /// Merges a block of counters (a shuffle write or read, a kernel
    /// invocation's report, an arena-hit delta) into this attempt's.
    pub(crate) fn merge(&self, delta: &Counters) {
        self.0.borrow_mut().merge(delta);
    }

    /// Records pipeline work: `n` records produced by one lineage node
    /// while computing a partition (called per node, so recomputed
    /// parents are counted every time they run).
    pub(crate) fn add_records_computed(&self, n: u64) {
        self.0.borrow_mut().records_computed += n;
    }

    /// The attempt's counters, for the driver to merge on commit.
    pub(crate) fn into_inner(self) -> Counters {
        self.0.into_inner()
    }
}

/// Aggregated measurements for one executed stage: opened by
/// `MetricsRegistry::begin_stage` when the driver submits the stage, fed on
/// the driver as its tasks commit, appended to the log by `finish_stage`.
/// Dereferences to its [`Counters`], so `stage.shuffle_write_bytes` reads
/// the counter.
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
    /// Records produced by the stage's tasks (≤ `records_computed`).
    pub records_out: u64,
    /// Measured task CPU seconds summed per simulated node.
    pub node_cpu_secs: Vec<f64>,
    /// What the stage's winning attempts and its executor batch counted:
    /// the [`merge`](Counters::merge) of their blocks.
    pub counters: Counters,
}

impl std::ops::Deref for StageMetrics {
    type Target = Counters;

    fn deref(&self) -> &Counters {
        &self.counters
    }
}

impl StageMetrics {
    /// Records one finished task.
    pub(crate) fn record_task(&mut self, node: usize, cpu_secs: f64, records_out: u64) {
        self.num_tasks += 1;
        self.records_out += records_out;
        if node < self.node_cpu_secs.len() {
            self.node_cpu_secs[node] += cpu_secs;
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

/// A quantity the engine meters as `(kind, owner, amount)` events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Meter {
    /// Bytes the driver declared read from distributed storage (models
    /// HDFS input for the Hadoop platform profile).
    DiskRead,
    /// Bytes the driver declared written to distributed storage (models
    /// Hadoop materializing job output between MapReduce jobs).
    DiskWrite,
    /// A MapReduce-style job boundary (models Hadoop job launch overhead).
    JobLaunch,
    /// Bytes moved over the network to replicate a broadcast value:
    /// replica size × receiving nodes.
    Broadcast,
    /// Estimated bytes of a block the memory budget enforcer dropped or
    /// spilled from memory.
    Evicted,
    /// Estimated bytes written to the local-disk spill store (a
    /// `MemoryAndDisk` eviction, a `DiskOnly` put, or an oversized shuffle
    /// map output).
    SpillWrite,
    /// Estimated bytes read back from the local-disk spill store (reload +
    /// deserialization).
    SpillRead,
    /// An evicted (dropped, not spilled) block recomputed from lineage on
    /// a later read — the cache-miss analogue of lost-partition recovery.
    Recompute,
}

/// What a [`Meter`]'s amounts count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Unit {
    /// Bytes; the report prints the amount.
    Bytes,
    /// Occurrences: every event carries amount 1.
    Events,
}

/// The row of the event table for one [`Meter`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct MeterRow {
    pub(crate) unit: Unit,
    /// Label of the event's own line in the report; `None` for the
    /// storage meters, which are high-volume (one event per block) and
    /// appear only aggregated, in the STORAGE summary.
    pub(crate) line: Option<&'static str>,
}

impl Meter {
    /// The storage meters, in the column order of the STORAGE table.
    const STORAGE: [Meter; 4] = [
        Meter::Evicted,
        Meter::SpillWrite,
        Meter::SpillRead,
        Meter::Recompute,
    ];

    /// This meter's row of the event table.
    pub(crate) fn row(self) -> MeterRow {
        use Unit::*;
        let (unit, line) = match self {
            Meter::DiskRead => (Bytes, Some("disk-read")),
            Meter::DiskWrite => (Bytes, Some("disk-write")),
            Meter::JobLaunch => (Events, Some("job-launch")),
            Meter::Broadcast => (Bytes, Some("broadcast")),
            Meter::Evicted | Meter::SpillWrite | Meter::SpillRead => (Bytes, None),
            Meter::Recompute => (Events, None),
        };
        MeterRow { unit, line }
    }
}

/// What a non-stage [`Event`] notes.
#[derive(Debug, Clone, Serialize)]
pub enum Note {
    /// `amount` of `meter` was used, by `owner` where the meter has one
    /// (the storage meters: `"rdd-<id>"` or `"shuffle-<id>"`).
    Metered {
        /// The quantity.
        meter: Meter,
        /// Who used it; empty for meters without owners.
        owner: String,
        /// How much: bytes, or 1 for a meter that counts occurrences.
        amount: u64,
    },
    /// A shuffle the partitioner-aware planner elided: the input was
    /// already partitioned by the requested partitioner, so the wide
    /// operation ran as a narrow dependency — no shuffle-map stage, no
    /// shuffle bytes. Recorded at graph-construction time.
    SkippedShuffle {
        /// Operator whose shuffle was skipped (e.g. `"cogroup-left"`).
        name: String,
    },
    /// A shuffle-map stage the DAG scheduler skipped because its shuffle
    /// is already fully materialized (the Spark UI's grey "skipped"
    /// stage). It consumes a stage id so later stages can cite it as a
    /// DAG parent, but runs no tasks and costs no modeled time.
    SkippedStage {
        /// Stage id allocated to the skipped stage.
        stage_id: usize,
        /// Job the pruned stage was planned for.
        job: usize,
        /// Stage name, e.g. `shuffle-map(partition_by)`.
        name: String,
        /// The already-materialized shuffle.
        shuffle_id: usize,
    },
}

/// One event in a job's execution log.
#[derive(Debug, Clone, Serialize)]
pub enum Event {
    /// A stage executed; its scope is [`StageMetrics::scope`]. Boxed: a
    /// `StageMetrics` is an order of magnitude larger than any other
    /// variant, and logs hold many mixed events.
    Stage(Box<StageMetrics>),
    /// Anything else the driver or a storage service noted.
    Note {
        /// Scope label active when recorded.
        scope: String,
        /// What happened.
        note: Note,
    },
    /// A [`crate::jobserver::JobServer`] job finished (completed, failed
    /// or cancelled); carries its queue-delay / latency record. Belongs
    /// to no scope: its stages are already in the log.
    JobFinished(JobRecord),
}

/// Groups `(key, value)` items by key, folding each value into its key's
/// accumulator with `add`; groups come out in order of first appearance.
pub(crate) fn group_in_order<K: Eq + Hash + Clone, V, A: Default>(
    items: impl IntoIterator<Item = (K, V)>,
    mut add: impl FnMut(&mut A, V),
) -> Vec<(K, A)> {
    let mut index: FxHashMap<K, usize> = FxHashMap::default();
    let mut groups: Vec<(K, A)> = Vec::new();
    for (key, value) in items {
        let i = *index.entry(key).or_insert_with_key(|key| {
            groups.push((key.clone(), A::default()));
            groups.len() - 1
        });
        add(&mut groups[i].1, value);
    }
    groups
}

/// The distinct `keys`, in order of first appearance.
fn first_seen<K: Eq + Hash + Clone>(keys: impl IntoIterator<Item = K>) -> Vec<K> {
    let groups = group_in_order(keys.into_iter().map(|k| (k, ())), |_: &mut (), ()| {});
    groups.into_iter().map(|(k, ())| k).collect()
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

    /// All notes, in order.
    fn notes(&self) -> impl Iterator<Item = &Note> + '_ {
        self.events.iter().filter_map(|e| match e {
            Event::Note { note, .. } => Some(note),
            _ => None,
        })
    }

    /// `(meter, owner, amount)` of every metered event, in order.
    fn metered_events(&self) -> impl Iterator<Item = (Meter, &str, u64)> + '_ {
        self.notes().filter_map(|n| match n {
            Note::Metered {
                meter,
                owner,
                amount,
            } => Some((*meter, owner.as_str(), *amount)),
            _ => None,
        })
    }

    /// The amounts of one meter's events, in order: `.sum()` them for a
    /// total, `.count()` them for the number of events.
    fn metered(&self, meter: Meter) -> impl Iterator<Item = u64> + '_ {
        let of_meter = self.metered_events().filter(move |(m, ..)| *m == meter);
        of_meter.map(|(.., amount)| amount)
    }

    /// Sum of one counter over all stages.
    fn stage_total(&self, counter: impl Fn(&Counters) -> u64) -> u64 {
        self.stages().map(|s| counter(s)).sum()
    }

    /// Number of shuffles performed (ShuffleMap stages — each shuffle
    /// dependency materializes exactly one).
    pub fn shuffle_count(&self) -> usize {
        self.significant_shuffle_count(0)
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
        self.notes()
            .filter(|n| matches!(n, Note::SkippedShuffle { .. }))
            .count()
    }

    /// Number of stages the DAG scheduler skipped as already
    /// materialized (lineage pruned below a complete shuffle).
    pub fn skipped_stage_count(&self) -> usize {
        self.notes()
            .filter(|n| matches!(n, Note::SkippedStage { .. }))
            .count()
    }

    /// Job ids that appear in the log, in first-seen order.
    pub fn dag_jobs(&self) -> Vec<usize> {
        first_seen(self.events.iter().filter_map(|e| match e {
            Event::Stage(s) => s.dag.as_ref().map(|d| d.job),
            Event::Note {
                note: Note::SkippedStage { job, .. },
                ..
            } => Some(*job),
            _ => None,
        }))
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

    /// Stages belonging to one scope.
    pub fn stages_in_scope<'a>(
        &'a self,
        scope: &'a str,
    ) -> impl Iterator<Item = &'a StageMetrics> + 'a {
        self.stages().filter(move |s| s.scope == scope)
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
    fn job_pools(&self) -> Vec<&str> {
        first_seen(self.job_records().map(|r| r.pool.as_str()))
    }

    /// Finished-job records of one scheduling pool, in finish order.
    fn jobs_in_pool<'a>(&'a self, pool: &'a str) -> impl Iterator<Item = &'a JobRecord> + 'a {
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
        self.stage_total(|c| c.remote_bytes_read)
    }

    /// Total local shuffle bytes read.
    pub fn total_local_bytes(&self) -> u64 {
        self.stage_total(|c| c.local_bytes_read)
    }

    /// Total shuffle bytes read (remote + local).
    pub fn total_shuffle_bytes(&self) -> u64 {
        self.total_remote_bytes() + self.total_local_bytes()
    }

    /// Aggregates `(remote, local)` shuffle bytes per scope label, in
    /// first-seen scope order — the per-MTTKRP stacks of Figure 4.
    pub fn shuffle_bytes_by_scope(&self) -> Vec<(String, u64, u64)> {
        let stages = self.stages().map(|s| (s.scope.as_str(), s));
        group_in_order(stages, |(remote, local): &mut (u64, u64), s| {
            *remote += s.remote_bytes_read;
            *local += s.local_bytes_read;
        })
        .into_iter()
        .map(|(scope, (remote, local))| (scope.to_string(), remote, local))
        .collect()
    }

    /// Total bytes declared as distributed-storage reads.
    pub fn total_disk_read(&self) -> u64 {
        self.metered(Meter::DiskRead).sum()
    }

    /// Total bytes declared as distributed-storage writes.
    pub fn total_disk_write(&self) -> u64 {
        self.metered(Meter::DiskWrite).sum()
    }

    /// Number of declared job boundaries.
    pub fn job_count(&self) -> usize {
        self.metered(Meter::JobLaunch).count()
    }

    /// Total bytes moved by broadcasts.
    pub fn total_broadcast_bytes(&self) -> u64 {
        self.metered(Meter::Broadcast).sum()
    }

    /// Total failed task attempts across all stages.
    pub fn total_task_failures(&self) -> u64 {
        self.stage_total(|c| c.task_failures)
    }

    /// Total retry attempts across all stages.
    pub fn total_task_retries(&self) -> u64 {
        self.stage_total(|c| c.task_retries)
    }

    /// Total speculative attempts launched across all stages.
    pub(crate) fn total_speculative_launched(&self) -> u64 {
        self.stage_total(|c| c.speculative_launched)
    }

    /// Total tasks won by their speculative backup across all stages.
    pub(crate) fn total_speculative_won(&self) -> u64 {
        self.stage_total(|c| c.speculative_won)
    }

    /// Total seconds burned by discarded attempts across all stages.
    fn total_wasted_task_secs(&self) -> f64 {
        self.stages().map(|s| s.wasted_task_secs).sum()
    }

    /// Total sorted-runs kernel key runs combined across all stages.
    pub fn total_kernel_runs(&self) -> u64 {
        self.stage_total(|c| c.kernel_runs)
    }

    /// Total row-arena reuse hits across all stages.
    pub(crate) fn total_arena_hits(&self) -> u64 {
        self.stage_total(|c| c.kernel_arena_hits)
    }

    /// Records folded by the largest single kernel combine in any stage.
    pub fn max_kernel_subtask_records(&self) -> u64 {
        self.stages()
            .map(|s| s.kernel_max_subtask_records)
            .max()
            .unwrap_or(0)
    }

    /// Total bytes the budget enforcer removed from memory.
    pub(crate) fn evicted_bytes(&self) -> u64 {
        self.metered(Meter::Evicted).sum()
    }

    /// Number of blocks the budget enforcer removed from memory.
    pub fn eviction_count(&self) -> usize {
        self.metered(Meter::Evicted).count()
    }

    /// Total bytes written to the local-disk spill store.
    pub fn spilled_bytes(&self) -> u64 {
        self.metered(Meter::SpillWrite).sum()
    }

    /// Total bytes read back from the local-disk spill store.
    pub(crate) fn spill_read_bytes(&self) -> u64 {
        self.metered(Meter::SpillRead).sum()
    }

    /// Number of evicted blocks that were recomputed from lineage.
    pub fn recompute_count(&self) -> usize {
        self.metered(Meter::Recompute).count()
    }

    /// Per-owner storage activity, in first-seen order: the owner and its
    /// totals in [`Meter::STORAGE`] order, for each RDD/shuffle that saw
    /// any storage event — the per-RDD storage table of the report.
    fn storage_by_owner(&self) -> Vec<(&str, [u64; 4])> {
        let storage = self.metered_events().filter_map(|(meter, owner, amount)| {
            let column = Meter::STORAGE.iter().position(|m| *m == meter)?;
            Some((owner, (column, amount)))
        });
        group_in_order(storage, |totals: &mut [u64; 4], (column, amount)| {
            totals[column] += amount
        })
    }

    /// Renders a human-readable per-stage report (the engine's analogue
    /// of the Spark UI's stage table), plus event and total summaries.
    pub fn render_report(&self) -> String {
        self.render_report_annotated(|_| None)
    }

    /// [`Self::render_report`], with `annotate(job)` appended after ` | `
    /// to job `job`'s STAGES header wherever it returns text — how a view
    /// that prices the log (modeled seconds) shows its numbers per job.
    pub fn render_report_annotated(&self, annotate: impl Fn(usize) -> Option<String>) -> String {
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
                Event::Note { scope, note } => {
                    let scope = truncate(scope, 10);
                    let _ = match note {
                        Note::Metered { meter, amount, .. } => {
                            let row = meter.row();
                            let Some(label) = row.line else { continue };
                            match row.unit {
                                Unit::Bytes => {
                                    writeln!(out, "       {scope:<10} {label:<10} {amount} B")
                                }
                                Unit::Events => writeln!(out, "       {scope:<10} {label}"),
                            }
                        }
                        Note::SkippedShuffle { name } => writeln!(
                            out,
                            "       {scope:<10} skipped-shuffle {}",
                            truncate(name, 32)
                        ),
                        Note::SkippedStage { stage_id, name, .. } => writeln!(
                            out,
                            "{stage_id:>5}  {scope:<10} skipped    {:<32} (materialized)",
                            truncate(name, 32),
                        ),
                    };
                }
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
        // Per-job stage DAGs: edges and wave per stage.
        for job in self.dag_jobs() {
            let waves = self
                .stages_in_job(job)
                .filter_map(|s| s.dag.as_ref())
                .map(|d| d.wave + 1)
                .max()
                .unwrap_or(0);
            let _ = write!(out, "STAGES job {job} | {waves} waves");
            let _ = match annotate(job) {
                Some(note) => writeln!(out, " | {note}"),
                None => writeln!(out),
            };
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
                    Event::Note {
                        note:
                            Note::SkippedStage {
                                stage_id,
                                job: j,
                                name,
                                ..
                            },
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
        for (owner, [evicted, spilled, reread, recomputes]) in self.storage_by_owner() {
            let _ = writeln!(
                out,
                "  {owner:<12} evicted {evicted} B | spilled {spilled} B | spill-read {reread} B | recomputed {recomputes}",
            );
        }
        // Per-pool job-server summary: queue-delay distribution and run
        // time, the numbers the fair-vs-FIFO ablation compares.
        for pool in self.job_pools() {
            let records: Vec<&JobRecord> = self.jobs_in_pool(pool).collect();
            let delays = self.pool_queue_delays(pool);
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
}

/// The longest prefix of `s` of at most `n` bytes that ends on a char
/// boundary.
fn truncate(s: &str, n: usize) -> &str {
    let end = s.char_indices().map(|(i, c)| i + c.len_utf8());
    &s[..end.take_while(|&end| end <= n).last().unwrap_or(0)]
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
    next_stage: AtomicUsize,
    next_job: AtomicUsize,
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

    /// Opens a new stage under the current scope, at `dag` in its job's
    /// plan (`None` for stages recorded outside the scheduler).
    pub(crate) fn begin_stage(
        &self,
        name: impl Into<String>,
        kind: StageKind,
        nodes: usize,
        dag: Option<StageDag>,
    ) -> StageMetrics {
        StageMetrics {
            stage_id: self.next_stage.fetch_add(1, Ordering::Relaxed),
            dag,
            scope: self.scope(),
            name: name.into(),
            kind,
            num_tasks: 0,
            records_out: 0,
            node_cpu_secs: vec![0.0; nodes],
            counters: Counters::default(),
        }
    }

    /// Allocates the next job id (one per action submitted to the
    /// scheduler).
    pub(crate) fn begin_job(&self) -> usize {
        self.next_job.fetch_add(1, Ordering::Relaxed)
    }

    /// Appends a finished stage to the log.
    pub(crate) fn finish_stage(&self, stage: StageMetrics) {
        self.events.lock().push(Event::Stage(Box::new(stage)));
    }

    /// Records the lifecycle of a finished job-server job.
    pub(crate) fn record_job(&self, record: JobRecord) {
        self.events.lock().push(Event::JobFinished(record));
    }

    /// Appends a note under the current scope.
    fn note(&self, note: Note) {
        let scope = self.scope();
        self.events.lock().push(Event::Note { scope, note });
    }

    /// Appends one metered event: every `record_*` below is this.
    fn meter(&self, meter: Meter, owner: &str, amount: u64) {
        self.note(Note::Metered {
            meter,
            owner: owner.to_string(),
            amount,
        });
    }

    /// Records a stage the scheduler skipped as already materialized,
    /// allocating (and returning) a stage id for it so children can cite
    /// it as a DAG parent.
    pub(crate) fn record_skipped_stage(&self, name: &str, job: usize, shuffle_id: usize) -> usize {
        let stage_id = self.next_stage.fetch_add(1, Ordering::Relaxed);
        self.note(Note::SkippedStage {
            stage_id,
            job,
            name: name.to_string(),
            shuffle_id,
        });
        stage_id
    }

    /// Records a shuffle elided by partitioner-aware planning (the input
    /// was already partitioned as requested, so the wide op became a
    /// narrow dependency).
    pub(crate) fn record_skipped_shuffle(&self, name: impl Into<String>) {
        self.note(Note::SkippedShuffle { name: name.into() });
    }

    /// Declares a distributed-storage read (Hadoop platform modeling).
    pub fn record_disk_read(&self, bytes: u64) {
        self.meter(Meter::DiskRead, "", bytes);
    }

    /// Declares a distributed-storage write (Hadoop platform modeling).
    pub fn record_disk_write(&self, bytes: u64) {
        self.meter(Meter::DiskWrite, "", bytes);
    }

    /// Declares a MapReduce job boundary (Hadoop platform modeling).
    pub fn record_job_boundary(&self) {
        self.meter(Meter::JobLaunch, "", 1);
    }

    /// Records a broadcast transfer (see [`crate::broadcast`]).
    pub(crate) fn record_broadcast(&self, bytes: u64) {
        self.meter(Meter::Broadcast, "", bytes);
    }

    /// Records a block evicted from memory by the budget enforcer.
    pub(crate) fn record_storage_eviction(&self, owner: &str, bytes: u64) {
        self.meter(Meter::Evicted, owner, bytes);
    }

    /// Records bytes written to the local-disk spill store.
    pub(crate) fn record_spill_write(&self, owner: &str, bytes: u64) {
        self.meter(Meter::SpillWrite, owner, bytes);
    }

    /// Records bytes read back from the local-disk spill store.
    pub(crate) fn record_spill_read(&self, owner: &str, bytes: u64) {
        self.meter(Meter::SpillRead, owner, bytes);
    }

    /// Records a lineage recompute of an evicted block.
    pub(crate) fn record_storage_recompute(&self, owner: &str) {
        self.meter(Meter::Recompute, owner, 1);
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
    use proptest::prelude::*;

    fn stage(reg: &MetricsRegistry, kind: StageKind, write_records: u64, remote: u64, local: u64) {
        let mut c = reg.begin_stage("s", kind, 2, None);
        c.record_task(0, 0.5, 10);
        c.record_task(1, 0.25, 20);
        c.counters.merge(&Counters {
            shuffle_write_records: write_records,
            shuffle_write_bytes: write_records * 8,
            remote_bytes_read: remote,
            local_bytes_read: local,
            shuffle_read_records: 5,
            ..Counters::default()
        });
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
    fn group_in_order_keeps_first_appearance_and_sums_ties() {
        let items = [("b", 1u64), ("a", 2), ("b", 3), ("c", 4), ("a", 5)];
        let sums = group_in_order(items, |total: &mut u64, v| *total += v);
        assert_eq!(sums, vec![("b", 4), ("a", 7), ("c", 4)]);
        assert_eq!(first_seen([3, 1, 3, 2, 1]), vec![3, 1, 2]);
        let none: Vec<(u8, u64)> = group_in_order([], |total: &mut u64, v: u64| *total += v);
        assert!(none.is_empty());
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

    /// A log holding every event kind: two scopes, two storage owners, a
    /// skipped stage, a two-wave DAG job and two job-server pools.
    fn full_log() -> JobMetrics {
        let reg = MetricsRegistry::new();
        reg.set_scope("MTTKRP-1");
        stage(&reg, StageKind::ShuffleMap, 10, 100, 50);
        reg.record_disk_read(777);
        reg.record_disk_write(555);
        reg.record_job_boundary();
        reg.record_broadcast(42);
        reg.record_skipped_shuffle("cogroup-right");
        reg.record_storage_eviction("rdd-3", 4096);
        reg.record_spill_write("rdd-3", 4096);
        reg.record_storage_eviction("shuffle-1", 1000);
        reg.set_scope("MTTKRP-2");
        let job = reg.begin_job();
        let skipped = reg.record_skipped_stage("shuffle-map(partition_by)", job, 7);
        let dag = |wave, parents, shuffle_id| StageDag {
            job,
            wave,
            parents,
            shuffle_id,
            server_job: Some(1),
        };
        let mut a = reg.begin_stage(
            "shuffle-map(join-left)",
            StageKind::ShuffleMap,
            2,
            Some(dag(0, vec![skipped], Some(8))),
        );
        let a_id = a.stage_id;
        a.record_task(0, 0.5, 1000);
        a.record_task(1, 0.25, 3000);
        a.counters.merge(&Counters {
            records_computed: 6000,
            shuffle_write_records: 4000,
            shuffle_write_bytes: 64_000,
            kernel_runs: 4,
            kernel_max_subtask_records: 9,
            kernel_arena_hits: 6,
            task_failures: 3,
            task_retries: 2,
            speculative_launched: 1,
            speculative_won: 1,
            wasted_task_secs: 0.25,
            ..Counters::default()
        });
        reg.finish_stage(a);
        let mut b = reg.begin_stage(
            "shuffle-map(join-right)",
            StageKind::ShuffleMap,
            2,
            Some(dag(0, vec![], Some(9))),
        );
        let b_id = b.stage_id;
        b.record_task(0, 0.125, 20);
        b.counters.merge(&Counters {
            shuffle_write_records: 20,
            shuffle_write_bytes: 320,
            ..Counters::default()
        });
        reg.finish_stage(b);
        let mut c = reg.begin_stage(
            "collect(map)",
            StageKind::Result,
            2,
            Some(dag(1, vec![a_id, b_id], None)),
        );
        c.record_task(1, 0.0625, 4020);
        c.counters.merge(&Counters {
            remote_bytes_read: 40_000,
            local_bytes_read: 24_320,
            shuffle_read_records: 4020,
            ..Counters::default()
        });
        reg.finish_stage(c);
        reg.record_spill_read("rdd-3", 2048);
        reg.record_storage_recompute("shuffle-1");
        reg.record_storage_recompute("rdd-3");
        reg.clear_scope();
        let record = |server_job, pool: &str, delay, run, outcome| JobRecord {
            server_job,
            tenant: format!("tenant-{server_job}"),
            pool: pool.to_string(),
            start_seq: server_job,
            queue_delay_secs: delay,
            run_secs: run,
            waves: 2 + server_job as u64,
            outcome,
        };
        reg.record_job(record(0, "etl", 0.5, 2.0, JobOutcomeKind::Completed));
        reg.record_job(record(1, "adhoc", 0.125, 0.25, JobOutcomeKind::Failed));
        reg.record_job(record(2, "etl", 1.5, 0.0, JobOutcomeKind::Cancelled));
        reg.snapshot()
    }

    /// Every accessor on [`full_log`] against the accessor section of its
    /// pinned fixture, and the engine's report against the fixture's minus
    /// its modeled seconds. The modeled report and seconds are asserted by
    /// `cstf-model`, through its report view, on the same log written out
    /// as plain events.
    #[test]
    fn report_renders_every_event_kind() {
        let m = full_log();
        let storage: Vec<_> = m
            .storage_by_owner()
            .into_iter()
            .map(|(owner, [e, w, r, c])| (owner, e, w, r, c))
            .collect();
        let accessors = format!(
            "{:?}\n{:?}\n{:?}\n{:?}\n{:?}\n",
            (
                m.stages().count(),
                m.shuffle_count(),
                m.significant_shuffle_count(100),
                m.skipped_shuffle_count(),
                m.skipped_stage_count(),
                m.dag_jobs(),
                m.stages_in_job(0).count(),
                m.stages_in_server_job(1).count(),
                m.stages_in_scope("MTTKRP-2").count(),
                m.job_records().count(),
                m.pool_queue_delays("etl"),
            ),
            (
                m.total_remote_bytes(),
                m.total_local_bytes(),
                m.total_shuffle_bytes(),
                m.total_disk_read(),
                m.total_disk_write(),
                m.total_broadcast_bytes(),
                m.job_count(),
                m.shuffle_bytes_by_scope(),
            ),
            (
                m.total_task_failures(),
                m.total_task_retries(),
                m.total_speculative_launched(),
                m.total_speculative_won(),
                m.total_wasted_task_secs(),
                m.total_kernel_runs(),
                m.total_arena_hits(),
                m.max_kernel_subtask_records(),
            ),
            (
                m.evicted_bytes(),
                m.eviction_count(),
                m.spilled_bytes(),
                m.spill_read_bytes(),
                m.recompute_count(),
                storage,
            ),
            (m.job_pools(), m.jobs_in_pool("etl").count()),
        );
        let fixture = include_str!("../tests/pinned/full_log.txt");
        let section = fixture
            .find("--- accessors\n")
            .expect("fixture has accessors");
        assert_eq!(format!("--- accessors\n{accessors}"), fixture[section..]);
        // The engine's own report is the modeled one without its one
        // STAGES annotation.
        let modeled = &fixture[..fixture.find("--- modeled").expect("modeled section")];
        let (head, tail) = modeled.split_once(" | critical-path").expect("annotated");
        let plain = format!("{head}{}", &tail[tail.find('\n').expect("header ends")..]);
        assert_eq!(m.render_report(), plain);
    }

    #[test]
    fn attempt_sink_absorbed_only_on_commit() {
        let reg = MetricsRegistry::new();
        let mut c = reg.begin_stage("s", StageKind::ShuffleMap, 2, None);
        // Winning attempt: absorbed.
        let winner = AttemptCounters::default();
        winner.add_records_computed(10);
        winner.merge(&Counters {
            shuffle_write_records: 5,
            shuffle_write_bytes: 40,
            remote_bytes_read: 7,
            local_bytes_read: 3,
            shuffle_read_records: 5,
            kernel_runs: 4,
            kernel_max_subtask_records: 9,
            kernel_arena_hits: 6,
            ..Counters::default()
        });
        c.counters.merge(&winner.into_inner());
        // Failed attempt's sink: never absorbed.
        let loser = AttemptCounters::default();
        loser.add_records_computed(999);
        loser.merge(&Counters {
            shuffle_write_records: 999,
            shuffle_write_bytes: 9999,
            ..Counters::default()
        });
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

    /// A counter block from 14 small integers (the seconds in eighths, so
    /// float sums are exact in any order).
    fn block(v: &[u64]) -> Counters {
        Counters {
            records_computed: v[0],
            shuffle_write_records: v[1],
            shuffle_write_bytes: v[2],
            remote_bytes_read: v[3],
            local_bytes_read: v[4],
            shuffle_read_records: v[5],
            kernel_runs: v[6],
            kernel_max_subtask_records: v[7],
            kernel_arena_hits: v[8],
            task_failures: v[9],
            task_retries: v[10],
            speculative_launched: v[11],
            speculative_won: v[12],
            wasted_task_secs: v[13] as f64 / 8.0,
        }
    }

    proptest! {
        #[test]
        fn merging_in_any_grouping_is_the_fieldwise_sum(
            blocks in prop::collection::vec(prop::collection::vec(0u64..1_000_000, 14), 0..12),
            cut in 0usize..12,
        ) {
            let merged = |blocks: &[Vec<u64>]| {
                let mut total = Counters::default();
                blocks.iter().for_each(|b| total.merge(&block(b)));
                total
            };
            // Field-wise reference: sums, except the largest-combine field.
            let field = |i: usize| blocks.iter().map(move |b| b[i]);
            let mut expect: Vec<u64> = (0..14).map(|i| field(i).sum()).collect();
            expect[7] = field(7).max().unwrap_or(0);
            prop_assert_eq!(merged(&blocks), block(&expect));
            // ((a ⊕ b) ⊕ c …) equals (a ⊕ b …) ⊕ (… c): attempts into a
            // stage, or partial blocks into an attempt, in any grouping.
            let (head, tail) = blocks.split_at(cut.min(blocks.len()));
            let mut grouped = merged(head);
            grouped.merge(&merged(tail));
            prop_assert_eq!(grouped, merged(&blocks));
        }
    }

    #[test]
    fn run_stats_recorded_and_totalled() {
        let reg = MetricsRegistry::new();
        let mut c = reg.begin_stage("s", StageKind::Result, 1, None);
        c.counters.merge(&Counters {
            task_failures: 3,
            task_retries: 2,
            speculative_launched: 1,
            speculative_won: 1,
            wasted_task_secs: 0.25,
            ..Counters::default()
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
        let mut a = reg.begin_stage(
            "shuffle-map(join-left)",
            StageKind::ShuffleMap,
            2,
            Some(StageDag {
                job,
                wave: 0,
                parents: vec![skipped],
                shuffle_id: Some(8),
                server_job: None,
            }),
        );
        let a_id = a.stage_id;
        a.record_task(0, 0.1, 10);
        reg.finish_stage(a);
        let mut b = reg.begin_stage(
            "collect(map)",
            StageKind::Result,
            2,
            Some(StageDag {
                job,
                wave: 1,
                parents: vec![a_id],
                shuffle_id: None,
                server_job: None,
            }),
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
        assert!(report.contains(&format!("STAGES job {job} | 2 waves\n")));
        assert!(report.contains("cached"));
        let annotated = m.render_report_annotated(|j| Some(format!("job {j} priced")));
        assert!(annotated.contains(&format!("STAGES job {job} | 2 waves | job {job} priced\n")));
    }

    #[test]
    fn skipped_stages_consume_stage_ids() {
        let reg = MetricsRegistry::new();
        let skipped = reg.record_skipped_stage("shuffle-map(x)", 0, 1);
        let next = reg.begin_stage("s", StageKind::Result, 1, None);
        assert_eq!(next.stage_id, skipped + 1);
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
