//! The DAG scheduler: cuts an action's lineage into a first-class stage
//! graph and executes independent stages concurrently, wave by wave.
//!
//! Spark's defining scheduling feature is its `DAGScheduler`: every action
//! submits a [`Job`], the job's lineage is cut at shuffle boundaries into
//! [`Stage`]s (shuffle-map stages feeding a final result stage), and
//! stages whose parents are all satisfied run *at the same time*. For
//! CSTF this is what lets the independent factor-side joins of one MTTKRP
//! overlap on a real cluster. This module reproduces that design:
//!
//! 1. **Graph construction** ([`Job::plan`]) walks the lineage once per
//!    action — a pure pass that executes nothing. Each pending
//!    [`ShuffleDependency`] becomes a stage; lineage is pruned below
//!    fully-cached datasets (their nodes report no dependencies) and
//!    below already-materialized shuffles, which are recorded as
//!    *skipped* stages (Spark UI's grey "skipped" boxes).
//! 2. **Wave assignment**: `wave(S) = 1 + max(wave(parent))` over
//!    non-skipped parents, i.e. the longest pending path below `S`.
//!    Stages sharing a wave have no dependency path between them.
//! 3. **Wave execution** submits every stage of a wave as one task batch
//!    set to [`Executor::run_wave`](crate::executor::Executor::run_wave):
//!    tasks of independent stages interleave freely in the worker pool
//!    while retries, speculation and first-writer-wins commits work
//!    exactly as for a single stage. Outputs are committed on the driver
//!    in deterministic stage order after the wave completes. The result
//!    stage is a [`StagePlan`] like the shuffle-map stages and runs
//!    through the same loop as the job's last wave, so there is one place
//!    where a job waits, is cancelled or aborts.
//!
//! **Determinism.** Concurrency changes *when* stages run, never *what*
//! they produce: task closures are pure functions of their partition, the
//! shuffle service's `put_map_output` is first-writer-wins, and metric
//! commits happen driver-side in stage-index order. Forcing one stage per
//! wave ([`crate::ClusterConfig::sequential_stages`]) therefore yields
//! bit-identical results and identical counters — the chaos suites assert
//! exactly that.

use crate::context::{run_attempt, Cluster, TaskContext};
use crate::executor::WaveError;
use crate::hash::FxHashMap;
use crate::jobserver::JobCancelled;
use crate::metrics::{StageDag, StageKind, StageMetrics};
use crate::rdd::{Dependency, NodeInfo, RddNode, ShuffleDependency};
use crate::Data;
use std::any::Any;
use std::cell::RefCell;
use std::sync::Arc;

/// Type-erased stage output (a shuffle map output, or a result task's
/// value), produced by a [`StagePlan`]'s compute half inside a task and
/// consumed by its commit half on the driver.
pub(crate) type StageOutput = Box<dyn Any + Send>;

/// Executable plan for one stage: a shuffle-map stage, built by
/// [`ShuffleDependency::map_stage`], or an action's result stage.
///
/// The two halves mirror the task/driver split of the engine's commit
/// protocol: `compute` runs inside a (retryable, speculatable) executor
/// task and returns the output plus the record count; `commit` publishes
/// the winning attempt's output from the driver — to the shuffle service,
/// or into the action's result — exactly once per partition.
pub(crate) struct StagePlan<'a> {
    /// Stage name, e.g. `shuffle-map(reduce_by_key)` or `collect(map)`.
    pub name: String,
    /// Partitions to compute: for a shuffle-map stage the map partitions
    /// still missing — all of them on first execution, only the lost ones
    /// when recovering from a node failure.
    pub partitions: Vec<usize>,
    /// Task half: computes one partition's output.
    /// Returns the type-erased output and the input record count.
    #[allow(clippy::type_complexity)]
    pub compute: Box<dyn Fn(usize, &TaskContext<'_>) -> (StageOutput, u64) + Send + Sync + 'a>,
    /// Driver half: publishes one committed output.
    pub commit: Box<dyn Fn(usize, StageOutput) + 'a>,
}

/// One node of a job's stage DAG: a shuffle-map stage, or the record that
/// it was skipped because its shuffle is already materialized.
pub struct Stage {
    /// Position in [`Job::stages`] — a topological order (every parent
    /// has a lower index).
    pub index: usize,
    /// Stage name, e.g. `shuffle-map(join-left)`.
    pub name: String,
    /// The shuffle this stage produces.
    pub shuffle_id: usize,
    /// Indices (into [`Job::stages`]) of the stages whose shuffles this
    /// stage reads. Empty for skipped stages: lineage is pruned below a
    /// materialized shuffle.
    pub parents: Vec<usize>,
    /// Scheduling wave: the longest pending-stage path below this stage.
    /// All stages of a wave are submitted to the executor concurrently.
    /// Skipped stages keep wave 0 and gate nothing.
    pub wave: usize,
    /// Whether the stage is skipped as already materialized.
    pub skipped: bool,
    dep: Arc<dyn ShuffleDependency>,
}

/// The stage DAG for one action, built once from lineage by `Job::plan`.
pub struct Job {
    /// Stages in topological (post-)order.
    pub stages: Vec<Stage>,
    /// Stage indices the final result stage reads from directly.
    pub result_parents: Vec<usize>,
    /// Number of execution waves; the result stage runs as wave
    /// `num_waves`.
    pub num_waves: usize,
}

impl Job {
    /// Builds the stage DAG for an action on `root` without executing
    /// anything: a pure graph-construction pass over the lineage.
    pub(crate) fn plan(cluster: &Cluster, root: &Arc<dyn NodeInfo>) -> Job {
        let mut builder = Builder {
            cluster,
            stages: Vec::new(),
            stage_of_shuffle: FxHashMap::default(),
            memo: FxHashMap::default(),
        };
        let result_parents = builder.shuffle_parents(root);
        let mut stages = builder.stages;
        // Single forward pass works because parents always precede
        // children in the post-order.
        for i in 0..stages.len() {
            if stages[i].skipped {
                continue;
            }
            stages[i].wave = stages[i]
                .parents
                .iter()
                .filter(|&&p| !stages[p].skipped)
                .map(|&p| stages[p].wave + 1)
                .max()
                .unwrap_or(0);
        }
        let num_waves = stages
            .iter()
            .filter(|s| !s.skipped)
            .map(|s| s.wave + 1)
            .max()
            .unwrap_or(0);
        Job {
            stages,
            result_parents,
            num_waves,
        }
    }

    /// Stages scheduled in `wave` (skipped stages excluded).
    pub fn stages_in_wave(&self, wave: usize) -> impl Iterator<Item = &Stage> {
        self.stages
            .iter()
            .filter(move |s| !s.skipped && s.wave == wave)
    }

    /// Renders the DAG one stage per line, for debugging and tests.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for s in &self.stages {
            if s.skipped {
                let _ = writeln!(out, "  [cached] #{} {}", s.index, s.name);
            } else {
                let _ = writeln!(
                    out,
                    "  wave {} #{} {} <- {:?}",
                    s.wave, s.index, s.name, s.parents
                );
            }
        }
        let _ = writeln!(
            out,
            "  wave {} result <- {:?}",
            self.num_waves, self.result_parents
        );
        out
    }
}

/// Lineage walk state for [`Job::plan`].
struct Builder<'c> {
    cluster: &'c Cluster,
    stages: Vec<Stage>,
    /// Shuffle id → stage index (each shuffle becomes one stage).
    stage_of_shuffle: FxHashMap<usize, usize>,
    /// Node id → stage indices reachable through narrow edges. Memoized
    /// per *node* (not a visited set): a shared narrow subtree must
    /// contribute its upstream stages to every stage that reaches it.
    memo: FxHashMap<usize, Vec<usize>>,
}

impl Builder<'_> {
    /// The stages whose shuffles `node` reads through narrow edges —
    /// i.e. the stage parents of whatever stage `node`'s subtree runs in.
    fn shuffle_parents(&mut self, node: &Arc<dyn NodeInfo>) -> Vec<usize> {
        if let Some(cached) = self.memo.get(&node.id()) {
            return cached.clone();
        }
        let mut out: Vec<usize> = Vec::new();
        for dep in node.deps() {
            match dep {
                Dependency::Narrow(parent) => {
                    for idx in self.shuffle_parents(&parent) {
                        if !out.contains(&idx) {
                            out.push(idx);
                        }
                    }
                }
                Dependency::Shuffle(shuffle) => {
                    let idx = self.stage_for(shuffle);
                    if !out.contains(&idx) {
                        out.push(idx);
                    }
                }
            }
        }
        self.memo.insert(node.id(), out.clone());
        out
    }

    /// The stage producing `dep`'s shuffle, created on first sight.
    /// Recursing into the map side *before* allocating the index yields a
    /// post-order: parents always get lower indices.
    fn stage_for(&mut self, dep: Arc<dyn ShuffleDependency>) -> usize {
        if let Some(&idx) = self.stage_of_shuffle.get(&dep.shuffle_id()) {
            return idx;
        }
        let skipped = dep.materialized(self.cluster);
        let parents = if skipped {
            Vec::new() // prune lineage below a materialized shuffle
        } else {
            self.shuffle_parents(&dep.parent_info())
        };
        let index = self.stages.len();
        self.stage_of_shuffle.insert(dep.shuffle_id(), index);
        self.stages.push(Stage {
            index,
            name: dep.stage_name(),
            shuffle_id: dep.shuffle_id(),
            parents,
            wave: 0,
            skipped,
            dep,
        });
        index
    }
}

/// Runs an action: plans the stage DAG below `node`, executes its pending
/// shuffle-map stages wave by wave, then — as wave [`Job::num_waves`] —
/// one result task per partition of `node`, applying `f` to each
/// partition's records. Returns per-partition results in partition order.
///
/// Tasks run with bounded retries and optional speculation (see
/// [`crate::ClusterConfig`]); per-attempt metrics are committed only for
/// the winning attempt of each task.
///
/// # Panics
///
/// If a task exhausts its attempt budget, after all in-flight tasks have
/// stopped (`stage '<name>' aborted` and the task's error); with a
/// [`crate::jobserver::JobCancelled`] payload if the job is cancelled.
pub(crate) fn run_job<T: Data, U: Send + 'static>(
    cluster: &Cluster,
    node: &Arc<dyn RddNode<T>>,
    name: &str,
    f: impl Fn(usize, Vec<T>) -> U + Send + Sync,
) -> Vec<U> {
    let info: Arc<dyn NodeInfo> = node.clone();
    let job = Job::plan(cluster, &info);
    let partitions = node.num_partitions();
    let results: RefCell<Vec<Option<U>>> = RefCell::new((0..partitions).map(|_| None).collect());
    // The result stage is a stage like any other: its tasks compute a
    // partition and apply `f`, its driver-side commit files the value.
    let result = StagePlan {
        name: name.to_string(),
        partitions: (0..partitions).collect(),
        compute: Box::new(|p, ctx| {
            let data = node.compute(p, ctx);
            let records = data.len() as u64;
            (Box::new(f(p, data)) as StageOutput, records)
        }),
        commit: Box::new(|p, out| {
            let value = out.downcast::<U>().expect("result task output downcast");
            results.borrow_mut()[p] = Some(*value);
        }),
    };
    run_stages(cluster, &job, result);
    let results = results.into_inner().into_iter();
    results
        .map(|r| r.expect("every result task committed"))
        .collect()
}

/// Executes `job`: every pending shuffle-map stage, wave by wave — all
/// stages of a wave concurrently, unless the cluster is configured with
/// [`crate::ClusterConfig::sequential_stages`], in which case each stage
/// runs alone (in the same topological order the pre-DAG engine used) —
/// and then `result` as the final wave.
fn run_stages<'a>(cluster: &'a Cluster, job: &'a Job, result: StagePlan<'a>) {
    let mut run = JobRun {
        job,
        job_id: cluster.metrics().begin_job(),
        metric_ids: vec![None; job.stages.len()],
    };
    // Stages pruned as already materialized are logged up front, in stage
    // order, so the report shows them and children can cite them.
    for stage in job.stages.iter().filter(|s| s.skipped) {
        run.record_skipped(cluster, stage);
    }
    if cluster.config().sequential_stages {
        for stage in job.stages.iter().filter(|s| !s.skipped) {
            run.wave(cluster, &[stage], None);
        }
    } else {
        for wave in 0..job.num_waves {
            let runnable: Vec<&Stage> = job.stages_in_wave(wave).collect();
            run.wave(cluster, &runnable, None);
        }
    }
    run.wave(cluster, &[], Some(result));
}

/// Metric bookkeeping of one executing job: which metrics-log stage id
/// each planned stage got (skipped stages get ids too, so children can
/// reference them as DAG parents).
struct JobRun<'a> {
    job: &'a Job,
    job_id: usize,
    metric_ids: Vec<Option<usize>>,
}

/// One stage submitted to a wave: its plan and its open metrics.
struct Exec<'a> {
    plan: StagePlan<'a>,
    metrics: StageMetrics,
}

impl<'a> JobRun<'a> {
    /// Maps planned stage indices to their metrics-log stage ids.
    fn parent_ids(&self, stage_indices: &[usize]) -> Vec<usize> {
        stage_indices
            .iter()
            .filter_map(|&i| self.metric_ids[i])
            .collect()
    }

    fn record_skipped(&mut self, cluster: &Cluster, stage: &Stage) {
        self.metric_ids[stage.index] = Some(cluster.metrics().record_skipped_stage(
            &stage.name,
            self.job_id,
            stage.shuffle_id,
        ));
    }

    /// Opens the metrics of a stage about to run: shuffle-map `stage`, or
    /// (`None`) the job's result stage.
    fn begin(&mut self, cluster: &Cluster, stage: Option<&Stage>, plan: StagePlan<'a>) -> Exec<'a> {
        let (kind, wave, parents) = match stage {
            Some(stage) => (StageKind::ShuffleMap, stage.wave, &stage.parents),
            None => (
                StageKind::Result,
                self.job.num_waves,
                &self.job.result_parents,
            ),
        };
        let dag = StageDag {
            job: self.job_id,
            wave,
            parents: self.parent_ids(parents),
            shuffle_id: stage.map(|s| s.shuffle_id),
            server_job: cluster.server_job(),
        };
        let nodes = cluster.config().nodes;
        let metrics = cluster
            .metrics()
            .begin_stage(&plan.name, kind, nodes, Some(dag));
        if let Some(stage) = stage {
            self.metric_ids[stage.index] = Some(metrics.stage_id);
        }
        Exec { plan, metrics }
    }

    /// Runs one wave — shuffle-map `stages`, or the job's `result` stage —
    /// the one place a job waits, observes cancellation and fails: plans
    /// each stage, submits all task batches to the executor together, then
    /// commits outputs and metrics on the driver in stage order.
    fn wave(&mut self, cluster: &'a Cluster, stages: &[&'a Stage], result: Option<StagePlan<'a>>) {
        // Between waves — never mid-wave — so cancellation cannot observe
        // a half-committed stage.
        cluster.check_cancel();
        let mut execs: Vec<Exec<'a>> = Vec::new();
        for &stage in stages {
            match stage.dep.map_stage(cluster) {
                Some(plan) => execs.push(self.begin(cluster, Some(stage), plan)),
                // The shuffle became fully materialized between planning
                // and execution (a concurrent job won the race).
                None => self.record_skipped(cluster, stage),
            }
        }
        if let Some(plan) = result {
            execs.push(self.begin(cluster, None, plan));
        }
        if execs.is_empty() {
            return;
        }
        cluster.note_wave();
        let injector = cluster.fault_injector();
        // One closure site for every task of every stage: the batches share a
        // single concrete closure type, so no per-task boxing is needed.
        let batches: Vec<Vec<_>> = execs
            .iter()
            .map(|e| {
                e.plan
                    .partitions
                    .iter()
                    .map(|&p| {
                        // Capture only `compute`: the driver-side `commit` box
                        // is deliberately not `Sync` and never crosses threads.
                        let compute = &e.plan.compute;
                        let stage_id = e.metrics.stage_id;
                        let injector = injector.as_ref();
                        move |attempt: usize| {
                            run_attempt(cluster, injector, stage_id, p, attempt, |ctx| {
                                compute(p, ctx)
                            })
                        }
                    })
                    .collect()
            })
            .collect();
        let outcomes = cluster
            .executor()
            .run_wave(batches, &cluster.run_policy(), cluster.cancel_token())
            .unwrap_or_else(|e| {
                let e = match e {
                    // A cancelled wave committed nothing: unwinding here (the
                    // driver thread, before the commit loop below) leaves
                    // shuffle and block-manager state untouched.
                    WaveError::Cancelled => std::panic::panic_any(JobCancelled),
                    WaveError::Task(e) => e,
                };
                // Map the wave's flat task index back to the failing stage.
                let mut offset = 0;
                let mut name = "unknown";
                for exec in &execs {
                    if e.task < offset + exec.plan.partitions.len() {
                        name = &exec.plan.name;
                        break;
                    }
                    offset += exec.plan.partitions.len();
                }
                panic!("stage '{name}' aborted: {e}")
            });
        debug_assert_eq!(execs.len(), outcomes.len());
        for (Exec { plan, mut metrics }, outcome) in execs.into_iter().zip(outcomes) {
            for (&p, task_run) in plan.partitions.iter().zip(outcome.results) {
                metrics.record_task(
                    cluster.config().node_of(p),
                    task_run.cpu_secs,
                    task_run.records,
                );
                metrics.counters.merge(&task_run.counters);
                (plan.commit)(p, task_run.value);
            }
            metrics.counters.merge(&outcome.stats);
            cluster.metrics().finish_stage(metrics);
        }
    }
}
