//! Cluster configuration.

use crate::executor::SpeculationPolicy;
use crate::fault::FaultConfig;

/// Configuration for a [`crate::Cluster`].
///
/// The engine executes on local OS threads (`executor_threads`) while
/// *simulating* a cluster of `nodes` machines: partition `p` is placed on
/// node `p % nodes`, which determines whether shuffled bytes count as
/// remote or local. `default_parallelism` is the partition count used when
/// an operation does not specify one (Spark's `spark.default.parallelism`).
///
/// Fault tolerance mirrors Spark's task scheduler: every task gets up to
/// `max_task_attempts` attempts (`spark.task.maxFailures`), optional
/// [`SpeculationPolicy`] re-launches stragglers (`spark.speculation`), and
/// an optional deterministic [`FaultConfig`] injects task-level failures
/// for chaos testing.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of simulated worker nodes (the x-axis of Figures 2/3).
    pub nodes: usize,
    /// Local OS threads executing tasks.
    pub executor_threads: usize,
    /// Partition count used by operations that don't specify one.
    pub default_parallelism: usize,
    /// Maximum attempts per task before the job aborts (≥ 1).
    pub max_task_attempts: usize,
    /// Speculative execution of stragglers; `None` disables it.
    pub speculation: Option<SpeculationPolicy>,
    /// Deterministic fault injection; `None` runs fault-free.
    pub faults: Option<FaultConfig>,
    /// Byte budget applied to cached blocks and, separately, to shuffle
    /// map outputs held in memory (Spark's storage/execution memory
    /// region). The block manager and the shuffle service are each handed
    /// this figure and keep their own ledger: when the block manager's
    /// resident bytes exceed it, it evicts LRU blocks — dropping
    /// `MemoryRaw` blocks (recomputed from lineage on the next read) and
    /// spilling `MemoryAndDisk` blocks; when the shuffle service's do, it
    /// spills its oldest map outputs. Each store stays within the budget,
    /// so resident bytes overall are bounded by twice it. `None` (the
    /// default) is unbounded.
    pub memory_budget: Option<u64>,
    /// Forces the DAG scheduler to run one stage at a time, in
    /// topological order, instead of submitting all stages of a wave
    /// concurrently. Results are bit-identical either way (that is
    /// asserted by the scheduler test suite); this exists as the
    /// comparison baseline and for debugging.
    pub sequential_stages: bool,
}

impl ClusterConfig {
    /// A local configuration with `threads` executor threads, one simulated
    /// node and `2 × threads` default partitions.
    pub fn local(threads: usize) -> Self {
        let threads = threads.max(1);
        ClusterConfig {
            nodes: 1,
            executor_threads: threads,
            default_parallelism: 2 * threads,
            max_task_attempts: 4,
            speculation: None,
            faults: None,
            memory_budget: None,
            sequential_stages: false,
        }
    }

    /// A local configuration sized to the host's available parallelism.
    pub fn auto() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        ClusterConfig::local(threads)
    }

    /// Sets the simulated node count. Default parallelism is raised to at
    /// least 4 partitions per node so every simulated node gets work.
    pub fn nodes(mut self, nodes: usize) -> Self {
        self.nodes = nodes;
        self.default_parallelism = self.default_parallelism.max(4 * nodes);
        self.check();
        self
    }

    /// Sets the default partition count.
    pub fn default_parallelism(mut self, partitions: usize) -> Self {
        self.default_parallelism = partitions;
        self.check();
        self
    }

    /// Sets the per-task attempt budget (Spark's `spark.task.maxFailures`).
    /// Panics if an installed fault schedule could exhaust it.
    pub fn max_task_attempts(mut self, attempts: usize) -> Self {
        self.max_task_attempts = attempts;
        self.check();
        self
    }

    /// Enables speculative execution: a task running longer than
    /// `max(median × multiplier, min_task_secs)` gets one backup attempt.
    pub fn speculation(mut self, multiplier: f64, min_task_secs: f64) -> Self {
        self.speculation = Some(SpeculationPolicy {
            multiplier,
            min_task_secs,
        });
        self.check();
        self
    }

    /// Bounds the bytes held in memory by each of the cluster's two block
    /// stores: the cached blocks and the shuffle map outputs, each store
    /// on a ledger of its own, so the two together hold at most twice
    /// `bytes`. Each store evicts its least recent in-memory block first:
    /// a cached block is dropped ([`crate::StorageLevel::MemoryRaw`]) or
    /// spilled ([`crate::StorageLevel::MemoryAndDisk`]), a map output
    /// always spills. Each eviction, spill, reload and recompute is one
    /// event in [`crate::Cluster::metrics`].
    pub fn memory_budget(mut self, bytes: u64) -> Self {
        self.memory_budget = Some(bytes);
        self.check();
        self
    }

    /// Installs a deterministic fault-injection schedule for chaos
    /// testing. Panics if the schedule could fail a task more often than
    /// `max_task_attempts` allows (the job could never finish).
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self.check();
        self
    }

    /// Forces one stage per scheduling wave (the pre-DAG behaviour):
    /// stages run alone, in topological order. Used as the bit-identity
    /// baseline for the concurrent scheduler in tests and benches.
    pub fn sequential_stages(mut self) -> Self {
        self.sequential_stages = true;
        self
    }

    /// Panics naming the first rule this configuration breaks. Every
    /// builder that sets a checked field calls it, so the rules hold
    /// whatever order the builders run in.
    fn check(&self) {
        self.check_runnable();
        if let Some(faults) = &self.faults {
            assert!(
                faults.max_faults_per_task < self.max_task_attempts
                    || faults.crash_probability + faults.late_crash_probability == 0.0,
                "fault schedule may exhaust the task attempt budget: \
                 max_faults_per_task ({}) must stay below max_task_attempts ({})",
                faults.max_faults_per_task,
                self.max_task_attempts,
            );
        }
    }

    /// The rules without which no task can run. [`crate::Cluster::new`]
    /// checks them on every configuration, struct literals included. A
    /// literal may still carry a fault schedule that exhausts the attempt
    /// budget: that is how tests drive a stage abort.
    pub(crate) fn check_runnable(&self) {
        assert!(self.nodes > 0, "cluster must have at least one node");
        assert!(
            self.default_parallelism > 0,
            "default parallelism must be at least one partition"
        );
        assert!(
            self.max_task_attempts > 0,
            "tasks need at least one attempt"
        );
        if let Some(policy) = &self.speculation {
            assert!(
                policy.multiplier >= 1.0,
                "speculation multiplier must be ≥ 1"
            );
            assert!(
                policy.min_task_secs >= 0.0,
                "speculation threshold must be non-negative"
            );
        }
        assert!(
            self.memory_budget != Some(0),
            "memory budget must be positive"
        );
    }

    /// Simulated node that hosts partition `p`.
    #[inline]
    pub(crate) fn node_of(&self, partition: usize) -> usize {
        partition % self.nodes
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig::auto()
    }
}

/// Which queued job a [`crate::jobserver::JobServer`] dispatches when an
/// admission slot frees up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulingMode {
    /// Strict submission order across all pools (Spark's default
    /// scheduler). Long jobs head-of-line-block short ones.
    Fifo,
    /// Weighted fair sharing between pools (Spark's
    /// `spark.scheduler.mode=FAIR`): the pool with the least executed
    /// service per unit weight dispatches next, so a short-job pool is
    /// never starved behind a long-job pool.
    Fair,
}

/// One scheduling pool of a [`JobServerConfig`]: a named queue with a
/// fair-share weight (Spark's `fairscheduler.xml` pool entry).
#[derive(Debug, Clone, PartialEq)]
pub struct PoolConfig {
    /// Pool name; tenants submit into the pool matching their name.
    pub name: String,
    /// Fair-share weight (> 0). A weight-2 pool is entitled to twice the
    /// executed service of a weight-1 pool while both have queued jobs.
    pub weight: f64,
}

/// Configuration for a [`crate::jobserver::JobServer`].
#[derive(Debug, Clone, PartialEq)]
pub struct JobServerConfig {
    /// Dispatch policy across pools.
    pub mode: SchedulingMode,
    /// Admission cap: at most this many jobs run concurrently (≥ 1);
    /// further jobs wait in their pool's queue.
    pub max_concurrent_jobs: usize,
    /// Declared pools. Tenants without a matching pool get a fresh
    /// weight-1 pool named after them on first submission.
    pub pools: Vec<PoolConfig>,
    /// Starts the server with dispatch paused: jobs queue but none run
    /// until [`crate::jobserver::JobServer::resume`]. Lets tests submit a
    /// whole batch and then observe pure scheduling order.
    pub start_paused: bool,
}

impl JobServerConfig {
    /// FIFO scheduling with the given admission cap.
    pub fn fifo(max_concurrent_jobs: usize) -> Self {
        assert!(max_concurrent_jobs > 0, "admission cap must be ≥ 1");
        JobServerConfig {
            mode: SchedulingMode::Fifo,
            max_concurrent_jobs,
            pools: Vec::new(),
            start_paused: false,
        }
    }

    /// Weighted fair scheduling with the given admission cap.
    pub fn fair(max_concurrent_jobs: usize) -> Self {
        JobServerConfig {
            mode: SchedulingMode::Fair,
            ..JobServerConfig::fifo(max_concurrent_jobs)
        }
    }

    /// Declares a pool with a fair-share weight.
    pub fn pool(mut self, name: impl Into<String>, weight: f64) -> Self {
        assert!(weight > 0.0, "pool weight must be positive");
        self.pools.push(PoolConfig {
            name: name.into(),
            weight,
        });
        self
    }

    /// Starts the server paused (see [`Self::start_paused`] field).
    pub fn start_paused(mut self) -> Self {
        self.start_paused = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_defaults() {
        let c = ClusterConfig::local(4);
        assert_eq!(c.nodes, 1);
        assert_eq!(c.executor_threads, 4);
        assert_eq!(c.default_parallelism, 8);
    }

    #[test]
    fn nodes_raises_parallelism() {
        let c = ClusterConfig::local(2).nodes(8);
        assert_eq!(c.nodes, 8);
        assert!(c.default_parallelism >= 32);
    }

    #[test]
    fn node_placement_round_robin() {
        let c = ClusterConfig::local(2).nodes(4);
        assert_eq!(c.node_of(0), 0);
        assert_eq!(c.node_of(5), 1);
        assert_eq!(c.node_of(7), 3);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = ClusterConfig::local(1).nodes(0);
    }

    #[test]
    fn local_zero_threads_clamped() {
        assert_eq!(ClusterConfig::local(0).executor_threads, 1);
    }

    #[test]
    fn fault_tolerance_defaults() {
        let c = ClusterConfig::local(2);
        assert_eq!(c.max_task_attempts, 4);
        assert!(c.speculation.is_none());
        assert!(c.faults.is_none());
    }

    #[test]
    fn fault_builders() {
        let c = ClusterConfig::local(2)
            .max_task_attempts(3)
            .speculation(2.0, 0.05)
            .faults(FaultConfig::crashes(1, 0.5));
        assert_eq!(c.max_task_attempts, 3);
        assert_eq!(c.speculation.as_ref().unwrap().multiplier, 2.0);
        assert_eq!(c.faults.as_ref().unwrap().seed, 1);
    }

    #[test]
    #[should_panic(expected = "attempt budget")]
    fn unwinnable_fault_schedule_rejected() {
        let _ = ClusterConfig::local(2)
            .max_task_attempts(2)
            .faults(FaultConfig {
                max_faults_per_task: 2,
                ..FaultConfig::crashes(1, 1.0)
            });
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn zero_attempts_rejected() {
        let _ = ClusterConfig::local(1).max_task_attempts(0);
    }

    #[test]
    fn rules_hold_in_any_builder_order_and_for_literals() {
        let rejection = |build: fn()| {
            let payload = std::panic::catch_unwind(build).expect_err("configuration accepted");
            crate::executor::panic_message(&*payload)
        };
        // Attempts lowered after the schedule was installed.
        assert!(rejection(|| {
            let _ = ClusterConfig::local(2)
                .faults(FaultConfig::crashes(7, 0.9))
                .max_task_attempts(1);
        })
        .contains("attempt budget"));
        // A literal no builder saw.
        assert!(rejection(|| {
            let _ = crate::Cluster::new(ClusterConfig {
                nodes: 0,
                ..ClusterConfig::local(2)
            });
        })
        .contains("at least one node"));
        assert!(rejection(|| {
            let _ = ClusterConfig::local(2).default_parallelism(0);
        })
        .contains("at least one partition"));
        assert!(rejection(|| {
            let _ = crate::Cluster::new(ClusterConfig {
                default_parallelism: 0,
                ..ClusterConfig::local(2)
            });
        })
        .contains("at least one partition"));
    }
}
