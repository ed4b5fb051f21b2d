//! A from-scratch Spark-like distributed dataflow engine.
//!
//! The CSTF paper implements sparse tensor factorization as a sequence of
//! Spark RDD transformations (`map`, `join`, `reduceByKey`, `cache`) whose
//! cost is dominated by *shuffles* — operations that move records between
//! partitions over the network. There is no Spark in Rust, so this crate
//! provides the minimal faithful substrate:
//!
//! * [`Rdd`] — a lazy, immutable, partitioned dataset with a typed lineage
//!   graph. Narrow transformations (`map`, `filter`, …) chain computation;
//!   wide transformations (`join`, `reduce_by_key`, `partition_by`) insert
//!   shuffle boundaries exactly where Spark would. Each places keys with a
//!   [`HashPartitioner`] over its partition count and records it on its
//!   output, so a later wide operation over the same count reads that
//!   input without a shuffle.
//! * [`Cluster`] — the driver: owns the executor pool, shuffle service,
//!   block manager (cache) and metrics. Actions submit jobs to the
//!   engine's DAGScheduler ([`Job`]), which cuts lineage into a stage
//!   graph at shuffle boundaries and runs independent stages of each wave
//!   concurrently.
//! * **Simulated nodes** — partitions are placed on `n` virtual nodes
//!   (`partition mod n`). Every shuffle record that crosses a node boundary
//!   is counted as *remote bytes read*; records staying on the node count
//!   as *local bytes read*. These are exactly the two metrics Spark's UI
//!   reports and the paper plots in Figure 4.
//! * [`JobMetrics`] — the event log. The engine only counts; the
//!   `cstf-model` crate prices the log in modeled seconds for the curves
//!   of Figures 2/3/5.
//!
//! The names re-exported here are the whole public surface: what another
//! crate, an example, `perf/` or a test names. The lineage graph, the
//! stores, the executor and the scheduler's internals stay private; the
//! one public module besides [`prelude`] is [`kernel`], whose
//! `kernel::pool` stub `perf/` calls by path.
//!
//! # Example
//!
//! ```
//! use cstf_dataflow::{Cluster, ClusterConfig};
//!
//! let cluster = Cluster::new(ClusterConfig::local(4).nodes(2));
//! let rdd = cluster.parallelize((0..100u32).collect::<Vec<_>>(), 8);
//! let sum: u32 = rdd
//!     .map(|x| (x % 10, x))
//!     .reduce_by_key(|a, b| a + b)
//!     .collect()
//!     .into_iter()
//!     .map(|(_, v)| v)
//!     .sum();
//! assert_eq!(sum, (0..100).sum::<u32>());
//! // The reduce_by_key above really shuffled:
//! let m = cluster.metrics().snapshot();
//! assert_eq!(m.shuffle_count(), 1);
//! assert!(m.total_shuffle_bytes() > 0);
//! ```

#![warn(missing_docs)]

// `perf/` names `kernel::pool` by path; every other module is private and
// reaches users only through the re-exports below.
pub mod kernel;

mod broadcast;
mod cache;
mod config;
mod context;
mod executor;
mod fault;
mod hash;
mod jobserver;
mod metrics;
mod partitioner;
mod rdd;
mod scheduler;
mod shuffle;
mod size;

pub use cache::StorageLevel;
pub use config::{ClusterConfig, JobServerConfig};
pub use context::Cluster;
pub use fault::FaultConfig;
pub use hash::{FxHashMap, FxHashSet};
pub use jobserver::JobServer;
pub use kernel::{KernelOps, KernelStrategy};
pub use metrics::{percentile, Event, JobMetrics, Meter, Note, StageMetrics};
pub use partitioner::HashPartitioner;
pub use rdd::Rdd;
pub use size::{EstimateSize, LEN_WORD};

// Named only by tests: the engine's integration tests drive the executor,
// the two stores, the scheduler and the job server directly, and the
// model's and the oracle's tests build metrics by hand.
pub use cache::BlockManager;
pub use executor::{
    CancelToken, Executor, RunPolicy, RunStats, SpeculationPolicy, TaskError, WaveError,
};
pub use jobserver::JobOutcome;
pub use metrics::{Counters, JobOutcomeKind, JobRecord, MetricsRegistry, StageDag, StageKind};
pub use scheduler::Job;
pub use shuffle::ShuffleService;

/// One-stop import for the engine's everyday surface:
///
/// ```
/// use cstf_dataflow::prelude::*;
///
/// let c = Cluster::new(ClusterConfig::local(2));
/// let doubled = c
///     .parallelize(vec![1u32, 2, 3], 2)
///     .map(|x| x * 2)
///     .persist(StorageLevel::MemoryRaw);
/// assert_eq!(doubled.collect(), vec![2, 4, 6]);
/// ```
pub mod prelude {
    pub use crate::{
        Cluster, ClusterConfig, Data, EstimateSize, FaultConfig, HashPartitioner, JobMetrics,
        JobOutcome, JobOutcomeKind, JobRecord, JobServer, JobServerConfig, KernelOps,
        KernelStrategy, Key, Rdd, RunPolicy, SpeculationPolicy, StageKind, StorageLevel,
    };
}

/// Marker for element types an [`Rdd`] can hold: cheaply cloneable and
/// shareable across executor threads. Blanket-implemented.
pub trait Data: Send + Sync + Clone + 'static {}
impl<T: Send + Sync + Clone + 'static> Data for T {}

/// Marker for key types used in pair-RDD operations. Blanket-implemented.
pub trait Key: Data + Eq + std::hash::Hash {}
impl<T: Data + Eq + std::hash::Hash> Key for T {}
