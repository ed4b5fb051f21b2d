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
//!   shuffle boundaries exactly where Spark would.
//! * [`Cluster`] — the driver: owns the executor pool, shuffle service,
//!   block manager (cache) and metrics. Actions submit jobs to the
//!   [`scheduler`] — the engine's DAGScheduler — which cuts lineage into a
//!   stage graph at shuffle boundaries and runs independent stages of each
//!   wave concurrently.
//! * **Simulated nodes** — partitions are placed on `n` virtual nodes
//!   (`partition mod n`). Every shuffle record that crosses a node boundary
//!   is counted as *remote bytes read*; records staying on the node count
//!   as *local bytes read*. These are exactly the two metrics Spark's UI
//!   reports and the paper plots in Figure 4.
//! * [`metrics`] — the engine only counts; the `cstf-model` crate prices
//!   its log in modeled seconds for the curves of Figures 2/3/5.
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

pub mod broadcast;
pub mod cache;
pub mod config;
pub mod context;
pub mod executor;
pub mod fault;
pub mod hash;
pub mod jobserver;
pub mod kernel;
pub mod metrics;
pub mod partitioner;
pub mod rdd;
pub mod scheduler;
pub mod shuffle;
pub mod size;

pub use broadcast::Broadcast;
pub use cache::StorageLevel;
pub use config::{ClusterConfig, JobServerConfig, PoolConfig, SchedulingMode};
pub use context::{Cluster, TaskContext};
pub use executor::{CancelToken, RunPolicy, RunStats, SpeculationPolicy, TaskError, WaveError};
pub use fault::{FaultConfig, FaultInjector, InjectedFault};
pub use jobserver::{JobHandle, JobOutcome, JobServer, JobStatus};
pub use kernel::{KernelOps, KernelStrategy};
pub use metrics::{
    JobMetrics, JobOutcomeKind, JobRecord, MetricsRegistry, StageKind, StageMetrics,
};
pub use partitioner::{
    HashPartitioner, KeyPartitioner, PartitionerRef, PartitionerSig, RangePartitioner,
};
pub use rdd::Rdd;
pub use scheduler::{Job, Stage};
pub use size::EstimateSize;

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
    pub use crate::broadcast::Broadcast;
    pub use crate::cache::StorageLevel;
    pub use crate::config::ClusterConfig;
    pub use crate::config::{JobServerConfig, SchedulingMode};
    pub use crate::context::{Cluster, TaskContext};
    pub use crate::executor::{RunPolicy, SpeculationPolicy};
    pub use crate::fault::FaultConfig;
    pub use crate::jobserver::{JobHandle, JobOutcome, JobServer, JobStatus};
    pub use crate::kernel::{KernelOps, KernelStrategy};
    pub use crate::metrics::{JobMetrics, JobOutcomeKind, JobRecord, StageKind};
    pub use crate::partitioner::{
        HashPartitioner, KeyPartitioner, PartitionerRef, PartitionerSig, RangePartitioner,
    };
    pub use crate::rdd::Rdd;
    pub use crate::size::EstimateSize;
    pub use crate::{Data, Key};
}

/// Marker for element types an [`Rdd`] can hold: cheaply cloneable and
/// shareable across executor threads. Blanket-implemented.
pub trait Data: Send + Sync + Clone + 'static {}
impl<T: Send + Sync + Clone + 'static> Data for T {}

/// Marker for key types used in pair-RDD operations. Blanket-implemented.
pub trait Key: Data + Eq + std::hash::Hash {}
impl<T: Data + Eq + std::hash::Hash> Key for T {}
