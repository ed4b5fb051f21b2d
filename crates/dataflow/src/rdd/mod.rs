//! RDDs: lazy, partitioned, immutable datasets with typed lineage.
//!
//! An [`Rdd<T>`] is a handle to a node in a lineage DAG. Narrow
//! transformations (`map`, `filter`, …) create nodes that compute their
//! partition from the same-numbered parent partition; wide transformations
//! (in [`pair`]) introduce [`ShuffleDependency`] boundaries that the
//! scheduler materializes as separate stages. Nothing executes until an
//! action (`collect`, `count`, `reduce`, …) runs.

pub(crate) mod nodes;
mod pair;

use crate::cache::StorageLevel;
use crate::context::{Cluster, TaskContext};
use crate::partitioner::PartitionerRef;
use crate::size::EstimateSize;
use crate::Data;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Allocates process-unique RDD node ids (used as cache keys and for
/// lineage-walk memoization).
pub(crate) fn next_node_id() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Type-erased view of a lineage node, used by the scheduler.
pub(crate) trait NodeInfo: Send + Sync {
    /// Process-unique node id.
    fn id(&self) -> usize;
    /// Operator name for debugging and stage naming.
    fn name(&self) -> &str;
    /// Number of partitions.
    fn num_partitions(&self) -> usize;
    /// Dependencies on parent nodes.
    fn deps(&self) -> Vec<Dependency>;
}

/// An edge in the lineage DAG.
#[derive(Clone)]
pub(crate) enum Dependency {
    /// Parent partition feeds the same-numbered child partition; computed
    /// in the same stage.
    Narrow(Arc<dyn NodeInfo>),
    /// A shuffle boundary; the parent side runs as its own stage.
    Shuffle(Arc<dyn ShuffleDependency>),
}

/// Type-erased handle to a shuffle boundary, letting the driver schedule
/// map stages without knowing record types.
pub(crate) trait ShuffleDependency: Send + Sync {
    /// Cluster-unique shuffle id.
    fn shuffle_id(&self) -> usize;
    /// Stage name this shuffle's map stage runs under (used for the
    /// stage-DAG metrics even when the stage is skipped as materialized).
    fn stage_name(&self) -> String;
    /// Whether every map output is already stored.
    fn materialized(&self, cluster: &Cluster) -> bool;
    /// Builds the executable plan for this shuffle's map stage: the
    /// missing map partitions plus type-erased compute/commit halves that
    /// the [`crate::scheduler`] runs through the fallible executor.
    /// Returns `None` when every map output is already stored (the stage
    /// is skipped). Registration with the shuffle service is idempotent,
    /// and commits are first-writer-wins, so concurrent plans for the
    /// same shuffle are safe.
    fn map_stage<'a>(&'a self, cluster: &'a Cluster) -> Option<crate::scheduler::StagePlan<'a>>;
    /// Lineage node feeding the shuffle.
    fn parent_info(&self) -> Arc<dyn NodeInfo>;
}

/// A typed lineage node: computes one partition's records.
pub(crate) trait RddNode<T: Data>: NodeInfo {
    /// Computes partition `partition` (called from executor tasks).
    fn compute(&self, partition: usize, ctx: &TaskContext<'_>) -> Vec<T>;
}

/// A lazy, partitioned dataset — the engine's equivalent of a Spark RDD.
///
/// Cloning is cheap (shares the underlying node). All transformations are
/// lazy; actions trigger stage-by-stage execution on the owning
/// [`Cluster`].
pub struct Rdd<T: Data> {
    pub(crate) node: Arc<dyn RddNode<T>>,
    pub(crate) cluster: Cluster,
    /// Provenance: the partitioner whose placement this dataset's
    /// partitions are known to follow (recorded by shuffle outputs,
    /// propagated by partitioning-preserving narrow ops, dropped by
    /// key-changing ops). The scheduler turns joins against a matching
    /// partitioner into narrow dependencies.
    pub(crate) partitioner: Option<PartitionerRef>,
}

impl<T: Data> Clone for Rdd<T> {
    fn clone(&self) -> Self {
        Rdd {
            node: self.node.clone(),
            cluster: self.cluster.clone(),
            partitioner: self.partitioner.clone(),
        }
    }
}

impl<T: Data> Rdd<T> {
    pub(crate) fn from_node(cluster: Cluster, node: Arc<dyn RddNode<T>>) -> Self {
        Rdd {
            node,
            cluster,
            partitioner: None,
        }
    }

    /// Attaches partitioner provenance (used by shuffle outputs and by
    /// narrow ops that provably preserve key placement).
    pub(crate) fn with_partitioner(mut self, partitioner: Option<PartitionerRef>) -> Self {
        self.partitioner = partitioner;
        self
    }

    /// A dataset derived from this one: `node` on the same cluster.
    /// Partitioner provenance is dropped; operators that preserve key
    /// placement re-attach it.
    pub(crate) fn derive<U: Data>(&self, node: impl RddNode<U> + 'static) -> Rdd<U> {
        Rdd::from_node(self.cluster.clone(), Arc::new(node))
    }

    pub(crate) fn parallelize(cluster: Cluster, data: Vec<T>, partitions: usize) -> Self {
        let node = Arc::new(nodes::SourceNode::parallelize(data, partitions));
        Rdd::from_node(cluster, node)
    }

    /// The partitioner this dataset is known to follow, if any.
    pub fn partitioner(&self) -> Option<&PartitionerRef> {
        self.partitioner.as_ref()
    }

    /// Node id (unique per lineage node).
    pub fn id(&self) -> usize {
        self.node.id()
    }

    /// Operator name of the underlying node.
    pub(crate) fn name(&self) -> String {
        self.node.name().to_string()
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.node.num_partitions()
    }

    /// Builds — without executing anything — the stage DAG the scheduler
    /// would run for an action on this dataset: one stage per pending
    /// shuffle, with parent edges and wave assignments, lineage pruned
    /// below cached datasets and already-materialized shuffles.
    pub fn job_plan(&self) -> crate::scheduler::Job {
        let info: Arc<dyn NodeInfo> = self.node.clone();
        crate::scheduler::Job::plan(&self.cluster, &info)
    }

    // ---- narrow transformations -------------------------------------

    /// The one narrow constructor: a [`nodes::NarrowNode`] named `name`
    /// computing each partition as `f(index, parent records, context)`.
    pub(crate) fn narrow<U: Data>(
        &self,
        name: impl Into<String>,
        f: impl Fn(usize, Vec<T>, &TaskContext<'_>) -> Vec<U> + Send + Sync + 'static,
    ) -> Rdd<U> {
        self.derive(nodes::NarrowNode::new(name, self.node.clone(), f))
    }

    /// Applies `f` to every record.
    pub fn map<U: Data>(&self, f: impl Fn(T) -> U + Send + Sync + 'static) -> Rdd<U> {
        self.narrow("map", move |_, data, _| data.into_iter().map(&f).collect())
    }

    /// Keeps records satisfying `f`. Preserves partitioning: dropping
    /// records never moves the survivors.
    pub fn filter(&self, f: impl Fn(&T) -> bool + Send + Sync + 'static) -> Rdd<T> {
        self.narrow("filter", move |_, data, _| {
            data.into_iter().filter(&f).collect()
        })
        .with_partitioner(self.partitioner.clone())
    }

    /// Applies `f` and flattens the results.
    pub fn flat_map<U: Data>(&self, f: impl Fn(T) -> Vec<U> + Send + Sync + 'static) -> Rdd<U> {
        self.narrow("flat_map", move |_, data, _| {
            data.into_iter().flat_map(&f).collect()
        })
    }

    /// Transforms a whole partition at once; `f` receives the partition
    /// index and its records.
    pub fn map_partitions<U: Data>(
        &self,
        f: impl Fn(usize, Vec<T>) -> Vec<U> + Send + Sync + 'static,
    ) -> Rdd<U> {
        self.narrow("map_partitions", move |partition, data, _| {
            f(partition, data)
        })
    }

    // ---- caching ------------------------------------------------------

    /// Materializes the dataset and truncates its lineage (Spark
    /// `checkpoint`): the returned RDD holds the computed partitions
    /// directly and has no dependencies, so no amount of shuffle cleanup
    /// or cache loss upstream can force recomputation through the old
    /// graph. Iterative algorithms (like QCOO's rotating state) call this
    /// periodically to bound lineage depth.
    pub fn checkpoint(&self) -> Rdd<T> {
        let parts: Vec<Vec<T>> = self.run_action("checkpoint", |_, d| d);
        self.derive(nodes::SourceNode::new("checkpoint", parts))
            .with_partitioner(self.partitioner.clone())
    }

    /// Drops this RDD's resident partitions — in memory and spilled
    /// alike (Spark `unpersist`). Only meaningful on a handle
    /// returned by [`Rdd::persist`]. Returns the number of removed blocks.
    pub fn unpersist(&self) -> usize {
        self.cluster.block_manager().remove_rdd(self.node.id())
    }

    /// Whether all partitions are currently resident (in memory or
    /// spilled).
    pub fn is_fully_cached(&self) -> bool {
        self.cluster
            .block_manager()
            .has_all(self.node.id(), self.num_partitions())
    }

    // ---- actions --------------------------------------------------------

    /// The one job runner: computes every partition (shuffle stages first)
    /// and maps each through `f`, as the job `action(node name)`.
    fn run_action<U: Send + 'static>(
        &self,
        action: &str,
        f: impl Fn(usize, Vec<T>) -> U + Send + Sync,
    ) -> Vec<U> {
        let name = format!("{action}({})", self.node.name());
        crate::scheduler::run_job(&self.cluster, &self.node, &name, f)
    }

    /// Computes and returns all records, in partition order.
    pub fn collect(&self) -> Vec<T> {
        let parts = self.run_action("collect", |_, d| d);
        parts.into_iter().flatten().collect()
    }

    /// Number of records.
    pub fn count(&self) -> u64 {
        self.run_action("count", |_, d| d.len() as u64)
            .into_iter()
            .sum()
    }

    /// Reduces all records with an associative, commutative `f`. Returns
    /// `None` on an empty dataset.
    pub fn reduce(&self, f: impl Fn(T, T) -> T + Send + Sync) -> Option<T> {
        let partials = self.run_action("reduce", |_, d| d.into_iter().reduce(&f));
        partials.into_iter().flatten().reduce(&f)
    }

    /// Folds every record into `zero` with `f` per partition, combining
    /// partition results with `combine`.
    pub fn fold<U: Data>(
        &self,
        zero: U,
        f: impl Fn(U, T) -> U + Send + Sync,
        combine: impl Fn(U, U) -> U,
    ) -> U {
        let z = zero.clone();
        let partials = self.run_action("fold", move |_, d| d.into_iter().fold(z.clone(), &f));
        partials.into_iter().fold(zero, combine)
    }

    /// First `n` records in partition order.
    pub fn take(&self, n: usize) -> Vec<T> {
        let mut out = self.collect();
        out.truncate(n);
        out
    }

    /// The first record, if any.
    pub fn first(&self) -> Option<T> {
        self.take(1).into_iter().next()
    }
}

impl<T: Data + EstimateSize> Rdd<T> {
    /// Marks the dataset for caching at `level` — the engine's single
    /// persistence entry point (Spark `persist(StorageLevel)`). The first
    /// action computes and stores every partition (sized by
    /// [`EstimateSize`], so the memory budget can govern it); later
    /// actions read from the block manager, and lineage above a fully
    /// resident RDD is pruned.
    ///
    /// Under a [`crate::ClusterConfig::memory_budget`], a stored block may
    /// later be evicted: [`StorageLevel::MemoryRaw`] blocks are dropped
    /// and recomputed from lineage on the next read,
    /// [`StorageLevel::MemoryAndDisk`] blocks are spilled and promoted
    /// back on the next read.
    ///
    /// ```
    /// use cstf_dataflow::{Cluster, ClusterConfig, StorageLevel};
    ///
    /// let c = Cluster::new(ClusterConfig::local(2));
    /// let rdd = c
    ///     .parallelize((0u32..8).collect::<Vec<_>>(), 4)
    ///     .persist(StorageLevel::MemoryRaw);
    /// assert_eq!(rdd.count(), 8);        // computes and fills the cache
    /// assert!(rdd.is_fully_cached());
    /// assert_eq!(rdd.unpersist(), 4);    // drops 4 partitions
    /// ```
    pub fn persist(&self, level: StorageLevel) -> Rdd<T> {
        self.derive(nodes::CachedNode::new(
            self.node.clone(),
            self.cluster.clone(),
            level,
        ))
        .with_partitioner(self.partitioner.clone())
    }
}

impl<T: Data> std::fmt::Debug for Rdd<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Rdd")
            .field("id", &self.id())
            .field("name", &self.name())
            .field("partitions", &self.num_partitions())
            .finish()
    }
}
