//! Lineage nodes other than the shuffle ones ([`super::pair`]): sources,
//! narrow transformations and the caching wrapper.

use super::{next_node_id, Dependency, NodeInfo, RddNode};
use crate::cache::StorageLevel;
use crate::context::{Cluster, TaskContext};
use crate::size::EstimateSize;
use crate::Data;
use std::sync::Arc;

/// Source node: partitions held directly, **no dependencies**. Under the
/// name `"parallelize"` it is data distributed by the driver (Spark
/// `parallelize`); under `"checkpoint"` it is the materialized snapshot of
/// an RDD, truncating lineage (Spark `checkpoint`) — iterative algorithms
/// use that to bound the lineage depth recovery or recomputation would
/// otherwise walk.
pub(crate) struct SourceNode<T: Data> {
    id: usize,
    name: &'static str,
    partitions: Vec<Arc<Vec<T>>>,
}

impl<T: Data> SourceNode<T> {
    /// Holds explicitly assigned partitions (computed by a checkpoint job,
    /// or bucketed by the driver for [`crate::Cluster::parallelize_by_key`]).
    pub(crate) fn new(name: &'static str, partitions: Vec<Vec<T>>) -> Self {
        assert!(!partitions.is_empty());
        SourceNode {
            id: next_node_id(),
            name,
            partitions: partitions.into_iter().map(Arc::new).collect(),
        }
    }

    /// Splits `data` into `partitions` contiguous, nearly-equal chunks.
    pub(crate) fn parallelize(data: Vec<T>, partitions: usize) -> Self {
        assert!(partitions > 0);
        let n = data.len();
        let base = n / partitions;
        let rem = n % partitions;
        let mut chunks = Vec::with_capacity(partitions);
        let mut it = data.into_iter();
        for p in 0..partitions {
            let len = base + usize::from(p < rem);
            chunks.push(it.by_ref().take(len).collect::<Vec<T>>());
        }
        SourceNode::new("parallelize", chunks)
    }
}

impl<T: Data> NodeInfo for SourceNode<T> {
    fn id(&self) -> usize {
        self.id
    }
    fn name(&self) -> &str {
        self.name
    }
    fn num_partitions(&self) -> usize {
        self.partitions.len()
    }
    fn deps(&self) -> Vec<Dependency> {
        Vec::new()
    }
}

impl<T: Data> RddNode<T> for SourceNode<T> {
    fn compute(&self, partition: usize, ctx: &TaskContext<'_>) -> Vec<T> {
        let out = self.partitions[partition].as_ref().clone();
        ctx.stage.add_records_computed(out.len() as u64);
        out
    }
}

type PartitionFn<T, U> = Box<dyn Fn(usize, Vec<T>, &TaskContext<'_>) -> Vec<U> + Send + Sync>;

/// One-to-one narrow transformation: partition `p` is
/// `f(p, parent partition p, task context)`. Every element-wise operator
/// (`map`, `filter`, `flat_map`, `map_partitions`) and the shuffle-free
/// local combine of a co-partitioned wide operator is this node under its
/// own name; the operator's closure runs statically inside `f`, so a
/// partition costs one dynamic call, not one per record.
pub(crate) struct NarrowNode<T: Data, U: Data> {
    id: usize,
    name: String,
    parent: Arc<dyn RddNode<T>>,
    f: PartitionFn<T, U>,
}

impl<T: Data, U: Data> NarrowNode<T, U> {
    pub(crate) fn new(
        name: impl Into<String>,
        parent: Arc<dyn RddNode<T>>,
        f: impl Fn(usize, Vec<T>, &TaskContext<'_>) -> Vec<U> + Send + Sync + 'static,
    ) -> Self {
        NarrowNode {
            id: next_node_id(),
            name: name.into(),
            parent,
            f: Box::new(f),
        }
    }
}

impl<T: Data, U: Data> NodeInfo for NarrowNode<T, U> {
    fn id(&self) -> usize {
        self.id
    }
    fn name(&self) -> &str {
        &self.name
    }
    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }
    fn deps(&self) -> Vec<Dependency> {
        vec![Dependency::Narrow(self.parent.clone())]
    }
}

impl<T: Data, U: Data> RddNode<U> for NarrowNode<T, U> {
    fn compute(&self, partition: usize, ctx: &TaskContext<'_>) -> Vec<U> {
        let out = (self.f)(partition, self.parent.compute(partition, ctx), ctx);
        ctx.stage.add_records_computed(out.len() as u64);
        out
    }
}

/// Caching wrapper behind [`crate::Rdd::persist`]: first computation of a
/// partition stores it in the block manager at the chosen
/// [`StorageLevel`]; later computations read the resident copy (reloading
/// spilled blocks transparently). Lineage above a fully-resident node is
/// pruned from scheduling — but the parent is always retained, so a block
/// the budget enforcer dropped mid-run is recomputed from lineage exactly
/// like a lost partition, under the reading task's retry umbrella.
pub(crate) struct CachedNode<T: Data + EstimateSize> {
    id: usize,
    parent: Arc<dyn RddNode<T>>,
    cluster: Cluster,
    level: StorageLevel,
}

impl<T: Data + EstimateSize> CachedNode<T> {
    pub(crate) fn new(parent: Arc<dyn RddNode<T>>, cluster: Cluster, level: StorageLevel) -> Self {
        CachedNode {
            id: next_node_id(),
            parent,
            cluster,
            level,
        }
    }
}

impl<T: Data + EstimateSize> NodeInfo for CachedNode<T> {
    fn id(&self) -> usize {
        self.id
    }
    fn name(&self) -> &str {
        match self.level {
            StorageLevel::MemoryRaw => "cached",
            StorageLevel::MemoryAndDisk => "cached_mem_disk",
            StorageLevel::DiskOnly => "cached_disk",
        }
    }
    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }
    fn deps(&self) -> Vec<Dependency> {
        // Once every partition is resident (in memory or on disk),
        // upstream lineage is pruned: re-running a job over a cached RDD
        // re-materializes nothing.
        if self
            .cluster
            .block_manager()
            .has_all(self.id, self.num_partitions())
        {
            Vec::new()
        } else {
            vec![Dependency::Narrow(self.parent.clone())]
        }
    }
}

impl<T: Data + EstimateSize> RddNode<T> for CachedNode<T> {
    fn compute(&self, partition: usize, ctx: &TaskContext<'_>) -> Vec<T> {
        let bm = self.cluster.block_manager();
        if let Some(hit) = bm.get::<T>(self.id, partition) {
            ctx.stage.add_records_computed(hit.len() as u64);
            return hit.as_ref().clone();
        }
        // Miss. If the budget enforcer dropped this block earlier, this is
        // a lineage recompute (counted in the storage metrics); either
        // way the retained parent recomputes the partition.
        bm.begin_recompute(self.id, partition);
        let data = self.parent.compute(partition, ctx);
        let bytes: u64 = data.iter().map(|r| r.estimate_size() as u64).sum();
        bm.put(self.id, partition, data.clone(), bytes, self.level);
        data
    }
}
