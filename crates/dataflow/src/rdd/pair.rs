//! Key-value (pair) RDD operations: the wide transformations.
//!
//! These are the operations whose shuffle behaviour the paper analyses
//! (Table 2 workflows, Table 4 costs): `join`, `reduceByKey`,
//! `groupByKey`, `partitionBy`. Every wide operation creates a
//! [`ShuffleDep`]; the scheduler materializes it as a shuffle-map stage and
//! reducers fetch buckets with remote/local byte attribution.
//!
//! **Partitioner-aware scheduling.** Every wide operation records the
//! [`KeyPartitioner`] that produced its output on the resulting [`Rdd`],
//! and `cogroup`/`join`/`reduce_by_key`/`partition_by` compare each
//! input's recorded partitioner against the one they were asked to use: a
//! side that already matches is read through a narrow one-to-one
//! dependency instead of a fresh shuffle (Spark's `CoGroupedRDD` with
//! matching partitioners). A fully co-partitioned join therefore runs as
//! a zero-shuffle narrow stage; each elided shuffle-map stage is counted
//! in [`crate::metrics::JobMetrics::skipped_shuffle_count`].
//!
//! By default `reduce_by_key` does **not** combine map-side. This matches
//! the paper's cost accounting (Table 4 charges the final `reduceByKey` a
//! full `nnz × R` of traffic); Spark's combining variant is available as
//! [`Rdd::reduce_by_key_map_side`].

use super::{next_node_id, Dependency, NodeInfo, Rdd, RddNode, ShuffleDependency};
use crate::context::{Cluster, TaskContext};
use crate::hash::FxHashMap;
use crate::kernel::{self, KernelOps, KernelPlan, KernelStrategy};
use crate::partitioner::{HashPartitioner, KeyPartitioner, PartitionerRef, RangePartitioner};
use crate::size::EstimateSize;
use crate::{Data, Key};
use std::collections::hash_map::Entry;
use std::sync::Arc;

/// Element type produced by [`Rdd::cogroup`]: per distinct key, all values
/// from the left side and all values from the right side.
pub type CoGrouped<K, V, W> = (K, (Vec<V>, Vec<W>));

/// Element type produced by [`Rdd::full_outer_join`]: per key, `None`
/// fills whichever side lacks the key.
pub type FullOuterJoined<K, V, W> = (K, (Option<V>, Option<W>));

/// How shuffled values are combined into combiners (Spark's `Aggregator`).
pub struct Aggregator<V, C> {
    /// Lifts a single value into a combiner.
    pub create: Arc<dyn Fn(V) -> C + Send + Sync>,
    /// Folds a value into an existing combiner (map side).
    pub merge_value: Arc<dyn Fn(C, V) -> C + Send + Sync>,
    /// Merges two combiners (reduce side).
    pub merge_combiners: Arc<dyn Fn(C, C) -> C + Send + Sync>,
}

impl<V, C> Clone for Aggregator<V, C> {
    fn clone(&self) -> Self {
        Aggregator {
            create: self.create.clone(),
            merge_value: self.merge_value.clone(),
            merge_combiners: self.merge_combiners.clone(),
        }
    }
}

impl<V: Data> Aggregator<V, V> {
    /// Pass-through aggregator with a binary reduce function.
    pub fn from_reduce(f: impl Fn(V, V) -> V + Send + Sync + 'static) -> Self {
        let f = Arc::new(f);
        let f2 = f.clone();
        Aggregator {
            create: Arc::new(|v| v),
            merge_value: Arc::new(move |c, v| f(c, v)),
            merge_combiners: Arc::new(move |a, b| f2(a, b)),
        }
    }

    /// Identity aggregator (repartitioning only).
    pub fn identity() -> Self {
        Aggregator {
            create: Arc::new(|v| v),
            merge_value: Arc::new(|_c, v| v),
            merge_combiners: Arc::new(|_a, b| b),
        }
    }
}

/// A shuffle boundary: repartitions `(K, V)` records from `parent` by key
/// into `partitioner.num_partitions()` buckets, optionally combining
/// map-side into combiners of type `C`.
pub struct ShuffleDep<K: Key, V: Data, C: Data> {
    shuffle_id: usize,
    name: String,
    parent: Arc<dyn RddNode<(K, V)>>,
    partitioner: Arc<dyn KeyPartitioner<K>>,
    aggregator: Aggregator<V, C>,
    map_side_combine: bool,
    /// Sorted-runs kernel for this shuffle's combines (`None` runs the
    /// legacy record-at-a-time hash-map path). Only set by
    /// [`Rdd::reduce_by_key_kernel`], whose callers must tolerate sorted
    /// (instead of hash-order) key emission.
    kernel: Option<Arc<KernelPlan<K, C>>>,
    /// Cleanup handle: when the last reference to this dependency drops
    /// (its RDDs went out of scope), the shuffle's stored data is freed —
    /// the engine's ContextCleaner. Lineage that still needs the data
    /// keeps the dependency alive by construction.
    service: std::sync::Arc<crate::shuffle::ShuffleService>,
}

impl<K: Key, V: Data, C: Data> Drop for ShuffleDep<K, V, C> {
    fn drop(&mut self) {
        self.service.remove(self.shuffle_id);
    }
}

impl<K, V, C> ShuffleDep<K, V, C>
where
    K: Key + EstimateSize,
    V: Data,
    C: Data + EstimateSize,
{
    fn new(
        cluster: &Cluster,
        name: impl Into<String>,
        parent: Arc<dyn RddNode<(K, V)>>,
        partitioner: Arc<dyn KeyPartitioner<K>>,
        aggregator: Aggregator<V, C>,
        map_side_combine: bool,
    ) -> Self {
        ShuffleDep {
            shuffle_id: cluster.next_shuffle_id(),
            name: name.into(),
            parent,
            partitioner,
            aggregator,
            map_side_combine,
            kernel: None,
            service: cluster.shuffle_service_arc(),
        }
    }

    /// Buckets one map partition's records by reduce partition, combining
    /// map-side when configured. Runs inside a (retryable) executor task.
    fn bucket(&self, data: Vec<(K, V)>, ctx: &TaskContext<'_>) -> (Vec<Vec<(K, C)>>, Vec<u64>) {
        let num_reduce = self.partitioner.partition_count();
        let kernel_plan = self.kernel.as_ref().filter(|_| self.map_side_combine);
        let buckets: Vec<Vec<(K, C)>> = if let Some(plan) = kernel_plan {
            // Sorted-runs map-side combine: partition records into per-
            // reduce vectors of combiners, then combine each vector over
            // sorted runs. Per key and bucket, values fold in data scan
            // order — exactly the op sequence of the hash-map path — only
            // the bucket's emit order changes (sorted, not hash order).
            let mut raw: Vec<Vec<(K, C)>> = (0..num_reduce).map(|_| Vec::new()).collect();
            for (k, v) in data {
                let b = self.partitioner.partition_of(&k);
                let c = (self.aggregator.create)(v);
                raw[b].push((k, c));
            }
            raw.into_iter()
                .map(|bucket| {
                    let (combined, counters) = kernel::combine_owned(plan, bucket);
                    ctx.stage.add_kernel(&counters);
                    combined
                })
                .collect()
        } else if self.map_side_combine {
            // `Option<C>` slots let the entry API merge in place: each
            // record hashes exactly once instead of the remove-then-insert
            // double lookup.
            let mut maps: Vec<FxHashMap<K, Option<C>>> =
                (0..num_reduce).map(|_| FxHashMap::default()).collect();
            for (k, v) in data {
                let b = self.partitioner.partition_of(&k);
                match maps[b].entry(k) {
                    Entry::Occupied(mut slot) => {
                        let prev = slot.get_mut().take().expect("combiner present");
                        *slot.get_mut() = Some((self.aggregator.merge_value)(prev, v));
                    }
                    Entry::Vacant(slot) => {
                        slot.insert(Some((self.aggregator.create)(v)));
                    }
                }
            }
            maps.into_iter()
                .map(|m| {
                    m.into_iter()
                        .map(|(k, c)| (k, c.expect("combiner present")))
                        .collect()
                })
                .collect()
        } else {
            let mut buckets: Vec<Vec<(K, C)>> = (0..num_reduce).map(|_| Vec::new()).collect();
            for (k, v) in data {
                let b = self.partitioner.partition_of(&k);
                let c = (self.aggregator.create)(v);
                buckets[b].push((k, c));
            }
            buckets
        };
        let bucket_bytes: Vec<u64> = buckets
            .iter()
            .map(|b| b.iter().map(|r| r.estimate_size() as u64).sum())
            .collect();
        (buckets, bucket_bytes)
    }

    /// Fetches one reduce partition's buckets — still shared with the
    /// shuffle service, in map-partition order — attributing bytes to
    /// remote/local reads based on simulated node placement.
    fn read_buckets(
        &self,
        reduce_partition: usize,
        ctx: &TaskContext<'_>,
    ) -> Vec<Arc<Vec<(K, C)>>> {
        let fetched = ctx
            .cluster
            .shuffle_service()
            .read::<(K, C)>(self.shuffle_id, reduce_partition);
        let config = ctx.cluster.config();
        let my_node = config.node_of(reduce_partition);
        let mut remote = 0u64;
        let mut local = 0u64;
        let mut records = 0u64;
        let mut out = Vec::with_capacity(fetched.len());
        for bucket in fetched {
            if config.node_of(bucket.map_partition) == my_node {
                local += bucket.bytes;
            } else {
                remote += bucket.bytes;
            }
            records += bucket.records.len() as u64;
            out.push(bucket.records);
        }
        ctx.stage.add_shuffle_read(remote, local, records);
        out
    }

    /// Fetches one reduce partition's records as owned copies (the
    /// record-at-a-time path; the sorted kernel combines straight out of
    /// the shared buckets instead).
    fn read(&self, reduce_partition: usize, ctx: &TaskContext<'_>) -> Vec<(K, C)> {
        let buckets = self.read_buckets(reduce_partition, ctx);
        let total: usize = buckets.iter().map(|b| b.len()).sum();
        let mut out = Vec::with_capacity(total);
        for bucket in &buckets {
            // Buckets are shared (`Arc`) with the shuffle service; copy
            // records outside the service lock.
            out.extend(bucket.iter().cloned());
        }
        out
    }
}

impl<K, V, C> ShuffleDependency for ShuffleDep<K, V, C>
where
    K: Key + EstimateSize,
    V: Data,
    C: Data + EstimateSize,
{
    fn shuffle_id(&self) -> usize {
        self.shuffle_id
    }

    fn stage_name(&self) -> String {
        format!("shuffle-map({})", self.name)
    }

    fn materialized(&self, cluster: &Cluster) -> bool {
        cluster.shuffle_service().is_complete(self.shuffle_id)
    }

    fn map_stage<'a>(&'a self, cluster: &'a Cluster) -> Option<crate::scheduler::StagePlan<'a>> {
        if self.materialized(cluster) {
            return None;
        }
        cluster.shuffle_service().register(
            self.shuffle_id,
            self.parent.num_partitions(),
            self.partitioner.partition_count(),
        );
        // Recovery path: compute only the map outputs that are missing
        // (all of them on first materialization).
        let missing = cluster
            .shuffle_service()
            .missing_map_outputs(self.shuffle_id);
        if missing.is_empty() {
            return None;
        }
        // Bucketing runs inside the (retryable) task; registration of the
        // map output happens on the driver, only for the winning attempt.
        Some(crate::scheduler::StagePlan {
            name: self.stage_name(),
            partitions: missing,
            compute: Box::new(move |map_partition, ctx| {
                let data = self.parent.compute(map_partition, ctx);
                let records = data.len() as u64;
                let out = self.bucket(data, ctx);
                (Box::new(out) as crate::scheduler::StageOutput, records)
            }),
            commit: Box::new(move |map_partition, out, stage| {
                let (buckets, bucket_bytes) = *out
                    .downcast::<(Vec<Vec<(K, C)>>, Vec<u64>)>()
                    .expect("shuffle map output downcast");
                let records: u64 = buckets.iter().map(|b| b.len() as u64).sum();
                let bytes: u64 = bucket_bytes.iter().sum();
                stage.add_shuffle_write(records, bytes);
                cluster.shuffle_service().put_map_output(
                    self.shuffle_id,
                    map_partition,
                    buckets,
                    bucket_bytes,
                );
            }),
        })
    }

    fn parent_info(&self) -> Arc<dyn NodeInfo> {
        self.parent.clone()
    }
}

/// Post-shuffle RDD: reads its partition's buckets, optionally merging
/// combiners for the same key.
pub struct ShuffledRdd<K: Key, V: Data, C: Data> {
    id: usize,
    name: String,
    dep: Arc<ShuffleDep<K, V, C>>,
    reduce_side_combine: bool,
}

impl<K, V, C> NodeInfo for ShuffledRdd<K, V, C>
where
    K: Key + EstimateSize,
    V: Data,
    C: Data + EstimateSize,
{
    fn id(&self) -> usize {
        self.id
    }
    fn name(&self) -> &str {
        &self.name
    }
    fn num_partitions(&self) -> usize {
        self.dep.partitioner.partition_count()
    }
    fn deps(&self) -> Vec<Dependency> {
        vec![Dependency::Shuffle(self.dep.clone())]
    }
}

impl<K, V, C> RddNode<(K, C)> for ShuffledRdd<K, V, C>
where
    K: Key + EstimateSize,
    V: Data,
    C: Data + EstimateSize,
{
    fn compute(&self, partition: usize, ctx: &TaskContext<'_>) -> Vec<(K, C)> {
        if self.reduce_side_combine {
            if let Some(plan) = &self.dep.kernel {
                // Sorted-runs kernel: combine straight out of the shared
                // buckets — one accumulator allocation per distinct key,
                // no per-record clone-out.
                let buckets = self.dep.read_buckets(partition, ctx);
                let (out, counters) = kernel::combine_fetched(plan, &buckets);
                ctx.stage.add_kernel(&counters);
                ctx.stage.add_records_computed(out.len() as u64);
                return out;
            }
        }
        let raw = self.dep.read(partition, ctx);
        if !self.reduce_side_combine {
            ctx.stage.add_records_computed(raw.len() as u64);
            return raw;
        }
        // Entry-API merge: each record hashes once (see map-side combine).
        let mut merged: FxHashMap<K, Option<C>> = FxHashMap::default();
        for (k, c) in raw {
            match merged.entry(k) {
                Entry::Occupied(mut slot) => {
                    let prev = slot.get_mut().take().expect("combiner present");
                    *slot.get_mut() = Some((self.dep.aggregator.merge_combiners)(prev, c));
                }
                Entry::Vacant(slot) => {
                    slot.insert(Some(c));
                }
            }
        }
        let out: Vec<(K, C)> = merged
            .into_iter()
            .map(|(k, c)| (k, c.expect("combiner present")))
            .collect();
        ctx.stage.add_records_computed(out.len() as u64);
        out
    }
}

/// One input side of a [`CoGroupedRdd`]: either read through a fresh
/// shuffle, or — when the input is already partitioned by the requested
/// partitioner — read directly from the parent's matching partition
/// (narrow one-to-one dependency, zero shuffle bytes).
enum CoSide<K: Key, V: Data> {
    /// Already partitioned by the requested partitioner: partition `p` of
    /// the cogroup reads partition `p` of the parent, unshuffled.
    Narrow(Arc<dyn RddNode<(K, V)>>),
    /// Must be repartitioned through a shuffle-map stage.
    Shuffled(Arc<ShuffleDep<K, V, V>>),
}

impl<K, V> CoSide<K, V>
where
    K: Key + EstimateSize,
    V: Data + EstimateSize,
{
    fn dependency(&self) -> Dependency {
        match self {
            CoSide::Narrow(parent) => Dependency::Narrow(parent.clone()),
            CoSide::Shuffled(dep) => Dependency::Shuffle(dep.clone()),
        }
    }

    fn read(&self, partition: usize, ctx: &TaskContext<'_>) -> Vec<(K, V)> {
        match self {
            CoSide::Narrow(parent) => parent.compute(partition, ctx),
            CoSide::Shuffled(dep) => dep.read(partition, ctx),
        }
    }
}

/// Co-grouping of two pair RDDs on a shared partitioner: partition `p`
/// holds, for every key hashing to `p`, the values from both sides. A
/// side whose input is already co-partitioned is a narrow dependency
/// (Spark's `CoGroupedRDD` with a matching partitioner).
pub struct CoGroupedRdd<K: Key, V: Data, W: Data> {
    id: usize,
    left: CoSide<K, V>,
    right: CoSide<K, W>,
    partitions: usize,
}

impl<K, V, W> NodeInfo for CoGroupedRdd<K, V, W>
where
    K: Key + EstimateSize,
    V: Data + EstimateSize,
    W: Data + EstimateSize,
{
    fn id(&self) -> usize {
        self.id
    }
    fn name(&self) -> &str {
        "cogroup"
    }
    fn num_partitions(&self) -> usize {
        self.partitions
    }
    fn deps(&self) -> Vec<Dependency> {
        vec![self.left.dependency(), self.right.dependency()]
    }
}

impl<K, V, W> RddNode<(K, (Vec<V>, Vec<W>))> for CoGroupedRdd<K, V, W>
where
    K: Key + EstimateSize,
    V: Data + EstimateSize,
    W: Data + EstimateSize,
{
    fn compute(&self, partition: usize, ctx: &TaskContext<'_>) -> Vec<(K, (Vec<V>, Vec<W>))> {
        let mut groups: FxHashMap<K, (Vec<V>, Vec<W>)> = FxHashMap::default();
        for (k, v) in self.left.read(partition, ctx) {
            groups.entry(k).or_default().0.push(v);
        }
        for (k, w) in self.right.read(partition, ctx) {
            groups.entry(k).or_default().1.push(w);
        }
        let out: Vec<CoGrouped<K, V, W>> = groups.into_iter().collect();
        ctx.stage.add_records_computed(out.len() as u64);
        out
    }
}

/// Shuffle-free `reduceByKey`: the parent is already partitioned by the
/// requested partitioner, so every key's records are co-located and each
/// partition combines locally — a narrow one-to-one dependency.
struct NarrowCombinedRdd<K: Key, V: Data, C: Data> {
    id: usize,
    name: String,
    parent: Arc<dyn RddNode<(K, V)>>,
    aggregator: Aggregator<V, C>,
    /// Sorted-runs kernel for the local combine (see [`ShuffleDep`]).
    kernel: Option<Arc<KernelPlan<K, C>>>,
    partitions: usize,
}

impl<K, V, C> NodeInfo for NarrowCombinedRdd<K, V, C>
where
    K: Key + EstimateSize,
    V: Data,
    C: Data + EstimateSize,
{
    fn id(&self) -> usize {
        self.id
    }
    fn name(&self) -> &str {
        &self.name
    }
    fn num_partitions(&self) -> usize {
        self.partitions
    }
    fn deps(&self) -> Vec<Dependency> {
        vec![Dependency::Narrow(self.parent.clone())]
    }
}

impl<K, V, C> RddNode<(K, C)> for NarrowCombinedRdd<K, V, C>
where
    K: Key + EstimateSize,
    V: Data,
    C: Data + EstimateSize,
{
    fn compute(&self, partition: usize, ctx: &TaskContext<'_>) -> Vec<(K, C)> {
        let raw = self.parent.compute(partition, ctx);
        if let Some(plan) = &self.kernel {
            // Sorted-runs local combine: create each value's combiner in
            // scan order, then fold contiguous runs.
            let created: Vec<(K, C)> = raw
                .into_iter()
                .map(|(k, v)| (k, (self.aggregator.create)(v)))
                .collect();
            let (out, counters) = kernel::combine_owned(plan, created);
            ctx.stage.add_kernel(&counters);
            ctx.stage.add_records_computed(out.len() as u64);
            return out;
        }
        let mut merged: FxHashMap<K, Option<C>> = FxHashMap::default();
        for (k, v) in raw {
            match merged.entry(k) {
                Entry::Occupied(mut slot) => {
                    let prev = slot.get_mut().take().expect("combiner present");
                    *slot.get_mut() = Some((self.aggregator.merge_value)(prev, v));
                }
                Entry::Vacant(slot) => {
                    slot.insert(Some((self.aggregator.create)(v)));
                }
            }
        }
        let out: Vec<(K, C)> = merged
            .into_iter()
            .map(|(k, c)| (k, c.expect("combiner present")))
            .collect();
        ctx.stage.add_records_computed(out.len() as u64);
        out
    }
}

impl<K, V> Rdd<(K, V)>
where
    K: Key + EstimateSize,
    V: Data + EstimateSize,
{
    fn default_partitions(&self) -> usize {
        self.cluster.config().default_parallelism
    }

    /// Applies `f` to each value, keeping keys (narrow, preserves
    /// partitioning — Spark `mapValues`).
    pub fn map_values<U: Data>(&self, f: impl Fn(V) -> U + Send + Sync + 'static) -> Rdd<(K, U)> {
        let partitioner = self.partitioner.clone();
        self.map(move |(k, v)| (k, f(v)))
            .with_partitioner(partitioner)
    }

    /// Expands each value into zero or more values under the same key
    /// (narrow, preserves partitioning — Spark `flatMapValues`).
    pub fn flat_map_values<U: Data>(
        &self,
        f: impl Fn(V) -> Vec<U> + Send + Sync + 'static,
    ) -> Rdd<(K, U)> {
        let partitioner = self.partitioner.clone();
        self.flat_map(move |(k, v)| f(v).into_iter().map(|u| (k.clone(), u)).collect())
            .with_partitioner(partitioner)
    }

    /// Drops values.
    pub fn keys(&self) -> Rdd<K> {
        self.map(|(k, _)| k)
    }

    /// Drops keys.
    pub fn values(&self) -> Rdd<V> {
        self.map(|(_, v)| v)
    }

    /// Merges all values per key with `f` (Spark `reduceByKey`). One
    /// shuffle; combining happens reduce-side only (see module docs).
    ///
    /// ```
    /// use cstf_dataflow::{Cluster, ClusterConfig};
    ///
    /// let c = Cluster::new(ClusterConfig::local(2));
    /// let mut sums = c
    ///     .parallelize(vec![(1u32, 2u64), (2, 5), (1, 3)], 2)
    ///     .reduce_by_key(|a, b| a + b)
    ///     .collect();
    /// sums.sort();
    /// assert_eq!(sums, vec![(1, 5), (2, 5)]);
    /// ```
    pub fn reduce_by_key(&self, f: impl Fn(V, V) -> V + Send + Sync + 'static) -> Rdd<(K, V)> {
        self.reduce_by_key_with(self.default_partitions(), false, f)
    }

    /// `reduceByKey` with Spark's map-side combining enabled.
    pub fn reduce_by_key_map_side(
        &self,
        f: impl Fn(V, V) -> V + Send + Sync + 'static,
    ) -> Rdd<(K, V)> {
        self.reduce_by_key_with(self.default_partitions(), true, f)
    }

    /// True when this RDD's recorded partitioner matches `partitioner`, so
    /// a shuffle onto `partitioner` can be skipped.
    fn co_partitioned_with(&self, partitioner: &dyn KeyPartitioner<K>) -> bool {
        match self.partitioner.as_ref() {
            Some(p) if p.matches(&partitioner.signature()) => {
                assert_eq!(
                    self.num_partitions(),
                    partitioner.partition_count(),
                    "recorded partitioner disagrees with RDD partition count"
                );
                true
            }
            _ => false,
        }
    }

    /// `reduceByKey` with explicit partition count and map-side-combine
    /// flag. When the input is already hash-partitioned into `partitions`
    /// buckets the shuffle is skipped entirely and combining runs as a
    /// narrow per-partition stage.
    pub fn reduce_by_key_with(
        &self,
        partitions: usize,
        map_side_combine: bool,
        f: impl Fn(V, V) -> V + Send + Sync + 'static,
    ) -> Rdd<(K, V)> {
        self.reduce_by_key_impl(
            partitions,
            map_side_combine,
            Aggregator::from_reduce(f),
            None,
        )
    }

    /// `reduceByKey` running the sorted-runs task kernel (see
    /// [`crate::kernel`]): combines walk contiguous key runs of a
    /// stable-sorted SoA tile instead of probing a hash map per record.
    ///
    /// `ops.merge_in_place` must perform exactly the operations of
    /// `f(acc, v)`, in the same order; the kernel then reproduces the
    /// record-at-a-time within-key accumulation bit for bit. The output
    /// holds the same records, but emitted in ascending key order rather
    /// than hash order — callers must consume it order-insensitively.
    /// [`KernelStrategy::RecordAtATime`] falls back to the legacy path.
    pub fn reduce_by_key_kernel(
        &self,
        partitions: usize,
        map_side_combine: bool,
        strategy: KernelStrategy,
        f: impl Fn(V, V) -> V + Send + Sync + 'static,
        ops: KernelOps<V>,
    ) -> Rdd<(K, V)>
    where
        K: Ord,
    {
        let kernel =
            (strategy == KernelStrategy::SortedRuns).then(|| Arc::new(KernelPlan::new(ops)));
        self.reduce_by_key_impl(
            partitions,
            map_side_combine,
            Aggregator::from_reduce(f),
            kernel,
        )
    }

    fn reduce_by_key_impl(
        &self,
        partitions: usize,
        map_side_combine: bool,
        agg: Aggregator<V, V>,
        kernel: Option<Arc<KernelPlan<K, V>>>,
    ) -> Rdd<(K, V)> {
        let partitioner: Arc<dyn KeyPartitioner<K>> = Arc::new(HashPartitioner::new(partitions));
        if self.co_partitioned_with(partitioner.as_ref()) {
            self.cluster
                .metrics()
                .record_skipped_shuffle("reduce_by_key");
            return Rdd::from_node(
                self.cluster.clone(),
                Arc::new(NarrowCombinedRdd {
                    id: next_node_id(),
                    name: "reduce_by_key(narrow)".into(),
                    parent: self.node.clone(),
                    aggregator: agg,
                    kernel,
                    partitions,
                }),
            )
            .with_partitioner(Some(PartitionerRef::of(partitioner)));
        }
        let mut dep = ShuffleDep::new(
            &self.cluster,
            "reduce_by_key",
            self.node.clone(),
            partitioner.clone(),
            agg,
            map_side_combine,
        );
        dep.kernel = kernel;
        Rdd::from_node(
            self.cluster.clone(),
            Arc::new(ShuffledRdd {
                id: next_node_id(),
                name: "reduce_by_key".into(),
                dep: Arc::new(dep),
                reduce_side_combine: true,
            }),
        )
        .with_partitioner(Some(PartitionerRef::of(partitioner)))
    }

    /// Groups all values per key (Spark `groupByKey`; no map-side combine,
    /// as in Spark).
    pub fn group_by_key(&self) -> Rdd<(K, Vec<V>)> {
        self.group_by_key_with(self.default_partitions())
    }

    /// `groupByKey` with explicit partition count.
    pub fn group_by_key_with(&self, partitions: usize) -> Rdd<(K, Vec<V>)> {
        let agg: Aggregator<V, Vec<V>> = Aggregator {
            create: Arc::new(|v| vec![v]),
            merge_value: Arc::new(|mut c, v| {
                c.push(v);
                c
            }),
            merge_combiners: Arc::new(|mut a, mut b| {
                a.append(&mut b);
                a
            }),
        };
        let partitioner: Arc<dyn KeyPartitioner<K>> = Arc::new(HashPartitioner::new(partitions));
        let dep = Arc::new(ShuffleDep::new(
            &self.cluster,
            "group_by_key",
            self.node.clone(),
            partitioner.clone(),
            agg,
            false,
        ));
        Rdd::from_node(
            self.cluster.clone(),
            Arc::new(ShuffledRdd {
                id: next_node_id(),
                name: "group_by_key".into(),
                dep,
                reduce_side_combine: true,
            }),
        )
        .with_partitioner(Some(PartitionerRef::of(partitioner)))
    }

    /// Repartitions by key, preserving duplicate records (Spark
    /// `partitionBy`). A no-op (and zero shuffles) when the RDD is already
    /// hash-partitioned into `partitions` buckets.
    pub fn partition_by(&self, partitions: usize) -> Rdd<(K, V)> {
        let partitioner: Arc<dyn KeyPartitioner<K>> = Arc::new(HashPartitioner::new(partitions));
        if self.co_partitioned_with(partitioner.as_ref()) {
            self.cluster
                .metrics()
                .record_skipped_shuffle("partition_by");
            return self.clone();
        }
        let dep = Arc::new(ShuffleDep::new(
            &self.cluster,
            "partition_by",
            self.node.clone(),
            partitioner.clone(),
            Aggregator::identity(),
            false,
        ));
        Rdd::from_node(
            self.cluster.clone(),
            Arc::new(ShuffledRdd {
                id: next_node_id(),
                name: "partition_by".into(),
                dep,
                reduce_side_combine: false,
            }),
        )
        .with_partitioner(Some(PartitionerRef::of(partitioner)))
    }

    /// Co-groups with `other`: one output record per distinct key, holding
    /// all values from each side.
    pub fn cogroup<W: Data + EstimateSize>(&self, other: &Rdd<(K, W)>) -> Rdd<CoGrouped<K, V, W>> {
        self.cogroup_with(other, self.default_partitions())
    }

    /// `cogroup` with explicit partition count.
    pub fn cogroup_with<W: Data + EstimateSize>(
        &self,
        other: &Rdd<(K, W)>,
        partitions: usize,
    ) -> Rdd<CoGrouped<K, V, W>> {
        self.cogroup_by(other, Arc::new(HashPartitioner::new(partitions)))
    }

    /// `cogroup` with an explicit partitioner. Each side that is already
    /// partitioned by `partitioner` is read through a narrow one-to-one
    /// dependency — no shuffle-map stage, no shuffle bytes. Two
    /// co-partitioned inputs make this a zero-shuffle narrow stage.
    pub fn cogroup_by<W: Data + EstimateSize>(
        &self,
        other: &Rdd<(K, W)>,
        partitioner: Arc<dyn KeyPartitioner<K>>,
    ) -> Rdd<CoGrouped<K, V, W>> {
        let partitions = partitioner.partition_count();
        let left = if self.co_partitioned_with(partitioner.as_ref()) {
            self.cluster
                .metrics()
                .record_skipped_shuffle("cogroup-left");
            CoSide::Narrow(self.node.clone())
        } else {
            CoSide::Shuffled(Arc::new(ShuffleDep::new(
                &self.cluster,
                "cogroup-left",
                self.node.clone(),
                partitioner.clone(),
                Aggregator::identity(),
                false,
            )))
        };
        let right = if other.co_partitioned_with(partitioner.as_ref()) {
            self.cluster
                .metrics()
                .record_skipped_shuffle("cogroup-right");
            CoSide::Narrow(other.node.clone())
        } else {
            CoSide::Shuffled(Arc::new(ShuffleDep::new(
                &self.cluster,
                "cogroup-right",
                other.node.clone(),
                partitioner.clone(),
                Aggregator::identity(),
                false,
            )))
        };
        Rdd::from_node(
            self.cluster.clone(),
            Arc::new(CoGroupedRdd {
                id: next_node_id(),
                left,
                right,
                partitions,
            }),
        )
        .with_partitioner(Some(PartitionerRef::of(partitioner)))
    }

    /// Inner join (Spark `join`): emits `(k, (v, w))` for every pair of
    /// values sharing a key. Implemented as cogroup + flatten, exactly as
    /// Spark does.
    ///
    /// ```
    /// use cstf_dataflow::{Cluster, ClusterConfig};
    ///
    /// let c = Cluster::new(ClusterConfig::local(2));
    /// let users = c.parallelize(vec![(1u32, "ann"), (2, "bo")], 2);
    /// let karma = c.parallelize(vec![(1u32, 10i64)], 2);
    /// assert_eq!(users.join(&karma).collect(), vec![(1, ("ann", 10))]);
    /// ```
    pub fn join<W: Data + EstimateSize>(&self, other: &Rdd<(K, W)>) -> Rdd<(K, (V, W))> {
        self.join_with(other, self.default_partitions())
    }

    /// `join` with explicit partition count.
    pub fn join_with<W: Data + EstimateSize>(
        &self,
        other: &Rdd<(K, W)>,
        partitions: usize,
    ) -> Rdd<(K, (V, W))> {
        self.join_by(other, Arc::new(HashPartitioner::new(partitions)))
    }

    /// `join` with an explicit partitioner; co-partitioned sides skip
    /// their shuffle (see [`Rdd::cogroup_by`]).
    pub fn join_by<W: Data + EstimateSize>(
        &self,
        other: &Rdd<(K, W)>,
        partitioner: Arc<dyn KeyPartitioner<K>>,
    ) -> Rdd<(K, (V, W))> {
        let grouped = self.cogroup_by(other, partitioner);
        let joined_partitioner = grouped.partitioner.clone();
        grouped
            .flat_map(|(k, (mut vs, mut ws))| {
                // Fast path: one value per side (the common MTTKRP case —
                // one factor row per index) moves instead of cloning.
                if vs.len() == 1 && ws.len() == 1 {
                    let v = vs.pop().expect("len checked");
                    let w = ws.pop().expect("len checked");
                    return vec![(k, (v, w))];
                }
                let mut out = Vec::with_capacity(vs.len() * ws.len());
                for v in &vs {
                    for w in &ws {
                        out.push((k.clone(), (v.clone(), w.clone())));
                    }
                }
                out
            })
            .with_partitioner(joined_partitioner)
    }

    /// Left outer join: every left record appears; the right side is
    /// `None` when the key is absent there.
    pub fn left_outer_join<W: Data + EstimateSize>(
        &self,
        other: &Rdd<(K, W)>,
    ) -> Rdd<(K, (V, Option<W>))> {
        let grouped = self.cogroup(other);
        let partitioner = grouped.partitioner.clone();
        grouped
            .flat_map(|(k, (vs, ws))| {
                let mut out = Vec::new();
                for v in &vs {
                    if ws.is_empty() {
                        out.push((k.clone(), (v.clone(), None)));
                    } else {
                        for w in &ws {
                            out.push((k.clone(), (v.clone(), Some(w.clone()))));
                        }
                    }
                }
                out
            })
            .with_partitioner(partitioner)
    }

    /// Full outer join: keys from either side appear, with `None` filling
    /// the absent side.
    pub fn full_outer_join<W: Data + EstimateSize>(
        &self,
        other: &Rdd<(K, W)>,
    ) -> Rdd<FullOuterJoined<K, V, W>> {
        let grouped = self.cogroup(other);
        let partitioner = grouped.partitioner.clone();
        grouped
            .flat_map(|(k, (vs, ws))| {
                let mut out = Vec::new();
                match (vs.is_empty(), ws.is_empty()) {
                    (false, false) => {
                        for v in &vs {
                            for w in &ws {
                                out.push((k.clone(), (Some(v.clone()), Some(w.clone()))));
                            }
                        }
                    }
                    (false, true) => {
                        for v in &vs {
                            out.push((k.clone(), (Some(v.clone()), None)));
                        }
                    }
                    (true, false) => {
                        for w in &ws {
                            out.push((k.clone(), (None, Some(w.clone()))));
                        }
                    }
                    (true, true) => unreachable!("cogroup emits only present keys"),
                }
                out
            })
            .with_partitioner(partitioner)
    }

    /// Removes every record whose key appears in `other` (Spark
    /// `subtractByKey`).
    pub fn subtract_by_key<W: Data + EstimateSize>(&self, other: &Rdd<(K, W)>) -> Rdd<(K, V)> {
        let grouped = self.cogroup(other);
        let partitioner = grouped.partitioner.clone();
        grouped
            .flat_map(|(k, (vs, ws))| {
                if ws.is_empty() {
                    vs.into_iter().map(|v| (k.clone(), v)).collect()
                } else {
                    Vec::new()
                }
            })
            .with_partitioner(partitioner)
    }

    /// Collects every value stored under `key` (Spark `lookup`). Runs a
    /// full job; for repeated lookups collect into a map instead.
    pub fn lookup(&self, key: &K) -> Vec<V> {
        let key = key.clone();
        self.filter(move |(k, _)| *k == key)
            .collect()
            .into_iter()
            .map(|(_, v)| v)
            .collect()
    }

    /// Counts records per key on the driver.
    pub fn count_by_key(&self) -> std::collections::BTreeMap<K, u64>
    where
        K: Ord,
    {
        let mut out = std::collections::BTreeMap::new();
        for (k, _) in self.collect() {
            *out.entry(k).or_insert(0) += 1;
        }
        out
    }

    /// Fully general combiner shuffle (Spark `combineByKey`): lifts each
    /// value into a combiner `C`, merging map-side when
    /// `map_side_combine` is set and always merging reduce-side.
    pub fn combine_by_key<C: Data + EstimateSize>(
        &self,
        partitions: usize,
        map_side_combine: bool,
        create: impl Fn(V) -> C + Send + Sync + 'static,
        merge_value: impl Fn(C, V) -> C + Send + Sync + 'static,
        merge_combiners: impl Fn(C, C) -> C + Send + Sync + 'static,
    ) -> Rdd<(K, C)> {
        let agg = Aggregator {
            create: Arc::new(create),
            merge_value: Arc::new(merge_value),
            merge_combiners: Arc::new(merge_combiners),
        };
        let partitioner: Arc<dyn KeyPartitioner<K>> = Arc::new(HashPartitioner::new(partitions));
        let dep = Arc::new(ShuffleDep::new(
            &self.cluster,
            "combine_by_key",
            self.node.clone(),
            partitioner.clone(),
            agg,
            map_side_combine,
        ));
        Rdd::from_node(
            self.cluster.clone(),
            Arc::new(ShuffledRdd {
                id: next_node_id(),
                name: "combine_by_key".into(),
                dep,
                reduce_side_combine: true,
            }),
        )
        .with_partitioner(Some(PartitionerRef::of(partitioner)))
    }

    /// Folds each key's values into `zero` (Spark `aggregateByKey`).
    pub fn aggregate_by_key<U: Data + EstimateSize>(
        &self,
        zero: U,
        seq: impl Fn(U, V) -> U + Send + Sync + 'static,
        comb: impl Fn(U, U) -> U + Send + Sync + 'static,
    ) -> Rdd<(K, U)> {
        let partitions = self.default_partitions();
        let z = zero.clone();
        let seq = Arc::new(seq);
        let seq2 = seq.clone();
        self.combine_by_key(
            partitions,
            false,
            move |v| seq(z.clone(), v),
            move |c, v| seq2(c, v),
            comb,
        )
    }

    /// Repartitions with an explicit range partitioner; partition `i`
    /// receives a contiguous key range.
    pub fn partition_by_range(&self, partitioner: RangePartitioner<K>) -> Rdd<(K, V)>
    where
        K: Ord,
    {
        let partitioner: Arc<dyn KeyPartitioner<K>> = Arc::new(partitioner);
        let dep = Arc::new(ShuffleDep::new(
            &self.cluster,
            "partition_by_range",
            self.node.clone(),
            partitioner.clone(),
            Aggregator::identity(),
            false,
        ));
        Rdd::from_node(
            self.cluster.clone(),
            Arc::new(ShuffledRdd {
                id: next_node_id(),
                name: "partition_by_range".into(),
                dep,
                reduce_side_combine: false,
            }),
        )
        .with_partitioner(Some(PartitionerRef::of(partitioner)))
    }

    /// Globally sorts by key (Spark `sortByKey`): samples keys to derive
    /// range boundaries (one extra job, as in Spark), range-partitions,
    /// and sorts each partition locally. `collect()` then yields records
    /// in ascending key order.
    ///
    /// ```
    /// use cstf_dataflow::{Cluster, ClusterConfig};
    ///
    /// let c = Cluster::new(ClusterConfig::local(2));
    /// let data: Vec<(u32, ())> = (0..100u32).rev().map(|k| (k, ())).collect();
    /// let sorted = c.parallelize(data, 4).sort_by_key(3).keys().collect();
    /// assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    /// ```
    pub fn sort_by_key(&self, partitions: usize) -> Rdd<(K, V)>
    where
        K: Ord,
    {
        // Systematic per-partition sampling: ≈ 20 keys per output
        // partition, deterministic.
        let target = (20 * partitions).max(1);
        let num_parts = self.num_partitions().max(1);
        let per_part = (target / num_parts).max(1);
        let sample: Vec<K> = self
            .map_partitions(move |_, data| {
                let step = (data.len() / per_part).max(1);
                data.into_iter().step_by(step).map(|(k, _)| k).collect()
            })
            .collect();
        let partitioner = RangePartitioner::from_sample(sample, partitions);
        let ranged = self.partition_by_range(partitioner);
        let range_ref = ranged.partitioner.clone();
        ranged
            .map_partitions(|_, mut data| {
                data.sort_by(|a, b| a.0.cmp(&b.0));
                data
            })
            .with_partitioner(range_ref)
    }
}
