//! Key-value (pair) RDD operations: the wide transformations.
//!
//! These are the operations whose shuffle behaviour the paper analyses
//! (Table 2 workflows, Table 4 costs): `join`, `reduceByKey`,
//! `groupByKey`, `partitionBy`. Every wide operation creates a
//! [`ShuffleDep`]; the scheduler materializes it as a shuffle-map stage and
//! reducers fetch buckets with remote/local byte attribution.
//!
//! **One core.** Every public operator here is a thin default over three
//! private constructors — `wide` (the combining operators: `reduce_by_key*`,
//! `group_by_key*`, `combine_by_key`, `aggregate_by_key`), `repartition`
//! (`partition_by*`) and `co_side` (the two inputs of `cogroup*`, which
//! every join flattens) — and every per-key fold, map-side, reduce-side or
//! shuffle-free, hash or sorted-runs, is one of the two methods of the
//! private `Combiner`. A reduce partition is fetched in one place,
//! `ShuffleDep::read`.
//!
//! **Partitioner-aware scheduling.** Every wide operation records the
//! [`KeyPartitioner`] that produced its output on the resulting [`Rdd`],
//! and each of the three constructors compares its input's recorded
//! partitioner against the one it was asked to use: an input that already
//! matches is read through a narrow one-to-one dependency instead of a
//! fresh shuffle (Spark's `combineByKeyWithClassTag` and `CoGroupedRDD`
//! with matching partitioners). A fully co-partitioned join therefore
//! runs as a zero-shuffle narrow stage; each elided shuffle-map stage is
//! counted in [`crate::metrics::JobMetrics::skipped_shuffle_count`].
//!
//! By default `reduce_by_key` does **not** combine map-side. This matches
//! the paper's cost accounting (Table 4 charges the final `reduceByKey` a
//! full `nnz × R` of traffic); Spark's combining variant is available as
//! [`Rdd::reduce_by_key_map_side`].

use super::{next_node_id, Dependency, NodeInfo, Rdd, RddNode, ShuffleDependency};
use crate::context::{Cluster, TaskContext};
use crate::hash::FxHashMap;
use crate::kernel::{self, KernelOps, KernelPlan, KernelStrategy};
use crate::metrics::Counters;
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

/// How one wide operation folds records per key: the [`Aggregator`] plus,
/// when the caller opted into [`Rdd::reduce_by_key_kernel`], the
/// sorted-runs [`KernelPlan`] that replaces the hash fold (its callers
/// must tolerate sorted instead of hash-order key emission). These two
/// methods are the only per-key folds in the RDD layer.
struct Combiner<K, V, C> {
    agg: Aggregator<V, C>,
    kernel: Option<KernelPlan<K, C>>,
}

impl<K: Key, V: Data> Combiner<K, V, V> {
    /// Moves records without combining them (`partition_by`, `cogroup`).
    fn repartition() -> Self {
        Combiner {
            agg: Aggregator::identity(),
            kernel: None,
        }
    }
}

impl<K: Key, V: Data, C: Data> Combiner<K, V, C> {
    /// Folds owned values into one combiner per key — a map-side bucket,
    /// or a whole partition of a co-partitioned input. Per key, values
    /// fold in scan order on either arm; only the emit order differs
    /// (hash order, or ascending keys under the kernel).
    fn fold_values(&self, data: Vec<(K, V)>, ctx: &TaskContext<'_>) -> Vec<(K, C)> {
        let Some(plan) = &self.kernel else {
            return hash_fold(data, &*self.agg.create, &*self.agg.merge_value);
        };
        let created: Vec<(K, C)> = data
            .into_iter()
            .map(|(k, v)| (k, (self.agg.create)(v)))
            .collect();
        let (out, counters) = kernel::combine_owned(plan, created);
        ctx.stage.merge(&counters);
        out
    }

    /// Merges one reduce partition's fetched combiners, walking the
    /// buckets in map-partition order. Records are cloned straight out of
    /// the buckets — still shared (`Arc`) with the shuffle service — with
    /// no intermediate copy; the kernel clones only one accumulator per
    /// distinct key.
    fn merge_fetched(&self, buckets: &[Arc<Vec<(K, C)>>], ctx: &TaskContext<'_>) -> Vec<(K, C)> {
        let Some(plan) = &self.kernel else {
            let records = buckets.iter().flat_map(|b| b.iter().cloned());
            return hash_fold(records, |c| c, &*self.agg.merge_combiners);
        };
        let (out, counters) = kernel::combine_fetched(plan, buckets);
        ctx.stage.merge(&counters);
        out
    }
}

/// The record-at-a-time fold: the first record of a key seeds its
/// combiner with `create`, later ones `merge` into it in arrival order;
/// keys emit in hash order. `Option<C>` slots let the entry API merge in
/// place, so each record hashes exactly once instead of the
/// remove-then-insert double lookup.
fn hash_fold<K: Key, X, C>(
    records: impl IntoIterator<Item = (K, X)>,
    create: impl Fn(X) -> C,
    merge: impl Fn(C, X) -> C,
) -> Vec<(K, C)> {
    let mut merged: FxHashMap<K, Option<C>> = FxHashMap::default();
    for (k, x) in records {
        match merged.entry(k) {
            Entry::Occupied(mut slot) => {
                let prev = slot.get_mut().take().expect("combiner present");
                *slot.get_mut() = Some(merge(prev, x));
            }
            Entry::Vacant(slot) => {
                slot.insert(Some(create(x)));
            }
        }
    }
    merged
        .into_iter()
        .map(|(k, c)| (k, c.expect("combiner present")))
        .collect()
}

/// A shuffle boundary: repartitions `(K, V)` records from `parent` by key
/// into `partitioner.num_partitions()` buckets, optionally combining
/// map-side into combiners of type `C`.
pub struct ShuffleDep<K: Key, V: Data, C: Data> {
    shuffle_id: usize,
    name: String,
    parent: Arc<dyn RddNode<(K, V)>>,
    partitioner: Arc<dyn KeyPartitioner<K>>,
    combiner: Combiner<K, V, C>,
    map_side_combine: bool,
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
    /// A shuffle of `input` onto `partitioner`, staged as
    /// `shuffle-map(name)`.
    fn new(
        input: &Rdd<(K, V)>,
        name: &str,
        partitioner: Arc<dyn KeyPartitioner<K>>,
        combiner: Combiner<K, V, C>,
        map_side_combine: bool,
    ) -> Self {
        ShuffleDep {
            shuffle_id: input.cluster.next_shuffle_id(),
            name: name.into(),
            parent: input.node.clone(),
            partitioner,
            combiner,
            map_side_combine,
            service: input.cluster.shuffle_service_arc(),
        }
    }

    /// Scatters one map partition's records into per-reduce-partition
    /// vectors in scan order, lifting each value with `lift`.
    fn scatter<X>(&self, data: Vec<(K, V)>, lift: impl Fn(V) -> X) -> Vec<Vec<(K, X)>> {
        let num_reduce = self.partitioner.partition_count();
        let mut buckets: Vec<Vec<(K, X)>> = (0..num_reduce).map(|_| Vec::new()).collect();
        for (k, v) in data {
            let b = self.partitioner.partition_of(&k);
            buckets[b].push((k, lift(v)));
        }
        buckets
    }

    /// Buckets one map partition's records by reduce partition, combining
    /// each bucket map-side when configured, and counts the shuffle write.
    /// Runs inside a (retryable) executor task.
    fn bucket(&self, data: Vec<(K, V)>, ctx: &TaskContext<'_>) -> (Vec<Vec<(K, C)>>, Vec<u64>) {
        let buckets: Vec<Vec<(K, C)>> = if self.map_side_combine {
            self.scatter(data, |v| v)
                .into_iter()
                .map(|bucket| self.combiner.fold_values(bucket, ctx))
                .collect()
        } else {
            self.scatter(data, &*self.combiner.agg.create)
        };
        let bucket_bytes: Vec<u64> = buckets
            .iter()
            .map(|b| b.iter().map(|r| r.estimate_size() as u64).sum())
            .collect();
        ctx.stage.merge(&Counters {
            shuffle_write_records: buckets.iter().map(|b| b.len() as u64).sum(),
            shuffle_write_bytes: bucket_bytes.iter().sum(),
            ..Counters::default()
        });
        (buckets, bucket_bytes)
    }

    /// Reads one reduce partition: fetches its buckets — still shared
    /// with the shuffle service, in map-partition order — attributing
    /// bytes to remote/local reads based on simulated node placement, then
    /// merges them per key when `combine`, or copies the records out in
    /// bucket order.
    fn read(&self, reduce_partition: usize, combine: bool, ctx: &TaskContext<'_>) -> Vec<(K, C)> {
        let fetched = ctx
            .cluster
            .shuffle_service()
            .read::<(K, C)>(self.shuffle_id, reduce_partition);
        let config = ctx.cluster.config();
        let my_node = config.node_of(reduce_partition);
        let mut read = Counters::default();
        let mut buckets = Vec::with_capacity(fetched.len());
        for bucket in fetched {
            if config.node_of(bucket.map_partition) == my_node {
                read.local_bytes_read += bucket.bytes;
            } else {
                read.remote_bytes_read += bucket.bytes;
            }
            read.shuffle_read_records += bucket.records.len() as u64;
            buckets.push(bucket.records);
        }
        ctx.stage.merge(&read);
        if combine {
            return self.combiner.merge_fetched(&buckets, ctx);
        }
        let mut out = Vec::with_capacity(read.shuffle_read_records as usize);
        for bucket in &buckets {
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
            commit: Box::new(move |map_partition, out| {
                let (buckets, bucket_bytes) = *out
                    .downcast::<(Vec<Vec<(K, C)>>, Vec<u64>)>()
                    .expect("shuffle map output downcast");
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
        &self.dep.name
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
        let out = self.dep.read(partition, self.reduce_side_combine, ctx);
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
            CoSide::Shuffled(dep) => dep.read(partition, false, ctx),
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

    /// Skips the shuffle `name` would run onto `partitioner` when this
    /// RDD's recorded partitioner already matches it: counts the
    /// skipped-shuffle event and returns `true`; otherwise does nothing.
    fn skip_shuffle(&self, name: &str, partitioner: &dyn KeyPartitioner<K>) -> bool {
        match self.partitioner.as_ref() {
            Some(p) if p.matches(&partitioner.signature()) => {
                assert_eq!(
                    self.num_partitions(),
                    partitioner.partition_count(),
                    "recorded partitioner disagrees with RDD partition count"
                );
                self.cluster.metrics().record_skipped_shuffle(name);
                true
            }
            _ => false,
        }
    }

    /// The one shuffle constructor: a [`ShuffleDep`] named `name` read by
    /// a [`ShuffledRdd`] that records `partitioner` as its provenance.
    fn shuffled<C: Data + EstimateSize>(
        &self,
        name: &str,
        partitioner: Arc<dyn KeyPartitioner<K>>,
        combiner: Combiner<K, V, C>,
        map_side_combine: bool,
        reduce_side_combine: bool,
    ) -> Rdd<(K, C)> {
        let dep = ShuffleDep::new(self, name, partitioner.clone(), combiner, map_side_combine);
        self.derive(ShuffledRdd {
            id: next_node_id(),
            dep: Arc::new(dep),
            reduce_side_combine,
        })
        .with_partitioner(Some(PartitionerRef::of(partitioner)))
    }

    /// Every combining wide operation (Spark's `combineByKeyWithClassTag`):
    /// one shuffle onto `partitioner`, merged reduce-side — unless the
    /// input already follows `partitioner`, in which case every key's
    /// records are co-located and each partition folds locally through a
    /// narrow one-to-one dependency, no shuffle at all.
    fn wide<C: Data + EstimateSize>(
        &self,
        name: &str,
        partitioner: Arc<dyn KeyPartitioner<K>>,
        combiner: Combiner<K, V, C>,
        map_side_combine: bool,
    ) -> Rdd<(K, C)> {
        if self.skip_shuffle(name, partitioner.as_ref()) {
            let fold = move |_, data, ctx: &TaskContext<'_>| combiner.fold_values(data, ctx);
            return self
                .narrow(format!("{name}(narrow)"), fold)
                .with_partitioner(Some(PartitionerRef::of(partitioner)));
        }
        self.shuffled(name, partitioner, combiner, map_side_combine, true)
    }

    /// Moves every record to the partition `partitioner` assigns its key,
    /// duplicates preserved. An input that already follows `partitioner`
    /// is returned as is — no node, no shuffle.
    fn repartition(&self, name: &str, partitioner: Arc<dyn KeyPartitioner<K>>) -> Rdd<(K, V)> {
        if self.skip_shuffle(name, partitioner.as_ref()) {
            return self.clone();
        }
        self.shuffled(name, partitioner, Combiner::repartition(), false, false)
    }

    /// This RDD as one input side of a cogroup on `partitioner`: read
    /// narrowly when it already follows it, through a shuffle otherwise.
    fn co_side(&self, name: &str, partitioner: &Arc<dyn KeyPartitioner<K>>) -> CoSide<K, V> {
        if self.skip_shuffle(name, partitioner.as_ref()) {
            return CoSide::Narrow(self.node.clone());
        }
        CoSide::Shuffled(Arc::new(ShuffleDep::new(
            self,
            name,
            partitioner.clone(),
            Combiner::repartition(),
            false,
        )))
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
        let agg = Aggregator::from_reduce(f);
        let combiner = Combiner { agg, kernel: None };
        self.wide(
            "reduce_by_key",
            hashed(partitions),
            combiner,
            map_side_combine,
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
        let agg = Aggregator::from_reduce(f);
        let kernel = (strategy == KernelStrategy::SortedRuns).then(|| KernelPlan::new(ops));
        let combiner = Combiner { agg, kernel };
        self.wide(
            "reduce_by_key",
            hashed(partitions),
            combiner,
            map_side_combine,
        )
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
        let combiner = Combiner { agg, kernel: None };
        self.wide("group_by_key", hashed(partitions), combiner, false)
    }

    /// Repartitions by key, preserving duplicate records (Spark
    /// `partitionBy`). A no-op (and zero shuffles) when the RDD is already
    /// hash-partitioned into `partitions` buckets.
    pub fn partition_by(&self, partitions: usize) -> Rdd<(K, V)> {
        self.repartition("partition_by", hashed(partitions))
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
        self.cogroup_by(other, hashed(partitions))
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
        self.derive(CoGroupedRdd {
            id: next_node_id(),
            left: self.co_side("cogroup-left", &partitioner),
            right: other.co_side("cogroup-right", &partitioner),
            partitions: partitioner.partition_count(),
        })
        .with_partitioner(Some(PartitionerRef::of(partitioner)))
    }

    /// `cogroup`, then `emit` expands each key's two value lists into
    /// output records under the same key — so the cogroup's partitioner
    /// still holds. Every join is this with its own `emit`.
    fn cogroup_then<W: Data + EstimateSize, U: Data>(
        &self,
        other: &Rdd<(K, W)>,
        partitioner: Arc<dyn KeyPartitioner<K>>,
        emit: impl Fn(K, Vec<V>, Vec<W>) -> Vec<(K, U)> + Send + Sync + 'static,
    ) -> Rdd<(K, U)> {
        let grouped = self.cogroup_by(other, partitioner);
        let partitioner = grouped.partitioner.clone();
        grouped
            .flat_map(move |(k, (vs, ws))| emit(k, vs, ws))
            .with_partitioner(partitioner)
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
        self.join_by(other, hashed(partitions))
    }

    /// `join` with an explicit partitioner; co-partitioned sides skip
    /// their shuffle (see [`Rdd::cogroup_by`]). A key with a single value
    /// on one side — the MTTKRP case, one factor row per index — *moves*
    /// every value of the other side into its pair instead of cloning it;
    /// only many-to-many keys pay the full cross product of clones.
    pub fn join_by<W: Data + EstimateSize>(
        &self,
        other: &Rdd<(K, W)>,
        partitioner: Arc<dyn KeyPartitioner<K>>,
    ) -> Rdd<(K, (V, W))> {
        self.cogroup_then(other, partitioner, |k, mut vs, mut ws| {
            if ws.len() == 1 {
                let w = ws.pop().expect("len checked");
                spread(&k, vs, w, |v, w| (v, w))
            } else if vs.len() == 1 {
                let v = vs.pop().expect("len checked");
                spread(&k, ws, v, |w, v| (v, w))
            } else {
                cross(&k, &vs, &ws)
            }
        })
    }

    /// Left outer join: every left record appears; the right side is
    /// `None` when the key is absent there.
    pub fn left_outer_join<W: Data + EstimateSize>(
        &self,
        other: &Rdd<(K, W)>,
    ) -> Rdd<(K, (V, Option<W>))> {
        let partitioner = hashed(self.default_partitions());
        self.cogroup_then(other, partitioner, |k, vs, ws| cross(&k, &vs, &or_none(ws)))
    }

    /// Full outer join: keys from either side appear, with `None` filling
    /// the absent side.
    pub fn full_outer_join<W: Data + EstimateSize>(
        &self,
        other: &Rdd<(K, W)>,
    ) -> Rdd<FullOuterJoined<K, V, W>> {
        let partitioner = hashed(self.default_partitions());
        self.cogroup_then(other, partitioner, |k, vs, ws| {
            cross(&k, &or_none(vs), &or_none(ws))
        })
    }

    /// Removes every record whose key appears in `other` (Spark
    /// `subtractByKey`).
    pub fn subtract_by_key<W: Data + EstimateSize>(&self, other: &Rdd<(K, W)>) -> Rdd<(K, V)> {
        let partitioner = hashed(self.default_partitions());
        self.cogroup_then(other, partitioner, |k, vs, ws: Vec<W>| {
            if ws.is_empty() {
                vs.into_iter().map(|v| (k.clone(), v)).collect()
            } else {
                Vec::new()
            }
        })
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
        let combiner = Combiner { agg, kernel: None };
        self.wide(
            "combine_by_key",
            hashed(partitions),
            combiner,
            map_side_combine,
        )
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
        self.repartition("partition_by_range", Arc::new(partitioner))
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

/// The hash partitioner every `*_with(partitions)` default resolves to.
fn hashed<K: Key>(partitions: usize) -> Arc<dyn KeyPartitioner<K>> {
    Arc::new(HashPartitioner::new(partitions))
}

/// Every `(left, right)` pair under `k`, left-major — the per-key body of
/// the joins.
fn cross<K: Clone, A: Clone, B: Clone>(k: &K, left: &[A], right: &[B]) -> Vec<(K, (A, B))> {
    let mut out = Vec::with_capacity(left.len() * right.len());
    for a in left {
        for b in right {
            out.push((k.clone(), (a.clone(), b.clone())));
        }
    }
    out
}

/// [`cross`] when one side holds the single value `one`: each value of
/// `many` moves into its pair, in order (so the emit order is `cross`'s),
/// and `one` is cloned for every pair but the last, which takes it.
fn spread<K: Clone, M, S: Clone, P>(
    k: &K,
    many: Vec<M>,
    one: S,
    pair: impl Fn(M, S) -> P,
) -> Vec<(K, P)> {
    let mut out = Vec::with_capacity(many.len());
    let mut many = many.into_iter().peekable();
    while let Some(m) = many.next() {
        if many.peek().is_none() {
            out.push((k.clone(), pair(m, one)));
            break;
        }
        out.push((k.clone(), pair(m, one.clone())));
    }
    out
}

/// An outer join's view of one side: its values, or a single `None` when
/// the key is absent there.
fn or_none<T>(side: Vec<T>) -> Vec<Option<T>> {
    if side.is_empty() {
        return vec![None];
    }
    side.into_iter().map(Some).collect()
}
