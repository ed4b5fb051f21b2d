//! Key-value (pair) RDD operations: the wide transformations.
//!
//! These are the operations whose shuffle behaviour the paper analyses
//! (Table 2 workflows, Table 4 costs): `join`, `reduceByKey`, `cogroup`,
//! `partitionBy`. Every wide operation creates a [`ShuffleDep`]; the
//! scheduler materializes it as a shuffle-map stage and reducers fetch
//! buckets with remote/local byte attribution.
//!
//! **One core.** Every public operator here is a thin default over three
//! private constructors — `wide` (the combining operators,
//! `reduce_by_key*`), `repartition` (`partition_by*`) and `co_side` (the
//! two inputs of `cogroup*` and `join*`). Every per-key grouping —
//! map-side, reduce-side or shuffle-free combines, a cogroup, a join's
//! right side — runs one indexed fold, [`fold`]: a map from key to slot
//! index beside one flat output in first-arrival order. No keyed
//! operator's output order comes from hash-map iteration. A reduce that
//! supplies an in-place merge ([`Rdd::reduce_by_key_kernel`]) merges
//! fetched records by reference, straight out of the shared shuffle
//! buckets. A join is a hash join: it folds its right side, then streams
//! its left side in read order, cloning each record out of the shared
//! shuffle buckets as it goes. A reduce partition is fetched in one
//! place, `ShuffleDep::fetch`.
//!
//! **Partitioner-aware scheduling.** Every wide operation places keys with
//! a [`HashPartitioner`] over its partition count and records it on the
//! resulting [`Rdd`], and each of the three constructors compares its
//! input's recorded partitioner against the one it was asked to use: an
//! input that already matches — same partition count — is read through a
//! narrow one-to-one dependency instead of a fresh shuffle (Spark's
//! `combineByKeyWithClassTag` and `CoGroupedRDD` with matching
//! partitioners). A fully co-partitioned join therefore
//! runs as a zero-shuffle narrow stage; each elided shuffle-map stage is
//! counted in [`crate::metrics::JobMetrics::skipped_shuffle_count`].
//!
//! By default `reduce_by_key` does **not** combine map-side. This matches
//! the paper's cost accounting (Table 4 charges the final `reduceByKey` a
//! full `nnz × R` of traffic); Spark's combining variant is
//! [`Rdd::reduce_by_key_with`] with `map_side_combine` set.

use super::{next_node_id, Dependency, NodeInfo, Rdd, RddNode, ShuffleDependency};
use crate::context::{Cluster, TaskContext};
use crate::hash::fold;
use crate::kernel::{KernelOps, KernelStrategy, MergeFn};
use crate::metrics::Counters;
use crate::partitioner::HashPartitioner;
use crate::size::EstimateSize;
use crate::{Data, Key};
use std::sync::Arc;

/// Element type produced by [`Rdd::cogroup`]: per distinct key, all values
/// from the left side and all values from the right side.
pub(crate) type CoGrouped<K, V, W> = (K, (Vec<V>, Vec<W>));

/// How one wide operation merges the values of a key (the function of
/// Spark's `reduceByKey`), plus, when the caller supplied one through
/// [`Rdd::reduce_by_key_kernel`], the in-place merge that lets fetched
/// values merge by reference. `fold_values` and `merge_fetched` are the
/// reduce side's callers of [`fold`], the engine's one per-key grouping.
struct Combiner<V> {
    /// Merges a later value of a key into the earlier ones' result.
    merge: Box<dyn Fn(V, V) -> V + Send + Sync>,
    /// Merges a fetched value into another in place, by reference.
    merge_in_place: Option<MergeFn<V>>,
}

impl<V: Data> Combiner<V> {
    /// `reduceByKey`'s combiner.
    fn reduce(
        f: impl Fn(V, V) -> V + Send + Sync + 'static,
        merge_in_place: Option<MergeFn<V>>,
    ) -> Self {
        Combiner {
            merge: Box::new(f),
            merge_in_place,
        }
    }

    /// Moves records without combining them (`partition_by`, `cogroup`).
    fn repartition() -> Self {
        Combiner::reduce(|_, b| b, None)
    }

    /// Folds owned values into one value per key — a map-side bucket, or
    /// a whole partition of a co-partitioned input.
    fn fold_values<K: Key>(&self, data: Vec<(K, V)>, ctx: &TaskContext<'_>) -> Vec<(K, V)> {
        let records = data.len();
        let out = fold_by_value(data, &self.merge);
        self.count_combine(records, out.len(), ctx);
        out
    }

    /// Merges one reduce partition's fetched values, walking the buckets
    /// — still shared (`Arc`) with the shuffle service — in map-partition
    /// order. With an in-place merge, records merge by reference and only
    /// the first of each key is cloned; without one, each record is cloned
    /// out and merged by value.
    fn merge_fetched<K: Key>(
        &self,
        buckets: &[Arc<Vec<(K, V)>>],
        ctx: &TaskContext<'_>,
    ) -> Vec<(K, V)> {
        let records = buckets.iter().flat_map(|b| b.iter());
        let Some(merge_in_place) = &self.merge_in_place else {
            return fold_by_value(records.cloned(), &self.merge);
        };
        let by_ref = records.map(|(k, v)| (k.clone(), v));
        let (_, out) = fold(by_ref, V::clone, &**merge_in_place);
        let total = buckets.iter().map(|b| b.len()).sum();
        self.count_combine(total, out.len(), ctx);
        out
    }

    /// Counts a combine of a reduce that supplied an in-place merge in the
    /// `kernel_*` counters: one run per distinct key, and the combine's
    /// record count for the largest-combine maximum.
    fn count_combine(&self, records: usize, keys: usize, ctx: &TaskContext<'_>) {
        if self.merge_in_place.is_some() {
            ctx.stage.merge(&Counters {
                kernel_runs: keys as u64,
                kernel_max_subtask_records: records as u64,
                ..Counters::default()
            });
        }
    }
}

/// [`fold`] with a by-value merge: `Option` slots let each merge take its
/// key's value out and put the result back.
fn fold_by_value<K: Key, V>(
    records: impl IntoIterator<Item = (K, V)>,
    merge: impl Fn(V, V) -> V,
) -> Vec<(K, V)> {
    let (_, slots) = fold(records, Some, |slot, v| {
        *slot = Some(merge(slot.take().expect("value present"), v))
    });
    slots
        .into_iter()
        .map(|(k, v)| (k, v.expect("value present")))
        .collect()
}

/// A shuffle boundary: repartitions `(K, V)` records from `parent` by key
/// into `partitioner.num_partitions()` buckets, optionally combining them
/// map-side.
pub(crate) struct ShuffleDep<K: Key, V: Data> {
    shuffle_id: usize,
    name: String,
    parent: Arc<dyn RddNode<(K, V)>>,
    partitioner: HashPartitioner,
    combiner: Combiner<V>,
    map_side_combine: bool,
    /// Cleanup handle: when the last reference to this dependency drops
    /// (its RDDs went out of scope), the shuffle's stored data is freed —
    /// the engine's ContextCleaner. Lineage that still needs the data
    /// keeps the dependency alive by construction.
    service: std::sync::Arc<crate::shuffle::ShuffleService>,
}

impl<K: Key, V: Data> Drop for ShuffleDep<K, V> {
    fn drop(&mut self) {
        self.service.remove(self.shuffle_id);
    }
}

impl<K, V> ShuffleDep<K, V>
where
    K: Key + EstimateSize,
    V: Data + EstimateSize,
{
    /// A shuffle of `input` onto `partitioner`, staged as
    /// `shuffle-map(name)`.
    fn new(
        input: &Rdd<(K, V)>,
        name: &str,
        partitioner: HashPartitioner,
        combiner: Combiner<V>,
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
    /// vectors in scan order. Each bucket is counted first and allocated
    /// at its final size, so no vector outgrows its buffer and leaves the
    /// smaller ones behind.
    fn scatter(&self, data: Vec<(K, V)>) -> Vec<Vec<(K, V)>> {
        let targets: Vec<usize> = data
            .iter()
            .map(|(k, _)| self.partitioner.partition(k))
            .collect();
        let mut sizes = vec![0; self.partitioner.num_partitions()];
        for &b in &targets {
            sizes[b] += 1;
        }
        let mut buckets: Vec<Vec<(K, V)>> = sizes.into_iter().map(Vec::with_capacity).collect();
        for (record, b) in data.into_iter().zip(targets) {
            buckets[b].push(record);
        }
        buckets
    }

    /// Buckets one map partition's records by reduce partition, combining
    /// each bucket map-side when configured, and counts the shuffle write.
    /// Runs inside a (retryable) executor task.
    fn bucket(&self, data: Vec<(K, V)>, ctx: &TaskContext<'_>) -> (Vec<Vec<(K, V)>>, Vec<u64>) {
        let mut buckets = self.scatter(data);
        if self.map_side_combine {
            buckets = buckets
                .into_iter()
                .map(|bucket| self.combiner.fold_values(bucket, ctx))
                .collect();
        }
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

    /// Fetches one reduce partition's buckets — still shared with the
    /// shuffle service, in map-partition order — attributing bytes to
    /// remote/local reads based on simulated node placement.
    fn fetch(&self, reduce_partition: usize, ctx: &TaskContext<'_>) -> Vec<Arc<Vec<(K, V)>>> {
        let fetched = ctx
            .cluster
            .shuffle_service()
            .read::<(K, V)>(self.shuffle_id, reduce_partition);
        let config = ctx.cluster.config();
        let my_node = config.node_of(reduce_partition);
        let mut read = Counters::default();
        let mut buckets = Vec::with_capacity(fetched.len());
        for (map_partition, (records, bytes)) in fetched.into_iter().enumerate() {
            if config.node_of(map_partition) == my_node {
                read.local_bytes_read += bytes;
            } else {
                read.remote_bytes_read += bytes;
            }
            read.shuffle_read_records += records.len() as u64;
            buckets.push(records);
        }
        ctx.stage.merge(&read);
        buckets
    }

    /// Reads one reduce partition: its fetched buckets merged per key when
    /// `combine`, or their records copied out in bucket order.
    fn read(&self, reduce_partition: usize, combine: bool, ctx: &TaskContext<'_>) -> Vec<(K, V)> {
        let buckets = self.fetch(reduce_partition, ctx);
        if combine {
            return self.combiner.merge_fetched(&buckets, ctx);
        }
        let mut out = Vec::with_capacity(buckets.iter().map(|b| b.len()).sum());
        for bucket in &buckets {
            out.extend(bucket.iter().cloned());
        }
        out
    }
}

impl<K, V> ShuffleDependency for ShuffleDep<K, V>
where
    K: Key + EstimateSize,
    V: Data + EstimateSize,
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
            self.partitioner.num_partitions(),
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
                    .downcast::<(Vec<Vec<(K, V)>>, Vec<u64>)>()
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
/// the values of each key.
pub(crate) struct ShuffledRdd<K: Key, V: Data> {
    id: usize,
    dep: Arc<ShuffleDep<K, V>>,
    reduce_side_combine: bool,
}

impl<K, V> NodeInfo for ShuffledRdd<K, V>
where
    K: Key + EstimateSize,
    V: Data + EstimateSize,
{
    fn id(&self) -> usize {
        self.id
    }
    fn name(&self) -> &str {
        &self.dep.name
    }
    fn num_partitions(&self) -> usize {
        self.dep.partitioner.num_partitions()
    }
    fn deps(&self) -> Vec<Dependency> {
        vec![Dependency::Shuffle(self.dep.clone())]
    }
}

impl<K, V> RddNode<(K, V)> for ShuffledRdd<K, V>
where
    K: Key + EstimateSize,
    V: Data + EstimateSize,
{
    fn compute(&self, partition: usize, ctx: &TaskContext<'_>) -> Vec<(K, V)> {
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
    Shuffled(Arc<ShuffleDep<K, V>>),
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

    /// The record count of `partition` and its records in read order. A
    /// narrow side computes the partition; a shuffled side fetches its
    /// buckets and clones each record out only as it is consumed, so no
    /// copy of the whole partition is held.
    fn read(
        &self,
        partition: usize,
        ctx: &TaskContext<'_>,
    ) -> (usize, impl Iterator<Item = (K, V)>) {
        let (computed, fetched) = match self {
            CoSide::Narrow(parent) => (parent.compute(partition, ctx), Vec::new()),
            CoSide::Shuffled(dep) => (Vec::new(), dep.fetch(partition, ctx)),
        };
        let records = computed.len() + fetched.iter().map(|b| b.len()).sum::<usize>();
        let shared = fetched
            .into_iter()
            .flat_map(|bucket| (0..bucket.len()).map(move |i| bucket[i].clone()));
        (records, computed.into_iter().chain(shared))
    }
}

/// Co-grouping of two pair RDDs on a shared partitioner: partition `p`
/// holds, for every key hashing to `p`, the values from both sides. A
/// side whose input is already co-partitioned is a narrow dependency
/// (Spark's `CoGroupedRDD` with a matching partitioner).
pub(crate) struct CoGroupedRdd<K: Key, V: Data, W: Data> {
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
    /// Folds both sides of `partition`, left first, into one group per
    /// key: keys in first-arrival order, each side's values in read order.
    fn compute(&self, partition: usize, ctx: &TaskContext<'_>) -> Vec<(K, (Vec<V>, Vec<W>))> {
        // `Ok` carries a left value, `Err` a right one.
        let (_, left) = self.left.read(partition, ctx);
        let (_, right) = self.right.read(partition, ctx);
        let sides = left
            .map(|(k, v)| (k, Ok(v)))
            .chain(right.map(|(k, w)| (k, Err(w))));
        let add = |(vs, ws): &mut (Vec<V>, Vec<W>), x| match x {
            Ok(v) => vs.push(v),
            Err(w) => ws.push(w),
        };
        let seed = |x| {
            let mut group = (Vec::new(), Vec::new());
            add(&mut group, x);
            group
        };
        let (_, out) = fold(sides, seed, add);
        ctx.stage.add_records_computed(out.len() as u64);
        out
    }
}

/// Inner join of two pair RDDs in one node, as a hash join: [`fold`]s the
/// right side into per-key value lists, then streams the left side in
/// read order, writing each left value's pairs with its key's right
/// values, in right read order. The left value moves into its last pair;
/// each right value is cloned once per pair.
pub(crate) struct JoinedRdd<K: Key, V: Data, W: Data>(CoGroupedRdd<K, V, W>);

impl<K, V, W> NodeInfo for JoinedRdd<K, V, W>
where
    K: Key + EstimateSize,
    V: Data + EstimateSize,
    W: Data + EstimateSize,
{
    fn id(&self) -> usize {
        self.0.id
    }
    /// `flat_map`, the operator Spark's join flattens its cogroup with:
    /// a job over a join is named `collect(flat_map)` and so on, as the
    /// pinned job reports print it.
    fn name(&self) -> &str {
        "flat_map"
    }
    fn num_partitions(&self) -> usize {
        self.0.partitions
    }
    fn deps(&self) -> Vec<Dependency> {
        self.0.deps()
    }
}

impl<K, V, W> RddNode<(K, (V, W))> for JoinedRdd<K, V, W>
where
    K: Key + EstimateSize,
    V: Data + EstimateSize,
    W: Data + EstimateSize,
{
    fn compute(&self, partition: usize, ctx: &TaskContext<'_>) -> Vec<(K, (V, W))> {
        let (records, left) = self.0.left.read(partition, ctx);
        let (_, right) = self.0.right.read(partition, ctx);
        let (mut index, groups) = fold(right, |w| vec![w], Vec::push);
        let mut out = Vec::with_capacity(records);
        for (k, v) in left {
            let Some((_, ws)) = index.get(&k).and_then(|&i| groups.get(i)) else {
                // A key with no right value pairs with nothing, but
                // counts as one group below, however often it comes.
                index.insert(k, usize::MAX);
                continue;
            };
            let (last, rest) = ws.split_last().expect("a group holds a value");
            for w in rest {
                out.push((k.clone(), (v.clone(), w.clone())));
            }
            out.push((k, (v, last.clone())));
        }
        // A key of either side and a pair each count as one computed
        // record, as a cogroup's group and a flatten's output would.
        let keys = index.len();
        ctx.stage.add_records_computed((keys + out.len()) as u64);
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
        self.map(move |(k, v)| (k, f(v)))
            .with_partitioner(self.partitioner)
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

    /// Skips the shuffle `name` would run onto `partitioner` when this
    /// RDD's recorded partitioner already matches it: counts the
    /// skipped-shuffle event and returns `true`; otherwise does nothing.
    fn skip_shuffle(&self, name: &str, partitioner: HashPartitioner) -> bool {
        if self.partitioner != Some(partitioner) {
            return false;
        }
        assert_eq!(
            self.num_partitions(),
            partitioner.num_partitions(),
            "recorded partitioner disagrees with RDD partition count"
        );
        self.cluster.metrics().record_skipped_shuffle(name);
        true
    }

    /// The one shuffle constructor: a [`ShuffleDep`] named `name` read by
    /// a [`ShuffledRdd`] that records `partitioner` as its provenance.
    fn shuffled(
        &self,
        name: &str,
        partitioner: HashPartitioner,
        combiner: Combiner<V>,
        map_side_combine: bool,
        reduce_side_combine: bool,
    ) -> Rdd<(K, V)> {
        let dep = ShuffleDep::new(self, name, partitioner, combiner, map_side_combine);
        self.derive(ShuffledRdd {
            id: next_node_id(),
            dep: Arc::new(dep),
            reduce_side_combine,
        })
        .with_partitioner(Some(partitioner))
    }

    /// Every combining wide operation (Spark's `combineByKeyWithClassTag`):
    /// one shuffle onto `partitioner`, merged reduce-side — unless the
    /// input already follows `partitioner`, in which case every key's
    /// records are co-located and each partition folds locally through a
    /// narrow one-to-one dependency, no shuffle at all.
    fn wide(
        &self,
        name: &str,
        partitioner: HashPartitioner,
        combiner: Combiner<V>,
        map_side_combine: bool,
    ) -> Rdd<(K, V)> {
        if self.skip_shuffle(name, partitioner) {
            let fold = move |_, data, ctx: &TaskContext<'_>| combiner.fold_values(data, ctx);
            return self
                .narrow(format!("{name}(narrow)"), fold)
                .with_partitioner(Some(partitioner));
        }
        self.shuffled(name, partitioner, combiner, map_side_combine, true)
    }

    /// Moves every record to the partition `partitioner` assigns its key,
    /// duplicates preserved. An input that already follows `partitioner`
    /// is returned as is — no node, no shuffle.
    fn repartition(&self, name: &str, partitioner: HashPartitioner) -> Rdd<(K, V)> {
        if self.skip_shuffle(name, partitioner) {
            return self.clone();
        }
        self.shuffled(name, partitioner, Combiner::repartition(), false, false)
    }

    /// This RDD as one input side of a cogroup on `partitioner`: read
    /// narrowly when it already follows it, through a shuffle otherwise.
    fn co_side(&self, name: &str, partitioner: HashPartitioner) -> CoSide<K, V> {
        if self.skip_shuffle(name, partitioner) {
            return CoSide::Narrow(self.node.clone());
        }
        CoSide::Shuffled(Arc::new(ShuffleDep::new(
            self,
            name,
            partitioner,
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
        let combiner = Combiner::reduce(f, None);
        self.wide(
            "reduce_by_key",
            HashPartitioner::new(partitions),
            combiner,
            map_side_combine,
        )
    }

    /// `reduceByKey` whose fetched combiners merge by reference through
    /// `ops`, out of the shared shuffle buckets: a reduce task clones one
    /// value per distinct key instead of one per record, and counts its
    /// combines in the `kernel_*` counters.
    ///
    /// `ops.merge_in_place` must perform exactly the operations of
    /// `f(acc, v)`, in the same order, so the result is bit-identical to
    /// [`Rdd::reduce_by_key_with`]'s, emitted in the same order. The
    /// [`KernelStrategy`] argument selects nothing; it, and this name, go
    /// with ROADMAP's benchmark-only item.
    pub fn reduce_by_key_kernel(
        &self,
        partitions: usize,
        map_side_combine: bool,
        _strategy: KernelStrategy,
        f: impl Fn(V, V) -> V + Send + Sync + 'static,
        ops: KernelOps<V>,
    ) -> Rdd<(K, V)> {
        let combiner = Combiner::reduce(f, Some(ops.merge_in_place));
        self.wide(
            "reduce_by_key",
            HashPartitioner::new(partitions),
            combiner,
            map_side_combine,
        )
    }

    /// Repartitions by key, preserving duplicate records (Spark
    /// `partitionBy`). A no-op (and zero shuffles) when the RDD is already
    /// hash-partitioned into `partitions` buckets.
    pub fn partition_by(&self, partitions: usize) -> Rdd<(K, V)> {
        self.repartition("partition_by", HashPartitioner::new(partitions))
    }

    /// Co-groups with `other`: one output record per distinct key, holding
    /// all values from each side.
    pub fn cogroup<W: Data + EstimateSize>(&self, other: &Rdd<(K, W)>) -> Rdd<CoGrouped<K, V, W>> {
        self.cogroup_with(other, self.default_partitions())
    }

    /// `cogroup` with explicit partition count. Each side that is already
    /// hash-partitioned into `partitions` buckets is read through a narrow
    /// one-to-one dependency — no shuffle-map stage, no shuffle bytes. Two
    /// co-partitioned inputs make this a zero-shuffle narrow stage.
    pub fn cogroup_with<W: Data + EstimateSize>(
        &self,
        other: &Rdd<(K, W)>,
        partitions: usize,
    ) -> Rdd<CoGrouped<K, V, W>> {
        let partitioner = HashPartitioner::new(partitions);
        self.derive(self.co_grouped(other, partitioner))
            .with_partitioner(Some(partitioner))
    }

    /// The grouping node of a cogroup or join with `other` on
    /// `partitioner`, one [`CoSide`] per input.
    fn co_grouped<W: Data + EstimateSize>(
        &self,
        other: &Rdd<(K, W)>,
        partitioner: HashPartitioner,
    ) -> CoGroupedRdd<K, V, W> {
        CoGroupedRdd {
            id: next_node_id(),
            left: self.co_side("cogroup-left", partitioner),
            right: other.co_side("cogroup-right", partitioner),
            partitions: partitioner.num_partitions(),
        }
    }

    /// Inner join (Spark `join`): emits `(k, (v, w))` for every pair of
    /// values sharing a key. Spark flattens a cogroup; here one node folds
    /// the right side per key and streams the left side against it, so
    /// each partition emits its left records in read order, each followed
    /// by its key's right values in theirs.
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

    /// `join` with explicit partition count; co-partitioned sides skip
    /// their shuffle (see [`Rdd::cogroup_with`]). Each left value *moves*
    /// into its last pair and is cloned for the others; each right value
    /// is cloned once per pair. Put the side with one value per key on
    /// the right — the MTTKRP case, one factor row per index — and every
    /// value of the many side moves.
    pub fn join_with<W: Data + EstimateSize>(
        &self,
        other: &Rdd<(K, W)>,
        partitions: usize,
    ) -> Rdd<(K, (V, W))> {
        let partitioner = HashPartitioner::new(partitions);
        // Every output record keeps its key, so the partitioner holds.
        self.derive(JoinedRdd(self.co_grouped(other, partitioner)))
            .with_partitioner(Some(partitioner))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::AttemptCounters;
    use crate::ClusterConfig;

    /// Runs `combine` in a fresh task with a summing combiner, merging by
    /// reference when `in_place`: its output bits and the task's counters.
    fn summed(
        in_place: bool,
        combine: impl FnOnce(&Combiner<f64>, &TaskContext<'_>) -> Vec<(u32, f64)>,
    ) -> (Vec<(u32, u64)>, Counters) {
        let merge: MergeFn<f64> = Box::new(|a: &mut f64, b: &f64| *a += b);
        let combiner = Combiner::reduce(|a: f64, b| a + b, in_place.then_some(merge));
        let (cluster, stage) = (Cluster::new(ClusterConfig::local(1)), Default::default());
        let out = combine(
            &combiner,
            &TaskContext {
                cluster: &cluster,
                stage: &stage,
            },
        );
        let bits = out.into_iter().map(|(k, v)| (k, v.to_bits())).collect();
        (bits, AttemptCounters::into_inner(stage))
    }

    #[test]
    fn within_key_accumulation_preserves_arrival_order() {
        // f64 addition is order-sensitive: 1.0 + 1e16 − 1e16 = 0.0 in
        // arrival order, −1e16 + 1e16 + 1.0 = 1.0 reversed. Every path of
        // the fold must replay arrival order exactly.
        let data = vec![(7u32, 1.0f64), (7, 1e16), (7, -1e16)];
        assert_ne!((-1e16f64 + 1e16 + 1.0).to_bits(), 0.0f64.to_bits());
        // Split across map buckets the way a shuffle would deliver them.
        let buckets = [Arc::new(data[..1].to_vec()), Arc::new(data[1..].to_vec())];
        for in_place in [true, false] {
            let (owned, c) = summed(in_place, |comb, ctx| comb.fold_values(data.clone(), ctx));
            let (fetched, d) = summed(in_place, |comb, ctx| comb.merge_fetched(&buckets, ctx));
            let zero = [(7, 0.0f64.to_bits())];
            assert_eq!((owned, fetched), (zero.to_vec(), zero.to_vec()));
            let counted = [c.kernel_runs, d.kernel_runs, d.kernel_max_subtask_records];
            assert_eq!(counted, [1, 1, 3].map(|n| n * u64::from(in_place)));
        }
    }
}
