//! The MTTKRP planner: the one entry point to every distributed MTTKRP
//! strategy, the paper's BIGtensor baseline included.
//!
//! [`plan`] builds the tensor datasets the [`Strategy`] can exploit, runs
//! any prologue, and returns a [`Plan`]; the driver then runs *any*
//! strategy through the same `plan.mttkrp(&factors, mode)` loop. Each
//! strategy also declares its analytic cost model
//! ([`Strategy::cost_algorithm`]) so the Table-4 accounting in
//! [`crate::cost`] stays wired to the code that implements it.
//!
//! The per-strategy pipelines behind a plan are private to the crate: one
//! function each for CSTF-COO and DFacTo-SpMV over a tensor already keyed
//! by the first join mode, one each for broadcast COO and BIGtensor over
//! the plain tensor, and the carried queue state of CSTF-QCOO. Every input
//! is checked here, once, before any of them runs: a bad input fails the
//! same way under every strategy.

use crate::bigtensor::mttkrp_bigtensor;
use crate::factors::{tensor_to_rdd, tensor_to_rdd_keyed};
use crate::mttkrp::{mttkrp_coo, mttkrp_coo_broadcast, Persisted};
use crate::qcoo::{self, QueueSteps};
use crate::records::CooRecord;
use crate::spmv::mttkrp_spmv;
use crate::{cost, CstfError, Result};
use cstf_dataflow::prelude::*;
use cstf_tensor::{CooTensor, DenseMatrix};

/// Which distributed MTTKRP pipeline CP-ALS uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// CSTF-COO: `N` shuffles per MTTKRP, minimal carried state.
    Coo,
    /// CSTF-QCOO: 2 shuffles per MTTKRP via queued factor rows.
    Qcoo,
    /// Broadcast-join COO (extension beyond the paper): factors are
    /// broadcast, only the final reduce shuffles — 1 shuffle per MTTKRP.
    CooBroadcast,
    /// DFacTo-style SpMV chain (*DFacTo: Distributed Factorization of
    /// Tensors*): MTTKRP as `N−1` sparse matrix–vector products over
    /// fiber-keyed rows — `2(N−1)` shuffles, of which only the first two
    /// move nnz-sized data; the rest are fiber-sized (`F ≤ nnz`).
    DfactoSpmv,
    /// BIGtensor's unfolding workflow, the paper's Hadoop baseline (§4.3,
    /// Table 2's left column): 4 tensor-sized shuffles per MTTKRP, for
    /// 3rd-order tensors only. It runs as Hadoop would, whatever the
    /// [`PlanConfig`] says: the tensor is never cached, the factor rows
    /// are never pre-partitioned, and every MTTKRP records its MapReduce
    /// job launches and HDFS traffic (priced by
    /// `cstf_model::TimeModel::hadoop`).
    BigTensor,
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Strategy::Coo => write!(f, "COO"),
            Strategy::Qcoo => write!(f, "QCOO"),
            Strategy::CooBroadcast => write!(f, "COO-broadcast"),
            Strategy::DfactoSpmv => write!(f, "DFacTo-SpMV"),
            Strategy::BigTensor => write!(f, "BIGtensor"),
        }
    }
}

impl std::str::FromStr for Strategy {
    type Err = CstfError;

    /// Parses the [`Display`](std::fmt::Display) form (case-insensitively)
    /// plus the short aliases the experiment binaries accept: `coo`,
    /// `qcoo`, `broadcast`, `spmv`, `dfacto`, `bigtensor`.
    fn from_str(s: &str) -> Result<Self> {
        match s.to_ascii_lowercase().as_str() {
            "coo" => Ok(Strategy::Coo),
            "qcoo" => Ok(Strategy::Qcoo),
            "broadcast" | "coo-broadcast" => Ok(Strategy::CooBroadcast),
            "spmv" | "dfacto" | "dfacto-spmv" => Ok(Strategy::DfactoSpmv),
            "bigtensor" => Ok(Strategy::BigTensor),
            other => Err(CstfError::Config(format!(
                "unknown strategy '{other}' (expected coo, qcoo, broadcast, spmv, or bigtensor)"
            ))),
        }
    }
}

/// How aggressively CP-ALS exploits partitioner provenance to skip
/// shuffles. Every level produces bit-identical factors; they differ only
/// in how many shuffle-map stages each MTTKRP spawns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partitioning {
    /// No partitioner awareness — every join shuffles both sides (the
    /// paper's Table 4 accounting; kept for ablations).
    None,
    /// Factor-row RDDs are emitted pre-hashed by the join partitioner, so
    /// the factor side of every join is narrow. Default.
    CoPartitionedFactors,
    /// Additionally keeps the tensor pre-partitioned by each first-join
    /// mode, making stage 1 of every MTTKRP fully narrow. Only COO and
    /// DFacTo-SpMV, whose pipelines start from a tensor keyed by the first
    /// join mode, have the hot path; others fall back to
    /// [`Partitioning::CoPartitionedFactors`].
    PrePartitionedTensor,
}

impl std::fmt::Display for Partitioning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Partitioning::None => write!(f, "none"),
            Partitioning::CoPartitionedFactors => write!(f, "co-partitioned-factors"),
            Partitioning::PrePartitionedTensor => write!(f, "pre-partitioned-tensor"),
        }
    }
}

impl std::str::FromStr for Partitioning {
    type Err = CstfError;

    /// Parses the [`Display`](std::fmt::Display) form (case-insensitively)
    /// plus the short aliases `co` and `pre`.
    fn from_str(s: &str) -> Result<Self> {
        match s.to_ascii_lowercase().as_str() {
            "none" => Ok(Partitioning::None),
            "co" | "co-partitioned-factors" => Ok(Partitioning::CoPartitionedFactors),
            "pre" | "pre-partitioned-tensor" => Ok(Partitioning::PrePartitionedTensor),
            other => Err(CstfError::Config(format!(
                "unknown partitioning '{other}' (expected none, co, or pre)"
            ))),
        }
    }
}

impl Strategy {
    /// The analytic cost model ([`crate::cost`]) for this strategy.
    /// `CooBroadcast` shares COO's flop/intermediate accounting (its
    /// shuffle structure is not in Table 4 — the engine-measured numbers
    /// in `ablation_strategies` cover it).
    pub fn cost_algorithm(self) -> cost::Algorithm {
        match self {
            Strategy::Coo | Strategy::CooBroadcast => cost::Algorithm::CstfCoo,
            Strategy::Qcoo => cost::Algorithm::CstfQcoo,
            Strategy::DfactoSpmv => cost::Algorithm::DfactoSpmv,
            Strategy::BigTensor => cost::Algorithm::BigTensor,
        }
    }
}

/// Cluster-independent configuration a plan is built from (the subset of
/// the [`crate::CpAls`] builder the pipelines care about).
#[derive(Debug, Clone, Copy)]
pub struct PlanConfig {
    /// Decomposition rank (needed by carried-state prologues).
    pub rank: usize,
    /// Shuffle partition count (already resolved against the cluster).
    pub partitions: usize,
    /// Partitioner-awareness level.
    pub partitioning: Partitioning,
    /// A one-value placeholder: every reduce runs the one fold. Kept only
    /// because `perf/` sets it; it goes with ROADMAP's benchmark-only item.
    pub kernel: KernelStrategy,
    /// Whether to persist (and eagerly materialize) the tensor datasets.
    pub cache_tensor: bool,
    /// Storage level for every persisted dataset.
    pub storage: StorageLevel,
}

/// The join order of every join-based strategy for output mode `n`: all
/// non-target modes, descending (for mode 1 of a 3rd-order tensor: mode 3
/// (`C`) then mode 2 (`B`) — exactly STAGE 1 and 2 of Table 2). CSTF-COO
/// keys the tensor by the first and reduces over a layout partitioned by
/// the last.
pub fn join_order(order: usize, mode: usize) -> Vec<usize> {
    (0..order).rev().filter(|&m| m != mode).collect()
}

/// The one input check: `factors` holds one `shape[m] × rank` matrix per
/// mode.
fn check(factors: &[DenseMatrix], shape: &[u32], rank: usize) -> Result<()> {
    if factors.len() != shape.len() {
        return Err(CstfError::Config(format!(
            "{} factors for an order-{} tensor",
            factors.len(),
            shape.len()
        )));
    }
    for (m, f) in factors.iter().enumerate() {
        if f.cols() != rank || f.rows() != shape[m] as usize {
            return Err(CstfError::Config(format!(
                "factor {m} is {}x{}, expected {}x{rank}",
                f.rows(),
                f.cols(),
                shape[m]
            )));
        }
    }
    Ok(())
}

/// A constructed per-run MTTKRP plan: owns the strategy's distributed
/// datasets (cached tensor copies, carried state) and produces one dense
/// MTTKRP result per call.
pub struct Plan {
    strategy: Strategy,
    cluster: Cluster,
    shape: Vec<u32>,
    config: PlanConfig,
    /// CSTF-QCOO's carried queue state, in the stripe storage its queue
    /// width picked (its prologue consumed the plain tensor RDD, held in
    /// `data` so `release` can unpersist it).
    qcoo: Option<Box<dyn QueueSteps>>,
    data: TensorData,
    /// The tensor's nonzero count, by which BIGtensor charges its HDFS
    /// traffic.
    nnz: usize,
}

impl Plan {
    /// The strategy this plan implements.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Computes the mode-`mode` MTTKRP with the current `factors` (one
    /// `Iₘ × rank` matrix per mode; anything else is a
    /// [`CstfError::Config`] under every strategy).
    ///
    /// QCOO carries state across calls and requires modes in cyclic order
    /// starting at 0; the stateless strategies accept any order.
    pub fn mttkrp(&mut self, factors: &[DenseMatrix], mode: usize) -> Result<DenseMatrix> {
        let (cluster, shape, config) = (&self.cluster, &self.shape[..], &self.config);
        if mode >= shape.len() {
            return Err(CstfError::Config(format!(
                "mode {mode} out of range for order {}",
                shape.len()
            )));
        }
        check(factors, shape, config.rank)?;
        if let Some(state) = &mut self.qcoo {
            if state.next_output_mode() != mode {
                return Err(CstfError::Config(format!(
                    "QCOO carries state across modes: requested mode {mode}, expected {}",
                    state.next_output_mode()
                )));
            }
            return Ok(state.step(cluster, factors, config));
        }
        let pipeline = match self.strategy {
            Strategy::CooBroadcast => {
                let tensor = self.data.plain();
                return Ok(mttkrp_coo_broadcast(
                    cluster, tensor, factors, shape, mode, config,
                ));
            }
            Strategy::BigTensor => {
                let tensor = self.data.plain();
                return Ok(mttkrp_bigtensor(
                    cluster, tensor, self.nnz, factors, shape, mode, config,
                ));
            }
            Strategy::DfactoSpmv => mttkrp_spmv,
            _ => mttkrp_coo,
        };
        let keyed = self.data.keyed(join_order(shape.len(), mode)[0]);
        Ok(pipeline(cluster, &keyed, factors, shape, mode, config))
    }

    /// Releases every dataset the plan persisted.
    pub fn release(&self) {
        if let Some(state) = &self.qcoo {
            state.release();
        }
        self.data.release();
    }
}

/// Builds the plan for `strategy`: checks the tensor order (3 for
/// BIGtensor, at least 2 otherwise) and `factors` (as [`Plan::mttkrp`]
/// does), distributes (and caches) the tensor in the layout the
/// strategy's pipeline reads, runs any prologue (QCOO's queue
/// initialization consumes `factors`), and returns the driver-facing plan
/// object.
pub fn plan(
    cluster: &Cluster,
    tensor: &CooTensor,
    strategy: Strategy,
    config: &PlanConfig,
    factors: &[DenseMatrix],
) -> Result<Plan> {
    let shape = tensor.shape().to_vec();
    if shape.len() < 2 {
        return Err(CstfError::Config(format!(
            "distributed MTTKRP needs an order ≥ 2 tensor, got {}",
            shape.len()
        )));
    }
    if strategy == Strategy::BigTensor && shape.len() != 3 {
        return Err(CstfError::Config(format!(
            "BIGtensor supports only 3rd-order tensors (got order {})",
            shape.len()
        )));
    }
    check(factors, &shape, config.rank)?;
    // Hadoop keeps nothing between BIGtensor's jobs, and its joins shuffle
    // both sides.
    let config = &match strategy {
        Strategy::BigTensor => PlanConfig {
            cache_tensor: false,
            partitioning: Partitioning::None,
            ..*config
        },
        _ => *config,
    };
    // Only COO and DFacTo-SpMV start from the tensor keyed by the first
    // join mode; QCOO keys its own queue and broadcast COO joins nothing.
    let use_pre = config.partitioning == Partitioning::PrePartitionedTensor
        && matches!(strategy, Strategy::Coo | Strategy::DfactoSpmv);
    let data = TensorData::build(cluster, tensor, config, use_pre);
    let qcoo =
        (strategy == Strategy::Qcoo).then(|| qcoo::start(cluster, data.plain(), factors, config));
    Ok(Plan {
        strategy,
        cluster: cluster.clone(),
        shape,
        config: *config,
        qcoo,
        data,
        nnz: tensor.nnz(),
    })
}

/// `rdd` persisted at the configured level and eagerly materialized, when
/// the plan caches its tensor datasets at all. The guard exists before the
/// materializing job runs, so an aborted job gives its blocks back too.
fn cached<T: Data + EstimateSize>(rdd: Rdd<T>, config: &PlanConfig) -> Persisted<T> {
    if !config.cache_tensor {
        return Persisted(rdd);
    }
    let rdd = Persisted(rdd.persist(config.storage));
    let _ = rdd.count();
    rdd
}

/// The distributed tensor datasets a plan owns: either the plain COO
/// record RDD, or (on the pre-partitioned path) one keyed copy per
/// first-join mode — `join_order` starts every mode's pipeline at
/// `order−1` except mode `order−1` itself, which starts at `order−2`.
/// Dropping it unpersists them, like [`TensorData::release`].
struct TensorData {
    plain: Option<Persisted<CooRecord>>,
    pre_keyed: Vec<(usize, Persisted<(u32, CooRecord)>)>,
}

impl TensorData {
    fn build(cluster: &Cluster, tensor: &CooTensor, config: &PlanConfig, use_pre: bool) -> Self {
        let order = tensor.order();
        if use_pre {
            let partitioner = HashPartitioner::new(config.partitions);
            let pre_keyed = [order - 1, order - 2]
                .into_iter()
                .map(|key_mode| {
                    let rdd = tensor_to_rdd_keyed(
                        cluster,
                        tensor,
                        key_mode,
                        config.partitions,
                        Some(partitioner),
                    );
                    (key_mode, cached(rdd, config))
                })
                .collect();
            TensorData {
                plain: None,
                pre_keyed,
            }
        } else {
            let rdd = tensor_to_rdd(cluster, tensor, config.partitions);
            TensorData {
                plain: Some(cached(rdd, config)),
                pre_keyed: Vec::new(),
            }
        }
    }

    fn plain(&self) -> &Rdd<CooRecord> {
        self.plain
            .as_ref()
            .expect("plan built without the plain tensor RDD")
    }

    /// The tensor keyed by `first` (the first join mode of COO and
    /// DFacTo-SpMV): the cached pre-keyed copy on the pre-partitioned path
    /// (where `first` is always `order−1` or `order−2`), else the plain
    /// RDD mapped to that key.
    fn keyed(&self, first: usize) -> Rdd<(u32, CooRecord)> {
        let cached = self
            .pre_keyed
            .iter()
            .find(|(key_mode, _)| *key_mode == first);
        match cached {
            Some((_, keyed)) => Rdd::clone(keyed),
            None => self.plain().map(move |rec| (rec.coord[first], rec)),
        }
    }

    fn release(&self) {
        if let Some(rdd) = &self.plain {
            rdd.unpersist();
        }
        for (_, rdd) in &self.pre_keyed {
            rdd.unpersist();
        }
    }
}

#[cfg(test)]
/// Fixtures the strategy test modules share (`planner`, `mttkrp`, `qcoo`,
/// `spmv`): every one drives its pipeline through [`plan`], the way CP-ALS
/// does.
pub(crate) mod testing {
    use super::*;
    use cstf_dataflow::ClusterConfig;
    use cstf_tensor::random::RandomTensor;
    use rand::{rngs::StdRng, SeedableRng};

    /// Every strategy; [`Strategy::BigTensor`] plans 3rd-order tensors
    /// only.
    pub(crate) const ALL_STRATEGIES: [Strategy; 5] = [
        Strategy::Coo,
        Strategy::Qcoo,
        Strategy::CooBroadcast,
        Strategy::DfactoSpmv,
        Strategy::BigTensor,
    ];
    pub(crate) const ALL_PARTITIONINGS: [Partitioning; 3] = [
        Partitioning::None,
        Partitioning::CoPartitionedFactors,
        Partitioning::PrePartitionedTensor,
    ];

    pub(crate) fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::local(4).nodes(4))
    }

    pub(crate) fn random_factors(shape: &[u32], rank: usize, seed: u64) -> Vec<DenseMatrix> {
        let mut rng = StdRng::seed_from_u64(seed);
        shape
            .iter()
            .map(|&s| DenseMatrix::random(s as usize, rank, &mut rng))
            .collect()
    }

    pub(crate) fn config(partitioning: Partitioning) -> PlanConfig {
        PlanConfig {
            rank: 2,
            partitions: 8,
            partitioning,
            kernel: KernelStrategy::default(),
            cache_tensor: true,
            storage: StorageLevel::MemoryRaw,
        }
    }

    /// The mode-0 MTTKRP of `strategy` at `partitioning` on a 10×10×10
    /// tensor with 300 nonzeros: the tensor, the result, and the metrics
    /// of that one call (QCOO's prologue runs inside `plan`, before the
    /// reset).
    pub(crate) fn mode0_run(
        strategy: Strategy,
        partitioning: Partitioning,
    ) -> (CooTensor, DenseMatrix, JobMetrics) {
        let t = RandomTensor::new(vec![10, 10, 10]).nnz(300).seed(6).build();
        let factors = random_factors(t.shape(), 2, 1);
        let c = cluster();
        let mut p = plan(&c, &t, strategy, &config(partitioning), &factors).unwrap();
        c.metrics().reset();
        let m = p.mttkrp(&factors, 0).unwrap();
        (t, m, c.metrics().snapshot())
    }

    /// Checks raw shuffle-map stages, skipped shuffles and tensor-sized
    /// shuffles (Table 4's column, `nnz/2` bar) of [`mode0_run`] against
    /// one `(partitioning, [raw, skipped, significant])` row each, and
    /// that only broadcast meters broadcast bytes.
    pub(crate) fn assert_shuffle_counts(strategy: Strategy, rows: &[(Partitioning, [usize; 3])]) {
        for &(partitioning, want) in rows {
            let (t, _, m) = mode0_run(strategy, partitioning);
            let got = [
                m.shuffle_count(),
                m.skipped_shuffle_count(),
                m.significant_shuffle_count(t.nnz() as u64 / 2),
            ];
            assert_eq!(got, want, "{strategy}/{partitioning}");
            let broadcast = m.total_broadcast_bytes() > 0;
            assert_eq!(broadcast, strategy == Strategy::CooBroadcast);
        }
    }

    /// Bytes of one shuffled record, by what it carries (rank 2, order 3):
    /// a `u32` key, a `u64` fiber key, a `CooRecord` (coordinate 4 + 4N,
    /// value 8), a row (4 + 8R), and a QCOO queue (a length word and
    /// `N − 1` rows).
    pub(crate) const KEY: u64 = 4;
    pub(crate) const FIBER_KEY: u64 = 8;
    pub(crate) const RECORD: u64 = 4 + 12 + 8;
    pub(crate) const ROW: u64 = 4 + 8 * 2;
    pub(crate) const QUEUE: u64 = 4 + 2 * ROW;

    /// Checks every shuffle one co-partitioned [`mode0_run`] writes
    /// against `want(nnz, fibers)`: one `(records, bytes per record)` per
    /// shuffle, in stage order, where `fibers` counts mode 0's fibers.
    pub(crate) fn assert_shuffle_writes(strategy: Strategy, want: fn(u64, u64) -> Vec<(u64, u64)>) {
        let (t, _, m) = mode0_run(strategy, Partitioning::CoPartitionedFactors);
        let fibers = cstf_tensor::spmv::fiber_counts(&t, 0).unwrap()[0] as u64;
        let want: Vec<(u64, u64)> = want(t.nnz() as u64, fibers)
            .into_iter()
            .map(|(n, b)| (n, n * b))
            .collect();
        let got: Vec<(u64, u64)> = m
            .stages()
            .filter(|s| s.shuffle_write_records > 0)
            .map(|s| (s.shuffle_write_records, s.shuffle_write_bytes))
            .collect();
        assert_eq!(got, want, "{strategy}");
    }

    /// Index 9 of mode 0 has no nonzeros: its MTTKRP row must be zero
    /// under every partitioning.
    pub(crate) fn assert_empty_rows_zero(strategy: Strategy) {
        let t = CooTensor::from_entries(vec![10, 4, 4], vec![(vec![0, 1, 2], 5.0)]).unwrap();
        let factors = random_factors(t.shape(), 2, 3);
        for partitioning in ALL_PARTITIONINGS {
            let c = cluster();
            let mut p = plan(&c, &t, strategy, &config(partitioning), &factors).unwrap();
            let m = p.mttkrp(&factors, 0).unwrap();
            assert_eq!(m.row(9), &[0.0, 0.0], "{strategy}/{partitioning}");
            assert_ne!(m.row(0), &[0.0, 0.0], "{strategy}/{partitioning}");
        }
    }

    /// A bad input is a `CstfError::Config` under every partitioning —
    /// from `plan` and from `Plan::mttkrp` alike — never a panic, and
    /// leaves no cached block behind.
    pub(crate) fn assert_bad_inputs_fail(strategy: Strategy) {
        let t = RandomTensor::new(vec![6, 5, 4]).nnz(40).seed(69).build();
        let line = RandomTensor::new(vec![7]).nnz(5).seed(70).build();
        let good = random_factors(t.shape(), 2, 71);
        let mut wrong_rank = good.clone();
        wrong_rank[1] = DenseMatrix::zeros(5, 3);
        // (case, tensor, factors given to `mttkrp`, mode); `plan` is given
        // valid factors, so that it is `mttkrp`'s check that fails.
        let cases = [
            (
                "order-1 tensor",
                &line,
                random_factors(line.shape(), 2, 72),
                0,
            ),
            ("short factor list", &t, good[..2].to_vec(), 0),
            ("wrong-rank factor", &t, wrong_rank, 0),
            ("mode out of range", &t, good.clone(), 3),
        ];
        for partitioning in ALL_PARTITIONINGS {
            for (case, tensor, bad, mode) in &cases {
                let c = cluster();
                let config = config(partitioning);
                let planned = random_factors(tensor.shape(), 2, 71);
                let run = || {
                    let mut p = plan(&c, tensor, strategy, &config, &planned)?;
                    if *mode == 0 {
                        // The same factors fail `plan` too.
                        let early = plan(&c, tensor, strategy, &config, bad);
                        assert!(matches!(early, Err(CstfError::Config(_))), "{case}");
                    }
                    p.mttkrp(bad, *mode)
                };
                let result = run();
                assert!(
                    matches!(result, Err(CstfError::Config(_))),
                    "{strategy}/{partitioning} {case}: {result:?}"
                );
                assert!(c.block_manager().is_empty(), "{strategy} {case}");
            }
        }
    }

    /// Asserts `a` and `b` hold the same f64 bits, row by row.
    pub(crate) fn assert_bits_eq(a: &DenseMatrix, b: &DenseMatrix) {
        assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
        for i in 0..a.rows() {
            for (x, y) in a.row(i).iter().zip(b.row(i)) {
                assert_eq!(x.to_bits(), y.to_bits(), "row {i}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::*;
    use super::*;
    use cstf_dataflow::{ClusterConfig, FaultConfig};
    use cstf_tensor::mttkrp::mttkrp as mttkrp_seq;
    use cstf_tensor::random::RandomTensor;

    #[test]
    fn display_from_str_round_trip() {
        for s in ALL_STRATEGIES {
            assert_eq!(s.to_string().parse::<Strategy>().unwrap(), s);
        }
        for p in ALL_PARTITIONINGS {
            assert_eq!(p.to_string().parse::<Partitioning>().unwrap(), p);
        }
    }

    #[test]
    fn join_order_is_descending_non_target() {
        assert_eq!(join_order(3, 0), vec![2, 1]);
        assert_eq!(join_order(3, 1), vec![2, 0]);
        assert_eq!(join_order(3, 2), vec![1, 0]);
        assert_eq!(join_order(4, 1), vec![3, 2, 0]);
    }

    #[test]
    fn bad_inputs_fail_alike_under_every_strategy() {
        for strategy in ALL_STRATEGIES {
            assert_bad_inputs_fail(strategy);
        }
    }

    #[test]
    fn from_str_aliases_and_rejects() {
        assert_eq!("coo".parse::<Strategy>().unwrap(), Strategy::Coo);
        assert_eq!("QCOO".parse::<Strategy>().unwrap(), Strategy::Qcoo);
        assert_eq!(
            "broadcast".parse::<Strategy>().unwrap(),
            Strategy::CooBroadcast
        );
        assert_eq!("spmv".parse::<Strategy>().unwrap(), Strategy::DfactoSpmv);
        assert_eq!("dfacto".parse::<Strategy>().unwrap(), Strategy::DfactoSpmv);
        assert_eq!(
            "bigtensor".parse::<Strategy>().unwrap(),
            Strategy::BigTensor
        );
        assert!("gigatensor".parse::<Strategy>().is_err());
        assert_eq!(
            "co".parse::<Partitioning>().unwrap(),
            Partitioning::CoPartitionedFactors
        );
        assert_eq!(
            "pre".parse::<Partitioning>().unwrap(),
            Partitioning::PrePartitionedTensor
        );
        assert!("psychic".parse::<Partitioning>().is_err());
    }

    #[test]
    fn cost_hooks_map_to_table4_rows() {
        assert_eq!(Strategy::Coo.cost_algorithm(), cost::Algorithm::CstfCoo);
        assert_eq!(Strategy::Qcoo.cost_algorithm(), cost::Algorithm::CstfQcoo);
        assert_eq!(
            Strategy::DfactoSpmv.cost_algorithm(),
            cost::Algorithm::DfactoSpmv
        );
        assert_eq!(
            Strategy::BigTensor.cost_algorithm(),
            cost::Algorithm::BigTensor
        );
    }

    #[test]
    fn every_strategy_plans_and_matches_sequential() {
        // Order 3, and one order past what a record's coordinate holds
        // inline (the heap-fallback path), on both tensor layouts.
        let beyond_inline: Vec<u32> = (0..=crate::records::Coord::INLINE)
            .map(|m| 2 + (m % 2) as u32)
            .collect();
        for shape in [vec![9, 8, 7], beyond_inline] {
            let t = RandomTensor::new(shape).nnz(150).seed(61).build();
            let factors = random_factors(t.shape(), 2, 62);
            let refs: Vec<&DenseMatrix> = factors.iter().collect();
            for partitioning in [
                Partitioning::CoPartitionedFactors,
                Partitioning::PrePartitionedTensor,
            ] {
                for strategy in ALL_STRATEGIES {
                    if strategy == Strategy::BigTensor && t.order() != 3 {
                        continue;
                    }
                    let c = cluster();
                    let mut plan = plan(&c, &t, strategy, &config(partitioning), &factors).unwrap();
                    assert_eq!(plan.strategy(), strategy);
                    for mode in 0..t.order() {
                        let m = plan.mttkrp(&factors, mode).unwrap();
                        let seq = mttkrp_seq(&t, &refs, mode).unwrap();
                        assert!(
                            m.max_abs_diff(&seq) < 1e-9,
                            "order {} {strategy}/{partitioning} mode {mode} diverged",
                            t.order()
                        );
                    }
                    plan.release();
                }
            }
        }
    }

    #[test]
    fn qcoo_plan_rejects_out_of_phase_mode() {
        let t = RandomTensor::new(vec![6, 6, 6]).nnz(60).seed(63).build();
        let factors = random_factors(t.shape(), 2, 64);
        let c = cluster();
        let mut p = plan(
            &c,
            &t,
            Strategy::Qcoo,
            &config(Partitioning::CoPartitionedFactors),
            &factors,
        )
        .unwrap();
        assert!(p.mttkrp(&factors, 2).is_err());
        // Mode 0 (the expected one) still works afterwards.
        assert!(p.mttkrp(&factors, 0).is_ok());
        p.release();
    }

    #[test]
    fn plans_release_their_caches() {
        let t = RandomTensor::new(vec![8, 8, 8]).nnz(100).seed(65).build();
        let factors = random_factors(t.shape(), 2, 66);
        for strategy in ALL_STRATEGIES {
            for partitioning in [
                Partitioning::CoPartitionedFactors,
                Partitioning::PrePartitionedTensor,
            ] {
                let c = cluster();
                let before = c.block_manager().len();
                let mut p = plan(&c, &t, strategy, &config(partitioning), &factors).unwrap();
                let _ = p.mttkrp(&factors, 0).unwrap();
                p.release();
                assert_eq!(
                    c.block_manager().len(),
                    before,
                    "{strategy}/{partitioning} leaked cached blocks"
                );
            }
        }
    }

    #[test]
    fn aborted_plans_give_their_blocks_back() {
        // A late crash stores its partition in the cache and then fails
        // the attempt; with one attempt per task the stage aborts with
        // blocks already put. Depending on the seed that happens in the
        // job that caches the tensor, in QCOO's queue prologue (both
        // inside `plan`), or in a later `mttkrp` that was half-way through
        // caching its rotated state. Whatever unwinds, nothing may stay.
        let t = RandomTensor::new(vec![8, 8, 8]).nnz(100).seed(67).build();
        let factors = random_factors(t.shape(), 2, 68);
        for strategy in ALL_STRATEGIES {
            let (mut in_plan, mut in_mttkrp) = (0, 0);
            for partitioning in [
                Partitioning::CoPartitionedFactors,
                Partitioning::PrePartitionedTensor,
            ] {
                for seed in 0..12 {
                    // `ClusterConfig::faults` refuses a schedule that can
                    // exhaust the attempt budget — the one wanted here.
                    let mut cluster_config = ClusterConfig::local(2).nodes(2).max_task_attempts(1);
                    cluster_config.faults =
                        Some(FaultConfig::crashes(seed, 0.0).with_late_crashes(0.03));
                    let c = Cluster::new(cluster_config);
                    let mut planned = false;
                    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let mut p = plan(&c, &t, strategy, &config(partitioning), &factors)
                            .expect("valid configuration");
                        planned = true;
                        for mode in 0..t.order() {
                            p.mttkrp(&factors, mode).expect("valid configuration");
                        }
                    }));
                    match (run.is_err(), planned) {
                        (true, false) => in_plan += 1,
                        (true, true) => in_mttkrp += 1,
                        (false, _) => {}
                    }
                    let blocks = c.block_manager();
                    assert!(
                        blocks.is_empty() && blocks.memory_bytes() == 0,
                        "{strategy}/{partitioning} seed {seed}: {} blocks left behind",
                        blocks.len()
                    );
                }
            }
            // BIGtensor's plan caches nothing, so it runs no job to abort.
            let plan_runs_jobs = strategy != Strategy::BigTensor;
            assert!(
                (in_plan > 0) == plan_runs_jobs && in_mttkrp > 0,
                "{strategy}: the seeds must abort both inside plan() ({in_plan}) and inside \
                 mttkrp() ({in_mttkrp})"
            );
        }
    }
}
