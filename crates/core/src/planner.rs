//! The MTTKRP planner: one uniform interface over every distributed
//! MTTKRP strategy.
//!
//! [`CpAls::run`](crate::CpAls::run) used to special-case each strategy —
//! building plain or pre-keyed tensor RDDs for COO, carrying a
//! [`QcooState`] for QCOO, branching per mode to pick a pipeline. Adding a
//! strategy meant touching all of it. The planner inverts the dependency:
//! [`plan`] asks the [`Strategy`] for its [`StrategyCapabilities`], builds
//! the tensor datasets the strategy can exploit, and returns a [`Plan`];
//! the driver then runs *any* strategy through the same
//! `plan.mttkrp(&factors, mode)` loop. Each strategy also
//! declares its analytic cost model ([`Strategy::cost_algorithm`]) so the
//! Table-4 accounting in [`crate::cost`] stays wired to the code that
//! implements it.
//!
//! A plan delegates to the same public pipeline functions the
//! pre-planner API exposed ([`crate::mttkrp::mttkrp_coo`],
//! [`crate::qcoo::QcooState`], …), so driving a strategy through the
//! planner is bit-identical to calling the pipelines directly — the
//! cross-checks live in `tests/tests/strategy_planner.rs`.

use crate::factors::{tensor_to_rdd, tensor_to_rdd_keyed};
use crate::mttkrp::{
    join_order, mttkrp_coo, mttkrp_coo_broadcast, mttkrp_coo_pre, MttkrpOptions, Persisted,
};
use crate::qcoo::{QcooOptions, QcooState};
use crate::records::CooRecord;
use crate::spmv::{mttkrp_spmv, mttkrp_spmv_pre};
use crate::{cost, CstfError, Result};
use cstf_dataflow::prelude::*;
use cstf_tensor::{CooTensor, DenseMatrix};
use std::sync::Arc;

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
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Strategy::Coo => write!(f, "COO"),
            Strategy::Qcoo => write!(f, "QCOO"),
            Strategy::CooBroadcast => write!(f, "COO-broadcast"),
            Strategy::DfactoSpmv => write!(f, "DFacTo-SpMV"),
        }
    }
}

impl std::str::FromStr for Strategy {
    type Err = CstfError;

    /// Parses the [`Display`](std::fmt::Display) form (case-insensitively)
    /// plus the short aliases the experiment binaries accept: `coo`,
    /// `qcoo`, `broadcast`, `spmv`, `dfacto`.
    fn from_str(s: &str) -> Result<Self> {
        match s.to_ascii_lowercase().as_str() {
            "coo" => Ok(Strategy::Coo),
            "qcoo" => Ok(Strategy::Qcoo),
            "broadcast" | "coo-broadcast" => Ok(Strategy::CooBroadcast),
            "spmv" | "dfacto" | "dfacto-spmv" => Ok(Strategy::DfactoSpmv),
            other => Err(CstfError::Config(format!(
                "unknown strategy '{other}' (expected coo, qcoo, broadcast, or spmv)"
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
    /// mode, making stage 1 of every MTTKRP fully narrow. Only strategies
    /// whose [`StrategyCapabilities::pre_partitioned_tensor`] is `true`
    /// (COO and DFacTo-SpMV) have the hot path; others fall back to
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

/// What a strategy's pipeline can exploit. The planner consults this to
/// decide which tensor datasets to build and cache; the driver never
/// branches on the strategy itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrategyCapabilities {
    /// Has a hot path over tensor copies pre-keyed by each first-join
    /// mode ([`Partitioning::PrePartitionedTensor`]).
    pub pre_partitioned_tensor: bool,
    /// Ships factor matrices by broadcast instead of shuffle joins.
    pub broadcast_factors: bool,
    /// Carries distributed state across MTTKRP calls (modes must be
    /// requested in cyclic order `0, 1, …, N−1, 0, …`).
    pub carried_state: bool,
}

impl Strategy {
    /// The capabilities of this strategy's pipeline.
    pub fn capabilities(self) -> StrategyCapabilities {
        match self {
            Strategy::Coo => StrategyCapabilities {
                pre_partitioned_tensor: true,
                broadcast_factors: false,
                carried_state: false,
            },
            Strategy::Qcoo => StrategyCapabilities {
                pre_partitioned_tensor: false,
                broadcast_factors: false,
                carried_state: true,
            },
            Strategy::CooBroadcast => StrategyCapabilities {
                pre_partitioned_tensor: false,
                broadcast_factors: true,
                carried_state: false,
            },
            Strategy::DfactoSpmv => StrategyCapabilities {
                pre_partitioned_tensor: true,
                broadcast_factors: false,
                carried_state: false,
            },
        }
    }

    /// The analytic cost model ([`crate::cost`]) for this strategy.
    /// `CooBroadcast` shares COO's flop/intermediate accounting (its
    /// shuffle structure is not in Table 4 — the engine-measured numbers
    /// in `ablation_strategies` cover it).
    pub fn cost_algorithm(self) -> cost::Algorithm {
        match self {
            Strategy::Coo | Strategy::CooBroadcast => cost::Algorithm::CstfCoo,
            Strategy::Qcoo => cost::Algorithm::CstfQcoo,
            Strategy::DfactoSpmv => cost::Algorithm::DfactoSpmv,
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
    /// Task kernel for the hot per-partition loops.
    pub kernel: KernelStrategy,
    /// Whether to persist (and eagerly materialize) the tensor datasets.
    pub cache_tensor: bool,
    /// Storage level for every persisted dataset.
    pub storage: StorageLevel,
}

impl PlanConfig {
    fn co_partition_factors(&self) -> bool {
        self.partitioning != Partitioning::None
    }

    fn mttkrp_options(&self) -> MttkrpOptions {
        MttkrpOptions {
            partitions: Some(self.partitions),
            co_partition_factors: self.co_partition_factors(),
            kernel: self.kernel,
            ..MttkrpOptions::default()
        }
    }
}

/// A constructed per-run MTTKRP plan: owns the strategy's distributed
/// datasets (cached tensor copies, carried state) and produces one dense
/// MTTKRP result per call.
pub struct Plan {
    strategy: Strategy,
    pipeline: Pipeline,
    data: TensorData,
}

/// What a [`Plan`] runs per call.
enum Pipeline {
    /// The strategies that carry no state between calls — COO,
    /// DFacTo-SpMV (both over the plain or the pre-partitioned tensor) and
    /// broadcast COO (plain only): each call runs the strategy's pipeline
    /// function over the plan's tensor datasets.
    Stateless {
        cluster: Cluster,
        shape: Vec<u32>,
        opts: MttkrpOptions,
    },
    /// CSTF-QCOO: the carried queue state (its prologue consumed the
    /// plan's source tensor RDD, held so `release` can unpersist it).
    Qcoo(QcooState),
}

impl Plan {
    /// The strategy this plan implements.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The strategy's declared capabilities.
    pub fn capabilities(&self) -> StrategyCapabilities {
        self.strategy.capabilities()
    }

    /// The analytic cost model backing this plan (feeds [`crate::cost`]).
    pub fn cost_algorithm(&self) -> cost::Algorithm {
        self.strategy.cost_algorithm()
    }

    /// Computes the mode-`mode` MTTKRP with the current `factors`.
    ///
    /// Carried-state strategies ([`StrategyCapabilities::carried_state`])
    /// require modes in cyclic order starting at 0; stateless strategies
    /// accept any order.
    pub fn mttkrp(&mut self, factors: &[DenseMatrix], mode: usize) -> Result<DenseMatrix> {
        let (cluster, shape, opts) = match &mut self.pipeline {
            Pipeline::Qcoo(state) => {
                if state.next_output_mode() != mode {
                    return Err(CstfError::Config(format!(
                        "QCOO carries state across modes: requested mode {mode}, expected {}",
                        state.next_output_mode()
                    )));
                }
                let join_mode = state.next_join_mode();
                let (out_mode, m) = state.step(&factors[join_mode])?;
                debug_assert_eq!(out_mode, mode);
                return Ok(m);
            }
            Pipeline::Stateless {
                cluster,
                shape,
                opts,
            } => (&*cluster, &shape[..], &*opts),
        };
        if self.data.is_pre() {
            let keyed = self.data.keyed_by(join_order(shape.len(), mode)[0]);
            match self.strategy {
                Strategy::Coo => mttkrp_coo_pre(cluster, keyed, factors, shape, mode, opts),
                Strategy::DfactoSpmv => mttkrp_spmv_pre(cluster, keyed, factors, shape, mode, opts),
                other => unreachable!("{other} has no pre-partitioned pipeline"),
            }
        } else {
            let plain = self.data.plain();
            match self.strategy {
                Strategy::Coo => mttkrp_coo(cluster, plain, factors, shape, mode, opts),
                Strategy::DfactoSpmv => mttkrp_spmv(cluster, plain, factors, shape, mode, opts),
                Strategy::CooBroadcast => {
                    mttkrp_coo_broadcast(cluster, plain, factors, shape, mode, opts)
                }
                Strategy::Qcoo => unreachable!("QCOO plans as Pipeline::Qcoo"),
            }
        }
    }

    /// Releases every dataset the plan persisted.
    pub fn release(&self) {
        if let Pipeline::Qcoo(state) = &self.pipeline {
            state.release();
        }
        self.data.release();
    }
}

/// Builds the plan for `strategy`: distributes (and caches) the tensor in
/// the layout the strategy's capabilities call for, runs any prologue
/// (QCOO's queue initialization consumes `factors`), and returns the
/// driver-facing plan object.
pub fn plan(
    cluster: &Cluster,
    tensor: &CooTensor,
    strategy: Strategy,
    config: &PlanConfig,
    factors: &[DenseMatrix],
) -> Result<Plan> {
    let caps = strategy.capabilities();
    let use_pre =
        config.partitioning == Partitioning::PrePartitionedTensor && caps.pre_partitioned_tensor;
    let data = TensorData::build(cluster, tensor, config, use_pre);
    let shape = tensor.shape().to_vec();
    let pipeline = match strategy {
        Strategy::Coo | Strategy::DfactoSpmv | Strategy::CooBroadcast => Pipeline::Stateless {
            cluster: cluster.clone(),
            shape,
            opts: config.mttkrp_options(),
        },
        Strategy::Qcoo => Pipeline::Qcoo(QcooState::init_with(
            cluster,
            data.plain(),
            factors,
            &shape,
            config.rank,
            config.partitions,
            QcooOptions {
                co_partition_factors: config.co_partition_factors(),
                storage: config.storage,
                kernel: config.kernel,
            },
        )?),
    };
    Ok(Plan {
        strategy,
        pipeline,
        data,
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
            let partitioner: Arc<dyn KeyPartitioner<u32>> =
                Arc::new(HashPartitioner::new(config.partitions));
            let pref = PartitionerRef::of(partitioner);
            let pre_keyed = [order - 1, order - 2]
                .into_iter()
                .map(|key_mode| {
                    let rdd = tensor_to_rdd_keyed(
                        cluster,
                        tensor,
                        key_mode,
                        config.partitions,
                        Some(&pref),
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

    /// The cached copy keyed by `first` (pre-partitioned path only).
    fn keyed_by(&self, first: usize) -> &Rdd<(u32, CooRecord)> {
        self.pre_keyed
            .iter()
            .find(|(key_mode, _)| *key_mode == first)
            .map(|(_, rdd)| &**rdd)
            .expect("first-join mode is order−1 or order−2")
    }

    fn is_pre(&self) -> bool {
        !self.pre_keyed.is_empty()
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
mod tests {
    use super::*;
    use cstf_dataflow::{ClusterConfig, FaultConfig};
    use cstf_tensor::mttkrp::mttkrp as mttkrp_seq;
    use cstf_tensor::random::RandomTensor;
    use rand::{rngs::StdRng, SeedableRng};

    const ALL_STRATEGIES: [Strategy; 4] = [
        Strategy::Coo,
        Strategy::Qcoo,
        Strategy::CooBroadcast,
        Strategy::DfactoSpmv,
    ];

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::local(4).nodes(4))
    }

    fn random_factors(shape: &[u32], rank: usize, seed: u64) -> Vec<DenseMatrix> {
        let mut rng = StdRng::seed_from_u64(seed);
        shape
            .iter()
            .map(|&s| DenseMatrix::random(s as usize, rank, &mut rng))
            .collect()
    }

    fn config(partitioning: Partitioning) -> PlanConfig {
        PlanConfig {
            rank: 2,
            partitions: 8,
            partitioning,
            kernel: KernelStrategy::default(),
            cache_tensor: true,
            storage: StorageLevel::MemoryRaw,
        }
    }

    #[test]
    fn display_from_str_round_trip() {
        for s in ALL_STRATEGIES {
            assert_eq!(s.to_string().parse::<Strategy>().unwrap(), s);
        }
        for p in [
            Partitioning::None,
            Partitioning::CoPartitionedFactors,
            Partitioning::PrePartitionedTensor,
        ] {
            assert_eq!(p.to_string().parse::<Partitioning>().unwrap(), p);
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
    fn capabilities_drive_pre_partitioning() {
        assert!(Strategy::Coo.capabilities().pre_partitioned_tensor);
        assert!(Strategy::DfactoSpmv.capabilities().pre_partitioned_tensor);
        assert!(!Strategy::Qcoo.capabilities().pre_partitioned_tensor);
        assert!(!Strategy::CooBroadcast.capabilities().pre_partitioned_tensor);
        assert!(Strategy::Qcoo.capabilities().carried_state);
        assert!(Strategy::CooBroadcast.capabilities().broadcast_factors);
    }

    #[test]
    fn cost_hooks_map_to_table4_rows() {
        assert_eq!(Strategy::Coo.cost_algorithm(), cost::Algorithm::CstfCoo);
        assert_eq!(Strategy::Qcoo.cost_algorithm(), cost::Algorithm::CstfQcoo);
        assert_eq!(
            Strategy::DfactoSpmv.cost_algorithm(),
            cost::Algorithm::DfactoSpmv
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
            assert!(
                in_plan > 0 && in_mttkrp > 0,
                "{strategy}: the seeds must abort both inside plan() ({in_plan}) and inside \
                 mttkrp() ({in_mttkrp})"
            );
        }
    }
}
