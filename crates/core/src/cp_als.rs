//! Distributed CP-ALS driver (Algorithms 1 and 3 of the paper).
//!
//! Alternates factor-matrix updates `Aₙ ← Mₙ · (∗_{m≠n} AₘᵀAₘ)⁺` where `Mₙ`
//! is the mode-`n` MTTKRP, computed with either the COO or the QCOO
//! distributed pipeline. Gram matrices live on the driver (`R × R`,
//! recomputed only for the factor that changed — "the gram matrix for each
//! factor is only computed once per CP-ALS iteration", §4.2); columns are
//! normalized after every update with the norms kept as `λ`.

use crate::planner::{plan, Plan, PlanConfig};
use crate::{CstfError, Result};
use cstf_dataflow::prelude::*;
use cstf_tensor::linalg::{als_normalize, als_solve};
use cstf_tensor::{CooTensor, DenseMatrix, KruskalTensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::planner::{Partitioning, Strategy};

/// What a run holds on the (possibly shared) cluster — the plan, whose
/// drop unpersists its datasets and releases the shuffles that built
/// them, and the metrics scope — given back on
/// every exit path: normal return, `?`, or a panic unwinding out of an
/// aborted or cancelled stage.
struct RunGuard<'a> {
    cluster: &'a Cluster,
    plan: Plan,
}

impl Drop for RunGuard<'_> {
    fn drop(&mut self) {
        self.cluster.metrics().clear_scope();
    }
}

/// Configurable CP-ALS decomposition (builder style).
///
/// See the crate-level docs for a full example.
#[derive(Debug, Clone)]
pub struct CpAls {
    rank: usize,
    max_iterations: usize,
    tolerance: f64,
    seed: u64,
    strategy: Strategy,
    partitioning: Partitioning,
    compute_fit: bool,
    nonnegative: bool,
    cache_tensor: bool,
    tensor_storage: StorageLevel,
    init: Option<KruskalTensor>,
}

impl CpAls {
    /// Starts a builder for a rank-`rank` decomposition. Defaults: 20
    /// iterations (the paper's experimental setting), QCOO strategy,
    /// fit-based early stopping disabled (`tolerance = 0`).
    pub fn new(rank: usize) -> Self {
        CpAls {
            rank,
            max_iterations: 20,
            tolerance: 0.0,
            seed: 0,
            strategy: Strategy::Qcoo,
            partitioning: Partitioning::CoPartitionedFactors,
            compute_fit: true,
            nonnegative: false,
            cache_tensor: true,
            tensor_storage: StorageLevel::MemoryRaw,
            init: None,
        }
    }

    /// Maximum ALS iterations.
    pub fn max_iterations(mut self, iters: usize) -> Self {
        self.max_iterations = iters;
        self
    }

    /// Stops early when the fit improves by less than `tol` between
    /// iterations ("until no improvement or maximum iterations reached",
    /// Algorithm 3). `0` disables early stopping.
    pub fn tolerance(mut self, tol: f64) -> Self {
        self.tolerance = tol;
        self
    }

    /// Seed for the random factor initialization.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the MTTKRP pipeline.
    pub fn strategy(mut self, s: Strategy) -> Self {
        self.strategy = s;
        self
    }

    /// Selects the partitioner-awareness level (see [`Partitioning`]).
    pub fn partitioning(mut self, p: Partitioning) -> Self {
        self.partitioning = p;
        self
    }

    /// Disables per-iteration fit computation (saves driver time on large
    /// tensors; stats will report NaN fits).
    pub fn skip_fit(mut self) -> Self {
        self.compute_fit = false;
        self
    }

    /// Constrains every factor entry to be ≥ 0 (projected ALS: negative
    /// entries are clamped after each normal-equation solve). An extension
    /// beyond the paper; useful for count data like tagging tensors.
    pub fn nonnegative(mut self) -> Self {
        self.nonnegative = true;
        self
    }

    /// Disables caching of the distributed tensor — every MTTKRP then
    /// recomputes it from the source RDD, the behaviour the paper's §4.1
    /// caching discussion warns about (quantified by `ablation_caching`).
    pub fn no_tensor_cache(mut self) -> Self {
        self.cache_tensor = false;
        self
    }

    /// Storage level for every persisted dataset of the run: the tensor
    /// record RDD (COO), the pre-keyed tensor copies, and QCOO's carried
    /// queue state. Defaults to [`StorageLevel::MemoryRaw`], whose evicted
    /// blocks recompute from lineage; [`StorageLevel::MemoryAndDisk`]
    /// spills them instead, to run under a
    /// [`cstf_dataflow::ClusterConfig::memory_budget`] smaller than the
    /// working set — factors stay bit-identical either way, the time
    /// model charges the spill traffic.
    pub fn tensor_storage(mut self, level: StorageLevel) -> Self {
        self.tensor_storage = level;
        self
    }

    /// Warm-starts from an existing decomposition instead of random
    /// factors (extension: incremental refreshes over evolving tensors —
    /// see the `streaming_updates` example). The weights are folded into
    /// the first factor; shapes must match the tensor.
    pub fn warm_start(mut self, init: KruskalTensor) -> Self {
        self.init = Some(init);
        self
    }

    /// Runs the decomposition on `cluster`.
    ///
    /// Stage metrics accumulate into `cluster.metrics()` with scope labels
    /// `"MTTKRP-1"…"MTTKRP-N"` for the per-mode pipelines and `"Other"`
    /// for initialization and fit evaluation — the same breakdown the
    /// paper plots in Figure 4.
    pub fn run(&self, cluster: &Cluster, tensor: &CooTensor) -> Result<CpResult> {
        if self.rank == 0 {
            return Err(CstfError::Config("rank must be ≥ 1".into()));
        }
        if tensor.order() < 2 {
            return Err(CstfError::Config("tensor order must be ≥ 2".into()));
        }
        if tensor.is_empty() {
            return Err(CstfError::Config("tensor has no nonzeros".into()));
        }
        let started = std::time::Instant::now();
        let order = tensor.order();
        let shape = tensor.shape().to_vec();
        // `Cluster::new` rejects a zero default parallelism.
        let partitions = cluster.config().default_parallelism;

        // Factor initialization: warm start or seeded random. Runs before
        // planning (pure driver-side work, no cluster jobs) because
        // carried-state strategies consume the initial factors in their
        // prologue.
        let mut factors: Vec<DenseMatrix> = match &self.init {
            Some(init) => {
                if init.rank() != self.rank {
                    return Err(CstfError::Config(format!(
                        "warm start has rank {}, requested {}",
                        init.rank(),
                        self.rank
                    )));
                }
                if init.shape() != shape {
                    return Err(CstfError::Config(format!(
                        "warm start shape {:?} does not match tensor {:?}",
                        init.shape(),
                        shape
                    )));
                }
                // Fold λ into the first factor so the iteration starts
                // from the same reconstruction.
                let mut f = init.factors.clone();
                for (r, &w) in init.weights.iter().enumerate() {
                    for row in 0..f[0].rows() {
                        let v = f[0].get(row, r) * w;
                        f[0].set(row, r, v);
                    }
                }
                f
            }
            None => {
                let mut rng = StdRng::seed_from_u64(self.seed);
                shape
                    .iter()
                    .map(|&s| DenseMatrix::random(s as usize, self.rank, &mut rng))
                    .collect()
            }
        };
        let mut lambda = vec![1.0f64; self.rank];
        let mut grams: Vec<DenseMatrix> = factors.iter().map(DenseMatrix::gram).collect();

        // Build the strategy's MTTKRP plan: it distributes (and caches)
        // the tensor in the layout its pipeline reads and runs any
        // prologue (QCOO's N-shuffle queue initialization). From here on
        // the driver is strategy-agnostic.
        cluster.metrics().set_scope("Other");
        let mttkrp_plan = plan(
            cluster,
            tensor,
            self.strategy,
            &PlanConfig {
                rank: self.rank,
                partitions,
                partitioning: self.partitioning,
                kernel: KernelStrategy::default(),
                cache_tensor: self.cache_tensor,
                storage: self.tensor_storage,
            },
            &factors,
        )?;
        let mut run = RunGuard {
            cluster,
            plan: mttkrp_plan,
        };

        let mut fits: Vec<f64> = Vec::new();
        let mut prev_fit = f64::NEG_INFINITY;
        let mut iterations = 0usize;

        'outer: for _iter in 0..self.max_iterations {
            for mode in 0..order {
                cluster.metrics().set_scope(format!("MTTKRP-{}", mode + 1));
                let m = run.plan.mttkrp(&factors, mode)?;

                // Driver-side normal equations: V = ∗_{m≠n} Gₘ, Aₙ = M V⁺.
                let mut updated = als_solve(&m, &grams, mode)?;
                if self.nonnegative {
                    for x in updated.data_mut() {
                        if *x < 0.0 {
                            *x = 0.0;
                        }
                    }
                }
                if !updated.all_finite() {
                    return Err(CstfError::Config(
                        "factor update produced non-finite values".into(),
                    ));
                }
                lambda = als_normalize(updated, mode, &mut factors, &mut grams);
            }
            iterations += 1;
            // Shuffle storage is reclaimed automatically: each MTTKRP's
            // RDD chain is dropped here, and dropping the last reference
            // to a shuffle dependency frees its stored data (the engine's
            // ContextCleaner) — safe even with concurrent jobs sharing
            // the cluster.

            cluster.metrics().set_scope("Other");
            if self.compute_fit {
                let kruskal = KruskalTensor::new(lambda.clone(), factors.clone())?;
                let fit = kruskal.fit(tensor)?;
                fits.push(fit);
                if self.tolerance > 0.0 && (fit - prev_fit).abs() < self.tolerance {
                    break 'outer;
                }
                prev_fit = fit;
            } else {
                fits.push(f64::NAN);
            }
        }

        drop(run);

        let final_fit = fits.last().copied().unwrap_or(f64::NAN);
        let kruskal = KruskalTensor::new(lambda, factors)?;
        Ok(CpResult {
            kruskal,
            stats: DecompositionStats {
                iterations,
                fits,
                final_fit,
                strategy: self.strategy,
                elapsed: started.elapsed(),
            },
        })
    }
}

/// Output of a CP-ALS run.
#[derive(Debug, Clone)]
pub struct CpResult {
    /// The decomposition `[λ; A₁, …, A_N]`.
    pub kruskal: KruskalTensor,
    /// Convergence and timing statistics.
    pub stats: DecompositionStats,
}

/// Convergence statistics of a decomposition.
#[derive(Debug, Clone)]
pub struct DecompositionStats {
    /// ALS iterations executed.
    pub iterations: usize,
    /// Fit after each iteration (NaN when fit computation was skipped).
    pub fits: Vec<f64>,
    /// Fit after the final iteration.
    pub final_fit: f64,
    /// Strategy used.
    pub strategy: Strategy,
    /// Wall-clock driver time (host time, not simulated time).
    pub elapsed: std::time::Duration,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cstf_dataflow::ClusterConfig;
    use cstf_tensor::random::{low_rank_tensor, RandomTensor};

    fn cluster() -> Cluster {
        Cluster::new(ClusterConfig::local(4).nodes(4))
    }

    #[test]
    fn builder_defaults_and_setters() {
        let a = CpAls::new(3)
            .max_iterations(7)
            .tolerance(1e-5)
            .seed(9)
            .strategy(Strategy::Coo);
        assert_eq!(a.rank, 3);
        assert_eq!(a.max_iterations, 7);
        assert_eq!(a.strategy, Strategy::Coo);
    }

    #[test]
    fn rejects_invalid_inputs() {
        let c = cluster();
        let t = RandomTensor::new(vec![5, 5, 5]).nnz(20).seed(1).build();
        assert!(CpAls::new(0).run(&c, &t).is_err());
        let empty = cstf_tensor::CooTensor::new(vec![3, 3]);
        assert!(CpAls::new(2).run(&c, &empty).is_err());
        let order1 = cstf_tensor::CooTensor::from_entries(vec![5], vec![(vec![1], 1.0)]).unwrap();
        assert!(CpAls::new(2).run(&c, &order1).is_err());
    }

    #[test]
    fn fit_improves_on_low_rank_data_coo() {
        let (t, _) = low_rank_tensor(&[12, 10, 8], 2, 500, 0.0, 31);
        let c = cluster();
        let res = CpAls::new(2)
            .strategy(Strategy::Coo)
            .max_iterations(8)
            .seed(1)
            .run(&c, &t)
            .unwrap();
        assert_eq!(res.stats.iterations, 8);
        let first = res.stats.fits[0];
        let last = res.stats.final_fit;
        assert!(last >= first - 1e-9, "fit regressed: {first} → {last}");
        assert!(last > 0.3, "fit too weak: {last}");
    }

    #[test]
    fn fit_improves_on_low_rank_data_qcoo() {
        let (t, _) = low_rank_tensor(&[12, 10, 8], 2, 500, 0.0, 32);
        let c = cluster();
        let res = CpAls::new(2)
            .strategy(Strategy::Qcoo)
            .max_iterations(8)
            .seed(1)
            .run(&c, &t)
            .unwrap();
        assert!(res.stats.final_fit > 0.3);
    }

    #[test]
    fn coo_and_qcoo_agree() {
        // Same seed ⇒ same initialization ⇒ (numerically) same trajectory.
        let t = RandomTensor::new(vec![10, 9, 8]).nnz(250).seed(33).build();
        let c1 = cluster();
        let coo = CpAls::new(2)
            .strategy(Strategy::Coo)
            .max_iterations(4)
            .seed(5)
            .run(&c1, &t)
            .unwrap();
        let c2 = cluster();
        let qcoo = CpAls::new(2)
            .strategy(Strategy::Qcoo)
            .max_iterations(4)
            .seed(5)
            .run(&c2, &t)
            .unwrap();
        assert!((coo.stats.final_fit - qcoo.stats.final_fit).abs() < 1e-6);
        for (a, b) in coo.kruskal.factors.iter().zip(qcoo.kruskal.factors.iter()) {
            assert!(a.max_abs_diff(b) < 1e-6);
        }
    }

    #[test]
    fn fourth_order_decomposition_runs() {
        let t = RandomTensor::new(vec![6, 5, 7, 4])
            .nnz(200)
            .seed(34)
            .build();
        let c = cluster();
        for strategy in [
            Strategy::Coo,
            Strategy::Qcoo,
            Strategy::CooBroadcast,
            Strategy::DfactoSpmv,
        ] {
            let res = CpAls::new(2)
                .strategy(strategy)
                .max_iterations(3)
                .seed(2)
                .run(&c, &t)
                .unwrap();
            assert_eq!(res.kruskal.order(), 4);
            assert!(res.stats.final_fit.is_finite());
        }
    }

    #[test]
    fn early_stopping_respects_tolerance() {
        let (t, _) = low_rank_tensor(&[10, 10, 10], 1, 400, 0.0, 35);
        let c = cluster();
        let res = CpAls::new(1)
            .strategy(Strategy::Coo)
            .max_iterations(50)
            .tolerance(1e-6)
            .seed(3)
            .run(&c, &t)
            .unwrap();
        assert!(
            res.stats.iterations < 50,
            "rank-1 recovery should converge quickly, ran {}",
            res.stats.iterations
        );
    }

    #[test]
    fn skip_fit_reports_nan() {
        let t = RandomTensor::new(vec![6, 6, 6]).nnz(50).seed(36).build();
        let c = cluster();
        let res = CpAls::new(2)
            .skip_fit()
            .max_iterations(2)
            .run(&c, &t)
            .unwrap();
        assert!(res.stats.final_fit.is_nan());
        assert!(res.stats.fits.iter().all(|f| f.is_nan()));
    }

    #[test]
    fn factors_are_normalized_and_finite() {
        let t = RandomTensor::new(vec![8, 8, 8]).nnz(100).seed(37).build();
        let c = cluster();
        let res = CpAls::new(3).max_iterations(3).seed(7).run(&c, &t).unwrap();
        for f in &res.kruskal.factors {
            assert!(f.all_finite());
        }
        // The most recently updated factor has unit columns.
        let last = res.kruskal.factors.last().unwrap();
        for n in last.column_norms() {
            assert!((n - 1.0).abs() < 1e-9 || n == 0.0);
        }
    }

    #[test]
    fn scopes_cover_every_mode() {
        let t = RandomTensor::new(vec![8, 8, 8]).nnz(100).seed(38).build();
        let c = cluster();
        let _ = CpAls::new(2)
            .strategy(Strategy::Coo)
            .max_iterations(1)
            .run(&c, &t)
            .unwrap();
        let m = c.metrics().snapshot();
        for scope in ["MTTKRP-1", "MTTKRP-2", "MTTKRP-3", "Other"] {
            assert!(
                m.stages_in_scope(scope).count() > 0,
                "no stages in scope {scope}"
            );
        }
    }

    #[test]
    fn broadcast_strategy_matches_coo_trajectory() {
        let t = RandomTensor::new(vec![10, 9, 8]).nnz(250).seed(40).build();
        let run = |s: Strategy| {
            let c = cluster();
            CpAls::new(2)
                .strategy(s)
                .max_iterations(3)
                .seed(6)
                .run(&c, &t)
                .unwrap()
                .stats
                .final_fit
        };
        let coo = run(Strategy::Coo);
        let bcast = run(Strategy::CooBroadcast);
        assert!((coo - bcast).abs() < 1e-9, "{coo} vs {bcast}");
    }

    #[test]
    fn spmv_strategy_agrees_with_coo() {
        // DFacTo-SpMV reduces partial products in a different association
        // order than the join chain, so trajectories agree numerically
        // (not bitwise) — same bound as the COO/QCOO cross-check.
        let t = RandomTensor::new(vec![10, 9, 8]).nnz(250).seed(44).build();
        let run = |s: Strategy| {
            let c = cluster();
            CpAls::new(2)
                .strategy(s)
                .max_iterations(4)
                .seed(5)
                .run(&c, &t)
                .unwrap()
        };
        let coo = run(Strategy::Coo);
        let spmv = run(Strategy::DfactoSpmv);
        assert!((coo.stats.final_fit - spmv.stats.final_fit).abs() < 1e-6);
        for (a, b) in coo.kruskal.factors.iter().zip(spmv.kruskal.factors.iter()) {
            assert!(a.max_abs_diff(b) < 1e-6);
        }
    }

    #[test]
    fn nonnegative_factors_have_no_negative_entries() {
        let t = RandomTensor::new(vec![10, 10, 10])
            .nnz(200)
            .seed(41)
            .build();
        let c = cluster();
        let res = CpAls::new(3)
            .nonnegative()
            .strategy(Strategy::Coo)
            .max_iterations(5)
            .seed(7)
            .run(&c, &t)
            .unwrap();
        for f in &res.kruskal.factors {
            assert!(f.data().iter().all(|&x| x >= 0.0));
        }
        assert!(res.stats.final_fit.is_finite());
        // Nonnegative data (RandomTensor values are in [0,1)) still fits.
        assert!(res.stats.final_fit > 0.0);
    }

    #[test]
    fn uncached_tensor_recomputes_every_mttkrp() {
        let t = RandomTensor::new(vec![10, 10, 10])
            .nnz(200)
            .seed(42)
            .build();
        let records_out_total = |cache: bool| {
            let c = cluster();
            let builder = CpAls::new(2)
                .strategy(Strategy::Coo)
                .max_iterations(2)
                .skip_fit()
                .seed(8);
            let builder = if cache {
                builder
            } else {
                builder.no_tensor_cache()
            };
            let _ = builder.run(&c, &t).unwrap();
            let m = c.metrics().snapshot();
            m.stages().map(|s| s.records_computed).sum::<u64>()
        };
        let cached = records_out_total(true);
        let uncached = records_out_total(false);
        // Without the cache every MTTKRP recomputes the source records on
        // top of its own work.
        assert!(uncached > cached, "uncached {uncached} vs cached {cached}");
    }

    #[test]
    fn shuffle_storage_stays_bounded_across_iterations() {
        let t = RandomTensor::new(vec![10, 10, 10])
            .nnz(150)
            .seed(43)
            .build();
        let c = cluster();
        for strategy in [Strategy::Coo, Strategy::Qcoo, Strategy::DfactoSpmv] {
            let _ = CpAls::new(2)
                .strategy(strategy)
                .max_iterations(5)
                .skip_fit()
                .seed(1)
                .run(&c, &t)
                .unwrap();
            // All shuffle outputs reclaimed by the per-iteration cleaner.
            assert_eq!(
                c.shuffle_service().live_shuffles(),
                0,
                "{strategy} leaked shuffles"
            );
        }
    }

    #[test]
    fn warm_start_resumes_from_given_factors() {
        let (t, _) = low_rank_tensor(&[12, 10, 8], 2, 500, 0.0, 45);
        let c = cluster();
        // Cold run for a few iterations.
        let first = CpAls::new(2)
            .strategy(Strategy::Coo)
            .max_iterations(4)
            .seed(11)
            .run(&c, &t)
            .unwrap();
        // Resume from its factors: one more iteration must not be worse.
        let resumed = CpAls::new(2)
            .strategy(Strategy::Coo)
            .max_iterations(1)
            .warm_start(first.kruskal.clone())
            .run(&cluster(), &t)
            .unwrap();
        assert!(
            resumed.stats.final_fit >= first.stats.final_fit - 1e-9,
            "resumed {} vs first {}",
            resumed.stats.final_fit,
            first.stats.final_fit
        );
        // And it matches simply running 5 cold iterations.
        let five = CpAls::new(2)
            .strategy(Strategy::Coo)
            .max_iterations(5)
            .seed(11)
            .run(&cluster(), &t)
            .unwrap();
        assert!((resumed.stats.final_fit - five.stats.final_fit).abs() < 1e-9);
    }

    #[test]
    fn warm_start_validates_shape_and_rank() {
        let t = RandomTensor::new(vec![6, 6, 6]).nnz(50).seed(46).build();
        let c = cluster();
        let wrong_rank = crate::CpAls::new(3)
            .max_iterations(1)
            .run(&c, &t)
            .unwrap()
            .kruskal;
        assert!(CpAls::new(2)
            .warm_start(wrong_rank)
            .run(&cluster(), &t)
            .is_err());
        let other = RandomTensor::new(vec![5, 6, 6]).nnz(50).seed(47).build();
        let wrong_shape = CpAls::new(2)
            .max_iterations(1)
            .run(&cluster(), &other)
            .unwrap()
            .kruskal;
        assert!(CpAls::new(2)
            .warm_start(wrong_shape)
            .run(&cluster(), &t)
            .is_err());
    }

    #[test]
    fn partitioning_levels_are_bit_identical() {
        // The three awareness levels only change *where* records travel,
        // never their per-partition order — factors must match bit-for-bit.
        let t = RandomTensor::new(vec![11, 9, 7]).nnz(300).seed(50).build();
        let run = |p: Partitioning, strategy: Strategy| {
            let c = cluster();
            CpAls::new(2)
                .strategy(strategy)
                .partitioning(p)
                .max_iterations(3)
                .skip_fit()
                .seed(13)
                .run(&c, &t)
                .unwrap()
                .kruskal
        };
        for strategy in [Strategy::Coo, Strategy::Qcoo, Strategy::DfactoSpmv] {
            let baseline = run(Partitioning::None, strategy);
            for level in [
                Partitioning::CoPartitionedFactors,
                Partitioning::PrePartitionedTensor,
            ] {
                let got = run(level, strategy);
                for (a, b) in baseline.factors.iter().zip(got.factors.iter()) {
                    for (x, y) in a.data().iter().zip(b.data().iter()) {
                        assert_eq!(
                            x.to_bits(),
                            y.to_bits(),
                            "{strategy}/{level} diverged from the shuffled path"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn partitioning_levels_reduce_shuffle_stages() {
        let t = RandomTensor::new(vec![11, 9, 7]).nnz(300).seed(51).build();
        let shuffles = |p: Partitioning| {
            let c = cluster();
            let _ = CpAls::new(2)
                .strategy(Strategy::Coo)
                .partitioning(p)
                .max_iterations(1)
                .skip_fit()
                .seed(13)
                .run(&c, &t)
                .unwrap();
            let m = c.metrics().snapshot();
            (m.shuffle_count(), m.skipped_shuffle_count())
        };
        // Order 3, one iteration = 3 MTTKRPs: 5/3/2 raw shuffle-map stages
        // each (Table 4 vs the narrowed paths).
        let (none, none_skipped) = shuffles(Partitioning::None);
        let (co, co_skipped) = shuffles(Partitioning::CoPartitionedFactors);
        let (pre, pre_skipped) = shuffles(Partitioning::PrePartitionedTensor);
        assert_eq!(none, 15);
        assert_eq!(none_skipped, 0);
        assert_eq!(co, 9);
        assert_eq!(co_skipped, 6);
        assert_eq!(pre, 6);
        assert_eq!(pre_skipped, 9);
    }

    #[test]
    fn pre_partitioned_tensor_cache_is_released() {
        let t = RandomTensor::new(vec![8, 8, 8]).nnz(100).seed(52).build();
        let c = cluster();
        let before = c.block_manager().len();
        let res = CpAls::new(2)
            .strategy(Strategy::Coo)
            .partitioning(Partitioning::PrePartitionedTensor)
            .max_iterations(2)
            .run(&c, &t)
            .unwrap();
        assert!(res.stats.final_fit.is_finite());
        assert_eq!(c.block_manager().len(), before, "pre-keyed blocks leaked");
    }

    #[test]
    fn cache_is_released_after_run() {
        let t = RandomTensor::new(vec![8, 8, 8]).nnz(100).seed(39).build();
        let c = cluster();
        let before = c.block_manager().len();
        let _ = CpAls::new(2)
            .strategy(Strategy::Qcoo)
            .max_iterations(2)
            .run(&c, &t)
            .unwrap();
        assert_eq!(c.block_manager().len(), before, "blocks leaked");
    }

    #[test]
    fn failed_run_releases_its_datasets() {
        // One NaN nonzero poisons the first factor update, so the run
        // fails from inside the mode loop, after the plan persisted its
        // datasets and set the mode's scope.
        let mut t = RandomTensor::new(vec![8, 8, 8]).nnz(100).seed(53).build();
        t.push(&[1, 2, 3], f64::NAN).unwrap();
        for strategy in [
            Strategy::Coo,
            Strategy::Qcoo,
            Strategy::CooBroadcast,
            Strategy::DfactoSpmv,
        ] {
            let c = cluster();
            let state = |c: &Cluster| {
                let blocks = c.block_manager();
                (blocks.len(), blocks.memory_bytes(), c.metrics().scope())
            };
            let before = state(&c);
            let failed = CpAls::new(2).strategy(strategy).run(&c, &t);
            assert!(failed.is_err(), "{strategy}: NaN input must fail the run");
            assert_eq!(state(&c), before, "{strategy}: failed run leaked");
        }
    }
}
