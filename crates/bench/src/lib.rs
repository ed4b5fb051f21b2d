//! The one experiment driver behind the CSTF experiment binaries.
//!
//! Every table and figure in the paper's evaluation section has a binary
//! in `src/bin/` that regenerates it (see DESIGN.md §3 for the index).
//! Each binary is only its experiment — which variants to run and what to
//! record. Everything else lives here: the standard argument block
//! ([`Setup`]), the dataset loop ([`Setup::datasets`]), the CP-ALS run
//! ([`RunSpec`]), the bit-identity bar ([`assert_bit_identical`]), the
//! time-model conversions, and the report writer ([`Report`], which
//! renders the same typed rows as table, CSV and JSON).
//!
//! These binaries report *modeled* seconds ([`TimeModel`]) and *counted*
//! bytes, records and stages. Measured wall time, allocations and
//! resident memory live in `perf/` (see `BENCHMARK.json`).

mod json;
mod report;
mod sim;

pub use json::Json;
pub use report::{write_json, Cell, Col, Report};
pub use sim::{offered_load, OfferedJob, OfferedLoadStats, PoolLoadStats};

use cstf_core::bigtensor::bigtensor_mttkrp;
use cstf_core::cost::Algorithm;
use cstf_core::factors::tensor_to_rdd;
use cstf_core::mttkrp::{mttkrp_coo, MttkrpOptions};
use cstf_core::qcoo::QcooState;
use cstf_core::{CpAls, CpResult, Partitioning, Strategy};
use cstf_dataflow::prelude::*;
use cstf_model::TimeModel;
use cstf_tensor::datasets::DatasetSpec;
use cstf_tensor::random::RandomTensor;
use cstf_tensor::{CooTensor, DenseMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The node counts of Figures 2 and 3.
pub const PAPER_NODE_COUNTS: [usize; 4] = [4, 8, 16, 32];

/// Iterations per timed run. The paper runs 20; experiment binaries
/// default to fewer to stay interactive (`--iters` overrides) and report
/// per-iteration averages either way.
pub const DEFAULT_ITERATIONS: usize = 2;

/// Rank used throughout the paper's evaluation ("the Rank of tensor
/// factorization fixed to 2", §6.3).
pub const PAPER_RANK: usize = 2;

/// Iterations the paper runs and averages over (§6.3). One-off costs
/// (tensor distribution, QCOO queue initialization) are amortized over
/// this count when reporting per-iteration times, exactly as averaging a
/// 20-iteration run does.
pub const PAPER_ITERATIONS: usize = 20;

/// Parses `--key value` (and bare `--flag`) arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: BTreeMap<String, String>,
}

impl Args {
    /// Parses the process arguments.
    pub fn from_env() -> Self {
        Self::parse_from(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (for tests).
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut values = BTreeMap::new();
        let mut it = args.into_iter().peekable();
        while let Some(arg) = it.next() {
            if let Some(key) = arg.strip_prefix("--") {
                let value = match it.peek() {
                    Some(next) if !next.starts_with("--") => it.next().unwrap(),
                    _ => String::from("true"),
                };
                values.insert(key.to_string(), value);
            }
        }
        Args { values }
    }

    /// String argument with default.
    pub fn get(&self, key: &str, default: &str) -> String {
        self.values
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Parsed argument with default.
    pub fn parse<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.values
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Whether a flag was passed.
    pub fn flag(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }
}

/// The standard argument block every experiment binary shares:
/// `--scale --seed --nodes --iters --tiny [--dataset NAME]`. Binaries read
/// their own extra flags from [`Setup::args`].
#[derive(Debug, Clone)]
pub struct Setup {
    /// All parsed arguments, for experiment-specific flags.
    pub args: Args,
    /// Dataset down-scaling factor (`--scale`).
    pub scale: f64,
    /// Seed for dataset generation and factor initialization (`--seed`).
    pub seed: u64,
    /// Simulated node count (`--nodes`).
    pub nodes: usize,
    /// CP-ALS iterations per run (`--iters`).
    pub iters: usize,
    /// CI smoke configuration (`--tiny`): one small synthetic tensor, and
    /// artifacts kept out of the committed `results/`.
    pub tiny: bool,
}

impl Setup {
    /// Parses the process arguments; `scale` and `nodes` are the
    /// experiment's defaults for the two values that differ per figure.
    pub fn from_env(scale: f64, nodes: usize) -> Setup {
        Setup::from_args(Args::from_env(), scale, nodes)
    }

    /// [`Setup::from_env`] over explicit arguments.
    pub fn from_args(args: Args, scale: f64, nodes: usize) -> Setup {
        Setup {
            scale: args.parse("scale", scale),
            seed: args.parse("seed", 0),
            nodes: args.parse("nodes", nodes),
            iters: args.parse("iters", DEFAULT_ITERATIONS),
            tiny: args.flag("tiny"),
            args,
        }
    }

    /// `paper_set` generated at `--scale` from `--seed`, by name.
    pub fn paper_datasets(&self, paper_set: &[DatasetSpec]) -> Vec<(String, CooTensor)> {
        paper_set
            .iter()
            .map(|spec| (spec.name.to_string(), spec.generate(self.scale, self.seed)))
            .collect()
    }

    /// The tensors an experiment with a smoke mode loops over: the one
    /// tiny synthetic under `--tiny`, else [`Setup::paper_datasets`].
    pub fn datasets(&self, paper_set: &[DatasetSpec]) -> Vec<(String, CooTensor)> {
        if !self.tiny {
            return self.paper_datasets(paper_set);
        }
        let tensor = RandomTensor::new(vec![30, 24, 18])
            .nnz(800)
            .seed(self.seed)
            .build();
        vec![("tiny_synth".to_string(), tensor)]
    }

    /// The figure binaries' `--dataset NAME` choice: that one paper
    /// dataset, or all of `paper_set` (the default, `all`).
    pub fn selected(&self, paper_set: &[DatasetSpec]) -> Vec<DatasetSpec> {
        match self.args.get("dataset", "all").as_str() {
            "all" => paper_set.to_vec(),
            name => {
                vec![DatasetSpec::by_name(name)
                    .unwrap_or_else(|| panic!("unknown dataset {name:?}"))]
            }
        }
    }

    /// The `--nodes a,b,c` sweep of Figures 2 and 3 (default
    /// [`PAPER_NODE_COUNTS`]).
    pub fn node_counts(&self) -> Vec<usize> {
        match self.args.values.get("nodes") {
            Some(list) => list
                .split(',')
                .filter_map(|s| s.trim().parse().ok())
                .collect(),
            None => PAPER_NODE_COUNTS.to_vec(),
        }
    }

    /// Directory artifacts (CSV, JSON) are written to (created on demand):
    /// see `artifact_dir`, with `CSTF_RESULTS_DIR` as the override.
    pub fn results_dir(&self) -> PathBuf {
        let dir = artifact_dir(std::env::var("CSTF_RESULTS_DIR").ok(), self.tiny);
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
        dir
    }
}

/// Where artifacts go: the explicit override if set, else
/// `target/bench-tiny` for a `--tiny` run — a smoke run never touches the
/// committed reports — else `results`.
fn artifact_dir(override_dir: Option<String>, tiny: bool) -> PathBuf {
    match override_dir {
        Some(dir) => PathBuf::from(dir),
        None if tiny => PathBuf::from("target/bench-tiny"),
        None => PathBuf::from("results"),
    }
}

/// One CP-ALS run of an experiment: which pipeline, on which simulated
/// cluster. Fields not named by an experiment keep [`CpAls`]'s and
/// [`ClusterConfig`]'s defaults (see [`RunSpec::new`]).
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// MTTKRP pipeline.
    pub strategy: Strategy,
    /// Partitioner-awareness level.
    pub partitioning: Partitioning,
    /// Storage level of the run's persisted datasets.
    pub storage: StorageLevel,
    /// Decomposition rank.
    pub rank: usize,
    /// Simulated node count.
    pub nodes: usize,
    /// ALS iterations (fit evaluation is skipped).
    pub iters: usize,
    /// Factor-initialization seed.
    pub seed: u64,
    /// Fault-injection schedule, if the run is a chaos run.
    pub faults: Option<FaultConfig>,
    /// Block-manager memory budget in bytes, if bounded.
    pub budget: Option<u64>,
    /// Force one stage at a time instead of concurrent DAG waves.
    pub sequential: bool,
}

impl RunSpec {
    /// The paper's configuration: rank [`PAPER_RANK`], a quiet unbounded
    /// cluster, and the solver's default partitioning and storage.
    pub fn new(strategy: Strategy, nodes: usize, iters: usize, seed: u64) -> RunSpec {
        RunSpec {
            strategy,
            partitioning: Partitioning::CoPartitionedFactors,
            storage: StorageLevel::MemoryRaw,
            rank: PAPER_RANK,
            nodes,
            iters,
            seed,
            faults: None,
            budget: None,
            sequential: false,
        }
    }

    /// The same run under the ablations' crash schedule: a tenth of first
    /// task attempts fail and are retried.
    pub fn under_chaos(&self) -> RunSpec {
        RunSpec {
            faults: Some(FaultConfig::crashes(self.seed.wrapping_add(17), 0.1)),
            ..self.clone()
        }
    }

    /// A fresh simulated cluster for this run.
    pub fn cluster(&self) -> Cluster {
        let mut config = ClusterConfig::auto().nodes(self.nodes);
        if self.sequential {
            config = config.sequential_stages();
        }
        if let Some(budget) = self.budget {
            config = config.memory_budget(budget);
        }
        if let Some(faults) = &self.faults {
            config = config.faults(faults.clone());
        }
        Cluster::new(config)
    }

    /// The configured solver.
    pub fn solver(&self) -> CpAls {
        CpAls::new(self.rank)
            .strategy(self.strategy)
            .partitioning(self.partitioning)
            .tensor_storage(self.storage)
            .max_iterations(self.iters)
            .skip_fit()
            .seed(self.seed)
    }

    /// Runs on `cluster` (shared with other jobs, or inspected afterwards).
    pub fn run_on(&self, cluster: &Cluster, tensor: &CooTensor) -> CpResult {
        self.solver()
            .run(cluster, tensor)
            .expect("CP-ALS run failed")
    }

    /// Runs on a fresh cluster, returning its metrics log and the result.
    pub fn run(&self, tensor: &CooTensor) -> (JobMetrics, CpResult) {
        let cluster = self.cluster();
        let result = self.run_on(&cluster, tensor);
        (cluster.metrics().snapshot(), result)
    }
}

/// The bit-identity bar of the ablations: weights and every factor entry
/// of `b` must equal `a` bit for bit, or the experiment aborts.
pub fn assert_bit_identical(a: &CpResult, b: &CpResult, what: &str) {
    let bits = |r: &CpResult| -> Vec<u64> {
        let factors = r.kruskal.factors.iter().flat_map(|f| f.data().iter());
        let values = r.kruskal.weights.iter().chain(factors);
        values.map(|x| x.to_bits()).collect()
    };
    assert!(bits(a) == bits(b), "{what}: factors diverged");
}

/// Seeded random factor matrices for the single-MTTKRP experiments.
pub fn random_factors(shape: &[u32], rank: usize, seed: u64) -> Vec<DenseMatrix> {
    let mut rng = StdRng::seed_from_u64(seed);
    shape
        .iter()
        .map(|&s| DenseMatrix::random(s as usize, rank, &mut rng))
        .collect()
}

/// Runs one steady-state mode-1 MTTKRP of `algorithm` (Table 2's three
/// columns) on a 3rd-order tensor and returns the metrics of that MTTKRP
/// alone: distributing and caching the tensor and initializing QCOO's
/// queues happen before the log is reset.
pub fn mode1_mttkrp(
    algorithm: Algorithm,
    cluster: &Cluster,
    tensor: &CooTensor,
    factors: &[DenseMatrix],
    partitions: usize,
) -> JobMetrics {
    let (shape, rank) = (tensor.shape(), factors[0].cols());
    let rdd = tensor_to_rdd(cluster, tensor, partitions);
    let cached = || {
        let rdd = rdd.persist(StorageLevel::MemoryRaw);
        let _ = rdd.count();
        rdd
    };
    match algorithm {
        Algorithm::CstfCoo => {
            let rdd = cached();
            cluster.metrics().reset();
            mttkrp_coo(cluster, &rdd, factors, shape, 0, &MttkrpOptions::default())
                .expect("COO MTTKRP");
        }
        Algorithm::CstfQcoo => {
            let mut q = QcooState::init(cluster, &cached(), factors, shape, rank, partitions)
                .expect("QCOO init");
            cluster.metrics().reset();
            q.step(&factors[2]).expect("QCOO step");
        }
        Algorithm::BigTensor => {
            cluster.metrics().reset();
            bigtensor_mttkrp(cluster, &rdd, factors, shape, 0, partitions)
                .expect("BIGtensor MTTKRP");
        }
        other => panic!("{other} is not a column of Table 2"),
    }
    cluster.metrics().snapshot()
}

/// Figures 2 and 3 — modeled seconds per CP-ALS iteration vs cluster size
/// for CSTF-COO and CSTF-QCOO on every dataset of `paper_set` (or the one
/// `--dataset` names), against BIGtensor where it exists (`bigtensor`:
/// 3rd order only; 4th-order runs use COO as the baseline, §6.3). Writes
/// `<file>_<dataset>.csv`.
pub fn runtime_vs_nodes(
    title: &str,
    file: &str,
    setup: &Setup,
    paper_set: &[DatasetSpec],
    bigtensor: bool,
) {
    let (iters, seed) = (setup.iters, setup.seed);
    let (spark, hadoop) = (spark_model(setup.scale), hadoop_model(setup.scale));
    let mut cols = vec![
        Col::new("nodes", "nodes"),
        Col::new("COO (s)", "coo_s"),
        Col::new("QCOO (s)", "qcoo_s"),
    ];
    if bigtensor {
        cols.push(Col::new("BIGtensor (s)", "bigtensor_s"));
        cols.push(Col::new("COO speedup", "coo_speedup"));
        cols.push(Col::new("QCOO speedup", "qcoo_speedup"));
        cols.push(Col::new("QCOO vs COO", "qcoo_vs_coo"));
    } else {
        cols.push(Col::new("QCOO speedup", "qcoo_speedup"));
    }
    for (name, tensor) in setup.paper_datasets(&setup.selected(paper_set)) {
        heading(&format!("{title} @ 1/{:.0}", setup.scale), &name, &tensor);
        let mut report = Report::new(cols.clone());
        for n in setup.node_counts() {
            let secs = |strategy| {
                let (metrics, _) = RunSpec::new(strategy, n, iters, seed).run(&tensor);
                per_iteration_secs_amortized(&spark, &metrics, iters)
            };
            let (t_coo, t_qcoo) = (secs(Strategy::Coo), secs(Strategy::Qcoo));
            let mut row = vec![n.into(), Cell::fixed(t_coo, 1), Cell::fixed(t_qcoo, 1)];
            if bigtensor {
                let (m_big, _) = run_bigtensor(&tensor, n, iters, seed);
                let t_big = per_iteration_secs_amortized(&hadoop, &m_big, iters);
                row.push(Cell::fixed(t_big, 1));
                row.push(Cell::fixed(t_big / t_coo, 2));
                row.push(Cell::fixed(t_big / t_qcoo, 2));
            }
            row.push(Cell::fixed(t_coo / t_qcoo, 2));
            report.row(row);
        }
        report.print();
        report.write_csv(&setup.results_dir(), &format!("{file}_{name}"));
    }
}

/// Prints the heading an experiment opens each dataset's table with.
pub fn heading(title: &str, name: &str, tensor: &CooTensor) {
    println!(
        "\n=== {title}: {name} (shape {:?}, nnz {}) ===",
        tensor.shape(),
        tensor.nnz()
    );
}

/// Shuffle bytes (remote + local) moved inside the `MTTKRP-*` scopes of a
/// run: steady-state traffic, excluding one-off tensor distribution and
/// queue initialization.
pub fn mttkrp_shuffle_bytes(metrics: &JobMetrics) -> u64 {
    metrics
        .shuffle_bytes_by_scope()
        .into_iter()
        .filter(|(scope, _, _)| scope.starts_with("MTTKRP"))
        .map(|(_, remote, local)| remote + local)
        .sum()
}

/// A timed BIGtensor run (3rd-order only).
pub fn run_bigtensor(
    tensor: &CooTensor,
    nodes: usize,
    iters: usize,
    seed: u64,
) -> (JobMetrics, CpResult) {
    let cluster = Cluster::new(ClusterConfig::auto().nodes(nodes));
    let result = cstf_core::bigtensor::bigtensor_cp(&cluster, tensor, PAPER_RANK, iters, seed)
        .expect("BIGtensor run failed");
    (cluster.metrics().snapshot(), result)
}

/// Per-iteration simulated seconds the way the paper reports them:
/// per-MTTKRP scopes divide by the executed iteration count; one-off
/// "Other" costs (tensor distribution, queue initialization) divide by
/// [`PAPER_ITERATIONS`], reproducing the amortization of averaging a
/// 20-iteration run without having to execute all 20.
pub fn per_iteration_secs_amortized(model: &TimeModel, metrics: &JobMetrics, iters: usize) -> f64 {
    let iters = iters.max(1) as f64;
    model
        .scope_times(metrics)
        .into_iter()
        .map(|(scope, secs)| {
            if scope.starts_with("MTTKRP") {
                secs / iters
            } else {
                secs / PAPER_ITERATIONS as f64
            }
        })
        .sum()
}

/// The Spark time model scaled for a dataset run at `scale`.
pub fn spark_model(scale: f64) -> TimeModel {
    TimeModel::spark().with_work_scale(scale)
}

/// The Hadoop time model scaled for a dataset run at `scale`.
pub fn hadoop_model(scale: f64) -> TimeModel {
    TimeModel::hadoop().with_work_scale(scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_pairs_and_flags() {
        let a = Args::parse_from(
            ["--dataset", "nell1", "--scale", "100", "--verbose"]
                .iter()
                .map(|s| s.to_string()),
        );
        assert_eq!(a.get("dataset", "x"), "nell1");
        assert_eq!(a.parse("scale", 0.0f64), 100.0);
        assert!(a.flag("verbose"));
        assert!(!a.flag("quiet"));
        assert_eq!(a.get("missing", "dflt"), "dflt");
        assert_eq!(a.parse("missing", 7u32), 7);
    }

    #[test]
    fn args_bad_parse_falls_back() {
        let a = Args::parse_from(["--scale", "abc"].iter().map(|s| s.to_string()));
        assert_eq!(a.parse("scale", 5u32), 5);
    }

    fn tiny() -> CooTensor {
        RandomTensor::new(vec![10, 10, 10]).nnz(100).seed(1).build()
    }

    fn setup(args: &[&str]) -> Setup {
        Setup::from_args(
            Args::parse_from(args.iter().map(|s| s.to_string())),
            4000.0,
            8,
        )
    }

    #[test]
    fn setup_reads_the_standard_block() {
        let s = setup(&["--seed", "3", "--nodes", "4,16", "--tiny"]);
        assert_eq!((s.scale, s.seed, s.iters), (4000.0, 3, DEFAULT_ITERATIONS));
        assert_eq!(s.nodes, 8, "a list is not a count: the default stands");
        assert_eq!(s.node_counts(), vec![4, 16]);
        assert!(s.tiny);
        assert_eq!(setup(&[]).node_counts(), PAPER_NODE_COUNTS.to_vec());
    }

    #[test]
    fn datasets_follow_tiny_and_dataset_flags() {
        use cstf_tensor::datasets::THIRD_ORDER;
        let names = |s: &Setup| -> Vec<String> {
            let sets = s.datasets(&THIRD_ORDER);
            sets.into_iter().map(|(name, _)| name).collect()
        };
        assert_eq!(names(&setup(&["--tiny"])), ["tiny_synth"]);
        let scaled = setup(&["--scale", "200000"]);
        assert_eq!(names(&scaled), ["delicious3d", "nell1", "synt3d"]);
        assert_eq!(scaled.selected(&THIRD_ORDER), THIRD_ORDER.to_vec());
        let one = setup(&["--dataset", "flickr"]);
        assert_eq!(one.selected(&THIRD_ORDER)[0].name, "flickr");
    }

    #[test]
    fn tiny_runs_stay_out_of_results() {
        assert_eq!(artifact_dir(None, true), PathBuf::from("target/bench-tiny"));
        assert_eq!(artifact_dir(None, false), PathBuf::from("results"));
        let elsewhere = Some("/tmp/x".to_string());
        assert_eq!(artifact_dir(elsewhere, true), PathBuf::from("/tmp/x"));
    }

    #[test]
    fn run_spec_produces_metrics() {
        let (m, res) = RunSpec::new(Strategy::Qcoo, 4, 1, 0).run(&tiny());
        assert!(m.shuffle_count() > 0);
        assert!(mttkrp_shuffle_bytes(&m) > 0);
        assert!(mttkrp_shuffle_bytes(&m) < m.total_shuffle_bytes());
        assert_eq!(res.stats.iterations, 1);
        assert!(per_iteration_secs_amortized(&spark_model(10.0), &m, 1) > 0.0);
    }

    #[test]
    fn run_spec_variants_are_bit_identical() {
        // Every knob of the spec changes how the run executes, never what
        // it computes.
        let t = tiny();
        let base = RunSpec::new(Strategy::Coo, 4, 2, 5);
        let (_, reference) = base.run(&t);
        let variants = [
            RunSpec {
                partitioning: Partitioning::PrePartitionedTensor,
                sequential: true,
                ..base.clone()
            },
            RunSpec {
                storage: StorageLevel::MemoryAndDisk,
                budget: Some(4096),
                ..base.under_chaos()
            },
        ];
        for (i, spec) in variants.iter().enumerate() {
            let (_, result) = spec.run(&t);
            assert_bit_identical(&reference, &result, &format!("variant {i}"));
        }
    }

    #[test]
    #[should_panic(expected = "other seed: factors diverged")]
    fn bit_identity_bar_catches_divergence() {
        let t = tiny();
        let (_, a) = RunSpec::new(Strategy::Coo, 4, 1, 0).run(&t);
        let (_, b) = RunSpec::new(Strategy::Coo, 4, 1, 1).run(&t);
        assert_bit_identical(&a, &b, "other seed");
    }

    #[test]
    fn mode1_mttkrp_counts_table4_shuffles() {
        let t = tiny();
        let factors = random_factors(t.shape(), 2, 7);
        let shuffles = |algorithm| {
            let c = Cluster::new(ClusterConfig::local(2).nodes(4));
            mode1_mttkrp(algorithm, &c, &t, &factors, 8).significant_shuffle_count(50)
        };
        // Table 4, 3rd order: 3 / 2 / 4 tensor-sized shuffles.
        assert_eq!(shuffles(Algorithm::CstfCoo), 3);
        assert_eq!(shuffles(Algorithm::CstfQcoo), 2);
        assert_eq!(shuffles(Algorithm::BigTensor), 4);
    }

    #[test]
    fn run_bigtensor_produces_jobs() {
        let (m, _) = run_bigtensor(&tiny(), 4, 1, 0);
        assert!(m.job_count() > 0);
        assert!(m.total_disk_read() > 0);
    }
}
