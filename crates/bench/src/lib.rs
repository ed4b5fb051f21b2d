//! The one experiment driver behind `figures`, the binary that
//! regenerates every table and figure of the CSTF paper's evaluation.
//!
//! Each artifact, and each ablation beside them, is one row of the
//! experiment table `EXPERIMENTS` (DESIGN.md §3 is the index): its name,
//! its default and smallest arguments, and the function that runs it
//! (module `paper` for the paper's artifacts, `ablations` for the rest).
//! Each function is only its experiment — which variants to run and what
//! to record. Everything else lives here: the command line (`main`), the
//! standard argument block (`Setup`), the dataset loop
//! (`Setup::datasets`), the CP-ALS run (`RunSpec`), the bit-identity bar
//! (`assert_bit_identical`), the time-model conversions, and the report
//! writer (`Report`, which renders the same typed rows as table, CSV and
//! JSON).
//!
//! The experiments report *modeled* seconds (`cstf_model::TimeModel`) and
//! *counted* bytes, records and stages. Measured wall time, allocations
//! and resident memory live in `perf/` (see `BENCHMARK.json`).

mod ablations;
mod json;
mod paper;
mod report;
mod sim;

use json::Json;
use report::{write_json, Cell, Col, Report};

use cstf_core::factors::tensor_to_rdd;
use cstf_core::planner::plan;
use cstf_core::{CpAls, CpResult, Partitioning, PlanConfig, Strategy};
use cstf_dataflow::prelude::*;
use cstf_model::TimeModel;
use cstf_tensor::datasets::DatasetSpec;
use cstf_tensor::random::RandomTensor;
use cstf_tensor::{CooTensor, DenseMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// The node counts of Figures 2 and 3.
const PAPER_NODE_COUNTS: [usize; 4] = [4, 8, 16, 32];

/// Iterations per timed run. The paper runs 20; experiments default to
/// fewer to stay interactive (`--iters` overrides) and report
/// per-iteration averages either way.
const DEFAULT_ITERATIONS: usize = 2;

/// Rank used throughout the paper's evaluation ("the Rank of tensor
/// factorization fixed to 2", §6.3).
const PAPER_RANK: usize = 2;

/// Iterations the paper runs and averages over (§6.3). One-off costs
/// (tensor distribution, QCOO queue initialization) are amortized over
/// this count when reporting per-iteration times, exactly as averaging a
/// 20-iteration run does.
const PAPER_ITERATIONS: usize = 20;

/// Smallest arguments of the experiments with a smoke mode: one small
/// synthetic tensor (or shrunken datasets) on four nodes, one iteration.
const TINY: &str = "--tiny --seed 0 --nodes 4 --iters 1";

/// Smallest arguments of the others: their datasets at 1/20 000, one
/// iteration.
const SMALL: &str = "--seed 0 --iters 1 --scale 20000";

/// One row of the experiment table: the experiment's name (on the command
/// line and in its JSON report), its default `--scale`, `--nodes` and
/// `--iters`, the arguments `--tiny` runs it at, and its function.
#[derive(Debug)]
struct Experiment {
    name: &'static str,
    scale: f64,
    /// One count, or the counts a row sweeps; only such a row takes a list.
    nodes: &'static [usize],
    iters: usize,
    /// [`TINY`] or [`SMALL`].
    smallest: &'static str,
    run: fn(&Setup),
}

macro_rules! row {
    ($module:ident::$name:ident, $scale:expr, $nodes:expr, $iters:expr, $smallest:expr) => {
        Experiment {
            name: stringify!($name),
            scale: $scale,
            nodes: $nodes,
            iters: $iters,
            smallest: $smallest,
            run: $module::$name,
        }
    };
}

/// Every experiment `figures` runs: the paper's seven artifacts and its §5
/// claim, then the ablations. A row reads only the values its experiment
/// uses; the rest of its defaults stand unread.
static EXPERIMENTS: [Experiment; 18] = [
    row!(paper::fig2_runtime, 2000.0, &PAPER_NODE_COUNTS, 2, SMALL),
    row!(paper::fig3_runtime4d, 4000.0, &PAPER_NODE_COUNTS, 2, SMALL),
    row!(paper::fig4_comm, 2000.0, &[8], 2, SMALL),
    row!(paper::fig5_modes, 4000.0, &[4], 2, SMALL),
    row!(paper::table2_workflow, 1.0, &[4], 2, SMALL),
    row!(paper::table4_cost, 4000.0, &[8], 2, SMALL),
    row!(paper::table5_datasets, 2000.0, &[0], 2, SMALL),
    row!(paper::order_sweep, 1.0, &[8], 2, SMALL),
    row!(ablations::ablation_caching, 4000.0, &[8], 3, SMALL),
    row!(ablations::ablation_combine, 4000.0, &[8], 2, SMALL),
    row!(ablations::ablation_jobserver, 10.0, &[4], 2, TINY),
    row!(ablations::ablation_memory, 4000.0, &[8], 2, TINY),
    row!(ablations::ablation_partitioning, 4000.0, &[8], 2, TINY),
    row!(ablations::ablation_rank, 4000.0, &[8], 2, SMALL),
    row!(ablations::ablation_scheduler, 4000.0, &[4], 2, TINY),
    row!(ablations::ablation_skew, 2000.0, &[8], 2, SMALL),
    row!(ablations::ablation_spmv, 4000.0, &[8], 2, TINY),
    row!(ablations::ablation_strategies, 4000.0, &[8], 2, SMALL),
];

const USAGE: &str = "\
usage: figures <experiment>... | all  [--scale S] [--seed N] [--nodes N] [--iters N]
                                     [--dataset NAME] [--tiny]

Runs rows of the experiment table (DESIGN.md §3) into results/. --tiny runs
each row at its smallest arguments, which the values given override, into
target/bench-tiny/ (CSTF_RESULTS_DIR overrides both directories). --nodes
takes a list (4,8) where its default is one; --dataset (all or a dataset
name) is read by fig2, fig3 and fig5. A row reads only the values its
experiment uses.

experiment               --scale    --nodes  --iters  smallest arguments
";

/// `figures`' command line (see `USAGE`): runs the named experiments and
/// returns the exit status, 2 for an argument it cannot use — an unknown
/// flag or experiment, or a value that does not parse — named on stderr
/// before anything runs.
pub fn main(argv: impl IntoIterator<Item = String>) -> ExitCode {
    let args = Args::parse_from(argv);
    if args.flag("help") {
        print!("{}", help());
        return ExitCode::SUCCESS;
    }
    match runs(&args) {
        Ok(runs) => {
            for (experiment, setup) in runs {
                (experiment.run)(&setup);
            }
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprint!("figures: {message}\n\n{}", help());
            ExitCode::from(2)
        }
    }
}

fn help() -> String {
    let mut text = USAGE.to_string();
    for e in &EXPERIMENTS {
        let nodes: Vec<String> = e.nodes.iter().map(usize::to_string).collect();
        text += &format!(
            "{:<22} {:>9} {:>10} {:>8}  {}\n",
            e.name,
            e.scale,
            nodes.join(","),
            e.iters,
            e.smallest
        );
    }
    text
}

/// The experiments `args` names, each with its checked [`Setup`]: the
/// row's defaults, then under `--tiny` its smallest arguments, then the
/// values on the command line.
fn runs(args: &Args) -> Result<Vec<(&'static Experiment, Setup)>, String> {
    let mut runs = Vec::new();
    for name in &args.names {
        let rows = EXPERIMENTS
            .iter()
            .filter(|e| name == "all" || e.name == name);
        let before = runs.len();
        for row in rows {
            let smallest = if args.flag("tiny") { row.smallest } else { "" };
            let mut row_args = Args::parse_from(smallest.split_whitespace().map(String::from));
            row_args.values.extend(args.values.clone());
            let setup = row
                .setup(row_args)
                .map_err(|e| format!("{}: {e}", row.name))?;
            runs.push((row, setup));
        }
        if runs.len() == before {
            return Err(format!("unknown experiment {name:?}"));
        }
    }
    if runs.is_empty() {
        return Err("no experiment named (or `all`)".to_string());
    }
    Ok(runs)
}

impl Experiment {
    /// This row's [`Setup`] from `args`, which may hold the standard block
    /// only, every value parsing (a `--nodes` list only on a row that
    /// sweeps node counts).
    fn setup(&self, args: Args) -> Result<Setup, String> {
        for (key, value) in &args.values {
            let parses = match key.as_str() {
                "scale" => value.parse::<f64>().is_ok(),
                "seed" => value.parse::<u64>().is_ok(),
                "iters" => value.parse::<usize>().is_ok(),
                "nodes" if self.nodes.len() > 1 => {
                    value.split(',').all(|n| n.trim().parse::<usize>().is_ok())
                }
                "nodes" => value.parse::<usize>().is_ok(),
                "dataset" => value == "all" || DatasetSpec::by_name(value).is_some(),
                "tiny" => true,
                _ => return Err(format!("unknown flag --{key}")),
            };
            if !parses {
                return Err(format!("bad value {value:?} for --{key}"));
            }
        }
        Ok(Setup {
            iters: args.parse("iters", self.iters),
            experiment: self.name,
            ..Setup::from_args(args, self.scale, self.nodes[0])
        })
    }
}

/// Flags that never take a value.
const FLAGS: [&str; 2] = ["tiny", "help"];

/// Parses `--key value` and bare `--flag` arguments, and the positional
/// words between them.
#[derive(Debug, Clone, Default)]
struct Args {
    values: BTreeMap<String, String>,
    names: Vec<String>,
}

impl Args {
    /// Parses an argument list. A key is bare when it is in [`FLAGS`] or
    /// no value follows it.
    fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut parsed = Args::default();
        let mut it = args.into_iter().peekable();
        while let Some(arg) = it.next() {
            let Some(key) = arg.strip_prefix("--") else {
                parsed.names.push(arg);
                continue;
            };
            let value = if FLAGS.contains(&key) {
                None
            } else {
                it.next_if(|next| !next.starts_with("--"))
            };
            let value = value.unwrap_or_else(|| String::from("true"));
            parsed.values.insert(key.to_string(), value);
        }
        parsed
    }

    /// String argument with default.
    fn get(&self, key: &str, default: &str) -> String {
        self.values
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Parsed argument, or `default` when it is absent or does not parse
    /// ([`Experiment::setup`] has refused every such value but a sweep's
    /// `--nodes` list, where the default count stands).
    fn parse<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.values
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    /// Whether a flag was passed.
    fn flag(&self, key: &str) -> bool {
        self.values.contains_key(key)
    }
}

/// The standard argument block every experiment shares:
/// `--scale --seed --nodes --iters --tiny [--dataset NAME]`.
#[derive(Debug, Clone)]
struct Setup {
    /// All parsed arguments (`--nodes` lists and `--dataset`).
    args: Args,
    /// The experiment's name ([`Experiment::setup`]; empty otherwise).
    experiment: &'static str,
    /// Dataset down-scaling factor (`--scale`).
    scale: f64,
    /// Seed for dataset generation and factor initialization (`--seed`).
    seed: u64,
    /// Simulated node count (`--nodes`).
    nodes: usize,
    /// CP-ALS iterations per run (`--iters`).
    iters: usize,
    /// CI smoke configuration (`--tiny`): one small synthetic tensor, and
    /// artifacts kept out of the committed `results/`.
    tiny: bool,
}

impl Setup {
    /// The block read from `args`; `scale` and `nodes` are the
    /// experiment's defaults for the two values that differ per figure.
    fn from_args(args: Args, scale: f64, nodes: usize) -> Setup {
        Setup {
            experiment: "",
            scale: args.parse("scale", scale),
            seed: args.parse("seed", 0),
            nodes: args.parse("nodes", nodes),
            iters: args.parse("iters", DEFAULT_ITERATIONS),
            tiny: args.flag("tiny"),
            args,
        }
    }

    /// `paper_set` generated at `--scale` from `--seed`, by name.
    fn paper_datasets(&self, paper_set: &[DatasetSpec]) -> Vec<(String, CooTensor)> {
        paper_set
            .iter()
            .map(|spec| (spec.name.to_string(), spec.generate(self.scale, self.seed)))
            .collect()
    }

    /// The tensors an experiment with a smoke mode loops over: the one
    /// tiny synthetic under `--tiny`, else [`Setup::paper_datasets`].
    fn datasets(&self, paper_set: &[DatasetSpec]) -> Vec<(String, CooTensor)> {
        if !self.tiny {
            return self.paper_datasets(paper_set);
        }
        let tensor = RandomTensor::new(vec![30, 24, 18])
            .nnz(800)
            .seed(self.seed)
            .build();
        vec![("tiny_synth".to_string(), tensor)]
    }

    /// The figures' `--dataset NAME` choice: that one paper dataset, or
    /// all of `paper_set` (the default, `all`).
    fn selected(&self, paper_set: &[DatasetSpec]) -> Vec<DatasetSpec> {
        match self.args.get("dataset", "all").as_str() {
            "all" => paper_set.to_vec(),
            name => {
                vec![DatasetSpec::by_name(name)
                    .unwrap_or_else(|| panic!("unknown dataset {name:?}"))]
            }
        }
    }

    /// The `--nodes a,b,c` sweep of Figures 2 and 3 (default
    /// [`PAPER_NODE_COUNTS`]). Panics on a token that is not a count.
    fn node_counts(&self) -> Vec<usize> {
        match self.args.values.get("nodes") {
            Some(list) => list
                .split(',')
                .map(|s| {
                    s.trim()
                        .parse()
                        .unwrap_or_else(|_| panic!("bad --nodes entry {s:?} in {list:?}"))
                })
                .collect(),
            None => PAPER_NODE_COUNTS.to_vec(),
        }
    }

    /// Directory artifacts (CSV, JSON) are written to (created on demand):
    /// see `artifact_dir`, with `CSTF_RESULTS_DIR` as the override.
    fn results_dir(&self) -> PathBuf {
        let dir = artifact_dir(std::env::var("CSTF_RESULTS_DIR").ok(), self.tiny);
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
        dir
    }

    /// Writes the experiment's `BENCH_<name>.json`, `<name>` being its
    /// name less `ablation_`: `experiment`, then `head`, then the standard
    /// values `block` names in that order (`rank` is [`PAPER_RANK`],
    /// `iterations` is `--iters`), then `tail`.
    fn write_bench<const H: usize, const T: usize>(
        &self,
        head: [(&'static str, Json); H],
        block: &[&'static str],
        tail: [(&'static str, Json); T],
    ) {
        let standard = block.iter().map(|&key| {
            let value: Json = match key {
                "rank" => PAPER_RANK.into(),
                "scale" => self.scale.into(),
                "seed" => self.seed.into(),
                "nodes" => self.nodes.into(),
                "iterations" => self.iters.into(),
                "tiny" => self.tiny.into(),
                other => unreachable!("{other} is not in the standard block"),
            };
            (key, value)
        });
        let experiment = ("experiment", Json::from(self.experiment));
        let members = std::iter::once(experiment).chain(head).chain(standard);
        let name = self.experiment.trim_start_matches("ablation_");
        write_json(&self.results_dir(), name, &Json::obj(members.chain(tail)));
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

/// One dataset's entry in a `BENCH_*.json`: its name and nonzero count,
/// then `members`.
fn dataset_json<const N: usize>(
    name: String,
    tensor: &CooTensor,
    members: [(&'static str, Json); N],
) -> Json {
    let head = [("dataset", Json::from(name)), ("nnz", tensor.nnz().into())];
    Json::obj(head.into_iter().chain(members))
}

/// One CP-ALS run of an experiment: which pipeline, on which simulated
/// cluster. Fields not named by an experiment keep [`CpAls`]'s and
/// [`ClusterConfig`]'s defaults (see [`RunSpec::new`]).
#[derive(Debug, Clone)]
struct RunSpec {
    /// MTTKRP pipeline.
    strategy: Strategy,
    /// Partitioner-awareness level.
    partitioning: Partitioning,
    /// Storage level of the run's persisted datasets.
    storage: StorageLevel,
    /// Decomposition rank.
    rank: usize,
    /// Simulated node count.
    nodes: usize,
    /// ALS iterations (fit evaluation is skipped).
    iters: usize,
    /// Factor-initialization seed.
    seed: u64,
    /// Fault-injection schedule, if the run is a chaos run.
    faults: Option<FaultConfig>,
    /// Block-manager memory budget in bytes, if bounded.
    budget: Option<u64>,
    /// Force one stage at a time instead of concurrent DAG waves.
    sequential: bool,
}

impl RunSpec {
    /// The paper's configuration: rank [`PAPER_RANK`], a quiet unbounded
    /// cluster, and the solver's default partitioning and storage.
    fn new(strategy: Strategy, nodes: usize, iters: usize, seed: u64) -> RunSpec {
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
    fn under_chaos(&self) -> RunSpec {
        RunSpec {
            faults: Some(FaultConfig::crashes(self.seed.wrapping_add(17), 0.1)),
            ..self.clone()
        }
    }

    /// A fresh simulated cluster for this run.
    fn cluster(&self) -> Cluster {
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
    fn solver(&self) -> CpAls {
        CpAls::new(self.rank)
            .strategy(self.strategy)
            .partitioning(self.partitioning)
            .tensor_storage(self.storage)
            .max_iterations(self.iters)
            .skip_fit()
            .seed(self.seed)
    }

    /// Runs on `cluster` (shared with other jobs, or inspected afterwards).
    fn run_on(&self, cluster: &Cluster, tensor: &CooTensor) -> CpResult {
        self.solver()
            .run(cluster, tensor)
            .expect("CP-ALS run failed")
    }

    /// Runs on a fresh cluster, returning its metrics log and the result.
    fn run(&self, tensor: &CooTensor) -> (JobMetrics, CpResult) {
        let cluster = self.cluster();
        let result = self.run_on(&cluster, tensor);
        (cluster.metrics().snapshot(), result)
    }
}

/// The bit-identity bar of the ablations: weights and every factor entry
/// of `b` must equal `a` bit for bit, or the experiment aborts.
fn assert_bit_identical(a: &CpResult, b: &CpResult, what: &str) {
    let bits = |r: &CpResult| -> Vec<u64> {
        let factors = r.kruskal.factors.iter().flat_map(|f| f.data().iter());
        let values = r.kruskal.weights.iter().chain(factors);
        values.map(|x| x.to_bits()).collect()
    };
    assert!(bits(a) == bits(b), "{what}: factors diverged");
}

/// Seeded random factor matrices for the single-MTTKRP experiments.
fn random_factors(shape: &[u32], rank: usize, seed: u64) -> Vec<DenseMatrix> {
    let mut rng = StdRng::seed_from_u64(seed);
    shape
        .iter()
        .map(|&s| DenseMatrix::random(s as usize, rank, &mut rng))
        .collect()
}

/// Runs one steady-state mode-1 MTTKRP of `strategy` (Table 2's columns)
/// on a 3rd-order tensor through the planner, with `partitions` for the
/// tensor and every join, and returns the metrics of that MTTKRP alone:
/// distributing and caching the tensor and initializing QCOO's queues
/// happen before the log is reset (BIGtensor caches nothing and re-reads
/// its source inside the MTTKRP, as on Hadoop).
fn mode1_mttkrp(
    strategy: Strategy,
    cluster: &Cluster,
    tensor: &CooTensor,
    factors: &[DenseMatrix],
    partitions: usize,
) -> JobMetrics {
    let config = PlanConfig {
        rank: factors[0].cols(),
        partitions,
        partitioning: Partitioning::CoPartitionedFactors,
        kernel: KernelStrategy::default(),
        cache_tensor: true,
        storage: StorageLevel::MemoryRaw,
    };
    let mut plan = plan(cluster, tensor, strategy, &config, factors).expect("MTTKRP plan");
    cluster.metrics().reset();
    plan.mttkrp(factors, 0).expect("mode-1 MTTKRP");
    cluster.metrics().snapshot()
}

/// Prints the heading an experiment opens each dataset's table with.
fn heading(title: &str, name: &str, tensor: &CooTensor) {
    println!(
        "\n=== {title}: {name} (shape {:?}, nnz {}) ===",
        tensor.shape(),
        tensor.nnz()
    );
}

/// Shuffle bytes (remote + local) moved inside the `MTTKRP-*` scopes of a
/// run: steady-state traffic, excluding one-off tensor distribution and
/// queue initialization.
fn mttkrp_shuffle_bytes(metrics: &JobMetrics) -> u64 {
    metrics
        .shuffle_bytes_by_scope()
        .into_iter()
        .filter(|(scope, _, _)| scope.starts_with("MTTKRP"))
        .map(|(_, remote, local)| remote + local)
        .sum()
}

/// `value`, recorded in `scope` over `iters` executed iterations, per
/// iteration the way the paper reports it: per-MTTKRP scopes divide by
/// the executed iteration count; one-off "Other" costs (tensor
/// distribution, queue initialization) divide by [`PAPER_ITERATIONS`],
/// reproducing the amortization of averaging a 20-iteration run without
/// having to execute all 20.
fn amortized(scope: &str, value: f64, iters: usize) -> f64 {
    if scope.starts_with("MTTKRP") {
        value / iters.max(1) as f64
    } else {
        value / PAPER_ITERATIONS as f64
    }
}

/// Per-iteration simulated seconds of a run, [`amortized`] per scope.
fn per_iteration_secs_amortized(model: &TimeModel, metrics: &JobMetrics, iters: usize) -> f64 {
    let scopes = model.scope_times(metrics).into_iter();
    scopes
        .map(|(scope, secs)| amortized(&scope, secs, iters))
        .sum()
}

/// The Spark time model scaled for a dataset run at `scale`.
fn spark_model(scale: f64) -> TimeModel {
    TimeModel::spark().with_work_scale(scale)
}

/// The Hadoop time model scaled for a dataset run at `scale`.
fn hadoop_model(scale: f64) -> TimeModel {
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

    fn runs_of(argv: &str) -> Result<Vec<(&'static Experiment, Setup)>, String> {
        runs(&Args::parse_from(argv.split(' ').map(String::from)))
    }

    #[test]
    fn bad_arguments_are_rejected_by_name() {
        let error = |argv: &str| runs_of(argv).expect_err(argv);
        assert_eq!(error("nope"), "unknown experiment \"nope\"");
        assert_eq!(
            error("table4_cost --itres 1"),
            "table4_cost: unknown flag --itres"
        );
        let bad_iters = "fig4_comm: bad value \"1x\" for --iters";
        assert_eq!(error("fig4_comm --iters 1x"), bad_iters);
        let list = "fig4_comm: bad value \"4,8\" for --nodes";
        assert_eq!(
            error("all --nodes 4,8"),
            list,
            "a list only where nodes sweep"
        );
        assert!(error("fig5_modes --dataset nope").contains("--dataset"));
        assert!(error("--tiny").starts_with("no experiment"));
        let sweep = runs_of("fig3_runtime4d --tiny --nodes 4,8").expect("a sweep takes a list");
        let (_, setup) = &sweep[0];
        assert_eq!(
            (setup.node_counts(), setup.iters, setup.tiny),
            (vec![4, 8], 1, true)
        );
    }

    #[test]
    fn rows_are_named_once_and_their_smallest_arguments_parse() {
        let mut names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate row name");
        for row in &EXPERIMENTS {
            let smallest = Args::parse_from(row.smallest.split(' ').map(String::from));
            let setup = row.setup(smallest).expect(row.name);
            assert_eq!(
                (setup.experiment, setup.seed, setup.iters),
                (row.name, 0, 1)
            );
        }
        assert_eq!(
            runs_of("all --tiny").expect("smoke run").len(),
            EXPERIMENTS.len()
        );
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
    #[should_panic(expected = "bad --nodes entry \"8x\"")]
    fn node_counts_reject_an_unparsable_entry() {
        setup(&["--nodes", "4,8x,16"]).node_counts();
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
        let shuffles = |strategy| {
            let c = Cluster::new(ClusterConfig::local(2).nodes(4));
            mode1_mttkrp(strategy, &c, &t, &factors, 8).significant_shuffle_count(50)
        };
        // Table 4, 3rd order: 3 / 2 / 4 tensor-sized shuffles.
        assert_eq!(shuffles(Strategy::Coo), 3);
        assert_eq!(shuffles(Strategy::Qcoo), 2);
        assert_eq!(shuffles(Strategy::BigTensor), 4);
    }

    #[test]
    fn run_bigtensor_produces_jobs() {
        let (m, _) = RunSpec::new(Strategy::BigTensor, 4, 1, 0).run(&tiny());
        assert!(m.job_count() > 0);
        assert!(m.total_disk_read() > 0);
    }
}
