//! The bit-identity oracle: columns, rows, ground truth and the coverage
//! table (see the crate docs for the column values).

use crate::{assert_bits_eq, random_factors};
use cstf_core::planner::{plan, PlanConfig};
use cstf_core::{CpAls, Partitioning, Strategy};
use cstf_dataflow::prelude::*;
use cstf_dataflow::Counters;
use cstf_dataflow::StageMetrics;
use cstf_tensor::random::{sparse_low_rank_tensor, RandomTensor};
use cstf_tensor::{CooTensor, DenseMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// FNV-1a over every weight and factor bit of the `Golden` two-iteration
/// CP-ALS run, per strategy and partitioning level, recorded at rev
/// `33f3c41` (the tree before `rdd/` was folded onto one operator core).
/// A constant here changes only when the floating-point op sequence of a
/// pipeline changes on purpose.
pub const GOLDEN: [(Strategy, Partitioning, u64); 6] = {
    use Partitioning::{CoPartitionedFactors as Co, PrePartitionedTensor as Pre};
    [
        (Strategy::Coo, Co, 0xdc1b_d48b_f4cb_5a6a),
        (Strategy::Coo, Pre, 0xdc1b_d48b_f4cb_5a6a),
        (Strategy::Qcoo, Co, 0x3f80_876f_5fb2_0386),
        (Strategy::CooBroadcast, Co, 0x8952_559e_ce6c_5ac1),
        (Strategy::DfactoSpmv, Co, 0xdda9_ebcc_4993_b248),
        (Strategy::DfactoSpmv, Pre, 0xdda9_ebcc_4993_b248),
    ]
};

/// [`GOLDEN`] for the `Dense` tensor at rank 8, recorded at rev `3124d6f`
/// and re-recorded (COO, QCOO, SpMV) when the join began streaming its
/// left side against the fold of its right side. Its keys meet many terms
/// in one reduce partition, so it also moves when a pipeline only
/// reorders a per-key sum, which `Golden`'s two-term sums hide.
pub const GOLDEN_DENSE: [(Strategy, Partitioning, u64); 6] = {
    use Partitioning::{CoPartitionedFactors as Co, PrePartitionedTensor as Pre};
    [
        (Strategy::Coo, Co, 0x96f8_9247_ebe6_5db7),
        (Strategy::Coo, Pre, 0x96f8_9247_ebe6_5db7),
        (Strategy::Qcoo, Co, 0x8f4f_2ae7_5dc2_5e4b),
        (Strategy::CooBroadcast, Co, 0xc9f1_f1ba_d4b4_7271),
        (Strategy::DfactoSpmv, Co, 0xd219_d203_c752_301f),
        (Strategy::DfactoSpmv, Pre, 0xd219_d203_c752_301f),
    ]
};

/// FNV-1a over the bit patterns of `values`.
fn fnv1a_of_bits(values: &[f64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in values.iter().flat_map(|x| x.to_bits().to_le_bytes()) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The `tensor` column: `R<first extent>s<seed>` are uniform random
/// tensors, `LowRank<seed>` exact rank-2 ones (shapes in the crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tensor {
    Golden,
    R16s71,
    R16s81,
    R16s91,
    R14s91,
    R12s93,
    R15s90,
    R15s51,
    R12x10s93,
    LowRank74,
    LowRank85,
    /// The order 2–4 generator of the former property tests (the union
    /// of their ranges: extents 2–8, nnz 1–59).
    Arb(u64),
    /// The 10×10×10 generator of the former node-invariance property.
    Cube(u64),
    /// 40×36×32 with 20 000 nonzeros, rank 8: the [`GOLDEN_DENSE`] rows
    /// only, outside the sampled column values.
    Dense,
}

use Tensor::*;

const FIXED: [Tensor; 11] = [
    Golden, R16s71, R16s81, R16s91, R14s91, R12s93, R15s90, R15s51, R12x10s93, LowRank74, LowRank85,
];

impl Tensor {
    /// Builds the tensor.
    pub fn build(self) -> CooTensor {
        let random = |shape: &[u32], nnz, seed| {
            RandomTensor::new(shape.to_vec())
                .nnz(nnz)
                .seed(seed)
                .build()
        };
        match self {
            Golden => random(&[9, 8, 7], 150, 61),
            R16s71 => random(&[16, 13, 11], 350, 71),
            R16s81 => random(&[16, 13, 11], 350, 81),
            R16s91 => random(&[16, 13, 11], 350, 91),
            R14s91 => random(&[14, 12, 10], 320, 91),
            R12s93 => random(&[12, 11, 10], 260, 93),
            R15s90 => random(&[15, 12, 10], 320, 90),
            R15s51 => random(&[15, 12, 10], 300, 51),
            R12x10s93 => random(&[12, 10, 8], 250, 93),
            LowRank74 => sparse_low_rank_tensor(&[30, 25, 20], 2, 8, 74).0,
            LowRank85 => sparse_low_rank_tensor(&[24, 20, 16], 2, 8, 85).0,
            Arb(seed) => {
                let mut rng = StdRng::seed_from_u64(seed);
                let order = rng.gen_range(2usize..=4);
                let shape: Vec<u32> = (0..order).map(|_| rng.gen_range(2u32..9)).collect();
                let nnz = rng.gen_range(1usize..60);
                let t = RandomTensor::new(shape).nnz(nnz).seed(rng.gen());
                t.values_in(-1.0, 1.0).build()
            }
            Cube(seed) => random(&[10, 10, 10], 10 + (seed % 50) as usize, seed),
            Dense => random(&[40, 36, 32], 20_000, 61),
        }
    }

    fn index(self) -> usize {
        match self {
            Arb(_) => FIXED.len(),
            Cube(_) => FIXED.len() + 1,
            Dense => FIXED.len() + 2,
            fixed => FIXED.iter().position(|&t| t == fixed).unwrap(),
        }
    }

    fn rank(self) -> usize {
        match self {
            Arb(seed) => 1 + (seed % 3) as usize,
            Dense => 8,
            _ => 2,
        }
    }

    /// Shuffle partitions: the cluster's default parallelism, pinned so
    /// that the `threads` and `nodes` columns do not move it.
    fn partitions(self) -> usize {
        match self {
            Golden | Dense => 16,
            Arb(seed) => 1 + (seed % 8) as usize,
            Cube(_) => 6,
            _ => 8,
        }
    }

    /// The reference row's executor threads and simulated nodes: the
    /// cluster the tensor's former suite used.
    fn home(self) -> (usize, usize) {
        match self {
            Golden | Dense => (2, 4),
            Arb(_) => (4, 3),
            Cube(_) => (2, 9),
            _ => (4, 4),
        }
    }

    /// CP-ALS iterations: as many as the tensor's former suite ran.
    fn iterations(self) -> usize {
        match self {
            Golden | Dense | R15s90 | R15s51 | LowRank74 | LowRank85 => 2,
            R12x10s93 => 3,
            _ => 1,
        }
    }
}

/// The `workload` column: what one job of a row runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `planner::plan`, then one `Plan::mttkrp` per mode with fixed
    /// random factors (seed 72 + variant).
    Cycle,
    /// `CpAls::run`, init seed 7 + variant, `Tensor::iterations` of them.
    Als,
}

/// The `storage` column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storage {
    /// `MemoryRaw`, no memory budget.
    Unbudgeted,
    /// `MemoryAndDisk` under a quarter of the unbudgeted peak.
    Spill,
    /// `MemoryRaw` under a quarter of the unbudgeted peak.
    Recompute,
}

/// The `faults` column: a `FaultConfig` schedule (percent of eligible
/// first attempts), speculation, or node loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Faults {
    pub seed: u64,
    pub crash: u8,
    pub late: u8,
    pub delay: u8,
    pub delay_ms: u16,
    /// `(multiplier × 10, min_task_secs in ms)`.
    pub speculate: Option<(u8, u8)>,
    /// Before each mode's MTTKRP, the first node from `first + mode` on
    /// (mod `nodes`) that holds a block or map output is lost.
    pub node_loss: Option<usize>,
}

/// Crashes `pct` % of eligible first attempts under `seed`.
fn crash(seed: u64, pct: u8) -> Faults {
    Faults {
        seed,
        crash: pct,
        ..Faults::default()
    }
}

/// Loses a node before each mode's MTTKRP, starting from `first`.
fn node_loss(first: usize) -> Faults {
    Faults {
        node_loss: Some(first),
        ..Faults::default()
    }
}

/// The `faults` column's values, as the schedule the sampler uses for
/// each: quiet, crash, late crash, crash + delay, speculation, node loss.
const FAULT_SCHEDULES: [fn(u64) -> Faults; 6] = [
    |_| Faults::default(),
    |seed| crash(seed, 70),
    |seed| Faults {
        late: 40,
        ..crash(seed, 40)
    },
    |seed| Faults {
        delay: 20,
        delay_ms: 1,
        ..crash(seed, 30)
    },
    |seed| Faults {
        delay: 25,
        delay_ms: 3,
        speculate: Some((12, 1)),
        ..crash(seed, 0)
    },
    |seed| node_loss(seed as usize),
];

impl Faults {
    /// The index in `FAULT_SCHEDULES` of this schedule's kind.
    fn label(&self) -> usize {
        let f = self;
        match (f.node_loss, f.speculate, f.delay, f.late, f.crash) {
            (Some(_), ..) => 5,
            (_, Some(_), ..) => 4,
            (_, _, 1.., ..) => 3,
            (_, _, _, 1.., _) => 2,
            (.., 1..) => 1,
            _ => 0,
        }
    }

    /// Whether attempts are made to fail.
    fn fails(&self) -> bool {
        self.crash + self.late > 0
    }

    /// Whether the failure counters are a function of the schedule alone.
    fn replayable(&self) -> bool {
        self.fails() && self.delay == 0
    }
}

/// One configuration: a value per column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    pub tensor: Tensor,
    pub workload: Workload,
    pub strategy: Strategy,
    pub partitioning: Partitioning,
    pub sequential: bool,
    pub storage: Storage,
    pub faults: Faults,
    pub threads: usize,
    pub nodes: usize,
    /// 0: submitted directly; n: n concurrent `JobServer` tenants, each
    /// running its own variant (`Row::tenant`).
    pub tenants: usize,
    /// Not a column: offsets the init seed and the `Cycle` factor seed,
    /// so that concurrent tenants run distinct jobs.
    pub variant: u64,
}

const WORKLOADS: [Workload; 2] = [Workload::Cycle, Workload::Als];
const STRATEGIES: [Strategy; 4] = [
    Strategy::Coo,
    Strategy::Qcoo,
    Strategy::CooBroadcast,
    Strategy::DfactoSpmv,
];
const PARTITIONINGS: [Partitioning; 3] = [
    Partitioning::CoPartitionedFactors,
    Partitioning::None,
    Partitioning::PrePartitionedTensor,
];
const SEQUENTIAL: [bool; 2] = [false, true];
const STORAGES: [Storage; 3] = [Storage::Unbudgeted, Storage::Spill, Storage::Recompute];
const THREADS: [usize; 3] = [4, 1, 2];
const NODES: [usize; 4] = [4, 1, 3, 9];
const TENANTS: [usize; 2] = [0, 3];

/// Number of values of each column, in `Row` field order.
pub const COLUMN_SIZES: &[usize] = &[
    FIXED.len() + 2,
    WORKLOADS.len(),
    STRATEGIES.len(),
    PARTITIONINGS.len(),
    SEQUENTIAL.len(),
    STORAGES.len(),
    FAULT_SCHEDULES.len(),
    THREADS.len(),
    NODES.len(),
    TENANTS.len(),
];

fn position<T: PartialEq>(values: &[T], value: T) -> usize {
    values.iter().position(|v| *v == value).unwrap()
}

/// The reference row of `tensor` × `Cycle` × `strategy`.
pub fn cycle(tensor: Tensor, strategy: Strategy) -> Row {
    Row {
        tensor,
        workload: Workload::Cycle,
        strategy,
        partitioning: Partitioning::CoPartitionedFactors,
        sequential: false,
        storage: Storage::Unbudgeted,
        faults: Faults::default(),
        threads: tensor.home().0,
        nodes: tensor.home().1,
        tenants: 0,
        variant: 0,
    }
}

/// The reference row of `tensor` × `Als` × `strategy`.
fn als(tensor: Tensor, strategy: Strategy) -> Row {
    Row {
        workload: Workload::Als,
        ..cycle(tensor, strategy)
    }
}

impl Row {
    /// Sets column `col` to its `value`-th value; `seed` parameterizes
    /// generated tensors and fault schedules.
    pub fn set(mut self, col: usize, value: usize, seed: u64) -> Row {
        match col {
            0 => self.tensor = [&FIXED[..], &[Arb(seed), Cube(seed)]].concat()[value],
            1 => self.workload = WORKLOADS[value],
            2 => self.strategy = STRATEGIES[value],
            3 => self.partitioning = PARTITIONINGS[value],
            4 => self.sequential = SEQUENTIAL[value],
            5 => self.storage = STORAGES[value],
            6 => self.faults = FAULT_SCHEDULES[value](seed),
            7 => self.threads = THREADS[value],
            8 => self.nodes = NODES[value],
            _ => self.tenants = TENANTS[value],
        }
        self
    }

    /// The value index of every column (the inverse of `set`).
    pub fn labels(&self) -> Vec<usize> {
        vec![
            self.tensor.index(),
            position(&WORKLOADS, self.workload),
            position(&STRATEGIES, self.strategy),
            position(&PARTITIONINGS, self.partitioning),
            position(&SEQUENTIAL, self.sequential),
            position(&STORAGES, self.storage),
            self.faults.label(),
            position(&THREADS, self.threads),
            position(&NODES, self.nodes),
            position(&TENANTS, self.tenants),
        ]
    }

    /// Node loss needs a hook between MTTKRP calls (`Cycle`; `CpAls::run`
    /// has none) and a cluster no other tenant is using.
    pub fn valid(&self) -> bool {
        self.faults.node_loss.is_none() || (self.workload == Workload::Cycle && self.tenants == 0)
    }

    /// The job tenant `i` runs, submitted directly: variant `i`, and on
    /// odd tenants the strategy's partner (COO ↔ QCOO, broadcast ↔ SpMV).
    pub fn tenant(&self, i: usize) -> Row {
        if self.tenants == 0 {
            return *self;
        }
        let strategy = STRATEGIES[position(&STRATEGIES, self.strategy) ^ (i % 2)];
        Row {
            strategy,
            tenants: 0,
            variant: self.variant + i as u64,
            ..*self
        }
    }

    /// The row whose bits this row must reproduce.
    pub fn reference(&self) -> Row {
        Row {
            workload: self.workload,
            variant: self.variant,
            ..cycle(self.tensor, self.strategy)
        }
    }

    /// The row whose shuffle counters this row must reproduce: the
    /// reference at this row's partitioning level.
    fn counter_reference(&self) -> Row {
        Row {
            partitioning: self.partitioning,
            ..self.reference()
        }
    }

    fn cluster_config(&self, budget: Option<u64>) -> ClusterConfig {
        let mut config = ClusterConfig::local(self.threads)
            .nodes(self.nodes)
            .default_parallelism(self.tensor.partitions());
        if self.sequential {
            config = config.sequential_stages();
        }
        if let Some(bytes) = budget {
            config = config.memory_budget(bytes);
        }
        let f = self.faults;
        if let Some((multiplier, min_ms)) = f.speculate {
            config = config.speculation(f64::from(multiplier) / 10.0, f64::from(min_ms) / 1e3);
        }
        if f.node_loss.is_some() || f == Faults::default() {
            return config;
        }
        let pct = |p: u8| f64::from(p) / 100.0;
        config.faults(FaultConfig {
            seed: f.seed,
            crash_probability: pct(f.crash),
            late_crash_probability: pct(f.late),
            delay_probability: pct(f.delay),
            delay_millis: u64::from(f.delay_ms),
            max_faults_per_task: 1,
        })
    }

    /// Runs one job of this row on `cluster`: its output values in a fixed
    /// order, and how many blocks and map outputs lost nodes took along.
    fn job(&self, cluster: &Cluster, tensor: &CooTensor) -> (Vec<f64>, usize) {
        let (rank, partitions) = (self.tensor.rank(), self.tensor.partitions());
        let storage = match self.storage {
            Storage::Spill => StorageLevel::MemoryAndDisk,
            _ => StorageLevel::MemoryRaw,
        };
        if self.workload == Workload::Als {
            let k = CpAls::new(rank)
                .max_iterations(self.tensor.iterations())
                .seed(7 + self.variant)
                .strategy(self.strategy)
                .partitioning(self.partitioning)
                .tensor_storage(storage)
                .run(cluster, tensor)
                .unwrap()
                .kruskal;
            let factors = k.factors.iter().flat_map(|f| f.data());
            return (k.weights.iter().chain(factors).copied().collect(), 0);
        }
        let factors = random_factors(tensor.shape(), rank, 72 + self.variant);
        let config = PlanConfig {
            rank,
            partitions,
            partitioning: self.partitioning,
            kernel: KernelStrategy::default(),
            cache_tensor: true,
            storage,
        };
        let mut p = plan(cluster, tensor, self.strategy, &config, &factors).unwrap();
        let (mut values, mut lost) = (Vec::new(), 0);
        for mode in 0..tensor.order() {
            if let Some(first) = self.faults.node_loss {
                let node = |k| (first + mode + k) % self.nodes;
                let losses = (0..self.nodes).map(|k| cluster.simulate_node_failure(node(k)));
                lost += losses.map(|(b, o)| b + o).find(|&n| n > 0).unwrap_or(0);
            }
            cluster.metrics().set_scope(format!("MTTKRP-{}", mode + 1));
            values.extend_from_slice(p.mttkrp(&factors, mode).unwrap().data());
        }
        cluster.metrics().clear_scope();
        p.release();
        (values, lost)
    }

    /// Runs the row on a fresh cluster; a budget is a quarter of the
    /// unbudgeted run's peak.
    pub fn run(&self) -> Outcome {
        let budget = (self.storage != Storage::Unbudgeted)
            .then(|| reference(self.counter_reference()).peak_bytes / 4);
        let tensor = Arc::new(self.tensor.build());
        let cluster = Cluster::new(self.cluster_config(budget));
        let (jobs, lost) = if self.tenants == 0 {
            let (values, lost) = self.job(&cluster, &tensor);
            (
                vec![Job::of(values, cluster.metrics().snapshot().stages())],
                lost,
            )
        } else {
            let server = JobServer::new(&cluster, JobServerConfig::fair(self.tenants));
            let handles: Vec<_> = (0..self.tenants)
                .map(|i| {
                    let (row, tensor) = (self.tenant(i), tensor.clone());
                    server.submit(&format!("tenant-{i}"), move |c: &Cluster| {
                        row.job(c, &tensor).0
                    })
                })
                .collect();
            let ids: Vec<usize> = handles.iter().map(|h| h.id()).collect();
            let outputs: Vec<_> = handles.into_iter().map(|h| h.join().completed()).collect();
            server.shutdown();
            let m = cluster.metrics().snapshot();
            let job =
                |(&id, out): (_, Option<_>)| Job::of(out.unwrap(), m.stages_in_server_job(id));
            (ids.iter().zip(outputs).map(job).collect(), 0)
        };
        let bm = cluster.block_manager();
        let metrics = cluster.metrics().snapshot();
        let [_, spilled, _, recomputes] = metrics.block_manager_storage();
        Outcome {
            jobs,
            evictions: metrics.eviction_count() as u64,
            spilled,
            recomputes,
            metrics,
            lost,
            budget,
            peak_bytes: bm.peak_memory_bytes(),
            resident_bytes: bm.memory_bytes(),
        }
    }
}

/// Per (scope, stage name): shuffle-write records and bytes, shuffle-read
/// records and bytes, and the remote share of those bytes. Sorted, because
/// the two scheduler modes log stages in different orders.
pub type Fingerprint = Vec<(String, String, [u64; 5])>;

/// What one job of a row produced.
pub struct Job {
    pub values: Vec<f64>,
    pub fingerprint: Fingerprint,
    /// The job's stage counters, merged.
    pub counters: Counters,
    /// Whether every DAG job logged its stages wave by wave.
    pub wave_major: bool,
}

impl Job {
    fn of<'a>(values: Vec<f64>, stages: impl Iterator<Item = &'a StageMetrics>) -> Job {
        let (mut fingerprint, mut counters) = (Vec::new(), Counters::default());
        let mut waves: HashMap<usize, Vec<usize>> = HashMap::new();
        for s in stages {
            let c = &s.counters;
            let shuffle = [
                c.shuffle_write_records,
                c.shuffle_write_bytes,
                c.shuffle_read_records,
                s.shuffle_read_bytes(),
                c.remote_bytes_read,
            ];
            fingerprint.push((s.scope.clone(), s.name.clone(), shuffle));
            counters.merge(c);
            if let Some(d) = &s.dag {
                waves.entry(d.job).or_default().push(d.wave);
            }
        }
        fingerprint.sort();
        Job {
            values,
            fingerprint,
            counters,
            wave_major: waves.values().all(|w| w.windows(2).all(|p| p[0] <= p[1])),
        }
    }
}

/// What a row's run left behind.
pub struct Outcome {
    pub jobs: Vec<Job>,
    pub metrics: JobMetrics,
    pub lost: usize,
    pub budget: Option<u64>,
    pub peak_bytes: u64,
    pub resident_bytes: u64,
    pub evictions: u64,
    pub spilled: u64,
    pub recomputes: u64,
}

/// Unbudgeted quiet runs, made once per test binary and checked against
/// ground truth when first made.
fn reference(row: Row) -> Arc<Outcome> {
    type Cache = Mutex<HashMap<String, Arc<OnceLock<Arc<Outcome>>>>>;
    static CACHE: OnceLock<Cache> = OnceLock::new();
    let cache = CACHE.get_or_init(Default::default);
    let cell = cache
        .lock()
        .unwrap()
        .entry(format!("{row:?}"))
        .or_default()
        .clone();
    cell.get_or_init(|| {
        let outcome = Arc::new(row.run());
        if row == row.reference() {
            verify_ground_truth(&row, &outcome.jobs[0].values);
        }
        outcome
    })
    .clone()
}

/// `Golden` and `Dense` × `Als` hash to their `GOLDEN` and `GOLDEN_DENSE`
/// constants; a `Cycle` matches the sequential MTTKRP within 1e-9.
fn verify_ground_truth(row: &Row, values: &[f64]) {
    if row.workload == Workload::Cycle {
        let t = row.tensor.build();
        let factors = random_factors(t.shape(), row.tensor.rank(), 72 + row.variant);
        let refs: Vec<&DenseMatrix> = factors.iter().collect();
        let seq = (0..t.order()).map(|m| cstf_tensor::mttkrp::mttkrp(&t, &refs, m).unwrap());
        let seq: Vec<f64> = seq.flat_map(|m| m.data().to_vec()).collect();
        assert_eq!(values.len(), seq.len());
        for (i, (x, y)) in values.iter().zip(&seq).enumerate() {
            assert!((x - y).abs() < 1e-9, "{row:?}: element {i} vs sequential");
        }
    } else if row.variant == 0 {
        let table = match row.tensor {
            Golden => GOLDEN,
            Dense => GOLDEN_DENSE,
            _ => return,
        };
        let want = table.iter().find(|g| g.0 == row.strategy).unwrap().2;
        let got = fnv1a_of_bits(values);
        assert_eq!(got, want, "{row:?}: factor bits moved (got {got:#018x})");
    }
}

/// Runs `row` and checks each of its jobs against that job's reference
/// row's bits and shuffle counters, and that each of the row's
/// non-reference columns took effect.
pub fn check(row: &Row) -> Arc<Outcome> {
    assert!(row.valid(), "{row:?}: not a valid configuration");
    let out = match *row == row.counter_reference() {
        true => reference(*row),
        false => Arc::new(row.run()),
    };
    let f = row.faults;
    let (mut skipped_co, mut pre) = (0, false);
    for (i, job) in out.jobs.iter().enumerate() {
        let ensure = |ok: bool, what: &str| assert!(ok, "{row:?} job {i}: {what}");
        let solo = row.tenant(i);
        let truth = reference(solo.reference());
        let counter_ref = reference(solo.counter_reference());
        skipped_co += truth.metrics.skipped_shuffle_count();
        pre |= matches!(solo.strategy, Strategy::Coo | Strategy::DfactoSpmv);
        assert_bits_eq(
            &job.values,
            &truth.jobs[0].values,
            &format!("{row:?} job {i}"),
        );
        let (k, want) = (&job.counters, &counter_ref.jobs[0]);
        if out.budget.is_none() && f.node_loss.is_none() {
            // A late-crashed attempt or a losing backup may have cached a
            // partition of QCOO's shuffled queue state before it was
            // discarded: the winner may read less.
            let qcoo = solo.strategy == Strategy::Qcoo;
            let exact = !qcoo || (f.late == 0 && f.speculate.is_none());
            // Tenants share the cluster's scope label: key them by name
            // only. The remote share moves with the node count.
            let same_nodes = row.nodes == row.counter_reference().nodes;
            let key = |f: &Fingerprint| {
                let key = f.iter().map(|(scope, name, c)| {
                    let scope = if row.tenants > 0 { "" } else { scope };
                    let read = [c[2], c[3], if same_nodes { c[4] } else { 0 }];
                    (
                        scope.to_string(),
                        name.clone(),
                        c[0],
                        c[1],
                        exact.then_some(read),
                    )
                });
                let mut key: Vec<_> = key.collect();
                key.sort();
                key
            };
            let read = |f: &Fingerprint| f.iter().map(|(.., c)| c[3]).sum::<u64>();
            assert_eq!(
                key(&job.fingerprint),
                key(&want.fingerprint),
                "{row:?} job {i}"
            );
            ensure(
                read(&job.fingerprint) <= read(&want.fingerprint),
                "a retry read more",
            );
            let computed = want.counters.records_computed;
            ensure(
                k.records_computed <= computed,
                "a retry inflated records_computed",
            );
        }
        ensure(
            (k.task_failures > 0) == f.fails(),
            "failed attempts vs the schedule",
        );
        // A failed attempt whose speculative duplicate already committed
        // is counted but not retried.
        let retried = match f.speculate {
            Some(_) => k.task_retries <= k.task_failures,
            None => k.task_retries == k.task_failures,
        };
        ensure(retried, "retries vs failures");
        ensure(
            k.speculative_won <= k.speculative_launched,
            "wins > launches",
        );
        ensure(
            k.speculative_launched == 0 || f.speculate.is_some(),
            "speculation is off, yet backups launched",
        );
        // The sequential scheduler logs stages in topological order, which
        // differs from wave order only on some DAGs: no general evidence.
        ensure(
            job.wave_major || row.sequential,
            "concurrent stages out of wave order",
        );
        ensure(
            !job.fingerprint.is_empty(),
            "no stage attributed to the job",
        );
    }
    let ensure = |ok: bool, what: &str| assert!(ok, "{row:?}: {what}");
    let launched: u64 = out
        .jobs
        .iter()
        .map(|j| j.counters.speculative_launched)
        .sum();
    // A wave of fewer than four tasks seldom reaches the straggler quorum.
    let quorum = row.tensor.partitions() >= 4;
    ensure(
        launched > 0 || f.speculate.is_none() || !quorum,
        "no backup launched",
    );
    ensure(
        out.lost > 0 || f.node_loss.is_none(),
        "the lost nodes held nothing",
    );
    ensure(
        row.nodes > 1 || out.metrics.total_remote_bytes() == 0,
        "remote bytes",
    );
    let skipped = out.metrics.skipped_shuffle_count();
    match row.partitioning {
        Partitioning::None => ensure(skipped == 0, "a join skipped its shuffle"),
        Partitioning::PrePartitionedTensor if pre => ensure(skipped > skipped_co, "pre"),
        _ => ensure(
            skipped == skipped_co,
            "skipped shuffles differ from co-partitioning",
        ),
    }
    if let Some(budget) = out.budget {
        ensure(out.evictions > 0, "the budget never evicted");
        ensure(out.resident_bytes <= budget, "resident over budget");
        let report = out.metrics.render_report();
        if row.storage == Storage::Spill {
            ensure(out.spilled > 0, "MemoryAndDisk never spilled");
            let words = ["STORAGE", "evicted", "spilled"];
            ensure(words.iter().all(|w| report.contains(w)), &report);
        } else {
            ensure(out.spilled == 0, "MemoryRaw spilled");
            // A lost node takes the tombstones of its evicted blocks along.
            let recomputed = out.recomputes > 0 || f.node_loss.is_some();
            ensure(recomputed, "evictions never recomputed");
        }
    }
    out
}

/// Asserts that re-running a replayable fault row fails the same attempts
/// of the same stages (tenants interleave their stage ids, so only rows
/// submitted directly replay).
pub fn assert_replays(row: &Row, outcome: &Outcome) {
    let failures = |m: &JobMetrics| {
        let mut f: Vec<_> = m.stages().map(|s| (s.stage_id, s.task_failures)).collect();
        f.sort_unstable();
        f
    };
    if row.faults.replayable() && row.tenants == 0 {
        assert_eq!(
            failures(&row.run().metrics),
            failures(&outcome.metrics),
            "{row:?}"
        );
    }
}

/// Builds one group's rows.
pub type Rows = fn() -> Vec<Row>;

/// `row` once per fault schedule.
fn under(row: Row, schedules: impl IntoIterator<Item = Faults>) -> Vec<Row> {
    schedules
        .into_iter()
        .map(|faults| Row { faults, ..row })
        .collect()
}

/// The coverage table: every configuration the former bit-identity suites
/// ran, one group per former test (`suite::test`, fault seeds included),
/// recorded from those suites before they were folded into this table.
/// The test of that name runs exactly its group.
#[rustfmt::skip]
pub const GROUPS: &[(&str, Rows)] = {
    use Partitioning::{CoPartitionedFactors as Co, None as Unaware, PrePartitionedTensor as Pre};
    use Strategy::{Coo, DfactoSpmv, Qcoo};
    &[
        ("chaos::coo_mttkrp_bit_identical_across_twenty_fault_schedules",
            || under(cycle(R16s71, Coo), (0..20).map(|s| crash(s, 70)))),
        ("chaos::qcoo_full_mode_cycle_bit_identical_under_faults",
            || under(cycle(R16s71, Qcoo), [3, 17, 40, 99].map(|s| crash(s, 60)))),
        ("chaos::cp_als_iteration_bit_identical_under_faults",
            || [Coo, Qcoo].map(|s| Row { faults: crash(11, 70), ..als(LowRank74, s) }).to_vec()),
        ("chaos::shuffle_metrics_not_double_counted_on_retry",
            || under(cycle(R16s71, Coo), [crash(21, 80), Faults { late: 40, ..crash(22, 40) }])),
        ("chaos::speculation_under_injected_delays_is_bit_identical", || {
            let f = Faults { delay: 50, delay_ms: 40, speculate: Some((12, 5)), ..crash(31, 0) };
            under(cycle(R16s71, Coo), [f])
        }),
        ("chaos::fault_schedules_replay_deterministically",
            || under(cycle(R16s71, Coo), [42].into_iter().chain(0..8).map(|s| crash(s, 50)))),
        ("kernel_identity::sorted_kernel_bit_identical_across_twenty_fault_schedules",
            || under(cycle(R14s91, Coo), (0..20).map(|s| crash(s, 70)))),
        ("kernel_identity::qcoo_sorted_kernel_bit_identical_under_faults",
            || under(cycle(R12s93, Qcoo), [5, 23, 58, 71, 104].map(|s| crash(s, 60)))),
        ("partitioning::pre_partitioned_mttkrp_recovers_from_every_node_failure",
            || under(Row { partitioning: Pre, ..cycle(R15s90, Coo) }, (0..4).map(node_loss))),
        ("partitioning::partitioning_levels_bit_identical_across_chaos_seeds", || {
            let row = Row { partitioning: Unaware, ..als(R15s90, Coo) };
            let levels = (0..10).flat_map(|s| [Co, Pre].map(|p| (p, s)));
            let rows = levels.map(|(partitioning, s)| Row { partitioning, faults: crash(s, 15), ..row });
            [row].into_iter().chain(rows).collect()
        }),
        ("partitioning::co_partitioned_qcoo_survives_failures_between_steps",
            || vec![Row { partitioning: Unaware, ..cycle(R15s90, Qcoo) },
                    Row { faults: node_loss(0), ..cycle(R15s90, Qcoo) }]),
        ("partitioning::pre_partitioned_decomposition_unaffected_by_mid_cluster_failure",
            || vec![Row { partitioning: Pre, ..als(R15s90, Coo) },
                    Row { partitioning: Pre, faults: node_loss(2), ..cycle(R15s90, Coo) }]),
        ("fault_recovery::coo_mttkrp_survives_node_failure",
            || vec![Row { faults: node_loss(1), ..cycle(R15s51, Coo) }]),
        ("fault_recovery::qcoo_pipeline_survives_failures_between_steps",
            || vec![Row { faults: node_loss(0), ..cycle(R15s51, Qcoo) }]),
        ("fault_recovery::full_decomposition_after_mid_cluster_failure",
            || vec![als(R15s51, Qcoo), Row { faults: node_loss(0), ..cycle(R15s51, Qcoo) }]),
        ("scheduler_dag::counters_are_concurrency_invariant",
            || vec![Row { partitioning: Unaware, sequential: true, ..cycle(R16s81, Coo) }]),
        ("scheduler_dag::cp_als_bit_identical_across_schedulers_and_chaos_seeds", || {
            let row = Row { partitioning: Unaware, ..als(LowRank85, Coo) };
            let rows = under(row, (0..20).map(|s| Faults { late: 20, ..crash(s, 50) }));
            [Row { sequential: true, ..row }, row].into_iter().chain(rows).collect()
        }),
        ("scheduler_dag::qcoo_steps_bit_identical_across_schedulers_and_chaos", || {
            let rows = under(cycle(R16s81, Qcoo), [2, 19, 57, 101].map(|s| crash(s, 60)));
            [Row { sequential: true, ..cycle(R16s81, Qcoo) }].into_iter().chain(rows).collect()
        }),
        ("memory_pressure::cp_als_bit_identical_at_quarter_budget",
            || [Coo, Qcoo].map(|s| Row { storage: Storage::Spill, ..als(LowRank74, s) }).to_vec()),
        ("memory_pressure::cp_als_bit_identical_at_quarter_budget_under_chaos", || {
            let spill = |s| Row { storage: Storage::Spill, ..als(LowRank74, s) };
            let chaos = |s| under(spill(s), [3, 17].map(|seed| crash(seed, 60)));
            [Coo, Qcoo].into_iter().flat_map(chaos).collect()
        }),
        ("memory_pressure::memory_raw_recompute_path_matches_reference",
            || vec![Row { storage: Storage::Recompute, ..als(LowRank74, Coo) }]),
        ("jobserver_chaos::concurrent_cp_als_bit_identical_under_chaos", || {
            let late = |s: u64| if s >= 4 { 10 } else { 0 };
            let f = |s| Faults { late: late(s), delay: 20, delay_ms: 2, ..crash(s, 30) };
            under(Row { tenants: 3, ..als(R16s71, Coo) }, (0..8).map(f))
        }),
        ("jobserver_chaos::concurrent_jobs_with_speculation_stay_invariant", || {
            let faults = Faults { delay: 40, delay_ms: 10, speculate: Some((15, 10)), ..crash(5, 20) };
            vec![Row { tenants: 3, faults, ..als(R16s71, Coo) }]
        }),
        ("strategy_planner::all_strategies_match_sequential", || {
            let rows = (0..16).flat_map(|case| STRATEGIES.map(|s| cycle(Arb(1000 + case), s)));
            let level = |row| PARTITIONINGS.map(|partitioning| Row { partitioning, ..row });
            rows.flat_map(level).collect()
        }),
        ("strategy_planner::spmv_mttkrp_bit_identical_across_twenty_fault_schedules",
            || under(cycle(R16s91, DfactoSpmv), (0..20).map(|s| crash(s, 70)))),
        ("strategy_planner::spmv_cp_als_bit_identical_under_chaos",
            || under(als(R12x10s93, DfactoSpmv), [1, 5, 13].map(|s| crash(s, 40)))),
        ("equivalence_properties::coo_matches_sequential",
            || (0..24).map(|case| cycle(Arb(case), Coo)).collect()),
        ("equivalence_properties::qcoo_matches_sequential",
            || (0..24).map(|case| cycle(Arb(100 + case), Qcoo)).collect()),
        ("equivalence_properties::shuffle_bytes_node_invariant", || {
            let row = |case: u64, nodes| Row { nodes, ..cycle(Cube(case), Coo) };
            (0..32).flat_map(|case| [[1, 3, 4][case as usize % 3], 9].map(|n| row(case, n))).collect()
        }),
        ("golden_bits::factor_bits_match_the_recorded_constants", || {
            let row = |(s, partitioning, _)| Row { partitioning, ..als(Golden, s) };
            GOLDEN.map(row).to_vec()
        }),
        ("golden_bits::dense_factor_bits_match_the_recorded_constants", || {
            let row = |(s, partitioning, _)| Row { partitioning, ..als(Dense, s) };
            GOLDEN_DENSE.map(row).to_vec()
        }),
    ]
};

/// The rows of group `name`.
pub fn group(name: &str) -> Vec<Row> {
    let found = GROUPS.iter().find(|(n, _)| *n == name);
    found.unwrap_or_else(|| panic!("no oracle group {name}")).1()
}

/// Checks every row of group `name`.
pub fn check_group(name: &str) -> Vec<Arc<Outcome>> {
    check_all(&group(name))
}

/// Checks `rows` on four workers, each taking the next unchecked row (a row
/// mostly waits on its cluster's task handoffs), returning their outcomes
/// in order.
pub fn check_all(rows: &[Row]) -> Vec<Arc<Outcome>> {
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(row) = rows.get(i) else {
                return done;
            };
            done.push((i, check(row)));
        }
    };
    let mut done: Vec<_> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..4).map(|_| s.spawn(work)).collect();
        let joined = workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        joined.flatten().collect()
    });
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, out)| out).collect()
}

/// Defines one `#[test]` per named group of the calling suite.
#[macro_export]
macro_rules! oracle_groups {
    ($($test:ident),* $(,)?) => {$(
        #[test]
        fn $test() {
            $crate::oracle::check_group(concat!(module_path!(), "::", stringify!($test)));
        }
    )*};
}
