//! Ablations beside the paper: one design choice of the engine or the
//! pipelines each, quantified.

use crate::sim::{offered_load, OfferedJob, OfferedLoadStats};
use crate::*;
use cstf_core::cost::{self, qcoo_savings};
use cstf_core::planner::join_order;
use cstf_core::records::{add_rows, Row};
use cstf_tensor::datasets::{DELICIOUS3D, FLICKR, NELL1, SYNT3D, THIRD_ORDER};
use cstf_tensor::spmv::fiber_counts;

/// Ablation: tensor RDD caching on vs off (paper §4.1 "Caching").
///
/// "Keeping the tensor in memory can improve the performance significantly
/// since the tensor data is reused across iterations" (§4.1). Without the
/// cache, every MTTKRP's first stage re-parses the source records
/// (visible in the engine's `records_computed` pipeline-work counter and
/// the modeled time).
pub(crate) fn ablation_caching(setup: &Setup) {
    let (nodes, iters) = (setup.nodes, setup.iters);
    let spark = spark_model(setup.scale);

    let tensor = DELICIOUS3D.generate(setup.scale, setup.seed);
    println!(
        "Caching ablation: delicious3d (nnz {}), {nodes} nodes, {iters} iterations, CSTF-COO\n",
        tensor.nnz()
    );

    let mut report = Report::new([
        Col::new("tensor RDD", "mode"),
        Col::new("pipeline records computed", "pipeline_records"),
        Col::new("modeled time/iter", "secs_per_iter"),
    ]);
    let spec = RunSpec::new(Strategy::Coo, nodes, iters, setup.seed);
    for cached in [true, false] {
        let cluster = spec.cluster();
        let solver = if cached {
            spec.solver()
        } else {
            spec.solver().no_tensor_cache()
        };
        let _ = solver.run(&cluster, &tensor).expect("run failed");
        let m = cluster.metrics().snapshot();
        let pipeline_records: u64 = m.stages().map(|s| s.records_computed).sum();
        let secs = per_iteration_secs_amortized(&spark, &m, iters);
        report.row(vec![
            if cached { "cached" } else { "uncached" }.into(),
            pipeline_records.into(),
            format!("{secs:.1} s").into(),
        ]);
    }
    report.print();
    report.write_csv(&setup.results_dir(), "ablation_caching");
}

/// Ablation: map-side combining in the MTTKRP's final `reduceByKey`.
///
/// Our MTTKRPs match the paper's Table 4 accounting (no map-side combine:
/// the reduce shuffles a full `nnz·R`). Spark's real `reduceByKey`
/// combines map-side, shrinking the reduce shuffle whenever partitions
/// contain repeated output indices — which depends on the output mode's
/// size and skew. This experiment measures the reduce-stage shuffle bytes
/// both ways on every mode of every 3rd-order dataset. No plan combines
/// map-side, so it rebuilds COO's reduce-side layout in the engine: the
/// cached tensor keyed by the mode's last join mode and hash-partitioned
/// into 32 buckets (where COO's last join leaves every record), re-keyed
/// to `(output index, R-wide row)`, then
/// `reduce_by_key_with(32, combine, add_rows)`. Its plain bytes equal
/// those of COO's own reduce.
pub(crate) fn ablation_combine(setup: &Setup) {
    for (name, tensor) in setup.paper_datasets(&THIRD_ORDER) {
        heading("Combine ablation", &name, &tensor);

        let cluster = Cluster::new(ClusterConfig::auto().nodes(8));
        let rdd = tensor_to_rdd(&cluster, &tensor, 32).persist(StorageLevel::MemoryRaw);
        let _ = rdd.count();
        let mut report = Report::new([
            Col::new("output mode", "mode"),
            Col::new("distinct indices", "distinct"),
            Col::new("reduce bytes (paper acct.)", "plain_bytes"),
            Col::new("reduce bytes (Spark combine)", "combined_bytes"),
            Col::new("reduction", "reduction"),
        ]);
        for mode in 0..3 {
            let last = *join_order(3, mode).last().expect("order 3 has two joins");
            let reduce_bytes = |combine: bool| -> u64 {
                cluster.metrics().reset();
                let rows = rdd
                    .map(move |rec| (rec.coord[last], rec))
                    .partition_by(32)
                    .map(move |(_, rec)| {
                        let row: Row = vec![rec.val; PAPER_RANK].into();
                        (rec.coord[mode], row)
                    });
                let _ = rows.reduce_by_key_with(32, combine, add_rows).count();
                cluster
                    .metrics()
                    .snapshot()
                    .stages()
                    .filter(|s| s.name.contains("reduce_by_key"))
                    .map(|s| s.shuffle_write_bytes)
                    .sum()
            };
            let plain = reduce_bytes(false);
            let combined = reduce_bytes(true);
            report.row(vec![
                format!("mode {}", mode + 1).into(),
                tensor.distinct_indices(mode).into(),
                format!("{:.2} MB", plain as f64 / 1e6).into(),
                format!("{:.2} MB", combined as f64 / 1e6).into(),
                format!("{:.1}%", (1.0 - combined as f64 / plain as f64) * 100.0).into(),
            ]);
        }
        report.print();
        report.write_csv(&setup.results_dir(), &format!("ablation_combine_{name}"));
    }
}

/// Concurrent jobs per interleaving in `ablation_jobserver`'s determinism
/// part.
const MIX: u64 = 4;

/// Ablation: multi-tenant job server — fair pools vs FIFO under load.
///
/// Three parts, mirroring the claims of DESIGN.md §5e:
///
/// * **Determinism** — mixed CP-ALS jobs from distinct tenants run
///   concurrently through one shared `JobServer` and must stay
///   bit-identical to their solo forced-sequential baselines across
///   seeded interleavings (20, or 5 under `--tiny`), both quiet (delay
///   jitter only) and under chaos (crash + late-crash + delay schedules).
///   The run aborts on the first divergent bit.
/// * **Burst** — a paused cap-1 server is loaded with long jobs ahead
///   of short ones, then released. Measured per-pool queue delays show
///   weighted-fair dispatch protecting the short pool where FIFO makes
///   it wait out the long backlog.
/// * **Offered load** — solo runs price each job class via
///   `cstf_model::TimeModel::job_critical_path`; [`offered_load`] then
///   sweeps submission rates over 200 jobs (60 under `--tiny`) and reports
///   p50/p99 sojourn latency and throughput for FIFO vs fair. At high
///   offered load fair pools must improve short-job p99 latency without
///   losing throughput.
///
/// Results land in `results/BENCH_jobserver.json`: the burst's queue
/// delays are measured on the host, the offered-load sweep is modeled.
pub(crate) fn ablation_jobserver(setup: &Setup) {
    // Synthetic tensors: --scale is not read (the time model below is fixed).
    let (seed, nodes) = (setup.seed, setup.nodes);
    let interleavings: usize = if setup.tiny { 5 } else { 20 };
    let sweep_jobs: usize = if setup.tiny { 60 } else { 200 };
    let solo = || Cluster::new(ClusterConfig::local(4).nodes(nodes).sequential_stages());

    // --- Part 1: determinism across seeded interleavings -------------
    let t = small_tensor(seed.wrapping_add(71));
    // Solo baselines on quiet forced-sequential clusters, one per variant.
    let reference: Vec<CpResult> = (0..MIX)
        .map(|v| tenant_job(v, 1).run_on(&solo(), &t))
        .collect();
    println!(
        "=== Job-server ablation: {interleavings} quiet + {interleavings} chaos interleavings of {MIX} concurrent jobs ==="
    );
    for i in 0..interleavings as u64 {
        // Quiet: delay jitter reorders cross-job commits without faults.
        let quiet = ClusterConfig::local(4)
            .nodes(nodes)
            .faults(FaultConfig::crashes(seed.wrapping_add(i), 0.0).with_delays(0.4, 2));
        assert_interleaving(quiet, &t, &reference, &format!("quiet interleaving {i}"));
        // Chaos: crash / late-crash / delay schedules on top.
        let chaos = ClusterConfig::local(4)
            .nodes(nodes)
            .max_task_attempts(4)
            .faults(
                FaultConfig::crashes(seed.wrapping_add(i), 0.25)
                    .with_late_crashes(0.1)
                    .with_delays(0.2, 2),
            );
        assert_interleaving(chaos, &t, &reference, &format!("chaos interleaving {i}"));
    }
    println!(
        "bit-identical: {} interleavings x {MIX} jobs, quiet and under chaos",
        2 * interleavings
    );

    // --- Part 2: measured burst, FIFO vs fair -------------------------
    let fifo = measure_burst(false, nodes, seed);
    let fair = measure_burst(true, nodes, seed);
    println!("\n=== Burst: 3 long then 3 short jobs through a cap-1 server ===");
    let mut burst = Report::new([
        Col::table("policy"),
        Col::table("dispatch order"),
        Col::table("short mean delay"),
        Col::table("long mean delay"),
    ]);
    for (policy, b) in [("fifo", &fifo), ("fair", &fair)] {
        burst.row(vec![
            policy.into(),
            b.order.join(",").into(),
            format!("{:.1} ms", b.short_mean_delay * 1e3).into(),
            format!("{:.1} ms", b.long_mean_delay * 1e3).into(),
        ]);
    }
    burst.print();
    assert!(
        fair.short_mean_delay < fifo.short_mean_delay,
        "fair pools failed to protect the short pool's queue delay"
    );

    // --- Part 3: offered-load sweep on the time model ------------------
    // Price each job class by its solo critical path through the stage
    // graph, then sweep submission rates around the saturation point.
    let model = spark_model(10.0);
    let price = |t: &CooTensor, iters: usize, variant: u64| {
        let c = solo();
        tenant_job(variant, iters).run_on(&c, t);
        model.job_time(&c.metrics().snapshot())
    };
    let short_secs = price(&small_tensor(seed), 1, 0);
    let long_secs = price(&big_tensor(seed), 3, 1);
    let jobs: Vec<OfferedJob> = (0..sweep_jobs)
        .map(|i| OfferedJob {
            pool: i % 2,
            service_secs: if i % 2 == 0 { short_secs } else { long_secs },
        })
        .collect();
    let weights = [1.0, 1.0];
    let cap = 2;
    let mean_service = (short_secs + long_secs) / 2.0;
    let saturation = cap as f64 / mean_service;
    let multiples = [0.25, 0.5, 1.0, 2.0, 4.0];

    println!(
        "\n=== Offered load: short {short_secs:.3}s / long {long_secs:.3}s service, cap {cap}, saturation {saturation:.2} jobs/s ==="
    );
    let mut sweep = Report::new([
        Col::new("load", "rate_multiple"),
        Col::new("rate/s", "rate_jobs_per_sec"),
        Col::table("tput/s"),
        Col::table("fifo short p99"),
        Col::table("fair short p99"),
        Col::table("fifo p99"),
        Col::table("fair p99"),
        Col::data("fifo"),
        Col::data("fair"),
    ]);
    let mut last: Option<(OfferedLoadStats, OfferedLoadStats)> = None;
    for &mult in &multiples {
        let rate = mult * saturation;
        let fifo = offered_load(&jobs, &weights, rate, cap, false);
        let fair = offered_load(&jobs, &weights, rate, cap, true);
        sweep.row(vec![
            Cell::new(format!("{mult:.2}x"), Json::Fixed(mult, 2)),
            Cell::new(format!("{rate:.2}"), Json::Fixed(rate, 6)),
            Cell::fixed(fifo.throughput_jobs_per_sec, 2),
            format!("{:.3} s", fifo.pools[0].p99_latency_secs).into(),
            format!("{:.3} s", fair.pools[0].p99_latency_secs).into(),
            format!("{:.3} s", fifo.p99_latency_secs).into(),
            format!("{:.3} s", fair.p99_latency_secs).into(),
            json_load_point(&fifo).into(),
            json_load_point(&fair).into(),
        ]);
        last = Some((fifo, fair));
    }
    sweep.print();
    // Acceptance bar: at the top offered load fair pools improve the
    // short pool's p99 latency without giving up throughput.
    let (fifo_top, fair_top) = last.expect("sweep ran");
    assert!(
        fair_top.pools[0].p99_latency_secs < fifo_top.pools[0].p99_latency_secs,
        "fair pools failed to improve short-job p99 at high offered load"
    );
    assert!(
        fair_top.throughput_jobs_per_sec >= 0.95 * fifo_top.throughput_jobs_per_sec,
        "fair pools gave up throughput at high offered load"
    );

    let secs = |x: f64| Json::Fixed(x, 6);
    let determinism = Json::obj([
        ("interleavings_quiet", Json::from(interleavings)),
        ("interleavings_chaos", interleavings.into()),
        ("concurrent_jobs", MIX.into()),
        ("bit_identical", true.into()),
    ]);
    // Host-measured wall-clock delays; everything else in this report is
    // counted or modeled.
    let burst = Json::obj([
        (
            "fifo_short_mean_queue_delay_secs",
            secs(fifo.short_mean_delay),
        ),
        (
            "fair_short_mean_queue_delay_secs",
            secs(fair.short_mean_delay),
        ),
        (
            "fifo_long_mean_queue_delay_secs",
            secs(fifo.long_mean_delay),
        ),
        (
            "fair_long_mean_queue_delay_secs",
            secs(fair.long_mean_delay),
        ),
        ("fifo_order", fifo.order.into()),
        ("fair_order", fair.order.into()),
    ]);
    let offered_load = Json::obj([
        ("short_service_secs", secs(short_secs)),
        ("long_service_secs", secs(long_secs)),
        ("max_concurrent_jobs", cap.into()),
        ("saturation_rate_jobs_per_sec", secs(saturation)),
        ("sweep", sweep.json_rows()),
    ]);
    let tail = [
        ("determinism", determinism),
        ("burst", burst),
        ("offered_load", offered_load),
    ];
    setup.write_bench([], &["rank", "seed", "nodes", "tiny"], tail);
}

fn small_tensor(seed: u64) -> CooTensor {
    RandomTensor::new(vec![14, 12, 10])
        .nnz(250)
        .seed(seed)
        .build()
}

fn big_tensor(seed: u64) -> CooTensor {
    RandomTensor::new(vec![40, 34, 28])
        .nnz(6000)
        .seed(seed)
        .build()
}

/// One job variant: tenants alternate strategy and differ in init seed,
/// so concurrent jobs are genuinely distinct workloads. Jobs run on the
/// cluster they are handed (`run_on`), so the spec's node count is unused.
fn tenant_job(variant: u64, iters: usize) -> RunSpec {
    let strategy = if variant.is_multiple_of(2) {
        Strategy::Coo
    } else {
        Strategy::Qcoo
    };
    RunSpec::new(strategy, 0, iters, 100 + variant)
}

/// Runs `MIX` concurrent one-iteration jobs through a fair server on
/// `config` and asserts each matches its solo baseline bit-for-bit.
fn assert_interleaving(config: ClusterConfig, t: &CooTensor, reference: &[CpResult], what: &str) {
    let c = Cluster::new(config);
    let server = JobServer::new(&c, JobServerConfig::fair(MIX as usize));
    let handles: Vec<_> = (0..MIX)
        .map(|v| {
            let t = t.clone();
            server.submit(&format!("tenant-{v}"), move |c: &Cluster| {
                tenant_job(v, 1).run_on(c, &t)
            })
        })
        .collect();
    for (v, h) in handles.into_iter().enumerate() {
        let got = h.join().completed().expect("job completed");
        assert_bit_identical(&reference[v], &got, &format!("{what}: job {v} vs solo run"));
    }
    server.shutdown();
}

/// Burst result: per-pool mean queue delay and the dispatch order.
struct Burst {
    short_mean_delay: f64,
    long_mean_delay: f64,
    order: Vec<String>,
}

/// Loads a paused cap-1 server with long jobs ahead of short ones,
/// releases it, and measures per-pool queue delays from the JOBS log.
fn measure_burst(fair: bool, nodes: usize, seed: u64) -> Burst {
    let c = Cluster::new(ClusterConfig::local(4).nodes(nodes));
    let base = if fair {
        JobServerConfig::fair(1)
    } else {
        JobServerConfig::fifo(1)
    };
    let server = JobServer::new(&c, base.pool("long", 1.0).pool("short", 1.0).start_paused());
    let long = big_tensor(seed);
    let short = small_tensor(seed);
    let mut handles = Vec::new();
    for v in 0..3u64 {
        let t = long.clone();
        handles.push(server.submit("long", move |c: &Cluster| {
            tenant_job(v % 2, 3).run_on(c, &t)
        }));
    }
    for v in 0..3u64 {
        let t = short.clone();
        handles.push(server.submit("short", move |c: &Cluster| {
            tenant_job(v % 2, 1).run_on(c, &t)
        }));
    }
    server.resume();
    for h in handles {
        h.join().completed().expect("burst job completed");
    }
    server.shutdown();

    let m = c.metrics().snapshot();
    let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let mut records: Vec<_> = m.job_records().cloned().collect();
    records.sort_by_key(|r| r.start_seq);
    Burst {
        short_mean_delay: mean(m.pool_queue_delays("short")),
        long_mean_delay: mean(m.pool_queue_delays("long")),
        order: records.into_iter().map(|r| r.pool).collect(),
    }
}

fn json_load_point(stats: &OfferedLoadStats) -> Json {
    let secs = |x: f64| Json::Fixed(x, 6);
    let pools = stats.pools.iter().map(|p| {
        Json::obj([
            ("pool", Json::from(p.pool)),
            ("jobs", p.jobs.into()),
            ("p50_latency_secs", secs(p.p50_latency_secs)),
            ("p99_latency_secs", secs(p.p99_latency_secs)),
            ("mean_queue_delay_secs", secs(p.mean_queue_delay_secs)),
        ])
    });
    Json::obj([
        (
            "throughput_jobs_per_sec",
            secs(stats.throughput_jobs_per_sec),
        ),
        ("p50_latency_secs", secs(stats.p50_latency_secs)),
        ("p99_latency_secs", secs(stats.p99_latency_secs)),
        ("pools", Json::Arr(pools.collect())),
    ])
}

/// Budget fractions of `ablation_memory`: unbounded, then shares of the
/// unbounded run's working set.
const FRACTIONS: [Option<f64>; 4] = [None, Some(1.0), Some(0.5), Some(0.25)];

/// Ablation: memory-governed storage in CP-ALS.
///
/// Runs the QCOO pipeline under a sweep of block-manager budgets —
/// unbounded, then {1.0, 0.5, 0.25}× the unbounded run's working set
/// (its [`peak_memory_bytes`](cstf_dataflow::BlockManager::peak_memory_bytes)
/// high-water mark) — with the tensor and queue RDDs persisted
/// `MemoryAndDisk`. Reports evicted bytes, spilled bytes, lineage
/// recomputes and modeled seconds per budget. Factors must stay
/// bit-identical to the unbounded reference at every fraction; the run
/// aborts otherwise.
///
/// `--tiny` replaces the paper datasets with one small synthetic tensor
/// (the CI smoke configuration) and writes under `target/bench-tiny/`.
/// Results land in `results/BENCH_memory.json`; every number in it is
/// counted (bytes, recomputes) or modeled (seconds).
pub(crate) fn ablation_memory(setup: &Setup) {
    let model = spark_model(setup.scale);

    let mut json_datasets = Vec::new();
    for (name, tensor) in setup.datasets(&THIRD_ORDER) {
        heading("Memory ablation", &name, &tensor);
        let under = |budget| RunSpec {
            storage: StorageLevel::MemoryAndDisk,
            budget,
            ..RunSpec::new(Strategy::Qcoo, setup.nodes, setup.iters, setup.seed)
        };

        // Unbounded reference: fixes the bit-identity baseline and the
        // working-set size the budget fractions are cut from.
        let unbounded = under(None);
        let ref_cluster = unbounded.cluster();
        let reference = unbounded.run_on(&ref_cluster, &tensor);
        let working_set = ref_cluster.block_manager().peak_memory_bytes();
        assert!(working_set > 0, "reference run cached nothing");
        println!("working set (peak resident bytes): {working_set}");

        let mut report = Report::new([
            Col::new("budget", "fraction"),
            Col::new("budget bytes", "budget_bytes"),
            Col::new("evicted bytes", "evicted_bytes"),
            Col::new("spilled bytes", "spilled_bytes"),
            Col::data("spill_read_bytes"),
            Col::new("recomputes", "recompute_count"),
            Col::new("sim time", "sim_secs"),
            Col::data("bit_identical"),
        ]);
        for fraction in FRACTIONS {
            let budget = fraction.map(|f| (working_set as f64 * f).ceil() as u64);
            let spec = under(budget);
            let cluster = spec.cluster();
            let result = spec.run_on(&cluster, &tensor);
            let label = match fraction {
                None => "unbounded".to_string(),
                Some(f) => format!("{f:.2}x"),
            };
            assert_bit_identical(&reference, &result, &format!("{name}/{label}"));

            // The block manager's own counters: cached blocks only, where
            // the metrics log also counts spilled shuffle outputs.
            let bm = cluster.block_manager();
            let secs = model.job_time(&cluster.metrics().snapshot());
            report.row(vec![
                Cell::new(label, fraction),
                Cell::new(budget.map_or("-".to_string(), |b| b.to_string()), budget),
                bm.evicted_bytes().into(),
                bm.spilled_bytes().into(),
                bm.spill_read_bytes().into(),
                bm.recompute_count().into(),
                Cell::new(format!("{secs:.2} s"), Json::Fixed(secs, 6)),
                true.into(),
            ]);
        }
        report.print();
        json_datasets.push(dataset_json(
            name,
            &tensor,
            [
                ("working_set_bytes", working_set.into()),
                ("budgets", report.json_rows()),
            ],
        ));
    }
    let head = [
        ("strategy", "QCOO".into()),
        ("storage", "MemoryAndDisk".into()),
    ];
    let tail = [("datasets", Json::Arr(json_datasets))];
    setup.write_bench(head, &["rank", "nodes", "iterations", "seed", "tiny"], tail);
}

/// The partitioner-awareness levels `ablation_partitioning` compares.
const LEVELS: [Partitioning; 3] = [
    Partitioning::None,
    Partitioning::CoPartitionedFactors,
    Partitioning::PrePartitionedTensor,
];

/// Ablation: partitioner-aware scheduling in CP-ALS.
///
/// Runs the COO pipeline at the three partitioner-awareness levels —
/// `none` (every join shuffles both sides, the paper's Table 4
/// accounting), `co-partitioned-factors` (factor-row RDDs pre-hashed by
/// the join partitioner), and `pre-partitioned-tensor` (the tensor kept
/// keyed by each first-join mode) — and reports shuffle-map stages,
/// shuffle-write bytes and simulated seconds per CP-ALS iteration.
/// Factors must stay bit-identical across all levels, both on a quiet
/// cluster and under injected task crashes; the run aborts otherwise.
///
/// `--tiny` replaces the paper datasets with one small synthetic tensor
/// (the CI smoke configuration) and writes under `target/bench-tiny/`.
/// Results land in `results/BENCH_partitioning.json`; every number in it
/// is counted (stages, bytes) or modeled (seconds).
pub(crate) fn ablation_partitioning(setup: &Setup) {
    let model = spark_model(setup.scale);

    let mut json_datasets = Vec::new();
    for (name, tensor) in setup.datasets(&THIRD_ORDER) {
        heading("Partitioning ablation", &name, &tensor);
        let at = |partitioning| RunSpec {
            partitioning,
            ..RunSpec::new(Strategy::Coo, setup.nodes, setup.iters, setup.seed)
        };
        // Reference run for the bit-identity check (quiet + chaos).
        let (_, reference) = at(Partitioning::None).run(&tensor);

        let mut report = Report::new([
            Col::new("partitioning", "level"),
            Col::new("shuffle stages/iter", "shuffle_stages_per_iter"),
            Col::new("skipped/iter", "skipped_shuffles_per_iter"),
            Col::new("shuffle bytes/iter", "shuffle_bytes_per_iter"),
            Col::new("sim time/iter", "sim_secs_per_iter"),
            Col::data("bit_identical"),
        ]);
        for level in LEVELS {
            let (metrics, result) = at(level).run(&tensor);
            assert_bit_identical(&reference, &result, &format!("{name}/{level} quiet"));
            let (_, chaotic) = at(level).under_chaos().run(&tensor);
            assert_bit_identical(&reference, &chaotic, &format!("{name}/{level} chaos"));

            let it = setup.iters.max(1) as f64;
            let stages_per_iter = metrics.shuffle_count() as f64 / it;
            let skipped_per_iter = metrics.skipped_shuffle_count() as f64 / it;
            let bytes_per_iter = metrics.total_shuffle_bytes() as f64 / it;
            let secs_per_iter = model.job_time(&metrics) / it;
            report.row(vec![
                level.to_string().into(),
                Cell::new(format!("{stages_per_iter:.1}"), stages_per_iter),
                Cell::new(format!("{skipped_per_iter:.1}"), skipped_per_iter),
                Cell::new(format!("{:.3} MB", bytes_per_iter / 1e6), bytes_per_iter),
                Cell::new(
                    format!("{secs_per_iter:.2} s"),
                    Json::Fixed(secs_per_iter, 6),
                ),
                true.into(),
            ]);
        }
        report.print();
        json_datasets.push(dataset_json(
            name,
            &tensor,
            [("levels", report.json_rows())],
        ));
    }
    setup.write_bench(
        [("strategy", "COO".into())],
        &["rank", "nodes", "iterations", "seed", "tiny"],
        [("datasets", Json::Arr(json_datasets))],
    );
}

/// Ablation: how the QCOO-vs-COO communication saving depends on rank R.
///
/// The paper's §5 model predicts an R-independent saving of `1/N`. Our
/// byte-exact accounting shows the saving *does* depend on R: every
/// shuffled record carries constant coordinate/value bytes the element
/// model ignores, and QCOO's single join carries the whole `(N−1)`-row
/// queue while COO's first join carries no row at all. This experiment
/// sweeps R and reports measured per-iteration MTTKRP shuffle bytes —
/// the quantitative backing for the Figure 4 deviation discussed in
/// EXPERIMENTS.md.
pub(crate) fn ablation_rank(setup: &Setup) {
    for (name, tensor) in setup.paper_datasets(&[DELICIOUS3D, FLICKR]) {
        heading("Rank ablation, MTTKRP shuffle bytes/iter", &name, &tensor);
        let mut report = Report::new([
            Col::new("R", "rank"),
            Col::new("COO bytes", "coo_bytes"),
            Col::new("QCOO bytes", "qcoo_bytes"),
            Col::new("measured saving", "saving"),
            Col::new("paper model", "model"),
        ]);
        for rank in [2usize, 4, 8, 16] {
            // Two iterations on 8 nodes, whatever `--nodes`/`--iters` say.
            let bytes_per_iter = |strategy| {
                let spec = RunSpec {
                    rank,
                    ..RunSpec::new(strategy, 8, 2, setup.seed)
                };
                mttkrp_shuffle_bytes(&spec.run(&tensor).0) / 2
            };
            let coo = bytes_per_iter(Strategy::Coo);
            let qcoo = bytes_per_iter(Strategy::Qcoo);
            let saving = 1.0 - qcoo as f64 / coo as f64;
            report.row(vec![
                rank.into(),
                format!("{:.2} MB", coo as f64 / 1e6).into(),
                format!("{:.2} MB", qcoo as f64 / 1e6).into(),
                format!("{:+.1}%", saving * 100.0).into(),
                format!("{:.0}%", qcoo_savings(tensor.order()) * 100.0).into(),
            ]);
        }
        report.print();
        report.write_csv(&setup.results_dir(), &format!("ablation_rank_{name}"));
    }
    println!(
        "\nFinding: the element model's 1/N saving is not R-invariant in a real\n\
         byte accounting — at order 3 QCOO's queue outweighs COO's light first\n\
         join as R grows, while at order 4+ eliminating whole joins dominates."
    );
}

/// The (strategy, partitioning) pairs `ablation_scheduler` schedules.
const VARIANTS: [(Strategy, Partitioning); 2] = [
    (Strategy::Coo, Partitioning::None),
    (Strategy::Qcoo, Partitioning::CoPartitionedFactors),
];

/// Ablation: DAG scheduling — critical-path vs serialized stage time.
///
/// The DAG scheduler runs independent shuffle-map stages of one job
/// concurrently, so a job costs its *critical path* through the stage
/// graph rather than the serial sum of its stages. This experiment
/// quantifies that for CP-ALS:
///
/// * **COO** at `Partitioning::None` keeps the factor-side shuffle of
///   every join alive as its own stage; those stages are independent of
///   the tensor-side shuffles and overlap, so the critical path is
///   strictly shorter than the serialized sum.
/// * **QCOO** builds a chain of queue-step stages with nothing to
///   overlap, so the two models agree (ratio ≈ 1) — concurrency is free
///   but worthless on a chain.
///
/// Factors must stay bit-identical between the concurrent and
/// forced-sequential schedulers, quiet and under injected crashes; the
/// run aborts otherwise. `--tiny` is the CI smoke configuration (one
/// small synthetic tensor at `--nodes`); the full run sweeps the paper's
/// 4–32 node counts. Results land in `results/BENCH_scheduler.json`
/// (`target/bench-tiny/` under `--tiny`); its seconds are all modeled.
pub(crate) fn ablation_scheduler(setup: &Setup) {
    let iters = setup.iters;
    let model = spark_model(setup.scale);
    let node_counts = if setup.tiny {
        vec![setup.nodes]
    } else {
        PAPER_NODE_COUNTS.to_vec()
    };

    let mut json_datasets = Vec::new();
    for (name, tensor) in setup.datasets(&THIRD_ORDER) {
        heading("Scheduler ablation", &name, &tensor);
        let mut report = Report::new([
            Col::new("strategy", "strategy"),
            Col::data("partitioning"),
            Col::new("nodes", "nodes"),
            Col::new("serialized/iter", "sim_secs_serialized_per_iter"),
            Col::new("critical-path/iter", "sim_secs_critical_path_per_iter"),
            Col::new("ratio", "critical_over_serialized"),
            Col::data("bit_identical"),
        ]);
        for &nodes in &node_counts {
            for (strategy, partitioning) in VARIANTS {
                let concurrent = RunSpec {
                    partitioning,
                    ..RunSpec::new(strategy, nodes, iters, setup.seed)
                };
                let (metrics, result) = concurrent.run(&tensor);
                // Bit-identity bar: the concurrent scheduler must match
                // the forced-sequential baseline, quiet and under chaos.
                let sequential = RunSpec {
                    sequential: true,
                    ..concurrent.clone()
                };
                let (_, baseline) = sequential.run(&tensor);
                let what = format!("{name}/{strategy}/{nodes}n");
                assert_bit_identical(&baseline, &result, &format!("{what} quiet"));
                let (_, shaken) = concurrent.under_chaos().run(&tensor);
                assert_bit_identical(&baseline, &shaken, &format!("{what} chaos"));

                let it = iters.max(1) as f64;
                let critical = model.job_time(&metrics) / it;
                let serialized = model.job_time_serialized(&metrics) / it;
                assert!(
                    critical <= serialized + 1e-9,
                    "{what}: critical path above serial sum"
                );
                let ratio = critical / serialized;
                report.row(vec![
                    strategy.to_string().into(),
                    partitioning.to_string().into(),
                    nodes.into(),
                    Cell::new(format!("{serialized:.2} s"), Json::Fixed(serialized, 6)),
                    Cell::new(format!("{critical:.2} s"), Json::Fixed(critical, 6)),
                    Cell::new(format!("{ratio:.3}"), Json::Fixed(ratio, 6)),
                    true.into(),
                ]);
            }
        }
        report.print();
        json_datasets.push(dataset_json(name, &tensor, [("runs", report.json_rows())]));
    }
    let tail = [("datasets", Json::Arr(json_datasets))];
    setup.write_bench([], &["rank", "iterations", "seed", "tiny"], tail);
}

/// Ablation: load balance under index skew — why CSTF "partitions and
/// parallelizes the nonzeros" (paper §6.6).
///
/// Real tagging tensors are heavily Zipf-skewed: a few indices hold most
/// nonzeros. A layout that assigns work *by mode index* (hash-partitioned
/// on one mode's key, as the shuffles inside a join necessarily do) can
/// concentrate hub indices' records on few partitions, while CSTF's base
/// layout — contiguous chunks of the nonzero list — is perfectly even.
/// This experiment measures both: the max/mean records-per-partition
/// ratio of the nonzero layout vs a mode-keyed repartition, for the
/// skewed crawled datasets and the uniform synthetic one. Results land in
/// `results/ablation_skew.csv` and `results/BENCH_skew.json` (the same
/// counted rows; `hub_frequency` is the hub index's share of the nonzeros).
pub(crate) fn ablation_skew(setup: &Setup) {
    let partitions = 32usize;

    let mut report = Report::new([
        Col::label("dataset", "dataset"),
        Col::new("keyed mode", "mode"),
        Col::new("distinct idx", "distinct_indices"),
        Col::new("hub nnz", "hub_nnz"),
        Col::data("hub_frequency"),
        Col::new("nonzero layout", "nonzero_layout_ratio"),
        Col::new("mode-keyed layout", "mode_keyed_ratio"),
        Col::new("max part (keyed)", "mode_keyed_max"),
    ]);
    let mut json_datasets = Vec::new();
    for (name, tensor) in setup.paper_datasets(&[DELICIOUS3D, NELL1, SYNT3D]) {
        let cluster = Cluster::new(ClusterConfig::auto().nodes(8));
        let rdd = tensor_to_rdd(&cluster, &tensor, partitions);

        let imbalance = |sizes: Vec<usize>| -> (f64, usize) {
            let max = *sizes.iter().max().unwrap_or(&0);
            let mean = sizes.iter().sum::<usize>() as f64 / sizes.len().max(1) as f64;
            (max as f64 / mean.max(1.0), max)
        };

        // CSTF's base layout: contiguous nonzero chunks.
        let nonzero_sizes: Vec<usize> = rdd.map_partitions(|_, d| vec![d.len()]).collect();
        let (nz_ratio, _) = imbalance(nonzero_sizes);

        // Mode-keyed layout for every mode (what a per-mode hash shuffle
        // produces).
        let first_row = report.rows();
        for mode in 0..tensor.order() {
            let keyed_sizes: Vec<usize> = rdd
                .map(move |rec| (rec.coord[mode], rec))
                .partition_by(partitions)
                .map_partitions(|_, d| vec![d.len()])
                .collect();
            let (key_ratio, key_max) = imbalance(keyed_sizes);
            let hub = tensor.mode_histogram(mode).into_iter().max().unwrap_or(0);
            let hub_frequency = hub as f64 / tensor.nnz().max(1) as f64;
            report.row(vec![
                name.as_str().into(),
                Cell::new(format!("mode {}", mode + 1), mode + 1),
                tensor.distinct_indices(mode).into(),
                hub.into(),
                Cell::fixed(hub_frequency, 6),
                Cell::new(format!("{nz_ratio:.2}"), Json::Fixed(nz_ratio, 6)),
                Cell::new(format!("{key_ratio:.2}"), Json::Fixed(key_ratio, 6)),
                key_max.into(),
            ]);
        }
        let modes = report.json_rows_from(first_row);
        json_datasets.push(dataset_json(name, &tensor, [("modes", modes)]));
    }
    println!("Partition load imbalance (max/mean records per partition), 32 partitions:\n");
    report.print();
    println!(
        "\nThe nonzero layout stays near 1.0 regardless of skew; mode-keyed\n\
         layouts inherit the hub structure of crawled data. This is why CSTF's\n\
         per-mode performance is uniform (Figure 5) even for \"oddly shaped\"\n\
         tensors — and why the shuffles inside joins are the skew-sensitive\n\
         part of the pipeline."
    );
    report.write_csv(&setup.results_dir(), "ablation_skew");
    setup.write_bench(
        [("partitions", partitions.into())],
        &["scale", "seed"],
        [("datasets", Json::Arr(json_datasets))],
    );
}

/// Ablation: the DFacTo-SpMV MTTKRP strategy vs CSTF-COO and CSTF-QCOO.
///
/// DFacTo (*Distributed Factorization of Tensors*) computes MTTKRP as a
/// chain of `N−1` sparse matrix–vector products: after the first
/// contraction only one row per *fiber* survives, so of its `2(N−1)`
/// shuffles per MTTKRP only the first two move nnz-sized data — the rest
/// are fiber-sized (`F ≤ nnz`). This experiment runs full CP-ALS under
/// all three strategies on the paper's third-order datasets plus a
/// fourth-order synthetic (where the fiber saving compounds), and
/// cross-checks the engine-measured shuffle traffic against the cost
/// model: the generic `Σ`-over-modes communication bounds for COO/QCOO
/// ([`cost::iteration_communication`]) and the exact per-mode
/// [`cost::spmv_mttkrp_communication`] fed by the real fiber counts
/// ([`cstf_tensor::spmv::fiber_counts`]). Results land in
/// `results/BENCH_spmv.json`: counted shuffles and bytes, predicted
/// elements, modeled seconds.
///
/// `--tiny` shrinks every tensor to the CI smoke configuration and writes
/// under `target/bench-tiny/`.
pub(crate) fn ablation_spmv(setup: &Setup) {
    let (nodes, iters, seed) = (setup.nodes, setup.iters, setup.seed);
    let spark = spark_model(setup.scale);

    // This experiment's smoke mode keeps the paper datasets (fiber
    // compression is the point) and shrinks them instead.
    let mut setup = setup.clone();
    if setup.tiny {
        setup.scale = setup.scale.max(40_000.0);
    }
    let mut datasets = setup.paper_datasets(&THIRD_ORDER);
    let (shape4, nnz4) = if setup.tiny {
        (vec![14u32, 12, 10, 8], 700usize)
    } else {
        (vec![80u32, 60, 50, 40], 30_000usize)
    };
    datasets.push((
        "synth4d".to_string(),
        RandomTensor::new(shape4).nnz(nnz4).seed(seed).build(),
    ));

    let mut json_datasets = Vec::new();
    for (name, tensor) in datasets {
        heading("SpMV ablation", &name, &tensor);
        let mut report = Report::new([
            Col::new("strategy", "strategy"),
            Col::new("shuffles/iter", "shuffles_per_iter"),
            Col::new("shuffle bytes/iter", "shuffle_bytes_per_iter"),
            Col::new("predicted elems/iter", "predicted_elements_per_iter"),
            Col::new("modeled time/iter", "modeled_secs_per_iter"),
        ]);
        let mut bytes_of = Vec::new();
        for strategy in [Strategy::Coo, Strategy::Qcoo, Strategy::DfactoSpmv] {
            let (m, _) = RunSpec::new(strategy, nodes, iters, seed).run(&tensor);
            let shuffle_bytes = mttkrp_shuffle_bytes(&m) / iters as u64;
            let secs = per_iteration_secs_amortized(&spark, &m, iters);
            let predicted = predicted_elements(strategy, &tensor);
            bytes_of.push(shuffle_bytes);
            report.row(vec![
                strategy.to_string().into(),
                (m.shuffle_count() / iters).into(),
                Cell::new(
                    format!("{:.2} MB", shuffle_bytes as f64 / 1e6),
                    shuffle_bytes,
                ),
                Cell::new(format!("{:.2} M elems", predicted as f64 / 1e6), predicted),
                Cell::new(format!("{secs:.1} s"), Json::Fixed(secs, 6)),
            ]);
        }
        report.print();
        let spmv_vs_coo = bytes_of[2] as f64 / (bytes_of[0] as f64).max(1.0);
        println!("SpMV shuffle bytes vs COO: {spmv_vs_coo:.2}x");
        json_datasets.push(Json::obj([
            ("dataset", Json::from(name)),
            ("order", tensor.order().into()),
            ("nnz", tensor.nnz().into()),
            ("spmv_vs_coo_bytes", Json::Fixed(spmv_vs_coo, 6)),
            ("strategies", report.json_rows()),
        ]));
    }
    let tail = [("datasets", Json::Arr(json_datasets))];
    setup.write_bench([], &["rank", "nodes", "iterations", "seed", "tiny"], tail);
}

/// Cost-model elements shuffled per CP-ALS iteration: the §5 bounds for
/// COO/QCOO, the exact fiber-count sum for SpMV.
fn predicted_elements(strategy: Strategy, tensor: &CooTensor) -> u64 {
    let order = tensor.order();
    let nnz = tensor.nnz() as u64;
    let rank = PAPER_RANK as u64;
    match strategy {
        Strategy::DfactoSpmv => (0..order)
            .map(|mode| {
                let fibers: Vec<u64> = fiber_counts(tensor, mode)
                    .expect("valid mode")
                    .into_iter()
                    .map(|f| f as u64)
                    .collect();
                cost::spmv_mttkrp_communication(nnz, rank, &fibers)
            })
            .sum(),
        _ => cost::iteration_communication(strategy.cost_algorithm(), order, nnz, rank),
    }
}

/// Ablation: shuffle-join CSTF (COO/QCOO) vs the broadcast-join extension.
///
/// The paper fetches factor rows with shuffle joins. When factor matrices
/// fit in executor memory, broadcasting them removes every join: one
/// shuffle per MTTKRP (the final reduce) at the cost of
/// `Σ Iₘ·R × nodes` of broadcast traffic per MTTKRP. This experiment
/// compares all three strategies' per-iteration bytes and modeled time,
/// quantifying when the extension wins.
pub(crate) fn ablation_strategies(setup: &Setup) {
    let (nodes, iters) = (setup.nodes, setup.iters);
    let spark = spark_model(setup.scale);

    for (name, tensor) in setup.paper_datasets(&THIRD_ORDER) {
        heading("Strategy ablation", &name, &tensor);
        let mut report = Report::new([
            Col::new("strategy", "strategy"),
            Col::new("tensor shuffles/iter", "shuffles"),
            Col::new("shuffle bytes/iter", "shuffle_bytes"),
            Col::new("broadcast bytes/iter", "broadcast_bytes"),
            Col::new("modeled time/iter", "secs"),
        ]);
        for strategy in [
            Strategy::Coo,
            Strategy::Qcoo,
            Strategy::CooBroadcast,
            Strategy::DfactoSpmv,
        ] {
            let (m, _) = RunSpec::new(strategy, nodes, iters, setup.seed).run(&tensor);
            let shuffle_bytes = mttkrp_shuffle_bytes(&m) / iters as u64;
            let broadcast = m.total_broadcast_bytes() / iters as u64;
            let secs = per_iteration_secs_amortized(&spark, &m, iters);
            report.row(vec![
                strategy.to_string().into(),
                (m.significant_shuffle_count(tensor.nnz() as u64 / 2) / iters).into(),
                format!("{:.2} MB", shuffle_bytes as f64 / 1e6).into(),
                format!("{:.2} MB", broadcast as f64 / 1e6).into(),
                format!("{secs:.1} s").into(),
            ]);
        }
        report.print();
        report.write_csv(&setup.results_dir(), &format!("ablation_strategies_{name}"));
    }
}
