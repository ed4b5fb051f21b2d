//! Ablation: multi-tenant job server — fair pools vs FIFO under load.
//!
//! ```text
//! cargo run --release -p cstf-bench --bin ablation_jobserver -- \
//!     [--seed 0] [--interleavings 20] [--nodes 4] [--jobs 200] [--tiny]
//! ```
//!
//! Three parts, mirroring the claims of DESIGN.md §5e:
//!
//! * **Determinism** — mixed CP-ALS jobs from distinct tenants run
//!   concurrently through one shared `JobServer` and must stay
//!   bit-identical to their solo forced-sequential baselines across
//!   seeded interleavings, both quiet (delay jitter only) and under
//!   chaos (crash + late-crash + delay schedules). The run aborts on
//!   the first divergent bit.
//! * **Burst** — a paused cap-1 server is loaded with long jobs ahead
//!   of short ones, then released. Measured per-pool queue delays show
//!   weighted-fair dispatch protecting the short pool where FIFO makes
//!   it wait out the long backlog.
//! * **Offered load** — solo runs price each job class via
//!   `cstf_model::TimeModel::job_critical_path`; [`offered_load`] then
//!   sweeps submission rates and reports p50/p99 sojourn latency and
//!   throughput for FIFO vs fair. At high offered load fair pools must
//!   improve short-job p99 latency without losing throughput.
//!
//! `--tiny` is the CI smoke configuration (fewer interleavings and
//! sweep jobs, written under `target/bench-tiny/`). Results land in
//! `results/BENCH_jobserver.json`: the burst's queue delays are measured
//! on the host, the offered-load sweep is modeled.

use cstf_bench::*;
use cstf_core::{CpResult, Strategy};
use cstf_dataflow::prelude::*;
use cstf_tensor::random::RandomTensor;
use cstf_tensor::CooTensor;

/// Concurrent jobs per interleaving in the determinism part.
const MIX: u64 = 4;

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

fn main() {
    // Synthetic tensors: --scale is not read (the time model below is fixed).
    let setup = Setup::from_env(10.0, 4);
    let Setup {
        seed, nodes, tiny, ..
    } = setup;
    let interleavings: usize = setup.args.parse("interleavings", if tiny { 5 } else { 20 });
    let sweep_jobs: usize = setup.args.parse("jobs", if tiny { 60 } else { 200 });
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
    let doc = Json::obj([
        ("experiment", Json::from("ablation_jobserver")),
        ("rank", PAPER_RANK.into()),
        ("seed", seed.into()),
        ("nodes", nodes.into()),
        ("tiny", tiny.into()),
        (
            "determinism",
            Json::obj([
                ("interleavings_quiet", Json::from(interleavings)),
                ("interleavings_chaos", interleavings.into()),
                ("concurrent_jobs", MIX.into()),
                ("bit_identical", true.into()),
            ]),
        ),
        (
            // Host-measured wall-clock delays; everything else in this
            // report is counted or modeled.
            "burst",
            Json::obj([
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
            ]),
        ),
        (
            "offered_load",
            Json::obj([
                ("short_service_secs", secs(short_secs)),
                ("long_service_secs", secs(long_secs)),
                ("max_concurrent_jobs", cap.into()),
                ("saturation_rate_jobs_per_sec", secs(saturation)),
                ("sweep", sweep.json_rows()),
            ]),
        ),
    ]);
    write_json(&setup.results_dir(), "jobserver", &doc);
}
