//! The traced pass: per-layer metrics for one workload.
//!
//! Layers are measured from outside, by timing calls into their public
//! functions on this workload's input. `perf` cannot see inside
//! `CpAls::run`, so the pass drives the identical loop itself through the
//! public API with a span around each call, and proves the replica
//! faithful by asserting its factors are bit-identical to `CpAls::run`.

use crate::alloc;
use crate::child::{
    check, cluster_config, emit, kruskal_hash, plan_config, read_inputs, run_solo, threads,
    ChildArgs,
};
use crate::json::Json;
use crate::reference;
use crate::spans::{durations_s, Tracer};
use crate::stats::{median, percentile};
use crate::workloads::Workload;
use cstf_core::cost::iteration_communication;
use cstf_core::factors::{factor_to_rdd, tensor_to_rdd};
use cstf_core::planner::plan;
use cstf_core::records::{add_rows, row_kernel_ops, Row};
use cstf_core::CpAls;
use cstf_dataflow::kernel::pool;
use cstf_dataflow::prelude::*;
use cstf_dataflow::{JobServerConfig, KernelStrategy};
use cstf_tensor::linalg::solve_normal_equations;
use cstf_tensor::mttkrp::{flops_per_nonzero, mttkrp, mttkrp_parallel};
use cstf_tensor::random::RandomTensor;
use cstf_tensor::spmv::SpmvView;
use cstf_tensor::{CooTensor, DenseMatrix, KruskalTensor};
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each isolated-primitive timing (the median is kept).
const PRIMITIVE_REPS: usize = 3;
/// Samples of the two microsecond-scale timings (one wave, one dispatch).
/// Kept small on purpose: every tiny wave is a chance to hit the
/// executor's lost wakeup (about 1 in 800 here), and a parked child costs
/// a watchdog timeout and a restart of the whole traced pass.
const MICRO_REPS: usize = 60;
/// Most rounds of (untraced run, 0-iteration run, traced replica) however
/// long the window: on a tiny input the window would otherwise fit
/// thousands of rounds, and with them a near-certain lost wakeup.
const MAX_REPLICA_ROUNDS: usize = 10;

fn secs<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Median seconds of `PRIMITIVE_REPS` runs of `f`; `setup` builds each
/// run's input outside the timed region.
fn timed_median<S, T>(mut setup: impl FnMut() -> S, mut f: impl FnMut(S) -> T) -> f64 {
    let samples: Vec<f64> = (0..PRIMITIVE_REPS)
        .map(|_| {
            let input = setup();
            let (out, s) = secs(|| f(input));
            black_box(out);
            s
        })
        .collect();
    median(&samples)
}

struct Out(Vec<(&'static str, f64)>);

impl Out {
    fn put(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
        emit("beat", vec![("at", Json::from(name))]);
    }
}

pub fn traced(args: &ChildArgs) {
    let w = &args.workload;
    let started = Instant::now();
    let mut out = Out(Vec::new());

    // ---- cstf_tensor ----------------------------------------------------
    let path = &args.inputs[0];
    let file_mb = std::fs::metadata(path).map_or(0.0, |m| m.len() as f64 / 1e6);
    let read_s = timed_median(|| (), |()| read_inputs(&args.inputs[..1]));
    out.put("tensor.io.read_tns_s", read_s);
    out.put("tensor.io.read_mb_per_s", file_mb / read_s);

    let tensors = read_inputs(&args.inputs);
    let tensor: &CooTensor = &tensors[0];
    let (nnz, order, rank) = (tensor.nnz(), tensor.order(), w.rank);
    let init = reference::initial_factors(tensor.shape(), rank, w.init_seed(0));
    let refs: Vec<&DenseMatrix> = init.iter().collect();

    let seq_s = timed_median(|| (), |()| mttkrp(tensor, &refs, 0).expect("mttkrp"));
    out.put("tensor.mttkrp.seq_s", seq_s);
    out.put("tensor.mttkrp.seq_mnnz_per_s", nnz as f64 / seq_s / 1e6);
    let par_s = timed_median(
        || (),
        |()| mttkrp_parallel(tensor, &refs, 0, threads()).expect("mttkrp_parallel"),
    );
    out.put("tensor.mttkrp.par_s", par_s);
    out.put(
        "tensor.mttkrp.flops",
        (flops_per_nonzero(order, rank) * nnz as u64) as f64,
    );
    let view_s = timed_median(|| (), |()| SpmvView::build(tensor, 0).expect("SpmvView"));
    out.put("tensor.spmv.view_build_s", view_s);

    let seq = reference::cp_als(tensor, rank, w.iterations, w.init_seed(0));
    let seq_iter_s = seq.loop_secs / w.iterations as f64;
    out.put("tensor.seq_iter_s", seq_iter_s);
    let fit_s = timed_median(|| (), |()| seq.last.fit(tensor).expect("fit"));
    out.put("tensor.kruskal.fit_s", fit_s);

    // ---- cstf_dataflow: primitives in isolation ---------------------------
    primitives(&mut out, tensor, &init[0], rank);
    jobserver(&mut out);

    // ---- the workload's own run: exact counts -----------------------------
    // (for the burst workload: its first job, run directly on a cluster)
    pool::reset_total_stats();
    let full = run_solo(w, tensor, w.iterations, args.budget);
    let (arena_hits, arena_misses) = pool::total_stats();
    let zero = run_solo(w, tensor, 0, args.budget);
    let iters = full.iterations.max(1) as f64;
    let per_iter = |f: &dyn Fn(&JobMetrics) -> f64| (f(&full.metrics) - f(&zero.metrics)) / iters;

    out.put(
        "dataflow.kernel.runs",
        per_iter(&|m| m.total_kernel_runs() as f64),
    );
    out.put(
        "dataflow.kernel.max_subtask_records",
        full.metrics.max_kernel_subtask_records() as f64,
    );
    out.put(
        "dataflow.kernel.arena_hit_rate",
        arena_hits as f64 / (arena_hits + arena_misses).max(1) as f64,
    );
    out.put("dataflow.cache.peak_mb", full.peak_cache_bytes as f64 / 1e6);
    out.put(
        "dataflow.cache.evictions",
        full.metrics.eviction_count() as f64,
    );
    out.put(
        "dataflow.cache.recomputes",
        full.metrics.recompute_count() as f64,
    );
    out.put(
        "dataflow.cache.spilled_mb",
        full.metrics.spilled_bytes() as f64 / 1e6,
    );
    out.put(
        "dataflow.shuffle.count_per_iter",
        per_iter(&|m| m.shuffle_count() as f64),
    );
    let records_per_iter =
        per_iter(&|m| m.stages().map(|s| s.shuffle_write_records).sum::<u64>() as f64);
    out.put("dataflow.shuffle.records_per_iter", records_per_iter);
    let remote = per_iter(&|m| m.total_remote_bytes() as f64);
    let shuffled = per_iter(&|m| m.total_shuffle_bytes() as f64);
    out.put("dataflow.shuffle.remote_share", remote / shuffled.max(1.0));
    out.put(
        "dataflow.scheduler.stages_per_iter",
        per_iter(&|m| m.stages().count() as f64),
    );
    out.put(
        "dataflow.scheduler.skipped_shuffles_per_iter",
        per_iter(&|m| m.skipped_shuffle_count() as f64),
    );
    out.put(
        "dataflow.broadcast.mb_per_iter",
        per_iter(&|m| m.total_broadcast_bytes() as f64) / 1e6,
    );
    let cpu: f64 = full.metrics.stages().map(|s| s.total_cpu_secs()).sum();
    out.put(
        "dataflow.executor.busy_share",
        cpu / (threads() as f64 * full.wall_s),
    );
    out.put(
        "dataflow.executor.task_retries",
        full.metrics.total_task_retries() as f64,
    );
    let predicted =
        iteration_communication(w.strategy.cost_algorithm(), order, nnz as u64, rank as u64);
    out.put(
        "core.cost.pred_over_meas_elems",
        predicted as f64 / (records_per_iter * rank as f64).max(1.0),
    );
    let fits = &full.results[0].stats.fits;
    let to_tol = fits
        .windows(2)
        .position(|p| (p[1] - p[0]).abs() < 1e-5)
        .map_or(full.iterations, |i| i + 2);
    out.put("core.cp_als.iters_to_tol", to_tol as f64);

    // Allocations of the iterations alone: counted full run − counted
    // 0-iteration run, per nonzero per iteration.
    let (_, calls_k, bytes_k) = alloc::counted(|| run_solo(w, tensor, w.iterations, args.budget));
    let (_, calls_0, bytes_0) = alloc::counted(|| run_solo(w, tensor, 0, args.budget));
    let nnz_iters = nnz as f64 * iters;
    out.put(
        "core.alloc.count_per_nnz_iter",
        calls_k.saturating_sub(calls_0) as f64 / nnz_iters,
    );
    out.put(
        "core.alloc.bytes_per_nnz_iter",
        bytes_k.saturating_sub(bytes_0) as f64 / nnz_iters,
    );

    // ---- cstf_core: the traced replica of CpAls::run ------------------------
    let partitions = cluster_config(None).default_parallelism;
    let rdd_s = timed_median(
        || Cluster::new(cluster_config(None)),
        |c| {
            tensor_to_rdd(&c, tensor, partitions)
                .persist(StorageLevel::MemoryRaw)
                .count()
        },
    );
    out.put("core.factors.tensor_to_rdd_s", rdd_s);

    let als = w.cp_als(0, w.iterations);
    let want_hash = full.hash();
    let mut tracer = Tracer::new();
    let (mut traced_wall, mut untraced_wall, mut zero_wall) = (Vec::new(), Vec::new(), Vec::new());
    let mut rep = 0;
    while rep < args.min_reps
        || (rep < MAX_REPLICA_ROUNDS && started.elapsed().as_secs_f64() < args.seconds)
    {
        let (_, s) = secs(|| untraced(&als, tensor, args.budget));
        untraced_wall.push(s);
        let (_, s) = secs(|| untraced(&w.cp_als(0, 0), tensor, args.budget));
        zero_wall.push(s);

        tracer.set_rep(rep);
        let (got, s) = secs(|| replica(w, tensor, args.budget, &mut tracer));
        traced_wall.push(s);
        let h = kruskal_hash([&got]);
        check(
            "replica_bit_identical",
            h == want_hash,
            format!("replica {h:016x} vs CpAls::run {want_hash:016x}"),
        );
        rep += 1;
    }

    let spans = tracer.spans();
    let total = |name: &str| durations_s(spans, name).iter().sum::<f64>();
    let run_total = total("run");
    let calls = (rep * w.iterations) as f64;
    let mode_medians: Vec<f64> = (1..=order)
        .map(|n| median(&durations_s(spans, &format!("mttkrp.{n}"))))
        .collect();
    let all_mttkrp: Vec<f64> = (1..=order)
        .flat_map(|n| durations_s(spans, &format!("mttkrp.{n}")))
        .collect();
    out.put("tensor.linalg.solve_s", total("solve") / calls);
    out.put("tensor.dense.gram_s", total("gram") / calls);
    out.put("core.planner.plan_s", median(&durations_s(spans, "plan")));
    out.put("core.mttkrp.call_s", median(&all_mttkrp));
    out.put(
        "core.mttkrp.max_mode_s",
        mode_medians.iter().copied().fold(0.0, f64::max),
    );
    out.put(
        "core.mttkrp.share",
        all_mttkrp.iter().sum::<f64>() / run_total,
    );
    out.put("core.cp_als.solve_share", total("solve") / run_total);
    out.put("core.cp_als.fit_share", total("fit") / run_total);
    let iter_s = (median(&untraced_wall) - median(&zero_wall)) / w.iterations as f64;
    out.put("core.cp_als.slowdown_vs_seq", iter_s / seq_iter_s);
    out.put(
        "core.trace.overhead_share",
        (median(&traced_wall) - median(&untraced_wall)) / median(&untraced_wall),
    );

    if let Some(path) = &args.spans_out {
        std::fs::write(path, tracer.to_jsonl(w.name)).expect("writing spans");
    }
    emit(
        "layers",
        vec![(
            "metrics",
            Json::Obj(
                out.0
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Json::from(v)))
                    .collect(),
            ),
        )],
    );
}

/// Dataflow primitives on this workload's records: one
/// `(coord[0], row of length R)` pair per nonzero, default partitions.
fn primitives(out: &mut Out, tensor: &CooTensor, factor0: &DenseMatrix, rank: usize) {
    let cluster = Cluster::new(cluster_config(None));
    let p = cluster.config().default_parallelism;
    let records: Vec<(u32, Row)> = tensor
        .iter()
        .map(|(coord, val)| (coord[0], vec![val; rank].into_boxed_slice()))
        .collect();
    let nnz = records.len() as f64;
    let source = || cluster.parallelize(records.clone(), p);
    let cached = || {
        let rdd = source().persist(StorageLevel::MemoryRaw);
        rdd.count();
        rdd
    };

    // One wave: a count() over a cached RDD with one record per partition.
    let tiny = cluster
        .parallelize((0..p as u32).collect::<Vec<_>>(), p)
        .persist(StorageLevel::MemoryRaw);
    tiny.count();
    let waves: Vec<f64> = (0..MICRO_REPS)
        .map(|_| secs(|| tiny.count()).1 * 1e6)
        .collect();
    out.put("dataflow.executor.wave_us", median(&waves));

    out.put(
        "dataflow.cache.persist_s",
        timed_median(source, |rdd| rdd.persist(StorageLevel::MemoryRaw).count()),
    );
    out.put(
        "dataflow.cache.hit_read_s",
        timed_median(cached, |rdd| rdd.count()),
    );
    let partition_by_s = timed_median(cached, |rdd| rdd.partition_by(p).count());
    out.put("dataflow.shuffle.partition_by_s", partition_by_s);
    out.put("dataflow.shuffle.mrec_per_s", nnz / partition_by_s / 1e6);

    out.put(
        "dataflow.pair.join_s",
        timed_median(
            || (cached(), factor_to_rdd(&cluster, factor0, p, None)),
            |(rdd, rows)| rdd.join_with(&rows, p).count(),
        ),
    );
    out.put(
        "dataflow.pair.join_copart_s",
        timed_median(
            || {
                let left = cached().partition_by(p).persist(StorageLevel::MemoryRaw);
                let right = factor_to_rdd(&cluster, factor0, p, None)
                    .partition_by(p)
                    .persist(StorageLevel::MemoryRaw);
                left.count();
                right.count();
                (left, right)
            },
            |(left, right)| left.join_with(&right, p).count(),
        ),
    );
    out.put(
        "dataflow.pair.reduce_hash_s",
        timed_median(cached, |rdd| {
            rdd.reduce_by_key_with(p, false, add_rows).count()
        }),
    );
    out.put(
        "dataflow.kernel.reduce_sorted_s",
        timed_median(cached, |rdd| {
            rdd.reduce_by_key_kernel(
                p,
                false,
                KernelStrategy::default(),
                add_rows,
                row_kernel_ops(),
            )
            .count()
        }),
    );
}

/// The job server on its own: dispatch latency of a no-op on an idle
/// server, then a closed burst of 8 tiny CP-ALS jobs (the same on every
/// workload) for queueing delay and admitted concurrency.
fn jobserver(out: &mut Out) {
    let cluster = Cluster::new(cluster_config(None));
    let server = JobServer::new(&cluster, JobServerConfig::fair(2));
    let dispatch: Vec<f64> = (0..MICRO_REPS)
        .map(|_| secs(|| server.submit("idle", |_c: &Cluster| ()).join()).1 * 1e6)
        .collect();
    out.put("dataflow.jobserver.dispatch_us", median(&dispatch));
    server.shutdown();

    let cluster = Cluster::new(cluster_config(None));
    let server = JobServer::new(&cluster, JobServerConfig::fair(2));
    let handles: Vec<_> = (0..8u64)
        .map(|job| {
            let tensor = RandomTensor::new(vec![30, 25, 20])
                .nnz(500)
                .seed(job)
                .build();
            server.submit(&format!("tenant-{}", job % 4), move |c: &Cluster| {
                CpAls::new(2)
                    .max_iterations(1)
                    .skip_fit()
                    .run(c, &tensor)
                    .expect("burst job")
            })
        })
        .collect();
    for h in handles {
        h.join().completed().expect("burst job completed");
    }
    let peak = server.peak_concurrent_jobs();
    server.shutdown();
    let delays: Vec<f64> = cluster
        .metrics()
        .snapshot()
        .job_records()
        .map(|j| j.queue_delay_secs * 1e3)
        .collect();
    out.put(
        "dataflow.jobserver.queue_delay_p50_ms",
        percentile(&delays, 50.0),
    );
    out.put("dataflow.jobserver.peak_concurrent", peak as f64);
}

fn untraced(als: &CpAls, tensor: &CooTensor, budget: Option<u64>) -> KruskalTensor {
    als.run(&Cluster::new(cluster_config(budget)), tensor)
        .expect("CP-ALS run failed")
        .kruskal
}

/// `CpAls::run`, call for call, through the public API with a span around
/// each call into a layer.
fn replica(
    w: &Workload,
    tensor: &CooTensor,
    budget: Option<u64>,
    tr: &mut Tracer,
) -> KruskalTensor {
    tr.span("run", |tr| {
        let cluster = Cluster::new(cluster_config(budget));
        let (order, rank) = (tensor.order(), w.rank);
        cluster.metrics().set_scope("Other");
        let mut factors = tr.span("init", |_| {
            reference::initial_factors(tensor.shape(), rank, w.init_seed(0))
        });
        let mut lambda = vec![1.0f64; rank];
        let mut grams: Vec<DenseMatrix> =
            tr.span("gram0", |_| factors.iter().map(DenseMatrix::gram).collect());
        let config = plan_config(w, &cluster);
        let mut planned = tr.span("plan", |_| {
            plan(&cluster, tensor, w.strategy, &config, &factors).expect("plan failed")
        });
        for _ in 0..w.iterations {
            tr.span("iteration", |tr| {
                for mode in 0..order {
                    cluster.metrics().set_scope(format!("MTTKRP-{}", mode + 1));
                    let m = tr.span(&format!("mttkrp.{}", mode + 1), |_| {
                        planned.mttkrp(&factors, mode).expect("MTTKRP failed")
                    });
                    let v = tr.span("hadamard", |_| {
                        let mut v = DenseMatrix::from_vec(rank, rank, vec![1.0; rank * rank]);
                        for (g_mode, g) in grams.iter().enumerate() {
                            if g_mode != mode {
                                v = v.hadamard(g).expect("R×R Hadamard");
                            }
                        }
                        v
                    });
                    let mut updated =
                        tr.span("solve", |_| solve_normal_equations(&m, &v).expect("solve"));
                    assert!(updated.all_finite(), "non-finite factor update");
                    lambda = tr.span("normalize", |_| updated.normalize_columns());
                    for l in &mut lambda {
                        if *l == 0.0 {
                            *l = 1.0;
                        }
                    }
                    grams[mode] = tr.span("gram", |_| updated.gram());
                    factors[mode] = updated;
                }
                cluster.metrics().set_scope("Other");
                if w.min_fit.is_some() {
                    tr.span("fit", |_| {
                        KruskalTensor::new(lambda.clone(), factors.clone())
                            .expect("shapes agree")
                            .fit(tensor)
                            .expect("fit")
                    });
                }
            });
        }
        tr.span("release", |_| planned.release());
        cluster.metrics().clear_scope();
        KruskalTensor::new(lambda, factors).expect("shapes agree")
    })
}
