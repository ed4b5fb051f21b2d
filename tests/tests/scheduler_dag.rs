//! DAG-scheduler integration tests against the real tensor kernels: the
//! independent factor-side shuffle-map stages of one MTTKRP must share a
//! scheduling wave, CP-ALS must be bit-identical between the concurrent
//! and forced-sequential schedulers (quiet and under seeded chaos), and
//! shuffle counters must be concurrency-invariant.

use cstf_core::factors::tensor_to_rdd;
use cstf_core::mttkrp::{mttkrp_coo, MttkrpOptions};
use cstf_core::qcoo::QcooState;
use cstf_core::{CpAls, Partitioning, PlanConfig, Strategy};
use cstf_dataflow::prelude::*;
use cstf_dataflow::StageKind;
use cstf_integration_tests::random_factors;
use cstf_model::TimeModel;
use cstf_tensor::random::{sparse_low_rank_tensor, RandomTensor};
use cstf_tensor::{CooTensor, DenseMatrix};

fn tensor() -> CooTensor {
    RandomTensor::new(vec![16, 13, 11])
        .nnz(350)
        .seed(81)
        .build()
}

fn quiet(nodes: usize) -> ClusterConfig {
    ClusterConfig::local(4).nodes(nodes)
}

fn assert_bit_identical(a: &DenseMatrix, b: &DenseMatrix, what: &str) {
    assert_eq!(a.rows(), b.rows(), "{what}: row mismatch");
    assert_eq!(a.cols(), b.cols(), "{what}: col mismatch");
    for (i, (x, y)) in a.data().iter().zip(b.data()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} differs ({x} vs {y})"
        );
    }
}

/// One legacy (non-co-partitioned) order-3 COO MTTKRP: the tensor-key
/// shuffle and the two factor-side shuffles have no dependency path
/// between them, so the DAG scheduler must put all three in wave 0 —
/// this is the concurrency the paper's Spark baseline gets for free from
/// the `DAGScheduler`.
#[test]
fn legacy_mttkrp_factor_stages_share_wave_zero() {
    let t = tensor();
    let c = Cluster::new(quiet(4));
    let rdd = tensor_to_rdd(&c, &t, 8).persist(StorageLevel::MemoryRaw);
    let _ = rdd.count();
    let factors = random_factors(t.shape(), 2, 82);
    let opts = MttkrpOptions {
        co_partition_factors: false,
        ..MttkrpOptions::default()
    };
    c.metrics().reset();
    let _ = mttkrp_coo(&c, &rdd, &factors, t.shape(), 0, &opts).unwrap();
    let m = c.metrics().snapshot();
    let jobs = m.dag_jobs();
    assert_eq!(jobs.len(), 1, "one action, one job");
    let job = jobs[0];

    let waves: Vec<(usize, StageKind)> = m
        .stages_in_job(job)
        .map(|s| (s.dag.as_ref().unwrap().wave, s.kind))
        .collect();
    let wave0_maps = waves
        .iter()
        .filter(|(w, k)| *w == 0 && *k == StageKind::ShuffleMap)
        .count();
    assert!(
        wave0_maps >= 2,
        "independent factor-side stages must share wave 0; got {waves:?}"
    );
    // Full structure: tensor-key + 2 factor shuffles (wave 0), the stage-2
    // re-key (wave 1), the final reduce (wave 2), the result (wave 3).
    let mut sorted: Vec<usize> = waves.iter().map(|(w, _)| *w).collect();
    sorted.sort_unstable();
    assert_eq!(sorted, vec![0, 0, 0, 1, 2, 3], "stages: {waves:?}");

    // The overlap is worth real modeled time: the critical path through
    // this job is strictly shorter than running its stages back-to-back.
    let tm = TimeModel::spark();
    let critical = tm.job_critical_path(&m, job);
    let serialized = tm.job_serialized(&m, job);
    assert!(
        critical < serialized - 1e-9,
        "critical-path {critical} must beat serialized {serialized}"
    );
}

/// With co-partitioned factors (the default) the MTTKRP collapses to a
/// chain of tensor-sized stages — nothing to overlap, so the critical
/// path equals the serial sum and every wave holds one stage.
#[test]
fn co_partitioned_mttkrp_is_a_chain() {
    let t = tensor();
    let c = Cluster::new(quiet(4));
    let rdd = tensor_to_rdd(&c, &t, 8).persist(StorageLevel::MemoryRaw);
    let _ = rdd.count();
    let factors = random_factors(t.shape(), 2, 83);
    c.metrics().reset();
    let _ = mttkrp_coo(&c, &rdd, &factors, t.shape(), 0, &MttkrpOptions::default()).unwrap();
    let m = c.metrics().snapshot();
    let job = m.dag_jobs()[0];
    let mut waves: Vec<usize> = m
        .stages_in_job(job)
        .map(|s| s.dag.as_ref().unwrap().wave)
        .collect();
    waves.sort_unstable();
    assert_eq!(waves, vec![0, 1, 2, 3], "chain: one stage per wave");
    let tm = TimeModel::spark();
    assert!((tm.job_critical_path(&m, job) - tm.job_serialized(&m, job)).abs() < 1e-12);
}

/// Shuffle accounting must not notice the scheduler: quiet concurrent and
/// quiet sequential runs of the same legacy MTTKRP agree on every counter.
#[test]
fn counters_are_concurrency_invariant() {
    let t = tensor();
    let factors = random_factors(t.shape(), 2, 84);
    let opts = MttkrpOptions {
        co_partition_factors: false,
        ..MttkrpOptions::default()
    };
    let run = |config: ClusterConfig| {
        let c = Cluster::new(config);
        let rdd = tensor_to_rdd(&c, &t, 8).persist(StorageLevel::MemoryRaw);
        let out = mttkrp_coo(&c, &rdd, &factors, t.shape(), 0, &opts).unwrap();
        (out, c.metrics().snapshot())
    };
    let (seq_out, seq) = run(quiet(4).sequential_stages());
    let (conc_out, conc) = run(quiet(4));
    assert_bit_identical(&conc_out, &seq_out, "scheduler mode");
    assert_eq!(seq.shuffle_count(), conc.shuffle_count());
    assert_eq!(seq.total_shuffle_bytes(), conc.total_shuffle_bytes());
    assert_eq!(seq.total_remote_bytes(), conc.total_remote_bytes());
    assert_eq!(seq.total_local_bytes(), conc.total_local_bytes());
    // Same stages with the same per-stage traffic. Each mode's log order
    // is deterministic, but the two orders differ (post-order vs
    // wave-major), so compare as sorted sets.
    let traffic = |m: &JobMetrics| {
        let mut v: Vec<(String, u64, u64)> = m
            .stages()
            .map(|s| {
                (
                    s.name.clone(),
                    s.shuffle_write_bytes,
                    s.shuffle_write_records,
                )
            })
            .collect();
        v.sort();
        v
    };
    assert_eq!(traffic(&seq), traffic(&conc));
}

/// Acceptance bar: CP-ALS factors are bit-identical between the
/// sequential and concurrent schedulers, quiet and under 20 distinct
/// seeded chaos schedules. `Partitioning::None` keeps the factor-side
/// shuffles alive, so the concurrent scheduler genuinely overlaps stages
/// here — and still must change nothing.
#[test]
fn cp_als_bit_identical_across_schedulers_and_chaos_seeds() {
    let (t, _) = sparse_low_rank_tensor(&[24, 20, 16], 2, 8, 85);
    let run = |config: ClusterConfig| {
        let c = Cluster::new(config);
        let r = CpAls::new(2)
            .strategy(Strategy::Coo)
            .partitioning(Partitioning::None)
            .max_iterations(2)
            .seed(9)
            .run(&c, &t)
            .unwrap();
        (r, c)
    };

    let (reference, _) = run(quiet(4).sequential_stages());
    let (concurrent, _) = run(quiet(4));
    assert_eq!(
        reference
            .kruskal
            .weights
            .iter()
            .map(|w| w.to_bits())
            .collect::<Vec<_>>(),
        concurrent
            .kruskal
            .weights
            .iter()
            .map(|w| w.to_bits())
            .collect::<Vec<_>>(),
        "weights drifted between schedulers"
    );
    for (mode, (a, b)) in reference
        .kruskal
        .factors
        .iter()
        .zip(&concurrent.kruskal.factors)
        .enumerate()
    {
        assert_bit_identical(b, a, &format!("quiet factor {mode}"));
    }

    for seed in 0..20u64 {
        let config = quiet(4)
            .max_task_attempts(4)
            .faults(FaultConfig::crashes(seed, 0.5).with_late_crashes(0.2));
        let (chaotic, c) = run(config);
        for (mode, (a, b)) in reference
            .kruskal
            .factors
            .iter()
            .zip(&chaotic.kruskal.factors)
            .enumerate()
        {
            assert_bit_identical(b, a, &format!("seed {seed} factor {mode}"));
        }
        let m = c.metrics().snapshot();
        assert!(
            m.total_task_failures() >= 1,
            "seed {seed}: schedule injected nothing"
        );
        assert_eq!(
            m.total_task_retries(),
            m.total_task_failures(),
            "seed {seed}: retry counters must stay failure-exact under waves"
        );
    }
}

/// QCOO's step chain is sequential by construction; the DAG scheduler must
/// leave it bit-identical under chaos too.
#[test]
fn qcoo_steps_bit_identical_across_schedulers_and_chaos() {
    let t = tensor();
    let factors = random_factors(t.shape(), 2, 86);
    let run = |c: &Cluster| -> Vec<DenseMatrix> {
        let rdd = tensor_to_rdd(c, &t, 8).persist(StorageLevel::MemoryRaw);
        let mut q = QcooState::init(c, &rdd, &factors, t.shape(), 2, 8).unwrap();
        (0..t.order())
            .map(|_| q.step(&factors[q.next_join_mode()]).unwrap().1)
            .collect()
    };
    let reference = run(&Cluster::new(quiet(4).sequential_stages()));
    let concurrent = run(&Cluster::new(quiet(4)));
    for (mode, (a, b)) in reference.iter().zip(&concurrent).enumerate() {
        assert_bit_identical(b, a, &format!("quiet qcoo mode {mode}"));
    }
    for seed in [2u64, 19, 57, 101] {
        let c = Cluster::new(
            quiet(4)
                .max_task_attempts(4)
                .faults(FaultConfig::crashes(seed, 0.6)),
        );
        let chaotic = run(&c);
        for (mode, (a, b)) in reference.iter().zip(&chaotic).enumerate() {
            assert_bit_identical(b, a, &format!("seed {seed} qcoo mode {mode}"));
        }
        assert!(c.metrics().snapshot().total_task_failures() >= 1);
    }
}

// ---- pinned stage sequences ------------------------------------------
//
// Everything the scheduler decides about a job — stage ids, names, kinds,
// waves, DAG parents, task and record counts — and the full text report,
// recorded once (at `1db7def`, before the result stage moved onto the
// shuffle-map stage loop) and compared byte for byte. One executor
// thread: the report's arena-hit count depends on which worker's row pool
// a task finds warm.

/// One line per executed stage, in metrics-log order.
fn stage_lines(m: &JobMetrics) -> String {
    m.stages()
        .map(|s| {
            let d = s.dag.as_ref().expect("stage ran under the scheduler");
            format!(
                "{} {} {:?} job={} wave={} parents={:?} shuffle={:?} server_job={:?} tasks={} records={}\n",
                s.stage_id,
                s.name,
                s.kind,
                d.job,
                d.wave,
                d.parents,
                d.shuffle_id,
                d.server_job,
                s.num_tasks,
                s.records_out,
            )
        })
        .collect()
}

fn pinned_text(c: &Cluster) -> String {
    let m = c.metrics().snapshot();
    format!(
        "{}---\n{}",
        stage_lines(&m),
        TimeModel::spark().render_report(&m)
    )
}

/// Blanks every `<float> s` — the job server's wall-clock columns.
fn mask_seconds(text: &str) -> String {
    let masked: Vec<String> = text
        .lines()
        .map(|line| {
            let tokens: Vec<&str> = line.split(' ').collect();
            (0..tokens.len())
                .map(|i| {
                    let is_secs = tokens.get(i + 1) == Some(&"s")
                        && tokens[i].contains('.')
                        && tokens[i].parse::<f64>().is_ok();
                    if is_secs {
                        "_"
                    } else {
                        tokens[i]
                    }
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect();
    masked.join("\n") + "\n"
}

fn pinned_configs() -> [ClusterConfig; 2] {
    let quiet = ClusterConfig::local(1).nodes(4);
    [quiet.clone(), quiet.sequential_stages()]
}

fn plan_config(partitioning: Partitioning) -> PlanConfig {
    PlanConfig {
        rank: 2,
        partitions: 8,
        partitioning,
        kernel: KernelStrategy::default(),
        cache_tensor: true,
        storage: StorageLevel::MemoryRaw,
    }
}

/// Plans `strategy` and runs the mode-0 MTTKRP: the tensor's caching job,
/// any prologue, and one MTTKRP's stages.
fn plan_and_step(config: ClusterConfig, strategy: Strategy) -> String {
    let t = tensor();
    let c = Cluster::new(config);
    let factors = random_factors(t.shape(), 2, 87);
    let config = plan_config(Partitioning::CoPartitionedFactors);
    let mut plan = cstf_core::planner::plan(&c, &t, strategy, &config, &factors).unwrap();
    let _ = plan.mttkrp(&factors, 0).unwrap();
    pinned_text(&c)
}

#[test]
fn coo_mttkrp_stage_sequence_is_pinned() {
    for config in pinned_configs() {
        assert_eq!(
            plan_and_step(config, Strategy::Coo),
            include_str!("pinned/coo3_mttkrp.txt")
        );
    }
}

#[test]
fn qcoo_plan_and_step_stage_sequence_is_pinned() {
    for config in pinned_configs() {
        assert_eq!(
            plan_and_step(config, Strategy::Qcoo),
            include_str!("pinned/qcoo3_plan_step.txt")
        );
    }
}

/// A job over one materialized shuffle (a skipped stage), a two-stage
/// chain on top of it and an independent third stage: wave-major and
/// one-stage-per-wave execution visit the pending stages in different
/// orders.
fn skipping_job(c: &Cluster) -> Vec<(u64, (i64, i64))> {
    let base = c.parallelize(
        (0..240u64)
            .map(|i| (i % 17, i as i64 * 13 - 401))
            .collect::<Vec<_>>(),
        4,
    );
    let pre = base.reduce_by_key_with(4, false, |x, y| x.wrapping_add(y));
    let _ = pre.count(); // materializes the shuffle the job below skips
    let chain = pre
        .map(|(k, v)| (k % 5, v))
        .reduce_by_key_with(4, false, |x, y| x ^ y)
        .map(|(k, v)| (k % 3, v))
        .reduce_by_key_with(4, false, |x, y| x.wrapping_add(y));
    let side = base
        .map(|(k, v)| (k % 3, v))
        .reduce_by_key_with(4, false, |x, y| x.max(y));
    chain.join_with(&side, 4).collect()
}

#[test]
fn skipped_stage_job_sequence_is_pinned_in_both_scheduler_modes() {
    let [concurrent, sequential] = pinned_configs();
    let run = |config: ClusterConfig| {
        let c = Cluster::new(config);
        let out = skipping_job(&c);
        (out, pinned_text(&c))
    };
    let (out_c, text_c) = run(concurrent);
    let (out_s, text_s) = run(sequential);
    assert_eq!(out_c, out_s);
    assert_eq!(text_c, include_str!("pinned/skipped_concurrent.txt"));
    assert_eq!(text_s, include_str!("pinned/skipped_sequential.txt"));
}

#[test]
fn job_server_job_stage_sequence_is_pinned() {
    let [config, _] = pinned_configs();
    let c = Cluster::new(config);
    let server = JobServer::new(&c, JobServerConfig::fair(2));
    let out = server.submit("tenant", skipping_job).join().completed();
    assert!(out.is_some(), "job completed");
    server.shutdown();
    assert_eq!(
        mask_seconds(&pinned_text(&c)),
        include_str!("pinned/jobserver_job.txt")
    );
}
