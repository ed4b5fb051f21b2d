//! DAG-scheduler integration tests against the real tensor kernels: the
//! independent factor-side shuffle-map stages of one MTTKRP must share a
//! scheduling wave, and the stage sequences of four jobs are pinned. Bit
//! identity and counter invariance between the concurrent and the
//! forced-sequential scheduler (quiet and under seeded chaos) are rows of
//! the bit-identity oracle (`tests/oracle.rs`).

use cstf_core::{Partitioning, PlanConfig, Strategy};
use cstf_dataflow::prelude::*;
use cstf_dataflow::StageKind;
use cstf_integration_tests::oracle::Tensor;
use cstf_integration_tests::random_factors;
use cstf_model::TimeModel;
use cstf_tensor::CooTensor;

cstf_integration_tests::oracle_groups!(
    counters_are_concurrency_invariant,
    cp_als_bit_identical_across_schedulers_and_chaos_seeds,
    qcoo_steps_bit_identical_across_schedulers_and_chaos,
);

fn tensor() -> CooTensor {
    Tensor::R16s81.build()
}

fn quiet(nodes: usize) -> ClusterConfig {
    ClusterConfig::local(4).nodes(nodes)
}

/// Plans COO at `partitioning` on a fresh quiet cluster and runs the
/// mode-0 MTTKRP: the metrics of that one job (the plan's caching job is
/// reset away).
fn coo_mode0_metrics(partitioning: Partitioning, seed: u64) -> JobMetrics {
    let t = tensor();
    let c = Cluster::new(quiet(4));
    let factors = random_factors(t.shape(), 2, seed);
    let config = plan_config(partitioning);
    let mut plan = cstf_core::planner::plan(&c, &t, Strategy::Coo, &config, &factors).unwrap();
    c.metrics().reset();
    let _ = plan.mttkrp(&factors, 0).unwrap();
    c.metrics().snapshot()
}

/// One legacy (non-co-partitioned) order-3 COO MTTKRP: the tensor-key
/// shuffle and the two factor-side shuffles have no dependency path
/// between them, so the DAG scheduler must put all three in wave 0 —
/// this is the concurrency the paper's Spark baseline gets for free from
/// the `DAGScheduler`.
#[test]
fn legacy_mttkrp_factor_stages_share_wave_zero() {
    let m = coo_mode0_metrics(Partitioning::None, 82);
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
    let m = coo_mode0_metrics(Partitioning::CoPartitionedFactors, 83);
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

// ---- pinned stage sequences ------------------------------------------
//
// Everything the scheduler decides about a job — stage ids, names, kinds,
// waves, DAG parents, task and record counts — and the full text report,
// recorded once (at `1db7def`, before the result stage moved onto the
// shuffle-map stage loop) and compared byte for byte. Every concurrent
// case also runs on four executor threads against the same fixture: the
// report holds only counts the scheduler and the data decide, and no
// task's work depends on which worker thread runs it.

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

/// One thread wave-major, one thread one stage per wave, four threads
/// wave-major.
fn pinned_configs() -> [ClusterConfig; 3] {
    let quiet = ClusterConfig::local(1).nodes(4);
    [
        quiet.clone(),
        quiet.sequential_stages(),
        ClusterConfig::local(4).nodes(4),
    ]
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
    let [concurrent, sequential, threaded] = pinned_configs();
    let run = |config: ClusterConfig| {
        let c = Cluster::new(config);
        let out = skipping_job(&c);
        (out, pinned_text(&c))
    };
    let (out_c, text_c) = run(concurrent);
    let (out_s, text_s) = run(sequential);
    let (out_t, text_t) = run(threaded);
    assert_eq!(out_c, out_s);
    assert_eq!(out_c, out_t);
    assert_eq!(text_c, include_str!("pinned/skipped_concurrent.txt"));
    assert_eq!(text_s, include_str!("pinned/skipped_sequential.txt"));
    assert_eq!(text_t, include_str!("pinned/skipped_concurrent.txt"));
}

#[test]
fn job_server_job_stage_sequence_is_pinned() {
    let [one_thread, _, threaded] = pinned_configs();
    for config in [one_thread, threaded] {
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
}
