//! DAG scheduler tests: stage-graph construction (waves, pruning,
//! diamonds), bit-identity of concurrent-wave execution against the
//! forced-sequential baseline, and chaos-seed sweeps over a diamond
//! lineage.

use cstf_dataflow::{prelude::*, Job};
use cstf_model::TimeModel;
use proptest::prelude::*;

fn cluster(nodes: usize) -> Cluster {
    Cluster::new(ClusterConfig::local(4).nodes(nodes).default_parallelism(8))
}

/// A diamond lineage: two independent shuffles off one shared base,
/// a narrow co-partitioned join, and a final key-changing shuffle on top.
///
/// ```text
///        base
///       /    \
///   A: reduce B: reduce     (wave 0 — independent)
///       \    /
///     join (narrow)
///         |
///   C: reduce_by_key        (wave 1, parents {A, B})
///         |
///       result              (wave 2)
/// ```
fn diamond(c: &Cluster, data: &[(u64, i64)]) -> Rdd<(u64, f64)> {
    let base = c.parallelize(data.to_vec(), 4);
    let a = base.reduce_by_key_with(4, false, |x, y| x.wrapping_add(y));
    let b = base
        .map(|(k, v)| (k, v.wrapping_mul(3)))
        .reduce_by_key_with(4, false, |x, y| x ^ y);
    a.join_with(&b, 4)
        .map(|(k, (x, y))| (k % 7, x as f64 * 0.5 + y as f64 * 0.25))
        .reduce_by_key_with(4, false, |x, y| x + y)
}

fn sample_data() -> Vec<(u64, i64)> {
    (0..400u64).map(|i| (i % 23, i as i64 * 31 - 977)).collect()
}

fn bits(v: &[(u64, f64)]) -> Vec<(u64, u64)> {
    v.iter().map(|&(k, x)| (k, x.to_bits())).collect()
}

#[test]
fn diamond_plan_shares_a_wave() {
    let c = cluster(2);
    let plan: Job = diamond(&c, &sample_data()).job_plan();
    assert_eq!(plan.stages.len(), 3, "{}", plan.render());
    let waves: Vec<usize> = plan.stages.iter().map(|s| s.wave).collect();
    assert_eq!(waves, vec![0, 0, 1], "{}", plan.render());
    assert!(plan.stages.iter().all(|s| !s.skipped));
    // The two factor-side stages are independent; the top stage reads both.
    assert_eq!(plan.stages[0].parents, Vec::<usize>::new());
    assert_eq!(plan.stages[1].parents, Vec::<usize>::new());
    assert_eq!(plan.stages[2].parents, vec![0, 1]);
    assert_eq!(plan.result_parents, vec![2]);
    assert_eq!(plan.num_waves, 2);
    assert_eq!(plan.stages_in_wave(0).count(), 2);
    assert_eq!(plan.stages_in_wave(1).count(), 1);
}

#[test]
fn chain_plan_gets_one_stage_per_wave() {
    let c = cluster(2);
    let rdd = c
        .parallelize(sample_data(), 4)
        .reduce_by_key_with(4, false, |x, y| x + y)
        .map(|(k, v)| (v as u64 % 5, k))
        .reduce_by_key_with(4, false, |x, y| x ^ y);
    let plan = rdd.job_plan();
    assert_eq!(plan.stages.len(), 2);
    assert_eq!(plan.stages[0].wave, 0);
    assert_eq!(plan.stages[1].wave, 1);
    assert_eq!(plan.stages[1].parents, vec![0]);
    assert_eq!(plan.num_waves, 2);
}

#[test]
fn cached_rdd_prunes_upstream_stages_from_plan() {
    let c = cluster(2);
    let mid = c
        .parallelize(sample_data(), 4)
        .reduce_by_key_with(4, false, |x, y| x + y)
        .persist(StorageLevel::MemoryRaw);
    let downstream = mid
        .map(|(k, v)| (v as u64 % 3, k))
        .reduce_by_key_with(4, false, |x, y| x ^ y);
    // Before materialization the upstream shuffle is a real stage...
    assert_eq!(downstream.job_plan().stages.len(), 2);
    let _ = mid.count();
    assert!(mid.is_fully_cached());
    // ...after, lineage is cut at the cached dataset.
    let plan = downstream.job_plan();
    assert_eq!(plan.stages.len(), 1, "{}", plan.render());
    assert_eq!(plan.stages[0].wave, 0);
    assert_eq!(plan.num_waves, 1);
}

#[test]
fn materialized_shuffle_becomes_skipped_stage() {
    let c = cluster(2);
    let x = c
        .parallelize(sample_data(), 4)
        .reduce_by_key_with(4, false, |x, y| x + y);
    let _ = x.count(); // materializes the shuffle
    let plan = x.map(|(k, v)| (k, v * 2)).job_plan();
    assert_eq!(plan.stages.len(), 1, "{}", plan.render());
    assert!(plan.stages[0].skipped);
    assert!(plan.stages[0].parents.is_empty(), "pruned below the cut");
    assert_eq!(plan.num_waves, 0, "nothing left to execute");
    assert_eq!(plan.result_parents, vec![0]);
}

#[test]
fn executed_diamond_records_wave_metadata() {
    let c = cluster(2);
    let _ = diamond(&c, &sample_data()).collect();
    let m = c.metrics().snapshot();
    let jobs = m.dag_jobs();
    assert_eq!(jobs.len(), 1);
    let mut waves: Vec<usize> = m
        .stages_in_job(jobs[0])
        .map(|s| s.dag.as_ref().unwrap().wave)
        .collect();
    waves.sort_unstable();
    // Two shuffle-map stages share wave 0; then the top shuffle; then the
    // result stage at wave == num_waves.
    assert_eq!(waves, vec![0, 0, 1, 2]);
    let report = TimeModel::spark().render_report(&m);
    assert!(report.contains("STAGES job"), "report:\n{report}");
    assert!(report.contains("critical-path"), "report:\n{report}");
}

#[test]
fn concurrent_and_sequential_counters_match() {
    let data = sample_data();
    let run = |config: ClusterConfig| {
        let c = Cluster::new(config);
        let out = diamond(&c, &data).collect();
        (bits(&out), c.metrics().snapshot())
    };
    let (seq_out, seq_m) = run(ClusterConfig::local(4).nodes(2).sequential_stages());
    let (conc_out, conc_m) = run(ClusterConfig::local(4).nodes(2));
    assert_eq!(seq_out, conc_out);
    assert_eq!(seq_m.shuffle_count(), conc_m.shuffle_count());
    assert_eq!(seq_m.total_shuffle_bytes(), conc_m.total_shuffle_bytes());
    assert_eq!(seq_m.total_remote_bytes(), conc_m.total_remote_bytes());
    assert_eq!(seq_m.total_local_bytes(), conc_m.total_local_bytes());
    // Wave metadata comes from the same plan in both modes.
    let waves = |m: &JobMetrics| -> Vec<usize> {
        let mut w: Vec<usize> = m
            .stages_in_job(m.dag_jobs()[0])
            .map(|s| s.dag.as_ref().unwrap().wave)
            .collect();
        w.sort_unstable();
        w
    };
    assert_eq!(waves(&seq_m), waves(&conc_m));
}

#[test]
fn chaos_sweep_is_bit_identical_and_counter_invariant() {
    let data = sample_data();
    let baseline = {
        let c = Cluster::new(ClusterConfig::local(4).nodes(2).sequential_stages());
        let out = diamond(&c, &data).collect();
        (bits(&out), c.metrics().snapshot())
    };
    for seed in 0..24u64 {
        let config = ClusterConfig::local(4)
            .nodes(2)
            .faults(FaultConfig::crashes(seed, 0.3).with_late_crashes(0.1));
        let c = Cluster::new(config);
        let out = diamond(&c, &data).collect();
        assert_eq!(bits(&out), baseline.0, "seed {seed} changed results");
        let m = c.metrics().snapshot();
        // Shuffle accounting is retry-invariant: only winning attempts
        // commit, so chaos runs count exactly the quiet bytes.
        assert_eq!(m.shuffle_count(), baseline.1.shuffle_count());
        assert_eq!(
            m.total_shuffle_bytes(),
            baseline.1.total_shuffle_bytes(),
            "seed {seed} leaked retry bytes"
        );
        // Every injected failure is retried exactly once (no lost tasks).
        assert_eq!(m.total_task_retries(), m.total_task_failures());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Concurrent-wave execution is bit-identical to the forced-sequential
    /// scheduler on arbitrary diamond inputs.
    #[test]
    fn concurrent_waves_bit_identical_to_sequential(
        data in prop::collection::vec((0u64..32, any::<i64>()), 1..250),
        nodes in 1usize..5,
    ) {
        let seq = {
            let c = Cluster::new(ClusterConfig::local(4).nodes(nodes).sequential_stages());
            bits(&diamond(&c, &data).collect())
        };
        let conc = {
            let c = Cluster::new(ClusterConfig::local(4).nodes(nodes));
            bits(&diamond(&c, &data).collect())
        };
        prop_assert_eq!(seq, conc);
    }
}

/// Runs `job` and returns the message it unwound with.
fn abort_message(job: impl FnOnce()) -> String {
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job))
        .expect_err("the job must abort");
    payload
        .downcast_ref::<String>()
        .expect("stage aborts carry a formatted message")
        .clone()
}

/// A stage that exhausts its attempt budget aborts the job naming *that*
/// stage — whichever wave it ran in, beside whichever other stages.
#[test]
fn abort_names_the_stage_that_failed() {
    let c = cluster(2);
    let reduced = c
        .parallelize(sample_data(), 4)
        .reduce_by_key_with(4, false, |x, y| x + y);

    // The shuffle-map stage is healthy; the result stage's tasks die.
    let doomed_result = reduced.map(|(k, _)| -> u64 {
        if k == 3 {
            panic!("result task dies");
        }
        k
    });
    let msg = abort_message(|| {
        let _ = doomed_result.collect();
    });
    assert!(
        msg.starts_with("stage 'collect(map)' aborted: task ") && msg.contains("result task dies"),
        "{msg}"
    );
    assert!(msg.contains("failed after 4 attempt(s)"), "{msg}");

    // A doomed map stage sharing wave 0 with a healthy one: the flat task
    // index of the wave must map back to the right stage.
    let healthy = c.parallelize(sample_data(), 4).partition_by(4);
    let doomed_map = c
        .parallelize(sample_data(), 4)
        .map(|(k, v)| -> (u64, i64) {
            if k == 5 {
                panic!("map task dies");
            }
            (k, v)
        })
        .reduce_by_key_with(4, false, |x, y| x ^ y);
    let msg = abort_message(|| {
        let _ = healthy.join_with(&doomed_map, 4).count();
    });
    assert!(
        msg.starts_with("stage 'shuffle-map(reduce_by_key)' aborted: task ")
            && msg.contains("map task dies"),
        "{msg}"
    );
}
