//! Memory-governed CP-ALS across crates: the acceptance bar for the
//! budgeted block manager. With `memory_budget` pinned to 25% of the
//! unbounded run's working set, a 3rd-order decomposition must still
//! complete, must actually evict and spill (otherwise the budget proved
//! nothing), and must produce factors bit-identical to the unbounded
//! reference — on a quiet cluster and under seeded task-crash schedules.

use cstf_core::{CpAls, CpResult, Strategy};
use cstf_dataflow::prelude::*;
use cstf_integration_tests::test_cluster;
use cstf_model::TimeModel;
use cstf_tensor::random::sparse_low_rank_tensor;
use cstf_tensor::CooTensor;

fn tensor() -> CooTensor {
    sparse_low_rank_tensor(&[30, 25, 20], 2, 8, 74).0
}

fn decompose(c: &Cluster, t: &CooTensor, strategy: Strategy, level: StorageLevel) -> CpResult {
    CpAls::new(2)
        .strategy(strategy)
        .max_iterations(2)
        .seed(7)
        .tensor_storage(level)
        .run(c, t)
        .unwrap()
}

/// Runs the unbounded reference and returns `(result, working_set_bytes)`.
fn reference(t: &CooTensor, strategy: Strategy) -> (CpResult, u64) {
    let c = test_cluster(4);
    let out = decompose(&c, t, strategy, StorageLevel::MemoryRaw);
    let peak = c.block_manager().peak_memory_bytes();
    assert!(peak > 0, "{strategy}: reference run cached nothing");
    (out, peak)
}

fn budgeted_cluster(budget: u64) -> Cluster {
    Cluster::new(ClusterConfig::local(4).nodes(4).memory_budget(budget))
}

/// Seeded chaos on top of the budget: crashes on ~60% of first attempts.
fn budgeted_chaos_cluster(budget: u64, seed: u64) -> Cluster {
    Cluster::new(
        ClusterConfig::local(4)
            .nodes(4)
            .memory_budget(budget)
            .max_task_attempts(4)
            .faults(FaultConfig::crashes(seed, 0.6)),
    )
}

fn assert_bits_equal(a: &CpResult, b: &CpResult, what: &str) {
    let bits = |r: &CpResult| -> Vec<u64> {
        r.kruskal
            .weights
            .iter()
            .copied()
            .chain(
                r.kruskal
                    .factors
                    .iter()
                    .flat_map(|f| f.data().iter().copied()),
            )
            .map(f64::to_bits)
            .collect()
    };
    assert_eq!(
        bits(a),
        bits(b),
        "{what}: factors drifted under memory pressure"
    );
}

/// The headline acceptance test: COO and QCOO CP-ALS at a 25% budget
/// evict, spill, and still match the unbounded bits exactly.
#[test]
fn cp_als_bit_identical_at_quarter_budget() {
    let t = tensor();
    for strategy in [Strategy::Coo, Strategy::Qcoo] {
        let (expect, working_set) = reference(&t, strategy);
        let budget = working_set / 4;

        let c = budgeted_cluster(budget);
        let got = decompose(&c, &t, strategy, StorageLevel::MemoryAndDisk);
        assert_bits_equal(&got, &expect, &format!("{strategy} quiet"));

        let bm = c.block_manager();
        assert!(
            bm.memory_bytes() <= budget,
            "{strategy}: resident over budget"
        );
        assert!(
            bm.eviction_count() > 0,
            "{strategy}: budget never bit — evictions expected"
        );
        assert!(
            bm.spilled_bytes() > 0,
            "{strategy}: MemoryAndDisk never spilled"
        );

        let report = c.metrics().snapshot().render_report();
        assert!(report.contains("STORAGE"), "{strategy} report: {report}");
        assert!(report.contains("evicted"), "{strategy} report: {report}");
        assert!(report.contains("spilled"), "{strategy} report: {report}");
    }
}

/// Memory pressure composes with fault injection: evicted blocks, spilled
/// blocks, and crashed tasks all funnel through the same deterministic
/// recovery, so the bits still match the unbounded quiet reference.
#[test]
fn cp_als_bit_identical_at_quarter_budget_under_chaos() {
    let t = tensor();
    for strategy in [Strategy::Coo, Strategy::Qcoo] {
        let (expect, working_set) = reference(&t, strategy);
        for seed in [3, 17] {
            let c = budgeted_chaos_cluster(working_set / 4, seed);
            let got = decompose(&c, &t, strategy, StorageLevel::MemoryAndDisk);
            assert_bits_equal(&got, &expect, &format!("{strategy} chaos seed {seed}"));
            assert!(
                c.metrics().snapshot().total_task_failures() >= 1,
                "{strategy} seed {seed}: schedule injected no faults"
            );
            assert!(c.block_manager().eviction_count() > 0);
        }
    }
}

/// The evicted `MemoryRaw` path (recompute from lineage, no disk) also
/// reproduces the reference bits — spill is an optimisation, not a
/// correctness requirement.
#[test]
fn memory_raw_recompute_path_matches_reference() {
    let t = tensor();
    let (expect, working_set) = reference(&t, Strategy::Coo);
    let c = budgeted_cluster(working_set / 4);
    let got = decompose(&c, &t, Strategy::Coo, StorageLevel::MemoryRaw);
    assert_bits_equal(&got, &expect, "recompute path");
    let bm = c.block_manager();
    assert!(bm.eviction_count() > 0);
    assert_eq!(bm.spilled_bytes(), 0, "MemoryRaw must not touch disk");
    assert!(
        bm.recompute_count() > 0,
        "evictions must trigger lineage recompute"
    );
}

/// A budgeted run models strictly more simulated seconds than the
/// unbounded one: spill traffic is charged, not free.
#[test]
fn quarter_budget_run_models_slower_than_unbounded() {
    let t = tensor();
    let unbounded = {
        let c = test_cluster(4);
        let _ = decompose(&c, &t, Strategy::Qcoo, StorageLevel::MemoryAndDisk);
        (
            TimeModel::spark().job_time(&c.metrics().snapshot()),
            c.block_manager().peak_memory_bytes(),
        )
    };
    let c = budgeted_cluster(unbounded.1 / 4);
    let _ = decompose(&c, &t, Strategy::Qcoo, StorageLevel::MemoryAndDisk);
    let tight = TimeModel::spark().job_time(&c.metrics().snapshot());
    assert!(
        tight > unbounded.0,
        "budgeted run must model slower: {tight} vs {}",
        unbounded.0
    );
}
