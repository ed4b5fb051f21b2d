//! Memory-governed CP-ALS across crates. The bit-identity configurations
//! (COO and QCOO at a quarter of the working set, spilling or recomputing,
//! quiet and under task crashes) are rows of the bit-identity oracle
//! (`tests/oracle.rs`); the modeled cost of spilling is checked here.

use cstf_core::{CpAls, CpResult, Strategy};
use cstf_dataflow::prelude::*;
use cstf_integration_tests::oracle::Tensor;
use cstf_integration_tests::test_cluster;
use cstf_model::TimeModel;
use cstf_tensor::CooTensor;

cstf_integration_tests::oracle_groups!(
    cp_als_bit_identical_at_quarter_budget,
    cp_als_bit_identical_at_quarter_budget_under_chaos,
    memory_raw_recompute_path_matches_reference,
);

fn tensor() -> CooTensor {
    Tensor::LowRank74.build()
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

fn budgeted_cluster(budget: u64) -> Cluster {
    Cluster::new(ClusterConfig::local(4).nodes(4).memory_budget(budget))
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
