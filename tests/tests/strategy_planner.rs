//! Planner-layer integration tests: every MTTKRP strategy driven through
//! the uniform [`plan`] API is bit-identical to calling its underlying
//! pipeline function directly — the refactor moved construction, not
//! math. Agreement with the sequential reference under every partitioning
//! level, and DFacTo-SpMV under injected task faults, are rows of the
//! bit-identity oracle (`tests/oracle.rs`).

use cstf_core::factors::tensor_to_rdd;
use cstf_core::mttkrp::{mttkrp_coo, mttkrp_coo_broadcast, MttkrpOptions};
use cstf_core::planner::{plan, PlanConfig};
use cstf_core::qcoo::{QcooOptions, QcooState};
use cstf_core::spmv::mttkrp_spmv;
use cstf_core::{Partitioning, Strategy};
use cstf_dataflow::prelude::*;
use cstf_integration_tests::{assert_bits_eq, random_factors, test_cluster};
use cstf_tensor::random::RandomTensor;
use cstf_tensor::DenseMatrix;

cstf_integration_tests::oracle_groups!(
    all_strategies_match_sequential,
    spmv_mttkrp_bit_identical_across_twenty_fault_schedules,
    spmv_cp_als_bit_identical_under_chaos,
);

fn config(partitioning: Partitioning, rank: usize) -> PlanConfig {
    PlanConfig {
        rank,
        partitions: 4,
        partitioning,
        kernel: KernelStrategy::default(),
        cache_tensor: true,
        storage: StorageLevel::MemoryRaw,
    }
}

/// The planner is a construction refactor: driving each ported strategy
/// through `plan()` must give bitwise the same rows as calling the
/// pre-planner pipeline entry points directly.
#[test]
fn planned_strategies_bit_identical_to_direct_pipelines() {
    let t = RandomTensor::new(vec![14, 11, 9]).nnz(280).seed(81).build();
    let rank = 2;
    let partitions = 4;
    let factors = random_factors(t.shape(), rank, 82);
    let opts = MttkrpOptions {
        partitions: Some(partitions),
        co_partition_factors: true,
        ..MttkrpOptions::default()
    };

    // Direct COO / broadcast / SpMV calls on a plain cached tensor RDD.
    let direct: Vec<(Strategy, Vec<DenseMatrix>)> = {
        let c = test_cluster(3);
        let rdd = tensor_to_rdd(&c, &t, partitions).persist(StorageLevel::MemoryRaw);
        let _ = rdd.count();
        let per_mode = |f: &dyn Fn(usize) -> DenseMatrix| (0..t.order()).map(f).collect();
        vec![
            (
                Strategy::Coo,
                per_mode(&|m| mttkrp_coo(&c, &rdd, &factors, t.shape(), m, &opts).unwrap()),
            ),
            (
                Strategy::CooBroadcast,
                per_mode(&|m| {
                    mttkrp_coo_broadcast(&c, &rdd, &factors, t.shape(), m, &opts).unwrap()
                }),
            ),
            (
                Strategy::DfactoSpmv,
                per_mode(&|m| mttkrp_spmv(&c, &rdd, &factors, t.shape(), m, &opts).unwrap()),
            ),
        ]
    };
    // Direct QCOO state over one full mode cycle.
    let direct_qcoo: Vec<DenseMatrix> = {
        let c = test_cluster(3);
        let rdd = tensor_to_rdd(&c, &t, partitions).persist(StorageLevel::MemoryRaw);
        let mut q = QcooState::init_with(
            &c,
            &rdd,
            &factors,
            t.shape(),
            rank,
            partitions,
            QcooOptions::default(),
        )
        .unwrap();
        (0..t.order())
            .map(|mode| {
                let (out_mode, m) = q.step(&factors[q.next_join_mode()]).unwrap();
                assert_eq!(out_mode, mode);
                m
            })
            .collect()
    };

    for (strategy, expect) in direct
        .into_iter()
        .chain(std::iter::once((Strategy::Qcoo, direct_qcoo)))
    {
        let c = test_cluster(3);
        let mut p = plan(
            &c,
            &t,
            strategy,
            &config(Partitioning::CoPartitionedFactors, rank),
            &factors,
        )
        .unwrap();
        for (mode, want) in expect.iter().enumerate() {
            let got = p.mttkrp(&factors, mode).unwrap();
            assert_bits_eq(got.data(), want.data(), &format!("{strategy} mode {mode}"));
        }
        p.release();
    }
}
