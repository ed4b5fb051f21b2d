//! Integration tests pinning the paper's quantitative claims to the
//! engine's measured behaviour (Table 4, §5, §6.5 directions).

use cstf_core::cost::{iteration_communication, mttkrp_cost, qcoo_savings, Algorithm};
use cstf_core::factors::tensor_to_rdd;
use cstf_core::mttkrp::{mttkrp_coo, MttkrpOptions};
use cstf_core::qcoo::QcooState;
use cstf_core::{CpAls, Strategy};
use cstf_dataflow::prelude::*;
use cstf_integration_tests::{random_factors, test_cluster};
use cstf_model::TimeModel;
use cstf_tensor::random::RandomTensor;
use cstf_tensor::CooTensor;

fn tensor3(nnz: usize, seed: u64) -> CooTensor {
    RandomTensor::new(vec![40, 35, 30])
        .nnz(nnz)
        .seed(seed)
        .build()
}

/// Table 4 shuffle counts, measured: 4 / 3 / 2 tensor-sized shuffles per
/// mode-1 MTTKRP for BIGtensor / COO / QCOO.
#[test]
fn table4_shuffle_counts_all_algorithms() {
    let t = tensor3(600, 1);
    let threshold = t.nnz() as u64 / 2;
    let factors = random_factors(t.shape(), 2, 2);

    let algorithms = [
        Algorithm::BigTensor,
        Algorithm::CstfCoo,
        Algorithm::CstfQcoo,
        Algorithm::DfactoSpmv,
    ];
    let counts: Vec<usize> = algorithms
        .iter()
        .map(|alg| {
            let c = test_cluster(4);
            let rdd = tensor_to_rdd(&c, &t, 8).persist(StorageLevel::MemoryRaw);
            let _ = rdd.count();
            match alg {
                Algorithm::BigTensor => {
                    c.metrics().reset();
                    let _ =
                        cstf_core::bigtensor::bigtensor_mttkrp(&c, &rdd, &factors, t.shape(), 0, 8)
                            .unwrap();
                }
                Algorithm::CstfCoo => {
                    c.metrics().reset();
                    let _ = mttkrp_coo(&c, &rdd, &factors, t.shape(), 0, &MttkrpOptions::default())
                        .unwrap();
                }
                Algorithm::CstfQcoo => {
                    let mut q = QcooState::init(&c, &rdd, &factors, t.shape(), 2, 8).unwrap();
                    c.metrics().reset();
                    let _ = q.step(&factors[2]).unwrap();
                }
                Algorithm::DfactoSpmv => {
                    c.metrics().reset();
                    let _ = cstf_core::spmv::mttkrp_spmv(
                        &c,
                        &rdd,
                        &factors,
                        t.shape(),
                        0,
                        &MttkrpOptions::default(),
                    )
                    .unwrap();
                }
            }
            c.metrics().snapshot().significant_shuffle_count(threshold)
        })
        .collect();

    let models: Vec<u32> = algorithms
        .iter()
        .map(|&alg| mttkrp_cost(alg, 3, t.nnz() as u64, 2, t.shape()).shuffles)
        .collect();

    // DFacTo-SpMV's four shuffles all clear the nnz/2 significance bar on
    // this tensor: two nnz-sized plus two fiber-sized with F > nnz/2.
    assert_eq!(counts, vec![4, 3, 2, 4]);
    assert_eq!(models, vec![4, 3, 2, 4]);
}

/// §5: per-iteration shuffle counts measured over a full CP-ALS iteration:
/// COO shuffles N² times, QCOO 2N times (plus nothing else tensor-sized).
#[test]
fn per_iteration_shuffle_counts() {
    let t = tensor3(500, 3);
    let threshold = t.nnz() as u64 / 2;
    for (strategy, expect) in [(Strategy::Coo, 9usize), (Strategy::Qcoo, 6)] {
        let c = test_cluster(4);
        // Two iterations; count the second (steady state) via scope diff.
        let res = CpAls::new(2)
            .strategy(strategy)
            .max_iterations(1)
            .skip_fit()
            .seed(1)
            .run(&c, &t);
        assert!(res.is_ok());
        let m = c.metrics().snapshot();
        let steady: usize = m
            .stages()
            .filter(|s| {
                s.scope.starts_with("MTTKRP")
                    && s.kind == cstf_dataflow::StageKind::ShuffleMap
                    && s.shuffle_write_records >= threshold
            })
            .count();
        assert_eq!(steady, expect, "{strategy}");
    }
}

/// §6.5 direction: QCOO shuffles fewer bytes than COO per steady-state
/// iteration, for both 3rd and 4th order tensors.
#[test]
fn qcoo_reduces_total_shuffle_traffic() {
    for shape in [vec![30u32, 25, 20], vec![15, 12, 10, 8]] {
        let t = RandomTensor::new(shape.clone()).nnz(800).seed(4).build();
        let mttkrp_bytes = |strategy| -> u64 {
            let c = test_cluster(8);
            let _ = CpAls::new(2)
                .strategy(strategy)
                .max_iterations(2)
                .skip_fit()
                .seed(2)
                .run(&c, &t)
                .unwrap();
            let m = c.metrics().snapshot();
            m.shuffle_bytes_by_scope()
                .into_iter()
                .filter(|(s, _, _)| s.starts_with("MTTKRP"))
                .map(|(_, r, l)| r + l)
                .sum()
        };
        let coo = mttkrp_bytes(Strategy::Coo);
        let qcoo = mttkrp_bytes(Strategy::Qcoo);
        assert!(
            qcoo < coo,
            "order {}: QCOO {qcoo} not below COO {coo}",
            shape.len()
        );
    }
}

/// §5 savings formula: 1/N, and the analytic communication figures are
/// consistent with it.
#[test]
fn analytic_savings_match_formula() {
    for order in [3usize, 4, 5] {
        let coo = iteration_communication(Algorithm::CstfCoo, order, 1_000, 2) as f64;
        let qcoo = iteration_communication(Algorithm::CstfQcoo, order, 1_000, 2) as f64;
        assert!(((coo - qcoo) / coo - qcoo_savings(order)).abs() < 1e-12);
    }
}

/// Simulated runtimes order correctly: BIGtensor slowest on every node
/// count, and CSTF runtimes decrease from 4 to 16 nodes (Figure 2 shape).
#[test]
fn simulated_runtime_ordering_and_scaling() {
    // work_scale chosen so modeled work dominates fixed stage overheads,
    // as it does at the experiment scales (nnz × work_scale ≈ 1e8+ — the
    // regime of fig2_runtime); with too little work the curves flatten
    // immediately, which is realistic but not what this test checks.
    let t = tensor3(2_000, 5);
    let spark = TimeModel::spark().with_work_scale(100_000.0);
    let hadoop = TimeModel::hadoop().with_work_scale(100_000.0);

    let run = |strategy: Option<Strategy>, nodes: usize| -> JobMetrics {
        let c = test_cluster(nodes);
        match strategy {
            Some(s) => {
                let _ = CpAls::new(2)
                    .strategy(s)
                    .max_iterations(1)
                    .skip_fit()
                    .seed(3)
                    .run(&c, &t)
                    .unwrap();
            }
            None => {
                let _ = cstf_core::bigtensor::bigtensor_cp(&c, &t, 2, 1, 3).unwrap();
            }
        }
        c.metrics().snapshot()
    };

    for nodes in [4usize, 16] {
        let coo = spark.job_time(&run(Some(Strategy::Coo), nodes));
        let qcoo = spark.job_time(&run(Some(Strategy::Qcoo), nodes));
        let big = hadoop.job_time(&run(None, nodes));
        assert!(big > coo, "{nodes} nodes: BIGtensor {big} vs COO {coo}");
        assert!(big > qcoo, "{nodes} nodes: BIGtensor {big} vs QCOO {qcoo}");
    }
    let coo4 = spark.job_time(&run(Some(Strategy::Coo), 4));
    let coo16 = spark.job_time(&run(Some(Strategy::Coo), 16));
    assert!(coo16 < coo4, "COO did not scale: {coo4} → {coo16}");
}

/// The remote/local byte split behaves like Figure 4's setup: on 8 nodes
/// roughly 7/8 of shuffle traffic is remote.
#[test]
fn remote_fraction_matches_uniform_hashing() {
    let t = tensor3(1_500, 6);
    let c = test_cluster(8);
    let _ = CpAls::new(2)
        .strategy(Strategy::Coo)
        .max_iterations(1)
        .skip_fit()
        .seed(4)
        .run(&c, &t)
        .unwrap();
    let m = c.metrics().snapshot();
    let frac = m.total_remote_bytes() as f64 / m.total_shuffle_bytes() as f64;
    assert!((0.8..0.95).contains(&frac), "remote fraction {frac}");
}

/// Determinism across full decompositions: bytes, shuffles and factors
/// are identical run-to-run.
#[test]
fn full_run_determinism() {
    let t = tensor3(700, 7);
    let run = || {
        let c = test_cluster(4);
        let res = CpAls::new(2)
            .strategy(Strategy::Qcoo)
            .max_iterations(3)
            .seed(9)
            .run(&c, &t)
            .unwrap();
        let m = c.metrics().snapshot();
        (
            res.stats.final_fit,
            m.total_remote_bytes(),
            m.total_local_bytes(),
            m.shuffle_count(),
        )
    };
    assert_eq!(run(), run());
}
