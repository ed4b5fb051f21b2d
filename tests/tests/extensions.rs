//! Cross-checks between the paper-core pipelines and what is built beside
//! them: every MTTKRP implementation in the workspace must agree, and
//! completion, warm start and a shared cluster must compose with fault
//! tolerance and concurrency.

use cstf_core::planner::{plan, PlanConfig};
use cstf_core::{Partitioning, Strategy};
use cstf_dataflow::prelude::*;
use cstf_integration_tests::{random_factors, test_cluster};
use cstf_tensor::mttkrp::{mttkrp as mttkrp_seq, mttkrp_parallel, mttkrp_unfolded};
use cstf_tensor::random::RandomTensor;
use cstf_tensor::DenseMatrix;

/// Five independent MTTKRP implementations, one answer: sequential COO
/// (the reference), threaded COO, unfolded×KRP, distributed COO, and
/// distributed broadcast-join.
#[test]
fn all_seven_mttkrp_implementations_agree() {
    let t = RandomTensor::new(vec![14, 11, 9]).nnz(250).seed(71).build();
    let factors = random_factors(t.shape(), 3, 72);
    let refs: Vec<&DenseMatrix> = factors.iter().collect();
    let c = test_cluster(4);
    let config = PlanConfig {
        rank: 3,
        partitions: 8,
        partitioning: Partitioning::CoPartitionedFactors,
        kernel: KernelStrategy::default(),
        cache_tensor: true,
        storage: StorageLevel::MemoryRaw,
    };
    let mut coo = plan(&c, &t, Strategy::Coo, &config, &factors).unwrap();
    let mut broadcast = plan(&c, &t, Strategy::CooBroadcast, &config, &factors).unwrap();

    for mode in 0..3 {
        let reference = mttkrp_seq(&t, &refs, mode).unwrap();
        let candidates: Vec<(&str, DenseMatrix)> = vec![
            ("parallel", mttkrp_parallel(&t, &refs, mode, 4).unwrap()),
            ("unfolded", mttkrp_unfolded(&t, &refs, mode).unwrap()),
            ("dist-coo", coo.mttkrp(&factors, mode).unwrap()),
            ("dist-broadcast", broadcast.mttkrp(&factors, mode).unwrap()),
        ];
        for (name, m) in candidates {
            let diff = m.max_abs_diff(&reference);
            assert!(diff < 1e-9, "{name} mode {mode}: diff {diff}");
        }
    }
}

/// Tensor completion keeps working across a node failure.
#[test]
fn completion_survives_node_failure() {
    let (t, _) = cstf_tensor::random::low_rank_tensor(&[14, 12, 10], 2, 600, 0.0, 73);
    let c = test_cluster(4);
    // Poison the cluster state mid-way: run one completion, fail a node,
    // run another on the same cluster.
    let first = cstf_core::CpCompletion::new(2)
        .max_iterations(6)
        .regularization(1e-3)
        .seed(1)
        .run(&c, &t)
        .unwrap();
    c.simulate_node_failure(2);
    let second = cstf_core::CpCompletion::new(2)
        .max_iterations(6)
        .regularization(1e-3)
        .seed(1)
        .run(&c, &t)
        .unwrap();
    assert!((first.final_rmse - second.final_rmse).abs() < 1e-12);
}

/// Warm start composes with the broadcast strategy and fault injection.
#[test]
fn warm_start_broadcast_strategy_after_failure() {
    let (t, _) = cstf_tensor::random::sparse_low_rank_tensor(&[30, 25, 20], 2, 6, 74);
    let c = test_cluster(4);
    let cold = cstf_core::CpAls::new(2)
        .strategy(cstf_core::Strategy::CooBroadcast)
        .max_iterations(5)
        .seed(2)
        .run(&c, &t)
        .unwrap();
    c.simulate_node_failure(0);
    let resumed = cstf_core::CpAls::new(2)
        .strategy(cstf_core::Strategy::CooBroadcast)
        .max_iterations(5)
        .warm_start(cold.kruskal.clone())
        .run(&c, &t)
        .unwrap();
    assert!(resumed.stats.final_fit >= cold.stats.final_fit - 1e-9);
}

/// The cluster handle is thread-safe: concurrent decompositions of
/// different tensors on one cluster both succeed and match their
/// single-threaded results.
#[test]
fn concurrent_decompositions_share_a_cluster() {
    use cstf_core::{CpAls, Strategy};
    let t1 = RandomTensor::new(vec![12, 11, 10])
        .nnz(200)
        .seed(81)
        .build();
    let t2 = RandomTensor::new(vec![9, 8, 7]).nnz(150).seed(82).build();

    let solo = |t: &cstf_tensor::CooTensor| {
        CpAls::new(2)
            .strategy(Strategy::Coo)
            .max_iterations(3)
            .seed(5)
            .run(&test_cluster(4), t)
            .unwrap()
            .stats
            .final_fit
    };
    let (fit1, fit2) = (solo(&t1), solo(&t2));

    let shared = test_cluster(4);
    let (got1, got2) = std::thread::scope(|s| {
        let c1 = shared.clone();
        let c2 = shared.clone();
        let h1 = s.spawn(move || {
            CpAls::new(2)
                .strategy(Strategy::Coo)
                .max_iterations(3)
                .seed(5)
                .run(&c1, &t1)
                .unwrap()
                .stats
                .final_fit
        });
        let h2 = s.spawn(move || {
            CpAls::new(2)
                .strategy(Strategy::Coo)
                .max_iterations(3)
                .seed(5)
                .run(&c2, &t2)
                .unwrap()
                .stats
                .final_fit
        });
        (h1.join().unwrap(), h2.join().unwrap())
    });
    assert!((got1 - fit1).abs() < 1e-9);
    assert!((got2 - fit2).abs() < 1e-9);
}
