//! End-to-end decomposition tests spanning all workspace crates:
//! generation → distribution → CP-ALS → fit evaluation.

use cstf_core::{CpAls, Strategy};
use cstf_dataflow::{Cluster, ClusterConfig};
use cstf_integration_tests::test_cluster;
use cstf_model::TimeModel;
use cstf_tensor::random::{sparse_low_rank_tensor, RandomTensor};
use cstf_tensor::{io, CooTensor};

/// A sparse exactly-rank-2 tensor must be recovered to near-perfect fit
/// by a rank-2 decomposition with either strategy.
#[test]
fn recovers_sparse_low_rank_structure() {
    let (tensor, _) = sparse_low_rank_tensor(&[60, 50, 40], 2, 8, 5);
    for strategy in [Strategy::Coo, Strategy::Qcoo] {
        let cluster = test_cluster(4);
        let res = CpAls::new(2)
            .strategy(strategy)
            .max_iterations(25)
            .tolerance(1e-9)
            .seed(3)
            .run(&cluster, &tensor)
            .unwrap();
        assert!(
            res.stats.final_fit > 0.95,
            "{strategy}: fit {}",
            res.stats.final_fit
        );
    }
}

/// The decomposition recovers the *planted factors*, not just the fit:
/// factor match score against the ground truth approaches 1.
#[test]
fn recovers_planted_factors_by_fms() {
    let (tensor, truth) = sparse_low_rank_tensor(&[50, 45, 40], 2, 8, 12);
    let cluster = test_cluster(4);
    let res = CpAls::new(2)
        .strategy(Strategy::Qcoo)
        .max_iterations(30)
        .tolerance(1e-10)
        .seed(4)
        .run(&cluster, &tensor)
        .unwrap();
    let fms = res.kruskal.factor_match_score(&truth).unwrap();
    assert!(fms > 0.95, "factor match score {fms}");
}

/// Nonnegative decomposition of nonnegative data recovers structure while
/// honoring the constraint.
#[test]
fn nonnegative_recovery() {
    let (tensor, truth) = sparse_low_rank_tensor(&[40, 35, 30], 2, 7, 13);
    // sparse_low_rank_tensor uses positive factor values, so the truth is
    // reachable under the constraint.
    let cluster = test_cluster(4);
    let res = CpAls::new(2)
        .nonnegative()
        .strategy(Strategy::Coo)
        .max_iterations(25)
        .seed(5)
        .run(&cluster, &tensor)
        .unwrap();
    assert!(res.stats.final_fit > 0.9, "fit {}", res.stats.final_fit);
    assert!(res
        .kruskal
        .factors
        .iter()
        .all(|f| f.data().iter().all(|&x| x >= 0.0)));
    let fms = res.kruskal.factor_match_score(&truth).unwrap();
    assert!(fms > 0.9, "fms {fms}");
}

/// BIGtensor solves the same optimization: same seed ⇒ same trajectory
/// as CSTF-COO up to float reassociation.
#[test]
fn bigtensor_reaches_same_fit() {
    let (tensor, _) = sparse_low_rank_tensor(&[40, 35, 30], 2, 6, 6);
    let cluster = test_cluster(4);
    let cstf = CpAls::new(2)
        .strategy(Strategy::Coo)
        .max_iterations(10)
        .seed(4)
        .run(&cluster, &tensor)
        .unwrap();
    let cluster2 = test_cluster(4);
    let big = CpAls::new(2)
        .strategy(Strategy::BigTensor)
        .max_iterations(10)
        .seed(4)
        .run(&cluster2, &tensor)
        .unwrap();
    assert!((cstf.stats.final_fit - big.stats.final_fit).abs() < 1e-6);
}

/// BIGtensor's factor bits and its Hadoop and shuffle log, pinned on two
/// tensors: 2 iterations, init seed 5, 4 nodes, 16 partitions. FNV-1a
/// runs over the weights, then each factor's data. Every MTTKRP launches
/// 2 jobs, reads the tensor 3 times, writes and re-reads its 2
/// intermediates, and shuffles 6 times (7 stages); the Hadoop model's
/// seconds are pinned by their bits.
#[test]
fn bigtensor_factor_bits_and_log_are_pinned() {
    // (shape, nnz, rank, FNV-1a, [jobs, disk read, disk write, shuffles,
    // shuffle bytes, stages], Hadoop seconds' bits)
    let pins = [
        (
            vec![9, 8, 7],
            150,
            2,
            0x5846_b8c8_8e20_e1bb,
            [12, 97_200, 43_200, 36, 95_904, 42],
            0x4076_599e_8cd1_9b4c,
        ),
        (
            vec![40, 36, 32],
            20_000,
            8,
            0x88f4_542d_41bb_20c7,
            [12, 24_480_000, 17_280_000, 36, 24_031_104, 42],
            0x4076_5e24_56a3_9d21,
        ),
    ];
    for (shape, nnz, rank, hash, log, secs) in pins {
        let tensor = RandomTensor::new(shape.clone()).nnz(nnz).seed(61).build();
        let cluster = Cluster::new(ClusterConfig::local(4).nodes(4).default_parallelism(16));
        let res = CpAls::new(rank)
            .strategy(Strategy::BigTensor)
            .max_iterations(2)
            .seed(5)
            .run(&cluster, &tensor)
            .unwrap();
        assert_eq!(res.stats.strategy, Strategy::BigTensor);
        let kruskal = &res.kruskal;
        let factors = kruskal.factors.iter().flat_map(|f| f.data().iter());
        let mut got = 0xcbf2_9ce4_8422_2325u64;
        for x in kruskal.weights.iter().chain(factors) {
            for byte in x.to_bits().to_le_bytes() {
                got = (got ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(got, hash, "{shape:?}: factor bits moved (got {got:#018x})");
        let m = cluster.metrics().snapshot();
        let got_log = [
            m.job_count() as u64,
            m.total_disk_read(),
            m.total_disk_write(),
            m.shuffle_count() as u64,
            m.total_shuffle_bytes(),
            m.stages().count() as u64,
        ];
        assert_eq!(got_log, log, "{shape:?}: metrics log moved");
        let got_secs = TimeModel::hadoop().job_time(&m).to_bits();
        assert_eq!(got_secs, secs, "{shape:?}: modeled seconds moved");
    }
}

/// The fit trajectory is (numerically) non-decreasing: ALS is a monotone
/// block-coordinate descent on the reconstruction error.
#[test]
fn fit_is_monotone_nondecreasing() {
    let (tensor, _) = sparse_low_rank_tensor(&[30, 30, 30], 3, 6, 7);
    let cluster = test_cluster(2);
    let res = CpAls::new(3)
        .strategy(Strategy::Qcoo)
        .max_iterations(12)
        .seed(8)
        .run(&cluster, &tensor)
        .unwrap();
    for w in res.stats.fits.windows(2) {
        assert!(w[1] >= w[0] - 1e-8, "fit regressed: {:?}", res.stats.fits);
    }
}

/// Full pipeline through the FROSTT file format: write → read → decompose.
#[test]
fn tns_roundtrip_then_decompose() {
    let (tensor, _) = sparse_low_rank_tensor(&[25, 20, 15], 2, 5, 9);
    let dir = std::env::temp_dir().join("cstf_integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("roundtrip.tns");
    io::write_tns_file(&tensor, &path).unwrap();
    let loaded = io::read_tns_file(&path).unwrap();
    assert_eq!(loaded.nnz(), tensor.nnz());

    let cluster = test_cluster(2);
    let res = CpAls::new(2)
        .max_iterations(15)
        .seed(1)
        .run(&cluster, &loaded)
        .unwrap();
    assert!(res.stats.final_fit > 0.9, "fit {}", res.stats.final_fit);
    std::fs::remove_file(path).ok();
}

/// Order-5 tensors decompose with both strategies (the paper motivates
/// higher-order support; BIGtensor cannot do this at all).
#[test]
fn fifth_order_decomposition() {
    let tensor = RandomTensor::new(vec![8, 7, 6, 5, 4])
        .nnz(300)
        .seed(10)
        .build();
    for strategy in [Strategy::Coo, Strategy::Qcoo] {
        let cluster = test_cluster(3);
        let res = CpAls::new(2)
            .strategy(strategy)
            .max_iterations(3)
            .seed(2)
            .run(&cluster, &tensor)
            .unwrap();
        assert_eq!(res.kruskal.order(), 5);
        assert!(res.stats.final_fit.is_finite());
        assert!(res.kruskal.factors.iter().all(|f| f.all_finite()));
    }
}

/// Decomposition of a tensor with duplicate-summed entries and negative
/// values behaves sanely.
#[test]
fn negative_values_and_duplicates() {
    let mut t = CooTensor::new(vec![10, 10, 10]);
    for i in 0..10u32 {
        t.push(&[i, i, i], -2.0).unwrap();
        t.push(&[i, i, i], 1.0).unwrap(); // duplicate → sums to -1
        t.push(&[i, (i + 1) % 10, i], 3.0).unwrap();
    }
    t.sum_duplicates();
    assert_eq!(t.nnz(), 20);
    let cluster = test_cluster(2);
    let res = CpAls::new(2)
        .max_iterations(10)
        .seed(5)
        .run(&cluster, &t)
        .unwrap();
    assert!(res.stats.final_fit.is_finite());
    assert!(res.stats.final_fit > 0.0);
}

/// Rank larger than needed still converges (over-parameterized CP).
#[test]
fn overcomplete_rank_converges() {
    let (tensor, _) = sparse_low_rank_tensor(&[20, 20, 20], 1, 5, 11);
    let cluster = test_cluster(2);
    let res = CpAls::new(4)
        .max_iterations(15)
        .seed(6)
        .run(&cluster, &tensor)
        .unwrap();
    assert!(res.stats.final_fit > 0.9, "fit {}", res.stats.final_fit);
}

/// Several decompositions can share one cluster; cached blocks are
/// released between runs so memory does not accumulate.
#[test]
fn sequential_runs_share_cluster_without_leaks() {
    let cluster = test_cluster(4);
    let blocks_before = cluster.block_manager().len();
    for seed in 0..3 {
        let t = RandomTensor::new(vec![15, 15, 15])
            .nnz(150)
            .seed(seed)
            .build();
        let _ = CpAls::new(2)
            .strategy(Strategy::Qcoo)
            .max_iterations(2)
            .seed(seed)
            .run(&cluster, &t)
            .unwrap();
    }
    assert_eq!(cluster.block_manager().len(), blocks_before);
}
