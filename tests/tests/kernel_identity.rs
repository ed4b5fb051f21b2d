//! Kernel bit-identity suite: the sorted-runs task kernel must reproduce
//! the record-at-a-time combine bit for bit. The kernel changes *how*
//! each task iterates (sorted SoA runs, arena-backed accumulator rows),
//! never the per-key operation sequence, so any bit drift is a bug. The
//! property runs over arbitrary tensors, every mode, random partition
//! counts and both map-side-combine settings; the chaos half demands the
//! same identity while ≥20 distinct fault schedules crash task attempts.

use cstf_core::factors::tensor_to_rdd;
use cstf_core::mttkrp::{mttkrp_coo, MttkrpOptions};
use cstf_core::qcoo::{QcooOptions, QcooState};
use cstf_dataflow::prelude::*;
use cstf_integration_tests::{random_factors, test_cluster};
use cstf_tensor::random::RandomTensor;
use cstf_tensor::{CooTensor, DenseMatrix};
use proptest::prelude::*;

fn assert_bit_identical(a: &DenseMatrix, b: &DenseMatrix, what: &str) {
    assert_eq!(a.rows(), b.rows(), "{what}: row mismatch");
    assert_eq!(a.cols(), b.cols(), "{what}: col mismatch");
    let (da, db) = (a.data(), b.data());
    for i in 0..da.len() {
        assert_eq!(
            da[i].to_bits(),
            db[i].to_bits(),
            "{what}: element {i} differs ({} vs {})",
            da[i],
            db[i]
        );
    }
}

/// Strategy generating a small random sparse tensor of order 2–4.
fn arb_tensor() -> impl Strategy<Value = CooTensor> {
    (2usize..=4)
        .prop_flat_map(|order| {
            let shape = prop::collection::vec(2u32..9, order..=order);
            (shape, 1usize..60, any::<u64>())
        })
        .prop_map(|(shape, nnz, seed)| {
            RandomTensor::new(shape)
                .nnz(nnz)
                .seed(seed)
                .values_in(-1.0, 1.0)
                .build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// SortedRuns ≡ RecordAtATime, bitwise, for every mode of arbitrary
    /// tensors under arbitrary partitioning.
    #[test]
    fn sorted_kernel_matches_record_at_a_time(
        t in arb_tensor(),
        rank in 1usize..4,
        fseed in any::<u64>(),
        partitions in 1usize..9,
        map_side_combine in any::<bool>(),
    ) {
        let c = test_cluster(3);
        let rdd = tensor_to_rdd(&c, &t, 4).persist(StorageLevel::MemoryRaw);
        let factors = random_factors(t.shape(), rank, fseed);
        for mode in 0..t.order() {
            let run = |kernel: KernelStrategy| {
                let opts = MttkrpOptions {
                    partitions: Some(partitions),
                    map_side_combine,
                    kernel,
                    ..MttkrpOptions::default()
                };
                mttkrp_coo(&c, &rdd, &factors, t.shape(), mode, &opts).unwrap()
            };
            let reference = run(KernelStrategy::RecordAtATime);
            let got = run(KernelStrategy::SortedRuns);
            prop_assert_eq!(reference.rows(), got.rows());
            for i in 0..got.rows() {
                for (x, y) in reference.row(i).iter().zip(got.row(i)) {
                    prop_assert_eq!(
                        x.to_bits(), y.to_bits(),
                        "mode {} row {} ({} vs {})", mode, i, x, y
                    );
                }
            }
        }
    }
}

/// A cluster whose injector crashes ~`probability` of first task attempts,
/// with enough attempt budget that every task still completes.
fn chaos_cluster(seed: u64, probability: f64) -> Cluster {
    Cluster::new(
        ClusterConfig::local(4)
            .nodes(4)
            .max_task_attempts(4)
            .faults(FaultConfig::crashes(seed, probability)),
    )
}

/// The sorted kernel under 20 distinct fault schedules matches a *quiet*
/// record-at-a-time run bitwise — retries and speculative re-execution
/// replay the kernel's sorted combine deterministically, and arena-hit
/// attribution never leaks across failed attempts into the results.
#[test]
fn sorted_kernel_bit_identical_across_twenty_fault_schedules() {
    let t = RandomTensor::new(vec![14, 12, 10])
        .nnz(320)
        .seed(91)
        .build();
    let factors = random_factors(t.shape(), 2, 92);

    let quiet_reference = {
        let c = test_cluster(4);
        let rdd = tensor_to_rdd(&c, &t, 8).persist(StorageLevel::MemoryRaw);
        let opts = MttkrpOptions {
            kernel: KernelStrategy::RecordAtATime,
            ..MttkrpOptions::default()
        };
        (0..t.order())
            .map(|m| mttkrp_coo(&c, &rdd, &factors, t.shape(), m, &opts).unwrap())
            .collect::<Vec<_>>()
    };

    for seed in 0..20u64 {
        let c = chaos_cluster(seed, 0.7);
        let rdd = tensor_to_rdd(&c, &t, 8).persist(StorageLevel::MemoryRaw);
        let opts = MttkrpOptions::default(); // sorted-runs kernel
        for (mode, expect) in quiet_reference.iter().enumerate() {
            let got = mttkrp_coo(&c, &rdd, &factors, t.shape(), mode, &opts).unwrap();
            assert_bit_identical(&got, expect, &format!("seed {seed} mode {mode}"));
        }
        let m = c.metrics().snapshot();
        assert!(
            m.total_task_failures() >= 1,
            "seed {seed}: schedule injected no faults — the run proved nothing"
        );
    }
}

/// QCOO's sorted-runs path (persisted queue state, two shuffles per
/// step) survives crash injection bit-identically against a quiet
/// record-at-a-time cycle.
#[test]
fn qcoo_sorted_kernel_bit_identical_under_faults() {
    let t = RandomTensor::new(vec![12, 11, 10])
        .nnz(260)
        .seed(93)
        .build();
    let factors = random_factors(t.shape(), 2, 94);

    let run = |c: &Cluster, kernel: KernelStrategy| -> Vec<DenseMatrix> {
        let rdd = tensor_to_rdd(c, &t, 8).persist(StorageLevel::MemoryRaw);
        let opts = QcooOptions {
            kernel,
            ..QcooOptions::default()
        };
        let mut q = QcooState::init_with(c, &rdd, &factors, t.shape(), 2, 8, opts).unwrap();
        let out = (0..t.order())
            .map(|_| q.step(&factors[q.next_join_mode()]).unwrap().1)
            .collect();
        q.release();
        out
    };

    let reference = run(&test_cluster(4), KernelStrategy::RecordAtATime);
    for seed in [5u64, 23, 58, 71, 104] {
        let c = chaos_cluster(seed, 0.6);
        let faulty = run(&c, KernelStrategy::SortedRuns);
        for (mode, (got, expect)) in faulty.iter().zip(&reference).enumerate() {
            assert_bit_identical(got, expect, &format!("seed {seed} qcoo mode {mode}"));
        }
        assert!(c.metrics().snapshot().total_task_failures() >= 1);
    }
}
