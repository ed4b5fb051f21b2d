//! Kernel bit identity: the sorted-runs task kernel reproduces the
//! record-at-a-time combine bit for bit. The planner-reachable
//! configurations (quiet and under twenty-five fault schedules) are rows
//! of the bit-identity oracle (`tests/oracle.rs`). The property below
//! stays here because it also varies `MttkrpOptions::map_side_combine`,
//! which no plan sets.

use cstf_core::factors::tensor_to_rdd;
use cstf_core::mttkrp::{mttkrp_coo, MttkrpOptions};
use cstf_dataflow::prelude::*;
use cstf_integration_tests::oracle::Tensor;
use cstf_integration_tests::{assert_bits_eq, random_factors, test_cluster};
use proptest::prelude::*;

cstf_integration_tests::oracle_groups!(
    sorted_kernel_bit_identical_across_twenty_fault_schedules,
    qcoo_sorted_kernel_bit_identical_under_faults,
);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// SortedRuns ≡ RecordAtATime, bitwise, for every mode of arbitrary
    /// tensors under arbitrary partitioning and map-side combining.
    #[test]
    fn sorted_kernel_matches_record_at_a_time(
        tseed in any::<u64>(),
        rank in 1usize..4,
        fseed in any::<u64>(),
        partitions in 1usize..9,
        map_side_combine in any::<bool>(),
    ) {
        let t = Tensor::Arb(tseed).build();
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
            assert_bits_eq(got.data(), reference.data(), &format!("mode {mode}"));
        }
    }
}
