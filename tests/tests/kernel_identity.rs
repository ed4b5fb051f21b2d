//! Kernel bit identity: the sorted-runs task kernel reproduces the
//! record-at-a-time combine bit for bit, quiet and under twenty-five fault
//! schedules — rows of the bit-identity oracle (`tests/oracle.rs`), whose
//! pairwise sample also crosses the kernel with every other column on
//! arbitrary tensors. The kernel under map-side combining is pinned by the
//! engine's `keyed_operators_emit_a_pinned_sequence`.

cstf_integration_tests::oracle_groups!(
    sorted_kernel_bit_identical_across_twenty_fault_schedules,
    qcoo_sorted_kernel_bit_identical_under_faults,
);
