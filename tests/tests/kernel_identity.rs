//! The reduce's by-reference fold under faults: COO and QCOO MTTKRP cycles
//! reproduce their quiet reference bits under twenty-five fault schedules —
//! rows of the bit-identity oracle (`tests/oracle.rs`). The fold itself is
//! pinned by the engine's `keyed_operators_emit_a_pinned_sequence`, on
//! both combine paths and under map-side combining.

cstf_integration_tests::oracle_groups!(
    sorted_kernel_bit_identical_across_twenty_fault_schedules,
    qcoo_sorted_kernel_bit_identical_under_faults,
);
