//! Planner-layer integration tests: agreement with the sequential
//! reference for every strategy under every partitioning level, and
//! DFacTo-SpMV under injected task faults, are rows of the bit-identity
//! oracle (`tests/oracle.rs`).

cstf_integration_tests::oracle_groups!(
    all_strategies_match_sequential,
    spmv_mttkrp_bit_identical_across_twenty_fault_schedules,
    spmv_cp_als_bit_identical_under_chaos,
);
