//! Job-server chaos: concurrent CP-ALS tenants on one faulty cluster stay
//! bit-identical to a solo run, with per-job shuffle counters equal to the
//! solo run's. The configurations are rows of the bit-identity oracle
//! (`tests/oracle.rs`) submitted through a `JobServer`.

cstf_integration_tests::oracle_groups!(
    concurrent_cp_als_bit_identical_under_chaos,
    concurrent_jobs_with_speculation_stay_invariant,
);
