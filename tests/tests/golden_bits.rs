//! Golden factor bits: the oracle's `Golden` rows hash every weight and
//! factor bit of a fixed two-iteration CP-ALS run per strategy and must
//! match `oracle::GOLDEN`, recorded at rev `33f3c41`; the `Dense` rows,
//! whose per-key sums have many terms, must match `oracle::GOLDEN_DENSE`.

cstf_integration_tests::oracle_groups!(
    factor_bits_match_the_recorded_constants,
    dense_factor_bits_match_the_recorded_constants,
);
