//! Distributed MTTKRP against the sequential reference on arbitrary
//! sparse tensors. COO, QCOO and node invariance are rows of the
//! bit-identity oracle (`tests/oracle.rs`); BIGtensor is not a planner
//! strategy, so its property stays here.

use cstf_core::factors::tensor_to_rdd;
use cstf_integration_tests::{random_factors, test_cluster};
use cstf_tensor::mttkrp::mttkrp as mttkrp_seq;
use cstf_tensor::DenseMatrix;
use proptest::prelude::*;

cstf_integration_tests::oracle_groups!(
    coo_matches_sequential,
    qcoo_matches_sequential,
    shuffle_bytes_node_invariant,
);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// BIGtensor ≡ sequential MTTKRP for 3rd-order tensors, all modes.
    #[test]
    fn bigtensor_matches_sequential(
        shape in prop::collection::vec(2u32..8, 3..=3),
        nnz in 1usize..40,
        seed in any::<u64>(),
        fseed in any::<u64>(),
    ) {
        let t = cstf_tensor::random::RandomTensor::new(shape)
            .nnz(nnz)
            .seed(seed)
            .values_in(-1.0, 1.0)
            .build();
        let c = test_cluster(3);
        let rdd = tensor_to_rdd(&c, &t, 4);
        let factors = random_factors(t.shape(), 2, fseed);
        let refs: Vec<&DenseMatrix> = factors.iter().collect();
        for mode in 0..3 {
            let dist = cstf_core::bigtensor::bigtensor_mttkrp(&c, &rdd, &factors, t.shape(), mode, 4)
                .unwrap();
            let seq = mttkrp_seq(&t, &refs, mode).unwrap();
            prop_assert!(dist.max_abs_diff(&seq) < 1e-9, "mode {mode}");
        }
    }
}
