//! Partitioner-aware scheduling across crates: the shuffle-skipping hot
//! paths are invisible to the algorithm layer. The bit-identity
//! configurations (every partitioning level, quiet, under task crashes and
//! after node loss) are rows of the bit-identity oracle (`tests/oracle.rs`).

use cstf_core::factors::factor_to_rdd;
use cstf_dataflow::prelude::*;
use cstf_integration_tests::{random_factors, test_cluster};

cstf_integration_tests::oracle_groups!(
    pre_partitioned_mttkrp_recovers_from_every_node_failure,
    partitioning_levels_bit_identical_across_chaos_seeds,
    co_partitioned_qcoo_survives_failures_between_steps,
    pre_partitioned_decomposition_unaffected_by_mid_cluster_failure,
);

/// The factor-row RDD carries its partitioner across the crate boundary.
#[test]
fn partitioned_factor_rdd_reports_provenance() {
    let c = test_cluster(2);
    let factors = random_factors(&[10, 8, 6], 2, 91);
    let rdd = factor_to_rdd(&c, &factors[0], 6, Some(HashPartitioner::new(6)));
    assert_eq!(rdd.partitioner(), Some(HashPartitioner::new(6)));
    assert_eq!(rdd.count(), 10);
}
