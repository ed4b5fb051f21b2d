//! Fault tolerance at the algorithm level: node failures between MTTKRP
//! steps, or between two decompositions on one cluster, do not change
//! results (paper §1). The configurations are node-loss rows of the
//! bit-identity oracle (`tests/oracle.rs`).

cstf_integration_tests::oracle_groups!(
    coo_mttkrp_survives_node_failure,
    qcoo_pipeline_survives_failures_between_steps,
    full_decomposition_after_mid_cluster_failure,
);
