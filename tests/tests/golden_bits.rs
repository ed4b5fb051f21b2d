//! Golden factor bits: every other suite compares two paths of the *same*
//! build (kernel vs kernel, planner vs pipeline, quiet vs chaos), so a
//! refactor that re-sequences a hash map or a fold moves both sides
//! together and goes unnoticed. This one pins absolute bits: an FNV-1a
//! hash over every weight and factor bit of a fixed two-iteration run per
//! strategy, recorded at rev `33f3c41` (the tree before `rdd/` was folded
//! onto one operator core). A constant here changes only when the
//! floating-point op sequence of a pipeline changes on purpose.

use cstf_core::{CpAls, Partitioning, Strategy};
use cstf_dataflow::prelude::*;
use cstf_tensor::random::RandomTensor;

fn fnv1a_of_bits(values: impl Iterator<Item = f64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in values.flat_map(|x| x.to_bits().to_le_bytes()) {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[test]
fn factor_bits_match_the_recorded_constants() {
    use Partitioning::{CoPartitionedFactors as Co, PrePartitionedTensor as Pre};
    let golden = [
        (Strategy::Coo, Co, 0xdc1b_d48b_f4cb_5a6au64),
        (Strategy::Coo, Pre, 0xdc1b_d48b_f4cb_5a6a),
        (Strategy::Qcoo, Co, 0x3f80_876f_5fb2_0386),
        (Strategy::CooBroadcast, Co, 0x8952_559e_ce6c_5ac1),
        (Strategy::DfactoSpmv, Co, 0xdda9_ebcc_4993_b248),
        (Strategy::DfactoSpmv, Pre, 0xdda9_ebcc_4993_b248),
    ];
    let tensor = RandomTensor::new(vec![9, 8, 7]).nnz(150).seed(61).build();
    for (strategy, partitioning, expected) in golden {
        let cluster = Cluster::new(ClusterConfig::local(2).nodes(4));
        let result = CpAls::new(2)
            .max_iterations(2)
            .seed(7)
            .strategy(strategy)
            .partitioning(partitioning)
            .run(&cluster, &tensor)
            .unwrap();
        let factors = result.kruskal.factors.iter().flat_map(|f| f.data());
        let got = fnv1a_of_bits(result.kruskal.weights.iter().chain(factors).copied());
        assert_eq!(
            got, expected,
            "{strategy}/{partitioning}: factor bits moved (got {got:#018x})"
        );
    }
}
