//! Ablation: map-side combining in the MTTKRP's final `reduceByKey`.
//!
//! ```text
//! cargo run --release -p cstf-bench --bin ablation_combine -- \
//!     [--scale 4000] [--seed 0]
//! ```
//!
//! Our default matches the paper's Table 4 accounting (no map-side
//! combine: the reduce shuffles a full `nnz·R`). Spark's real
//! `reduceByKey` combines map-side, shrinking the reduce shuffle whenever
//! partitions contain repeated output indices — which depends on the
//! output mode's size and skew. This experiment measures the reduce-stage
//! shuffle bytes both ways on every mode of every 3rd-order dataset.

use cstf_bench::*;
use cstf_core::factors::tensor_to_rdd;
use cstf_core::mttkrp::{mttkrp_coo, MttkrpOptions};
use cstf_dataflow::prelude::*;
use cstf_tensor::datasets::THIRD_ORDER;

fn main() {
    let setup = Setup::from_env(4000.0, 8);

    for (name, tensor) in setup.paper_datasets(&THIRD_ORDER) {
        let factors = random_factors(tensor.shape(), PAPER_RANK, setup.seed);
        heading("Combine ablation", &name, &tensor);

        let cluster = Cluster::new(ClusterConfig::auto().nodes(8));
        let rdd = tensor_to_rdd(&cluster, &tensor, 32).persist(StorageLevel::MemoryRaw);
        let _ = rdd.count();
        let mut report = Report::new([
            Col::new("output mode", "mode"),
            Col::new("distinct indices", "distinct"),
            Col::new("reduce bytes (paper acct.)", "plain_bytes"),
            Col::new("reduce bytes (Spark combine)", "combined_bytes"),
            Col::new("reduction", "reduction"),
        ]);
        for mode in 0..3 {
            let reduce_bytes = |combine: bool| -> u64 {
                cluster.metrics().reset();
                let _ = mttkrp_coo(
                    &cluster,
                    &rdd,
                    &factors,
                    tensor.shape(),
                    mode,
                    &MttkrpOptions {
                        partitions: Some(32),
                        map_side_combine: combine,
                        ..MttkrpOptions::default()
                    },
                )
                .expect("mttkrp failed");
                cluster
                    .metrics()
                    .snapshot()
                    .stages()
                    .filter(|s| s.name.contains("reduce_by_key"))
                    .map(|s| s.shuffle_write_bytes)
                    .sum()
            };
            let plain = reduce_bytes(false);
            let combined = reduce_bytes(true);
            report.row(vec![
                format!("mode {}", mode + 1).into(),
                tensor.distinct_indices(mode).into(),
                format!("{:.2} MB", plain as f64 / 1e6).into(),
                format!("{:.2} MB", combined as f64 / 1e6).into(),
                format!("{:.1}%", (1.0 - combined as f64 / plain as f64) * 100.0).into(),
            ]);
        }
        report.print();
        report.write_csv(&setup.results_dir(), &format!("ablation_combine_{name}"));
    }
}
