//! Cluster-scaling study: simulated CP-ALS runtime at 4–32 nodes.
//!
//! ```text
//! cargo run --release -p cstf-examples --bin cluster_scaling
//! ```
//!
//! Runs one CP-ALS iteration of CSTF-COO and CSTF-QCOO on a synt3d-style
//! tensor for each simulated cluster size and converts the recorded stage
//! metrics into simulated seconds with the documented time model — a
//! miniature of the paper's Figure 2 experiment (see `figures
//! fig2_runtime`, i.e. `cargo run -p cstf-bench -- fig2_runtime`, for the
//! full version with the BIGtensor baseline).

use cstf_core::{CpAls, Strategy};
use cstf_dataflow::prelude::*;
use cstf_model::TimeModel;
use cstf_tensor::datasets::SYNT3D;

fn main() {
    let scale = 20_000.0;
    let tensor = SYNT3D.generate(scale, 21);
    println!(
        "synt3d @ 1/{:.0}: shape {:?}, nnz {}",
        scale,
        tensor.shape(),
        tensor.nnz()
    );
    // Each executed record stands for `scale` full-size records; fixed
    // per-stage overheads stay as-is (see the cstf_model docs).
    let model = TimeModel::spark().with_work_scale(scale);

    println!(
        "\n{:>6} {:>14} {:>14} {:>10}",
        "nodes", "COO sim(s)", "QCOO sim(s)", "QCOO/COO"
    );
    for nodes in [4usize, 8, 16, 32] {
        let mut times = Vec::new();
        for strategy in [Strategy::Coo, Strategy::Qcoo] {
            let cluster = Cluster::new(ClusterConfig::auto().nodes(nodes));
            let _ = CpAls::new(2)
                .strategy(strategy)
                .max_iterations(2)
                .skip_fit()
                .seed(9)
                .run(&cluster, &tensor)
                .expect("decomposition failed");
            let metrics = cluster.metrics().snapshot();
            // Average simulated time per iteration (2 ran).
            times.push(model.job_time(&metrics) / 2.0);
        }
        println!(
            "{:>6} {:>14.3} {:>14.3} {:>10.2}",
            nodes,
            times[0],
            times[1],
            times[1] / times[0]
        );
    }
    println!("\n(decreasing then flattening, as in Figure 2 of the paper)");
}
