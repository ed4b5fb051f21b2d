//! Figure 3: CP-ALS runtime vs cluster size on 4th-order tensors —
//! CSTF-COO vs CSTF-QCOO.
//!
//! ```text
//! cargo run --release -p cstf-bench --bin fig3_runtime4d -- \
//!     --dataset delicious4d   # or flickr / all
//!     [--scale 4000] [--iters 2] [--nodes 4,8,16,32] [--seed 0]
//! ```
//!
//! BIGtensor supports only 3rd-order tensors, so — as in the paper (§6.3)
//! — CSTF-COO is the baseline for 4th-order runs. Expected shape: QCOO
//! gains of 0.98×–1.7× growing with cluster size (paper reports
//! 1.06×–1.67× for delicious4d, 0.98×–1.27× for flickr).

use cstf_bench::*;
use cstf_tensor::datasets::FOURTH_ORDER;

fn main() {
    // The node count is swept (`--nodes 4,8,16,32`), not set.
    let setup = Setup::from_env(4000.0, PAPER_NODE_COUNTS[0]);
    runtime_vs_nodes("Figure 3", "fig3", &setup, &FOURTH_ORDER, false);
}
