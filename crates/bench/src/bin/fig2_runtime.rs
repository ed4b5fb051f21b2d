//! Figure 2: CP-ALS runtime vs cluster size on 3rd-order tensors —
//! CSTF-COO, CSTF-QCOO and BIGtensor.
//!
//! ```text
//! cargo run --release -p cstf-bench --bin fig2_runtime -- \
//!     --dataset delicious3d   # or nell1 / synt3d / all
//!     [--scale 2000] [--iters 2] [--nodes 4,8,16,32] [--seed 0]
//! ```
//!
//! For every node count the three algorithms run the same scaled dataset
//! on a fresh simulated cluster; the recorded stage/disk/job events are
//! converted to per-iteration seconds with the documented time models
//! (Spark profile for CSTF, Hadoop profile for BIGtensor), both
//! compensated by the dataset scale factor.
//!
//! Expected shape (paper §6.4): BIGtensor slowest everywhere with CSTF
//! speedups in the 2.2×–6.9× band; all curves decrease and flatten toward
//! 32 nodes; QCOO ≈ COO at 4 nodes, ahead at 16–32.

use cstf_bench::*;
use cstf_tensor::datasets::THIRD_ORDER;

fn main() {
    // The node count is swept (`--nodes 4,8,16,32`), not set.
    let setup = Setup::from_env(2000.0, PAPER_NODE_COUNTS[0]);
    runtime_vs_nodes("Figure 2", "fig2", &setup, &THIRD_ORDER, true);
}
