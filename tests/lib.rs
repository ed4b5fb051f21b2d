//! Cross-crate integration tests for the CSTF workspace. The tests live in
//! `tests/` next to this file; this library hosts their shared fixtures
//! and the bit-identity oracle.
//!
//! # The bit-identity oracle
//!
//! The paper builds on RDDs because recovery is invisible to the
//! algorithm (§1): whatever the engine does underneath, a decomposition
//! must produce the same factor bits. [`oracle`] states that once, as a
//! table. A [`oracle::Row`] is one configuration, one value per column
//! (reference value first):
//!
//! | column | values |
//! |---|---|
//! | `tensor` | `Golden` (9×8×7, nnz 150, seed 61, 16 partitions); the fixed tensors of the former suites, 8 partitions (`R16s71`, `R16s81`, `R16s91`: 16×13×11 nnz 350; `R14s91`: 14×12×10 nnz 320; `R12s93`: 12×11×10 nnz 260; `R15s90`: 15×12×10 nnz 320; `R15s51`: 15×12×10 nnz 300; `R12x10s93`: 12×10×8 nnz 250; `LowRank74`: 30×25×20 and `LowRank85`: 24×20×16, rank 2 support 8); `Arb(seed)`: order 2–4, extents 2–8, nnz 1–59 (the union of the former generators' ranges), rank 1–3, 1–8 partitions; `Cube(seed)`: 10×10×10, nnz 10–59, 6 partitions; outside the sampled values, `Dense` (40×36×32, nnz 20 000, seed 61, rank 8, 16 partitions) for the `GOLDEN_DENSE` rows only |
//! | `workload` | `Cycle`: `planner::plan` + one `Plan::mttkrp` per mode with fixed random factors · `Als`: `CpAls::run`, init seed 7, as many iterations as the tensor's former suite ran (3 on `R12x10s93`; 2 on `Golden`, `Dense`, `R15s90`, `R15s51`, `LowRank74`, `LowRank85`; else 1) |
//! | `strategy` | `Coo` · `Qcoo` · `CooBroadcast` · `DfactoSpmv` |
//! | `partitioning` | `CoPartitionedFactors` · `None` · `PrePartitionedTensor` |
//! | `scheduler` | concurrent · `sequential_stages` |
//! | `storage` | unbudgeted `MemoryRaw` · `Spill` (`MemoryAndDisk` at a quarter of the working set) · `Recompute` (`MemoryRaw` at a quarter) |
//! | `faults` | quiet · crash · late crash · crash + delay · delay + speculation · node loss |
//! | `threads` | 4 · 1 · 2 (reference: 2 on `Golden`, `Dense` and `Cube`, else 4) |
//! | `nodes` | 4 · 1 · 3 · 9 (reference: 3 on `Arb`, 9 on `Cube`, else 4) |
//! | `submission` | direct · 3 concurrent `JobServer` tenants: tenant *i* runs variant *i* (init and factor seeds + *i*), odd tenants with the strategy's partner (COO ↔ QCOO, broadcast ↔ SpMV) |
//!
//! **Ground truth.** A row's bits are compared with its *reference row*:
//! the same tensor, workload and strategy, quiet, concurrent, unbudgeted,
//! submitted directly, with `CoPartitionedFactors`, on the thread and
//! node counts the tensor's former suite used.
//! Tenant *i* of a row is compared with its own variant's reference row.
//! A reference row on `Golden` under `Als` must hash to the FNV-1a
//! constants in [`oracle::GOLDEN`], one on `Dense` to those in
//! [`oracle::GOLDEN_DENSE`]; a reference row under `Cycle` must
//! match the sequential MTTKRP within 1e-9, which is the cross-strategy
//! check. A row that neither runs under a budget nor loses a node also
//! reproduces the shuffle-counter fingerprint of its reference row at its
//! own partitioning level, and every row asserts that its non-reference
//! columns took effect: faults fail attempts, backups launch,
//! budgets evict and spill or recompute, lost nodes held something,
//! partitioning levels skip exactly their shuffles, one node reads nothing
//! remotely. (The sequential scheduler differs from the concurrent one
//! only in log order, and only on some DAGs.)
//!
//! **Rows.** [`oracle::GROUPS`] names every configuration the former
//! suites ran, one group per former test; that test's name still runs
//! exactly those rows. `tests/tests/oracle.rs` adds a seeded sample that
//! covers every pair of column values, and the full product under
//! `--ignored`.
//!
//! **Deleting a knob** deletes its column: the field of [`oracle::Row`],
//! its value array and its entry in [`oracle::COLUMN_SIZES`], its arm in
//! `Row::set` / `Row::labels`, and the group rows that set it. The
//! coverage test fails if `set`, `labels` and `COLUMN_SIZES` disagree.

use cstf_dataflow::prelude::*;
use cstf_tensor::DenseMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub mod oracle;

/// A small simulated cluster shared by the integration tests.
pub fn test_cluster(nodes: usize) -> Cluster {
    Cluster::new(ClusterConfig::local(4).nodes(nodes))
}

/// Seeded random factor matrices for a tensor shape.
pub fn random_factors(shape: &[u32], rank: usize, seed: u64) -> Vec<DenseMatrix> {
    let mut rng = StdRng::seed_from_u64(seed);
    shape
        .iter()
        .map(|&s| DenseMatrix::random(s as usize, rank, &mut rng))
        .collect()
}

/// Asserts that two value sequences agree bit for bit.
pub fn assert_bits_eq(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length differs");
    for (i, (x, y)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} differs ({x} vs {y})"
        );
    }
}
