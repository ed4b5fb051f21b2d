//! CSTF: Cloud-based Sparse Tensor Factorization.
//!
//! A Rust reproduction of *"CSTF: Large-Scale Sparse Tensor Factorizations
//! on Distributed Platforms"* (Blanco, Liu, Dehnavi — ICPP 2018), built on
//! the [`cstf_dataflow`] Spark-like engine and the [`cstf_tensor`]
//! substrate.
//!
//! The paper's contribution is two distributed algorithms for the CP-ALS
//! tensor decomposition, both operating directly on COO nonzeros as
//! key-value records:
//!
//! * **CSTF-COO** ([`Strategy::Coo`]) — each MTTKRP is a chain of
//!   `join`s (one per non-target mode, fetching the needed factor rows)
//!   followed by one `reduceByKey`: `N` shuffles per MTTKRP for an
//!   order-`N` tensor, no unfolding, no explicit Khatri-Rao product.
//! * **CSTF-QCOO** ([`Strategy::Qcoo`]) — carries a FIFO *queue* of factor
//!   rows with every nonzero. Between consecutive MTTKRPs only one queue
//!   slot changes, so each MTTKRP needs just **one** join plus one
//!   `reduceByKey` (2 shuffles), cutting communication by `1/N`
//!   (Algorithm 3, Figure 1, Table 4 of the paper).
//!
//! [`planner::plan`] is the one entry point to a distributed MTTKRP under
//! any [`Strategy`]: these two, broadcast COO, DFacTo-SpMV, and the
//! paper's baseline [`Strategy::BigTensor`] (the GigaTensor-style
//! unfolding workflow BIGtensor uses on Hadoop). [`CpAls`] is the one
//! CP-ALS driver and runs every strategy through it; [`cost`] is the
//! analytic cost model of Table 4 / §5.
//!
//! # Quickstart
//!
//! ```
//! use cstf_core::{CpAls, Strategy};
//! use cstf_dataflow::{Cluster, ClusterConfig};
//! use cstf_tensor::random::RandomTensor;
//!
//! let cluster = Cluster::new(ClusterConfig::local(4).nodes(4));
//! let tensor = RandomTensor::new(vec![30, 20, 25]).nnz(400).seed(7).build();
//! let result = CpAls::new(2)
//!     .max_iterations(5)
//!     .strategy(Strategy::Qcoo)
//!     .seed(42)
//!     .run(&cluster, &tensor)
//!     .unwrap();
//! assert_eq!(result.kruskal.rank(), 2);
//! assert!(result.stats.final_fit.is_finite());
//! ```

#![warn(missing_docs)]

// `perf/` names these four modules by path; the rest are private and reach
// users only through the re-exports below.
pub mod cost;
pub mod factors;
pub mod planner;
pub mod records;

mod bigtensor;
mod completion;
mod cp_als;
mod mttkrp;
mod qcoo;
mod spmv;

pub use completion::CpCompletion;
pub use cp_als::{CpAls, CpResult};
pub use planner::{Partitioning, PlanConfig, Strategy};

/// Errors from distributed decomposition runs.
#[derive(Debug, Clone, PartialEq)]
pub enum CstfError {
    /// Underlying tensor/linear-algebra failure.
    Tensor(cstf_tensor::TensorError),
    /// Invalid configuration (rank 0, bad mode, …).
    Config(String),
}

impl std::fmt::Display for CstfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CstfError::Tensor(e) => write!(f, "tensor error: {e}"),
            CstfError::Config(m) => write!(f, "configuration error: {m}"),
        }
    }
}

impl std::error::Error for CstfError {}

impl From<cstf_tensor::TensorError> for CstfError {
    fn from(e: cstf_tensor::TensorError) -> Self {
        CstfError::Tensor(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CstfError>;
