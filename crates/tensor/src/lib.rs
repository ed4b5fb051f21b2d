//! Sparse tensor and dense linear-algebra substrate for CSTF.
//!
//! This crate provides everything the CSTF algorithms (crate `cstf-core`)
//! need below the distributed-dataflow layer:
//!
//! * [`CooTensor`] — an N-order sparse tensor in coordinate (COO) storage,
//!   the format CSTF operates on directly (paper §4.1).
//! * [`DenseMatrix`] — row-major dense matrices used for the CP factor
//!   matrices, with the operations CP-ALS needs (gram, Hadamard, column
//!   normalization).
//! * [`linalg`] — small-matrix routines: Cholesky, Jacobi symmetric
//!   eigendecomposition and the Moore–Penrose pseudoinverse used in the
//!   CP-ALS normal equations (Algorithm 1/3 of the paper).
//! * [`KruskalTensor`] — the result of a CP decomposition
//!   `[λ; A₁, …, A_N]`, with fit evaluation against the original tensor.
//! * [`mttkrp`] — sequential reference implementations of the Matricized
//!   Tensor Times Khatri-Rao Product, used to validate the distributed
//!   implementations.
//! * [`random`] / [`datasets`] — seeded synthetic tensor generators,
//!   including scaled-down stand-ins for the FROSTT datasets of Table 5.
//! * [`spmv`] — DFacTo's fiber keys and matricized views, the substrate of
//!   the distributed SpMV strategy in `cstf-core`; [`unfold_strides`] /
//!   [`unfold_column`] — the mode-`n` unfolding the BIGtensor baseline
//!   keys by; [`io`] — FROSTT `.tns` files.
//!
//! Those names, the modules above and the pieces of the reference
//! unfolded MTTKRP that the property tests check ([`khatri_rao`],
//! [`khatri_rao_all`], [`matricize`]) are the whole public surface;
//! everything else is private to the crate.
//!
//! Everything is `f64` ("all the experiments are performed in double
//! precision", paper §6.1) and deterministic given a seed.

#![warn(missing_docs)]

// `perf/` names these six modules by path; the rest are private and reach
// users only through the re-exports below.
pub mod datasets;
pub mod io;
pub mod linalg;
pub mod mttkrp;
pub mod random;
pub mod spmv;

mod coo;
mod dense;
mod kr;
mod kruskal;
mod matricize;

pub use coo::CooTensor;
pub use dense::DenseMatrix;
pub use kruskal::KruskalTensor;
pub use matricize::{unfold_column, unfold_strides};

// Named only by the property tests, which check the explicit products and
// the unfolding that the reference `mttkrp::mttkrp_unfolded` is built from.
pub use kr::{khatri_rao, khatri_rao_all};
pub use matricize::matricize;

/// Errors produced by tensor construction, I/O and linear algebra.
#[derive(Debug, Clone, PartialEq)]
pub enum TensorError {
    /// A coordinate lies outside the tensor shape.
    IndexOutOfBounds {
        /// Mode in which the violation occurred.
        mode: usize,
        /// Offending index value.
        index: u32,
        /// Size of that mode.
        extent: u32,
    },
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch(String),
    /// The matrix is singular / not positive definite where it must be.
    Singular(String),
    /// Malformed input file or unparsable record.
    Parse(String),
    /// Underlying I/O failure (message form; `std::io::Error` is not `Clone`).
    Io(String),
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::IndexOutOfBounds {
                mode,
                index,
                extent,
            } => write!(
                f,
                "index {index} out of bounds for mode {mode} with extent {extent}"
            ),
            TensorError::ShapeMismatch(m) => write!(f, "shape mismatch: {m}"),
            TensorError::Singular(m) => write!(f, "singular matrix: {m}"),
            TensorError::Parse(m) => write!(f, "parse error: {m}"),
            TensorError::Io(m) => write!(f, "io error: {m}"),
        }
    }
}

impl std::error::Error for TensorError {}

impl From<std::io::Error> for TensorError {
    fn from(e: std::io::Error) -> Self {
        TensorError::Io(e.to_string())
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, TensorError>;
