//! Sparse matrix formats, reference SpGEMM algorithms, graph generators and
//! the synthetic dataset catalog used throughout the NeuraChip reproduction.
//!
//! The NeuraChip paper (ISCA 2024) evaluates a decoupled spatial accelerator
//! on sparse general matrix-matrix multiplication (SpGEMM) and on the
//! aggregation stage of Graph Convolutional Networks.  This crate provides
//! every piece of that workload substrate:
//!
//! * [`CooMatrix`], [`CsrMatrix`], [`CscMatrix`] and [`DenseMatrix`] storage
//!   formats with loss-less conversions between them,
//! * reference SpGEMM implementations for the four dataflows discussed in
//!   the paper (inner product, outer product, row-wise/Gustavson and the
//!   tiled Gustavson variant used by NeuraChip) in [`spgemm`],
//! * sparse × dense multiplication ([`spmm`]) used by the GCN combination
//!   stage,
//! * memory-bloat analysis reproducing Table 1 ([`bloat`]),
//! * random graph generators (Erdős–Rényi, R-MAT, power-law) in [`gen`],
//! * a catalog of synthetic stand-ins for the paper's SNAP/SuiteSparse
//!   datasets in [`datasets`], and
//! * structural statistics (degree distributions, imbalance metrics) in
//!   [`stats`].
//!
//! # Quick example
//!
//! ```
//! use neura_sparse::{gen::GraphGenerator, spgemm, bloat};
//!
//! // A small scale-free graph, squared (the aggregation-style SpGEMM A×A).
//! let a = GraphGenerator::power_law(500, 4_000, 2.2, 7).generate();
//! let a_csr = a.to_csr();
//! let a_csc = a.to_csc();
//! let c = spgemm::gustavson(&a_csr, &a_csr);
//! let report = bloat::analyze(&a_csr, &a_csr);
//! assert_eq!(c.nnz(), report.output_nnz);
//! assert!(report.intermediate_partial_products >= report.output_nnz as u64);
//! let _ = a_csc; // CSC form is what NeuraChip streams for matrix A.
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bloat;
mod coo;
mod csc;
mod csr;
pub mod datasets;
mod dense;
mod error;
pub mod gen;
pub mod spgemm;
pub mod spmm;
pub mod stats;

pub use bloat::BloatReport;
pub use coo::CooMatrix;
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use datasets::{Dataset, DatasetCatalog};
pub use dense::DenseMatrix;
pub use error::SparseError;

/// Convenient alias for results returned by fallible constructors in this crate.
pub type Result<T> = std::result::Result<T, SparseError>;
