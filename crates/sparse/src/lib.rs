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
//!   tiled Gustavson variant used by NeuraChip) in [`spgemm`], with the
//!   symbolic phase that gives the memory-bloat analysis of Table 1 its
//!   counts and the NeuraCompiler its pattern and fan-in,
//! * sparse × dense multiplication ([`spmm`]) used by the GCN combination
//!   stage,
//! * random graph generators (Erdős–Rényi, R-MAT, power-law) in [`gen`],
//! * a catalog of synthetic stand-ins for the paper's SNAP/SuiteSparse
//!   datasets in [`datasets`], and
//! * structural statistics (degree distributions, imbalance metrics) in
//!   [`stats`].
//!
//! # Quick example
//!
//! ```
//! use neura_sparse::{gen::GraphGenerator, spgemm};
//!
//! // A small scale-free graph, squared (the aggregation-style SpGEMM A×A).
//! let a = GraphGenerator::power_law(500, 4_000, 2.2, 7).generate();
//! let a_csr = a.to_csr();
//! let a_csc = a.to_csc();
//! let c = spgemm::gustavson(&a_csr, &a_csr);
//! let stats = spgemm::count_products(&a_csr, &a_csr);
//! assert_eq!(c.nnz(), stats.output_nnz);
//! assert!(stats.multiplications >= stats.output_nnz as u64);
//! assert!(stats.bloat_percent() >= 0.0);
//! let _ = a_csc; // CSC form is what NeuraChip streams for matrix A.
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

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

pub use coo::CooMatrix;
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use datasets::{Dataset, DatasetCatalog};
pub use dense::DenseMatrix;
pub use error::SparseError;

/// Convenient alias for results returned by fallible constructors in this crate.
pub type Result<T> = std::result::Result<T, SparseError>;
