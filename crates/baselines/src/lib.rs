//! Analytical baseline models for the platforms NeuraChip is compared against.
//!
//! The paper's evaluation (Figures 16/17, Table 5) compares NeuraChip with
//! commodity hardware running vendor SpGEMM libraries (Intel MKL on a Xeon
//! E5, cuSPARSE/CUSP on an NVIDIA H100, hipSPARSE on an AMD MI100), with
//! prior SpGEMM accelerators (OuterSPACE, SpArch, Gamma) and with prior GNN
//! accelerators (EnGN, GROW, HyGCN, FlowGNN).  None of those systems can be
//! run inside this repository, so each is modelled analytically:
//!
//! * a [`workload::WorkloadProfile`] summarises the structural properties of
//!   an SpGEMM / GCN workload (flops, bloat, imbalance, reuse),
//! * each platform model combines a compute roofline, a bandwidth roofline
//!   and platform-specific penalty terms that encode the architectural
//!   weakness the paper attributes to it (memory bloat for outer-product
//!   designs, prefetch idle for Gamma's FiberCache, ring-reducer imbalance
//!   for EnGN, pipeline imbalance for HyGCN, …),
//! * the models are calibrated so that the *achieved* throughput on the
//!   paper's common matrix suite lands on the Table 5 figures, which makes
//!   the reproduced speedup ratios meaningful.
//!
//! The models are intentionally first-order: they are the substitute for
//! measurements that require hardware this repository does not have.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod gnn;
pub mod spec;
pub mod spgemm;
mod workload;

pub use gnn::GnnPlatform;
pub use spec::PlatformSpec;
pub use spgemm::{PlatformEstimate, SpgemmModel, SpgemmPlatform};
pub use workload::WorkloadProfile;
