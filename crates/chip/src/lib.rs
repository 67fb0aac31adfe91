//! The NeuraChip accelerator model — the paper's primary contribution.
//!
//! NeuraChip is a decoupled spatial accelerator for GNN/SpGEMM workloads:
//! multiplication is performed by *NeuraCores*, accumulation of the resulting
//! partial products by *NeuraMems* with on-chip hash tables, and the two are
//! connected by a 2D-torus NoC.  Load balance is provided by a Dynamically
//! Reseeding Hash-based Mapping (DRHM) and memory bloat is controlled with a
//! rolling-eviction scheme on the hash pads.
//!
//! The crate is organised bottom-up:
//!
//! * [`isa`] — the `MMH1/2/4/8` and `HACC` instruction formats (Figures 7, 9),
//! * [`mapping`] — ring, prime-modular, random-table and DRHM compute
//!   mappings (Section 3.5, Figures 12/13),
//! * [`config`] — Tile-4 / Tile-16 / Tile-64 configurations (Tables 2, 3),
//! * [`compiler`] — lowering of SpGEMM / GCN aggregation workloads into
//!   instruction streams with rolling-eviction counters,
//! * `neuracore` — the quad-pipeline multiplication engine (Figure 6),
//! * [`neuramem`] — the hash-engine accumulation unit with rolling or
//!   barrier eviction (Figures 8, 10),
//! * `dispatcher` — push-based task distribution to NeuraCores,
//! * [`accelerator`] — the full chip assembly and cycle-level execution,
//! * [`analytic`] — the closed-form fast-path cost model fitted from
//!   cycle-level runs (two-tier pricing: analytic estimate, cycle oracle),
//! * [`profile`] — the opt-in chip profiler: windowed cycle attribution,
//!   a stall taxonomy with conservation invariants, hop/DRAM-latency
//!   distributions (zero-cost and byte-identical when off),
//! * [`gcn`] — GCN layer execution (aggregation + combination),
//! * [`power`] — the area/power/efficiency model behind Tables 4 and 5.
//!
//! # Quick start
//!
//! ```
//! use neura_chip::accelerator::Accelerator;
//! use neura_chip::config::ChipConfig;
//! use neura_sparse::gen::GraphGenerator;
//!
//! let a = GraphGenerator::erdos_renyi(64, 0.08, 1).generate().to_csr();
//! let mut chip = Accelerator::new(ChipConfig::tile_4());
//! let run = chip.run_spgemm(&a, &a).expect("simulation succeeds");
//! assert!(run.report.total_cycles > 0);
//! // The simulated accelerator produces numerically correct results.
//! let reference = neura_sparse::spgemm::gustavson(&a, &a);
//! assert_eq!(run.product.nnz(), reference.nnz());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accelerator;
pub mod analytic;
pub mod compiler;
pub mod config;
mod dispatcher;
pub mod gcn;
mod inthash;
pub mod isa;
pub mod mapping;
mod neuracore;
pub mod neuramem;
pub mod power;
pub mod profile;

pub use accelerator::{Accelerator, ExecutionReport, SpgemmRun};
pub use analytic::{AnalyticModel, WorkloadFeatures};
pub use config::{ChipConfig, TileSize};
pub use mapping::MappingKind;
pub use profile::{Profile, ProfileWindow, Profiler, StallCause};
