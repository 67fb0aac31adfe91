//! HBM2 / DRAM timing model and memory controller — the reproduction's
//! substitute for DRAMsim3.
//!
//! NeuraChip couples each of its eight tiles to one HBM channel with a peak
//! bandwidth of 16 GB/s (128 GB/s aggregate, Table 5).  The paper integrates
//! DRAMsim3 for memory-request latencies; this crate provides an equivalent
//! first-order model:
//!
//! * [`HbmTiming`] — row-buffer hit/miss/conflict latencies, burst size and
//!   per-channel bandwidth,
//! * [`Channel`] — open-row tracking per bank and bandwidth-limited
//!   data return,
//! * [`MemoryController`] — per-tile controller with read/write queues and
//!   request coalescing (Step 3 of the paper's on-chip dataflow); it counts
//!   the bytes, latencies and completions the chip's report reads
//!   ([`ControllerStats`]), and the accelerator builds one per tile.
//!
//! # Example
//!
//! ```
//! use neura_mem::{HbmTiming, MemoryController, MemoryRequest};
//! use neura_sim::Cycle;
//!
//! let mut ctrl = MemoryController::new(0, HbmTiming::hbm2(), 64);
//! let id = ctrl.submit(MemoryRequest::read(0x1000, 64), Cycle(0)).unwrap();
//! let mut done = Vec::new();
//! for c in 0..200u64 {
//!     ctrl.tick(Cycle(c), &mut done);
//!     if !done.is_empty() { break; }
//! }
//! assert_eq!(done[0].id, id);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bank;
mod channel;
mod controller;
mod request;
mod timing;

pub use channel::Channel;
pub use controller::{ControllerStats, MemoryController};
pub use request::{MemoryRequest, MemoryResponse, RequestId};
pub use timing::{HbmPreset, HbmTiming};
