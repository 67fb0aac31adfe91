//! Cycle-level simulation primitives — what every crate of the reproduction
//! shares of the paper's NeuraSim.
//!
//! The cycle loop itself lives in `neura_chip` (`Accelerator` drives cores,
//! NoC, NeuraMems and memory controllers by hand in Figure 5 order); this
//! crate holds the types that loop and its units are written in:
//!
//! * [`Cycle`] — a strongly-typed cycle counter,
//! * [`Histogram`] — fixed-bin sample histograms behind the paper's CPI and
//!   HACC-latency figures,
//! * [`LatencyHistogram`] — mergeable log-bucketed percentile state shared
//!   by the serving telemetry and the chip-level profiler,
//! * [`DeterministicRng`] — a small explicitly-seeded RNG so simulations are
//!   reproducible without depending on global random state,
//! * [`BitSet`] — a fixed-capacity set of unit indices, one bit each, that
//!   the chip loop, the torus, the HashPad and the serving fleet keep of the
//!   units that can change, so a walk visits only those, in ascending index.
//!
//! Everything here is deterministic: given the same samples and seeds,
//! every run produces bit-identical statistics.
//!
//! # Example
//!
//! ```
//! use neura_sim::{Cycle, DeterministicRng, Histogram};
//!
//! let mut rng = DeterministicRng::new(7);
//! let mut cpi = Histogram::new(25, 4); // bins 0-25, 25-50, 50-75, 75-100+
//! let mut now = Cycle::ZERO;
//! for _ in 0..100 {
//!     let latency = rng.next_below(120);
//!     cpi.record(latency);
//!     now += latency;
//! }
//! assert_eq!(cpi.count(), 100);
//! assert!(now < Cycle(120 * 100));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bitset;
mod cycle;
mod latency;
mod rng;
pub mod stats;

pub use bitset::BitSet;
pub use cycle::Cycle;
pub use latency::{LatencyHistogram, RELATIVE_ERROR_BOUND, SUB_BUCKET_BITS};
pub use rng::DeterministicRng;
pub use stats::Histogram;
