//! 2D-torus network-on-chip model.
//!
//! NeuraChip arranges NeuraCores and NeuraMems in an interleaved pattern
//! "connected through a 2D torus network fabric" with on-chip routers
//! carrying `HACC` instructions from cores to memory units (Section 3).
//! This crate models that fabric:
//!
//! * [`TorusTopology`] — coordinates, wrap-around neighbours and minimal
//!   hop distances,
//! * [`Packet`] — a routed message with latency bookkeeping; its hop
//!   count is set when it is delivered, from the torus distance of its
//!   source and destination (every dimension-order path is that long),
//! * [`TorusNetwork`] — the assembled fabric with injection, per-cycle
//!   advancement, delivery queues and the four counts the chip
//!   reads ([`NetworkStats`]: rejected injections, and delivered packets
//!   with their summed latency and hops). It owns every
//!   in-flight packet in one slab; its per-node routers (input-buffered,
//!   dimension-order, a per-cycle link budget) queue 8-byte entries — a
//!   packet's destination and its handle into that slab — in power-of-two
//!   rings, and look the next hop up in a table built once per network,
//!   so a hop reads no packet, divides nothing and takes no branch on
//!   where the packet goes.
//!
//! # Example
//!
//! ```
//! use neura_noc::{Packet, TorusNetwork, TorusTopology};
//! use neura_sim::Cycle;
//!
//! let mut net = TorusNetwork::new(TorusTopology::new(4, 4), 8);
//! net.inject(Packet::new(0, 0, 15, 16), Cycle(0)).unwrap();
//! let mut delivered = Vec::new();
//! for c in 0..64u64 {
//!     net.tick(Cycle(c));
//!     delivered.extend(net.drain_delivered(15));
//!     if !delivered.is_empty() { break; }
//! }
//! assert_eq!(delivered.len(), 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod network;
mod packet;
mod router;
mod topology;

pub use network::{NetworkStats, TorusNetwork};
pub use packet::Packet;
pub use topology::{Direction, TorusTopology};
