//! Network packets.

use serde::{Deserialize, Serialize};

/// A message routed over the torus fabric.
///
/// In the NeuraChip model every packet carries one `HACC` instruction
/// (16 bytes, Figure 9) from a NeuraCore to a NeuraMem; the accelerator
/// keeps the instruction itself in a table of its own, keyed by `id`.
/// Eviction write-backs do not travel the NoC: a NeuraMem submits them
/// straight to its tile's memory controller.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packet {
    /// Caller-assigned identifier (e.g. partial-product sequence number).
    pub id: u64,
    /// Source node id.
    pub src: usize,
    /// Destination node id.
    pub dst: usize,
    /// Payload size in bytes, carried for the caller; the network does not
    /// read it.
    pub bytes: usize,
    /// Cycle at which the packet was injected (filled in by the network).
    pub injected_at: u64,
    /// Number of router-to-router hops taken. The network adds them when
    /// it delivers the packet, from the torus distance of `src` and `dst`:
    /// dimension-order routing makes every path exactly that long.
    pub hops: u32,
}

impl Packet {
    /// Creates a packet; `injected_at` and `hops` start at zero and are
    /// filled in by the network, at injection and at delivery.
    pub fn new(id: u64, src: usize, dst: usize, bytes: usize) -> Self {
        Packet { id, src, dst, bytes, injected_at: 0, hops: 0 }
    }

    /// Latency from injection to `now`.
    pub fn latency(&self, now: u64) -> u64 {
        now.saturating_sub(self.injected_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_packet_has_zero_bookkeeping() {
        let p = Packet::new(7, 1, 2, 16);
        assert_eq!(p.hops, 0);
        assert_eq!(p.injected_at, 0);
        assert_eq!(p.latency(5), 5);
    }

    #[test]
    fn latency_saturates() {
        let mut p = Packet::new(1, 0, 0, 8);
        p.injected_at = 100;
        assert_eq!(p.latency(40), 0);
        assert_eq!(p.latency(140), 40);
    }
}
