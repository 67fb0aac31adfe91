//! Input-buffered router with dimension-order routing.

use crate::packet::Packet;
use crate::topology::{Direction, TorusTopology};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Per-router statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouterStats {
    /// Packets forwarded to a neighbouring router.
    pub forwarded: u64,
    /// Packets delivered to the local node.
    pub delivered: u64,
    /// Cycles in which at least one packet could not move because the
    /// downstream buffer was full (congestion indicator).
    pub blocked_cycles: u64,
    /// Total payload bytes that traversed this router.
    pub bytes_routed: u64,
}

/// One node's router: an input queue per direction plus a delivery queue.
#[derive(Debug, Clone)]
pub struct Router {
    node: usize,
    buffer_capacity: usize,
    /// Single merged input buffer (the paper's "packet buffers").
    input: VecDeque<Packet>,
    /// Packets destined to the local node, awaiting pickup.
    delivered: VecDeque<Packet>,
    stats: RouterStats,
}

impl Router {
    /// Creates a router for `node` with the given input-buffer capacity.
    pub fn new(node: usize, buffer_capacity: usize) -> Self {
        Router {
            node,
            buffer_capacity: buffer_capacity.max(1),
            input: VecDeque::new(),
            delivered: VecDeque::new(),
            stats: RouterStats::default(),
        }
    }

    /// The node this router serves.
    pub fn node(&self) -> usize {
        self.node
    }

    /// True when the input buffer cannot accept another packet.
    pub fn is_full(&self) -> bool {
        self.input.len() >= self.buffer_capacity
    }

    /// Free slots in the input buffer.
    pub fn free_slots(&self) -> usize {
        self.buffer_capacity - self.input.len()
    }

    /// Number of packets in the input buffer, still to be routed.
    pub fn buffered(&self) -> usize {
        self.input.len()
    }

    /// Number of packets buffered (input + undelivered local).
    pub fn occupancy(&self) -> usize {
        self.input.len() + self.delivered.len()
    }

    /// Accepts a newly *injected* packet into the input buffer.  Returns the
    /// packet back to the caller when the buffer is full (injection
    /// back-pressure toward the attached NeuraCore).
    pub fn accept(&mut self, packet: Packet) -> Result<(), Packet> {
        if self.is_full() {
            return Err(packet);
        }
        self.input.push_back(packet);
        Ok(())
    }

    /// Accepts a packet forwarded from a neighbouring router.
    ///
    /// Router-to-router transfers are never refused: the fabric uses
    /// credit-free forwarding with throughput limits instead of hard buffer
    /// limits, which keeps the wrap-around torus free of routing deadlock.
    /// Cycles in which the buffer is over its nominal capacity are counted
    /// as congestion ([`RouterStats::blocked_cycles`]).
    pub fn force_accept(&mut self, packet: Packet) {
        if self.input.len() >= self.buffer_capacity {
            self.stats.blocked_cycles += 1;
        }
        self.input.push_back(packet);
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> RouterStats {
        self.stats
    }

    /// Removes every packet delivered to the local node, oldest first.
    pub fn drain_delivered(&mut self) -> impl Iterator<Item = Packet> + '_ {
        self.delivered.drain(..)
    }

    /// Number of packets waiting in the local delivery queue.
    pub fn delivered_waiting(&self) -> usize {
        self.delivered.len()
    }

    /// The `count` most recently delivered packets still awaiting pickup
    /// (what [`Self::route_cycle`] just reported), oldest first.
    pub fn newest_delivered(&self, count: usize) -> impl Iterator<Item = &Packet> {
        self.delivered.range(self.delivered.len() - count..)
    }

    /// Routes up to `links_per_cycle` packets, pushing them to `outgoing` as
    /// `(next_node, packet)` pairs; packets for this node go to the delivery
    /// queue, and their number is returned.  Throughput — not buffer credits —
    /// is the limiting resource for router-to-router hops, so the fabric
    /// cannot deadlock on the torus wrap-around links.
    pub fn route_cycle(
        &mut self,
        topology: &TorusTopology,
        links_per_cycle: usize,
        outgoing: &mut Vec<(usize, Packet)>,
    ) -> usize {
        let mut delivered = 0usize;
        for _ in 0..links_per_cycle {
            let Some(mut packet) = self.input.pop_front() else { break };
            let dir = topology.route(self.node, packet.dst);
            self.stats.bytes_routed += packet.bytes as u64;
            if dir == Direction::Local {
                self.stats.delivered += 1;
                self.delivered.push_back(packet);
                delivered += 1;
                continue;
            }
            let next = topology.neighbor(self.node, dir);
            packet.hops += 1;
            self.stats.forwarded += 1;
            outgoing.push((next, packet));
        }
        delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_packets_are_delivered() {
        let topo = TorusTopology::new(2, 2);
        let mut r = Router::new(0, 4);
        r.accept(Packet::new(1, 0, 0, 16)).unwrap();
        let mut out = Vec::new();
        r.route_cycle(&topo, 4, &mut out);
        assert!(out.is_empty());
        assert_eq!(r.drain_delivered().count(), 1);
        assert_eq!(r.stats().delivered, 1);
    }

    #[test]
    fn remote_packets_move_toward_destination() {
        let topo = TorusTopology::new(4, 1);
        let mut r = Router::new(0, 4);
        r.accept(Packet::new(1, 0, 2, 16)).unwrap();
        let mut out = Vec::new();
        r.route_cycle(&topo, 1, &mut out);
        assert_eq!(out.len(), 1);
        let (next, packet) = &out[0];
        assert_eq!(*next, 1);
        assert_eq!(packet.hops, 1);
    }

    #[test]
    fn buffer_capacity_rejects_excess_injections() {
        let mut r = Router::new(0, 2);
        assert!(r.accept(Packet::new(1, 0, 1, 8)).is_ok());
        assert!(r.accept(Packet::new(2, 0, 1, 8)).is_ok());
        assert!(r.accept(Packet::new(3, 0, 1, 8)).is_err());
        assert!(r.is_full());
        assert_eq!(r.free_slots(), 0);
    }

    #[test]
    fn forwarded_packets_are_never_refused_but_count_congestion() {
        let mut r = Router::new(0, 1);
        r.force_accept(Packet::new(1, 3, 1, 8));
        assert_eq!(r.stats().blocked_cycles, 0);
        r.force_accept(Packet::new(2, 3, 1, 8));
        assert_eq!(r.occupancy(), 2, "forwarded packets always land");
        assert_eq!(r.stats().blocked_cycles, 1, "over-capacity transfer counts as congestion");
    }

    #[test]
    fn links_per_cycle_limits_throughput() {
        let topo = TorusTopology::new(4, 1);
        let mut r = Router::new(0, 8);
        for i in 0..6 {
            r.accept(Packet::new(i, 0, 2, 8)).unwrap();
        }
        let mut out = Vec::new();
        r.route_cycle(&topo, 2, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(r.occupancy(), 4);
    }
}
