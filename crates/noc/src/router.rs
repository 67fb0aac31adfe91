//! Input-buffered router with dimension-order routing.
//!
//! A router holds no [`Packet`]: its queues carry `Handle`s into the
//! packet slab of the [`TorusNetwork`](crate::TorusNetwork) it belongs to,
//! so a hop moves four bytes and the packet is updated where it lies.

use crate::packet::Packet;
use crate::topology::RouteTable;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Index of a packet in its network's slab.
pub(crate) type Handle = u32;

/// Per-router statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct RouterStats {
    /// Router-to-router transfers that arrived while the input buffer was
    /// already at or over its nominal capacity (congestion indicator). A
    /// count of transfers, not of cycles: several can land in one cycle.
    pub blocked_cycles: u64,
}

/// One node's router: a merged input queue plus a delivery queue.
#[derive(Debug, Clone)]
pub(crate) struct Router {
    node: usize,
    buffer_capacity: usize,
    /// Single merged input buffer (the paper's "packet buffers").
    input: VecDeque<Handle>,
    /// Packets destined to the local node, awaiting pickup.
    delivered: VecDeque<Handle>,
    stats: RouterStats,
}

impl Router {
    /// Creates a router for `node` with the given input-buffer capacity.
    pub(crate) fn new(node: usize, buffer_capacity: usize) -> Self {
        Router {
            node,
            buffer_capacity: buffer_capacity.max(1),
            input: VecDeque::new(),
            delivered: VecDeque::new(),
            stats: RouterStats::default(),
        }
    }

    /// True when the input buffer cannot accept another injected packet.
    pub(crate) fn is_full(&self) -> bool {
        self.input.len() >= self.buffer_capacity
    }

    /// Number of packets in the input buffer, still to be routed.
    pub(crate) fn buffered(&self) -> usize {
        self.input.len()
    }

    /// Accepts a newly *injected* packet into the input buffer. Returns
    /// `false`, taking nothing, when the buffer is full (injection
    /// back-pressure toward the attached NeuraCore).
    pub(crate) fn accept(&mut self, packet: Handle) -> bool {
        if self.is_full() {
            return false;
        }
        self.input.push_back(packet);
        true
    }

    /// Accepts a packet forwarded from a neighbouring router.
    ///
    /// Router-to-router transfers are never refused: the fabric uses
    /// credit-free forwarding with throughput limits instead of hard buffer
    /// limits, which keeps the wrap-around torus free of routing deadlock.
    /// A transfer that finds the buffer at or over its nominal capacity is
    /// counted as congestion ([`RouterStats::blocked_cycles`]).
    pub(crate) fn force_accept(&mut self, packet: Handle) {
        if self.is_full() {
            self.stats.blocked_cycles += 1;
        }
        self.input.push_back(packet);
    }

    /// Statistics snapshot.
    pub(crate) fn stats(&self) -> RouterStats {
        self.stats
    }

    /// Removes the oldest packet delivered to the local node, if any. (A
    /// pop per packet: most calls find the queue empty, where a `drain`
    /// costs more to set up and tear down than the check.)
    pub(crate) fn pop_delivered(&mut self) -> Option<Handle> {
        self.delivered.pop_front()
    }

    /// Number of packets waiting in the local delivery queue.
    pub(crate) fn delivered_waiting(&self) -> usize {
        self.delivered.len()
    }

    /// The `count` most recently delivered packets still awaiting pickup
    /// (what [`Self::route_cycle`] just reported), oldest first.
    pub(crate) fn newest_delivered(&self, count: usize) -> impl Iterator<Item = Handle> + '_ {
        self.delivered.range(self.delivered.len() - count..).copied()
    }

    /// Routes up to `links_per_cycle` packets of the slab `packets`, pushing
    /// them to `outgoing` as `(next_node, packet)` pairs; packets for this
    /// node go to the delivery queue, and their number is returned.
    /// Throughput — not buffer credits — is the limiting resource for
    /// router-to-router hops, so the fabric cannot deadlock on the torus
    /// wrap-around links.
    pub(crate) fn route_cycle(
        &mut self,
        routes: &RouteTable,
        packets: &mut [Packet],
        links_per_cycle: usize,
        outgoing: &mut Vec<(usize, Handle)>,
    ) -> usize {
        let mut delivered = 0usize;
        for _ in 0..links_per_cycle {
            let Some(handle) = self.input.pop_front() else { break };
            let packet = &mut packets[handle as usize];
            if packet.dst == self.node {
                self.delivered.push_back(handle);
                delivered += 1;
                continue;
            }
            packet.hops += 1;
            outgoing.push((routes.next_hop(self.node, packet.dst), handle));
        }
        delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TorusTopology;

    /// A slab of `count` packets from node 0 to `dst`; packet `i` has handle `i`.
    fn slab(count: u32, dst: usize) -> Vec<Packet> {
        (0..count).map(|id| Packet::new(u64::from(id), 0, dst, 16)).collect()
    }

    #[test]
    fn local_packets_are_delivered() {
        let routes = RouteTable::new(&TorusTopology::new(2, 2));
        let mut packets = slab(1, 0);
        let mut r = Router::new(0, 4);
        assert!(r.accept(0));
        let mut out = Vec::new();
        r.route_cycle(&routes, &mut packets, 4, &mut out);
        assert!(out.is_empty());
        assert_eq!(r.pop_delivered(), Some(0));
        assert_eq!(r.pop_delivered(), None);
    }

    #[test]
    fn remote_packets_move_toward_destination() {
        let routes = RouteTable::new(&TorusTopology::new(4, 1));
        let mut packets = slab(1, 2);
        let mut r = Router::new(0, 4);
        assert!(r.accept(0));
        let mut out = Vec::new();
        r.route_cycle(&routes, &mut packets, 1, &mut out);
        assert_eq!(out, [(1, 0)]);
        assert_eq!(packets[0].hops, 1);
    }

    #[test]
    fn buffer_capacity_rejects_excess_injections() {
        let mut r = Router::new(0, 2);
        assert!(r.accept(0));
        assert!(r.accept(1));
        assert!(!r.accept(2));
        assert!(r.is_full());
        assert_eq!(r.buffered(), 2);
    }

    #[test]
    fn forwarded_packets_are_never_refused_but_count_congestion() {
        let mut r = Router::new(0, 1);
        r.force_accept(0);
        assert_eq!(r.stats().blocked_cycles, 0);
        r.force_accept(1);
        assert_eq!(r.buffered(), 2, "forwarded packets always land");
        assert_eq!(r.stats().blocked_cycles, 1, "over-capacity transfer counts as congestion");
    }

    #[test]
    fn links_per_cycle_limits_throughput() {
        let routes = RouteTable::new(&TorusTopology::new(4, 1));
        let mut packets = slab(6, 2);
        let mut r = Router::new(0, 8);
        for handle in 0..6 {
            assert!(r.accept(handle));
        }
        let mut out = Vec::new();
        r.route_cycle(&routes, &mut packets, 2, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(r.buffered(), 4);
    }
}
