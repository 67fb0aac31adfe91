//! The assembled torus fabric.
//!
//! A tick visits only the routers that hold packets, and the attached
//! components are asked only at the nodes where something arrived: the
//! network keeps both as a [`neura_sim::BitSet`], walked in ascending node
//! order.

use crate::packet::Packet;
use crate::router::{entry, entry_dst, entry_handle, Handle, Router, TickBuffers};
use crate::topology::{RouteTable, TorusTopology};
use neura_sim::{BitSet, Cycle};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Aggregate network statistics.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NetworkStats {
    /// Packets rejected at injection because the source router was full.
    pub injection_rejected: u64,
    /// Packets delivered to their destination routers.
    pub delivered: u64,
    /// Sum of delivered-packet latencies.
    pub total_latency: u64,
    /// Sum of delivered-packet hop counts.
    pub total_hops: u64,
}

impl NetworkStats {
    /// Mean end-to-end latency of delivered packets.
    pub fn mean_latency(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.delivered as f64
        }
    }

    /// Mean hop count of delivered packets.
    pub fn mean_hops(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.total_hops as f64 / self.delivered as f64
        }
    }
}

/// A 2D-torus network of input-buffered routers.
///
/// The network owns every packet in the fabric in one slab; router queues
/// hold 8-byte entries, a packet's destination and its handle into the
/// slab. A hop therefore moves eight bytes and reads no packet; the packet
/// is looked up once, when it is delivered, and a `Packet` value leaves
/// the slab only when [`Self::drain_delivered`] hands it to the attached
/// component, which also returns its slot for the next injection.
#[derive(Debug)]
pub struct TorusNetwork {
    routes: RouteTable,
    routers: Vec<Router>,
    /// Per node, the packets delivered there awaiting pickup, oldest first.
    deliveries: Vec<VecDeque<Handle>>,
    links_per_cycle: usize,
    /// The packet slab: a slot is live from `inject` to its drain.
    packets: Vec<Packet>,
    /// Slab slots whose packet has been drained.
    free: Vec<Handle>,
    stats: NetworkStats,
    /// Packets sitting in router input buffers (kept in step with the
    /// routers so [`Self::in_flight`] never re-sums them).
    buffered: usize,
    /// Packets delivered to their destination router, awaiting pickup by
    /// the attached component.
    waiting: usize,
    /// The transfers and arrivals of the cycle being ticked, sized for
    /// every router forwarding `links_per_cycle` packets.
    routed: TickBuffers,
    /// The routers with packets to route, so a tick visits only those — in
    /// ascending node order, the order that fixes how transfers interleave
    /// in a shared next hop.
    active: BitSet,
    /// The nodes whose delivery queue is non-empty, so the attached
    /// components are asked only where something arrived.
    deliverable: BitSet,
}

impl TorusNetwork {
    /// Creates a network over `topology` with the given per-router buffer capacity.
    pub fn new(topology: TorusTopology, buffer_capacity: usize) -> Self {
        let routers = (0..topology.nodes()).map(|_| Router::new(buffer_capacity)).collect();
        let links_per_cycle = 2;
        TorusNetwork {
            routes: RouteTable::new(&topology),
            routers,
            deliveries: vec![VecDeque::new(); topology.nodes()],
            links_per_cycle,
            packets: Vec::new(),
            free: Vec::new(),
            stats: NetworkStats::default(),
            buffered: 0,
            waiting: 0,
            routed: TickBuffers::new(topology.nodes() * links_per_cycle),
            active: BitSet::new(topology.nodes()),
            deliverable: BitSet::new(topology.nodes()),
        }
    }

    /// Sets how many packets each router may forward per cycle (default 2:
    /// one per pipeline direction pair, matching the 128-bit data bus).
    pub fn with_links_per_cycle(mut self, links: usize) -> Self {
        self.links_per_cycle = links.max(1);
        self.routed = TickBuffers::new(self.routers.len() * self.links_per_cycle);
        self
    }

    /// Injects a packet at its source router.
    ///
    /// # Errors
    ///
    /// Returns the packet back when the source router's buffer is full, so
    /// the caller can retry next cycle (back-pressure).
    pub fn inject(&mut self, mut packet: Packet, now: Cycle) -> Result<(), Packet> {
        packet.injected_at = now.as_u64();
        let (src, dst) = (packet.src, packet.dst);
        assert!(src < self.routers.len(), "source node {src} out of range");
        assert!(dst < self.routers.len(), "destination node out of range");
        if self.routers[src].is_full() {
            self.stats.injection_rejected += 1;
            return Err(packet);
        }
        let handle = match self.free.pop() {
            Some(handle) => {
                self.packets[handle as usize] = packet;
                handle
            }
            None => {
                let handle = Handle::try_from(self.packets.len())
                    .expect("fewer than 2^32 packets are in the fabric at once");
                self.packets.push(packet);
                handle
            }
        };
        let accepted = self.routers[src].accept(entry(dst, handle));
        debug_assert!(accepted, "fullness was checked above");
        self.active.insert(src);
        self.buffered += 1;
        Ok(())
    }

    /// Advances the whole fabric one cycle. Packets that reach their
    /// destination router are accounted here and stay in that node's
    /// delivery queue until [`Self::drain_delivered`] picks them up.
    ///
    /// Every router routes first, in ascending node order, into the tick's
    /// transfer and arrival buffers; then the arrivals are applied, then
    /// the transfers, each in that same order — the order that fixes how
    /// transfers interleave in a shared next hop.
    pub fn tick(&mut self, now: Cycle) {
        if self.buffered == 0 {
            return;
        }
        // Taken for the loop, so its cursors can live in registers.
        let mut routed = std::mem::take(&mut self.routed);
        (routed.moved, routed.arrived) = (0, 0);
        // Transfers mark their next hops active only after every router
        // has routed.
        self.active.retain(|node| {
            let router = &mut self.routers[node];
            router.route(node, &self.routes, self.links_per_cycle, &mut routed);
            router.buffered() != 0
        });
        self.routed = routed;
        self.apply_arrivals(now.as_u64());
        self.apply_transfers();
    }

    /// Moves the tick's arrivals to their delivery queues and accounts
    /// them. A packet's hop count is its torus distance: dimension-order
    /// routing takes exactly that many hops on every path.
    fn apply_arrivals(&mut self, now: u64) {
        let arrived = self.routed.arrived;
        for &entry in &self.routed.arrivals[..arrived] {
            let (node, handle) = (entry_dst(entry), entry_handle(entry));
            let packet = &mut self.packets[handle as usize];
            packet.hops += self.routes.distance(packet.src, packet.dst);
            self.stats.delivered += 1;
            self.stats.total_latency += packet.latency(now);
            self.stats.total_hops += u64::from(packet.hops);
            self.deliveries[node].push_back(handle);
            self.deliverable.insert(node);
        }
        self.buffered -= arrived;
        self.waiting += arrived;
    }

    /// Hands the tick's transfers to their next routers.
    fn apply_transfers(&mut self) {
        for &(next, entry) in &self.routed.transfers[..self.routed.moved] {
            let next = next as usize;
            // Router-to-router hops are throughput-limited, not buffer-limited
            // (see `Router::force_accept`), which keeps the torus deadlock-free.
            self.routers[next].force_accept(entry);
            self.active.insert(next);
        }
    }

    /// Removes all packets delivered to `node` since the last drain.
    pub fn drain_delivered(&mut self, node: usize) -> Vec<Packet> {
        let mut taken = Vec::new();
        self.drain_delivered_into(node, &mut taken);
        taken
    }

    /// [`Self::drain_delivered`] appending to a caller-owned buffer, so a
    /// per-cycle caller allocates nothing.
    pub fn drain_delivered_into(&mut self, node: usize, out: &mut Vec<Packet>) {
        let queue = &mut self.deliveries[node];
        self.waiting -= queue.len();
        self.deliverable.remove(node);
        // A pop per packet: most calls find the queue empty, where a
        // `drain` costs more to set up and tear down than the check.
        while let Some(handle) = queue.pop_front() {
            out.push(self.packets[handle as usize].clone());
            self.free.push(handle);
        }
    }

    /// The nodes holding delivered packets not yet drained, in ascending
    /// order; lets a per-cycle caller pass over the (many) nodes nothing
    /// has reached.
    pub fn nodes_with_deliveries(&self) -> impl Iterator<Item = usize> + '_ {
        self.deliverable.iter()
    }

    /// Number of packets anywhere in the fabric (buffered or awaiting pickup).
    pub fn in_flight(&self) -> usize {
        self.buffered + self.waiting
    }

    /// Aggregate statistics.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive_until_empty(net: &mut TorusNetwork, max_cycles: u64) -> Vec<Packet> {
        let mut delivered = Vec::new();
        for c in 0..max_cycles {
            net.tick(Cycle(c));
            for node in 0..net.routers.len() {
                delivered.extend(net.drain_delivered(node));
            }
            if net.in_flight() == 0 {
                break;
            }
        }
        delivered
    }

    #[test]
    fn single_packet_reaches_destination() {
        let topo = TorusTopology::new(4, 4);
        let mut net = TorusNetwork::new(topo, 8);
        net.inject(Packet::new(1, 0, 15, 16), Cycle(0)).unwrap();
        let delivered = drive_until_empty(&mut net, 100);
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].id, 1);
        assert_eq!(delivered[0].hops as usize, topo.distance(0, 15));
    }

    #[test]
    fn all_to_one_traffic_is_fully_delivered() {
        let topo = TorusTopology::new(4, 4);
        let mut net = TorusNetwork::new(topo, 16);
        for (id, src) in (0..topo.nodes()).enumerate() {
            net.inject(Packet::new(id as u64, src, 5, 16), Cycle(0)).unwrap();
        }
        let delivered = drive_until_empty(&mut net, 500);
        assert_eq!(delivered.len(), topo.nodes());
        assert_eq!(net.stats().delivered, topo.nodes() as u64);
        assert!(net.stats().mean_latency() > 0.0);
    }

    #[test]
    fn injection_backpressure_when_router_full() {
        let mut net = TorusNetwork::new(TorusTopology::new(2, 2), 1);
        assert!(net.inject(Packet::new(1, 0, 3, 8), Cycle(0)).is_ok());
        assert!(net.inject(Packet::new(2, 0, 3, 8), Cycle(0)).is_err());
        assert_eq!(net.stats().injection_rejected, 1);
    }

    #[test]
    fn hop_counts_match_topology_distance() {
        let topo = TorusTopology::new(5, 5);
        let mut net = TorusNetwork::new(topo, 32);
        let pairs = [(0, 24), (3, 17), (10, 10), (7, 8)];
        for (i, (src, dst)) in pairs.iter().enumerate() {
            net.inject(Packet::new(i as u64, *src, *dst, 16), Cycle(0)).unwrap();
        }
        let delivered = drive_until_empty(&mut net, 200);
        assert_eq!(delivered.len(), pairs.len());
        for p in delivered {
            let (src, dst) = pairs[p.id as usize];
            assert_eq!(p.hops as usize, topo.distance(src, dst));
        }
    }

    #[test]
    fn uniform_random_traffic_conserves_packets() {
        use neura_sim::DeterministicRng;
        let topo = TorusTopology::new(4, 4);
        let mut net = TorusNetwork::new(topo, 64);
        let mut rng = DeterministicRng::new(3);
        let mut injected = 0u64;
        for cycle in 0..50u64 {
            for _ in 0..4 {
                let src = rng.next_below(16) as usize;
                let dst = rng.next_below(16) as usize;
                if net.inject(Packet::new(injected, src, dst, 16), Cycle(cycle)).is_ok() {
                    injected += 1;
                }
            }
            net.tick(Cycle(cycle));
        }
        // Drain.
        for c in 50..2_000u64 {
            net.tick(Cycle(c));
            if net.in_flight() == 0 {
                break;
            }
        }
        let mut delivered = 0;
        for node in 0..16 {
            delivered += net.drain_delivered(node).len();
        }
        assert_eq!(delivered as u64, injected);
        assert_eq!(net.stats().delivered, injected);
    }
}
