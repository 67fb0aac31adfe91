//! `TorusNetwork` against a straightforward reference model.
//!
//! The network keeps per-destination delivery queues, running in-flight
//! counters and a reused transfer buffer, and skips empty routers. The
//! reference below is the plain algorithm those replaced — route every
//! router, apply the transfers, append the cycle's deliveries to one
//! store, filter the store per drain, re-sum every buffer for
//! `in_flight` — and must be indistinguishable from outside: per-node
//! delivery order, `stats()`, both histograms, `congestion_map()` and
//! `in_flight()`, for any inject/tick/drain schedule.

use neura_noc::{Direction, NetworkStats, Packet, TorusNetwork, TorusTopology};
use neura_sim::{Cycle, Histogram};
use proptest::prelude::*;
use std::collections::VecDeque;

struct Reference {
    topology: TorusTopology,
    capacity: usize,
    links: usize,
    inputs: Vec<VecDeque<Packet>>,
    blocked: Vec<u64>,
    store: Vec<Packet>,
    stats: NetworkStats,
    latency: Histogram,
    hops: Histogram,
}

impl Reference {
    fn new(topology: TorusTopology, capacity: usize, links: usize) -> Self {
        Reference {
            topology,
            capacity,
            links,
            inputs: vec![VecDeque::new(); topology.nodes()],
            blocked: vec![0; topology.nodes()],
            store: Vec::new(),
            stats: NetworkStats::default(),
            latency: Histogram::new(4, 64),
            hops: Histogram::new(1, 64),
        }
    }

    fn inject(&mut self, mut packet: Packet, now: u64) -> Result<(), Packet> {
        packet.injected_at = now;
        if self.inputs[packet.src].len() >= self.capacity {
            self.stats.injection_rejected += 1;
            return Err(packet);
        }
        self.stats.injected += 1;
        self.inputs[packet.src].push_back(packet);
        Ok(())
    }

    fn tick(&mut self, now: u64) {
        let mut moves = Vec::new();
        let mut arrived = Vec::new();
        for (node, input) in self.inputs.iter_mut().enumerate() {
            for _ in 0..self.links {
                let Some(mut packet) = input.pop_front() else { break };
                match self.topology.route(node, packet.dst) {
                    Direction::Local => arrived.push(packet),
                    direction => {
                        packet.hops += 1;
                        moves.push((self.topology.neighbor(node, direction), packet));
                    }
                }
            }
        }
        for (next, packet) in moves {
            if self.inputs[next].len() >= self.capacity {
                self.blocked[next] += 1;
            }
            self.inputs[next].push_back(packet);
        }
        for packet in arrived {
            self.stats.delivered += 1;
            self.stats.total_latency += packet.latency(now);
            self.stats.total_hops += u64::from(packet.hops);
            self.stats.bytes_delivered += packet.bytes as u64;
            self.latency.record(packet.latency(now));
            self.hops.record(u64::from(packet.hops));
            self.store.push(packet);
        }
    }

    fn drain(&mut self, node: usize) -> Vec<Packet> {
        let (taken, rest) =
            std::mem::take(&mut self.store).into_iter().partition(|p| p.dst == node);
        self.store = rest;
        taken
    }

    fn in_flight(&self) -> usize {
        self.inputs.iter().map(VecDeque::len).sum::<usize>() + self.store.len()
    }
}

/// One cycle of a schedule: `(src, dst)` injections (reduced modulo the
/// node count), whether the fabric ticks, and a bit mask of nodes drained.
type Step = (Vec<(usize, usize)>, bool, u64);

fn arb_schedule() -> impl Strategy<Value = Vec<Step>> {
    let step = (
        proptest::collection::vec((0usize..64, 0usize..64), 0..8),
        (0u8..8).prop_map(|roll| roll > 0),
        0u64..=u64::MAX,
    );
    proptest::collection::vec(step, 1..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn network_is_indistinguishable_from_the_reference(
        (width, height) in (1usize..=5, 1usize..=4),
        (capacity, links) in (1usize..=4, 1usize..=3),
        schedule in arb_schedule(),
    ) {
        let topology = TorusTopology::new(width, height);
        let nodes = topology.nodes();
        let mut net = TorusNetwork::new(topology, capacity).with_links_per_cycle(links);
        let mut reference = Reference::new(topology, capacity, links);
        let mut next_id = 0u64;
        // After the schedule, tick and drain everything until both are empty.
        let drain_all = std::iter::repeat_n((Vec::new(), true, u64::MAX), 400);
        for (cycle, (injections, tick, drains)) in schedule.into_iter().chain(drain_all).enumerate() {
            let now = cycle as u64;
            for (src, dst) in injections {
                let packet = Packet::new(next_id, src % nodes, dst % nodes, 8 + (next_id % 3) as usize * 4);
                next_id += 1;
                prop_assert_eq!(net.inject(packet.clone(), Cycle(now)), reference.inject(packet, now));
            }
            if tick {
                net.tick(Cycle(now));
                reference.tick(now);
            }
            for node in (0..nodes).filter(|node| drains >> (node % 64) & 1 == 1) {
                prop_assert_eq!(net.drain_delivered(node), reference.drain(node));
            }
            prop_assert_eq!(net.in_flight(), reference.in_flight());
            prop_assert_eq!(net.stats(), &reference.stats);
            prop_assert_eq!(net.congestion_map(), reference.blocked.clone());
        }
        prop_assert_eq!(net.in_flight(), 0);
        prop_assert_eq!(net.stats().delivered, net.stats().injected);
        prop_assert_eq!(net.latency_histogram(), &reference.latency);
        prop_assert_eq!(net.hop_histogram(), &reference.hops);
    }
}
