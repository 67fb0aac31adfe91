//! `TorusNetwork` against a straightforward reference model.
//!
//! The network keeps its packets in one slab and queues 8-byte
//! destination-and-handle entries in power-of-two rings, reads next hops
//! from a table, routes into reused transfer and arrival buffers, counts
//! hops at delivery, keeps per-destination delivery queues and running
//! in-flight counters, and skips empty routers. The reference below is the
//! plain algorithm those replaced — queues of whole packets,
//! `TorusTopology::route` and a hop count per hop,
//! route every router, apply the transfers, append the cycle's deliveries
//! to one store, filter the store per drain, re-sum every buffer for
//! `in_flight` — and must be indistinguishable from outside: per-node
//! delivery order, `stats()` and `in_flight()`, for any inject/tick/drain
//! schedule on any torus up to the 16×16 of Tile-64, at the buffer
//! capacities and link budgets the chip configurations use.

use neura_noc::{Direction, NetworkStats, Packet, TorusNetwork, TorusTopology};
use neura_sim::Cycle;
use proptest::prelude::*;
use std::collections::VecDeque;

struct Reference {
    topology: TorusTopology,
    capacity: usize,
    links: usize,
    inputs: Vec<VecDeque<Packet>>,
    /// Per node, the longest its input queue has been after a tick.
    peak: Vec<usize>,
    store: Vec<Packet>,
    stats: NetworkStats,
}

impl Reference {
    fn new(topology: TorusTopology, capacity: usize, links: usize) -> Self {
        Reference {
            topology,
            capacity,
            links,
            inputs: vec![VecDeque::new(); topology.nodes()],
            peak: vec![0; topology.nodes()],
            store: Vec::new(),
            stats: NetworkStats::default(),
        }
    }

    fn inject(&mut self, mut packet: Packet, now: u64) -> Result<(), Packet> {
        packet.injected_at = now;
        if self.inputs[packet.src].len() >= self.capacity {
            self.stats.injection_rejected += 1;
            return Err(packet);
        }
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
            self.inputs[next].push_back(packet);
        }
        for (peak, input) in self.peak.iter_mut().zip(&self.inputs) {
            *peak = (*peak).max(input.len());
        }
        for packet in arrived {
            self.stats.delivered += 1;
            self.stats.total_latency += packet.latency(now);
            self.stats.total_hops += u64::from(packet.hops);
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
        proptest::collection::vec((0usize..256, 0usize..256), 0..8),
        (0u8..8).prop_map(|roll| roll > 0),
        0u64..=u64::MAX,
    );
    proptest::collection::vec(step, 1..60)
}

/// The network and the reference, driven in lock step.
struct Pair {
    net: TorusNetwork,
    reference: Reference,
    next_id: u64,
    /// Injections the network took (`Ok`).
    accepted: u64,
    now: u64,
}

impl Pair {
    fn step(&mut self, (injections, tick, drains): Step) -> Result<(), String> {
        let (nodes, now) = (self.reference.topology.nodes(), self.now);
        for (src, dst) in injections {
            let id = self.next_id;
            let packet = Packet::new(id, src % nodes, dst % nodes, 8 + (id % 3) as usize * 4);
            self.next_id += 1;
            let injected = self.net.inject(packet.clone(), Cycle(now));
            self.accepted += u64::from(injected.is_ok());
            prop_assert_eq!(injected, self.reference.inject(packet, now));
        }
        if tick {
            self.net.tick(Cycle(now));
            self.reference.tick(now);
        }
        for node in (0..nodes).filter(|node| drains >> (node % 64) & 1 == 1) {
            prop_assert_eq!(self.net.drain_delivered(node), self.reference.drain(node));
        }
        prop_assert_eq!(self.net.in_flight(), self.reference.in_flight());
        prop_assert_eq!(self.net.stats(), &self.reference.stats);
        self.now += 1;
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Each round is a random schedule followed by ticking and draining
    /// everything until both sides are empty, so a later round injects
    /// into a slab whose every slot has been handed back (as do the
    /// injections that follow a drain inside one schedule).
    #[test]
    fn network_is_indistinguishable_from_the_reference(
        (width, height) in (1usize..=16, 1usize..=16),
        (capacity, links) in (1usize..=16, 1usize..=4),
        rounds in proptest::collection::vec(arb_schedule(), 1..=3),
    ) {
        let topology = TorusTopology::new(width, height);
        let mut pair = Pair {
            net: TorusNetwork::new(topology, capacity).with_links_per_cycle(links),
            reference: Reference::new(topology, capacity, links),
            next_id: 0,
            accepted: 0,
            now: 0,
        };
        for schedule in rounds {
            for step in schedule {
                pair.step(step)?;
            }
            let mut drain_steps = 0;
            while pair.reference.in_flight() > 0 {
                pair.step((Vec::new(), true, u64::MAX))?;
                drain_steps += 1;
                prop_assert!(drain_steps < 2_000, "the fabric never drained");
            }
            prop_assert_eq!(pair.net.in_flight(), 0);
            prop_assert_eq!(pair.net.stats().delivered, pair.accepted);
        }
    }
}

/// A burst that converges on one node of the 16×16 torus at capacity 1 and
/// four links: every node sends to `hub` for four cycles, then the fabric
/// drains. The hub's queue outgrows its one slot more than 64 times over,
/// so its ring doubles at least seven times; delivery order, `stats()` and
/// `in_flight()` still match the reference.
#[test]
fn a_converging_burst_grows_a_ring_and_matches_the_reference() -> Result<(), String> {
    let topology = TorusTopology::new(16, 16);
    let hub = 8 * 16 + 8;
    let mut pair = Pair {
        net: TorusNetwork::new(topology, 1).with_links_per_cycle(4),
        reference: Reference::new(topology, 1, 4),
        next_id: 0,
        accepted: 0,
        now: 0,
    };
    let burst: Vec<(usize, usize)> = (0..topology.nodes()).map(|src| (src, hub)).collect();
    let mut steps = vec![(burst, true, 0); 4];
    steps.extend(std::iter::repeat_n((Vec::new(), true, u64::MAX), 400));
    for step in steps {
        pair.step(step)?;
    }
    assert_eq!(pair.net.in_flight(), 0, "the burst drained");
    assert!(pair.reference.peak[hub] > 64, "the hub's ring never doubled seven times");
    assert_eq!(pair.net.stats().delivered, pair.accepted);
    Ok(())
}
