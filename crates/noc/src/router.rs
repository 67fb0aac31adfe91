//! Input-buffered router with dimension-order routing.
//!
//! A router holds no [`Packet`](crate::Packet): its input queue carries
//! 8-byte entries, each a packet's destination node and its `Handle` into
//! the packet slab of the [`TorusNetwork`](crate::TorusNetwork) it belongs
//! to, so a hop neither copies nor reads a packet.
//!
//! Routing a cycle puts every entry a router takes into one of two
//! per-tick buffers, [`TickBuffers`]: the transfers to a neighbour and the
//! arrivals at their destination. Each entry is written to both and only
//! the matching cursor advances, so the step takes no branch on where the
//! packet is going; the network applies both buffers after every router
//! has routed.

use crate::topology::RouteTable;

/// Index of a packet in its network's slab.
pub(crate) type Handle = u32;

/// A queue entry: `dst << 32 | handle`.
pub(crate) type Entry = u64;

/// The queue entry of the packet in slot `handle` bound for node `dst`.
#[inline]
pub(crate) fn entry(dst: usize, handle: Handle) -> Entry {
    (dst as u64) << 32 | u64::from(handle)
}

/// The destination node of `entry`.
#[inline]
pub(crate) fn entry_dst(entry: Entry) -> usize {
    (entry >> 32) as usize
}

/// The slab handle of `entry`.
#[inline]
pub(crate) fn entry_handle(entry: Entry) -> Handle {
    entry as Handle
}

/// A FIFO of queue entries in a power-of-two ring, indexed by mask.
///
/// It starts at the router's nominal capacity rounded up to a power of
/// two and doubles when full: forwarded packets may overfill a router, so
/// the ring must grow, but it does so rarely and never shrinks.
#[derive(Debug, Clone)]
struct Ring {
    slots: Box<[Entry]>,
    head: usize,
    len: usize,
}

impl Ring {
    fn with_capacity(capacity: usize) -> Self {
        Ring { slots: vec![0; capacity.next_power_of_two()].into_boxed_slice(), head: 0, len: 0 }
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// The `k`-th entry from the front; `k < len`.
    #[inline]
    fn peek(&self, k: usize) -> Entry {
        debug_assert!(k < self.len);
        self.slots[(self.head + k) & self.mask()]
    }

    /// Drops the `n` front entries; `n <= len`.
    #[inline]
    fn advance(&mut self, n: usize) {
        debug_assert!(n <= self.len);
        self.head = (self.head + n) & self.mask();
        self.len -= n;
    }

    #[inline]
    fn push(&mut self, entry: Entry) {
        if self.len == self.slots.len() {
            self.grow();
        }
        let tail = (self.head + self.len) & self.mask();
        self.slots[tail] = entry;
        self.len += 1;
    }

    /// Doubles the ring, moving its entries to the front in FIFO order.
    #[cold]
    #[inline(never)]
    fn grow(&mut self) {
        let mut slots = vec![0; 2 * self.slots.len()];
        for (k, slot) in slots[..self.len].iter_mut().enumerate() {
            *slot = self.peek(k);
        }
        self.slots = slots.into_boxed_slice();
        self.head = 0;
    }
}

/// The two buffers one tick's routing writes, sized once for the worst
/// case: every router forwarding its whole link budget.
#[derive(Debug, Clone, Default)]
pub(crate) struct TickBuffers {
    /// `(next node, entry)` of each router-to-router transfer.
    pub(crate) transfers: Vec<(u32, Entry)>,
    /// The entry of each packet that reached its destination: its `dst`
    /// is the node it arrived at.
    pub(crate) arrivals: Vec<Entry>,
    /// How many leading `transfers` this tick wrote.
    pub(crate) moved: usize,
    /// How many leading `arrivals` this tick wrote.
    pub(crate) arrived: usize,
}

impl TickBuffers {
    /// Buffers for up to `hops` entries routed in one tick.
    pub(crate) fn new(hops: usize) -> Self {
        TickBuffers { transfers: vec![(0, 0); hops], arrivals: vec![0; hops], moved: 0, arrived: 0 }
    }
}

/// One node's router: its input queue.
#[derive(Debug, Clone)]
pub(crate) struct Router {
    buffer_capacity: usize,
    /// Single merged input buffer (the paper's "packet buffers").
    input: Ring,
}

impl Router {
    /// Creates a router with the given input-buffer capacity.
    pub(crate) fn new(buffer_capacity: usize) -> Self {
        let buffer_capacity = buffer_capacity.max(1);
        Router { buffer_capacity, input: Ring::with_capacity(buffer_capacity) }
    }

    /// True when the input buffer cannot accept another injected packet.
    pub(crate) fn is_full(&self) -> bool {
        self.input.len >= self.buffer_capacity
    }

    /// Number of packets in the input buffer, still to be routed.
    pub(crate) fn buffered(&self) -> usize {
        self.input.len
    }

    /// Accepts a newly *injected* packet into the input buffer. Returns
    /// `false`, taking nothing, when the buffer is full (injection
    /// back-pressure toward the attached NeuraCore).
    pub(crate) fn accept(&mut self, entry: Entry) -> bool {
        if self.is_full() {
            return false;
        }
        self.input.push(entry);
        true
    }

    /// Accepts a packet forwarded from a neighbouring router.
    ///
    /// Router-to-router transfers are never refused: the fabric uses
    /// credit-free forwarding with throughput limits instead of hard buffer
    /// limits, which keeps the wrap-around torus free of routing deadlock.
    /// A transfer may take the buffer past its nominal capacity; the ring
    /// grows when its slots run out.
    #[inline]
    pub(crate) fn force_accept(&mut self, entry: Entry) {
        self.input.push(entry);
    }

    /// Routes up to `links_per_cycle` entries of this router, at `node`,
    /// into `out`: a packet bound elsewhere becomes a transfer to its next
    /// hop, a packet bound here an arrival. Throughput — not buffer
    /// credits — is the limiting resource for router-to-router hops, so
    /// the fabric cannot deadlock on the torus wrap-around links.
    #[inline]
    pub(crate) fn route(
        &mut self,
        node: usize,
        routes: &RouteTable,
        links_per_cycle: usize,
        out: &mut TickBuffers,
    ) {
        let count = self.input.len.min(links_per_cycle);
        let (mut moved, mut arrived) = (out.moved, out.arrived);
        for k in 0..count {
            let entry = self.input.peek(k);
            let dst = entry_dst(entry);
            let deliver = dst == node;
            // Node ids fit in 32 bits (`RouteTable::new` checks).
            out.transfers[moved] = (routes.next_hop(node, dst) as u32, entry);
            out.arrivals[arrived] = entry;
            moved += usize::from(!deliver);
            arrived += usize::from(deliver);
        }
        self.input.advance(count);
        (out.moved, out.arrived) = (moved, arrived);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TorusTopology;

    #[test]
    fn local_packets_are_delivered() {
        let routes = RouteTable::new(&TorusTopology::new(2, 2));
        let mut r = Router::new(4);
        assert!(r.accept(entry(0, 7)));
        let mut out = TickBuffers::new(4);
        r.route(0, &routes, 4, &mut out);
        assert_eq!((out.moved, out.arrived), (0, 1));
        assert_eq!(out.arrivals[0], entry(0, 7));
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn remote_packets_move_toward_destination() {
        let routes = RouteTable::new(&TorusTopology::new(4, 1));
        let mut r = Router::new(4);
        assert!(r.accept(entry(2, 0)));
        let mut out = TickBuffers::new(1);
        r.route(0, &routes, 1, &mut out);
        assert_eq!((out.moved, out.arrived), (1, 0));
        assert_eq!(out.transfers[0], (1, entry(2, 0)));
    }

    #[test]
    fn buffer_capacity_rejects_excess_injections() {
        let mut r = Router::new(2);
        assert!(r.accept(entry(1, 0)));
        assert!(r.accept(entry(1, 1)));
        assert!(!r.accept(entry(1, 2)));
        assert!(r.is_full());
        assert_eq!(r.buffered(), 2);
    }

    #[test]
    fn forwarded_packets_are_never_refused() {
        let mut r = Router::new(1);
        r.force_accept(entry(1, 0));
        assert!(r.is_full());
        r.force_accept(entry(1, 1));
        assert_eq!(r.buffered(), 2, "forwarded packets always land");
        let routes = RouteTable::new(&TorusTopology::new(2, 1));
        let mut out = TickBuffers::new(2);
        r.route(0, &routes, 2, &mut out);
        assert_eq!(&out.transfers[..out.moved], [(1, entry(1, 0)), (1, entry(1, 1))]);
    }

    #[test]
    fn links_per_cycle_limits_throughput() {
        let routes = RouteTable::new(&TorusTopology::new(4, 1));
        let mut r = Router::new(8);
        for handle in 0..6 {
            assert!(r.accept(entry(2, handle)));
        }
        let mut out = TickBuffers::new(8);
        r.route(0, &routes, 2, &mut out);
        assert_eq!((out.moved, out.arrived), (2, 0));
        assert_eq!(r.buffered(), 4);
    }

    /// Pushes past the nominal capacity from a wrapped head: the ring
    /// doubles twice and still hands entries back in FIFO order.
    #[test]
    fn ring_grows_in_fifo_order() {
        let mut ring = Ring::with_capacity(3);
        assert_eq!(ring.slots.len(), 4);
        for value in 0..3 {
            ring.push(value);
        }
        ring.advance(2);
        for value in 3..12 {
            ring.push(value);
        }
        assert_eq!(ring.slots.len(), 16);
        assert_eq!(ring.len, 10);
        assert_eq!(
            (0..ring.len).map(|k| ring.peek(k)).collect::<Vec<_>>(),
            (2..12).collect::<Vec<_>>()
        );
    }
}
