//! Torus geometry: coordinates, neighbours and minimal distances.

use serde::{Deserialize, Serialize};
use std::hint::select_unpredictable;

/// One of the four torus link directions (plus local ejection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Toward larger x (wrapping).
    East,
    /// Toward smaller x (wrapping).
    West,
    /// Toward larger y (wrapping).
    North,
    /// Toward smaller y (wrapping).
    South,
    /// Deliver to the local node.
    Local,
}

impl Direction {
    /// All router output directions including `Local`.
    pub const ALL: [Direction; 5] =
        [Direction::East, Direction::West, Direction::North, Direction::South, Direction::Local];
}

/// A `width × height` 2D torus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TorusTopology {
    width: usize,
    height: usize,
}

impl TorusTopology {
    /// Creates a torus of the given dimensions.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "torus dimensions must be positive");
        TorusTopology { width, height }
    }

    /// Builds the smallest near-square torus containing at least `nodes` nodes.
    pub fn for_nodes(nodes: usize) -> Self {
        let nodes = nodes.max(1);
        let width = (nodes as f64).sqrt().ceil() as usize;
        let height = nodes.div_ceil(width);
        TorusTopology::new(width, height)
    }

    /// Torus width (x extent).
    pub(crate) fn width(&self) -> usize {
        self.width
    }

    /// Torus height (y extent).
    pub(crate) fn height(&self) -> usize {
        self.height
    }

    /// Total number of nodes.
    pub fn nodes(&self) -> usize {
        self.width * self.height
    }

    /// Converts a node id to (x, y) coordinates.
    ///
    /// # Panics
    ///
    /// Panics if `node >= self.nodes()`.
    pub(crate) fn coords(&self, node: usize) -> (usize, usize) {
        assert!(node < self.nodes(), "node {node} outside {}x{} torus", self.width, self.height);
        (node % self.width, node / self.width)
    }

    /// Converts (x, y) coordinates to a node id (coordinates wrap).
    pub(crate) fn node_at(&self, x: usize, y: usize) -> usize {
        (y % self.height) * self.width + (x % self.width)
    }

    /// The neighbouring node in the given direction (wrapping).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or `direction` is `Local`.
    pub fn neighbor(&self, node: usize, direction: Direction) -> usize {
        let (x, y) = self.coords(node);
        match direction {
            Direction::East => self.node_at(x + 1, y),
            Direction::West => self.node_at((x + self.width - 1) % self.width, y),
            Direction::North => self.node_at(x, y + 1),
            Direction::South => self.node_at(x, (y + self.height - 1) % self.height),
            Direction::Local => panic!("Local is not a link direction"),
        }
    }

    /// Minimal hop count between two nodes on the torus.
    pub fn distance(&self, a: usize, b: usize) -> usize {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        let dx = ax.abs_diff(bx);
        let dy = ay.abs_diff(by);
        dx.min(self.width - dx) + dy.min(self.height - dy)
    }

    /// The largest [`Self::distance`] between two nodes.
    pub fn diameter(&self) -> usize {
        self.width / 2 + self.height / 2
    }

    /// Next-hop direction under dimension-order (X then Y) minimal routing.
    /// Returns `Local` when `from == to`.
    pub fn route(&self, from: usize, to: usize) -> Direction {
        if from == to {
            return Direction::Local;
        }
        let (fx, fy) = self.coords(from);
        let (tx, ty) = self.coords(to);
        if fx != tx {
            let right = (tx + self.width - fx) % self.width;
            let left = (fx + self.width - tx) % self.width;
            if right <= left {
                Direction::East
            } else {
                Direction::West
            }
        } else {
            let up = (ty + self.height - fy) % self.height;
            let down = (fy + self.height - ty) % self.height;
            if up <= down {
                Direction::North
            } else {
                Direction::South
            }
        }
    }
}

/// Dimension-order next hops of one torus, tabulated so the per-hop path
/// of the network divides nothing: every node's `(x, y)` and its four
/// neighbours are computed once, and [`Self::next_hop`] is two coordinate
/// loads, a compare per dimension and one neighbour load. It agrees with
/// `neighbor(from, route(from, to))` on every pair (pinned in the tests).
#[derive(Debug, Clone)]
pub(crate) struct RouteTable {
    width: u32,
    height: u32,
    coords: Vec<(u32, u32)>,
    /// Neighbour node ids in `Direction` order — East, West, North, South —
    /// then the node itself, the hop of a packet that has arrived.
    neighbors: Vec<[u32; 5]>,
}

impl RouteTable {
    /// Tabulates `topology`.
    ///
    /// # Panics
    ///
    /// Panics if the torus has more than `u32::MAX` nodes.
    pub(crate) fn new(topology: &TorusTopology) -> Self {
        assert!(u32::try_from(topology.nodes()).is_ok(), "torus node ids must fit in 32 bits");
        // Extents, coordinates and node ids are all at most `nodes()`.
        let narrow = |value: usize| value as u32;
        let links = [Direction::East, Direction::West, Direction::North, Direction::South];
        RouteTable {
            width: narrow(topology.width()),
            height: narrow(topology.height()),
            coords: (0..topology.nodes())
                .map(|node| {
                    let (x, y) = topology.coords(node);
                    (narrow(x), narrow(y))
                })
                .collect(),
            neighbors: (0..topology.nodes())
                .map(|node| {
                    let [east, west, north, south] =
                        links.map(|direction| narrow(topology.neighbor(node, direction)));
                    [east, west, north, south, narrow(node)]
                })
                .collect(),
        }
    }

    /// The node a packet at `from` bound for `to` moves to next under
    /// [`TorusTopology::route`]; `from` itself once it has arrived.
    #[inline]
    pub(crate) fn next_hop(&self, from: usize, to: usize) -> usize {
        let ((fx, fy), (tx, ty)) = (self.coords[from], self.coords[to]);
        // Along a dimension where `f != t` the forward distance is in
        // `1..extent` and the backward one is `extent - forward`, so
        // `route`'s `forward <= backward` tie-break is `2 * forward <= extent`.
        // Both dimensions and arrival are evaluated and one selected, so
        // the hop has no data-dependent branch to mispredict.
        let along_x = usize::from(2 * forward(fx, tx, self.width) > self.width);
        let along_y = 2 + usize::from(2 * forward(fy, ty, self.height) > self.height);
        let direction = select_unpredictable(fx != tx, along_x, along_y);
        let direction = select_unpredictable(from == to, 4, direction);
        self.neighbors[from][direction] as usize
    }

    /// [`TorusTopology::distance`] from the table: the number of hops
    /// [`Self::next_hop`] takes from `a` to `b`.
    #[inline]
    pub(crate) fn distance(&self, a: usize, b: usize) -> u32 {
        let ((ax, ay), (bx, by)) = (self.coords[a], self.coords[b]);
        let along = |f: u32, t: u32, extent: u32| {
            let ahead = forward(f, t, extent);
            ahead.min(extent - ahead)
        };
        along(ax, bx, self.width) + along(ay, by, self.height)
    }
}

/// Steps from coordinate `f` to `t` moving forward on a ring of `extent`.
#[inline]
fn forward(f: u32, t: u32, extent: u32) -> u32 {
    if t >= f {
        t - f
    } else {
        t + extent - f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every pair on every torus from 1×1 to 9×7. On a 1×N or 2×N torus
    /// East and West lead to the same node and `route`'s `right <= left`
    /// tie decides the direction; odd and even extents differ in whether a
    /// tie exists at all.
    #[test]
    fn route_table_equals_route_then_neighbor() {
        for width in 1..=9 {
            for height in 1..=7 {
                let t = TorusTopology::new(width, height);
                let table = RouteTable::new(&t);
                for from in 0..t.nodes() {
                    for to in 0..t.nodes() {
                        let expected = match t.route(from, to) {
                            Direction::Local => from,
                            direction => t.neighbor(from, direction),
                        };
                        assert_eq!(
                            table.next_hop(from, to),
                            expected,
                            "{width}x{height}: {from} -> {to}"
                        );
                    }
                }
            }
        }
    }

    /// The network counts a packet's hops when it is delivered, as the
    /// torus distance of its source and destination: that is exact only
    /// because every dimension-order path is minimal.
    #[test]
    fn every_route_is_distance_hops_long() {
        for width in 1..=9 {
            for height in 1..=7 {
                let t = TorusTopology::new(width, height);
                let table = RouteTable::new(&t);
                for a in 0..t.nodes() {
                    for b in 0..t.nodes() {
                        let (mut at, mut hops) = (a, 0);
                        while at != b {
                            at = table.next_hop(at, b);
                            hops += 1;
                            assert!(hops <= t.diameter(), "{width}x{height}: {a} -> {b} loops");
                        }
                        assert_eq!(table.next_hop(b, b), b);
                        assert_eq!(hops, t.distance(a, b), "{width}x{height}: {a} -> {b}");
                        assert_eq!(table.distance(a, b) as usize, hops, "{width}x{height}");
                    }
                }
            }
        }
    }

    #[test]
    fn coords_round_trip() {
        let t = TorusTopology::new(4, 3);
        for node in 0..t.nodes() {
            let (x, y) = t.coords(node);
            assert_eq!(t.node_at(x, y), node);
        }
    }

    #[test]
    fn neighbors_wrap_around() {
        let t = TorusTopology::new(4, 4);
        // Node 3 is at (3, 0); East wraps to (0, 0) == node 0.
        assert_eq!(t.neighbor(3, Direction::East), 0);
        // Node 0 West wraps to node 3.
        assert_eq!(t.neighbor(0, Direction::West), 3);
        // Node 0 South wraps to (0, 3) == node 12.
        assert_eq!(t.neighbor(0, Direction::South), 12);
    }

    #[test]
    fn distance_uses_wraparound() {
        let t = TorusTopology::new(8, 8);
        assert_eq!(t.distance(0, 7), 1, "wrap makes the far column adjacent");
        assert_eq!(t.distance(0, 4), 4);
        assert_eq!(t.distance(0, 0), 0);
        // Distance is symmetric.
        for a in [0, 5, 17, 63] {
            for b in [0, 5, 17, 63] {
                assert_eq!(t.distance(a, b), t.distance(b, a));
            }
        }
    }

    #[test]
    fn diameter_is_the_longest_distance() {
        for (width, height) in [(1, 1), (1, 4), (3, 3), (4, 3), (8, 8), (9, 7)] {
            let t = TorusTopology::new(width, height);
            let longest = (0..t.nodes()).map(|b| t.distance(0, b)).max();
            assert_eq!(Some(t.diameter()), longest, "{width}x{height}");
        }
    }

    #[test]
    fn route_reaches_destination() {
        let t = TorusTopology::new(5, 5);
        for from in 0..t.nodes() {
            for to in 0..t.nodes() {
                // Follow the routing function; it must terminate within the
                // minimal distance.
                let mut current = from;
                let mut hops = 0;
                while current != to {
                    let dir = t.route(current, to);
                    assert_ne!(dir, Direction::Local);
                    current = t.neighbor(current, dir);
                    hops += 1;
                    assert!(hops <= t.distance(from, to), "route exceeded minimal distance");
                }
                assert_eq!(hops, t.distance(from, to));
            }
        }
    }

    #[test]
    fn route_to_self_is_local() {
        let t = TorusTopology::new(3, 3);
        assert_eq!(t.route(4, 4), Direction::Local);
    }

    #[test]
    fn for_nodes_covers_request() {
        for n in [1, 2, 5, 16, 17, 32, 100] {
            let t = TorusTopology::for_nodes(n);
            assert!(t.nodes() >= n);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dimension_panics() {
        TorusTopology::new(0, 4);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_range_node_panics() {
        TorusTopology::new(2, 2).coords(4);
    }
}
