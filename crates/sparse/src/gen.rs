//! Random graph generators used to synthesise the paper's workloads.
//!
//! The paper evaluates on SNAP / SuiteSparse matrices that are not shipped
//! with this repository.  Per the reproduction's substitution rule we
//! synthesise graphs whose structural statistics (node count, edge count,
//! degree skew) match the original datasets.  Three generators cover the
//! spectrum of structures seen in Table 1:
//!
//! * [`GraphGenerator::erdos_renyi`] — uniform random structure (meshes and
//!   near-regular matrices such as `m133-b3`, `roadNet-CA`),
//! * [`GraphGenerator::power_law`] — heavy-tailed degree distributions
//!   (social networks such as `facebook`, `wiki-Vote`),
//! * [`GraphGenerator::rmat`] — Kronecker-style communities (web graphs such
//!   as `web-Google`, `cit-Patents`).

use crate::CooMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The family of random-graph model to draw from.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) enum GraphModel {
    /// Erdős–Rényi G(n, p): every edge independently present with probability `p`.
    ErdosRenyi {
        /// Edge probability in `[0, 1]`.
        p: f64,
    },
    /// Power-law (scale-free) degree distribution with the given exponent.
    PowerLaw {
        /// Target number of edges.
        edges: usize,
        /// Degree-distribution exponent (typical social graphs: 2.0–2.5).
        exponent: f64,
    },
    /// Recursive-matrix (R-MAT) generator over a `2^scale` vertex set.
    Rmat {
        /// Target number of edges.
        edges: usize,
        /// R-MAT quadrant probabilities (a, b, c); d = 1 - a - b - c.
        probabilities: (f64, f64, f64),
    },
    /// Fully dense matrix (used for the dense-matrix heat map in Figure 13).
    Dense,
    /// Banded/diagonal structure (FEM-style matrices such as `filter3D`).
    Banded {
        /// Half bandwidth: entries exist for |i - j| <= bandwidth.
        bandwidth: usize,
    },
}

/// Configurable, seeded graph generator.
///
/// # Examples
///
/// ```
/// use neura_sparse::gen::GraphGenerator;
///
/// let graph = GraphGenerator::rmat(8, 2_000, 42).generate();
/// assert_eq!(graph.rows(), 256);
/// assert!(graph.nnz() > 0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphGenerator {
    nodes: usize,
    model: GraphModel,
    seed: u64,
    self_loops: bool,
    weighted: bool,
}

impl GraphGenerator {
    /// Erdős–Rényi generator over `nodes` vertices with edge probability `p`.
    pub fn erdos_renyi(nodes: usize, p: f64, seed: u64) -> Self {
        GraphGenerator {
            nodes,
            model: GraphModel::ErdosRenyi { p: p.clamp(0.0, 1.0) },
            seed,
            self_loops: true,
            weighted: false,
        }
    }

    /// Power-law generator with roughly `edges` edges and the given exponent.
    pub fn power_law(nodes: usize, edges: usize, exponent: f64, seed: u64) -> Self {
        GraphGenerator {
            nodes,
            model: GraphModel::PowerLaw { edges, exponent },
            seed,
            self_loops: true,
            weighted: false,
        }
    }

    /// R-MAT generator over `2^scale` vertices with roughly `edges` edges and
    /// the standard (0.57, 0.19, 0.19) quadrant probabilities.
    pub fn rmat(scale: u32, edges: usize, seed: u64) -> Self {
        GraphGenerator {
            nodes: 1usize << scale,
            model: GraphModel::Rmat { edges, probabilities: (0.57, 0.19, 0.19) },
            seed,
            self_loops: true,
            weighted: false,
        }
    }

    /// Fully dense square matrix of the given order.
    pub fn dense(nodes: usize, seed: u64) -> Self {
        GraphGenerator { nodes, model: GraphModel::Dense, seed, self_loops: true, weighted: true }
    }

    /// Banded matrix with the given half-bandwidth.
    pub fn banded(nodes: usize, bandwidth: usize, seed: u64) -> Self {
        GraphGenerator {
            nodes,
            model: GraphModel::Banded { bandwidth },
            seed,
            self_loops: true,
            weighted: false,
        }
    }

    /// Generator with an explicit [`GraphModel`].
    pub(crate) fn with_model(nodes: usize, model: GraphModel, seed: u64) -> Self {
        GraphGenerator { nodes, model, seed, self_loops: true, weighted: false }
    }

    /// Whether edge weights are drawn uniformly from `(0, 1]` instead of 1.0.
    pub fn weighted(mut self, weighted: bool) -> Self {
        self.weighted = weighted;
        self
    }

    /// Number of vertices the generated adjacency matrix will have.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Generates the adjacency matrix (duplicates merged).
    pub fn generate(&self) -> CooMatrix {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut coo = CooMatrix::new(self.nodes, self.nodes);
        match self.model {
            GraphModel::ErdosRenyi { p } => self.gen_erdos_renyi(&mut rng, &mut coo, p),
            GraphModel::PowerLaw { edges, exponent } => {
                self.gen_power_law(&mut rng, &mut coo, edges, exponent)
            }
            GraphModel::Rmat { edges, probabilities } => {
                self.gen_rmat(&mut rng, &mut coo, edges, probabilities)
            }
            GraphModel::Dense => self.gen_dense(&mut rng, &mut coo),
            GraphModel::Banded { bandwidth } => self.gen_banded(&mut rng, &mut coo, bandwidth),
        }
        coo.dedup();
        coo
    }

    fn edge_weight(&self, rng: &mut StdRng) -> f64 {
        if self.weighted {
            rng.gen_range(0.01..=1.0)
        } else {
            1.0
        }
    }

    fn accept(&self, src: usize, dst: usize) -> bool {
        self.self_loops || src != dst
    }

    fn gen_erdos_renyi(&self, rng: &mut StdRng, coo: &mut CooMatrix, p: f64) {
        if self.nodes == 0 || p <= 0.0 {
            return;
        }
        // Geometric skipping so sparse graphs are generated in O(nnz) work.
        let total = self.nodes * self.nodes;
        let mut idx: usize = 0;
        while idx < total {
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let skip = if p >= 1.0 { 0 } else { (u.ln() / (1.0 - p).ln()).floor() as usize };
            idx = idx.saturating_add(skip);
            if idx >= total {
                break;
            }
            let (src, dst) = (idx / self.nodes, idx % self.nodes);
            if self.accept(src, dst) {
                let w = self.edge_weight(rng);
                coo.push(src, dst, w).expect("generated index is in bounds");
            }
            idx += 1;
        }
    }

    fn gen_power_law(&self, rng: &mut StdRng, coo: &mut CooMatrix, edges: usize, exponent: f64) {
        if self.nodes == 0 {
            return;
        }
        // Zipf-like sampling of endpoints: node i has weight (i+1)^-alpha after
        // a random permutation, producing a heavy-tailed degree sequence.
        let alpha = exponent.max(1.0) - 1.0;
        let mut perm: Vec<usize> = (0..self.nodes).collect();
        for i in (1..perm.len()).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        let weights: Vec<f64> =
            (0..self.nodes).map(|i| 1.0 / ((i + 1) as f64).powf(alpha)).collect();
        let cumulative: Vec<f64> = weights
            .iter()
            .scan(0.0, |acc, w| {
                *acc += w;
                Some(*acc)
            })
            .collect();
        let total = *cumulative.last().expect("nodes > 0");
        let sample = |rng: &mut StdRng| -> usize {
            let u = rng.gen_range(0.0..total);
            let pos = cumulative.partition_point(|&c| c < u);
            perm[pos.min(self.nodes - 1)]
        };
        for _ in 0..edges {
            let src = sample(rng);
            let dst = rng.gen_range(0..self.nodes);
            if self.accept(src, dst) {
                let w = self.edge_weight(rng);
                coo.push(src, dst, w).expect("generated index is in bounds");
            }
        }
    }

    fn gen_rmat(
        &self,
        rng: &mut StdRng,
        coo: &mut CooMatrix,
        edges: usize,
        (a, b, c): (f64, f64, f64),
    ) {
        if self.nodes == 0 {
            return;
        }
        let scale = (self.nodes as f64).log2().ceil() as u32;
        for _ in 0..edges {
            let (mut row, mut col) = (0usize, 0usize);
            for level in (0..scale).rev() {
                let r: f64 = rng.gen();
                // Add slight per-level noise so repeated quadrants are not identical.
                let noise = 0.05 * (rng.gen::<f64>() - 0.5);
                let (aa, bb, cc) = (a + noise, b, c);
                let bit = 1usize << level;
                if r < aa {
                    // top-left quadrant
                } else if r < aa + bb {
                    col |= bit;
                } else if r < aa + bb + cc {
                    row |= bit;
                } else {
                    row |= bit;
                    col |= bit;
                }
            }
            let (src, dst) = (row.min(self.nodes - 1), col.min(self.nodes - 1));
            if self.accept(src, dst) {
                let w = self.edge_weight(rng);
                coo.push(src, dst, w).expect("generated index is in bounds");
            }
        }
    }

    fn gen_dense(&self, rng: &mut StdRng, coo: &mut CooMatrix) {
        for r in 0..self.nodes {
            for c in 0..self.nodes {
                let w = self.edge_weight(rng);
                coo.push(r, c, w).expect("generated index is in bounds");
            }
        }
    }

    fn gen_banded(&self, rng: &mut StdRng, coo: &mut CooMatrix, bandwidth: usize) {
        for r in 0..self.nodes {
            let lo = r.saturating_sub(bandwidth);
            let hi = (r + bandwidth).min(self.nodes.saturating_sub(1));
            for c in lo..=hi {
                if self.accept(r, c) {
                    let w = self.edge_weight(rng);
                    coo.push(r, c, w).expect("generated index is in bounds");
                }
            }
        }
    }
}

/// Generates a dense feature matrix (`nodes × features`) with values drawn
/// uniformly from `[-1, 1)`, the input `X` of a GCN layer.
pub fn feature_matrix(nodes: usize, features: usize, seed: u64) -> crate::DenseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let data: Vec<f64> = (0..nodes * features).map(|_| rng.gen_range(-1.0..1.0)).collect();
    crate::DenseMatrix::from_vec(nodes, features, data).expect("length matches by construction")
}

/// Generates a dense weight matrix (`in_features × out_features`) with Xavier-like scaling.
pub fn weight_matrix(in_features: usize, out_features: usize, seed: u64) -> crate::DenseMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let scale = (2.0 / (in_features + out_features) as f64).sqrt();
    let data: Vec<f64> =
        (0..in_features * out_features).map(|_| rng.gen_range(-scale..scale)).collect();
    crate::DenseMatrix::from_vec(in_features, out_features, data)
        .expect("length matches by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::degree_stats;

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let a = GraphGenerator::rmat(7, 500, 99).generate();
        let b = GraphGenerator::rmat(7, 500, 99).generate();
        assert_eq!(a, b);
        let c = GraphGenerator::rmat(7, 500, 100).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn erdos_renyi_edge_count_close_to_expectation() {
        let n = 200usize;
        let p = 0.05;
        let g = GraphGenerator::erdos_renyi(n, p, 7).generate();
        let expected = (n * n) as f64 * p;
        let actual = g.nnz() as f64;
        assert!(
            (actual - expected).abs() < expected * 0.25,
            "expected ~{expected} edges, got {actual}"
        );
    }

    #[test]
    fn power_law_produces_heavy_tail() {
        let g = GraphGenerator::power_law(500, 5000, 2.1, 3).generate().to_csr();
        let s = degree_stats(&g);
        assert!(s.max as f64 > 4.0 * s.mean, "max degree {} vs mean {}", s.max, s.mean);
    }

    #[test]
    fn dense_generator_fills_every_entry() {
        let g = GraphGenerator::dense(12, 5).generate();
        assert_eq!(g.nnz(), 144);
    }

    #[test]
    fn banded_generator_respects_bandwidth() {
        let g = GraphGenerator::banded(30, 2, 1).generate();
        for &(r, c, _) in g.iter() {
            assert!(r.abs_diff(c) <= 2);
        }
        assert!(g.nnz() >= 30);
    }

    #[test]
    fn self_loop_flag_removes_diagonal() {
        let g = GraphGenerator { self_loops: false, ..GraphGenerator::erdos_renyi(50, 0.2, 11) }
            .generate();
        assert!(g.iter().all(|&(r, c, _)| r != c));
    }

    #[test]
    fn weighted_flag_produces_non_unit_values() {
        let g = GraphGenerator::erdos_renyi(40, 0.2, 11).weighted(true).generate();
        assert!(g.iter().any(|&(_, _, v)| v != 1.0));
    }

    #[test]
    fn rmat_scale_sets_node_count() {
        let gen = GraphGenerator::rmat(5, 100, 0);
        assert_eq!(gen.nodes(), 32);
    }

    #[test]
    fn feature_and_weight_matrices_have_requested_shapes() {
        let x = feature_matrix(10, 16, 0);
        let w = weight_matrix(16, 4, 0);
        assert_eq!((x.rows(), x.cols()), (10, 16));
        assert_eq!((w.rows(), w.cols()), (16, 4));
    }

    #[test]
    fn zero_nodes_is_harmless() {
        let g = GraphGenerator::erdos_renyi(0, 0.5, 1).generate();
        assert_eq!(g.nnz(), 0);
        let g = GraphGenerator::power_law(0, 10, 2.0, 1).generate();
        assert_eq!(g.nnz(), 0);
    }
}
