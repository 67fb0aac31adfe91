//! Synthetic stand-ins for the paper's evaluation datasets.
//!
//! Table 1 of the paper lists twenty hyper-sparse SNAP / SuiteSparse matrices
//! used for the SpGEMM evaluation; the GNN evaluation (Figure 17) adds the
//! standard citation graphs (Cora, Citeseer, Pubmed).  Those files are not
//! redistributed here, so the catalog records each dataset's *published*
//! structural parameters (node count, edge count, sparsity) and pairs them
//! with a random-graph model that reproduces the same structure class.
//!
//! Because simulating multi-million-node graphs cycle-by-cycle is
//! impractical in CI, [`Dataset::generate_scaled`] produces a structurally
//! similar graph shrunk by a caller-chosen factor while preserving the
//! average degree (and therefore the bloat / imbalance behaviour that the
//! experiments measure).

use crate::gen::{GraphGenerator, GraphModel};
use crate::CooMatrix;
use serde::{Deserialize, Serialize};

/// Which structural family a dataset belongs to (chooses the generator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StructureClass {
    /// Social / citation networks with heavy-tailed degree distributions.
    ScaleFree,
    /// Web-style graphs with community structure (R-MAT).
    Community,
    /// Meshes and circuit matrices with near-uniform degrees.
    Mesh,
    /// Road networks: extremely sparse, bounded degree.
    Road,
    /// Finite-element matrices with banded structure.
    Banded,
}

/// Description of one evaluation dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    /// Dataset name as used in the paper.
    pub name: &'static str,
    /// Node count reported in Table 1 (or the GNN literature).
    pub nodes: usize,
    /// Edge (non-zero) count reported in Table 1.
    pub edges: usize,
    /// Sparsity percentage reported in Table 1.
    pub sparsity_percent: f64,
    /// Bloat percent reported in Table 1 (None for GNN-only datasets).
    pub paper_bloat_percent: Option<f64>,
    /// Structural family used to pick a generator.
    pub class: StructureClass,
    /// Feature dimension used for GCN experiments (0 when unused).
    pub feature_dim: usize,
}

impl Dataset {
    /// Generates a synthetic analog scaled down to roughly `nodes / scale`
    /// vertices while preserving the average degree.
    ///
    /// # Panics
    ///
    /// Panics if `scale == 0`.
    pub fn generate_scaled(&self, scale: usize, seed: u64) -> CooMatrix {
        assert!(scale > 0, "scale must be at least 1");
        let nodes = (self.nodes / scale).max(32);
        let edges = ((self.edges as f64) * (nodes as f64 / self.nodes as f64)).ceil() as usize;
        self.generate_with_nodes(nodes, edges.max(nodes), seed)
    }

    fn generate_with_nodes(&self, nodes: usize, edges: usize, seed: u64) -> CooMatrix {
        let model = match self.class {
            StructureClass::ScaleFree => GraphModel::PowerLaw { edges, exponent: 2.1 },
            StructureClass::Community => {
                GraphModel::Rmat { edges, probabilities: (0.57, 0.19, 0.19) }
            }
            StructureClass::Mesh => {
                GraphModel::ErdosRenyi { p: edges as f64 / (nodes as f64 * nodes as f64) }
            }
            StructureClass::Road => GraphModel::ErdosRenyi {
                p: (edges as f64 / (nodes as f64 * nodes as f64)).min(1.0),
            },
            StructureClass::Banded => {
                GraphModel::Banded { bandwidth: ((edges / nodes.max(1)) / 2).max(1) }
            }
        };
        GraphGenerator::with_model(nodes, model, seed).generate()
    }
}

/// The catalog of all datasets referenced by the paper's evaluation.
#[derive(Debug, Clone, Default)]
pub struct DatasetCatalog;

impl DatasetCatalog {
    /// The twenty SpGEMM datasets of Table 1.
    pub fn spgemm_suite() -> Vec<Dataset> {
        use StructureClass::*;
        vec![
            ds("2cubes_sphere", 101_492, 1_647_264, 99.9840, Some(205.87), Banded),
            ds("ca-CondMat", 23_133, 186_936, 99.9651, Some(75.23), ScaleFree),
            ds("cit-Patents", 3_774_768, 16_518_948, 99.9999, Some(19.32), Community),
            ds("email-Enron", 36_692, 367_662, 99.9727, Some(68.90), ScaleFree),
            ds("filter3D", 106_437, 2_707_179, 99.9761, Some(326.34), Banded),
            ds("mario002", 389_874, 2_101_242, 99.9986, Some(99.43), Mesh),
            ds("p2p-Gnutella31", 62_586, 147_892, 99.9962, Some(10.21), ScaleFree),
            ds("poisson3Da", 13_514, 352_762, 99.8068, Some(297.92), Banded),
            ds("scircuit", 170_998, 958_936, 99.9967, Some(66.13), Mesh),
            ds("web-Google", 916_428, 5_105_039, 99.9994, Some(104.27), Community),
            ds("amazon0312", 400_727, 3_200_440, 99.9980, Some(97.21), Community),
            ds("cage12", 130_228, 2_032_536, 99.9880, Some(127.23), Banded),
            ds("cop20k_A", 121_192, 2_624_331, 99.9821, Some(327.07), Banded),
            ds("facebook", 4_039, 60_050, 99.1519, Some(2872.80), ScaleFree),
            ds("m133-b3", 200_200, 800_800, 99.9980, Some(26.93), Mesh),
            ds("offshore", 259_789, 4_242_673, 99.9937, Some(205.45), Banded),
            ds("patents_main", 240_547, 560_943, 99.9990, Some(14.18), Community),
            ds("roadNet-CA", 1_971_281, 5_533_214, 99.9999, Some(35.75), Road),
            ds("webbase-1M", 1_000_005, 3_105_536, 99.9997, Some(36.02), Community),
            ds("wiki-Vote", 8_297, 103_689, 99.8494, Some(148.09), ScaleFree),
        ]
    }

    /// The GCN datasets used for the GNN-accelerator comparison (Figure 17)
    /// and the design-space study (Figure 11, Cora).
    pub fn gnn_suite() -> Vec<Dataset> {
        use StructureClass::*;
        vec![
            gnn("cora", 2_708, 10_556, 1_433),
            gnn("citeseer", 3_327, 9_104, 3_703),
            gnn("pubmed", 19_717, 88_648, 500),
            Dataset {
                name: "reddit-small",
                nodes: 65_000,
                edges: 1_200_000,
                sparsity_percent: 99.97,
                paper_bloat_percent: None,
                class: ScaleFree,
                feature_dim: 602,
            },
            Dataset {
                name: "amazon-computers",
                nodes: 13_752,
                edges: 491_722,
                sparsity_percent: 99.74,
                paper_bloat_percent: None,
                class: ScaleFree,
                feature_dim: 767,
            },
        ]
    }

    /// The subset of matrices used for the Figure 13 mapping heat maps.
    pub fn heatmap_suite() -> Vec<Dataset> {
        let mut suite: Vec<Dataset> = Self::spgemm_suite()
            .into_iter()
            .filter(|d| matches!(d.name, "2cubes_sphere" | "mario002" | "facebook" | "filter3D"))
            .collect();
        suite.insert(0, Self::by_name("cora").expect("cora is in the GNN suite"));
        suite
    }

    /// Looks a dataset up by its paper name in either suite.
    pub fn by_name(name: &str) -> Option<Dataset> {
        Self::spgemm_suite()
            .into_iter()
            .chain(Self::gnn_suite())
            .find(|d| d.name.eq_ignore_ascii_case(name))
    }
}

fn ds(
    name: &'static str,
    nodes: usize,
    edges: usize,
    sparsity_percent: f64,
    paper_bloat_percent: Option<f64>,
    class: StructureClass,
) -> Dataset {
    Dataset { name, nodes, edges, sparsity_percent, paper_bloat_percent, class, feature_dim: 0 }
}

fn gnn(name: &'static str, nodes: usize, edges: usize, feature_dim: usize) -> Dataset {
    let sparsity_percent = 100.0 * (1.0 - edges as f64 / (nodes as f64 * nodes as f64));
    Dataset {
        name,
        nodes,
        edges,
        sparsity_percent,
        paper_bloat_percent: None,
        class: StructureClass::ScaleFree,
        feature_dim,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spgemm;

    #[test]
    fn spgemm_suite_has_twenty_datasets() {
        let suite = DatasetCatalog::spgemm_suite();
        assert_eq!(suite.len(), 20);
        let names: std::collections::HashSet<&str> = suite.iter().map(|d| d.name).collect();
        assert_eq!(names.len(), 20, "dataset names must be unique");
    }

    #[test]
    fn table1_parameters_are_recorded() {
        let fb = DatasetCatalog::by_name("facebook").unwrap();
        assert_eq!(fb.nodes, 4_039);
        assert_eq!(fb.edges, 60_050);
        assert_eq!(fb.paper_bloat_percent, Some(2872.80));
        assert!(fb.sparsity_percent > 99.0);
    }

    #[test]
    fn lookup_is_case_insensitive_and_total() {
        assert!(DatasetCatalog::by_name("Cora").is_some());
        assert!(DatasetCatalog::by_name("WEB-GOOGLE").is_some());
        assert!(DatasetCatalog::by_name("not-a-dataset").is_none());
    }

    #[test]
    fn scaled_generation_preserves_average_degree() {
        let d = DatasetCatalog::by_name("web-Google").unwrap();
        let g = d.generate_scaled(2048, 7);
        let got_degree = g.nnz() as f64 / g.rows() as f64;
        let published = d.edges as f64 / d.nodes as f64;
        // Power-law/R-MAT duplicate merging can lose some edges; accept 2x band.
        assert!(
            got_degree > published * 0.3 && got_degree < published * 3.0,
            "avg degree {got_degree} too far from published {published}"
        );
    }

    #[test]
    fn heatmap_suite_matches_figure13() {
        let names: Vec<&str> = DatasetCatalog::heatmap_suite().iter().map(|d| d.name).collect();
        assert_eq!(names, vec!["cora", "2cubes_sphere", "filter3D", "mario002", "facebook"]);
    }

    #[test]
    fn gnn_suite_has_feature_dimensions() {
        for d in DatasetCatalog::gnn_suite() {
            assert!(d.feature_dim > 0, "{} needs a feature dimension", d.name);
        }
    }

    #[test]
    fn facebook_analog_has_highest_bloat_of_small_suite() {
        // The paper's key Table-1 observation: facebook (densest, most skewed)
        // exhibits by far the highest bloat.  Verify the synthetic analogs
        // preserve this ordering for a few small datasets.
        let scale = 16;
        let fb = DatasetCatalog::by_name("facebook").unwrap();
        let wiki = DatasetCatalog::by_name("wiki-Vote").unwrap();
        let p2p = DatasetCatalog::by_name("p2p-Gnutella31").unwrap();
        let bloat_of = |d: &Dataset| {
            let m = d.generate_scaled(scale, 3).to_csr();
            spgemm::count_products(&m, &m).bloat_percent()
        };
        let fb_b = bloat_of(&fb);
        let wiki_b = bloat_of(&wiki);
        let p2p_b = bloat_of(&p2p);
        assert!(fb_b > wiki_b, "facebook bloat {fb_b} should exceed wiki-Vote {wiki_b}");
        assert!(wiki_b > p2p_b, "wiki-Vote bloat {wiki_b} should exceed p2p {p2p_b}");
    }

    #[test]
    fn generate_full_uses_published_node_count_for_small_graphs() {
        let cora = DatasetCatalog::by_name("cora").unwrap();
        let g = cora.generate_scaled(1, 1);
        assert_eq!(g.rows(), 2_708);
    }
}
