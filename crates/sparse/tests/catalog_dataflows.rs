//! Every dataflow on every catalog analog: the banded, community, mesh,
//! road and scale-free structures of the paper's evaluation suite, not the
//! random generators the property tests draw.

use neura_sparse::datasets::{Dataset, DatasetCatalog};
use neura_sparse::spgemm::{self, Dataflow};
use neura_sparse::CsrMatrix;

/// About this many nodes per analog: the graphs' rows reach a few 64-column
/// words of the accumulator and their hubs most of them.
const TARGET_NODES: usize = 112;

/// Every dataset of the SpGEMM and GNN suites.
fn catalog() -> Vec<Dataset> {
    DatasetCatalog::spgemm_suite().into_iter().chain(DatasetCatalog::gnn_suite()).collect()
}

/// The analog of `dataset` at about [`TARGET_NODES`] nodes. The generators
/// emit unit weights, whose sums are exact in any order, so every value is
/// replaced by one spanning sixteen decades with both signs: a sum taken in
/// another order shows in its bits.
fn analog(dataset: &Dataset) -> CsrMatrix {
    let scale = dataset.nodes.div_ceil(TARGET_NODES);
    let m = dataset.generate_scaled(scale, 7).to_csr();
    assert!((96..=128).contains(&m.rows()), "{}: {} nodes", dataset.name, m.rows());
    let mut x = dataset.nodes as u64;
    let values = (0..m.nnz())
        .map(|_| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let unit = (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            unit * 10f64.powi((x % 16) as i32 - 8)
        })
        .collect();
    let (row_ptr, col_idx) = (m.row_ptr().to_vec(), m.col_idx().to_vec());
    CsrMatrix::from_raw_parts(m.rows(), m.cols(), row_ptr, col_idx, values)
        .expect("the analog keeps its structure")
}

/// `OuterProduct` and every `TiledRowWise` height return the row-wise
/// kernel's CSR arrays, every value bit for bit.
#[test]
fn every_dataflow_equals_the_row_wise_kernel_on_every_analog() {
    let bits = |c: &CsrMatrix| c.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for dataset in catalog() {
        let a = analog(&dataset);
        let row_wise = spgemm::gustavson(&a, &a);
        for dataflow in [
            Dataflow::OuterProduct,
            Dataflow::TiledRowWise(1),
            Dataflow::TiledRowWise(2),
            Dataflow::TiledRowWise(4),
            Dataflow::TiledRowWise(8),
        ] {
            let c = spgemm::multiply(&a, &a, dataflow).unwrap();
            let name = dataset.name;
            assert!(c.row_ptr() == row_wise.row_ptr(), "{name} {dataflow:?}: row_ptr differs");
            assert!(c.col_idx() == row_wise.col_idx(), "{name} {dataflow:?}: col_idx differs");
            assert!(bits(&c) == bits(&row_wise), "{name} {dataflow:?}: value bits differ");
        }
    }
}

/// The numeric kernel's statistics are the pattern-only pass's, all five
/// fields, on every analog.
#[test]
fn counting_statistics_equal_the_pattern_count_on_every_analog() {
    for dataset in catalog() {
        let a = analog(&dataset);
        let counted = spgemm::multiply_counting(&a, &a).1;
        assert_eq!(counted, spgemm::count_products(&a, &a), "{}", dataset.name);
    }
}
