//! Reference SpGEMM (sparse × sparse) implementations.
//!
//! The paper's Figure 2 contrasts four ways of organising the multiplication
//! stage of SpGEMM, and [`multiply`] selects one by value:
//!
//! * [`Dataflow::InnerProduct`] — computes each output element directly
//!   (InnerSP),
//! * [`Dataflow::OuterProduct`] — forms one full partial-product matrix per
//!   column of `A` / row of `B` (OuterSPACE, SpArch),
//! * [`Dataflow::RowWise`] ([`gustavson()`]) — the row-wise product used by
//!   Gamma, MatRaptor, SPADA and as the basis of NeuraChip,
//! * [`Dataflow::TiledRowWise`] — NeuraChip's adaptation that processes
//!   `tile` column elements of `A` at once (the `MMH4` instruction
//!   corresponds to `tile == 4`).
//!
//! On the host there are two kernels. The inner-product dataflow has its
//! own; the other three run the row-wise kernel. What sets the outer-product
//! and tiled dataflows apart is the order in which an accelerator
//! generates, holds and merges partial products, and that is measured where
//! it matters, not re-enacted in host memory: [`partial_product_count`] and
//! [`SpgemmStats::bloat_percent`] (Table 1) count the partial products an
//! outer-product design must store, and `neura_chip::compiler` lowers the
//! tiled dataflow to the `MMH` instructions the cycle-level model runs. A
//! host kernel that stored them all would reproduce the memory bloat the
//! paper argues against. The products of one output element add up in
//! ascending `k` in every dataflow, so all of them return the same bits,
//! bar the inner product's sign of a lone `-0.0`.
//!
//! # The symbolic phase
//!
//! Which elements of `C` exist, and how many partial products merge into
//! each, depends on the sparsity patterns alone.  Two entry points walk
//! `(a.row(i), b.row(k))` without reading a value, and differ in what they
//! keep:
//!
//! * [`count_products`] keeps only the [`SpgemmStats`] — partial products,
//!   output non-zeros, the heaviest row — and allocates nothing but a
//!   row-stamp array over the columns of `B`.
//!   [`SpgemmStats::bloat_percent`] is the paper's Equation 1 (Table 1);
//!   `paper table1`, the analytic cost tier's `WorkloadFeatures` and the
//!   baseline models' `WorkloadProfile` read it.
//! * [`symbolic`] keeps the [`SymbolicProduct`]: the CSR pattern of `C`
//!   with the reduction fan-in of every stored element, counted per column
//!   by the numeric kernel's sparse accumulator (below).  The
//!   NeuraCompiler takes its rolling-eviction counters from it and the
//!   accelerator model scatters the evicted values into it.
//!
//! [`multiply_counting`] is the numeric row-wise kernel reporting the same
//! statistics as it goes.
//!
//! # Output assembly
//!
//! Both kernels assemble their CSR output directly (`accumulator.rs`) and
//! pass the arrays through [`CsrMatrix::from_raw_parts`]; neither goes
//! through a [`crate::CooMatrix`], and neither sorts a row's columns.  The
//! row-wise kernel and [`symbolic`] finish one row at a time through a
//! dense sparse-accumulator over the columns of `B`: a value and a flag
//! byte per column, the columns cut into blocks of 64, and a summary with
//! one `u64` word per 4 096 columns, one bit per block.  Before it
//! multiplies, the kernel lists for every row of `B` which blocks that row
//! reaches, one `(summary word, block bits)` mark per word, in one pass
//! over `B`.  Each `a_ik` then ORs row `k`'s marks into the summary — a
//! word that was zero joins the row's list of words — and adds each
//! partial product's value and stores its column's flag.  Finishing a row
//! sorts only the listed words, walks each word's block bits upward and
//! each block's flags upward, so the row comes out in ascending column
//! order at O(products + marks + W log W + N) for its `W` summary words and
//! `N` blocks, never O(columns of `B`).  The accumulator holds one output
//! row at a time, never a partial product of another.  The inner-product
//! kernel visits the columns in order and needs no accumulator.

mod accumulator;
mod gustavson;
mod inner;

pub use gustavson::{count_products, gustavson, multiply_counting, symbolic};
use inner::inner_product;

use crate::CsrMatrix;
use serde::{Deserialize, Serialize};

/// Which multiplication-stage dataflow to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dataflow {
    /// Inner-product (output stationary) dataflow.
    InnerProduct,
    /// Outer-product dataflow: for every `k`, column `k` of `A` times row
    /// `k` of `B` forms a complete partial-product matrix, and the sum of
    /// all of them is `C`.  OuterSPACE and SpArch store those matrices
    /// before an explicit merge phase, which is the worst memory bloat of
    /// the four; [`partial_product_count`] is what they store.
    OuterProduct,
    /// Row-wise (Gustavson) dataflow.
    RowWise,
    /// Tiled row-wise dataflow with the given tile height: each column of
    /// `A` is chopped into groups of `tile` stored elements, and every group
    /// combined with row `k` of `B` is one `MMH<tile>` instruction
    /// (`neura_chip::compiler` builds that decomposition for the chip).
    TiledRowWise(usize),
}

impl Dataflow {
    /// Human readable name used in reports.
    pub fn name(&self) -> String {
        match self {
            Dataflow::InnerProduct => "inner-product".to_string(),
            Dataflow::OuterProduct => "outer-product".to_string(),
            Dataflow::RowWise => "row-wise".to_string(),
            Dataflow::TiledRowWise(t) => format!("tiled-row-wise-{t}"),
        }
    }
}

/// Statistics gathered while running a counting SpGEMM.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SpgemmStats {
    /// Number of scalar multiplications performed (== intermediate partial products).
    pub multiplications: u64,
    /// Number of scalar additions performed during accumulation.
    pub additions: u64,
    /// Number of structurally non-zero entries in the output.
    pub output_nnz: usize,
    /// Maximum number of partial products that target a single output row.
    pub max_row_partial_products: u64,
    /// Number of rows of the output that receive at least one partial product.
    pub active_rows: usize,
}

impl SpgemmStats {
    /// Accounts for one output row that received `partial_products`.
    fn record_row(&mut self, partial_products: u64) {
        self.multiplications += partial_products;
        self.active_rows += usize::from(partial_products > 0);
        self.max_row_partial_products = self.max_row_partial_products.max(partial_products);
    }

    /// Accounts for the output's stored elements, once every row is in:
    /// merging `n` partial products into one element takes `n − 1`
    /// additions.
    fn record_output(&mut self, output_nnz: usize) {
        self.output_nnz = output_nnz;
        self.additions = self.multiplications - output_nnz as u64;
    }

    /// The paper's "bloat percent" (Equation 1 / Table 1): how many
    /// intermediate partial products an SpGEMM produces relative to the
    /// non-zeros that survive in the output,
    ///
    /// ```text
    /// bloat% = (pp_interim − nnz_output) / nnz_output × 100
    /// ```
    ///
    /// Large bloat means an accelerator following Gustavson's (or the outer
    /// product) dataflow must hold many short-lived partial products on
    /// chip, which motivates NeuraChip's rolling-eviction HashPad.  Zero for
    /// an empty output.
    pub fn bloat_percent(&self) -> f64 {
        if self.output_nnz == 0 {
            0.0
        } else {
            (self.multiplications as f64 - self.output_nnz as f64) / self.output_nnz as f64 * 100.0
        }
    }

    /// Average number of partial products that merge into one output
    /// element; zero for an empty output.
    pub fn average_fanin(&self) -> f64 {
        if self.output_nnz == 0 {
            0.0
        } else {
            self.multiplications as f64 / self.output_nnz as f64
        }
    }
}

/// The symbolic product of `A × B` ([`symbolic`]): which elements of `C`
/// are stored, and how many partial products each one reduces.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SymbolicProduct {
    /// CSR row pointers of `C` (`rows + 1` entries).
    pub row_ptr: Vec<usize>,
    /// Column indices of `C`, ascending inside every row.
    pub col_idx: Vec<usize>,
    /// Reduction fan-in of each stored element, parallel to `col_idx`: the
    /// number of partial products `a_ik · b_kj` that sum into it (≥ 1).
    pub fanin: Vec<u32>,
}

impl SymbolicProduct {
    /// Index into `col_idx` / `fanin` of element `(row, col)`, if `C` stores
    /// one there.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not a row of `C`.
    pub fn position(&self, row: usize, col: usize) -> Option<usize> {
        let start = self.row_ptr[row];
        let columns = &self.col_idx[start..self.row_ptr[row + 1]];
        columns.binary_search(&col).ok().map(|offset| start + offset)
    }
}

/// Runs the requested dataflow and returns the product matrix.
///
/// All dataflows produce the same result; this entry point exists so callers
/// (benchmarks, tests) can select a dataflow by value.  The outer-product
/// and tiled dataflows run the row-wise kernel (see the module docs).
///
/// # Panics
///
/// Panics on [`Dataflow::TiledRowWise`] with a tile height of zero.
pub fn multiply(a: &CsrMatrix, b: &CsrMatrix, dataflow: Dataflow) -> crate::Result<CsrMatrix> {
    if a.cols() != b.rows() {
        return Err(crate::SparseError::ShapeMismatch {
            left: (a.rows(), a.cols()),
            right: (b.rows(), b.cols()),
        });
    }
    Ok(match dataflow {
        Dataflow::InnerProduct => inner_product(a, b),
        Dataflow::TiledRowWise(0) => panic!("tile height must be at least 1"),
        Dataflow::OuterProduct | Dataflow::RowWise | Dataflow::TiledRowWise(_) => gustavson(a, b),
    })
}

/// Number of intermediate partial products of `A × B`,
/// `Σ_k col_nnz_A(k) · row_nnz_B(k)`, without running the multiplication:
/// each stored `a_ik` meets all of row `k` of `B`, so one pass over the
/// column indices of `A` adds it up.  The count is the same for every
/// dataflow; outer-product designs must *store* that many.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn partial_product_count(a: &CsrMatrix, b: &CsrMatrix) -> u64 {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    a.col_idx().iter().map(|&k| b.row_nnz(k) as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GraphGenerator;

    fn small_pair() -> (CsrMatrix, CsrMatrix) {
        let a = GraphGenerator::erdos_renyi(40, 0.12, 3).generate().to_csr();
        let b = GraphGenerator::erdos_renyi(40, 0.15, 4).generate().to_csr();
        (a, b)
    }

    #[test]
    fn all_dataflows_agree_with_dense_reference() {
        let (a, b) = small_pair();
        let expected = a.to_dense().matmul(&b.to_dense()).unwrap();
        for dataflow in [
            Dataflow::InnerProduct,
            Dataflow::OuterProduct,
            Dataflow::RowWise,
            Dataflow::TiledRowWise(4),
            Dataflow::TiledRowWise(1),
            Dataflow::TiledRowWise(8),
        ] {
            let c = multiply(&a, &b, dataflow).unwrap();
            let diff = c.to_dense().max_abs_diff(&expected).unwrap();
            assert!(diff < 1e-9, "dataflow {dataflow:?} diverged by {diff}");
        }
    }

    #[test]
    fn multiply_rejects_shape_mismatch() {
        let a = CsrMatrix::identity(3);
        let b = CsrMatrix::identity(4);
        assert!(multiply(&a, &b, Dataflow::RowWise).is_err());
    }

    #[test]
    fn counting_stats_are_consistent() {
        let (a, b) = small_pair();
        let (c, stats) = multiply_counting(&a, &b);
        assert_eq!(stats.output_nnz, c.nnz());
        // Each output non-zero requires at least one multiplication.
        assert!(stats.multiplications >= c.nnz() as u64);
        // additions == multiplications - populated entries (merging k partial
        // products takes k-1 additions).
        assert_eq!(stats.additions, stats.multiplications - c.nnz() as u64);
        assert!(stats.bloat_percent() >= 0.0);
    }

    #[test]
    fn bloat_formula_matches_definition() {
        let a = GraphGenerator::power_law(200, 1500, 2.2, 5).generate().to_csr();
        let stats = count_products(&a, &a);
        let expected = (stats.multiplications as f64 - stats.output_nnz as f64)
            / stats.output_nnz as f64
            * 100.0;
        assert!((stats.bloat_percent() - expected).abs() < 1e-9);
        assert!(stats.bloat_percent() >= 0.0);
    }

    #[test]
    fn closed_form_partial_product_count_agrees_with_counting() {
        let a = GraphGenerator::rmat(7, 800, 3).generate().to_csr();
        let b = GraphGenerator::rmat(7, 700, 4).generate().to_csr();
        assert_eq!(partial_product_count(&a, &b), count_products(&a, &b).multiplications);
    }

    #[test]
    fn partial_product_count_formula() {
        // A = identity(3): each column has 1 nnz; B row nnz decides the count.
        let a = CsrMatrix::identity(3);
        let b = GraphGenerator::erdos_renyi(3, 0.9, 5).generate().to_csr();
        assert_eq!(partial_product_count(&a, &b), b.nnz() as u64);
    }

    #[test]
    fn empty_matrices_produce_no_partial_products() {
        let a = CsrMatrix::zeros(4, 4);
        let b = CsrMatrix::zeros(4, 4);
        assert_eq!(partial_product_count(&a, &b), 0);
        assert_eq!(multiply(&a, &b, Dataflow::OuterProduct).unwrap().nnz(), 0);
    }

    #[test]
    #[should_panic(expected = "tile height")]
    fn zero_tile_panics() {
        let a = CsrMatrix::identity(2);
        let _ = multiply(&a, &a, Dataflow::TiledRowWise(0));
    }

    #[test]
    fn identity_has_zero_bloat() {
        let id = CsrMatrix::identity(64);
        let stats = count_products(&id, &id);
        assert_eq!(stats.bloat_percent(), 0.0);
        assert_eq!(stats.multiplications, 64);
        assert_eq!(stats.output_nnz, 64);
        assert_eq!(stats.average_fanin(), 1.0);
    }

    #[test]
    fn denser_graphs_have_higher_bloat() {
        let sparse = GraphGenerator::erdos_renyi(300, 0.01, 9).generate().to_csr();
        let dense = GraphGenerator::erdos_renyi(300, 0.08, 9).generate().to_csr();
        let sparse_bloat = count_products(&sparse, &sparse).bloat_percent();
        let dense_bloat = count_products(&dense, &dense).bloat_percent();
        assert!(dense_bloat > sparse_bloat);
    }

    #[test]
    fn dataflow_names_are_distinct() {
        let names: std::collections::HashSet<String> = [
            Dataflow::InnerProduct,
            Dataflow::OuterProduct,
            Dataflow::RowWise,
            Dataflow::TiledRowWise(4),
        ]
        .iter()
        .map(|d| d.name())
        .collect();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn identity_times_identity_is_identity() {
        let id = CsrMatrix::identity(16);
        for dataflow in [Dataflow::InnerProduct, Dataflow::OuterProduct, Dataflow::RowWise] {
            let c = multiply(&id, &id, dataflow).unwrap();
            assert_eq!(c.nnz(), 16);
            for i in 0..16 {
                assert_eq!(c.get(i, i), 1.0);
            }
        }
    }
}
