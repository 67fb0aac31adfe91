//! Reference SpGEMM (sparse × sparse) implementations.
//!
//! The paper's Figure 2 contrasts four ways of organising the multiplication
//! stage of SpGEMM.  Each is implemented here as a functionally equivalent
//! reference kernel, selected by value through [`multiply`]:
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
//! All kernels produce identical numerical results; they differ only in the
//! order in which partial products are generated, which is what the
//! accelerator models in `neura-chip` care about.  [`multiply_counting`]
//! additionally reports the partial-product trace statistics, and
//! [`count_products`] computes the same statistics from the sparsity
//! patterns alone, which is all the memory-bloat analysis and the baseline
//! accelerator models need.
//!
//! # Output assembly
//!
//! Every kernel assembles its CSR output directly (`accumulator.rs`) and
//! passes the arrays through [`CsrMatrix::from_raw_parts`]; none goes
//! through a [`crate::CooMatrix`].  The row-wise and inner-product kernels
//! finish one sorted row at a time — Gustavson through a dense
//! sparse-accumulator over the columns of `B`.  The outer-product and tiled
//! kernels generate in `k`-major order, so they share a
//! row-bucket accumulator: bucket sizes come from the operand structure
//! (`Σ_k col_nnz_A(k) · row_nnz_B(k)` products in all), every partial product
//! is scattered into its output row's bucket as a 16-byte `(column, value)`
//! pair in generation order, and an explicit merge phase then sums each
//! bucket with the same sparse-accumulator.  Products of one output element
//! therefore add up in ascending `k` in all four kernels.

mod accumulator;
mod gustavson;
mod inner;
mod outer;
mod tiled;

pub use gustavson::{count_products, gustavson, gustavson_with_stats};
use inner::inner_product;
use outer::outer_product;
use tiled::tiled_gustavson;

use crate::CsrMatrix;
use serde::{Deserialize, Serialize};

/// Which multiplication-stage dataflow to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dataflow {
    /// Inner-product (output stationary) dataflow.
    InnerProduct,
    /// Outer-product dataflow with explicit intermediate matrices.
    OuterProduct,
    /// Row-wise (Gustavson) dataflow.
    RowWise,
    /// Tiled row-wise dataflow with the given tile height.
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

    /// The paper's "bloat percent" (Equation 1):
    /// `(pp_interim - nnz_output) / nnz_output * 100`.
    pub(crate) fn bloat_percent(&self) -> f64 {
        if self.output_nnz == 0 {
            0.0
        } else {
            (self.multiplications as f64 - self.output_nnz as f64) / self.output_nnz as f64 * 100.0
        }
    }
}

/// Runs the requested dataflow and returns the product matrix.
///
/// All dataflows produce the same result; this entry point exists so callers
/// (benchmarks, tests) can select a dataflow by value.
pub fn multiply(a: &CsrMatrix, b: &CsrMatrix, dataflow: Dataflow) -> crate::Result<CsrMatrix> {
    if a.cols() != b.rows() {
        return Err(crate::SparseError::ShapeMismatch {
            left: (a.rows(), a.cols()),
            right: (b.rows(), b.cols()),
        });
    }
    Ok(match dataflow {
        Dataflow::InnerProduct => inner_product(a, b),
        Dataflow::OuterProduct => outer_product(a, b),
        Dataflow::RowWise => gustavson(a, b),
        Dataflow::TiledRowWise(tile) => tiled_gustavson(a, b, tile),
    })
}

/// Runs a row-wise SpGEMM while counting multiplications/additions.
///
/// The counts are the ones the memory-bloat analysis (Table 1) and every
/// analytical baseline model use; callers that need only the counts take
/// them from [`count_products`].
pub fn multiply_counting(a: &CsrMatrix, b: &CsrMatrix) -> (CsrMatrix, SpgemmStats) {
    gustavson_with_stats(a, b)
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
