//! Outer-product SpGEMM.

use super::accumulator::RowBuckets;
use crate::CsrMatrix;

/// Computes `C = A × B` with the outer-product dataflow.
///
/// For every `k`, the outer product of column `k` of `A` (accessed through
/// CSC) and row `k` of `B` forms a complete partial-product matrix; the sum
/// of all of them is `C`.  This is the dataflow of OuterSPACE and SpArch and
/// is the one that suffers the worst memory bloat, which the paper uses to
/// motivate the rolling-eviction design.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub(crate) fn outer_product(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let a_csc = a.to_csc();
    let mut partial_products = RowBuckets::for_product(a, b);
    for k in 0..a.cols() {
        let (a_rows, a_vals) = a_csc.col(k);
        let (b_cols, b_vals) = b.row(k);
        for (&i, &a_ik) in a_rows.iter().zip(a_vals.iter()) {
            partial_products.scatter(i, a_ik, b_cols, b_vals);
        }
    }
    // Every partial product is stored by now; coordinates repeated across
    // `k` merge here, which models the off-chip merge phase of
    // outer-product accelerators.
    partial_products.merge()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GraphGenerator;
    use crate::spgemm::{multiply_counting, partial_product_count};

    #[test]
    fn agrees_with_gustavson() {
        let a = GraphGenerator::erdos_renyi(50, 0.1, 21).generate().to_csr();
        let b = GraphGenerator::erdos_renyi(50, 0.08, 22).generate().to_csr();
        let outer = outer_product(&a, &b);
        let (row_wise, stats) = multiply_counting(&a, &b);
        assert!(outer.to_dense().max_abs_diff(&row_wise.to_dense()).unwrap() < 1e-9);
        // The two dataflows generate the same number of scalar products.
        assert_eq!(partial_product_count(&a, &b), stats.multiplications);
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
        assert_eq!(outer_product(&a, &b).nnz(), 0);
    }
}
