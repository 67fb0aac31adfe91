//! Inner-product (output stationary) SpGEMM.

use super::accumulator::CsrRows;
use crate::CsrMatrix;

/// Computes `C = A × B` with the inner-product dataflow.
///
/// Each output element `c_ij` is computed directly as the dot product of row
/// `i` of `A` and column `j` of `B` (accessed through `B`'s CSC form).  This
/// is the dataflow of InnerSP; it has poor input reuse but needs no on-chip
/// accumulation, which is why the paper contrasts it with Gustavson's
/// approach.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub(crate) fn inner_product(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let b_csc = b.to_csc();
    let mut out = CsrRows::new(a.rows(), b.cols());
    for i in 0..a.rows() {
        let (a_cols, a_vals) = a.row(i);
        if !a_cols.is_empty() {
            for j in 0..b.cols() {
                let (b_rows, b_vals) = b_csc.col(j);
                if let Some(c_ij) = sparse_dot(a_cols, a_vals, b_rows, b_vals) {
                    out.push(j, c_ij);
                }
            }
        }
        out.end_row();
    }
    out.finish()
}

/// Sorted-merge dot product of two sparse vectors; `None` when no index is
/// stored in both (a sum that cancels to zero is still `Some`).
fn sparse_dot(x_idx: &[usize], x_vals: &[f64], y_idx: &[usize], y_vals: &[f64]) -> Option<f64> {
    let mut acc = 0.0;
    let mut hit = false;
    let (mut p, mut q) = (0usize, 0usize);
    while p < x_idx.len() && q < y_idx.len() {
        match x_idx[p].cmp(&y_idx[q]) {
            std::cmp::Ordering::Less => p += 1,
            std::cmp::Ordering::Greater => q += 1,
            std::cmp::Ordering::Equal => {
                acc += x_vals[p] * y_vals[q];
                hit = true;
                p += 1;
                q += 1;
            }
        }
    }
    hit.then_some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GraphGenerator;
    use crate::spgemm::gustavson;
    use crate::CooMatrix;

    #[test]
    fn agrees_with_gustavson() {
        let a = GraphGenerator::power_law(64, 400, 2.1, 11).generate().to_csr();
        let b = GraphGenerator::power_law(64, 380, 2.3, 12).generate().to_csr();
        let inner = inner_product(&a, &b);
        let row_wise = gustavson(&a, &b);
        assert_eq!(inner.nnz(), row_wise.nnz());
        assert!(inner.to_dense().max_abs_diff(&row_wise.to_dense()).unwrap() < 1e-9);
    }

    #[test]
    fn keeps_structural_zeros_from_cancellation() {
        // a_i . b_j = 1*1 + 1*(-1) = 0: the entry is still structurally produced.
        let a = CooMatrix::from_triplets(1, 2, vec![(0, 0, 1.0), (0, 1, 1.0)]).unwrap().to_csr();
        let b = CooMatrix::from_triplets(2, 1, vec![(0, 0, 1.0), (1, 0, -1.0)]).unwrap().to_csr();
        let c = inner_product(&a, &b);
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.get(0, 0), 0.0);
    }

    #[test]
    fn empty_inputs_give_empty_output() {
        let a = CsrMatrix::zeros(3, 3);
        let b = CsrMatrix::zeros(3, 3);
        assert_eq!(inner_product(&a, &b).nnz(), 0);
    }
}
