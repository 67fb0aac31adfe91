//! Row-wise (Gustavson) SpGEMM: the numeric kernel and its symbolic phase.

use super::accumulator::{CsrRows, RowMarks, SparseAccumulator};
use super::{SpgemmStats, SymbolicProduct};
use crate::CsrMatrix;

/// Computes `C = A × B` with the row-wise (Gustavson) dataflow.
///
/// For each row `i` of `A`, every stored element `a_ik` scales row `k` of
/// `B`; the scaled rows are accumulated into row `i` of `C` using a sparse
/// accumulator.  This is the dataflow adopted by Gamma, MatRaptor, SPADA and
/// NeuraChip because it reuses rows of `B` and never materialises a full
/// intermediate matrix.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()` (use [`super::multiply`] for a fallible
/// entry point).
pub fn gustavson(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
    multiply_counting(a, b).0
}

/// Same as [`gustavson`] but also returns operation counts.
///
/// The counts are the ones the memory-bloat analysis (Table 1) and every
/// analytical baseline model use; callers that need only the counts take
/// them from [`count_products`].
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn multiply_counting(a: &CsrMatrix, b: &CsrMatrix) -> (CsrMatrix, SpgemmStats) {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let mut stats = SpgemmStats::default();
    let mut out = CsrRows::new(a.rows(), b.cols());
    let mut spa = SparseAccumulator::new(b.cols());
    let marks = RowMarks::of(b);

    for i in 0..a.rows() {
        let (a_cols, a_vals) = a.row(i);
        let mut row_partial_products = 0u64;
        for (&k, &a_ik) in a_cols.iter().zip(a_vals.iter()) {
            let (b_cols, b_vals) = b.row(k);
            row_partial_products += b_cols.len() as u64;
            spa.add_segment(marks.row(k), b_cols, b_vals.iter().map(|&b_kj| a_ik * b_kj));
        }
        stats.record_row(row_partial_products);
        spa.flush_row(&mut out);
    }

    let product = out.finish();
    stats.record_output(product.nnz());
    (product, stats)
}

/// The [`SpgemmStats`] of `A × B` from the sparsity patterns alone: the
/// same five fields as `multiply_counting(a, b).1`, without computing a
/// value or building the output.  One walk over every `(a.row(i),
/// b.row(k))` pairing reads no value; a row-stamp array over the columns
/// of `B` (`stamp[j] == i` once row `i` has reached column `j`; it starts
/// at a value no row index reaches) tells a row's first product in a
/// column, which is an output non-zero.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn count_products(a: &CsrMatrix, b: &CsrMatrix) -> SpgemmStats {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let mut stats = SpgemmStats::default();
    let mut output_nnz = 0;
    let mut stamp = vec![usize::MAX; b.cols()];
    for i in 0..a.rows() {
        let mut row_partial_products = 0u64;
        for &k in a.row(i).0 {
            let b_cols = b.row(k).0;
            row_partial_products += b_cols.len() as u64;
            for &j in b_cols {
                output_nnz += usize::from(stamp[j] != i);
                stamp[j] = i;
            }
        }
        stats.record_row(row_partial_products);
    }
    stats.record_output(output_nnz);
    stats
}

/// The symbolic product of `A × B`: the CSR pattern of `C` — the `row_ptr`
/// and `col_idx` [`gustavson`] returns — with the reduction fan-in of every
/// stored element.  The rows go through the same sparse accumulator as the
/// numeric kernel, counting one per partial product instead of adding its
/// value, so they come out in column order without a sort.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn symbolic(a: &CsrMatrix, b: &CsrMatrix) -> SymbolicProduct {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let mut out = CsrRows::new(a.rows(), b.cols());
    let mut spa = SparseAccumulator::new(b.cols());
    let marks = RowMarks::of(b);
    for i in 0..a.rows() {
        for &k in a.row(i).0 {
            spa.add_segment(marks.row(k), b.row(k).0, std::iter::repeat(1u32));
        }
        spa.flush_row(&mut out);
    }
    let (row_ptr, col_idx, fanin) = out.into_parts();
    SymbolicProduct { row_ptr, col_idx, fanin }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GraphGenerator;

    #[test]
    fn matches_dense_reference() {
        let a = GraphGenerator::rmat(6, 300, 5).generate().to_csr();
        let b = GraphGenerator::rmat(6, 280, 9).generate().to_csr();
        let c = gustavson(&a, &b);
        let expected = a.to_dense().matmul(&b.to_dense()).unwrap();
        assert!(c.to_dense().max_abs_diff(&expected).unwrap() < 1e-9);
    }

    #[test]
    fn empty_rows_produce_empty_output_rows() {
        let a = CsrMatrix::zeros(5, 5);
        let b = CsrMatrix::identity(5);
        let c = gustavson(&a, &b);
        assert_eq!(c.nnz(), 0);
    }

    #[test]
    fn stats_count_partial_products() {
        // A = [1 1; 0 1], B = [1 1; 1 1]
        let a = crate::CooMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0)])
            .unwrap()
            .to_csr();
        let b = crate::CooMatrix::from_triplets(
            2,
            2,
            vec![(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)],
        )
        .unwrap()
        .to_csr();
        let (c, stats) = multiply_counting(&a, &b);
        // Row 0 of A has 2 nnz, each scaling a 2-nnz row of B: 4 products.
        // Row 1 of A has 1 nnz scaling a 2-nnz row: 2 products.
        assert_eq!(stats.multiplications, 6);
        assert_eq!(c.nnz(), 4);
        assert_eq!(stats.additions, 2);
        assert_eq!(stats.max_row_partial_products, 4);
        assert_eq!(stats.active_rows, 2);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn panics_on_shape_mismatch() {
        let a = CsrMatrix::identity(2);
        let b = CsrMatrix::identity(3);
        let _ = gustavson(&a, &b);
    }
}
