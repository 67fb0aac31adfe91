//! Tiled Gustavson SpGEMM — the dataflow NeuraChip's `MMH` instructions implement.

use super::accumulator::RowBuckets;
use crate::CsrMatrix;

/// Computes `C = A × B` with NeuraChip's tiled Gustavson dataflow.
///
/// The computation walks the columns of `A` (CSC order, as streamed by the
/// NeuraCore address generators), chopping each column into groups of `tile`
/// stored elements.  Every group combined with row `k` of `B` is one
/// multiplication task, which NeuraChip lowers to a single `MMH<tile>`
/// instruction (`neura_chip::compiler` builds that decomposition for the
/// chip); each `(a element, b element)` pair is one partial product.
/// Tasks follow each other in column order, so the products are generated in
/// the outer-product kernel's order and the result matches it bit for bit.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()` or if `tile == 0`.
pub(crate) fn tiled_gustavson(a: &CsrMatrix, b: &CsrMatrix, tile: usize) -> CsrMatrix {
    assert!(tile > 0, "tile height must be at least 1");
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let a_csc = a.to_csc();
    let mut products = RowBuckets::for_product(a, b);

    for k in 0..a.cols() {
        let (a_rows, a_vals) = a_csc.col(k);
        let (b_cols, b_vals) = b.row(k);
        for (rows_chunk, vals_chunk) in a_rows.chunks(tile).zip(a_vals.chunks(tile)) {
            for (&i, &a_ik) in rows_chunk.iter().zip(vals_chunk.iter()) {
                products.scatter(i, a_ik, b_cols, b_vals);
            }
        }
    }

    products.merge()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GraphGenerator;
    use crate::spgemm::gustavson;

    #[test]
    fn matches_plain_gustavson_numerically() {
        let a = GraphGenerator::rmat(6, 250, 17).generate().to_csr();
        let b = GraphGenerator::rmat(6, 260, 18).generate().to_csr();
        let reference = gustavson(&a, &b);
        for tile in [1, 2, 4, 8] {
            let product = tiled_gustavson(&a, &b, tile);
            assert!(
                product.to_dense().max_abs_diff(&reference.to_dense()).unwrap() < 1e-9,
                "tile {tile} diverged"
            );
        }
    }

    #[test]
    #[should_panic(expected = "tile height")]
    fn zero_tile_panics() {
        let a = CsrMatrix::identity(2);
        let _ = tiled_gustavson(&a, &a, 0);
    }
}
