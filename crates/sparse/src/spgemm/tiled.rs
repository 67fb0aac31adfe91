//! Tiled Gustavson SpGEMM — the dataflow NeuraChip's `MMH` instructions implement.

use super::accumulator::RowBuckets;
use crate::CsrMatrix;
use serde::{Deserialize, Serialize};

/// One multiplication task of the tiled Gustavson dataflow.
///
/// A task pairs up to `tile` consecutive stored elements of one column `k`
/// of `A` (rows `a_rows`) with the whole of row `k` of `B`.  NeuraChip lowers
/// one task to a single `MMH<tile>` instruction; each `(a element, b element)`
/// pair becomes one partial product / one `HACC` instruction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TiledTask {
    /// The shared inner index `k` (column of `A`, row of `B`).
    pub k: usize,
    /// Output-row indices covered by this task (up to `tile` of them).
    pub a_rows: Vec<usize>,
    /// Values of `A` corresponding to `a_rows`.
    pub a_values: Vec<f64>,
    /// Number of stored elements in row `k` of `B`.
    pub b_row_nnz: usize,
}

impl TiledTask {
    /// Number of partial products (HACC instructions) this task generates.
    pub fn partial_products(&self) -> u64 {
        self.a_rows.len() as u64 * self.b_row_nnz as u64
    }
}

/// Result of a tiled Gustavson multiplication: the product plus the task trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TiledTrace {
    /// The numerical product `C = A × B`.
    pub product: CsrMatrix,
    /// The multiplication tasks in dispatch order.
    pub tasks: Vec<TiledTask>,
    /// Tile height used (4 corresponds to the paper's `MMH4`).
    pub tile: usize,
    /// Total number of partial products generated.
    pub partial_products: u64,
}

impl TiledTrace {
    /// Number of `MMH` instructions the compiler would emit for this trace.
    pub fn instruction_count(&self) -> usize {
        self.tasks.len()
    }
}

/// Computes `C = A × B` with NeuraChip's tiled Gustavson dataflow and records
/// the task decomposition.
///
/// The computation walks the columns of `A` (CSC order, as streamed by the
/// NeuraCore address generators), chopping each column into groups of `tile`
/// stored elements.  Every group combined with row `k` of `B` forms one
/// [`TiledTask`].  Numerically the result is identical to plain Gustavson.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()` or if `tile == 0`.
pub fn tiled_gustavson(a: &CsrMatrix, b: &CsrMatrix, tile: usize) -> TiledTrace {
    assert!(tile > 0, "tile height must be at least 1");
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let a_csc = a.to_csc();
    let mut products = RowBuckets::for_product(a, b);
    let mut tasks = Vec::new();
    let mut partial_products = 0u64;

    for k in 0..a.cols() {
        let (a_rows, a_vals) = a_csc.col(k);
        let (b_cols, b_vals) = b.row(k);
        if a_rows.is_empty() {
            continue;
        }
        for chunk_start in (0..a_rows.len()).step_by(tile) {
            let chunk_end = (chunk_start + tile).min(a_rows.len());
            let rows_chunk = &a_rows[chunk_start..chunk_end];
            let vals_chunk = &a_vals[chunk_start..chunk_end];
            let task = TiledTask {
                k,
                a_rows: rows_chunk.to_vec(),
                a_values: vals_chunk.to_vec(),
                b_row_nnz: b_cols.len(),
            };
            partial_products += task.partial_products();
            // Generate the partial products for this task.
            for (&i, &a_ik) in rows_chunk.iter().zip(vals_chunk.iter()) {
                products.scatter(i, a_ik, b_cols, b_vals);
            }
            tasks.push(task);
        }
    }

    TiledTrace { product: products.merge(), tasks, tile, partial_products }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GraphGenerator;
    use crate::spgemm::gustavson_with_stats;

    #[test]
    fn matches_plain_gustavson_numerically() {
        let a = GraphGenerator::rmat(6, 250, 17).generate().to_csr();
        let b = GraphGenerator::rmat(6, 260, 18).generate().to_csr();
        let (reference, stats) = gustavson_with_stats(&a, &b);
        for tile in [1, 2, 4, 8] {
            let trace = tiled_gustavson(&a, &b, tile);
            assert!(
                trace.product.to_dense().max_abs_diff(&reference.to_dense()).unwrap() < 1e-9,
                "tile {tile} diverged"
            );
            assert_eq!(trace.partial_products, stats.multiplications);
        }
    }

    #[test]
    fn larger_tiles_emit_fewer_instructions() {
        let a = GraphGenerator::power_law(128, 900, 2.0, 3).generate().to_csr();
        let b = a.clone();
        let t1 = tiled_gustavson(&a, &b, 1);
        let t4 = tiled_gustavson(&a, &b, 4);
        let t8 = tiled_gustavson(&a, &b, 8);
        assert!(t4.instruction_count() <= t1.instruction_count());
        assert!(t8.instruction_count() <= t4.instruction_count());
        // Partial-product totals are dataflow-invariant.
        assert_eq!(t1.partial_products, t4.partial_products);
        assert_eq!(t4.partial_products, t8.partial_products);
    }

    #[test]
    fn task_rows_never_exceed_tile() {
        let a = GraphGenerator::power_law(64, 600, 1.9, 7).generate().to_csr();
        let trace = tiled_gustavson(&a, &a, 4);
        assert!(trace.tasks.iter().all(|t| t.a_rows.len() <= 4 && !t.a_rows.is_empty()));
        assert!(trace.tasks.iter().all(|t| t.a_rows.len() == t.a_values.len()));
    }

    #[test]
    #[should_panic(expected = "tile height")]
    fn zero_tile_panics() {
        let a = CsrMatrix::identity(2);
        let _ = tiled_gustavson(&a, &a, 0);
    }
}
