//! Compressed Sparse Column (CSC) matrix.
//!
//! In the NeuraChip dataflow the *adjacency* matrix (matrix `A` of the
//! SpGEMM) is stored in CSC so that the tiled Gustavson `MMH4` instruction
//! can pull four elements of one column of `A` at a time (Section 3.1).

use crate::csr::counting_transpose;
use crate::{CooMatrix, CsrMatrix, DenseMatrix, Result, SparseError};
use serde::{Deserialize, Serialize};

/// A sparse matrix in compressed sparse column format.
///
/// Structural invariants mirror [`CsrMatrix`] with the roles of rows and
/// columns exchanged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CscMatrix {
    rows: usize,
    cols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Builds a CSC matrix from its raw arrays, validating every invariant.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::MalformedPointers`], [`SparseError::LengthMismatch`]
    /// or [`SparseError::IndexOutOfBounds`] when the arrays are inconsistent.
    pub fn from_raw_parts(
        rows: usize,
        cols: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self> {
        if col_ptr.len() != cols + 1 {
            return Err(SparseError::MalformedPointers {
                detail: format!("col_ptr has {} entries, expected {}", col_ptr.len(), cols + 1),
            });
        }
        if row_idx.len() != values.len() {
            return Err(SparseError::LengthMismatch {
                indices: row_idx.len(),
                values: values.len(),
            });
        }
        if col_ptr[0] != 0 {
            return Err(SparseError::MalformedPointers {
                detail: "col_ptr[0] must be 0".to_string(),
            });
        }
        if *col_ptr.last().expect("col_ptr is non-empty") != row_idx.len() {
            return Err(SparseError::MalformedPointers {
                detail: format!(
                    "col_ptr terminates at {} but there are {} stored values",
                    col_ptr.last().unwrap(),
                    row_idx.len()
                ),
            });
        }
        for w in col_ptr.windows(2) {
            if w[1] < w[0] {
                return Err(SparseError::MalformedPointers {
                    detail: "col_ptr must be monotonically non-decreasing".to_string(),
                });
            }
        }
        for (c, w) in col_ptr.windows(2).enumerate() {
            let slice = &row_idx[w[0]..w[1]];
            for pair in slice.windows(2) {
                if pair[1] <= pair[0] {
                    return Err(SparseError::MalformedPointers {
                        detail: format!("column {c} has unsorted or duplicate row indices"),
                    });
                }
            }
            for &r in slice {
                if r >= rows {
                    return Err(SparseError::IndexOutOfBounds { row: r, col: c, rows, cols });
                }
            }
        }
        Ok(CscMatrix { rows, cols, col_ptr, row_idx, values })
    }

    /// Creates an empty matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CscMatrix {
            rows,
            cols,
            col_ptr: vec![0; cols + 1],
            row_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Fraction of the matrix that is zero, in `[0, 1]`.
    pub fn sparsity(&self) -> f64 {
        let total = (self.rows * self.cols) as f64;
        if total == 0.0 {
            0.0
        } else {
            1.0 - self.nnz() as f64 / total
        }
    }

    /// The stored values (`nnz` entries).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Row indices and values of column `c` as parallel slices.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn col(&self, c: usize) -> (&[usize], &[f64]) {
        let start = self.col_ptr[c];
        let end = self.col_ptr[c + 1];
        (&self.row_idx[start..end], &self.values[start..end])
    }

    /// Value at `(row, col)`, or `0.0` when the entry is not stored.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        if row >= self.rows || col >= self.cols {
            return 0.0;
        }
        let (rows_in_col, vals) = self.col(col);
        match rows_in_col.binary_search(&row) {
            Ok(pos) => vals[pos],
            Err(_) => 0.0,
        }
    }

    /// Iterates over all stored entries as `(row, col, value)` in
    /// column-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.cols).flat_map(move |c| {
            let (rows, vals) = self.col(c);
            rows.iter().zip(vals.iter()).map(move |(&r, &v)| (r, c, v))
        })
    }

    /// Converts to coordinate format.
    pub fn to_coo(&self) -> CooMatrix {
        CooMatrix::from_triplets(self.rows, self.cols, self.iter().collect())
            .expect("CSC entries are always in bounds")
    }

    /// Converts to compressed sparse row format (one counting transpose,
    /// O(nnz + rows)).
    pub fn to_csr(&self) -> CsrMatrix {
        let (row_ptr, col_idx, values) =
            counting_transpose(&self.col_ptr, &self.row_idx, &self.values, self.rows);
        CsrMatrix::from_raw_parts(self.rows, self.cols, row_ptr, col_idx, values)
            .expect("transposing a valid CSC yields a structurally valid CSR")
    }

    /// Converts to a dense matrix.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut dense = DenseMatrix::zeros(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            *dense.get_mut(r, c) = v;
        }
        dense
    }
}

impl From<CooMatrix> for CscMatrix {
    fn from(coo: CooMatrix) -> Self {
        coo.to_csc()
    }
}

impl From<CsrMatrix> for CscMatrix {
    fn from(csr: CsrMatrix) -> Self {
        csr.to_csc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CscMatrix {
        // [1 0 2]
        // [0 0 3]
        // [4 5 0]
        let coo = CooMatrix::from_triplets(
            3,
            3,
            vec![(0, 0, 1.0), (0, 2, 2.0), (1, 2, 3.0), (2, 0, 4.0), (2, 1, 5.0)],
        )
        .unwrap();
        coo.to_csc()
    }

    #[test]
    fn structure_is_column_major() {
        let m = sample();
        assert_eq!(m.col(0), (&[0usize, 2][..], &[1.0, 4.0][..]));
        assert_eq!(m.col(1).0.len(), 1);
        assert_eq!(m.col(2).0.len(), 2);
    }

    #[test]
    fn get_returns_values_and_zeros() {
        let m = sample();
        assert_eq!(m.get(2, 0), 4.0);
        assert_eq!(m.get(1, 0), 0.0);
        assert_eq!(m.get(10, 10), 0.0);
    }

    #[test]
    fn from_raw_parts_rejects_bad_pointer_len() {
        let err = CscMatrix::from_raw_parts(2, 2, vec![0, 0], vec![], vec![]);
        assert!(matches!(err, Err(SparseError::MalformedPointers { .. })));
    }

    #[test]
    fn from_raw_parts_rejects_row_out_of_bounds() {
        let err = CscMatrix::from_raw_parts(1, 1, vec![0, 1], vec![3], vec![1.0]);
        assert!(matches!(err, Err(SparseError::IndexOutOfBounds { .. })));
    }

    #[test]
    fn from_raw_parts_rejects_length_mismatch() {
        let err = CscMatrix::from_raw_parts(2, 1, vec![0, 2], vec![0, 1], vec![1.0]);
        assert!(matches!(err, Err(SparseError::LengthMismatch { .. })));
    }

    #[test]
    fn csr_round_trip_preserves_values() {
        let m = sample();
        let csr = m.to_csr();
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(m.get(r, c), csr.get(r, c));
            }
        }
    }

    #[test]
    fn iter_visits_every_entry_once() {
        let m = sample();
        assert_eq!(m.iter().count(), m.nnz());
        let sum: f64 = m.iter().map(|(_, _, v)| v).sum();
        assert_eq!(sum, 15.0);
    }

    #[test]
    fn zeros_has_no_entries() {
        let m = CscMatrix::zeros(5, 7);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.rows(), 5);
        assert_eq!(m.cols(), 7);
        assert_eq!(m.sparsity(), 1.0);
    }
}
