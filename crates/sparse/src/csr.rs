//! Compressed Sparse Row (CSR) matrix.
//!
//! In the NeuraChip dataflow the *feature* matrix (matrix `B` of the SpGEMM)
//! is stored in CSR so that an entire row can be streamed for each matched
//! column index of the adjacency matrix (Section 3.1 of the paper).

use crate::{CooMatrix, CscMatrix, DenseMatrix, Result, SparseError};
use serde::{Deserialize, Serialize};

/// A sparse matrix in compressed sparse row format.
///
/// Structural invariants (enforced by [`CsrMatrix::from_raw_parts`]):
///
/// * `row_ptr.len() == rows + 1`, monotonically non-decreasing,
///   `row_ptr[0] == 0`, `row_ptr[rows] == col_idx.len()`;
/// * `col_idx.len() == values.len()`;
/// * every column index is `< cols`;
/// * column indices are sorted and unique within a row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from its raw arrays, validating every invariant.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::MalformedPointers`], [`SparseError::LengthMismatch`]
    /// or [`SparseError::IndexOutOfBounds`] when the arrays are inconsistent.
    pub fn from_raw_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self> {
        if row_ptr.len() != rows + 1 {
            return Err(SparseError::MalformedPointers {
                detail: format!("row_ptr has {} entries, expected {}", row_ptr.len(), rows + 1),
            });
        }
        if col_idx.len() != values.len() {
            return Err(SparseError::LengthMismatch {
                indices: col_idx.len(),
                values: values.len(),
            });
        }
        if row_ptr[0] != 0 {
            return Err(SparseError::MalformedPointers {
                detail: "row_ptr[0] must be 0".to_string(),
            });
        }
        if *row_ptr.last().expect("row_ptr is non-empty") != col_idx.len() {
            return Err(SparseError::MalformedPointers {
                detail: format!(
                    "row_ptr terminates at {} but there are {} stored values",
                    row_ptr.last().unwrap(),
                    col_idx.len()
                ),
            });
        }
        for w in row_ptr.windows(2) {
            if w[1] < w[0] {
                return Err(SparseError::MalformedPointers {
                    detail: "row_ptr must be monotonically non-decreasing".to_string(),
                });
            }
        }
        for (r, w) in row_ptr.windows(2).enumerate() {
            let slice = &col_idx[w[0]..w[1]];
            // One pass without an early exit: strict ascent, and then the
            // last column, the largest, is the one to check against `cols`.
            let descents = slice.windows(2).fold(0, |n, pair| n + usize::from(pair[1] <= pair[0]));
            if descents > 0 {
                return Err(SparseError::MalformedPointers {
                    detail: format!("row {r} has unsorted or duplicate column indices"),
                });
            }
            if slice.last().is_some_and(|&last| last >= cols) {
                let c = slice[slice.partition_point(|&c| c < cols)];
                return Err(SparseError::IndexOutOfBounds { row: r, col: c, rows, cols });
            }
        }
        Ok(CsrMatrix { rows, cols, row_ptr, col_idx, values })
    }

    /// Creates an empty matrix (no stored entries) of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CsrMatrix {
            rows,
            cols,
            row_ptr: vec![0; rows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Creates an identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            rows: n,
            cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: vec![1.0; n],
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

    /// Number of stored (structurally non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
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

    /// The row pointer array (`rows + 1` entries).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The column index array (`nnz` entries).
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// The stored values (`nnz` entries).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Column indices and values of row `r` as parallel slices.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> (&[usize], &[f64]) {
        let start = self.row_ptr[r];
        let end = self.row_ptr[r + 1];
        (&self.col_idx[start..end], &self.values[start..end])
    }

    /// Number of stored entries in row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_nnz(&self, r: usize) -> usize {
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// Value at `(row, col)`, or `0.0` when the entry is not stored.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        if row >= self.rows || col >= self.cols {
            return 0.0;
        }
        let (cols_in_row, vals) = self.row(row);
        match cols_in_row.binary_search(&col) {
            Ok(pos) => vals[pos],
            Err(_) => 0.0,
        }
    }

    /// Iterates over all stored entries as `(row, col, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter().zip(vals.iter()).map(move |(&c, &v)| (r, c, v))
        })
    }

    /// Converts to coordinate format.
    pub fn to_coo(&self) -> CooMatrix {
        CooMatrix::from_triplets(self.rows, self.cols, self.iter().collect())
            .expect("CSR entries are always in bounds")
    }

    /// Converts to compressed sparse column format (one counting
    /// transpose, O(nnz + cols)).
    pub fn to_csc(&self) -> CscMatrix {
        let (col_ptr, row_idx, values) =
            counting_transpose(&self.row_ptr, &self.col_idx, &self.values, self.cols);
        CscMatrix::from_raw_parts(self.rows, self.cols, col_ptr, row_idx, values)
            .expect("transposing a valid CSR yields a structurally valid CSC")
    }

    /// Converts to a dense matrix.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut dense = DenseMatrix::zeros(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            *dense.get_mut(r, c) = v;
        }
        dense
    }

    /// Multiplies every stored value by `scale` in place.
    pub fn scale(&mut self, scale: f64) {
        for v in &mut self.values {
            *v *= scale;
        }
    }

    /// Row-normalises the matrix (each row sums to 1), the normalisation GCN
    /// applies to the adjacency matrix.  Rows whose sum is zero are left
    /// untouched.
    pub fn row_normalize(&mut self) {
        for r in 0..self.rows {
            let start = self.row_ptr[r];
            let end = self.row_ptr[r + 1];
            let sum: f64 = self.values[start..end].iter().sum();
            if sum != 0.0 {
                for v in &mut self.values[start..end] {
                    *v /= sum;
                }
            }
        }
    }
}

/// Re-compresses a compressed matrix along its other dimension: `ptr` /
/// `idx` / `values` are CSR (or CSC) arrays whose indices are `< minor`; the
/// result is the CSC (or CSR) arrays of the same entries.  Counts each minor
/// index, prefix-sums, then scatters in major order, so the indices inside
/// every output slice come out ascending without a sort.
pub(crate) fn counting_transpose(
    ptr: &[usize],
    idx: &[usize],
    values: &[f64],
    minor: usize,
) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
    let mut out_ptr = vec![0usize; minor + 1];
    for &m in idx {
        out_ptr[m + 1] += 1;
    }
    for m in 0..minor {
        out_ptr[m + 1] += out_ptr[m];
    }
    let mut next = out_ptr.clone();
    let mut out_idx = vec![0usize; idx.len()];
    let mut out_values = vec![0.0f64; idx.len()];
    for (major, w) in ptr.windows(2).enumerate() {
        for (&m, &v) in idx[w[0]..w[1]].iter().zip(&values[w[0]..w[1]]) {
            out_idx[next[m]] = major;
            out_values[next[m]] = v;
            next[m] += 1;
        }
    }
    (out_ptr, out_idx, out_values)
}

impl From<CooMatrix> for CsrMatrix {
    fn from(coo: CooMatrix) -> Self {
        coo.to_csr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        // [1 0 2]
        // [0 0 3]
        // [4 5 0]
        CsrMatrix::from_raw_parts(
            3,
            3,
            vec![0, 2, 3, 5],
            vec![0, 2, 2, 0, 1],
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
        )
        .unwrap()
    }

    #[test]
    fn from_raw_parts_validates_row_ptr_len() {
        let err = CsrMatrix::from_raw_parts(2, 2, vec![0, 1], vec![0], vec![1.0]);
        assert!(matches!(err, Err(SparseError::MalformedPointers { .. })));
    }

    #[test]
    fn from_raw_parts_validates_monotonicity() {
        let err = CsrMatrix::from_raw_parts(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]);
        assert!(matches!(err, Err(SparseError::MalformedPointers { .. })));
    }

    #[test]
    fn from_raw_parts_validates_terminator() {
        let err = CsrMatrix::from_raw_parts(1, 2, vec![0, 5], vec![0], vec![1.0]);
        assert!(matches!(err, Err(SparseError::MalformedPointers { .. })));
    }

    #[test]
    fn from_raw_parts_validates_column_bounds() {
        let err = CsrMatrix::from_raw_parts(1, 2, vec![0, 1], vec![7], vec![1.0]);
        assert!(matches!(err, Err(SparseError::IndexOutOfBounds { .. })));
    }

    #[test]
    fn from_raw_parts_reports_the_unsorted_pair_before_the_out_of_range_column() {
        // Row 1 holds column 9 of a 4-column matrix before its unsorted
        // pair (9, 1): the unsorted pair is the error.
        let err = CsrMatrix::from_raw_parts(2, 4, vec![0, 1, 4], vec![0, 3, 9, 1], vec![1.0; 4]);
        let err = err.unwrap_err().to_string();
        assert!(err.contains("row 1 has unsorted or duplicate column indices"), "{err}");
        // An earlier row's out-of-range column wins over a later row's pair.
        let err = CsrMatrix::from_raw_parts(2, 4, vec![0, 1, 3], vec![7, 2, 1], vec![1.0; 3]);
        assert!(matches!(err, Err(SparseError::IndexOutOfBounds { row: 0, col: 7, .. })));
        // An ascending row with two columns out of range names the first.
        let err = CsrMatrix::from_raw_parts(1, 4, vec![0, 3], vec![1, 5, 9], vec![1.0; 3]);
        assert!(matches!(err, Err(SparseError::IndexOutOfBounds { row: 0, col: 5, .. })));
    }

    #[test]
    fn from_raw_parts_rejects_unsorted_columns() {
        let err = CsrMatrix::from_raw_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]);
        assert!(matches!(err, Err(SparseError::MalformedPointers { .. })));
    }

    #[test]
    fn get_returns_stored_and_zero_entries() {
        let m = sample();
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(2, 1), 5.0);
        assert_eq!(m.get(9, 9), 0.0);
    }

    #[test]
    fn row_access_and_nnz() {
        let m = sample();
        assert_eq!(m.row(0), (&[0usize, 2][..], &[1.0, 2.0][..]));
        assert_eq!(m.row_nnz(1), 1);
        assert_eq!(m.nnz(), 5);
    }

    #[test]
    fn identity_is_diagonal() {
        let id = CsrMatrix::identity(4);
        assert_eq!(id.nnz(), 4);
        for i in 0..4 {
            assert_eq!(id.get(i, i), 1.0);
        }
    }

    #[test]
    fn row_normalize_makes_rows_sum_to_one() {
        let mut m = sample();
        m.row_normalize();
        for r in 0..m.rows() {
            let (_, vals) = m.row(r);
            let sum: f64 = vals.iter().sum();
            if !vals.is_empty() {
                assert!((sum - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn sparsity_matches_definition() {
        let m = sample();
        assert!((m.sparsity() - (1.0 - 5.0 / 9.0)).abs() < 1e-12);
    }

    #[test]
    fn csc_conversion_round_trips() {
        let m = sample();
        let csc = m.to_csc();
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(m.get(r, c), csc.get(r, c));
            }
        }
    }

    #[test]
    fn scale_multiplies_all_values() {
        let mut m = sample();
        m.scale(2.0);
        assert_eq!(m.get(2, 1), 10.0);
    }
}
