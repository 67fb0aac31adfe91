//! Coordinate-list (COO / triplet) sparse matrix.
//!
//! COO is the natural construction format: graph generators and dataset
//! loaders emit `(row, col, value)` triplets which are then converted to the
//! compressed formats ([`CsrMatrix`] / [`CscMatrix`]) that the NeuraChip
//! compiler consumes.

use crate::{CscMatrix, CsrMatrix, DenseMatrix, Result, SparseError};
use serde::{Deserialize, Serialize};

/// A sparse matrix in coordinate (triplet) format.
///
/// Duplicate coordinates are allowed while building; they are summed when
/// converting to CSR/CSC/dense, mirroring the semantics of standard sparse
/// assembly routines.
///
/// # Examples
///
/// ```
/// use neura_sparse::CooMatrix;
///
/// let mut m = CooMatrix::new(2, 3);
/// m.push(0, 1, 2.0).unwrap();
/// m.push(1, 2, -1.0).unwrap();
/// let csr = m.to_csr();
/// assert_eq!(csr.nnz(), 2);
/// assert_eq!(csr.get(0, 1), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl CooMatrix {
    /// Creates an empty COO matrix with the given shape.
    pub fn new(rows: usize, cols: usize) -> Self {
        CooMatrix { rows, cols, entries: Vec::new() }
    }

    /// Creates a COO matrix from pre-assembled triplets.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::IndexOutOfBounds`] if any triplet lies outside
    /// the declared shape.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: Vec<(usize, usize, f64)>,
    ) -> Result<Self> {
        for &(r, c, _) in &triplets {
            if r >= rows || c >= cols {
                return Err(SparseError::IndexOutOfBounds { row: r, col: c, rows, cols });
            }
        }
        Ok(CooMatrix { rows, cols, entries: triplets })
    }

    /// Appends a single entry.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::IndexOutOfBounds`] if the coordinate lies
    /// outside the matrix shape.
    pub fn push(&mut self, row: usize, col: usize, value: f64) -> Result<()> {
        if row >= self.rows || col >= self.cols {
            return Err(SparseError::IndexOutOfBounds {
                row,
                col,
                rows: self.rows,
                cols: self.cols,
            });
        }
        self.entries.push((row, col, value));
        Ok(())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored triplets (duplicates counted individually).
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no triplets are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over the stored `(row, col, value)` triplets.
    pub fn iter(&self) -> impl Iterator<Item = &(usize, usize, f64)> {
        self.entries.iter()
    }

    /// Sorts entries row-major and sums duplicate coordinates in place.
    pub(crate) fn dedup(&mut self) {
        self.entries.sort_unstable_by_key(|a| (a.0, a.1));
        // `dedup_by` hands over (current, kept): fold each duplicate into
        // the kept entry, in sorted order.
        self.entries.dedup_by(|cur, kept| {
            let same = (kept.0, kept.1) == (cur.0, cur.1);
            if same {
                kept.2 += cur.2;
            }
            same
        });
    }

    /// Converts to compressed sparse row format, summing duplicates.
    pub fn to_csr(&self) -> CsrMatrix {
        let mut sorted = self.clone();
        sorted.dedup();
        let (row_ptr, col_idx, values) = sorted.compress(self.rows, |&(r, c, _)| (r, c));
        CsrMatrix::from_raw_parts(self.rows, self.cols, row_ptr, col_idx, values)
            .expect("COO conversion always builds a structurally valid CSR")
    }

    /// Converts to compressed sparse column format, summing duplicates.
    pub fn to_csc(&self) -> CscMatrix {
        let mut sorted = self.clone();
        sorted.dedup();
        // Re-sort column-major.
        sorted.entries.sort_unstable_by_key(|a| (a.1, a.0));
        let (col_ptr, row_idx, values) = sorted.compress(self.cols, |&(r, c, _)| (c, r));
        CscMatrix::from_raw_parts(self.rows, self.cols, col_ptr, row_idx, values)
            .expect("COO conversion always builds a structurally valid CSC")
    }

    /// Pointer / index / value arrays of entries already sorted and merged
    /// along `axes`' first (major, `< major_dim`) then second (minor) coordinate.
    fn compress(
        &self,
        major_dim: usize,
        axes: impl Fn(&(usize, usize, f64)) -> (usize, usize),
    ) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
        let mut ptr = vec![0usize; major_dim + 1];
        for entry in &self.entries {
            ptr[axes(entry).0 + 1] += 1;
        }
        for i in 0..major_dim {
            ptr[i + 1] += ptr[i];
        }
        let (idx, values) = self.entries.iter().map(|entry| (axes(entry).1, entry.2)).unzip();
        (ptr, idx, values)
    }

    /// Converts to a dense matrix, summing duplicates.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut dense = DenseMatrix::zeros(self.rows, self.cols);
        for &(r, c, v) in &self.entries {
            *dense.get_mut(r, c) += v;
        }
        dense
    }

    /// Fraction of entries that are zero (sparsity), expressed in `[0, 1]`.
    ///
    /// Duplicate coordinates are merged before counting so the result matches
    /// the compressed representations.
    pub fn sparsity(&self) -> f64 {
        let total = (self.rows * self.cols) as f64;
        if total == 0.0 {
            return 0.0;
        }
        let mut unique = self.clone();
        unique.dedup();
        1.0 - unique.nnz() as f64 / total
    }
}

impl FromIterator<(usize, usize, f64)> for CooMatrix {
    /// Builds a matrix whose shape is the tight bounding box of the triplets.
    fn from_iter<I: IntoIterator<Item = (usize, usize, f64)>>(iter: I) -> Self {
        let entries: Vec<(usize, usize, f64)> = iter.into_iter().collect();
        let rows = entries.iter().map(|&(r, _, _)| r + 1).max().unwrap_or(0);
        let cols = entries.iter().map(|&(_, c, _)| c + 1).max().unwrap_or(0);
        CooMatrix { rows, cols, entries }
    }
}

impl Extend<(usize, usize, f64)> for CooMatrix {
    fn extend<I: IntoIterator<Item = (usize, usize, f64)>>(&mut self, iter: I) {
        for (r, c, v) in iter {
            self.push(r, c, v).expect("extended entry must lie inside the matrix shape");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CooMatrix {
        let mut m = CooMatrix::new(3, 4);
        m.push(0, 0, 1.0).unwrap();
        m.push(0, 3, 2.0).unwrap();
        m.push(1, 1, 3.0).unwrap();
        m.push(2, 2, 4.0).unwrap();
        m
    }

    #[test]
    fn push_rejects_out_of_bounds() {
        let mut m = CooMatrix::new(2, 2);
        assert!(matches!(m.push(2, 0, 1.0), Err(SparseError::IndexOutOfBounds { .. })));
        assert!(matches!(m.push(0, 2, 1.0), Err(SparseError::IndexOutOfBounds { .. })));
    }

    #[test]
    fn from_triplets_validates() {
        let err = CooMatrix::from_triplets(1, 1, vec![(0, 5, 1.0)]);
        assert!(err.is_err());
        let ok = CooMatrix::from_triplets(2, 2, vec![(0, 0, 1.0), (1, 1, 2.0)]).unwrap();
        assert_eq!(ok.nnz(), 2);
    }

    #[test]
    fn dedup_sums_duplicates() {
        let mut m = CooMatrix::new(2, 2);
        m.push(0, 0, 1.5).unwrap();
        m.push(0, 0, 2.5).unwrap();
        m.push(1, 1, 1.0).unwrap();
        m.dedup();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.to_dense().get(0, 0), 4.0);
    }

    #[test]
    fn csr_round_trip_preserves_values() {
        let m = sample();
        let csr = m.to_csr();
        let dense = m.to_dense();
        for r in 0..3 {
            for c in 0..4 {
                assert_eq!(csr.get(r, c), dense.get(r, c), "mismatch at ({r},{c})");
            }
        }
    }

    #[test]
    fn csc_round_trip_preserves_values() {
        let m = sample();
        let csc = m.to_csc();
        let dense = m.to_dense();
        for r in 0..3 {
            for c in 0..4 {
                assert_eq!(csc.get(r, c), dense.get(r, c), "mismatch at ({r},{c})");
            }
        }
    }

    #[test]
    fn sparsity_counts_unique_coordinates() {
        let mut m = CooMatrix::new(2, 2);
        m.push(0, 0, 1.0).unwrap();
        m.push(0, 0, 1.0).unwrap();
        assert!((m.sparsity() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn from_iterator_infers_shape() {
        let m: CooMatrix = vec![(0, 0, 1.0), (4, 2, 2.0)].into_iter().collect();
        assert_eq!(m.rows(), 5);
        assert_eq!(m.cols(), 3);
    }

    #[test]
    fn empty_matrix_behaves() {
        let m = CooMatrix::new(0, 0);
        assert!(m.is_empty());
        assert_eq!(m.sparsity(), 0.0);
        assert_eq!(m.to_csr().nnz(), 0);
    }
}
