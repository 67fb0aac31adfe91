//! Row-major dense matrix used for GCN feature/weight matrices and as the
//! ground-truth target of the sparse kernels' correctness checks.

use crate::{CooMatrix, Result, SparseError};
use serde::{Deserialize, Serialize};

/// A row-major dense matrix of `f64` values.
///
/// # Examples
///
/// ```
/// use neura_sparse::DenseMatrix;
///
/// let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
/// let b = DenseMatrix::identity(2);
/// let c = a.matmul(&b).unwrap();
/// assert_eq!(c, a);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates an identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            *m.get_mut(i, i) = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::LengthMismatch`] when `data.len() != rows * cols`.
    pub(crate) fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(SparseError::LengthMismatch { indices: rows * cols, values: data.len() });
        }
        Ok(DenseMatrix { rows, cols, data })
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::LengthMismatch`] when rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for row in rows {
            if row.len() != ncols {
                return Err(SparseError::LengthMismatch { indices: ncols, values: row.len() });
            }
            data.extend_from_slice(row);
        }
        Ok(DenseMatrix { rows: nrows, cols: ncols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Value at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "({row},{col}) out of bounds");
        self.data[row * self.cols + col]
    }

    /// Mutable reference to the value at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    pub fn get_mut(&mut self, row: usize, col: usize) -> &mut f64 {
        assert!(row < self.rows && col < self.cols, "({row},{col}) out of bounds");
        &mut self.data[row * self.cols + col]
    }

    /// Row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Dense matrix multiplication `self × rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ShapeMismatch`] when the inner dimensions differ.
    pub fn matmul(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        if self.cols != rhs.rows {
            return Err(SparseError::ShapeMismatch {
                left: (self.rows, self.cols),
                right: (rhs.rows, rhs.cols),
            });
        }
        let mut out = DenseMatrix::zeros(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    *out.get_mut(i, j) += a * rhs.get(k, j);
                }
            }
        }
        Ok(out)
    }

    /// Applies the ReLU non-linearity in place (used by the GCN layer model).
    pub fn relu(&mut self) {
        for v in &mut self.data {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
    }

    /// Element-wise maximum absolute difference against another matrix.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::ShapeMismatch`] when shapes differ.
    pub fn max_abs_diff(&self, other: &DenseMatrix) -> Result<f64> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(SparseError::ShapeMismatch {
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        Ok(self.data.iter().zip(other.data.iter()).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max))
    }

    /// Converts the dense matrix to COO, dropping exact zeros.
    pub fn to_coo(&self) -> CooMatrix {
        let mut coo = CooMatrix::new(self.rows, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                let v = self.get(r, c);
                if v != 0.0 {
                    coo.push(r, c, v).expect("in-bounds by construction");
                }
            }
        }
        coo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_validates_length() {
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
        assert!(err.is_err());
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = DenseMatrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.get(0, 0), 19.0);
        assert_eq!(c.get(0, 1), 22.0);
        assert_eq!(c.get(1, 0), 43.0);
        assert_eq!(c.get(1, 1), 50.0);
    }

    #[test]
    fn matmul_rejects_shape_mismatch() {
        let a = DenseMatrix::zeros(2, 3);
        let b = DenseMatrix::zeros(2, 3);
        assert!(matches!(a.matmul(&b), Err(SparseError::ShapeMismatch { .. })));
    }

    #[test]
    fn identity_is_neutral_element() {
        let a = DenseMatrix::from_rows(&[&[1.0, -2.0, 0.5], &[0.0, 3.0, 4.0]]).unwrap();
        let id = DenseMatrix::identity(3);
        assert_eq!(a.matmul(&id).unwrap(), a);
    }

    #[test]
    fn relu_clamps_negatives() {
        let mut a = DenseMatrix::from_rows(&[&[-1.0, 2.0], &[0.0, -3.5]]).unwrap();
        a.relu();
        assert_eq!(a.get(0, 0), 0.0);
        assert_eq!(a.get(0, 1), 2.0);
        assert_eq!(a.get(1, 1), 0.0);
    }

    #[test]
    fn max_abs_diff_detects_divergence() {
        let a = DenseMatrix::zeros(2, 2);
        let mut b = DenseMatrix::zeros(2, 2);
        *b.get_mut(1, 1) = 0.25;
        assert_eq!(a.max_abs_diff(&b).unwrap(), 0.25);
    }

    #[test]
    fn to_coo_drops_zeros() {
        let mut a = DenseMatrix::zeros(2, 2);
        *a.get_mut(0, 1) = 5.0;
        let coo = a.to_coo();
        assert_eq!(coo.nnz(), 1);
    }
}
