//! Sparse × dense multiplication (SpMM) and GCN layer reference math.
//!
//! The GCN combination stage multiplies the (sparse) aggregated features by
//! the dense weight matrix; the aggregation stage itself is `A × X` where `X`
//! is dense.  These reference kernels provide the ground truth against which
//! the accelerator model's functional output is verified.

use crate::{CsrMatrix, DenseMatrix, Result, SparseError};

/// Computes the dense product `C = A × X` where `A` is sparse and `X` dense.
///
/// # Errors
///
/// Returns [`SparseError::ShapeMismatch`] when `a.cols() != x.rows()`.
pub fn spmm(a: &CsrMatrix, x: &DenseMatrix) -> Result<DenseMatrix> {
    if a.cols() != x.rows() {
        return Err(SparseError::ShapeMismatch {
            left: (a.rows(), a.cols()),
            right: (x.rows(), x.cols()),
        });
    }
    let mut out = DenseMatrix::zeros(a.rows(), x.cols());
    for i in 0..a.rows() {
        let (cols, vals) = a.row(i);
        for (&k, &a_ik) in cols.iter().zip(vals.iter()) {
            let x_row = x.row(k);
            for (j, &x_kj) in x_row.iter().enumerate() {
                *out.get_mut(i, j) += a_ik * x_kj;
            }
        }
    }
    Ok(out)
}

/// Reference forward pass of a single GCN layer: `relu(A · X · W)` (Eq. 2).
///
/// # Errors
///
/// Returns [`SparseError::ShapeMismatch`] when the dimensions are inconsistent.
pub fn gcn_layer(a: &CsrMatrix, x: &DenseMatrix, w: &DenseMatrix) -> Result<DenseMatrix> {
    let aggregated = spmm(a, x)?;
    let mut combined = aggregated.matmul(w)?;
    combined.relu();
    Ok(combined)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GraphGenerator;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_dense(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<f64> = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
        DenseMatrix::from_vec(rows, cols, data).unwrap()
    }

    #[test]
    fn spmm_matches_dense_reference() {
        let a = GraphGenerator::erdos_renyi(30, 0.15, 42).generate().to_csr();
        let x = random_dense(30, 8, 1);
        let got = spmm(&a, &x).unwrap();
        let expected = a.to_dense().matmul(&x).unwrap();
        assert!(got.max_abs_diff(&expected).unwrap() < 1e-9);
    }

    #[test]
    fn spmm_rejects_shape_mismatch() {
        let a = CsrMatrix::identity(4);
        let x = DenseMatrix::zeros(5, 3);
        assert!(matches!(spmm(&a, &x), Err(SparseError::ShapeMismatch { .. })));
    }

    #[test]
    fn gcn_layer_applies_relu() {
        let a = CsrMatrix::identity(3);
        let x = DenseMatrix::from_rows(&[&[1.0, -1.0], &[2.0, -2.0], &[0.5, -0.5]]).unwrap();
        let w = DenseMatrix::identity(2);
        let out = gcn_layer(&a, &x, &w).unwrap();
        // Negative entries clamp to zero.
        assert_eq!(out.get(0, 1), 0.0);
        assert_eq!(out.get(1, 0), 2.0);
    }
}
