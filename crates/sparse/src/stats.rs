//! Structural statistics of sparse matrices.
//!
//! The load-balance analysis in the paper (Figures 12/13) hinges on how
//! unevenly non-zeros — and therefore partial products — are distributed
//! across rows and columns.  These helpers quantify that structure.

use crate::CsrMatrix;
use serde::{Deserialize, Serialize};

/// Summary statistics of the per-row non-zero distribution of a matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegreeStats {
    /// Minimum row nnz.
    pub min: usize,
    /// Maximum row nnz.
    pub max: usize,
    /// Mean row nnz.
    pub mean: f64,
    /// Standard deviation of row nnz.
    pub std_dev: f64,
    /// Coefficient of variation (`std_dev / mean`), the primary imbalance metric.
    pub coefficient_of_variation: f64,
    /// Number of rows with zero stored entries.
    pub empty_rows: usize,
}

/// Computes per-row degree statistics.
pub fn degree_stats(m: &CsrMatrix) -> DegreeStats {
    let degrees: Vec<usize> = (0..m.rows()).map(|r| m.row_nnz(r)).collect();
    summarize(&degrees)
}

fn summarize(degrees: &[usize]) -> DegreeStats {
    if degrees.is_empty() {
        return DegreeStats {
            min: 0,
            max: 0,
            mean: 0.0,
            std_dev: 0.0,
            coefficient_of_variation: 0.0,
            empty_rows: 0,
        };
    }
    let min = *degrees.iter().min().expect("non-empty");
    let max = *degrees.iter().max().expect("non-empty");
    let mean = degrees.iter().sum::<usize>() as f64 / degrees.len() as f64;
    let var =
        degrees.iter().map(|&d| (d as f64 - mean).powi(2)).sum::<f64>() / degrees.len() as f64;
    let std_dev = var.sqrt();
    DegreeStats {
        min,
        max,
        mean,
        std_dev,
        coefficient_of_variation: if mean > 0.0 { std_dev / mean } else { 0.0 },
        empty_rows: degrees.iter().filter(|&&d| d == 0).count(),
    }
}

/// Measures how evenly a workload histogram is spread over bins.
///
/// Returns a pair `(max_over_mean, coefficient_of_variation)`: a perfectly
/// uniform distribution yields `(1.0, 0.0)`; hot spots inflate both values.
/// This is the metric used to summarise the Figure 12/13 heat maps.
pub fn imbalance(histogram: &[u64]) -> (f64, f64) {
    if histogram.is_empty() {
        return (0.0, 0.0);
    }
    let total: u64 = histogram.iter().sum();
    if total == 0 {
        return (0.0, 0.0);
    }
    let mean = total as f64 / histogram.len() as f64;
    let max = *histogram.iter().max().expect("non-empty") as f64;
    let var =
        histogram.iter().map(|&h| (h as f64 - mean).powi(2)).sum::<f64>() / histogram.len() as f64;
    (max / mean, var.sqrt() / mean)
}

/// Gini coefficient of a workload histogram in `[0, 1]`; 0 is perfectly
/// balanced, values near 1 indicate that a few bins hold nearly all work.
pub fn gini(histogram: &[u64]) -> f64 {
    if histogram.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = histogram.iter().map(|&h| h as f64).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in counts"));
    let n = sorted.len() as f64;
    let sum: f64 = sorted.iter().sum();
    if sum == 0.0 {
        return 0.0;
    }
    let weighted: f64 = sorted.iter().enumerate().map(|(i, &x)| (i as f64 + 1.0) * x).sum();
    (2.0 * weighted) / (n * sum) - (n + 1.0) / n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GraphGenerator;

    #[test]
    fn degree_stats_of_identity() {
        let id = CsrMatrix::identity(10);
        let s = degree_stats(&id);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1);
        assert_eq!(s.mean, 1.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.empty_rows, 0);
    }

    #[test]
    fn power_law_graphs_are_more_skewed_than_uniform() {
        let pl = GraphGenerator::power_law(400, 3000, 2.0, 1).generate().to_csr();
        let er = GraphGenerator::erdos_renyi(400, 3000.0 / (400.0 * 400.0), 1).generate().to_csr();
        let pl_cv = degree_stats(&pl).coefficient_of_variation;
        let er_cv = degree_stats(&er).coefficient_of_variation;
        assert!(pl_cv > er_cv, "power-law CV {pl_cv} should exceed ER CV {er_cv}");
    }

    #[test]
    fn imbalance_of_uniform_histogram_is_one() {
        let (max_over_mean, cv) = imbalance(&[5, 5, 5, 5]);
        assert_eq!(max_over_mean, 1.0);
        assert_eq!(cv, 0.0);
    }

    #[test]
    fn imbalance_detects_hot_spot() {
        let (max_over_mean, cv) = imbalance(&[100, 0, 0, 0]);
        assert_eq!(max_over_mean, 4.0);
        assert!(cv > 1.0);
    }

    #[test]
    fn gini_bounds() {
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[7, 7, 7, 7]), 0.0);
        let concentrated = gini(&[0, 0, 0, 1000]);
        assert!(concentrated > 0.7);
        assert!(concentrated <= 1.0);
    }
}
