//! Structural workload summaries consumed by the analytical platform models.

use neura_sparse::spgemm::{self, SpgemmStats};
use neura_sparse::{stats, CsrMatrix};
use serde::{Deserialize, Serialize};

/// Structural summary of one SpGEMM (or GCN aggregation) workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadProfile {
    /// Human-readable workload name (dataset name).
    pub name: String,
    /// Rows of the left operand (graph node count).
    pub rows: usize,
    /// Non-zeros of the left operand (graph edge count).
    pub nnz_a: usize,
    /// Non-zeros of the right operand.
    pub nnz_b: usize,
    /// Intermediate partial products of the multiplication.
    pub partial_products: u64,
    /// Non-zeros of the output matrix.
    pub output_nnz: u64,
    /// Memory bloat percent (Equation 1).
    pub bloat_percent: f64,
    /// Coefficient of variation of the row-degree distribution (imbalance).
    pub row_cv: f64,
    /// Average reduction fan-in (partial products per output element).
    pub avg_fanin: f64,
    /// Sparsity of the left operand in percent.
    pub sparsity_percent: f64,
}

impl WorkloadProfile {
    /// The profile of `a` multiplied into a right operand of `nnz_b` stored
    /// elements, given the product's operation counts.
    fn from_counts(name: &str, a: &CsrMatrix, nnz_b: usize, counts: &SpgemmStats) -> Self {
        WorkloadProfile {
            name: name.to_string(),
            rows: a.rows(),
            nnz_a: a.nnz(),
            nnz_b,
            partial_products: counts.multiplications,
            output_nnz: counts.output_nnz as u64,
            bloat_percent: counts.bloat_percent(),
            row_cv: stats::degree_stats(a).coefficient_of_variation,
            avg_fanin: counts.average_fanin(),
            sparsity_percent: a.sparsity() * 100.0,
        }
    }

    /// Builds the profile of the self-product `A × A` (the Table 1 / Figure 16
    /// configuration).
    pub fn from_square(name: &str, a: &CsrMatrix) -> Self {
        Self::from_counts(name, a, a.nnz(), &spgemm::count_products(a, a))
    }

    /// Builds the profile of a GCN aggregation `A × X` with `feature_dim`
    /// dense feature columns (every row of `X` is fully populated, and the
    /// output is counted as dense: every row of `A` times `feature_dim`).
    pub fn from_aggregation(name: &str, a: &CsrMatrix, feature_dim: usize) -> Self {
        let counts = SpgemmStats {
            multiplications: a.nnz() as u64 * feature_dim as u64,
            output_nnz: a.rows() * feature_dim,
            ..SpgemmStats::default()
        };
        Self::from_counts(name, a, a.cols() * feature_dim, &counts)
    }

    /// Floating-point operations of the multiplication (one multiply and one
    /// add per partial product).
    pub(crate) fn flops(&self) -> u64 {
        2 * self.partial_products
    }

    /// Bytes of compulsory input traffic (values + indices of both operands).
    pub(crate) fn input_bytes(&self) -> u64 {
        12 * (self.nnz_a as u64 + self.nnz_b as u64)
    }

    /// Bytes of compulsory output traffic.
    pub(crate) fn output_bytes(&self) -> u64 {
        12 * self.output_nnz
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neura_sparse::gen::GraphGenerator;

    fn graph() -> CsrMatrix {
        GraphGenerator::power_law(300, 2_000, 2.1, 9).generate().to_csr()
    }

    #[test]
    fn square_profile_is_consistent_with_bloat_analysis() {
        let a = graph();
        let p = WorkloadProfile::from_square("test", &a);
        let (_, numeric) = spgemm::multiply_counting(&a, &a);
        assert_eq!(p.partial_products, numeric.multiplications);
        assert_eq!(p.output_nnz, numeric.output_nnz as u64);
        assert!((p.bloat_percent - numeric.bloat_percent()).abs() < 1e-9);
        assert_eq!(p.flops(), 2 * p.partial_products);
    }

    #[test]
    fn profile_records_input_statistics() {
        let a = GraphGenerator::erdos_renyi(100, 0.05, 13).generate().to_csr();
        let p = WorkloadProfile::from_square("t", &a);
        assert_eq!(p.rows, 100);
        assert_eq!(p.nnz_a, a.nnz());
        assert!(p.sparsity_percent > 90.0);
    }

    #[test]
    fn aggregation_profile_scales_with_feature_dim() {
        let a = graph();
        let p16 = WorkloadProfile::from_aggregation("agg16", &a, 16);
        let p32 = WorkloadProfile::from_aggregation("agg32", &a, 32);
        assert_eq!(p16.partial_products * 2, p32.partial_products);
        assert_eq!(p16.output_nnz, a.rows() as u64 * 16);
        assert!(p16.avg_fanin > 0.0);
    }

    #[test]
    fn traffic_estimates_are_ordered() {
        let a = graph();
        let p = WorkloadProfile::from_square("t", &a);
        assert!(p.output_bytes() > 0);
        assert!(p.input_bytes() > 0);
    }
}
