//! GCN layer execution on NeuraChip (aggregation + combination).
//!
//! A GCN layer computes `X' = ReLU(A · X · W)` (Equation 2).  The aggregation
//! (`A · X`, sparse × dense) dominates and is executed on the cycle-level
//! accelerator model; the combination (`(A·X) · W`, dense × dense) is charged
//! with a roofline estimate derived from the chip's peak compute and memory
//! bandwidth, reflecting the paper's observation that NeuraChip handles the
//! dense stage with the same NeuraCore/NeuraMem resources.

use crate::accelerator::{Accelerator, ChipError, ExecutionReport};
use crate::config::ChipConfig;
use neura_sparse::{CsrMatrix, DenseMatrix, SparseError};
use serde::{Deserialize, Serialize};

/// Cycle/time breakdown of one GCN layer executed on NeuraChip.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GcnLayerBreakdown {
    /// Cycles spent in the aggregation (sparse) stage.
    pub aggregation_cycles: u64,
    /// Cycles charged to the combination (dense) stage.
    pub combination_cycles: u64,
    /// End-to-end seconds at the configured frequency.
    pub total_seconds: f64,
    /// Achieved throughput over the whole layer in GOP/s.
    pub gops: f64,
    /// Floating point operations in the aggregation stage.
    pub aggregation_flops: u64,
    /// Floating point operations in the combination stage.
    pub combination_flops: u64,
}

/// Result of running a GCN layer on the accelerator.
#[derive(Debug, Clone)]
pub struct GcnRun {
    /// The layer output `ReLU(A · X · W)`.
    pub output: DenseMatrix,
    /// Detailed report of the simulated aggregation stage.
    pub aggregation_report: ExecutionReport,
    /// Cycle/time breakdown across both stages.
    pub breakdown: GcnLayerBreakdown,
}

/// Estimates the cycles the combination GEMM takes on the given configuration:
/// the maximum of its compute-bound and memory-bound times (roofline).
pub(crate) fn combination_cycles(
    config: &ChipConfig,
    rows: usize,
    in_features: usize,
    out_features: usize,
) -> u64 {
    let flops = 2.0 * rows as f64 * in_features as f64 * out_features as f64;
    let peak_flops_per_cycle = config.peak_gflops() / config.frequency_ghz; // flops per cycle
    let compute_cycles = flops / peak_flops_per_cycle.max(1.0);
    // Memory traffic: read X (rows×in) and W (in×out), write output (rows×out), 8 bytes each.
    let bytes = 8.0
        * (rows as f64 * in_features as f64
            + in_features as f64 * out_features as f64
            + rows as f64 * out_features as f64);
    let bytes_per_cycle = config.peak_bandwidth_gbps() / config.frequency_ghz;
    let memory_cycles = bytes / bytes_per_cycle.max(1.0);
    compute_cycles.max(memory_cycles).ceil() as u64
}

/// Runs one GCN layer `ReLU(A · X · W)` on the accelerator.
///
/// # Errors
///
/// Returns [`ChipError::Shape`] on dimension mismatches and propagates
/// simulation failures from the aggregation stage.
pub fn run_gcn_layer(
    accelerator: &mut Accelerator,
    adjacency: &CsrMatrix,
    features: &DenseMatrix,
    weights: &DenseMatrix,
) -> Result<GcnRun, ChipError> {
    if features.cols() != weights.rows() {
        return Err(ChipError::Shape(SparseError::ShapeMismatch {
            left: (features.rows(), features.cols()),
            right: (weights.rows(), weights.cols()),
        }));
    }
    let aggregation = accelerator.run_aggregation(adjacency, features)?;
    let mut combined = aggregation.aggregated.matmul(weights).map_err(ChipError::Shape)?;
    combined.relu();

    let config = accelerator.config().clone();
    let combo_cycles =
        combination_cycles(&config, adjacency.rows(), features.cols(), weights.cols());
    let aggregation_flops = 2 * adjacency.nnz() as u64 * features.cols() as u64;
    let combination_flops =
        2 * adjacency.rows() as u64 * features.cols() as u64 * weights.cols() as u64;
    let total_cycles = aggregation.report.total_cycles + combo_cycles;
    let total_seconds = total_cycles as f64 / (config.frequency_ghz * 1e9);
    let gops = if total_seconds > 0.0 {
        (aggregation_flops + combination_flops) as f64 / total_seconds / 1e9
    } else {
        0.0
    };

    Ok(GcnRun {
        output: combined,
        breakdown: GcnLayerBreakdown {
            aggregation_cycles: aggregation.report.total_cycles,
            combination_cycles: combo_cycles,
            total_seconds,
            gops,
            aggregation_flops,
            combination_flops,
        },
        aggregation_report: aggregation.report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChipConfig;
    use neura_sparse::gen::{feature_matrix, weight_matrix, GraphGenerator};
    use neura_sparse::spmm;

    fn small_layer() -> (CsrMatrix, DenseMatrix, DenseMatrix) {
        let mut a = GraphGenerator::power_law(40, 200, 2.1, 3).generate().to_csr();
        a.row_normalize();
        let x = feature_matrix(40, 6, 1);
        let w = weight_matrix(6, 4, 2);
        (a, x, w)
    }

    #[test]
    fn gcn_layer_matches_reference() {
        let (a, x, w) = small_layer();
        let mut chip = Accelerator::new(ChipConfig::tile_4());
        let run = run_gcn_layer(&mut chip, &a, &x, &w).expect("layer runs");
        let reference = spmm::gcn_layer(&a, &x, &w).unwrap();
        assert!(run.output.max_abs_diff(&reference).unwrap() < 1e-9);
        assert!(run.breakdown.aggregation_cycles > 0);
        assert!(run.breakdown.combination_cycles > 0);
        assert!(run.breakdown.gops > 0.0);
    }

    #[test]
    fn weight_shape_mismatch_is_rejected() {
        let (a, x, _) = small_layer();
        let bad_w = weight_matrix(5, 4, 2); // in_features should be 6
        let mut chip = Accelerator::new(ChipConfig::tile_4());
        assert!(matches!(run_gcn_layer(&mut chip, &a, &x, &bad_w), Err(ChipError::Shape(_))));
    }

    #[test]
    fn combination_roofline_scales_with_dimensions() {
        let cfg = ChipConfig::tile_16();
        let small = combination_cycles(&cfg, 1_000, 16, 16);
        let big = combination_cycles(&cfg, 1_000, 256, 256);
        assert!(big > small);
        // Larger chips need fewer cycles for the same GEMM.
        let t4 = combination_cycles(&ChipConfig::tile_4(), 10_000, 128, 128);
        let t64 = combination_cycles(&ChipConfig::tile_64(), 10_000, 128, 128);
        assert!(t64 <= t4);
    }

    #[test]
    fn flop_accounting_is_consistent() {
        let (a, x, w) = small_layer();
        let mut chip = Accelerator::new(ChipConfig::tile_4());
        let run = run_gcn_layer(&mut chip, &a, &x, &w).unwrap();
        assert_eq!(run.breakdown.aggregation_flops, 2 * a.nnz() as u64 * x.cols() as u64);
        assert_eq!(
            run.breakdown.combination_flops,
            2 * a.rows() as u64 * x.cols() as u64 * w.cols() as u64
        );
    }
}
