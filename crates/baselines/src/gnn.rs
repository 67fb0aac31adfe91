//! Analytical GNN-accelerator models for the Figure 17 comparison.
//!
//! Each prior accelerator is modelled as an effective-throughput estimate for
//! a full GCN layer (aggregation + combination), with a penalty term encoding
//! the specific architectural weakness the paper attributes to it:
//!
//! * **EnGN** — ring-based edge reducer: struggles to spread work evenly, so
//!   its penalty grows with the degree-distribution skew.
//! * **GROW** — row-stationary GEMM with software graph partitioning: pays a
//!   preprocessing overhead proportional to the graph size and idles its
//!   streaming buffers.
//! * **HyGCN** — separate aggregation/combination engines in a pipeline: the
//!   pipeline stalls when the two phases have unequal durations.
//! * **FlowGNN** — dataflow architecture with dynamic pull-based mapping:
//!   queueing overhead per message.
//! * **NeuraChip** — decoupled NeuraCore/NeuraMem resources shared by both
//!   phases, DRHM load balancing; modelled as the efficiency anchor.

use crate::workload::WorkloadProfile;
use serde::{Deserialize, Serialize};

/// Estimated GCN-layer execution on one platform.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GnnEstimate {
    /// Execution time in seconds for one GCN layer.
    pub seconds: f64,
    /// Achieved throughput in GFLOP/s over the whole layer.
    pub gflops: f64,
}

/// The GNN accelerators compared in Figure 17, plus NeuraChip itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GnnPlatform {
    /// EnGN: hash/ring-based GNN accelerator.
    EnGn,
    /// GROW: row-stationary sparse-dense GEMM accelerator with graph partitioning.
    Grow,
    /// HyGCN: hybrid accelerator with separate aggregation/combination engines.
    HyGcn,
    /// FlowGNN: reconfigurable dataflow accelerator with pull-based mapping.
    FlowGnn,
    /// NeuraChip Tile-16 (GNN configuration, 8192 GFLOPS peak).
    NeuraChip,
}

impl GnnPlatform {
    /// The four baselines of Figure 17 in plot order.
    pub const FIGURE17_BASELINES: [GnnPlatform; 4] =
        [GnnPlatform::EnGn, GnnPlatform::Grow, GnnPlatform::HyGcn, GnnPlatform::FlowGnn];

    /// Peak throughput of the platform's GNN configuration in GFLOP/s.
    pub(crate) fn peak_gflops(&self) -> f64 {
        match self {
            GnnPlatform::EnGn => 6_144.0,
            GnnPlatform::Grow => 4_096.0,
            GnnPlatform::HyGcn => 8_704.0,
            GnnPlatform::FlowGnn => 8_192.0,
            // "capable of delivering a peak performance of 8192 GFLOPs" (§5.4).
            GnnPlatform::NeuraChip => 8_192.0,
        }
    }

    /// Baseline efficiency (fraction of peak sustained on a balanced GCN
    /// workload), calibrated so the average Figure 17 speedups match the
    /// paper (EnGN +29 %, GROW +58 %, HyGCN +69 %, FlowGNN +30 %).
    fn base_efficiency(&self) -> f64 {
        match self {
            GnnPlatform::EnGn => 0.145,
            GnnPlatform::Grow => 0.175,
            GnnPlatform::HyGcn => 0.085,
            GnnPlatform::FlowGnn => 0.108,
            GnnPlatform::NeuraChip => 0.140,
        }
    }

    /// Platform name as used in Figure 17.
    pub fn name(&self) -> &'static str {
        match self {
            GnnPlatform::EnGn => "EnGN",
            GnnPlatform::Grow => "GROW",
            GnnPlatform::HyGcn => "HyGCN",
            GnnPlatform::FlowGnn => "FlowGNN",
            GnnPlatform::NeuraChip => "NeuraChip Tile-16",
        }
    }

    /// Estimates one GCN layer: `aggregation` profiles `A × X`, and
    /// `in_features`/`out_features` describe the combination GEMM.
    pub fn estimate(
        &self,
        aggregation: &WorkloadProfile,
        in_features: usize,
        out_features: usize,
    ) -> GnnEstimate {
        let agg_flops = aggregation.flops() as f64;
        let comb_flops = 2.0 * aggregation.rows as f64 * in_features as f64 * out_features as f64;
        let total_flops = agg_flops + comb_flops;
        let skew = (aggregation.row_cv.max(0.05) / 2.0).clamp(0.2, 6.0);
        let phase_ratio = (agg_flops / comb_flops.max(1.0)).max(comb_flops / agg_flops.max(1.0));

        let efficiency = match self {
            // Ring reducer: efficiency degrades with degree skew.
            GnnPlatform::EnGn => self.base_efficiency() / skew.powf(0.35),
            // Graph-partitioning preprocessing + streaming-buffer idling:
            // a size-dependent overhead on top of a skew penalty.
            GnnPlatform::Grow => {
                let partition_overhead = 1.0 + (aggregation.rows as f64).log2() / 24.0;
                self.base_efficiency() / (skew.powf(0.20) * partition_overhead)
            }
            // Pipeline stall when aggregation and combination durations differ.
            GnnPlatform::HyGcn => self.base_efficiency() / phase_ratio.powf(0.30),
            // Pull-based dynamic mapping: per-message queue management cost
            // grows mildly with the number of partial products per node.
            GnnPlatform::FlowGnn => {
                let queue_overhead = 1.0 + (aggregation.avg_fanin / 64.0).min(1.0);
                self.base_efficiency() / (skew.powf(0.10) * queue_overhead)
            }
            // NeuraChip: DRHM keeps the efficiency flat across skew levels.
            GnnPlatform::NeuraChip => self.base_efficiency(),
        };
        let gflops = (self.peak_gflops() * efficiency).max(1e-3);
        GnnEstimate { seconds: total_flops / (gflops * 1e9), gflops }
    }
}

/// Speedup of NeuraChip over `baseline` for the given layer.
pub fn speedup_over(
    baseline: GnnPlatform,
    aggregation: &WorkloadProfile,
    in_features: usize,
    out_features: usize,
) -> f64 {
    let ours = GnnPlatform::NeuraChip.estimate(aggregation, in_features, out_features);
    let theirs = baseline.estimate(aggregation, in_features, out_features);
    theirs.seconds / ours.seconds
}

#[cfg(test)]
mod tests {
    use super::*;
    use neura_sparse::datasets::DatasetCatalog;

    fn gnn_profiles() -> Vec<(WorkloadProfile, usize, usize)> {
        DatasetCatalog::gnn_suite()
            .iter()
            .map(|d| {
                let a = d.generate_scaled(8, 5).to_csr();
                let features = d.feature_dim.min(256);
                (WorkloadProfile::from_aggregation(d.name, &a, features), features, 64)
            })
            .collect()
    }

    #[test]
    fn neurachip_beats_every_gnn_baseline_on_average() {
        let layers = gnn_profiles();
        for baseline in GnnPlatform::FIGURE17_BASELINES {
            let mean_speedup: f64 = layers
                .iter()
                .map(|(p, fin, fout)| speedup_over(baseline, p, *fin, *fout))
                .sum::<f64>()
                / layers.len() as f64;
            assert!(
                mean_speedup > 1.0,
                "NeuraChip should outperform {}, got {mean_speedup:.2}x",
                baseline.name()
            );
            assert!(
                mean_speedup < 4.0,
                "speedup over {} should stay in the paper's ballpark, got {mean_speedup:.2}x",
                baseline.name()
            );
        }
    }

    #[test]
    fn hygcn_and_grow_trail_engn_and_flowgnn() {
        // Paper ordering of average speedups: HyGCN (69%) > GROW (58%) >
        // FlowGNN (30%) ≈ EnGN (29%).
        let layers = gnn_profiles();
        let avg = |b: GnnPlatform| {
            layers.iter().map(|(p, fin, fout)| speedup_over(b, p, *fin, *fout)).sum::<f64>()
                / layers.len() as f64
        };
        let hygcn = avg(GnnPlatform::HyGcn);
        let grow = avg(GnnPlatform::Grow);
        let flowgnn = avg(GnnPlatform::FlowGnn);
        let engn = avg(GnnPlatform::EnGn);
        assert!(hygcn > grow, "HyGCN {hygcn:.2} should exceed GROW {grow:.2}");
        assert!(grow > flowgnn, "GROW {grow:.2} should exceed FlowGNN {flowgnn:.2}");
        assert!(grow > engn, "GROW {grow:.2} should exceed EnGN {engn:.2}");
    }

    #[test]
    fn skewed_graphs_hurt_engn_more_than_neurachip() {
        let skewed = DatasetCatalog::by_name("cora").unwrap().generate_scaled(2, 1).to_csr();
        let profile = WorkloadProfile::from_aggregation("cora", &skewed, 64);
        let engn = GnnPlatform::EnGn.estimate(&profile, 64, 16);
        let ours = GnnPlatform::NeuraChip.estimate(&profile, 64, 16);
        assert!(ours.gflops > engn.gflops);
    }

    #[test]
    fn estimates_scale_with_layer_size() {
        let a = DatasetCatalog::by_name("citeseer").unwrap().generate_scaled(4, 2).to_csr();
        let small = WorkloadProfile::from_aggregation("citeseer", &a, 16);
        let large = WorkloadProfile::from_aggregation("citeseer", &a, 128);
        for platform in
            GnnPlatform::FIGURE17_BASELINES.iter().chain([GnnPlatform::NeuraChip].iter())
        {
            let t_small = platform.estimate(&small, 16, 16).seconds;
            let t_large = platform.estimate(&large, 128, 16).seconds;
            assert!(t_large > t_small, "{} must take longer on a larger layer", platform.name());
        }
    }
}
