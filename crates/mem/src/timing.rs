//! DRAM timing and geometry parameters.

use serde::{Deserialize, Serialize};

/// Timing and geometry of one HBM channel.
///
/// The defaults follow HBM2 as configured for NeuraChip: a 1 GHz accelerator
/// clock, 16 GB/s per channel (16 bytes per accelerator cycle), 64-byte
/// bursts and DRAMsim3-like row-buffer latencies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HbmTiming {
    /// Latency (cycles) of an access that hits the open row.
    pub row_hit_latency: u64,
    /// Latency (cycles) of an access to a closed bank (activate + column access).
    pub row_miss_latency: u64,
    /// Latency (cycles) of an access that conflicts with another open row
    /// (precharge + activate + column access).
    pub row_conflict_latency: u64,
    /// Bytes transferred per burst (transaction granularity).
    pub burst_bytes: usize,
    /// Peak data bytes the channel can move per accelerator cycle.
    pub bytes_per_cycle: usize,
    /// Number of banks per channel.
    pub banks_per_channel: usize,
    /// Bytes covered by one DRAM row (row-buffer size).
    pub row_bytes: usize,
    /// Additional fixed pipeline latency of the PHY/controller path.
    pub base_latency: u64,
}

impl HbmTiming {
    /// HBM2 parameters used throughout the evaluation (16 GB/s per channel at 1 GHz).
    pub fn hbm2() -> Self {
        HbmTiming {
            row_hit_latency: 18,
            row_miss_latency: 36,
            row_conflict_latency: 54,
            burst_bytes: 64,
            bytes_per_cycle: 16,
            banks_per_channel: 16,
            row_bytes: 1024,
            base_latency: 20,
        }
    }

    /// A "dual-stacked" HBM configuration with twice the per-channel
    /// bandwidth (used for the 256 GB/s entry of Table 5, footnote α).
    pub(crate) fn hbm2_dual_stack() -> Self {
        HbmTiming { bytes_per_cycle: 32, ..Self::hbm2() }
    }

    /// DDR4-like parameters for the CPU baseline calibration (136 GB/s
    /// aggregate over the socket, higher latencies).
    pub(crate) fn ddr4() -> Self {
        HbmTiming {
            row_hit_latency: 22,
            row_miss_latency: 44,
            row_conflict_latency: 66,
            burst_bytes: 64,
            bytes_per_cycle: 8,
            banks_per_channel: 16,
            row_bytes: 8192,
            base_latency: 40,
        }
    }

    /// Cycles needed to stream `bytes` through the channel at peak bandwidth.
    pub(crate) fn transfer_cycles(&self, bytes: usize) -> u64 {
        (bytes as u64).div_ceil(self.bytes_per_cycle as u64)
    }

    /// Peak bandwidth in GB/s given the accelerator clock frequency in GHz.
    pub fn peak_bandwidth_gbps(&self, frequency_ghz: f64) -> f64 {
        self.bytes_per_cycle as f64 * frequency_ghz
    }
}

impl Default for HbmTiming {
    fn default() -> Self {
        Self::hbm2()
    }
}

/// The named [`HbmTiming`] configurations, so sweeps and tuners can treat
/// the memory system as a discrete axis (a preset name) instead of eight
/// free timing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HbmPreset {
    /// [`HbmTiming::hbm2`] — the paper's evaluated memory system.
    Hbm2,
    /// `HbmTiming::hbm2_dual_stack` — twice the per-channel bandwidth
    /// (Table 5 footnote α).
    Hbm2DualStack,
    /// `HbmTiming::ddr4` — the CPU-baseline calibration timing.
    Ddr4,
}

impl HbmPreset {
    /// All presets, in sweep order (paper default first).
    pub const ALL: [HbmPreset; 3] = [HbmPreset::Hbm2, HbmPreset::Hbm2DualStack, HbmPreset::Ddr4];

    /// Stable lower-case name used in run IDs and artifact params.
    pub fn name(&self) -> &'static str {
        match self {
            HbmPreset::Hbm2 => "hbm2",
            HbmPreset::Hbm2DualStack => "hbm2-dual",
            HbmPreset::Ddr4 => "ddr4",
        }
    }

    /// The timing parameters this preset names.
    pub fn timing(&self) -> HbmTiming {
        match self {
            HbmPreset::Hbm2 => HbmTiming::hbm2(),
            HbmPreset::Hbm2DualStack => HbmTiming::hbm2_dual_stack(),
            HbmPreset::Ddr4 => HbmTiming::ddr4(),
        }
    }

    /// Reverse lookup: which preset (if any) a timing struct corresponds to.
    pub fn of(timing: &HbmTiming) -> Option<HbmPreset> {
        Self::ALL.into_iter().find(|p| p.timing() == *timing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hbm2_matches_paper_bandwidth() {
        let t = HbmTiming::hbm2();
        // 16 bytes/cycle at 1 GHz = 16 GB/s per channel; 8 channels = 128 GB/s.
        assert!((t.peak_bandwidth_gbps(1.0) - 16.0).abs() < 1e-12);
        assert!((t.peak_bandwidth_gbps(1.0) * 8.0 - 128.0).abs() < 1e-12);
    }

    #[test]
    fn dual_stack_doubles_bandwidth() {
        let single = HbmTiming::hbm2();
        let dual = HbmTiming::hbm2_dual_stack();
        assert_eq!(dual.bytes_per_cycle, 2 * single.bytes_per_cycle);
    }

    #[test]
    fn latencies_are_ordered() {
        let t = HbmTiming::hbm2();
        assert!(t.row_hit_latency < t.row_miss_latency);
        assert!(t.row_miss_latency < t.row_conflict_latency);
    }

    #[test]
    fn transfer_cycles_round_up() {
        let t = HbmTiming::hbm2();
        assert_eq!(t.transfer_cycles(0), 0);
        assert_eq!(t.transfer_cycles(1), 1);
        assert_eq!(t.transfer_cycles(16), 1);
        assert_eq!(t.transfer_cycles(17), 2);
        assert_eq!(t.transfer_cycles(64), 4);
    }

    #[test]
    fn default_is_hbm2() {
        assert_eq!(HbmTiming::default(), HbmTiming::hbm2());
    }

    #[test]
    fn presets_round_trip_through_reverse_lookup() {
        for preset in HbmPreset::ALL {
            assert_eq!(HbmPreset::of(&preset.timing()), Some(preset));
            assert!(!preset.name().is_empty());
        }
        let custom = HbmTiming { base_latency: 999, ..HbmTiming::hbm2() };
        assert_eq!(HbmPreset::of(&custom), None);
    }
}
