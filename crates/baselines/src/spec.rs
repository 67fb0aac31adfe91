//! Platform specifications (the static columns of Table 5).

use serde::{Deserialize, Serialize};

/// Static hardware description of one comparison platform.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformSpec {
    /// Platform name as used in the paper.
    pub name: &'static str,
    /// Description of the compute units (Table 5 "Compute Units" row).
    pub compute_units: &'static str,
    /// Clock frequency in GHz.
    pub frequency_ghz: f64,
    /// Peak compute throughput in GFLOP/s.
    pub peak_gflops: f64,
    /// On-chip memory in MB (cache / scratchpad / HashPad).
    pub on_chip_memory_mb: f64,
    /// Off-chip bandwidth in GB/s.
    pub off_chip_bandwidth_gbps: f64,
    /// Process technology in nm.
    pub technology_nm: u32,
    /// Die area in mm² (None when the paper marks it unavailable).
    pub area_mm2: Option<f64>,
    /// Power in watts (None when the paper marks it unavailable).
    pub power_w: Option<f64>,
    /// SpGEMM throughput on the common matrix suite in GOP/s (Table 5 row
    /// "SpGEMM Perf."), used as the calibration anchor of the models.
    pub spgemm_gops_reference: f64,
}

/// Table 5, row for row.
const TABLE5: [PlatformSpec; 10] = [
    PlatformSpec {
        name: "Xeon E5 (MKL)",
        compute_units: "8 cores AVX2",
        frequency_ghz: 2.9,
        peak_gflops: 186.0,
        on_chip_memory_mb: 15.0,
        off_chip_bandwidth_gbps: 136.0,
        technology_nm: 32,
        area_mm2: Some(356.0),
        power_w: Some(85.0),
        spgemm_gops_reference: 1.12,
    },
    PlatformSpec {
        name: "NVIDIA H100 (cuSPARSE)",
        compute_units: "7296 FP64",
        frequency_ghz: 1.6,
        peak_gflops: 26_000.0,
        on_chip_memory_mb: 50.0,
        off_chip_bandwidth_gbps: 2_000.0,
        technology_nm: 4,
        area_mm2: Some(814.0),
        power_w: Some(300.0),
        spgemm_gops_reference: 1.45,
    },
    PlatformSpec {
        name: "NVIDIA H100 (CUSP)",
        compute_units: "7296 FP64",
        frequency_ghz: 1.6,
        peak_gflops: 26_000.0,
        on_chip_memory_mb: 50.0,
        off_chip_bandwidth_gbps: 2_000.0,
        technology_nm: 4,
        area_mm2: Some(814.0),
        power_w: Some(300.0),
        spgemm_gops_reference: 1.86,
    },
    PlatformSpec {
        name: "AMD MI100 (hipSPARSE)",
        compute_units: "7680 FP64",
        frequency_ghz: 1.5,
        peak_gflops: 11_500.0,
        on_chip_memory_mb: 8.0,
        off_chip_bandwidth_gbps: 1_200.0,
        technology_nm: 7,
        area_mm2: Some(750.0),
        power_w: Some(300.0),
        spgemm_gops_reference: 1.48,
    },
    PlatformSpec {
        name: "OuterSPACE",
        compute_units: "256 PEs",
        frequency_ghz: 1.5,
        peak_gflops: 384.0,
        on_chip_memory_mb: 4.0,
        off_chip_bandwidth_gbps: 128.0,
        technology_nm: 32,
        area_mm2: Some(86.74),
        power_w: Some(24.0),
        spgemm_gops_reference: 2.9,
    },
    PlatformSpec {
        name: "SpArch",
        compute_units: "2x8 Mults, 16x16 Merger",
        frequency_ghz: 1.0,
        peak_gflops: 32.0,
        on_chip_memory_mb: 15.0,
        off_chip_bandwidth_gbps: 128.0,
        technology_nm: 40,
        area_mm2: Some(28.49),
        power_w: Some(9.26),
        spgemm_gops_reference: 10.4,
    },
    PlatformSpec {
        name: "Gamma",
        compute_units: "32 PEs Radix-64",
        frequency_ghz: 1.0,
        peak_gflops: 32.0,
        on_chip_memory_mb: 3.0,
        off_chip_bandwidth_gbps: 128.0,
        technology_nm: 45,
        area_mm2: Some(30.6),
        power_w: None,
        spgemm_gops_reference: 16.5,
    },
    PlatformSpec {
        name: "NeuraChip Tile-4",
        compute_units: "2x4 NeuraCores",
        frequency_ghz: 1.0,
        peak_gflops: 8.0,
        on_chip_memory_mb: 0.75,
        off_chip_bandwidth_gbps: 128.0,
        technology_nm: 7,
        area_mm2: Some(2.37),
        power_w: Some(11.46),
        spgemm_gops_reference: 5.15,
    },
    PlatformSpec {
        name: "NeuraChip Tile-16",
        compute_units: "2x16 NeuraCores",
        frequency_ghz: 1.0,
        peak_gflops: 32.0,
        on_chip_memory_mb: 3.0,
        off_chip_bandwidth_gbps: 128.0,
        technology_nm: 7,
        area_mm2: Some(10.2),
        power_w: Some(16.06),
        spgemm_gops_reference: 24.75,
    },
    PlatformSpec {
        name: "NeuraChip Tile-64",
        compute_units: "2x64 NeuraCores",
        frequency_ghz: 1.0,
        peak_gflops: 128.0,
        on_chip_memory_mb: 12.0,
        off_chip_bandwidth_gbps: 128.0,
        technology_nm: 7,
        area_mm2: Some(35.26),
        power_w: Some(24.22),
        spgemm_gops_reference: 30.69,
    },
];

/// Specifications of every platform listed in Table 5.
pub(crate) fn table5_specs() -> Vec<PlatformSpec> {
    TABLE5.to_vec()
}

impl PlatformSpec {
    /// Energy efficiency in GOPS/W at the reference throughput (Table 5).
    pub fn energy_efficiency(&self) -> Option<f64> {
        self.power_w.map(|p| self.spgemm_gops_reference / p)
    }

    /// Area efficiency in GOPS/mm² at the reference throughput (Table 5).
    pub fn area_efficiency(&self) -> Option<f64> {
        self.area_mm2.map(|a| self.spgemm_gops_reference / a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_has_all_ten_platforms() {
        let specs = table5_specs();
        assert_eq!(specs.len(), 10);
        let names: std::collections::HashSet<&str> = specs.iter().map(|s| s.name).collect();
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn neurachip_tile16_matches_table5_derived_metrics() {
        let specs = table5_specs();
        let t16 = specs.iter().find(|s| s.name == "NeuraChip Tile-16").unwrap();
        assert!((t16.energy_efficiency().unwrap() - 1.541).abs() < 0.01);
        assert!((t16.area_efficiency().unwrap() - 2.426).abs() < 0.01);
    }

    #[test]
    fn accelerators_share_the_128_gbps_memory_system() {
        for name in ["OuterSPACE", "SpArch", "Gamma", "NeuraChip Tile-16"] {
            let spec = table5_specs().into_iter().find(|s| s.name == name).unwrap();
            assert!((spec.off_chip_bandwidth_gbps - 128.0).abs() < 1e-9, "{name}");
        }
    }

    #[test]
    fn gamma_power_is_unavailable_like_the_paper() {
        let gamma = table5_specs().into_iter().find(|s| s.name == "Gamma").unwrap();
        assert!(gamma.power_w.is_none());
        assert!(gamma.energy_efficiency().is_none());
        assert!(gamma.area_efficiency().is_some());
    }
}
