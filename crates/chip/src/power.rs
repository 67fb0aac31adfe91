//! Area, power and efficiency model (Tables 4 and 5).
//!
//! The paper synthesises the NeuraChip RTL with Cadence Genus against the
//! ASAP7 7-nm library and reports per-component area and average power for
//! the three tile sizes (Table 4).  This module encodes those calibrated
//! per-unit densities and recombines them for arbitrary configurations, so
//! a throughput divided by [`PowerAreaBreakdown::total_power_w`] or
//! [`PowerAreaBreakdown::total_area_mm2`] gives the GOPS/W and GOPS/mm² of
//! Table 5 and of design-space sweeps.

use crate::config::{ChipConfig, TileSize};
use serde::{Deserialize, Serialize};

/// Area (mm²) and average power (W) of one component class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ComponentCost {
    /// Silicon area in mm².
    pub area_mm2: f64,
    /// Average power in watts.
    pub power_w: f64,
}

/// Full per-component breakdown for a chip (Table 4 rows).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PowerAreaBreakdown {
    /// All NeuraCores.
    pub neuracore: ComponentCost,
    /// All NeuraMems (dominated by the HashPad and comparator arrays).
    pub neuramem: ComponentCost,
    /// All on-chip routers.
    pub router: ComponentCost,
    /// All memory controllers.
    pub memory_controller: ComponentCost,
}

impl PowerAreaBreakdown {
    /// Total chip area in mm².
    pub fn total_area_mm2(&self) -> f64 {
        self.neuracore.area_mm2
            + self.neuramem.area_mm2
            + self.router.area_mm2
            + self.memory_controller.area_mm2
    }

    /// Total average power in watts.
    pub fn total_power_w(&self) -> f64 {
        self.neuracore.power_w
            + self.neuramem.power_w
            + self.router.power_w
            + self.memory_controller.power_w
    }
}

/// Table 4 of the paper, reproduced verbatim for the three synthesised
/// configurations.
pub fn table4_reference(tile: TileSize) -> PowerAreaBreakdown {
    match tile {
        TileSize::Tile4 => PowerAreaBreakdown {
            neuracore: ComponentCost { area_mm2: 0.28, power_w: 1.05 },
            neuramem: ComponentCost { area_mm2: 1.22, power_w: 6.85 },
            router: ComponentCost { area_mm2: 0.49, power_w: 2.15 },
            memory_controller: ComponentCost { area_mm2: 0.38, power_w: 1.41 },
        },
        TileSize::Tile16 => PowerAreaBreakdown {
            neuracore: ComponentCost { area_mm2: 2.74, power_w: 1.86 },
            neuramem: ComponentCost { area_mm2: 5.10, power_w: 7.36 },
            router: ComponentCost { area_mm2: 1.98, power_w: 4.88 },
            memory_controller: ComponentCost { area_mm2: 0.38, power_w: 1.96 },
        },
        TileSize::Tile64 => PowerAreaBreakdown {
            neuracore: ComponentCost { area_mm2: 9.36, power_w: 5.76 },
            neuramem: ComponentCost { area_mm2: 18.64, power_w: 11.19 },
            router: ComponentCost { area_mm2: 6.88, power_w: 4.43 },
            memory_controller: ComponentCost { area_mm2: 0.38, power_w: 2.84 },
        },
    }
}

/// Per-unit cost model derived from the Table 4 calibration points.
///
/// Dividing each Table 4 row by the corresponding component count yields a
/// per-unit area/power density; [`PowerModel::breakdown`] re-multiplies those
/// densities by an arbitrary configuration's component counts, which is how
/// the design-space sweeps (Figure 11's power column) are costed.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PowerModel {
    core_unit: ComponentCost,
    mem_unit: ComponentCost,
    router_unit: ComponentCost,
    controller_unit: ComponentCost,
    /// Static (leakage + clock tree) power fraction applied to the total.
    static_fraction: f64,
}

impl PowerModel {
    /// Builds the per-unit model from the Tile-16 calibration point.
    pub fn calibrated() -> Self {
        let reference = table4_reference(TileSize::Tile16);
        let cfg = ChipConfig::tile_16();
        PowerModel {
            core_unit: ComponentCost {
                area_mm2: reference.neuracore.area_mm2 / cfg.total_cores() as f64,
                power_w: reference.neuracore.power_w / cfg.total_cores() as f64,
            },
            mem_unit: ComponentCost {
                area_mm2: reference.neuramem.area_mm2 / cfg.total_mems() as f64,
                power_w: reference.neuramem.power_w / cfg.total_mems() as f64,
            },
            router_unit: ComponentCost {
                area_mm2: reference.router.area_mm2 / cfg.total_routers() as f64,
                power_w: reference.router.power_w / cfg.total_routers() as f64,
            },
            controller_unit: ComponentCost {
                area_mm2: reference.memory_controller.area_mm2 / cfg.tiles as f64,
                power_w: reference.memory_controller.power_w / cfg.tiles as f64,
            },
            static_fraction: 0.0,
        }
    }

    /// Costs an arbitrary configuration.  For the three named tile sizes the
    /// paper-reported Table 4 numbers are returned exactly; other
    /// configurations are costed from the per-unit densities.
    pub fn breakdown(&self, config: &ChipConfig) -> PowerAreaBreakdown {
        match config.tile_size {
            TileSize::Tile4 | TileSize::Tile16 | TileSize::Tile64
                if *config == ChipConfig::for_tile_size(config.tile_size) =>
            {
                table4_reference(config.tile_size)
            }
            _ => self.scaled_breakdown(config),
        }
    }

    fn scaled_breakdown(&self, config: &ChipConfig) -> PowerAreaBreakdown {
        let scale = |unit: ComponentCost, count: f64| ComponentCost {
            area_mm2: unit.area_mm2 * count,
            power_w: unit.power_w * count * (1.0 + self.static_fraction),
        };
        // The NeuraMem cost scales with HashPad capacity as well as unit count.
        let pad_scale =
            config.mem.hashpad_bytes() as f64 / ChipConfig::tile_16().mem.hashpad_bytes() as f64;
        let mem_count = config.total_mems() as f64 * pad_scale.max(0.25);
        PowerAreaBreakdown {
            neuracore: scale(self.core_unit, config.total_cores() as f64),
            neuramem: scale(self.mem_unit, mem_count),
            router: scale(self.router_unit, config.total_routers() as f64),
            memory_controller: scale(self.controller_unit, config.tiles as f64),
        }
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        Self::calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_totals_match_paper() {
        let t4 = table4_reference(TileSize::Tile4);
        assert!((t4.total_area_mm2() - 2.37).abs() < 0.01);
        assert!((t4.total_power_w() - 11.46).abs() < 0.01);
        let t16 = table4_reference(TileSize::Tile16);
        assert!((t16.total_area_mm2() - 10.2).abs() < 0.01);
        assert!((t16.total_power_w() - 16.06).abs() < 0.01);
        let t64 = table4_reference(TileSize::Tile64);
        assert!((t64.total_area_mm2() - 35.26).abs() < 0.01);
        assert!((t64.total_power_w() - 24.22).abs() < 0.01);
    }

    #[test]
    fn named_configs_reproduce_table4_exactly() {
        let model = PowerModel::calibrated();
        for tile in TileSize::ALL {
            let cfg = ChipConfig::for_tile_size(tile);
            assert_eq!(model.breakdown(&cfg), table4_reference(tile));
        }
    }

    #[test]
    fn neuramem_dominates_area() {
        // The paper: "The majority of the area requirement for NeuraChip is
        // allocated to the NeuraMem unit".
        for tile in TileSize::ALL {
            let b = table4_reference(tile);
            assert!(b.neuramem.area_mm2 > b.neuracore.area_mm2);
            assert!(b.neuramem.area_mm2 > b.router.area_mm2);
            assert!(b.neuramem.area_mm2 > b.memory_controller.area_mm2);
        }
    }

    #[test]
    fn efficiency_metrics_match_table5_for_tile16() {
        // Table 5: Tile-16 achieves 24.75 GOP/s, 1.541 GOPS/W, 2.426 GOPS/mm².
        let b = table4_reference(TileSize::Tile16);
        let gops = 24.75;
        assert!((gops / b.total_power_w() - 1.541).abs() < 0.01);
        assert!((gops / b.total_area_mm2() - 2.426).abs() < 0.01);
    }

    #[test]
    fn custom_configs_scale_with_component_count() {
        let model = PowerModel::calibrated();
        let mut big = ChipConfig::tile_16();
        big.cores_per_tile *= 2;
        big.mems_per_tile *= 2;
        big.routers_per_tile *= 2;
        let base = model.breakdown(&ChipConfig::tile_16());
        let grown = model.breakdown(&big);
        assert!(grown.total_area_mm2() > base.total_area_mm2());
        assert!(grown.total_power_w() > base.total_power_w());
    }
}
