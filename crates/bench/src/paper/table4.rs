//! Table 4 — NeuraChip power and area breakdown per component.

use neura_chip::config::TileSize;
use neura_chip::power::table4_reference;
use neura_lab::golden::slugify;
use neura_lab::{fmt, print_table, ArtifactSession, RunRecord};

pub(super) fn run(session: &mut ArtifactSession) {
    let mut area_rows = Vec::new();
    let mut power_rows = Vec::new();
    for tile in TileSize::ALL {
        let b = table4_reference(tile);
        area_rows.push(vec![
            tile.name().to_string(),
            fmt(b.neuracore.area_mm2, 2),
            fmt(b.neuramem.area_mm2, 2),
            fmt(b.router.area_mm2, 2),
            fmt(b.memory_controller.area_mm2, 2),
            fmt(b.total_area_mm2(), 2),
        ]);
        power_rows.push(vec![
            tile.name().to_string(),
            fmt(b.neuracore.power_w, 2),
            fmt(b.neuramem.power_w, 2),
            fmt(b.router.power_w, 2),
            fmt(b.memory_controller.power_w, 2),
            fmt(b.total_power_w(), 2),
        ]);
        session.push(
            RunRecord::new(format!("table4/{}", slugify(tile.name())))
                .param("tile", tile.name())
                .unit_metric("neuracore_area_mm2", b.neuracore.area_mm2, "mm^2")
                .unit_metric("neuramem_area_mm2", b.neuramem.area_mm2, "mm^2")
                .unit_metric("router_area_mm2", b.router.area_mm2, "mm^2")
                .unit_metric("mem_controller_area_mm2", b.memory_controller.area_mm2, "mm^2")
                .unit_metric("total_area_mm2", b.total_area_mm2(), "mm^2")
                .unit_metric("neuracore_power_w", b.neuracore.power_w, "W")
                .unit_metric("neuramem_power_w", b.neuramem.power_w, "W")
                .unit_metric("router_power_w", b.router.power_w, "W")
                .unit_metric("mem_controller_power_w", b.memory_controller.power_w, "W")
                .unit_metric("total_power_w", b.total_power_w(), "W"),
        );
    }
    print_table(
        "Table 4a: Area breakdown (mm^2)",
        &["Config", "NeuraCore", "NeuraMem", "Router", "Mem Controller", "Total"],
        &area_rows,
    );
    print_table(
        "Table 4b: Average power breakdown (W)",
        &["Config", "NeuraCore", "NeuraMem", "Router", "Mem Controller", "Total"],
        &power_rows,
    );
}
