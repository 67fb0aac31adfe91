//! Tables 2 and 3 — per-component and whole-chip configuration parameters.

use neura_chip::config::{ChipConfig, TileSize};
use neura_lab::{fmt, print_table, Artifact, RunRecord};

pub(super) fn run(artifact: &mut Artifact) {
    let configs: Vec<ChipConfig> =
        TileSize::ALL.iter().map(|t| ChipConfig::for_tile_size(*t)).collect();

    let component_rows = vec![
        row("Pipeline Registers", &configs, |c| c.core.pipeline_registers.to_string()),
        row("Pipelines", &configs, |c| c.core.pipelines.to_string()),
        row("Multipliers", &configs, |c| c.core.multipliers.to_string()),
        row("Addr. Generators", &configs, |c| c.core.address_generators.to_string()),
        row("Core Ports", &configs, |c| c.core.ports.to_string()),
        row("Comparators", &configs, |c| c.mem.comparators.to_string()),
        row("Hash-Engines", &configs, |c| c.mem.hash_engines.to_string()),
        row("Hashlines", &configs, |c| c.mem.hashlines.to_string()),
        row("Accumulators", &configs, |c| c.mem.accumulators.to_string()),
        row("Mem Ports", &configs, |c| c.mem.ports.to_string()),
    ];
    print_table(
        "Table 2: Individual component configuration",
        &["Element", "Tile-4", "Tile-16", "Tile-64"],
        &component_rows,
    );

    let chip_rows = vec![
        row("Tile Count", &configs, |c| c.tiles.to_string()),
        row("NeuraCores per tile", &configs, |c| c.cores_per_tile.to_string()),
        row("Total NeuraCores", &configs, |c| c.total_cores().to_string()),
        row("NeuraMems per tile", &configs, |c| c.mems_per_tile.to_string()),
        row("Total NeuraMems", &configs, |c| c.total_mems().to_string()),
        row("Memory Controllers", &configs, |c| c.tiles.to_string()),
        row("Total Routers", &configs, |c| c.total_routers().to_string()),
        row("Total Pipelines", &configs, |c| c.total_pipelines().to_string()),
        row("Register File (bits/pipeline)", &configs, |c| {
            c.register_file_bits_per_pipeline().to_string()
        }),
        row("Total Hash-Engines", &configs, |c| c.total_hash_engines().to_string()),
        row("Total TAG comparators", &configs, |c| c.total_comparators().to_string()),
        row("Total HashPad (MB)", &configs, |c| fmt(c.total_hashpad_mb(), 2)),
        row("Max frequency (GHz)", &configs, |c| fmt(c.frequency_ghz, 1)),
        row("Peak performance (GFLOPs)", &configs, |c| fmt(c.peak_gflops(), 0)),
        row("HBM bandwidth (GB/s)", &configs, |c| fmt(c.peak_bandwidth_gbps(), 0)),
    ];
    print_table(
        "Table 3: NeuraChip configuration",
        &["Parameter", "Tile-4", "Tile-16", "Tile-64"],
        &chip_rows,
    );

    for config in &configs {
        artifact.push(
            RunRecord::new(format!(
                "table3/{}",
                neura_lab::golden::slugify(config.tile_size.name())
            ))
            .param("tile", config.tile_size.name())
            .metric("tiles", config.tiles as f64)
            .metric("cores_per_tile", config.cores_per_tile as f64)
            .metric("total_cores", config.total_cores() as f64)
            .metric("total_mems", config.total_mems() as f64)
            .metric("total_routers", config.total_routers() as f64)
            .metric("total_pipelines", config.total_pipelines() as f64)
            .metric("pipelines_per_core", config.core.pipelines as f64)
            .metric("multipliers_per_core", config.core.multipliers as f64)
            .metric("hash_engines_per_mem", config.mem.hash_engines as f64)
            .metric("hashlines_per_mem", config.mem.hashlines as f64)
            .metric(
                "register_file_bits_per_pipeline",
                config.register_file_bits_per_pipeline() as f64,
            )
            .metric("total_hash_engines", config.total_hash_engines() as f64)
            .metric("total_comparators", config.total_comparators() as f64)
            .unit_metric("total_hashpad_mb", config.total_hashpad_mb(), "MB")
            .unit_metric("frequency_ghz", config.frequency_ghz, "GHz")
            .unit_metric("peak_gflops", config.peak_gflops(), "GFLOP/s")
            .unit_metric("hbm_bandwidth_gbps", config.peak_bandwidth_gbps(), "GB/s"),
        );
    }
}

fn row(label: &str, configs: &[ChipConfig], f: impl Fn(&ChipConfig) -> String) -> Vec<String> {
    let mut cells = vec![label.to_string()];
    cells.extend(configs.iter().map(f));
    cells
}
