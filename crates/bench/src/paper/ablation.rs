//! Design-space ablations of the paper's Section 3 choices: compute mapping,
//! eviction policy, MMH tile height and HashPad size, all on the Cora-analog
//! SpGEMM.
//!
//! The four ablations are declared as `neura_lab` experiment specs and their
//! points — fourteen full cycle-level simulations — run concurrently on the
//! lab's work-stealing runner.

use super::simulate;
use crate::scaled_matrix_by_name;
use neura_chip::accelerator::ExecutionReport;
use neura_chip::config::{ChipConfig, EvictionPolicy};
use neura_chip::mapping::MappingKind;
use neura_lab::{fmt, print_table, Artifact, ExperimentSpec, Runner, SweepGrid, SweepPoint};
use neura_sparse::stats::imbalance;

pub(super) fn run(artifact: &mut Artifact) {
    let a = scaled_matrix_by_name("cora", 4);

    // Four sweeps of one axis each, around the paper-default Tile-16 chip.
    let spec = |name: &str, axis: SweepGrid| {
        ExperimentSpec::new(name, ChipConfig::tile_16(), axis.datasets(["cora"]))
    };
    let specs = [
        spec("ablation/mapping", SweepGrid::new().mappings(MappingKind::ALL)),
        spec(
            "ablation/eviction",
            SweepGrid::new().evictions([EvictionPolicy::Rolling, EvictionPolicy::Barrier]),
        ),
        spec("ablation/mmh-tile", SweepGrid::new().mmh_tiles([1, 2, 4, 8])),
        spec("ablation/hashpad", SweepGrid::new().hashlines([256, 1024, 2048, 8192])),
    ];

    // One flat point list across all four ablations: the runner interleaves
    // the fourteen simulations instead of draining each group serially.
    let points: Vec<SweepPoint> = specs.iter().flat_map(ExperimentSpec::points).collect();
    let runner = Runner::from_env();
    let reports: Vec<ExecutionReport> = runner.run(&points, |_, point| simulate("cora", &a, point));
    for (point, report) in points.iter().zip(&reports) {
        artifact.push(point.record().with_execution(report));
    }

    // One table per ablation: the points whose run IDs start with its name.
    let table = |prefix: &str,
                 title: &str,
                 headers: &[&str],
                 row: &dyn Fn(&SweepPoint, &ExecutionReport) -> Vec<String>| {
        let rows: Vec<Vec<String>> = points
            .iter()
            .zip(&reports)
            .filter(|(point, _)| point.id.starts_with(prefix))
            .map(|(point, report)| row(point, report))
            .collect();
        print_table(title, headers, &rows);
    };
    table(
        "ablation/mapping/",
        "Ablation A: compute mapping (Tile-16, Cora analog)",
        &["Mapping", "Cycles", "NeuraMem max/mean", "NeuraMem CV", "Core util %"],
        &|point, report| {
            let (max_over_mean, cv) = imbalance(&report.mem_work_histogram);
            vec![
                point.config.mapping.name().to_string(),
                report.total_cycles.to_string(),
                fmt(max_over_mean, 3),
                fmt(cv, 3),
                fmt(report.core_utilization * 100.0, 1),
            ]
        },
    );
    table(
        "ablation/eviction/",
        "Ablation B: eviction policy (Tile-16, Cora analog)",
        &["Eviction", "Cycles", "Peak pad occupancy", "Pad-full stalls", "Avg HACC latency"],
        &|point, report| {
            vec![
                neura_lab::spec::eviction_name(point.config.eviction).to_string(),
                report.total_cycles.to_string(),
                report.peak_hashpad_occupancy.to_string(),
                report.hashpad_full_stalls.to_string(),
                fmt(report.hacc_latency_histogram.mean(), 0),
            ]
        },
    );
    table(
        "ablation/mmh-tile/",
        "Ablation C: MMH tile height (Tile-16, Cora analog)",
        &["Variant", "MMH instructions", "Avg CPI", "Cycles", "GOP/s"],
        &|point, report| {
            vec![
                format!("MMH{}", point.config.mmh_tile),
                report.mmh_instructions.to_string(),
                fmt(report.cpi, 0),
                report.total_cycles.to_string(),
                fmt(report.gops, 2),
            ]
        },
    );
    table(
        "ablation/hashpad/",
        "Ablation D: HashPad size (hash-lines per NeuraMem)",
        &["Hashlines", "Cycles", "Pad-full stalls", "Peak occupancy"],
        &|point, report| {
            vec![
                point.config.mem.hashlines.to_string(),
                report.total_cycles.to_string(),
                report.hashpad_full_stalls.to_string(),
                report.peak_hashpad_occupancy.to_string(),
            ]
        },
    );
}
