//! Cross-crate integration tests: workload generation → compilation →
//! cycle-level simulation → functional verification against the reference
//! kernels, plus the analytical baseline comparisons built on top.

use neurachip_repro::baselines::spgemm::{SpgemmModel, SpgemmPlatform};
use neurachip_repro::baselines::WorkloadProfile;
use neurachip_repro::chip::accelerator::Accelerator;
use neurachip_repro::chip::config::{ChipConfig, EvictionPolicy, TileSize};
use neurachip_repro::chip::gcn::run_gcn_layer;
use neurachip_repro::chip::mapping::MappingKind;
use neurachip_repro::chip::power::PowerModel;
use neurachip_repro::sparse::gen::{feature_matrix, weight_matrix, GraphGenerator};
use neurachip_repro::sparse::{spgemm, spmm, DatasetCatalog};

/// The full SpGEMM path on a dataset-catalog analog matches the reference
/// kernel bit-for-bit in structure and to 1e-9 in values.
#[test]
fn spgemm_on_dataset_analog_matches_reference() {
    let dataset = DatasetCatalog::by_name("wiki-Vote").expect("dataset exists");
    let a = dataset.generate_scaled(64, 11).to_csr();
    let mut chip = Accelerator::new(ChipConfig::tile_16());
    let run = chip.run_spgemm(&a, &a).expect("simulation drains");
    let reference = spgemm::gustavson(&a, &a);
    assert_eq!(run.product.nnz(), reference.nnz());
    assert!(run.product.to_dense().max_abs_diff(&reference.to_dense()).unwrap() < 1e-9);
    // The simulated partial-product count matches the bloat analysis.
    let stats = spgemm::count_products(&a, &a);
    assert_eq!(run.report.hacc_instructions, stats.multiplications);
}

/// A GCN layer on the accelerator matches the reference dense math for every
/// tile configuration.
#[test]
fn gcn_layer_is_correct_on_every_tile_size() {
    let mut a = GraphGenerator::power_law(96, 600, 2.1, 5).generate().to_csr();
    a.row_normalize();
    let x = feature_matrix(96, 8, 1);
    let w = weight_matrix(8, 4, 2);
    let reference = spmm::gcn_layer(&a, &x, &w).unwrap();
    for tile in TileSize::ALL {
        let mut chip = Accelerator::new(ChipConfig::for_tile_size(tile));
        let run = run_gcn_layer(&mut chip, &a, &x, &w).expect("layer runs");
        let diff = run.output.max_abs_diff(&reference).unwrap();
        assert!(diff < 1e-9, "{} diverged by {diff:e}", tile.name());
    }
}

/// Every compute mapping produces correct results and DRHM's load balance is
/// no worse than ring hashing on a skewed workload.
#[test]
fn mappings_are_correct_and_drhm_balances() {
    use neurachip_repro::sparse::stats::imbalance;
    let a = GraphGenerator::power_law(128, 1_000, 1.9, 21).generate().to_csr();
    let reference = spgemm::gustavson(&a, &a);
    let mut balance = std::collections::HashMap::new();
    for kind in MappingKind::ALL {
        let mut chip = Accelerator::new(ChipConfig::tile_16().with_mapping(kind));
        let run = chip.run_spgemm(&a, &a).expect("simulation drains");
        assert!(
            run.product.to_dense().max_abs_diff(&reference.to_dense()).unwrap() < 1e-9,
            "{} mapping gave wrong results",
            kind.name()
        );
        balance.insert(kind, imbalance(&run.report.mem_work_histogram).0);
    }
    assert!(balance[&MappingKind::Drhm] <= balance[&MappingKind::Ring] * 1.05);
}

/// Rolling eviction reduces HashPad pressure relative to barrier eviction
/// while producing identical results — the paper's core Figure 15 claim.
#[test]
fn rolling_eviction_reduces_pad_pressure() {
    let a = GraphGenerator::power_law(128, 1_200, 2.0, 8).generate().to_csr();
    let run = |policy| {
        let mut chip = Accelerator::new(ChipConfig::tile_4().with_eviction(policy));
        chip.run_spgemm(&a, &a).expect("simulation drains")
    };
    let rolling = run(EvictionPolicy::Rolling);
    let barrier = run(EvictionPolicy::Barrier);
    assert_eq!(rolling.product.nnz(), barrier.product.nnz());
    assert!(
        rolling.report.peak_hashpad_occupancy < barrier.report.peak_hashpad_occupancy,
        "rolling {} vs barrier {}",
        rolling.report.peak_hashpad_occupancy,
        barrier.report.peak_hashpad_occupancy
    );
    assert!(
        rolling.report.hacc_latency_histogram.mean()
            <= barrier.report.hacc_latency_histogram.mean()
    );
}

/// The analytical comparison reproduces the paper's headline ordering: the
/// simulated NeuraChip configuration beats the modelled CPU, GPUs and prior
/// accelerators on the evaluated workload.
#[test]
fn figure16_headline_ordering_holds() {
    let dataset = DatasetCatalog::by_name("ca-CondMat").expect("dataset exists");
    let a = dataset.generate_scaled(128, 5).to_csr();
    let profile = WorkloadProfile::from_square(dataset.name, &a);
    let ours = SpgemmPlatform::NeuraChip { tile: 16 }.estimate(&profile);
    let mut previous = f64::MAX;
    // Ordered from slowest to fastest baseline per the paper.
    for platform in [
        SpgemmPlatform::CpuMkl,
        SpgemmPlatform::OuterSpace,
        SpgemmPlatform::SpArch,
        SpgemmPlatform::Gamma,
    ] {
        let estimate = platform.estimate(&profile);
        let speedup = ours.speedup_over(&estimate);
        assert!(speedup > 1.0, "NeuraChip should beat {}", platform.name());
        assert!(speedup <= previous * 1.5, "ordering roughly follows the paper");
        previous = speedup;
    }
}

/// Power/area model and execution statistics compose into efficiency metrics
/// within the paper's reported ranges.
#[test]
fn efficiency_metrics_are_in_reported_range() {
    let model = PowerModel::calibrated();
    let breakdown = model.breakdown(&ChipConfig::tile_16());
    // Paper: Tile-16 achieves 24.75 GOP/s => 1.541 GOPS/W and 2.426 GOPS/mm².
    let eff = 24.75 / breakdown.total_power_w();
    let area_eff = 24.75 / breakdown.total_area_mm2();
    assert!((eff - 1.541).abs() < 0.05);
    assert!((area_eff - 2.426).abs() < 0.05);
}

/// Determinism: two runs with the same configuration and workload produce
/// identical cycle counts and statistics.
#[test]
fn simulation_is_deterministic() {
    let a = GraphGenerator::rmat(7, 700, 3).generate().to_csr();
    let run = || {
        let mut chip = Accelerator::new(ChipConfig::tile_4());
        chip.run_spgemm(&a, &a).expect("simulation drains").report
    };
    let first = run();
    let second = run();
    assert_eq!(first.total_cycles, second.total_cycles);
    assert_eq!(first.hacc_instructions, second.hacc_instructions);
    assert_eq!(first.core_work_histogram, second.core_work_histogram);
    assert_eq!(first.mem_work_histogram, second.mem_work_histogram);
}
