//! Property tests of the analytic fast-path cost model: the guarantees
//! `neura_chip::analytic` documents, checked over generated workloads and
//! every (tile × HBM preset × MMH tile) configuration — strict
//! positivity, determinism, monotonicity in `nnz` and under proportional
//! workload scaling, frequency-independence of cycle estimates, and the
//! pinned error bound against the cycle oracle on a seeded sample of the
//! paper-scale validation grid.

use neura_chip::accelerator::Accelerator;
use neura_chip::analytic::{mmh_tile_index, AnalyticModel, WorkloadFeatures};
use neura_chip::config::{ChipConfig, HbmPreset, TileSize};
use neura_sparse::DatasetCatalog;
use proptest::prelude::*;

/// Every configuration axis the model claims to price: tile tier, HBM
/// preset and MMH tile height.
fn arb_config() -> impl Strategy<Value = ChipConfig> {
    (0usize..TileSize::ALL.len(), 0usize..HbmPreset::ALL.len(), 0usize..4).prop_map(
        |(tile, hbm, mmh)| {
            ChipConfig::for_tile_size(TileSize::ALL[tile])
                .with_hbm_preset(HbmPreset::ALL[hbm])
                .with_mmh_tile([1u8, 2, 4, 8][mmh])
        },
    )
}

/// Arbitrary workload features. Deliberately looser than anything a real
/// matrix produces (fields are only weakly coherent): the structural
/// guarantees must hold for any feature vector, not just realistic ones.
fn arb_workload() -> impl Strategy<Value = WorkloadFeatures> {
    (1u64..5_000, 0u64..200_000, 0u64..2_000_000, 0u64..500_000, 0u64..100_000, 0u64..5_000)
        .prop_map(|(rows, nnz, partial_products, output_nnz, hub, cols)| WorkloadFeatures {
            rows,
            nnz,
            partial_products,
            output_nnz,
            max_row_pp: hub.min(partial_products),
            active_cols: cols.min(rows),
            mmh_instructions: [nnz, nnz.div_ceil(2), nnz.div_ceil(4), nnz.div_ceil(8)],
        })
}

proptest! {
    /// Estimates are strictly positive and finite for any workload on any
    /// configuration, in both the f64 and the rounded integer shape.
    #[test]
    fn estimates_are_strictly_positive_and_finite(
        config in arb_config(),
        w in arb_workload(),
    ) {
        let model = AnalyticModel::calibrated();
        let cycles = model.cycles(&config, &w);
        prop_assert!(cycles.is_finite());
        prop_assert!(cycles >= 1.0);
        prop_assert!(model.class_cycles(&config, &w) >= 1);
        let seconds = model.seconds(&config, &w);
        prop_assert!(seconds.is_finite() && seconds > 0.0);
    }

    /// Pure arithmetic, no global state: pricing the same pair twice is
    /// bitwise identical.
    #[test]
    fn estimates_are_deterministic(config in arb_config(), w in arb_workload()) {
        let model = AnalyticModel::calibrated();
        prop_assert_eq!(
            model.cycles(&config, &w).to_bits(),
            model.cycles(&config, &w).to_bits()
        );
        prop_assert_eq!(model.class_cycles(&config, &w), model.class_cycles(&config, &w));
    }

    /// Monotone non-decreasing in `nnz` at a fixed configuration and
    /// fixed everything-else: the fitted `nnz` coefficient is constrained
    /// non-negative, so more edges never price cheaper.
    #[test]
    fn more_nnz_never_prices_cheaper(
        config in arb_config(),
        w in arb_workload(),
        extra in 1u64..1_000_000,
    ) {
        let model = AnalyticModel::calibrated();
        let bigger = WorkloadFeatures { nnz: w.nnz + extra, ..w };
        prop_assert!(model.cycles(&config, &bigger) >= model.cycles(&config, &w));
    }

    /// Monotone under proportional request scaling: every feature is
    /// linear in its field and the hinge preserves ordering, so a request
    /// scaled k× in every dimension never prices cheaper.
    #[test]
    fn scaled_up_request_never_prices_cheaper(
        config in arb_config(),
        w in arb_workload(),
        k in 1u64..16,
    ) {
        let model = AnalyticModel::calibrated();
        let scaled = WorkloadFeatures {
            rows: w.rows * k,
            nnz: w.nnz * k,
            partial_products: w.partial_products * k,
            output_nnz: w.output_nnz * k,
            max_row_pp: w.max_row_pp * k,
            active_cols: w.active_cols * k,
            mmh_instructions: w.mmh_instructions.map(|i| i * k),
        };
        prop_assert!(model.cycles(&config, &scaled) >= model.cycles(&config, &w));
    }

    /// Cycle estimates never depend on clock frequency (only seconds do),
    /// and they only read the MMH-instruction slot the config selects.
    #[test]
    fn cycles_are_frequency_independent(
        config in arb_config(),
        w in arb_workload(),
        ghz in 0.5f64..4.0,
    ) {
        let model = AnalyticModel::calibrated();
        let clocked = config.clone().with_frequency_ghz(ghz);
        prop_assert_eq!(
            model.cycles(&config, &w).to_bits(),
            model.cycles(&clocked, &w).to_bits()
        );
        let mut other_slots = w;
        let keep = mmh_tile_index(config.mmh_tile);
        for (i, slot) in other_slots.mmh_instructions.iter_mut().enumerate() {
            if i != keep {
                *slot = slot.wrapping_mul(3) + 17;
            }
        }
        prop_assert_eq!(
            model.cycles(&config, &w).to_bits(),
            model.cycles(&config, &other_slots).to_bits()
        );
    }
}

/// Regenerates a dataset's paper-scale cycle-simulator matrix: the same
/// deterministic recipe as `neura_bench::sim_matrix_at_fidelity` at
/// shrink 1, as `xval` runs it (this crate sits below `neura_bench`, so the
/// formula is restated here; the seed and the 512× / [256, 2000] band are
/// pinned by the xval grid).
fn paper_scale_matrix(name: &str) -> neura_sparse::CsrMatrix {
    let dataset = DatasetCatalog::by_name(name).expect("dataset is in the catalog");
    let target_nodes = (dataset.nodes / 512).clamp(256, 2_000);
    let scale = (dataset.nodes / target_nodes).max(1);
    dataset.generate_scaled(scale, 0xDA7A + dataset.nodes as u64).to_csr()
}

/// The pinned error bound holds on a seeded sample of the validation
/// grid: size-matched cells re-priced here against a real cycle-level
/// simulation, each within the xval golden's worst-case bound. (The full
/// 60-cell sweep lives in `xval`; this samples the cheap-to-simulate
/// corner so the bound is re-checked on every `cargo test`.)
#[test]
fn analytic_error_stays_within_pinned_bound_on_seeded_grid() {
    const WORST_BOUND_PCT: f64 = 15.0;
    let cells = [
        ("facebook", TileSize::Tile4, HbmPreset::Hbm2),
        ("wiki-Vote", TileSize::Tile4, HbmPreset::Ddr4),
        ("ca-CondMat", TileSize::Tile4, HbmPreset::Hbm2DualStack),
        ("cage12", TileSize::Tile16, HbmPreset::Hbm2),
        ("m133-b3", TileSize::Tile16, HbmPreset::Ddr4),
    ];
    let model = AnalyticModel::calibrated();
    for (dataset, tile, hbm) in cells {
        let a = paper_scale_matrix(dataset);
        let config = ChipConfig::for_tile_size(tile).with_hbm_preset(hbm);
        let features = WorkloadFeatures::from_square(&a);
        let analytic = model.cycles(&config, &features);
        let mut chip = Accelerator::new(config);
        let oracle = chip.run_spgemm(&a, &a).expect("simulation drains").report.total_cycles;
        let err_pct = (analytic - oracle as f64).abs() / oracle as f64 * 100.0;
        assert!(
            err_pct <= WORST_BOUND_PCT,
            "{dataset}/{}/{}: analytic {analytic:.0} vs cycle {oracle} -> {err_pct:.2}% \
             exceeds the {WORST_BOUND_PCT}% bound",
            tile.label(),
            hbm.name(),
        );
    }
}
