//! Property tests of the opt-in chip profiler: the guarantees
//! `neura_chip::profile` documents, checked over generated
//! (dataset × tile × HBM × window-width) cells — profiling changes
//! nothing about the run it observes, the windowed timeline covers the run
//! (`check_conservation`: window by window, busy + stall + idle is
//! `cores × window.cycles`), its folds equal the `ExecutionReport`, which
//! counts independently (the busy/stall/idle split, the stall buckets, the
//! retire counts, the HBM in-flight peak and the channel count), and the
//! hop distribution carries exactly the NoC's delivered traffic. The run
//! loop ticks only the units that can change state; one hand-picked cell
//! holds it to the paths where that is easiest to get wrong.

use neura_chip::accelerator::{Accelerator, SpgemmRun};
use neura_chip::config::{ChipConfig, EvictionPolicy, HbmPreset, TileSize};
use neura_chip::profile::{Profile, ProfileWindow, Profiler, StallCause};
use neura_sparse::{CsrMatrix, DatasetCatalog};
use proptest::prelude::*;

/// Datasets cheap enough to cycle-simulate hundreds of times in a test.
const DATASETS: [&str; 3] = ["cora", "wiki-Vote", "facebook"];

/// A small deterministic instance of a catalog dataset (~128 nodes), the
/// same generator recipe the bench harness uses at smoke fidelity.
fn small_matrix(name: &str) -> CsrMatrix {
    let dataset = DatasetCatalog::by_name(name).expect("dataset is in the catalog");
    let scale = (dataset.nodes / 128).max(1);
    dataset.generate_scaled(scale, 0xDA7A + dataset.nodes as u64).to_csr()
}

/// Runs one profiled SpGEMM and returns the run plus its sealed profile.
fn run_profiled(config: ChipConfig, a: &CsrMatrix, window_cycles: u64) -> (SpgemmRun, Profile) {
    let mut profiler = Profiler::new(window_cycles);
    let mut chip = Accelerator::new(config);
    let run = chip.run_spgemm_profiled(a, a, Some(&mut profiler)).expect("simulation drains");
    (run, profiler.into_profile())
}

/// One cell of the test grid: a dataset on a (tile, HBM) configuration.
fn arb_cell() -> impl Strategy<Value = (&'static str, ChipConfig)> {
    (0usize..DATASETS.len(), 0usize..TileSize::ALL.len(), 0usize..HbmPreset::ALL.len()).prop_map(
        |(d, tile, hbm)| {
            let config =
                ChipConfig::for_tile_size(TileSize::ALL[tile]).with_hbm_preset(HbmPreset::ALL[hbm]);
            (DATASETS[d], config)
        },
    )
}

proptest! {
    // Each case runs cycle-level simulations, so the suite trades case
    // count for grid coverage (the axes are small and discrete anyway).
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Profiling is invisible to the run it observes: the profiled entry
    /// point produces a bit-identical product matrix and execution report,
    /// and profiling the same run twice yields equal profiles.
    #[test]
    fn profiling_on_is_invisible_to_the_run((dataset, config) in arb_cell()) {
        let a = small_matrix(dataset);
        let baseline =
            Accelerator::new(config.clone()).run_spgemm(&a, &a).expect("simulation drains");
        let (profiled, profile) = run_profiled(config.clone(), &a, 256);
        prop_assert_eq!(&baseline.product, &profiled.product);
        prop_assert_eq!(format!("{:?}", baseline.report), format!("{:?}", profiled.report));
        let (_, again) = run_profiled(config, &a, 256);
        prop_assert_eq!(profile, again);
    }

    /// The conservation invariants hold at any window width: each window
    /// covers its cores and cycles, the windows' folds match the report's
    /// aggregate counters (split, stall buckets, retire counts, HBM peak),
    /// the idle epilogue closes `cores × total_cycles`, there is one queue
    /// peak per channel, and no window is wider than asked.
    #[test]
    fn profile_conserves_cycles_and_instructions(
        (dataset, config) in arb_cell(),
        window_cycles in 1u64..3000,
    ) {
        let a = small_matrix(dataset);
        let tiles = config.tiles;
        let (run, profile) = run_profiled(config, &a, window_cycles);
        prop_assert!(profile.check_conservation().is_ok(), "{:?}", profile.check_conservation());
        prop_assert_eq!(profile.total_cycles, run.report.total_cycles);
        prop_assert_eq!(profile.total(|w| w.busy), run.report.core_busy_cycles);
        prop_assert_eq!(profile.total(ProfileWindow::stall), run.report.core_stall_cycles);
        prop_assert_eq!(profile.total(|w| w.idle), run.report.core_idle_cycles);
        prop_assert_eq!(profile.total(|w| w.mmh_retired), run.report.mmh_instructions);
        prop_assert_eq!(profile.total(|w| w.hacc_retired), run.report.hacc_instructions);
        let bucket_sum: u64 =
            StallCause::ALL.iter().map(|&c| profile.total(|w| w.stall_by_cause(c))).sum();
        prop_assert_eq!(bucket_sum, run.report.core_stall_cycles);
        let report_split = run.report.core_busy_cycles
            + run.report.core_stall_cycles
            + run.report.core_idle_cycles;
        prop_assert_eq!(
            report_split + profile.epilogue_idle(),
            profile.cores * profile.total_cycles
        );
        prop_assert_eq!(profile.hbm_in_flight_peak(), run.report.peak_in_flight_mem as u64);
        prop_assert_eq!(profile.channel_queue_peaks.len(), tiles);
        prop_assert!(profile.windows.iter().all(|w| w.cycles <= window_cycles));
        for window in &profile.windows {
            prop_assert_eq!(
                window.busy + window.stall() + window.idle,
                profile.cores * window.cycles
            );
        }
        let covered: u64 = profile.total(|w| w.cycles);
        prop_assert!(covered <= profile.total_cycles, "windows cover at most the run");
    }

    /// The hop distribution is exactly the NoC's delivered traffic: its
    /// mass is the delivered packet count and its weighted total matches
    /// the report's mean hop count (`total_hops = mean × delivered`).
    #[test]
    fn hop_distribution_matches_noc_stats((dataset, config) in arb_cell()) {
        let a = small_matrix(dataset);
        let (run, profile) = run_profiled(config, &a, 512);
        prop_assert_eq!(profile.noc_delivered(), run.report.noc_packets);
        prop_assert_eq!(profile.hops().count(), run.report.noc_packets);
        let total_hops = (run.report.noc_mean_hops * run.report.noc_packets as f64).round() as u64;
        prop_assert_eq!(profile.hops_total(), total_hops);
    }
}

/// Barrier eviction on a Tile-64 whose HashPads hold eight lines. The 90 %
/// pressure barrier fires all through the run, over a hundred times on a
/// NeuraMem that nothing reached and that buffers nothing that cycle — the
/// loop visits it only because the barrier released lines — and a full pad
/// stalls its NeuraMem. At window width 1 every cycle must account for
/// every core, ticked or asleep; the cycle count was captured at a1118a5,
/// where the loop still visited every core and NeuraMem every cycle.
#[test]
fn pressure_barriers_on_unvisited_neuramems_keep_the_pinned_run() {
    let a = small_matrix("cora");
    let mut config = ChipConfig::tile_64().with_eviction(EvictionPolicy::Barrier);
    config.mem.hashlines = 8;
    let plain = Accelerator::new(config.clone()).run_spgemm(&a, &a).expect("simulation drains");
    let (run, profile) = run_profiled(config, &a, 1);
    assert_eq!(format!("{:?}", plain.report), format!("{:?}", run.report));
    assert_eq!(plain.product, run.product);
    assert_eq!(run.report.total_cycles, 2333);
    assert_eq!(run.report.evictions as usize, run.product.nnz());
    assert_eq!(run.report.peak_hashpad_occupancy, 8, "the pads never came under pressure");
    assert!(run.report.hashpad_full_stalls > 0);
    assert_eq!(profile.check_conservation(), Ok(()));
    for window in &profile.windows {
        assert_eq!(window.cycles, 1);
        assert_eq!(window.busy + window.stall() + window.idle, profile.cores);
    }
    assert_eq!(profile.total(|w| w.idle), run.report.core_idle_cycles);
    assert_eq!(profile.total(ProfileWindow::stall), run.report.core_stall_cycles);
}

#[test]
#[should_panic(expected = "window width must be positive")]
fn zero_window_width_panics() {
    let _ = Profiler::new(0);
}

#[test]
#[should_panic(expected = "profiler was not run")]
fn unrun_profiler_panics_on_into_profile() {
    let _ = Profiler::new(1024).into_profile();
}
