//! Tier-1 golden for the chip cycle loop itself.
//!
//! One fixed 64-node power-law matrix is squared on every
//! (tile × eviction policy × compute mapping) cell and the `Debug`
//! rendering of the whole [`ExecutionReport`] — cycles, busy/stall/idle,
//! both histograms, per-core and per-mem work, NoC hops and latency, DRAM
//! latency and bytes, peak HashPad occupancy — is pinned by hash. The
//! values were captured before the loop was made activity-proportional,
//! so any host-side speed-up of the run loop behind
//! `Accelerator::run_spgemm` that moves a simulated statistic fails here
//! rather than only in `just profile` / `just xval`, which tier-1 does
//! not run.
//!
//! A second table pins the stall-bound regime the power-law cells barely
//! reach: a banded 96-node matrix on (Tile-16, Tile-64) × (hbm2, ddr4) ×
//! eviction policy, where most core ticks find every pipeline waiting on
//! DRAM. Its values were captured before stalled cores took the O(1) tick.
//!
//! A change that *means* to alter the modelled machine re-captures the
//! tables: the failure message prints the rows to paste.

use neura_chip::accelerator::{Accelerator, ExecutionReport};
use neura_chip::config::{ChipConfig, EvictionPolicy, TileSize};
use neura_chip::mapping::MappingKind;
use neura_mem::HbmPreset;
use neura_sparse::gen::GraphGenerator;
use neura_sparse::CsrMatrix;

/// FNV-1a over the report's `Debug` text (stable across platforms and
/// std versions, unlike `DefaultHasher`).
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn run(a: &CsrMatrix, config: &ChipConfig) -> ExecutionReport {
    Accelerator::new(config.clone()).run_spgemm(a, a).expect("simulation drains").report
}

/// Runs every `(label, config)` cell on `a`, compares
/// `(total_cycles, fnv1a(Debug))` with `golden` in order and returns the
/// reports.
fn assert_pinned(
    a: &CsrMatrix,
    cells: Vec<(String, ChipConfig)>,
    golden: &[(u64, u64)],
) -> Vec<ExecutionReport> {
    assert_eq!(cells.len(), golden.len());
    let reports: Vec<ExecutionReport> = cells.iter().map(|(_, config)| run(a, config)).collect();
    let hashes: Vec<u64> = reports.iter().map(|report| fnv1a(&format!("{report:?}"))).collect();
    let table: String = reports
        .iter()
        .zip(&hashes)
        .zip(&cells)
        .map(|((report, hash), (label, _))| {
            format!("    ({}, {hash:#018x}), // {label}\n", report.total_cycles)
        })
        .collect();
    for (((report, hash), (label, _)), golden) in
        reports.iter().zip(&hashes).zip(&cells).zip(golden)
    {
        assert_eq!(
            (report.total_cycles, *hash),
            *golden,
            "{label} diverged from the pinned loop; its report is now\n{report:?}\nfull table:\n{table}"
        );
    }
    reports
}

/// `(total_cycles, fnv1a(Debug))` per cell, in `cells()` order.
const GOLDEN: [(u64, u64); 24] = [
    (1566, 0xa0cbc41abd3ed01e), // Tile-4 Rolling ring
    (1316, 0xf5bf4f98ccd153bd), // Tile-4 Rolling modular
    (1342, 0x4d227f4946571f1a), // Tile-4 Rolling random-table
    (1370, 0xdc61151d4388eb49), // Tile-4 Rolling drhm
    (1710, 0x4f9749fd3bf68515), // Tile-4 Barrier ring
    (1582, 0xcd68a9a631baa98a), // Tile-4 Barrier modular
    (1780, 0x67673af454678380), // Tile-4 Barrier random-table
    (1639, 0x32f52bd5600021d5), // Tile-4 Barrier drhm
    (2790, 0x492ef1c5d71e697e), // Tile-16 Rolling ring
    (1371, 0xc6404f189170fe2c), // Tile-16 Rolling modular
    (1501, 0xf9f7fcfc180ac43f), // Tile-16 Rolling random-table
    (1159, 0xd64815ebf3e24408), // Tile-16 Rolling drhm
    (3053, 0xd3ebaeb3075dccf0), // Tile-16 Barrier ring
    (1546, 0xcf9c9dd77db70be6), // Tile-16 Barrier modular
    (1697, 0xe5264e6a7f9ea0b1), // Tile-16 Barrier random-table
    (1549, 0x86ecce3a088909ed), // Tile-16 Barrier drhm
    (3930, 0x7523f45b2478fbf1), // Tile-64 Rolling ring
    (1291, 0x16188e12a56e9393), // Tile-64 Rolling modular
    (1350, 0x59507e2018ceb3a3), // Tile-64 Rolling random-table
    (1141, 0xb603571e1d3f4b79), // Tile-64 Rolling drhm
    (5370, 0x1de35d9b3e9cc436), // Tile-64 Barrier ring
    (1651, 0x39ee2b9742d74908), // Tile-64 Barrier modular
    (1646, 0x36c10d77bf13ce45), // Tile-64 Barrier random-table
    (1685, 0xe4dbb0ca4a864b91), // Tile-64 Barrier drhm
];

#[test]
fn execution_reports_match_the_pinned_loop() {
    let a = GraphGenerator::power_law(64, 64 * 6, 2.1, 3).generate().to_csr();
    let mut cells = Vec::new();
    for tile in TileSize::ALL {
        for eviction in [EvictionPolicy::Rolling, EvictionPolicy::Barrier] {
            for mapping in MappingKind::ALL {
                let config =
                    ChipConfig::for_tile_size(tile).with_eviction(eviction).with_mapping(mapping);
                cells.push((format!("{} {eviction:?} {}", tile.name(), mapping.name()), config));
            }
        }
    }
    assert_pinned(&a, cells, &GOLDEN);
}

/// `(total_cycles, fnv1a(Debug))` per stall-bound cell, in loop order.
const GOLDEN_STALLED: [(u64, u64); 8] = [
    (2289, 0xb0b9789385c24a8f), // Tile-16 hbm2 Rolling
    (3337, 0xabf70c6553d08178), // Tile-16 hbm2 Barrier
    (3206, 0x3f2fe6070e6dc25b), // Tile-16 ddr4 Rolling
    (4587, 0xf5cb6279277d72ae), // Tile-16 ddr4 Barrier
    (1978, 0x5764250cc636b132), // Tile-64 hbm2 Rolling
    (3162, 0x6ff52606caf67d7a), // Tile-64 hbm2 Barrier
    (3021, 0xf570bcdeb1a2037a), // Tile-64 ddr4 Rolling
    (4454, 0xd6e4c4c4e07c227a), // Tile-64 ddr4 Barrier
];

#[test]
fn stall_bound_reports_match_the_pinned_loop() {
    let a = GraphGenerator::banded(96, 6, 3).generate().to_csr();
    let mut cells = Vec::new();
    for tile in [TileSize::Tile16, TileSize::Tile64] {
        for preset in [HbmPreset::Hbm2, HbmPreset::Ddr4] {
            for eviction in [EvictionPolicy::Rolling, EvictionPolicy::Barrier] {
                let config =
                    ChipConfig::for_tile_size(tile).with_hbm_preset(preset).with_eviction(eviction);
                cells.push((format!("{} {} {eviction:?}", tile.name(), preset.name()), config));
            }
        }
    }
    for report in assert_pinned(&a, cells, &GOLDEN_STALLED) {
        assert!(
            report.core_stall_cycles > report.core_busy_cycles,
            "the cell is meant to be stall-bound: {report:?}"
        );
    }
}
