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
//! A third table pins the *observed* side, which the reports do not
//! show: a rendering of [`Profile`] that names each field it keeps — the
//! scalars, every window's counters and peaks, the hop counts, the DRAM
//! latency histogram and the channel queue peaks — of
//! `run_spgemm_profiled` at two window widths on four of the cells above.
//! Naming the fields means a field added to or derived out of `Profile`
//! moves no hash until the rendering names it. Its values were captured
//! on 1d6abaa, where the run totals were still stored fields beside the
//! windows, so the change that made them folds is judged against the
//! profiles it replaced.
//!
//! A change that *means* to alter the modelled machine re-captures the
//! tables: the failure message prints the rows to paste.

use neura_chip::accelerator::{Accelerator, ExecutionReport};
use neura_chip::config::{ChipConfig, EvictionPolicy, TileSize};
use neura_chip::mapping::MappingKind;
use neura_chip::profile::{Profile, Profiler};
use neura_mem::HbmPreset;
use neura_sparse::gen::GraphGenerator;
use neura_sparse::CsrMatrix;
use std::fmt;

/// FNV-1a over a `Debug` text (stable across platforms and
/// std versions, unlike `DefaultHasher`).
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn run(a: &CsrMatrix, config: &ChipConfig) -> (u64, ExecutionReport) {
    let report =
        Accelerator::new(config.clone()).run_spgemm(a, a).expect("simulation drains").report;
    (report.total_cycles, report)
}

/// A [`Profile`] whose `Debug` rendering names each field the golden pins.
struct Named(Profile);

impl fmt::Debug for Named {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = &self.0;
        writeln!(
            f,
            "window_cycles={} total_cycles={} cores={} mems={}",
            p.window_cycles, p.total_cycles, p.cores, p.mems
        )?;
        for w in &p.windows {
            writeln!(
                f,
                "start_cycle={} cycles={} busy={} idle={} stall_by={:?} mmh_retired={} \
                 hacc_retired={} pad_occupancy_peak={} pad_full_stalls={} \
                 noc_in_flight_peak={} hbm_in_flight_peak={} hbm_queue_peak={}",
                w.start_cycle,
                w.cycles,
                w.busy,
                w.idle,
                w.stall_by,
                w.mmh_retired,
                w.hacc_retired,
                w.pad_occupancy_peak,
                w.pad_full_stalls,
                w.noc_in_flight_peak,
                w.hbm_in_flight_peak,
                w.hbm_queue_peak
            )?;
        }
        writeln!(f, "hop_counts={:?}", p.hop_counts)?;
        writeln!(f, "dram_latency={:?}", p.dram_latency)?;
        write!(f, "channel_queue_peaks={:?}", p.channel_queue_peaks)
    }
}

fn run_profiled(a: &CsrMatrix, config: &ChipConfig, window_cycles: u64) -> (u64, Named) {
    let mut profiler = Profiler::new(window_cycles);
    Accelerator::new(config.clone())
        .run_spgemm_profiled(a, a, Some(&mut profiler))
        .expect("simulation drains");
    let profile = profiler.into_profile();
    (profile.total_cycles, Named(profile))
}

/// Runs every `(label, cell)` through `run`, compares the
/// `(total_cycles, fnv1a(Debug))` of what it returns with `golden` in
/// order and returns the results.
fn assert_pinned<C, T: std::fmt::Debug>(
    cells: Vec<(String, C)>,
    golden: &[(u64, u64)],
    run: impl Fn(&C) -> (u64, T),
) -> Vec<T> {
    assert_eq!(cells.len(), golden.len());
    let results: Vec<(u64, T)> = cells.iter().map(|(_, cell)| run(cell)).collect();
    let hashes: Vec<u64> =
        results.iter().map(|(_, result)| fnv1a(&format!("{result:?}"))).collect();
    let table: String = results
        .iter()
        .zip(&hashes)
        .zip(&cells)
        .map(|(((cycles, _), hash), (label, _))| {
            format!("    ({cycles}, {hash:#018x}), // {label}\n")
        })
        .collect();
    for ((((cycles, result), hash), (label, _)), golden) in
        results.iter().zip(&hashes).zip(&cells).zip(golden)
    {
        assert_eq!(
            (*cycles, *hash),
            *golden,
            "{label} diverged from the pinned loop; it is now\n{result:?}\nfull table:\n{table}"
        );
    }
    results.into_iter().map(|(_, result)| result).collect()
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
    assert_pinned(cells, &GOLDEN, |config| run(&a, config));
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
    for report in assert_pinned(cells, &GOLDEN_STALLED, |config| run(&a, config)) {
        assert!(
            report.core_stall_cycles > report.core_busy_cycles,
            "the cell is meant to be stall-bound: {report:?}"
        );
    }
}

/// `(total_cycles, fnv1a(Named))` per profiled cell and window width.
const GOLDEN_PROFILES: [(u64, u64); 8] = [
    (1370, 0xf5ae69e8a7527d63), // Tile-4 Rolling drhm / 256
    (1370, 0x5ca56d03d59ae4b9), // Tile-4 Rolling drhm / 1000
    (3053, 0x2245c538b582daab), // Tile-16 Barrier ring / 256
    (3053, 0xe055bb2a34aee451), // Tile-16 Barrier ring / 1000
    (3021, 0xaa912e6a4318ff82), // Tile-64 ddr4 Rolling / 256
    (3021, 0x6279fef93abca042), // Tile-64 ddr4 Rolling / 1000
    (4454, 0x3587b4f8437504c7), // Tile-64 ddr4 Barrier / 256
    (4454, 0x6153f8a8547faeeb), // Tile-64 ddr4 Barrier / 1000
];

#[test]
fn profiles_match_the_pinned_loop() {
    let power_law = GraphGenerator::power_law(64, 64 * 6, 2.1, 3).generate().to_csr();
    let banded = GraphGenerator::banded(96, 6, 3).generate().to_csr();
    let stalled =
        |eviction| ChipConfig::tile_64().with_hbm_preset(HbmPreset::Ddr4).with_eviction(eviction);
    let configs = [
        ("Tile-4 Rolling drhm", &power_law, ChipConfig::tile_4()),
        (
            "Tile-16 Barrier ring",
            &power_law,
            ChipConfig::tile_16()
                .with_eviction(EvictionPolicy::Barrier)
                .with_mapping(MappingKind::Ring),
        ),
        ("Tile-64 ddr4 Rolling", &banded, stalled(EvictionPolicy::Rolling)),
        ("Tile-64 ddr4 Barrier", &banded, stalled(EvictionPolicy::Barrier)),
    ];
    let mut cells = Vec::new();
    for (label, a, config) in configs {
        for window_cycles in [256, 1_000] {
            cells.push((format!("{label} / {window_cycles}"), (a, config.clone(), window_cycles)));
        }
    }
    assert_pinned(cells, &GOLDEN_PROFILES, |(a, config, window_cycles)| {
        run_profiled(a, config, *window_cycles)
    });
}
