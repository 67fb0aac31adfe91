//! Tier-1 golden for the chip cycle loop itself.
//!
//! One fixed 64-node power-law matrix is squared on every
//! (tile × eviction policy × compute mapping) cell and a rendering of the
//! [`ExecutionReport`] that names every field — cycles, busy/stall/idle,
//! both histograms (bin labels, percentages, count and mean), per-core and
//! per-mem work, NoC hops and latency, DRAM latency and bytes, peak
//! HashPad occupancy — is pinned by hash. The loop's values were captured
//! before it was made activity-proportional, so any host-side speed-up of
//! the run loop behind `Accelerator::run_spgemm` that moves a simulated
//! statistic fails here rather than only in `just profile` /
//! `just xval`, which tier-1 does not run.
//!
//! A second table pins the stall-bound regime the power-law cells barely
//! reach: a banded 96-node matrix on (Tile-16, Tile-64) × (hbm2, ddr4) ×
//! eviction policy, where most core ticks find every pipeline waiting on
//! DRAM. Its values were captured before stalled cores took the O(1) tick.
//!
//! The report rendering destructures the struct without `..`, so a field
//! added to [`ExecutionReport`] does not compile here until it is named,
//! and a field derived out of a type the report holds moves no hash. The
//! hashes of both tables were taken with this rendering on 7f7608e, where
//! [`Histogram`] still kept a minimum and a maximum that its `Debug` showed
//! and that the rendering leaves out.
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
use neura_sim::Histogram;
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

fn run(a: &CsrMatrix, config: &ChipConfig) -> (u64, NamedReport) {
    let report =
        Accelerator::new(config.clone()).run_spgemm(a, a).expect("simulation drains").report;
    (report.total_cycles, NamedReport(report))
}

/// An [`ExecutionReport`] whose `Debug` rendering names every field.
struct NamedReport(ExecutionReport);

/// One line naming what `histogram` shows of its samples.
fn named_histogram(f: &mut fmt::Formatter<'_>, name: &str, histogram: &Histogram) -> fmt::Result {
    writeln!(
        f,
        "{name}: bin_labels={:?} percentages={:?} count={} mean={:?}",
        histogram.bin_labels(),
        histogram.percentages(),
        histogram.count(),
        histogram.mean()
    )
}

impl fmt::Debug for NamedReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ExecutionReport {
            total_cycles,
            mmh_instructions,
            hacc_instructions,
            core_busy_cycles,
            core_stall_cycles,
            core_idle_cycles,
            cpi,
            ipc,
            mmh_cpi_histogram,
            hacc_latency_histogram,
            core_work_histogram,
            mem_work_histogram,
            avg_in_flight_mem,
            peak_in_flight_mem,
            dram_bytes_read,
            dram_bytes_written,
            mean_dram_latency,
            noc_packets,
            noc_mean_latency,
            noc_mean_hops,
            peak_hashpad_occupancy,
            hashpad_full_stalls,
            hash_collisions,
            evictions,
            execution_seconds,
            gops,
            core_utilization,
        } = &self.0;
        writeln!(
            f,
            "total_cycles={total_cycles} mmh_instructions={mmh_instructions} \
             hacc_instructions={hacc_instructions} core_busy_cycles={core_busy_cycles} \
             core_stall_cycles={core_stall_cycles} core_idle_cycles={core_idle_cycles} \
             cpi={cpi:?} ipc={ipc:?}"
        )?;
        named_histogram(f, "mmh_cpi_histogram", mmh_cpi_histogram)?;
        named_histogram(f, "hacc_latency_histogram", hacc_latency_histogram)?;
        writeln!(f, "core_work_histogram={core_work_histogram:?}")?;
        writeln!(f, "mem_work_histogram={mem_work_histogram:?}")?;
        writeln!(
            f,
            "avg_in_flight_mem={avg_in_flight_mem:?} peak_in_flight_mem={peak_in_flight_mem} \
             dram_bytes_read={dram_bytes_read} dram_bytes_written={dram_bytes_written} \
             mean_dram_latency={mean_dram_latency:?}"
        )?;
        writeln!(
            f,
            "noc_packets={noc_packets} noc_mean_latency={noc_mean_latency:?} \
             noc_mean_hops={noc_mean_hops:?}"
        )?;
        write!(
            f,
            "peak_hashpad_occupancy={peak_hashpad_occupancy} \
             hashpad_full_stalls={hashpad_full_stalls} hash_collisions={hash_collisions} \
             evictions={evictions} execution_seconds={execution_seconds:?} gops={gops:?} \
             core_utilization={core_utilization:?}"
        )
    }
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

/// `(total_cycles, fnv1a(NamedReport))` per cell, in `cells()` order.
const GOLDEN: [(u64, u64); 24] = [
    (1566, 0x7f71340042abe2c7), // Tile-4 Rolling ring
    (1316, 0x773f3ec7d47fb4f9), // Tile-4 Rolling modular
    (1342, 0x5c0ccf2c0060f348), // Tile-4 Rolling random-table
    (1370, 0x897d33ee3217a7aa), // Tile-4 Rolling drhm
    (1710, 0x297b9601478f2886), // Tile-4 Barrier ring
    (1582, 0xf0f81f432d83c813), // Tile-4 Barrier modular
    (1780, 0xaeaba1cf05f4fb56), // Tile-4 Barrier random-table
    (1639, 0xa3056b41570e8fe8), // Tile-4 Barrier drhm
    (2790, 0x250285925740accf), // Tile-16 Rolling ring
    (1371, 0x15a662c48b9dd3ce), // Tile-16 Rolling modular
    (1501, 0x787d38dbde61bb09), // Tile-16 Rolling random-table
    (1159, 0xd74aba020cb6927d), // Tile-16 Rolling drhm
    (3053, 0xfef44394d4ecced5), // Tile-16 Barrier ring
    (1546, 0x44cd43161d6a44fe), // Tile-16 Barrier modular
    (1697, 0x479f8d3d5eb28e27), // Tile-16 Barrier random-table
    (1549, 0xcf95c99081b4c03a), // Tile-16 Barrier drhm
    (3930, 0x1304dca06656fa33), // Tile-64 Rolling ring
    (1291, 0x88c188a33b7f3745), // Tile-64 Rolling modular
    (1350, 0x2a37c0d7972643da), // Tile-64 Rolling random-table
    (1141, 0x9491ee1ed5e25d11), // Tile-64 Rolling drhm
    (5370, 0x73fa9d797c18373a), // Tile-64 Barrier ring
    (1651, 0x76f1d00a5ca6042a), // Tile-64 Barrier modular
    (1646, 0xa45203e34bcb623a), // Tile-64 Barrier random-table
    (1685, 0x729c4690d6653b31), // Tile-64 Barrier drhm
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

/// `(total_cycles, fnv1a(NamedReport))` per stall-bound cell, in loop order.
const GOLDEN_STALLED: [(u64, u64); 8] = [
    (2289, 0x8aea01ef01fc2b20), // Tile-16 hbm2 Rolling
    (3337, 0x3d84f0c5973e8490), // Tile-16 hbm2 Barrier
    (3206, 0xfc98315432b9ea1f), // Tile-16 ddr4 Rolling
    (4587, 0x93e064b9fb2abbec), // Tile-16 ddr4 Barrier
    (1978, 0x52763d4af96d2bc2), // Tile-64 hbm2 Rolling
    (3162, 0xc5480bcf1d3447bc), // Tile-64 hbm2 Barrier
    (3021, 0x7be2c28de62dbeb6), // Tile-64 ddr4 Rolling
    (4454, 0x90118609559068a0), // Tile-64 ddr4 Barrier
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
    for NamedReport(report) in assert_pinned(cells, &GOLDEN_STALLED, |config| run(&a, config)) {
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
