//! NeuraChip configurations (Tables 2 and 3 of the paper).

use crate::mapping::MappingKind;
pub use neura_mem::HbmPreset;
use neura_mem::HbmTiming;
use neura_noc::TorusTopology;
use serde::{Deserialize, Serialize};

/// The three evaluated tile sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TileSize {
    /// Tile-4: 1 NeuraCore and 1 NeuraMem per tile.
    Tile4,
    /// Tile-16: 4 NeuraCores and 4 NeuraMems per tile (headline configuration).
    Tile16,
    /// Tile-64: 16 NeuraCores and 16 NeuraMems per tile.
    Tile64,
}

impl TileSize {
    /// All evaluated tile sizes, smallest first.
    pub const ALL: [TileSize; 3] = [TileSize::Tile4, TileSize::Tile16, TileSize::Tile64];

    /// Display name as used in the paper ("Tile-4", …).
    pub fn name(&self) -> &'static str {
        match self {
            TileSize::Tile4 => "Tile-4",
            TileSize::Tile16 => "Tile-16",
            TileSize::Tile64 => "Tile-64",
        }
    }

    /// Compact lower-case label ("t4", "t16", "t64") — the single spelling
    /// used by config fingerprints, fleet-mix IDs and artifact record IDs.
    pub fn label(&self) -> &'static str {
        match self {
            TileSize::Tile4 => "t4",
            TileSize::Tile16 => "t16",
            TileSize::Tile64 => "t64",
        }
    }
}

/// Per-NeuraCore configuration (Table 2, "NeuraCore" rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NeuraCoreConfig {
    /// Pipeline registers per pipeline.
    pub pipeline_registers: usize,
    /// Number of pipelines.
    pub pipelines: usize,
    /// Number of multipliers (partial products computable per cycle, per core).
    pub multipliers: usize,
    /// Number of address generators.
    pub address_generators: usize,
    /// Router ports.
    pub ports: usize,
    /// Capacity of the instruction buffer feeding the core.
    pub instruction_buffer: usize,
}

/// Per-NeuraMem configuration (Table 2, "NeuraMem" rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NeuraMemConfig {
    /// TAG comparators per hash engine.
    pub comparators: usize,
    /// Number of hash engines.
    pub hash_engines: usize,
    /// Hash-lines in the HashPad.
    pub hashlines: usize,
    /// Accumulators (HACC instructions retired per cycle, per unit).
    pub accumulators: usize,
    /// Router ports.
    pub ports: usize,
    /// Capacity of the instruction buffer feeding the unit.
    pub instruction_buffer: usize,
}

impl NeuraMemConfig {
    /// HashPad size in bytes: each hash-line stores TAG (4B), DATA (4B),
    /// COUNTER (2B) plus an ID/valid byte, rounded to 12 bytes per line.
    pub(crate) fn hashpad_bytes(&self) -> usize {
        self.hashlines * 12
    }
}

/// Whether completed hash-lines are evicted immediately (rolling) or held
/// until a row barrier (the `HACC-BE` baseline of Figure 15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EvictionPolicy {
    /// Rolling eviction (`HACC-RE`): evict as soon as the counter hits zero.
    Rolling,
    /// Barrier eviction (`HACC-BE`): evict completed lines only at row barriers.
    Barrier,
}

/// Full accelerator configuration (Table 3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChipConfig {
    /// Which named tile size this configuration corresponds to.
    pub tile_size: TileSize,
    /// Number of tiles (always 8 — one per HBM channel).
    pub tiles: usize,
    /// NeuraCores per tile.
    pub cores_per_tile: usize,
    /// NeuraMems per tile.
    pub mems_per_tile: usize,
    /// Routers per tile.
    pub routers_per_tile: usize,
    /// Per-core configuration.
    pub core: NeuraCoreConfig,
    /// Per-mem configuration.
    pub mem: NeuraMemConfig,
    /// Clock frequency in GHz.
    pub frequency_ghz: f64,
    /// HBM timing per channel.
    pub hbm: HbmTiming,
    /// Memory-controller queue capacity.
    pub mem_queue_capacity: usize,
    /// Router packet-buffer capacity.
    pub router_buffer: usize,
    /// Compute-mapping algorithm for accumulation placement.
    pub mapping: MappingKind,
    /// Eviction policy of the hash pads.
    pub eviction: EvictionPolicy,
    /// Tile height of the MMH instruction (1, 2, 4 or 8).
    pub mmh_tile: u8,
    /// Seed for every stochastic decision (DRHM reseeds, random mapping).
    pub seed: u64,
}

impl ChipConfig {
    /// The Tile-4 configuration of Tables 2/3.
    pub fn tile_4() -> Self {
        ChipConfig {
            tile_size: TileSize::Tile4,
            tiles: 8,
            cores_per_tile: 1,
            mems_per_tile: 1,
            routers_per_tile: 4,
            core: NeuraCoreConfig {
                pipeline_registers: 4,
                pipelines: 2,
                multipliers: 2,
                address_generators: 1,
                ports: 4,
                instruction_buffer: 8,
            },
            mem: NeuraMemConfig {
                comparators: 1,
                hash_engines: 2,
                hashlines: 4096,
                accumulators: 128,
                ports: 4,
                instruction_buffer: 16,
            },
            frequency_ghz: 1.0,
            hbm: HbmTiming::hbm2(),
            mem_queue_capacity: 64,
            router_buffer: 16,
            mapping: MappingKind::Drhm,
            eviction: EvictionPolicy::Rolling,
            mmh_tile: 4,
            seed: 0xC0FFEE,
        }
    }

    /// The Tile-16 configuration (the paper's headline chip).
    pub fn tile_16() -> Self {
        ChipConfig {
            tile_size: TileSize::Tile16,
            tiles: 8,
            cores_per_tile: 4,
            mems_per_tile: 4,
            routers_per_tile: 8,
            core: NeuraCoreConfig {
                pipeline_registers: 8,
                pipelines: 4,
                multipliers: 4,
                address_generators: 2,
                ports: 4,
                instruction_buffer: 16,
            },
            mem: NeuraMemConfig {
                comparators: 4,
                hash_engines: 4,
                hashlines: 2048,
                accumulators: 256,
                ports: 4,
                instruction_buffer: 32,
            },
            ..Self::tile_4()
        }
    }

    /// The Tile-64 configuration.
    pub fn tile_64() -> Self {
        ChipConfig {
            tile_size: TileSize::Tile64,
            tiles: 8,
            cores_per_tile: 16,
            mems_per_tile: 16,
            routers_per_tile: 32,
            core: NeuraCoreConfig {
                pipeline_registers: 16,
                pipelines: 8,
                multipliers: 8,
                address_generators: 2,
                ports: 4,
                instruction_buffer: 32,
            },
            mem: NeuraMemConfig {
                comparators: 8,
                hash_engines: 8,
                hashlines: 2048,
                accumulators: 512,
                ports: 4,
                instruction_buffer: 64,
            },
            ..Self::tile_4()
        }
    }

    /// Configuration for a named tile size.
    pub fn for_tile_size(tile: TileSize) -> Self {
        match tile {
            TileSize::Tile4 => Self::tile_4(),
            TileSize::Tile16 => Self::tile_16(),
            TileSize::Tile64 => Self::tile_64(),
        }
    }

    /// Overrides the compute-mapping algorithm.
    pub fn with_mapping(mut self, mapping: MappingKind) -> Self {
        self.mapping = mapping;
        self
    }

    /// Overrides the eviction policy.
    pub fn with_eviction(mut self, eviction: EvictionPolicy) -> Self {
        self.eviction = eviction;
        self
    }

    /// Overrides the MMH tile height.
    ///
    /// # Panics
    ///
    /// Panics if `tile` is not one of 1, 2, 4, 8.
    pub fn with_mmh_tile(mut self, tile: u8) -> Self {
        assert!(matches!(tile, 1 | 2 | 4 | 8), "MMH tile height must be 1, 2, 4 or 8");
        self.mmh_tile = tile;
        self
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the NeuraCore count per tile.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn with_cores_per_tile(mut self, cores: usize) -> Self {
        assert!(cores >= 1, "a tile needs at least one NeuraCore");
        self.cores_per_tile = cores;
        self
    }

    /// Overrides the router packet-buffer capacity.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero (a router must buffer at least one packet).
    pub fn with_router_buffer(mut self, slots: usize) -> Self {
        assert!(slots >= 1, "router buffer needs at least one slot");
        self.router_buffer = slots;
        self
    }

    /// Overrides the memory-controller queue capacity.
    ///
    /// # Panics
    ///
    /// Panics if `slots` is zero.
    pub fn with_mem_queue_capacity(mut self, slots: usize) -> Self {
        assert!(slots >= 1, "memory queue needs at least one slot");
        self.mem_queue_capacity = slots;
        self
    }

    /// Overrides the clock frequency.
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is not finite and positive.
    pub fn with_frequency_ghz(mut self, ghz: f64) -> Self {
        assert!(ghz.is_finite() && ghz > 0.0, "frequency must be finite and positive");
        self.frequency_ghz = ghz;
        self
    }

    /// Overrides the HBM timing with a named preset.
    pub fn with_hbm_preset(mut self, preset: HbmPreset) -> Self {
        self.hbm = preset.timing();
        self
    }

    /// Total NeuraCores in the chip.
    pub fn total_cores(&self) -> usize {
        self.tiles * self.cores_per_tile
    }

    /// Total NeuraMems in the chip.
    pub fn total_mems(&self) -> usize {
        self.tiles * self.mems_per_tile
    }

    /// Total routers in the chip.
    pub fn total_routers(&self) -> usize {
        self.tiles * self.routers_per_tile
    }

    /// Total pipelines across all NeuraCores.
    pub fn total_pipelines(&self) -> usize {
        self.total_cores() * self.core.pipelines
    }

    /// Cycles a run may pass without a progress event before it is
    /// [`Wedged`](crate::accelerator::ChipError::Wedged) — derived from the
    /// chip, not a knob.
    ///
    /// A machine that is still live waits longest for its next event (a
    /// dispatch, an `MMH` retired or `HACC` emitted, a NoC delivery, a
    /// `HACC` accumulated or line evicted, a DRAM response) when a request
    /// waits at its controller behind all the controller can hold before
    /// it: a full queue of `mem_queue_capacity` requests and the four
    /// operand reads each pipeline of the tile has outstanding at most.
    /// Each is at worst a row conflict, the fixed PHY latency and a burst
    /// on the bus; what the response unblocks then crosses at most the
    /// torus diameter. The paper's Tile-16 on HBM2 gets
    /// (64 + 4 · 16) × (54 + 20 + 4) + 8 = 9 992 cycles. No draining run of
    /// the paper artifacts, `xval`, `profile`, `tune`, `serve` or the test
    /// suite goes more than 204 cycles without an event, and none comes
    /// within a 49th of its own patience.
    pub fn patience(&self) -> u64 {
        let hbm = &self.hbm;
        let burst = hbm.burst_bytes.div_ceil(hbm.bytes_per_cycle.max(1)) as u64;
        let worst_access = hbm.row_conflict_latency + hbm.base_latency + burst;
        let ahead = self.mem_queue_capacity + 4 * self.cores_per_tile * self.core.pipelines;
        let torus = TorusTopology::for_nodes(self.total_cores() + self.total_mems());
        ahead as u64 * worst_access + torus.diameter() as u64
    }

    /// Total hash engines across all NeuraMems.
    pub fn total_hash_engines(&self) -> usize {
        self.total_mems() * self.mem.hash_engines
    }

    /// Total TAG comparators across all NeuraMems.
    pub fn total_comparators(&self) -> usize {
        self.total_hash_engines() * self.mem.comparators
    }

    /// Total HashPad capacity in megabytes (Table 3 row "Total HashPad Size").
    pub fn total_hashpad_mb(&self) -> f64 {
        self.total_mems() as f64 * self.mem.hashpad_bytes() as f64 / (1024.0 * 1024.0)
    }

    /// Register-file bits per pipeline (Table 3 row "Pipeline Register File").
    pub fn register_file_bits_per_pipeline(&self) -> usize {
        self.core.pipeline_registers * 128
    }

    /// Peak sustained throughput in GFLOP/s as reported in Table 5
    /// (8 / 32 / 128 GFLOPs for Tile-4/16/64).
    ///
    /// The paper counts one retired partial product per NeuraCore per cycle —
    /// the rate at which HACCs can be absorbed by the NeuraMems — rather than
    /// the raw multiplier count, so the figure scales with the core count.
    pub fn peak_gflops(&self) -> f64 {
        self.total_cores() as f64 * self.frequency_ghz
    }

    /// Aggregate HBM bandwidth in GB/s.
    pub fn peak_bandwidth_gbps(&self) -> f64 {
        self.hbm.peak_bandwidth_gbps(self.frequency_ghz) * self.tiles as f64
    }

    /// Wall-clock seconds of one clock cycle at the configured frequency —
    /// the conversion the serving layer uses to turn memoised cycle costs
    /// into service times.
    ///
    /// # Panics
    ///
    /// Panics when the frequency is not finite and positive. The builder
    /// ([`Self::with_frequency_ghz`]) rejects such values at construction,
    /// but the field is public, so the conversion re-validates: a zero or
    /// NaN frequency here would silently turn every downstream service
    /// time into `inf`/NaN.
    pub fn seconds_per_cycle(&self) -> f64 {
        assert!(
            self.frequency_ghz.is_finite() && self.frequency_ghz > 0.0,
            "chip frequency must be finite and positive (got {})",
            self.frequency_ghz
        );
        1.0 / (self.frequency_ghz * 1e9)
    }

    /// A stable, human-readable fingerprint of every field that influences
    /// simulated behaviour. Two configurations share a fingerprint exactly
    /// when they are behaviourally identical, so memoised per-workload
    /// costs (the serving layer's cost tables) can be keyed by fingerprint
    /// and shared across fleet groups that run the same silicon.
    ///
    /// The encoding is positional and versioned only by the field set:
    /// adding a config field must extend the fingerprint.
    pub fn fingerprint(&self) -> String {
        let core = &self.core;
        let mem = &self.mem;
        let hbm = match HbmPreset::of(&self.hbm) {
            Some(preset) => preset.name().to_string(),
            None => format!(
                "hbm{}.{}.{}.{}.{}.{}.{}.{}",
                self.hbm.row_hit_latency,
                self.hbm.row_miss_latency,
                self.hbm.row_conflict_latency,
                self.hbm.burst_bytes,
                self.hbm.bytes_per_cycle,
                self.hbm.banks_per_channel,
                self.hbm.row_bytes,
                self.hbm.base_latency
            ),
        };
        format!(
            "n{}x{}c{}m{}r{}-core{}.{}.{}.{}.{}.{}-mem{}.{}.{}.{}.{}.{}-f{:?}-{}-q{}-rb{}-{}-{}-mmh{}-s{}",
            self.tiles,
            self.tile_size.label(),
            self.cores_per_tile,
            self.mems_per_tile,
            self.routers_per_tile,
            core.pipeline_registers,
            core.pipelines,
            core.multipliers,
            core.address_generators,
            core.ports,
            core.instruction_buffer,
            mem.comparators,
            mem.hash_engines,
            mem.hashlines,
            mem.accumulators,
            mem.ports,
            mem.instruction_buffer,
            self.frequency_ghz,
            hbm,
            self.mem_queue_capacity,
            self.router_buffer,
            self.mapping.name(),
            match self.eviction {
                EvictionPolicy::Rolling => "re",
                EvictionPolicy::Barrier => "be",
            },
            self.mmh_tile,
            self.seed
        )
    }
}

impl Default for ChipConfig {
    fn default() -> Self {
        Self::tile_16()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_component_counts() {
        let t4 = ChipConfig::tile_4();
        assert_eq!(t4.total_cores(), 8);
        assert_eq!(t4.total_mems(), 8);
        assert_eq!(t4.total_routers(), 32);

        let t16 = ChipConfig::tile_16();
        assert_eq!(t16.total_cores(), 32);
        assert_eq!(t16.total_mems(), 32);
        assert_eq!(t16.total_routers(), 64);
        assert_eq!(t16.total_pipelines(), 128);

        let t64 = ChipConfig::tile_64();
        assert_eq!(t64.total_cores(), 128);
        assert_eq!(t64.total_mems(), 128);
        assert_eq!(t64.total_routers(), 256);
        assert_eq!(t64.total_pipelines(), 1024);
    }

    /// (queue + 4 reads × pipelines per tile) × worst access + diameter.
    #[test]
    fn patience_is_derived_from_the_chip() {
        assert_eq!(ChipConfig::tile_4().patience(), (64 + 8) * 78 + 4);
        assert_eq!(ChipConfig::tile_16().patience(), (64 + 64) * 78 + 8);
        assert_eq!(ChipConfig::tile_64().patience(), (64 + 512) * 78 + 16);
        let ddr4 = ChipConfig::tile_16().with_hbm_preset(HbmPreset::Ddr4);
        assert_eq!(ddr4.patience(), 128 * (66 + 40 + 8) + 8);
        let deep = ChipConfig::tile_16().with_mem_queue_capacity(128);
        assert_eq!(deep.patience(), 192 * 78 + 8);
    }

    #[test]
    fn table3_hash_engine_counts() {
        assert_eq!(ChipConfig::tile_4().total_hash_engines(), 16);
        assert_eq!(ChipConfig::tile_16().total_hash_engines(), 128);
        assert_eq!(ChipConfig::tile_64().total_hash_engines(), 1024);
        assert_eq!(ChipConfig::tile_16().total_comparators(), 512);
        assert_eq!(ChipConfig::tile_64().total_comparators(), 8192);
    }

    #[test]
    fn table3_register_file_bits() {
        assert_eq!(ChipConfig::tile_4().register_file_bits_per_pipeline(), 512);
        assert_eq!(ChipConfig::tile_16().register_file_bits_per_pipeline(), 1024);
        assert_eq!(ChipConfig::tile_64().register_file_bits_per_pipeline(), 2048);
    }

    #[test]
    fn hashpad_sizes_scale_like_table3() {
        // Table 3: 0.75 MB / 3 MB / 12 MB. Our 12-byte hash-line estimate
        // lands within a factor of ~2 of those values; the *ratios* must match.
        let t4 = ChipConfig::tile_4().total_hashpad_mb();
        let t16 = ChipConfig::tile_16().total_hashpad_mb();
        let t64 = ChipConfig::tile_64().total_hashpad_mb();
        assert!(t4 < t16 && t16 < t64, "HashPad capacity must grow with tile size");
        assert!((t64 / t16 - 4.0).abs() < 0.1, "Tile-64 pad should be 4x Tile-16");
    }

    #[test]
    fn peak_performance_matches_table5() {
        // Table 5 lists 8 / 32 / 128 GFLOPs for Tile-4/16/64.
        assert!((ChipConfig::tile_4().peak_gflops() - 8.0).abs() < 1e-9);
        assert!((ChipConfig::tile_16().peak_gflops() - 32.0).abs() < 1e-9);
        assert!((ChipConfig::tile_64().peak_gflops() - 128.0).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_is_128_gbps() {
        assert!((ChipConfig::tile_16().peak_bandwidth_gbps() - 128.0).abs() < 1e-9);
    }

    #[test]
    fn seconds_per_cycle_inverts_the_frequency() {
        assert!((ChipConfig::tile_16().seconds_per_cycle() - 1e-9).abs() < 1e-24);
        let fast = ChipConfig::tile_16().with_frequency_ghz(2.0);
        assert!((fast.seconds_per_cycle() - 0.5e-9).abs() < 1e-24);
    }

    #[test]
    fn builders_override_fields() {
        let cfg = ChipConfig::tile_16()
            .with_mapping(MappingKind::Ring)
            .with_eviction(EvictionPolicy::Barrier)
            .with_mmh_tile(8)
            .with_seed(42);
        assert_eq!(cfg.mapping, MappingKind::Ring);
        assert_eq!(cfg.eviction, EvictionPolicy::Barrier);
        assert_eq!(cfg.mmh_tile, 8);
        assert_eq!(cfg.seed, 42);
    }

    #[test]
    #[should_panic(expected = "MMH tile height")]
    fn invalid_mmh_tile_rejected() {
        ChipConfig::tile_4().with_mmh_tile(3);
    }

    #[test]
    fn structural_builders_override_the_new_axes() {
        let cfg = ChipConfig::tile_16()
            .with_cores_per_tile(8)
            .with_router_buffer(32)
            .with_mem_queue_capacity(128)
            .with_frequency_ghz(1.5)
            .with_hbm_preset(HbmPreset::Hbm2DualStack);
        assert_eq!(cfg.cores_per_tile, 8);
        assert_eq!(cfg.router_buffer, 32);
        assert_eq!(cfg.mem_queue_capacity, 128);
        assert!((cfg.frequency_ghz - 1.5).abs() < 1e-12);
        assert_eq!(cfg.hbm, HbmPreset::Hbm2DualStack.timing());
        assert_eq!(cfg.total_cores(), 64);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn zero_frequency_rejected() {
        ChipConfig::tile_16().with_frequency_ghz(0.0);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn seconds_per_cycle_rejects_a_corrupted_frequency() {
        // The builder already rejects bad values, but the field is public —
        // the conversion must guard too, so service times can never be
        // inf/NaN.
        let mut cfg = ChipConfig::tile_16();
        cfg.frequency_ghz = f64::NAN;
        cfg.seconds_per_cycle();
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn seconds_per_cycle_rejects_a_zero_frequency() {
        let mut cfg = ChipConfig::tile_16();
        cfg.frequency_ghz = 0.0;
        cfg.seconds_per_cycle();
    }

    #[test]
    fn fingerprints_are_stable_and_distinguish_configs() {
        for tile in TileSize::ALL {
            let config = ChipConfig::for_tile_size(tile);
            assert_eq!(
                config.fingerprint(),
                config.fingerprint(),
                "fingerprint is a pure function"
            );
        }
        assert_ne!(ChipConfig::tile_4().fingerprint(), ChipConfig::tile_16().fingerprint());
        assert_ne!(ChipConfig::tile_16().fingerprint(), ChipConfig::tile_64().fingerprint());
        // Every behavioural override must move the fingerprint.
        let base = ChipConfig::tile_16();
        for changed in [
            base.clone().with_mmh_tile(8),
            base.clone().with_mapping(MappingKind::Ring),
            base.clone().with_eviction(EvictionPolicy::Barrier),
            base.clone().with_cores_per_tile(8),
            ChipConfig { mems_per_tile: 2, ..base.clone() },
            base.clone().with_router_buffer(32),
            base.clone().with_mem_queue_capacity(128),
            base.clone().with_frequency_ghz(1.5),
            base.clone().with_hbm_preset(HbmPreset::Hbm2DualStack),
            base.clone().with_seed(7),
        ] {
            assert_ne!(base.fingerprint(), changed.fingerprint());
        }
        // ... and identical configurations share one.
        assert_eq!(base.fingerprint(), ChipConfig::tile_16().fingerprint());
        assert!(base.fingerprint().contains("hbm2"), "named presets appear by name");
    }

    #[test]
    fn for_tile_size_round_trips() {
        for tile in TileSize::ALL {
            assert_eq!(ChipConfig::for_tile_size(tile).tile_size, tile);
        }
        assert_eq!(TileSize::Tile16.name(), "Tile-16");
    }
}
