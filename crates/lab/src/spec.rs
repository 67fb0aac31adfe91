//! Declarative experiment descriptions: a cartesian sweep over the
//! [`ChipConfig`] design space and the datasets it runs on.
//!
//! A [`SweepGrid`] names the axes being varied: the dataset, then eight
//! configuration axes — tile size, compute mapping, eviction policy, MMH
//! tile height, HashPad size (hash-lines per NeuraMem), NeuraCores per
//! tile, router packet buffering and HBM timing preset. Everything else
//! (the clock frequency, say) comes from the base configuration that an
//! [`ExperimentSpec`] pairs with the grid under a name.
//! [`ExperimentSpec::points`] enumerates the full cartesian product in a
//! stable, documented order, assigning each point a stable human-readable
//! run ID and a seed derived from that ID — so the same spec always produces
//! the same points with the same seeds, regardless of how (or on how many
//! threads) it is executed.
//!
//! The enumeration is one mixed-radix walk over one private table
//! (`SweepGrid::axes`) that lists the configuration axes slowest first;
//! every swept value is a `Setting` that applies itself to a `ChipConfig`
//! and names its run-ID segment. A new axis is a `pub` field and builder on
//! [`SweepGrid`], a `Setting` variant with its two `match` arms, and one row
//! of that table at the position it should vary — the point count, the
//! walk and the IDs follow from the table.

use neura_chip::config::{ChipConfig, EvictionPolicy, HbmPreset, TileSize};
use neura_chip::mapping::MappingKind;

use crate::report::RunRecord;

/// The axes of a cartesian sweep. An empty axis means "hold the base
/// configuration's value" and contributes exactly one (default) setting to
/// the product, so the point count is always the product of
/// `max(1, axis.len())` over all axes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepGrid {
    /// Dataset names (resolved by the caller, typically through
    /// `DatasetCatalog::by_name`). Empty = a single dataset-less point.
    pub datasets: Vec<String>,
    /// Tile sizes to sweep (`ChipConfig::for_tile_size`).
    pub tile_sizes: Vec<TileSize>,
    /// Compute mappings to sweep.
    pub mappings: Vec<MappingKind>,
    /// Eviction policies to sweep.
    pub evictions: Vec<EvictionPolicy>,
    /// MMH tile heights to sweep (must each be 1, 2, 4 or 8).
    pub mmh_tiles: Vec<u8>,
    /// HashPad sizes (hash-lines per NeuraMem) to sweep.
    pub hashlines: Vec<usize>,
    /// NeuraCore counts per tile to sweep.
    pub cores_per_tile: Vec<usize>,
    /// Router packet-buffer capacities to sweep.
    pub router_buffers: Vec<usize>,
    /// HBM timing presets to sweep.
    pub hbm_presets: Vec<HbmPreset>,
}

impl SweepGrid {
    /// An empty grid: one point, entirely defined by the base configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the dataset axis (builder style).
    pub fn datasets<S: Into<String>>(mut self, names: impl IntoIterator<Item = S>) -> Self {
        self.datasets = names.into_iter().map(Into::into).collect();
        self
    }

    /// Sets the tile-size axis (builder style).
    pub fn tile_sizes(mut self, sizes: impl IntoIterator<Item = TileSize>) -> Self {
        self.tile_sizes = sizes.into_iter().collect();
        self
    }

    /// Sets the compute-mapping axis (builder style).
    pub fn mappings(mut self, mappings: impl IntoIterator<Item = MappingKind>) -> Self {
        self.mappings = mappings.into_iter().collect();
        self
    }

    /// Sets the eviction-policy axis (builder style).
    pub fn evictions(mut self, evictions: impl IntoIterator<Item = EvictionPolicy>) -> Self {
        self.evictions = evictions.into_iter().collect();
        self
    }

    /// Sets the MMH tile-height axis (builder style).
    pub fn mmh_tiles(mut self, tiles: impl IntoIterator<Item = u8>) -> Self {
        self.mmh_tiles = tiles.into_iter().collect();
        self
    }

    /// Sets the HashPad-size axis (builder style).
    pub fn hashlines(mut self, hashlines: impl IntoIterator<Item = usize>) -> Self {
        self.hashlines = hashlines.into_iter().collect();
        self
    }

    /// Sets the NeuraCores-per-tile axis (builder style).
    pub fn cores_per_tile(mut self, cores: impl IntoIterator<Item = usize>) -> Self {
        self.cores_per_tile = cores.into_iter().collect();
        self
    }

    /// Sets the router packet-buffer axis (builder style).
    pub fn router_buffers(mut self, slots: impl IntoIterator<Item = usize>) -> Self {
        self.router_buffers = slots.into_iter().collect();
        self
    }

    /// Sets the HBM timing-preset axis (builder style).
    pub fn hbm_presets(mut self, presets: impl IntoIterator<Item = HbmPreset>) -> Self {
        self.hbm_presets = presets.into_iter().collect();
        self
    }

    /// Number of points the grid enumerates (product of non-empty axis
    /// lengths).
    pub fn len(&self) -> usize {
        let config_points: usize = self.axes().iter().map(|axis| axis.len().max(1)).product();
        self.datasets.len().max(1) * config_points
    }

    /// Whether the grid enumerates exactly one all-default point.
    pub fn is_empty(&self) -> bool {
        self.len() == 1
    }
}

/// One enumerated point of a sweep: the concrete configuration to run plus
/// its identity within the spec.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Stable run ID: `<spec>/<dataset>/<axis values that vary>`.
    pub id: String,
    /// Dataset name, when the grid has a dataset axis.
    pub dataset: Option<String>,
    /// The fully resolved configuration (including the derived seed).
    pub config: ChipConfig,
}

impl SweepPoint {
    /// The ordered `(key, value)` parameter list describing this point, as
    /// recorded in artifacts.
    pub fn params(&self) -> Vec<(String, String)> {
        let mut params = Vec::new();
        if let Some(dataset) = &self.dataset {
            params.push(("dataset".to_string(), dataset.clone()));
        }
        params.push(("tile".to_string(), self.config.tile_size.name().to_string()));
        params.push(("mapping".to_string(), self.config.mapping.name().to_string()));
        params.push(("eviction".to_string(), eviction_name(self.config.eviction).to_string()));
        params.push(("mmh_tile".to_string(), self.config.mmh_tile.to_string()));
        params.push(("hashlines".to_string(), self.config.mem.hashlines.to_string()));
        params.push(("cores_per_tile".to_string(), self.config.cores_per_tile.to_string()));
        params.push(("mems_per_tile".to_string(), self.config.mems_per_tile.to_string()));
        params.push(("router_buffer".to_string(), self.config.router_buffer.to_string()));
        params.push(("mem_queue_capacity".to_string(), self.config.mem_queue_capacity.to_string()));
        params.push(("frequency_ghz".to_string(), format!("{:?}", self.config.frequency_ghz)));
        params.push(("hbm".to_string(), hbm_name(&self.config)));
        params.push(("seed".to_string(), self.config.seed.to_string()));
        params
    }

    /// A record named after this point and carrying [`Self::params`], ready
    /// to take the point's metrics.
    pub fn record(&self) -> RunRecord {
        RunRecord { id: self.id.clone(), params: self.params(), metrics: Vec::new() }
    }
}

/// Name of a configuration's HBM timing: the preset name when the timing
/// matches one, `"custom"` otherwise.
fn hbm_name(config: &ChipConfig) -> String {
    HbmPreset::of(&config.hbm).map(|p| p.name().to_string()).unwrap_or_else(|| "custom".into())
}

/// Lower-case name of an eviction policy, used in run IDs and params.
pub fn eviction_name(policy: EvictionPolicy) -> &'static str {
    match policy {
        EvictionPolicy::Rolling => "rolling",
        EvictionPolicy::Barrier => "barrier",
    }
}

/// A named, declarative experiment: a base configuration plus the grid of
/// axes to sweep around it.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Spec name; the leading component of every run ID.
    pub name: String,
    /// Configuration used for every axis the grid leaves empty.
    pub base: ChipConfig,
    /// The sweep axes.
    pub grid: SweepGrid,
}

impl ExperimentSpec {
    /// Creates a spec with the given name, base configuration and grid.
    pub fn new(name: impl Into<String>, base: ChipConfig, grid: SweepGrid) -> Self {
        ExperimentSpec { name: name.into(), base, grid }
    }

    /// Enumerates every point of the cartesian product, in a stable order:
    /// dataset-major, then tile size, mapping, eviction, MMH tile, HashPad
    /// size, cores per tile, router buffer and HBM preset (the last axis
    /// varies fastest).
    ///
    /// Run IDs name the spec, the dataset, and *only* the axes the grid
    /// actually sweeps (a one-point axis adds no ID segment), so IDs stay
    /// short and stable when a new axis is later swept with its old default.
    /// Each point's seed is derived by hashing the spec name and dataset
    /// with the base seed — deliberately *excluding* the swept config axes,
    /// so all arms of an A/B comparison (rolling vs barrier, MMH1 vs MMH8,
    /// …) run with the identical seed and differ only in the ablated axis,
    /// while different datasets (and different specs) still decorrelate.
    pub fn points(&self) -> Vec<SweepPoint> {
        let datasets: Vec<Option<&str>> = if self.grid.datasets.is_empty() {
            vec![None]
        } else {
            self.grid.datasets.iter().map(|d| Some(d.as_str())).collect()
        };
        let axes = self.grid.axes();
        let combos: usize = axes.iter().map(|axis| axis.len().max(1)).product();

        let mut points = Vec::with_capacity(datasets.len() * combos);
        for dataset in datasets {
            let mut scope = self.name.clone();
            if let Some(d) = dataset {
                scope.push('/');
                scope.push_str(d);
            }
            let seed = derive_seed(self.base.seed, &scope);
            for lin in 0..combos {
                // Mixed-radix decode of `lin`, slowest axis first: an axis's
                // digit is `lin / stride % radix`, its stride the product of
                // the radices after it. An empty axis has no digit, holds
                // the base value and adds no ID segment.
                let mut config = self.base.clone();
                let mut id = scope.clone();
                let mut stride = combos;
                for axis in axes.iter().filter(|axis| !axis.is_empty()) {
                    stride /= axis.len();
                    let setting = axis[lin / stride % axis.len()];
                    config = setting.apply(config);
                    id.push('/');
                    id.push_str(&setting.segment());
                }
                config.seed = seed;
                points.push(SweepPoint { id, dataset: dataset.map(str::to_string), config });
            }
        }
        points
    }
}

/// One swept value of one configuration axis: it knows how to apply itself
/// to a [`ChipConfig`] and how it names itself in a run ID.
#[derive(Debug, Clone, Copy)]
enum Setting {
    TileSize(TileSize),
    Mapping(MappingKind),
    Eviction(EvictionPolicy),
    MmhTile(u8),
    Hashlines(usize),
    CoresPerTile(usize),
    RouterBuffer(usize),
    Hbm(HbmPreset),
}

impl SweepGrid {
    /// The configuration axes in enumeration order, slowest first — the
    /// order [`ExperimentSpec::points`] documents, and the one place a new
    /// axis joins the walk.
    fn axes(&self) -> [Vec<Setting>; 8] {
        fn lift<T: Copy>(values: &[T], setting: fn(T) -> Setting) -> Vec<Setting> {
            values.iter().copied().map(setting).collect()
        }
        [
            lift(&self.tile_sizes, Setting::TileSize),
            lift(&self.mappings, Setting::Mapping),
            lift(&self.evictions, Setting::Eviction),
            lift(&self.mmh_tiles, Setting::MmhTile),
            lift(&self.hashlines, Setting::Hashlines),
            lift(&self.cores_per_tile, Setting::CoresPerTile),
            lift(&self.router_buffers, Setting::RouterBuffer),
            lift(&self.hbm_presets, Setting::Hbm),
        ]
    }
}

impl Setting {
    /// `config` with this setting applied.
    fn apply(self, mut config: ChipConfig) -> ChipConfig {
        match self {
            // The tile size is the first axis, so `config` is still the
            // base: swap in the tile's structure and keep the base's
            // non-structural overrides.
            Setting::TileSize(tile) => {
                let mut swept = ChipConfig::for_tile_size(tile)
                    .with_mapping(config.mapping)
                    .with_eviction(config.eviction)
                    .with_mmh_tile(config.mmh_tile)
                    .with_router_buffer(config.router_buffer)
                    .with_mem_queue_capacity(config.mem_queue_capacity)
                    .with_frequency_ghz(config.frequency_ghz)
                    .with_seed(config.seed);
                swept.hbm = config.hbm;
                swept
            }
            Setting::Mapping(mapping) => config.with_mapping(mapping),
            Setting::Eviction(eviction) => config.with_eviction(eviction),
            Setting::MmhTile(tile) => config.with_mmh_tile(tile),
            Setting::Hashlines(lines) => {
                config.mem.hashlines = lines;
                config
            }
            Setting::CoresPerTile(cores) => config.with_cores_per_tile(cores),
            Setting::RouterBuffer(slots) => config.with_router_buffer(slots),
            Setting::Hbm(preset) => config.with_hbm_preset(preset),
        }
    }

    /// The run-ID segment naming this setting.
    fn segment(self) -> String {
        match self {
            Setting::TileSize(tile) => tile.name().to_string(),
            Setting::Mapping(mapping) => mapping.name().to_string(),
            Setting::Eviction(eviction) => eviction_name(eviction).to_string(),
            Setting::MmhTile(tile) => format!("mmh{tile}"),
            Setting::Hashlines(lines) => format!("hl{lines}"),
            Setting::CoresPerTile(cores) => format!("c{cores}"),
            Setting::RouterBuffer(slots) => format!("rb{slots}"),
            Setting::Hbm(preset) => preset.name().to_string(),
        }
    }
}

/// Derives a sweep seed: FNV-1a over a scope string (spec name + dataset),
/// mixed with the base seed through a SplitMix64 finaliser. Pure function
/// of `(base, id)`.
pub fn derive_seed(base: u64, id: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in id.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut z = h ^ base.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_grid_is_one_default_point() {
        let spec = ExperimentSpec::new("t", ChipConfig::tile_16(), SweepGrid::new());
        let points = spec.points();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].id, "t");
        assert_eq!(points[0].dataset, None);
        assert_eq!(points[0].config.tile_size, TileSize::Tile16);
    }

    #[test]
    fn ids_name_only_swept_axes() {
        let spec = ExperimentSpec::new(
            "ablation",
            ChipConfig::tile_16(),
            SweepGrid::new().datasets(["cora"]).mappings(MappingKind::ALL),
        );
        let ids: Vec<String> = spec.points().into_iter().map(|p| p.id).collect();
        assert_eq!(
            ids,
            vec![
                "ablation/cora/ring",
                "ablation/cora/modular",
                "ablation/cora/random-table",
                "ablation/cora/drhm",
            ]
        );
    }

    #[test]
    fn tile_size_axis_preserves_base_overrides() {
        let base = ChipConfig::tile_16().with_mapping(MappingKind::Ring).with_mmh_tile(8);
        let spec = ExperimentSpec::new("t", base, SweepGrid::new().tile_sizes(TileSize::ALL));
        for point in spec.points() {
            assert_eq!(point.config.mapping, MappingKind::Ring);
            assert_eq!(point.config.mmh_tile, 8);
        }
    }

    #[test]
    fn seeds_are_stable_and_shared_across_comparison_arms() {
        let spec = ExperimentSpec::new(
            "s",
            ChipConfig::tile_16(),
            SweepGrid::new().mmh_tiles([1, 2, 4, 8]),
        );
        let a = spec.points();
        let b = spec.points();
        for (pa, pb) in a.iter().zip(&b) {
            assert_eq!(pa.config.seed, pb.config.seed, "seeds are stable across enumerations");
        }
        // All arms of an ablation share one seed, so only the swept axis
        // differs between the compared runs.
        assert!(a.iter().all(|p| p.config.seed == a[0].config.seed));
    }

    #[test]
    fn seeds_decorrelate_across_datasets_and_specs() {
        let grid = SweepGrid::new().datasets(["cora", "facebook"]);
        let points = ExperimentSpec::new("s", ChipConfig::tile_16(), grid.clone()).points();
        assert_ne!(points[0].config.seed, points[1].config.seed);
        let other = ExperimentSpec::new("t", ChipConfig::tile_16(), grid).points();
        assert_ne!(points[0].config.seed, other[0].config.seed);
    }

    #[test]
    fn extended_axes_reach_the_config_and_the_id() {
        let spec = ExperimentSpec::new(
            "scale",
            ChipConfig::tile_16(),
            SweepGrid::new()
                .hashlines([256, 1024])
                .cores_per_tile([4, 8])
                .router_buffers([8, 16])
                .hbm_presets([HbmPreset::Hbm2, HbmPreset::Hbm2DualStack]),
        );
        let points = spec.points();
        assert_eq!(points.len(), 16);
        assert_eq!(points[0].id, "scale/hl256/c4/rb8/hbm2");
        assert_eq!(points[1].id, "scale/hl256/c4/rb8/hbm2-dual");
        assert_eq!(points[2].id, "scale/hl256/c4/rb16/hbm2");
        assert_eq!(points[15].id, "scale/hl1024/c8/rb16/hbm2-dual");
        let last = &points[15].config;
        assert_eq!(last.mem.hashlines, 1024);
        assert_eq!(last.cores_per_tile, 8);
        assert_eq!(last.router_buffer, 16);
        assert_eq!(last.hbm, HbmPreset::Hbm2DualStack.timing());
    }

    #[test]
    fn tile_size_axis_preserves_non_structural_scaling_overrides() {
        let base = ChipConfig::tile_16()
            .with_router_buffer(32)
            .with_mem_queue_capacity(128)
            .with_frequency_ghz(1.25)
            .with_hbm_preset(HbmPreset::Hbm2DualStack);
        let spec = ExperimentSpec::new("t", base, SweepGrid::new().tile_sizes(TileSize::ALL));
        for point in spec.points() {
            assert_eq!(point.config.router_buffer, 32);
            assert_eq!(point.config.mem_queue_capacity, 128);
            assert!((point.config.frequency_ghz - 1.25).abs() < 1e-12);
            assert_eq!(point.config.hbm, HbmPreset::Hbm2DualStack.timing());
        }
    }

    #[test]
    fn params_name_the_extended_axes() {
        let point = &ExperimentSpec::new(
            "s",
            ChipConfig::tile_16(),
            SweepGrid::new().hbm_presets([HbmPreset::Ddr4]),
        )
        .points()[0];
        let params = point.params();
        assert!(params.contains(&("cores_per_tile".into(), "4".into())));
        assert!(params.contains(&("frequency_ghz".into(), "1.0".into())));
        assert!(params.contains(&("hbm".into(), "ddr4".into())));
    }

    #[test]
    fn params_describe_the_resolved_config() {
        let spec = ExperimentSpec::new(
            "s",
            ChipConfig::tile_16(),
            SweepGrid::new().datasets(["cora"]).hashlines([256]),
        );
        let point = &spec.points()[0];
        let params = point.params();
        assert!(params.contains(&("dataset".into(), "cora".into())));
        assert!(params.contains(&("hashlines".into(), "256".into())));
        assert!(params.contains(&("tile".into(), "Tile-16".into())));
    }
}
