//! Shared helpers for the benchmark harness binaries.
//!
//! Every table and figure of the paper's evaluation is a row of
//! [`paper::ARTIFACTS`], run by the one `paper` binary; the six tools
//! (`serve`, `tune`, `xval`, `profile`, `timeline`, `trend`) are binaries of
//! their own in `src/bin/`. The experiment machinery they run on —
//! declarative sweeps, the parallel runner, table/JSON rendering and golden
//! checks — lives in `neura_lab`; this crate keeps the dataset scaling glue,
//! the [`ChipGrid`] the `xval` and `profile` sweeps share, and the simulating
//! tools' class pricer ([`price_class`]) and wedge exit ([`exit_wedged`]).

#![warn(missing_docs)]

pub mod paper;

use neura_chip::accelerator::{Accelerator, ChipError};
use neura_chip::analytic::WorkloadFeatures;
use neura_chip::config::{ChipConfig, HbmPreset, TileSize};
use neura_chip::profile::Profiler;
use neura_lab::Flags;
use neura_serve::cost::{analytic_class_cost, ClassCost};
use neura_sparse::{CsrMatrix, Dataset, DatasetCatalog};

/// Default down-scaling factor applied to the big SuiteSparse/SNAP analogs
/// when they are fed to the cycle-level simulator.
pub(crate) const SIM_SCALE: usize = 512;

/// Default down-scaling factor for analytical-model workloads (cheaper, so a
/// larger fraction of the original size is retained).
pub(crate) const MODEL_SCALE: usize = 64;

/// Per-request workload shrink classes of every serving stream (the
/// `serve` sweep and the tuner's serve-p99 reference streams): a request
/// queries the full simulator workload of its dataset, half of it, or a
/// quarter.
pub const REQUEST_SHRINKS: [usize; 3] = [1, 2, 4];

/// Base seed of every serving workload (scenario seeds derive from it).
pub const STREAM_SEED: u64 = 0x5EED_CAFE;

/// Generates the CSR adjacency matrix of a dataset down-scaled `scale`×,
/// with a fixed seed.
pub(crate) fn scaled_matrix(dataset: &Dataset, scale: usize) -> CsrMatrix {
    dataset.generate_scaled(scale, 0xDA7A + dataset.nodes as u64).to_csr()
}

/// Resolves a dataset name through the catalog and generates its scaled CSR
/// adjacency matrix — the common first step of a sweep point that carries
/// only a dataset *name* (see `neura_lab::spec::SweepPoint::dataset`).
///
/// # Panics
///
/// Panics when the name is not in the catalog: sweep grids are declared
/// with string names, so a typo must fail loudly, not silently skip work.
pub(crate) fn scaled_matrix_by_name(name: &str, scale: usize) -> CsrMatrix {
    scaled_matrix(&catalog_dataset(name), scale)
}

/// The catalog entry of a dataset a sweep names — a panic when it has none.
fn catalog_dataset(name: &str) -> Dataset {
    DatasetCatalog::by_name(name)
        .unwrap_or_else(|| panic!("dataset {name:?} is not in the catalog"))
}

/// Reads the value of a `--dataset` flag into `datasets`: a catalog name
/// (else the usage error `unknown dataset "<raw>"`), once (see
/// [`push_once`]).
pub fn dataset_flag(flags: &mut Flags, datasets: &mut Vec<String>) {
    let dataset = flags
        .known("--dataset", "dataset", |raw| DatasetCatalog::by_name(raw).map(|_| raw.to_string()));
    push_once(flags, "--dataset", datasets, dataset, String::clone);
}

/// Adds a value of the repeatable list flag `flag` to its list. Run IDs
/// are built from the values' names, so a value whose `name` the list
/// already holds is the usage error `duplicate <flag> value "<name>"`: it
/// would run its arms again and write their record IDs twice.
pub fn push_once<T>(
    flags: &Flags,
    flag: &str,
    list: &mut Vec<T>,
    value: T,
    name: impl Fn(&T) -> String,
) {
    let named = name(&value);
    if list.iter().any(|held| name(held) == named) {
        flags.bad_usage(&format!("duplicate {flag} value {named:?}"));
    }
    list.push(value);
}

/// Generates a dataset's cycle-simulator matrix at a reduced tuning
/// fidelity (see `neura_lab::tune`).
///
/// Full fidelity (`shrink == 1`) targets the node band the cycle-level
/// figure binaries simulate: `SIM_SCALE` down-scaling, capped at ~2000
/// nodes like `fig16` and floored at 256 nodes so even the smallest
/// analogs leave the halving ladder room to climb. `shrink` then divides
/// that target, so every rung of a tuner really simulates a smaller graph
/// — down to the generator's 32-node floor.
pub fn sim_matrix_at_fidelity(name: &str, shrink: usize) -> CsrMatrix {
    let dataset = catalog_dataset(name);
    let full_nodes = (dataset.nodes / SIM_SCALE).clamp(256, 2_000);
    let target_nodes = (full_nodes / shrink.max(1)).max(32);
    scaled_matrix(&dataset, (dataset.nodes / target_nodes).max(1))
}

/// Prices one request of the self-product `a · a` on `config`, on either
/// tier of the chip model: `exact` charges the `total_cycles` of one
/// cycle-level simulation (a `profiler` rides along when given), otherwise
/// the closed-form analytic estimate prices it from one symbolic pass,
/// without simulating. The flops — the shortest-job-first weight, a
/// property of the workload alone — are two per partial product either way:
/// counted by the symbolic pass, or by the simulation as `HACC`s.
///
/// # Errors
///
/// Returns [`ChipError::Wedged`] when `exact` and the chip stops moving
/// before the product drains.
pub fn price_class(
    config: &ChipConfig,
    a: &CsrMatrix,
    exact: bool,
    profiler: Option<&mut Profiler>,
) -> Result<ClassCost, ChipError> {
    if !exact {
        return Ok(analytic_class_cost(config, &WorkloadFeatures::from_square(a)));
    }
    let report = Accelerator::new(config.clone()).run_spgemm_profiled(a, a, profiler)?.report;
    Ok(ClassCost { cycles: report.total_cycles, flops: 2 * report.hacc_instructions })
}

/// Ends a run of `bin` on a cell whose simulation wedged, with exit code 1
/// and one line on stderr, even when several workers wedge at once:
/// `<bin>: cannot simulate <dataset> on <tile>[ at <hbm>]: <error>`.
pub fn exit_wedged(
    bin: &str,
    dataset: &str,
    tile: TileSize,
    hbm: Option<HbmPreset>,
    error: &ChipError,
) -> ! {
    static EXITING: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _one_line = EXITING.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let at = hbm.map(|hbm| format!(" at {}", hbm.name())).unwrap_or_default();
    eprintln!("{bin}: cannot simulate {dataset} on {}{at}: {error}", tile.label());
    std::process::exit(1);
}

/// The chip tier a practitioner would deploy for a graph of this size
/// (the pairing `xval` and `profile` sweep by default): terciles of the
/// Table-1 suite by node count. Smallest third Tile-4, middle third
/// Tile-16, largest third Tile-64; datasets outside the suite are placed
/// by the same thresholds.
///
/// # Panics
///
/// Panics when the name is not in the catalog.
pub(crate) fn size_matched_tile(name: &str) -> TileSize {
    let dataset = catalog_dataset(name);
    let mut nodes: Vec<_> = DatasetCatalog::spgemm_suite().iter().map(|d| d.nodes).collect();
    nodes.sort_unstable();
    let small = nodes[nodes.len().div_ceil(3) - 1];
    let mid = nodes[(2 * nodes.len()).div_ceil(3) - 1];
    if dataset.nodes <= small {
        TileSize::Tile4
    } else if dataset.nodes <= mid {
        TileSize::Tile16
    } else {
        TileSize::Tile64
    }
}

/// The (dataset × tile × HBM preset × shrink) grid the `xval` and
/// `profile` sweeps share, as their `--dataset` / `--tile` / `--hbm` /
/// `--shrink` flags fill it. An axis no flag named is empty until
/// [`Self::cells`] resolves its default.
#[derive(Debug, Default)]
pub struct ChipGrid {
    /// Dataset names (default: the Table-1 SpGEMM suite, all 20).
    pub datasets: Vec<String>,
    /// Tile sizes crossed with every dataset (default: each dataset's
    /// `size_matched_tile` alone).
    pub tiles: Vec<TileSize>,
    /// HBM presets (default: all three).
    pub hbms: Vec<HbmPreset>,
    /// Workload shrink factors (default: the caller's).
    pub shrinks: Vec<usize>,
}

/// One cell of a [`ChipGrid`]: a dataset at a shrink factor on a chip.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// Catalog name of the dataset.
    pub dataset: String,
    /// Tile size of the chip.
    pub tile: TileSize,
    /// HBM preset of the chip.
    pub hbm: HbmPreset,
    /// Workload shrink factor (see [`sim_matrix_at_fidelity`]).
    pub shrink: usize,
}

impl GridCell {
    /// The chip configuration of the cell.
    pub fn config(&self) -> ChipConfig {
        ChipConfig::for_tile_size(self.tile).with_hbm_preset(self.hbm)
    }

    /// The `dataset` / `tile` / `hbm` / `shrink` parameters every record of
    /// the cell carries.
    pub fn params(&self) -> Vec<(String, String)> {
        vec![
            ("dataset".to_string(), self.dataset.clone()),
            ("tile".to_string(), self.tile.label().to_string()),
            ("hbm".to_string(), self.hbm.name().to_string()),
            ("shrink".to_string(), self.shrink.to_string()),
        ]
    }
}

impl ChipGrid {
    /// Reads the value of `arg` off `flags` into its axis when `arg` is one
    /// of the four grid flags — a value the axis does not know, or already
    /// holds, is a usage error — and returns whether it was.
    pub fn take_flag(&mut self, arg: &str, flags: &mut Flags) -> bool {
        match arg {
            "--dataset" => dataset_flag(flags, &mut self.datasets),
            "--tile" => {
                let tile = flags.known(arg, "tile size", |raw| {
                    TileSize::ALL.into_iter().find(|t| t.label() == raw)
                });
                push_once(flags, arg, &mut self.tiles, tile, |t| t.label().to_string());
            }
            "--hbm" => {
                let hbm = flags.known(arg, "HBM preset", |raw| {
                    HbmPreset::ALL.into_iter().find(|p| p.name() == raw)
                });
                push_once(flags, arg, &mut self.hbms, hbm, |p| p.name().to_string());
            }
            "--shrink" => {
                let shrink = flags.parsed(arg, "a positive integer", Flags::at_least_one);
                push_once(flags, arg, &mut self.shrinks, shrink, usize::to_string);
            }
            _ => return false,
        }
        true
    }

    /// Resolves the default of every axis no flag named (`default_shrinks`
    /// for the shrink axis) and enumerates the cells: dataset-major, then
    /// tile, HBM preset and shrink, the last varying fastest.
    pub fn cells(&mut self, default_shrinks: &[usize]) -> Vec<GridCell> {
        if self.datasets.is_empty() {
            self.datasets =
                DatasetCatalog::spgemm_suite().iter().map(|d| d.name.to_string()).collect();
        }
        if self.hbms.is_empty() {
            self.hbms = HbmPreset::ALL.to_vec();
        }
        if self.shrinks.is_empty() {
            self.shrinks = default_shrinks.to_vec();
        }
        let mut cells = Vec::new();
        for dataset in &self.datasets {
            let matched = [size_matched_tile(dataset)];
            let tiles = if self.tiles.is_empty() { &matched[..] } else { &self.tiles };
            for &tile in tiles {
                for &hbm in &self.hbms {
                    for &shrink in &self.shrinks {
                        cells.push(GridCell { dataset: dataset.clone(), tile, hbm, shrink });
                    }
                }
            }
        }
        cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_matrix_is_deterministic() {
        let d = DatasetCatalog::by_name("cora").unwrap();
        let a = scaled_matrix(&d, 4);
        let b = scaled_matrix(&d, 4);
        assert_eq!(a.nnz(), b.nnz());
        assert!(a.nnz() > 0);
    }

    #[test]
    fn by_name_matches_catalog_lookup() {
        let via_name = scaled_matrix_by_name("cora", 4);
        let via_catalog = scaled_matrix(&DatasetCatalog::by_name("cora").unwrap(), 4);
        assert_eq!(via_name.nnz(), via_catalog.nnz());
    }

    #[test]
    #[should_panic(expected = "not in the catalog")]
    fn unknown_dataset_panics() {
        scaled_matrix_by_name("definitely-not-a-dataset", 4);
    }

    #[test]
    fn fidelity_ladder_really_shrinks_when_unscaled() {
        let full = sim_matrix_at_fidelity("cora", 1).rows();
        let cheap = sim_matrix_at_fidelity("cora", 8).rows();
        assert!(full > cheap, "shrink 8 must simulate a smaller graph ({full} vs {cheap})");
        assert!(cheap >= 32);
    }
}
