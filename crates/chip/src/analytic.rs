//! Analytic fast-path cost model — the cheap tier of the two-tier chip
//! model.
//!
//! The cycle-accurate [`Accelerator`](crate::accelerator::Accelerator) is
//! the truth oracle: it prices one SpGEMM workload by simulating every
//! NeuraCore dispatch, hashpad probe and HBM transaction, which costs
//! milliseconds-to-seconds per (config, workload) pair. That is far too
//! slow to price millions of distinct serve requests or to screen a
//! 100× tuner grid. This module provides the fast tier: a closed-form
//! estimate `cycles ≈ f(nnz, bloat, tile size, cores/mems per tile, HBM
//! preset)` whose coefficients were fitted *offline* from cycle-level runs
//! (see `crates/bench/src/bin/xval.rs --fit`) and checked in as data.
//! Pricing a request is a handful of floating-point operations —
//! nanoseconds instead of a simulation.
//!
//! # Model form
//!
//! Per (tile size × HBM preset) — nine groups — the model is **additive**
//! over seven mechanistic features, with a hinge so the workload term can
//! never drive the estimate below the group's fixed overhead:
//!
//! ```text
//! cycles = c0 + max(0,  c_instr · mmh_instructions[mmh_tile] / total_cores
//!                     + c_cols  · active_cols
//!                     + c_pp    · partial_products / total_cores
//!                     + c_hub   · max_row_pp
//!                     + c_out   · output_nnz / total_mems
//!                     + c_nnz   · nnz / total_cores
//!                     + c_rows  · rows)
//! ```
//!
//! The features mirror the architecture's serial and parallel axes: MMH
//! instructions per core (issue/dispatch throughput at the configured
//! tile height), active columns (DRHM reseed boundaries — the instruction
//! stream's serialisation points), partial products per core (multiply
//! work), the heaviest single row (the critical path one core must chew
//! through alone), output non-zeros per NeuraMem (hashpad accumulation),
//! streamed edges per core, and rows (per-row epilogue work). Log-linear
//! forms were tried first and plateau around 25–50% worst-case error:
//! a product of powers cannot express the *additive/bottleneck* structure
//! of an event-driven pipeline where fixed overhead, per-instruction cost
//! and hub serialisation stack linearly. The additive form fits every
//! group to within the golden bounds.
//!
//! Cores and mems enter through feature denominators, so one coefficient
//! group prices every cores-per-tile/mems sweep variation; the HBM preset
//! indexes the group table because memory timing changes the *shape* of
//! the cost surface (row-miss exposure is workload-dependent), not just
//! its scale. Frequency never appears: cycle counts are
//! frequency-independent, and [`AnalyticModel::seconds`] converts through
//! [`ChipConfig::seconds_per_cycle`] exactly like the simulator.
//!
//! # Guarantees
//!
//! Estimates are strictly positive, finite and deterministic (pure f64
//! arithmetic, no global state). Monotonicity is structural where it is
//! promised: `c_nnz` is constrained non-negative during fitting, so the
//! estimate is monotone non-decreasing in `nnz` at fixed everything-else,
//! and every feature is linear in its workload field, so scaling a whole
//! request by k ≥ 1 scales the hinge argument by k and the estimate never
//! decreases (`max(0, k·S)` is non-decreasing in k). The remaining
//! coefficients keep free signs — that freedom is what lets the fit hit
//! the error bounds — so *pointwise* monotonicity in every individual
//! field is deliberately not claimed. The fit quality is pinned by the
//! `xval` golden: mean absolute relative error ≤ 5% and worst-case ≤ 15%
//! against the cycle oracle across all 20 paper datasets at paper scale
//! (`just xval`, a CI gate), and `crates/chip/tests/cost_model_properties.rs`
//! re-checks positivity, determinism, monotonicity and a seeded sample of
//! the error bound on every test run.

use crate::config::{ChipConfig, TileSize};
use neura_mem::HbmPreset;
use neura_sparse::{spgemm, CsrMatrix};

/// Structural features of one SpGEMM workload — everything the analytic
/// model reads about the *workload* (configuration features are taken
/// from the [`ChipConfig`] at pricing time).
///
/// Computing them is one symbolic pass over the operands
/// (O(partial products) integer work), thousands of times cheaper than a
/// cycle-level simulation; once computed, any number of configurations
/// can be priced against them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadFeatures {
    /// Rows of the left operand (graph nodes).
    pub rows: u64,
    /// Non-zeros of the left operand (graph edges).
    pub nnz: u64,
    /// Intermediate partial products of the multiplication (the "bloat"
    /// numerator: every scalar multiply the kernel performs).
    pub partial_products: u64,
    /// Non-zeros of the output matrix after accumulation.
    pub output_nnz: u64,
    /// Partial products of the heaviest single output row — the
    /// critical-path row a single NeuraCore must chew through, however
    /// many cores sit idle. Hub-dominated graphs (scale-free, community)
    /// concentrate work here; banded matrices spread it evenly.
    pub max_row_pp: u64,
    /// Productive columns of the left operand (non-empty, paired with a
    /// non-empty right-operand row): the compiler emits one DRHM reseed
    /// boundary per column it processes, so this counts the serialisation
    /// points of the instruction stream.
    pub active_cols: u64,
    /// `MMH<t>` instructions the compiler emits at tile heights 1, 2, 4
    /// and 8 (`Σ ceil(col_nnz / t)` over productive columns): the
    /// per-instruction overheads (operand fetch, issue, DRAM round-trips)
    /// scale with this, not with raw nnz. Indexed by [`mmh_tile_index`].
    pub mmh_instructions: [u64; 4],
}

/// Index into [`WorkloadFeatures::mmh_instructions`] for a configured MMH
/// tile height (1, 2, 4 or 8 — the heights the compiler accepts).
pub fn mmh_tile_index(mmh_tile: u8) -> usize {
    match mmh_tile {
        1 => 0,
        2 => 1,
        4 => 2,
        8 => 3,
        other => panic!("MMH tile height must be 1, 2, 4 or 8 (got {other})"),
    }
}

impl WorkloadFeatures {
    /// Extracts features for the square product `a · a` (the paper's
    /// benchmark workload) via a symbolic pass.
    pub fn from_square(a: &CsrMatrix) -> Self {
        let stats = spgemm::count_products(a, a);
        let (active_cols, mmh_instructions) = compiler_shape(a, a);
        WorkloadFeatures {
            rows: a.rows() as u64,
            nnz: a.nnz() as u64,
            partial_products: stats.multiplications,
            output_nnz: stats.output_nnz as u64,
            max_row_pp: stats.max_row_partial_products,
            active_cols,
            mmh_instructions,
        }
    }

    /// Floating-point operations of the multiplication (one multiply and
    /// one accumulate per partial product) — identical to
    /// `WorkloadProfile::flops` in `neura_baselines`.
    pub fn flops(&self) -> u64 {
        2 * self.partial_products
    }
}

/// Counts the instruction-stream shape the compiler would emit for the
/// product `a · b`: productive columns (columns of `a` that pair with a
/// non-empty row of `b` — the compiler skips the rest, and each one
/// processed is a DRHM reseed boundary) and `Σ_col ceil(col_nnz / t)` MMH
/// instructions over those columns at each tile height. O(nnz) — one
/// counting pass over the column indices.
fn compiler_shape(a: &CsrMatrix, b: &CsrMatrix) -> (u64, [u64; 4]) {
    let mut col_nnz = vec![0u64; a.cols()];
    for &c in a.col_idx() {
        col_nnz[c] += 1;
    }
    let mut active = 0u64;
    let mut instructions = [0u64; 4];
    for (k, &n) in col_nnz.iter().enumerate() {
        if n == 0 || k >= b.rows() || b.row_nnz(k) == 0 {
            continue;
        }
        active += 1;
        for (slot, height) in instructions.iter_mut().zip([1u64, 2, 4, 8]) {
            *slot += n.div_ceil(height);
        }
    }
    (active, instructions)
}

/// Fitted additive coefficients for one (tile size × HBM preset) group.
///
/// Only `nnz_per_core` carries a sign constraint (non-negative, asserted
/// by the `calibrated_model_is_valid` test) — that, plus the hinge in
/// [`AnalyticModel::cycles`], is what backs the monotonicity guarantees.
/// The other coefficients keep free signs: the fit needs negative
/// corrections (e.g. output rows that overlap partial-product streaming)
/// to reach the error bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupCoeffs {
    /// Tile size this group was fitted for.
    pub tile: TileSize,
    /// HBM preset this group was fitted for.
    pub hbm: HbmPreset,
    /// Fixed overhead `c0` in cycles (≥ 1; also the positivity floor).
    pub intercept: f64,
    /// Cycles per MMH instruction per NeuraCore (at the config's MMH tile
    /// height).
    pub instr_per_core: f64,
    /// Cycles per active column (DRHM reseed boundary).
    pub active_cols: f64,
    /// Cycles per partial product per NeuraCore.
    pub pp_per_core: f64,
    /// Cycles per partial product of the heaviest row (hub critical
    /// path).
    pub max_row_pp: f64,
    /// Cycles per output non-zero per NeuraMem.
    pub out_per_mem: f64,
    /// Cycles per input non-zero per NeuraCore (constrained ≥ 0).
    pub nnz_per_core: f64,
    /// Cycles per output row (write-back epilogue).
    pub rows: f64,
}

impl GroupCoeffs {
    /// Predicted cycles for the given feature vector: intercept plus the
    /// hinged workload term.
    fn predict(&self, z: &[f64; FEATURES]) -> f64 {
        let workload = self.instr_per_core * z[0]
            + self.active_cols * z[1]
            + self.pp_per_core * z[2]
            + self.max_row_pp * z[3]
            + self.out_per_mem * z[4]
            + self.nnz_per_core * z[5]
            + self.rows * z[6];
        self.intercept + workload.max(0.0)
    }
}

/// Number of (non-intercept) features the model reads.
pub const FEATURES: usize = 7;

/// Computes the additive feature vector for a (config, workload) pair,
/// in [`GroupCoeffs`] coefficient order.
///
/// Public so the `xval` fitting harness fits against exactly the features
/// the shipped model prices with.
pub fn feature_vector(config: &ChipConfig, w: &WorkloadFeatures) -> [f64; FEATURES] {
    let cores = config.total_cores() as f64;
    let mems = config.total_mems() as f64;
    [
        w.mmh_instructions[mmh_tile_index(config.mmh_tile)] as f64 / cores,
        w.active_cols as f64,
        w.partial_products as f64 / cores,
        w.max_row_pp as f64,
        w.output_nnz as f64 / mems,
        w.nnz as f64 / cores,
        w.rows as f64,
    ]
}

/// Number of coefficient groups: every [`TileSize`] × every
/// [`HbmPreset`].
pub const GROUPS: usize = TileSize::ALL.len() * HbmPreset::ALL.len();

/// Resolves a config's HBM timing back to the preset whose group prices
/// it: the exact preset when the timing matches one (the only case the
/// sweep/tuner surfaces produce), otherwise the preset with the nearest
/// channel width and miss latency, so hand-built custom timings still get
/// a sane estimate instead of a panic.
fn hbm_group_preset(config: &ChipConfig) -> HbmPreset {
    if let Some(preset) = HbmPreset::of(&config.hbm) {
        return preset;
    }
    let distance = |preset: &HbmPreset| {
        let t = preset.timing();
        let width =
            (t.bytes_per_cycle as f64).ln() - (config.hbm.bytes_per_cycle.max(1) as f64).ln();
        let miss = (t.row_miss_latency + t.base_latency).max(1) as f64;
        let lat = miss.ln()
            - ((config.hbm.row_miss_latency + config.hbm.base_latency).max(1) as f64).ln();
        width * width + lat * lat
    };
    HbmPreset::ALL
        .into_iter()
        .min_by(|a, b| distance(a).total_cmp(&distance(b)))
        .expect("HbmPreset::ALL is non-empty")
}

/// The closed-form cost model: one fitted coefficient group per
/// (tile size × HBM preset).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticModel {
    /// Coefficient groups in tile-major order: for each tile size in
    /// [`TileSize::ALL`], every preset in [`HbmPreset::ALL`].
    pub groups: [GroupCoeffs; GROUPS],
}

/// Coefficients fitted offline by `cargo run --release --bin xval -- --fit`
/// over the (20 datasets × size-matched tile × 3 HBM presets × shrink ∈
/// {1, 2, 4, 8}) cycle-level sample grid (2026-08-09). The fit is a
/// weighted least squares in relative-error space (weight `1/cycles²`)
/// with paper-scale (shrink-1) cells up-weighted 128×, iteratively
/// re-solved with `nnz_per_core` clamped to zero when it goes negative.
/// Validation on the paper-scale grid: see `baselines/xval.json` and the
/// `xval` golden (mean abs rel error ≤ 5%, worst ≤ 15%).
const CALIBRATED_GROUPS: [GroupCoeffs; GROUPS] = [
    GroupCoeffs {
        tile: TileSize::Tile4,
        hbm: HbmPreset::Hbm2,
        intercept: 189.45178126489063,
        instr_per_core: 219.15966260530635,
        active_cols: -19.568362968928586,
        pp_per_core: -0.8274691096989739,
        max_row_pp: -1.5834071359818587,
        out_per_mem: 1.8018273950020853,
        nnz_per_core: 0.0,
        rows: 2.5499017385296527,
    },
    GroupCoeffs {
        tile: TileSize::Tile4,
        hbm: HbmPreset::Hbm2DualStack,
        intercept: 196.46527956292874,
        instr_per_core: 211.49101349095486,
        active_cols: -16.120725974905117,
        pp_per_core: -0.8429983492300448,
        max_row_pp: -1.8299981179736173,
        out_per_mem: 2.0793937996800738,
        nnz_per_core: 0.0,
        rows: 1.191768603604106,
    },
    GroupCoeffs {
        tile: TileSize::Tile4,
        hbm: HbmPreset::Ddr4,
        intercept: 209.75181837500554,
        instr_per_core: 198.29030010969086,
        active_cols: -10.750028753867953,
        pp_per_core: -0.6760408588243614,
        max_row_pp: -2.1933239129618474,
        out_per_mem: 3.359472580249233,
        nnz_per_core: 5.358906688852521,
        rows: -0.5139343697662798,
    },
    GroupCoeffs {
        tile: TileSize::Tile16,
        hbm: HbmPreset::Hbm2,
        intercept: 684.7864365650631,
        instr_per_core: -1029.2708087791907,
        active_cols: 27.643512561083373,
        pp_per_core: 5.33257757585511,
        max_row_pp: -0.4270192309591952,
        out_per_mem: 18.05981718603346,
        nnz_per_core: 183.45947269297974,
        rows: -6.235422753623388,
    },
    GroupCoeffs {
        tile: TileSize::Tile16,
        hbm: HbmPreset::Hbm2DualStack,
        intercept: 681.3615818983917,
        instr_per_core: -1134.1824576982626,
        active_cols: 27.29573118734583,
        pp_per_core: 5.038288734815938,
        max_row_pp: -0.6914379125119494,
        out_per_mem: 17.515481205132048,
        nnz_per_core: 216.92186075812123,
        rows: -5.1188311054225455,
    },
    GroupCoeffs {
        tile: TileSize::Tile16,
        hbm: HbmPreset::Ddr4,
        intercept: 779.1704125185685,
        instr_per_core: -308.4576027095432,
        active_cols: 16.19005057163252,
        pp_per_core: 4.3784226952797995,
        max_row_pp: -0.40704081031943207,
        out_per_mem: 23.13177372230158,
        nnz_per_core: 31.164622660724962,
        rows: -7.346213164888635,
    },
    GroupCoeffs {
        tile: TileSize::Tile64,
        hbm: HbmPreset::Hbm2,
        intercept: 1017.3040060182893,
        instr_per_core: -44512.266208287576,
        active_cols: 187.98482606472433,
        pp_per_core: -91.19692842796623,
        max_row_pp: 13.802367039995966,
        out_per_mem: 224.39650451972616,
        nnz_per_core: 10357.284970200286,
        rows: -38.10711892958107,
    },
    GroupCoeffs {
        tile: TileSize::Tile64,
        hbm: HbmPreset::Hbm2DualStack,
        intercept: 998.8043250604121,
        instr_per_core: -44442.422974620866,
        active_cols: 187.942489294035,
        pp_per_core: -91.48650690409002,
        max_row_pp: 13.856503721036555,
        out_per_mem: 225.14366882782917,
        nnz_per_core: 10337.784992574092,
        rows: -38.227579063575725,
    },
    GroupCoeffs {
        tile: TileSize::Tile64,
        hbm: HbmPreset::Ddr4,
        intercept: 1124.4411328543868,
        instr_per_core: -49969.119698980714,
        active_cols: 208.36229435396976,
        pp_per_core: -101.73116162006316,
        max_row_pp: 14.61180793925178,
        out_per_mem: 251.9568125812633,
        nnz_per_core: 11689.867983621789,
        rows: -41.344538267153794,
    },
];

/// The shipped model with the checked-in calibrated coefficients.
pub(crate) const CALIBRATED: AnalyticModel = AnalyticModel { groups: CALIBRATED_GROUPS };

impl AnalyticModel {
    /// Returns the calibrated model (checked-in fitted coefficients).
    pub fn calibrated() -> &'static AnalyticModel {
        &CALIBRATED
    }

    /// Coefficient group for a (tile size, HBM preset) pair.
    pub(crate) fn group(&self, tile: TileSize, hbm: HbmPreset) -> &GroupCoeffs {
        let tile_index = TileSize::ALL
            .iter()
            .position(|t| *t == tile)
            .expect("TileSize::ALL covers every variant");
        let hbm_index = HbmPreset::ALL
            .iter()
            .position(|p| *p == hbm)
            .expect("HbmPreset::ALL covers every variant");
        &self.groups[tile_index * HbmPreset::ALL.len() + hbm_index]
    }

    /// Estimated execution cycles for `workload` on `config`. Strictly
    /// positive and finite for any valid config; monotone non-decreasing
    /// in `nnz` and under proportional scaling of the whole workload.
    pub fn cycles(&self, config: &ChipConfig, workload: &WorkloadFeatures) -> f64 {
        let z = feature_vector(config, workload);
        let group = self.group(config.tile_size, hbm_group_preset(config));
        group.predict(&z).max(1.0)
    }

    /// Estimated cycles rounded to an integer cycle count (≥ 1), the
    /// shape `neura_serve::ClassCost` stores.
    pub fn class_cycles(&self, config: &ChipConfig, workload: &WorkloadFeatures) -> u64 {
        let estimate = self.cycles(config, workload).round();
        if estimate >= u64::MAX as f64 {
            u64::MAX
        } else {
            (estimate as u64).max(1)
        }
    }

    /// Estimated wall-clock seconds: cycles × the config's cycle time,
    /// exactly the conversion the cycle-level simulator applies.
    pub fn seconds(&self, config: &ChipConfig, workload: &WorkloadFeatures) -> f64 {
        self.cycles(config, workload) * config.seconds_per_cycle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neura_mem::HbmPreset;

    fn sample_workload() -> WorkloadFeatures {
        WorkloadFeatures {
            rows: 1_000,
            nnz: 10_000,
            partial_products: 250_000,
            output_nnz: 60_000,
            max_row_pp: 2_500,
            active_cols: 900,
            mmh_instructions: [10_000, 5_400, 3_100, 1_900],
        }
    }

    /// The structural invariants of the checked-in coefficients: groups in
    /// tile-major [`TileSize::ALL`] × [`HbmPreset::ALL`] order, finite
    /// coefficients, intercept ≥ 1 (positivity floor) and `nnz_per_core` ≥ 0
    /// (the nnz-monotonicity guarantee).
    #[test]
    fn calibrated_model_is_valid() {
        let model = AnalyticModel::calibrated();
        let mut expect = TileSize::ALL
            .iter()
            .flat_map(|&tile| HbmPreset::ALL.into_iter().map(move |hbm| (tile, hbm)));
        for group in &model.groups {
            let (tile, hbm) = expect.next().expect("GROUPS matches the product size");
            assert_eq!(
                (group.tile, group.hbm),
                (tile, hbm),
                "groups must be tile-major over TileSize::ALL × HbmPreset::ALL",
            );
            for c in [
                group.intercept,
                group.instr_per_core,
                group.active_cols,
                group.pp_per_core,
                group.max_row_pp,
                group.out_per_mem,
                group.nnz_per_core,
                group.rows,
            ] {
                assert!(c.is_finite(), "non-finite coefficient in {tile:?}/{hbm:?} group");
            }
            assert!(
                group.intercept >= 1.0,
                "intercept must be ≥ 1 for strict positivity ({tile:?}/{hbm:?})",
            );
            assert!(
                group.nnz_per_core >= 0.0,
                "nnz coefficient must be non-negative for nnz monotonicity ({tile:?}/{hbm:?})",
            );
        }
    }

    #[test]
    fn estimates_are_positive_and_finite_for_every_tile_and_preset() {
        let w = sample_workload();
        for tile in TileSize::ALL {
            for preset in HbmPreset::ALL {
                let config = ChipConfig::for_tile_size(tile).with_hbm_preset(preset);
                let cycles = AnalyticModel::calibrated().cycles(&config, &w);
                assert!(cycles.is_finite() && cycles >= 1.0, "{tile:?}/{preset:?}");
                assert!(AnalyticModel::calibrated().class_cycles(&config, &w) >= 1);
            }
        }
    }

    #[test]
    fn seconds_scale_inversely_with_frequency() {
        let w = sample_workload();
        let slow = ChipConfig::tile_16().with_frequency_ghz(1.0);
        let fast = ChipConfig::tile_16().with_frequency_ghz(2.0);
        let model = AnalyticModel::calibrated();
        assert_eq!(model.cycles(&slow, &w), model.cycles(&fast, &w));
        let ratio = model.seconds(&slow, &w) / model.seconds(&fast, &w);
        assert!((ratio - 2.0).abs() < 1e-12);
    }

    #[test]
    fn bigger_workload_never_prices_cheaper() {
        let small = sample_workload();
        let big = WorkloadFeatures {
            rows: small.rows * 4,
            nnz: small.nnz * 4,
            partial_products: small.partial_products * 4,
            output_nnz: small.output_nnz * 4,
            max_row_pp: small.max_row_pp * 4,
            active_cols: small.active_cols * 4,
            mmh_instructions: small.mmh_instructions.map(|i| i * 4),
        };
        for tile in TileSize::ALL {
            let config = ChipConfig::for_tile_size(tile);
            let model = AnalyticModel::calibrated();
            assert!(model.cycles(&config, &big) >= model.cycles(&config, &small));
        }
    }

    #[test]
    fn features_match_symbolic_analysis() {
        let a = neura_sparse::gen::GraphGenerator::power_law(64, 256, 2.4, 7).generate().to_csr();
        let w = WorkloadFeatures::from_square(&a);
        let (_, numeric) = spgemm::multiply_counting(&a, &a);
        assert_eq!(w.rows, a.rows() as u64);
        assert_eq!(w.nnz, a.nnz() as u64);
        assert_eq!(w.partial_products, numeric.multiplications);
        assert_eq!(w.output_nnz, numeric.output_nnz as u64);
        assert_eq!(w.flops(), 2 * numeric.multiplications);
        assert_eq!(w.max_row_pp, numeric.max_row_partial_products);
        assert!(w.max_row_pp >= w.partial_products.div_ceil(w.rows.max(1)));
        assert!(w.max_row_pp <= w.partial_products);
        assert!(w.active_cols <= w.rows);
        assert!(
            w.mmh_instructions[0] <= w.nnz,
            "height-1 MMH = one instruction per nnz in a productive column"
        );
        assert!(w.mmh_instructions[3] >= w.active_cols, "at least one instruction per column");
        let program = crate::compiler::compile_spgemm(&a.to_csc(), &a, 4);
        assert_eq!(
            w.mmh_instructions[mmh_tile_index(4)],
            program.instruction_count() as u64,
            "feature mirrors the compiler's instruction stream exactly"
        );
    }
}
