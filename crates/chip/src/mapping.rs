//! Compute-mapping algorithms (Section 3.5, Figures 12/13).
//!
//! A mapping algorithm decides which NeuraMem accumulates the partial
//! products of a given output tag (and, symmetrically, which NeuraCore a
//! multiplication task is pushed to).  The paper requires mappings to be
//! *consistent* (same tag → same unit), *cheap to evaluate*, and
//! *sparsity-agnostic*.  Four schemes are modelled:
//!
//! * `RingMapping` — round-robin / ring hashing,
//! * `ModularMapping` — prime-number modular hashing,
//! * `RandomTableMapping` — ideal random mapping with a full lookup table,
//! * `DrhmMapping` — the paper's Dynamically Reseeding Hash-based Mapping.

use neura_sim::DeterministicRng;
use serde::{Deserialize, Serialize};

/// Which mapping algorithm to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MappingKind {
    /// Round-robin (ring) hashing.
    Ring,
    /// Prime-number based modular hashing.
    Modular,
    /// Random mapping backed by a full lookup table (idealised).
    RandomTable,
    /// Dynamically Reseeding Hash-based Mapping (the paper's contribution).
    Drhm,
}

impl MappingKind {
    /// All four evaluated mappings, in the order of Figure 13.
    pub const ALL: [MappingKind; 4] =
        [MappingKind::Ring, MappingKind::Modular, MappingKind::RandomTable, MappingKind::Drhm];

    /// Human readable name.
    pub fn name(&self) -> &'static str {
        match self {
            MappingKind::Ring => "ring",
            MappingKind::Modular => "modular",
            MappingKind::RandomTable => "random-table",
            MappingKind::Drhm => "drhm",
        }
    }

    /// Builds the corresponding mapper over `units` target resources.
    pub fn build(&self, units: usize, seed: u64) -> Box<dyn ComputeMapping> {
        match self {
            MappingKind::Ring => Box::new(RingMapping::new(units)),
            MappingKind::Modular => Box::new(ModularMapping::new(units)),
            MappingKind::RandomTable => Box::new(RandomTableMapping::new(units, seed)),
            MappingKind::Drhm => Box::new(DrhmMapping::new(units, seed)),
        }
    }
}

/// A consistent assignment of tags to compute/accumulation units.
///
/// `row` is the output row the tag belongs to (the row of the input sparse
/// matrix whose computation produced it).  DRHM derives its seed γ from the
/// row — the paper's "compact lookup table" of per-row seeds — so that every
/// partial product of a given output element maps to the same NeuraMem no
/// matter when it is generated, while different rows still get statistically
/// independent placements.  The other mappings ignore `row`.
pub trait ComputeMapping: std::fmt::Debug + Send {
    /// Maps a tag (belonging to output row `row`) to a unit index in `[0, units)`.
    fn map(&mut self, tag: u64, row: u64) -> usize;

    /// Number of target units.
    fn units(&self) -> usize;

    /// Memory overhead of the mapping state in bytes (the paper's argument
    /// for DRHM over a full random table).
    fn state_bytes(&self) -> usize;
}

/// Round-robin / ring hashing: `tag mod units`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct RingMapping {
    units: usize,
}

impl RingMapping {
    /// Creates a ring mapping over `units` resources.
    pub(crate) fn new(units: usize) -> Self {
        assert!(units > 0, "mapping needs at least one unit");
        RingMapping { units }
    }
}

impl ComputeMapping for RingMapping {
    fn map(&mut self, tag: u64, _row: u64) -> usize {
        (tag % self.units as u64) as usize
    }
    fn units(&self) -> usize {
        self.units
    }
    fn state_bytes(&self) -> usize {
        8
    }
}

/// Prime-number modular hashing: `(tag · p) mod q mod units` with fixed primes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct ModularMapping {
    units: usize,
}

const MODULAR_PRIME_MULTIPLIER: u64 = 2_654_435_761; // Knuth's multiplicative constant
const MODULAR_PRIME_MODULUS: u64 = 4_294_967_291; // largest 32-bit prime

impl ModularMapping {
    /// Creates a prime-modular mapping over `units` resources.
    pub(crate) fn new(units: usize) -> Self {
        assert!(units > 0, "mapping needs at least one unit");
        ModularMapping { units }
    }
}

impl ComputeMapping for ModularMapping {
    fn map(&mut self, tag: u64, _row: u64) -> usize {
        let hashed = tag.wrapping_mul(MODULAR_PRIME_MULTIPLIER) % MODULAR_PRIME_MODULUS;
        (hashed % self.units as u64) as usize
    }
    fn units(&self) -> usize {
        self.units
    }
    fn state_bytes(&self) -> usize {
        16
    }
}

/// Idealised random mapping: every distinct tag gets an independent uniform
/// unit, remembered in a lookup table to stay consistent.  Sparsity-agnostic
/// but with memory growing linearly in the number of distinct tags — the
/// impracticality the paper points out.
#[derive(Debug)]
pub(crate) struct RandomTableMapping {
    units: usize,
    rng: DeterministicRng,
    table: std::collections::HashMap<u64, usize>,
}

impl RandomTableMapping {
    /// Creates a random-table mapping over `units` resources.
    pub(crate) fn new(units: usize, seed: u64) -> Self {
        assert!(units > 0, "mapping needs at least one unit");
        RandomTableMapping { units, rng: DeterministicRng::new(seed), table: Default::default() }
    }
}

impl ComputeMapping for RandomTableMapping {
    fn map(&mut self, tag: u64, _row: u64) -> usize {
        let units = self.units;
        let rng = &mut self.rng;
        *self.table.entry(tag).or_insert_with(|| rng.next_below(units as u64) as usize)
    }
    fn units(&self) -> usize {
        self.units
    }
    fn state_bytes(&self) -> usize {
        // One (tag, unit) pair per distinct tag.
        self.table.len() * (8 + 8)
    }
}

/// Dynamically Reseeding Hash-based Mapping (DRHM).
///
/// Implements the lower-k-bit variant of Equation 3:
/// `H_l(TAG, γ) = ((TAG << k) >> k) · γ mod N`, where the seed `γ` changes
/// for every row of the input sparse matrix.  The paper stores the per-row
/// seeds in a compact lookup table; this implementation derives γ for a row
/// on demand from the base seed with a SplitMix64-style mixer, which is
/// functionally identical (same seed is always recovered for the same row)
/// with O(1) state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct DrhmMapping {
    units: usize,
    /// Number of upper bits masked away (`k` in Equation 3).
    k: u32,
    base_seed: u64,
}

impl DrhmMapping {
    /// Creates a DRHM mapping over `units` resources with the default `k = 12`.
    pub(crate) fn new(units: usize, seed: u64) -> Self {
        Self::with_k(units, seed, 12)
    }

    /// Creates a DRHM mapping with an explicit `k` (number of upper TAG bits ignored).
    fn with_k(units: usize, seed: u64, k: u32) -> Self {
        assert!(units > 0, "mapping needs at least one unit");
        assert!(k < 32, "k must leave at least one low bit");
        DrhmMapping { units, k, base_seed: seed }
    }

    /// The seed γ used for a given input row (always odd, so the
    /// multiplicative hash never degenerates).
    pub(crate) fn gamma_for_row(&self, row: u64) -> u64 {
        let mut z = self.base_seed ^ row.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) | 1
    }

    /// Lower-k-bit hash of Equation 3 for an arbitrary γ.
    ///
    /// The `· γ mod N` of Equation 3 is realised as fixed-point
    /// multiplicative hashing (multiply by the odd seed, keep the upper half
    /// of the product, reduce modulo `N`).  A plain low-bit modulo would
    /// ignore γ whenever `N` is a power of two, which defeats the reseeding;
    /// taking the upper product bits keeps the constant-time lookup while
    /// making every γ produce a genuinely different placement.
    pub(crate) fn hash_lower(tag32: u32, gamma: u64, k: u32, units: usize) -> usize {
        let masked = ((tag32 << k) >> k) as u64;
        let mixed = masked.wrapping_mul(gamma);
        (((mixed >> 32) ^ mixed) % units as u64) as usize
    }
}

impl ComputeMapping for DrhmMapping {
    fn map(&mut self, tag: u64, row: u64) -> usize {
        Self::hash_lower(tag as u32, self.gamma_for_row(row), self.k, self.units)
    }

    fn units(&self) -> usize {
        self.units
    }

    fn state_bytes(&self) -> usize {
        // The base seed and k: constant regardless of workload size.
        8 + 4
    }
}

/// Builds the per-unit workload histogram produced by mapping every tag.
///
/// `rows[i]` lists the tags generated while computing input row `i`; the row
/// index is what drives DRHM's seed selection.  The returned vector has one
/// entry per unit and is the data behind Figures 12/13.
pub fn workload_histogram(mapping: &mut dyn ComputeMapping, rows: &[Vec<u64>]) -> Vec<u64> {
    let mut histogram = vec![0u64; mapping.units()];
    for (row_idx, row) in rows.iter().enumerate() {
        for &tag in row {
            histogram[mapping.map(tag, row_idx as u64)] += 1;
        }
    }
    histogram
}

#[cfg(test)]
mod tests {
    use super::*;
    use neura_sparse::stats::imbalance;

    fn strided_rows(rows: usize, stride: u64, per_row: usize) -> Vec<Vec<u64>> {
        (0..rows as u64)
            .map(|r| (0..per_row as u64).map(|i| r * 1000 + i * stride).collect())
            .collect()
    }

    #[test]
    fn mappings_are_consistent_for_a_tag() {
        for kind in MappingKind::ALL {
            let mut m = kind.build(16, 7);
            let a = m.map(12345, 3);
            let b = m.map(12345, 3);
            assert_eq!(a, b, "{} must map the same tag consistently", kind.name());
            assert!(a < 16);
        }
    }

    #[test]
    fn ring_mapping_is_modulo() {
        let mut m = RingMapping::new(8);
        assert_eq!(m.map(0, 0), 0);
        assert_eq!(m.map(9, 0), 1);
        assert_eq!(m.map(16, 0), 0);
    }

    #[test]
    fn drhm_uses_a_different_seed_per_row() {
        let m = DrhmMapping::new(64, 3);
        let gammas: std::collections::HashSet<u64> =
            (0..32u64).map(|row| m.gamma_for_row(row)).collect();
        assert!(gammas.len() > 28, "per-row seeds must be (almost) all distinct");
        // The same row always yields the same seed (the compact lookup table).
        assert_eq!(m.gamma_for_row(7), m.gamma_for_row(7));
        let mut m = m;
        // And therefore the same (tag, row) pair always maps identically.
        assert_eq!(m.map(777, 5), m.map(777, 5));
    }

    #[test]
    fn drhm_placement_varies_across_rows() {
        let mut m = DrhmMapping::new(64, 3);
        let placements: std::collections::HashSet<usize> =
            (0..16u64).map(|row| m.map(777, row)).collect();
        assert!(placements.len() > 4, "the same tag pattern must spread across rows");
    }

    #[test]
    fn drhm_state_is_constant_size_random_table_grows() {
        let mut drhm = DrhmMapping::new(32, 1);
        let mut table = RandomTableMapping::new(32, 1);
        for tag in 0..10_000u64 {
            drhm.map(tag, tag / 100);
            table.map(tag, tag / 100);
        }
        assert!(drhm.state_bytes() < 64);
        assert!(table.state_bytes() >= 10_000 * 8);
    }

    #[test]
    fn strided_tags_create_ring_hot_spots_but_not_drhm() {
        // Tags that are multiples of the unit count all land on unit 0 for
        // ring hashing — the hot-spot pathology of Figure 12(a).
        let units = 16usize;
        let rows = strided_rows(64, units as u64, 32);

        let mut ring = RingMapping::new(units);
        let ring_hist = workload_histogram(&mut ring, &rows);
        let (ring_peak, _) = imbalance(&ring_hist);

        let mut drhm = DrhmMapping::new(units, 11);
        let drhm_hist = workload_histogram(&mut drhm, &rows);
        let (drhm_peak, _) = imbalance(&drhm_hist);

        assert!(
            ring_peak > 2.0 * drhm_peak,
            "ring peak/mean {ring_peak} should dwarf DRHM {drhm_peak}"
        );
    }

    #[test]
    fn drhm_balance_is_close_to_random_table() {
        let units = 32usize;
        let rows = strided_rows(128, 64, 64);
        let mut drhm = DrhmMapping::new(units, 5);
        let mut random = RandomTableMapping::new(units, 5);
        let (drhm_peak, _) = imbalance(&workload_histogram(&mut drhm, &rows));
        let (rand_peak, _) = imbalance(&workload_histogram(&mut random, &rows));
        assert!(
            drhm_peak < rand_peak * 2.0,
            "DRHM imbalance {drhm_peak} should be comparable to random {rand_peak}"
        );
    }

    #[test]
    fn lower_bit_hash_ignores_the_masked_upper_bits() {
        // Two tags differing only in the upper `k` bits map identically.
        let gamma = 0x9E3779B97F4A7C15 | 1;
        let a = DrhmMapping::hash_lower(0x0000_1234, gamma, 12, 64);
        let b = DrhmMapping::hash_lower(0xFFF0_1234, gamma, 12, 64);
        assert_eq!(a, b);
    }

    #[test]
    fn histogram_conserves_work() {
        let rows = strided_rows(10, 3, 17);
        let total_tags: u64 = rows.iter().map(|r| r.len() as u64).sum();
        for kind in MappingKind::ALL {
            let mut m = kind.build(8, 2);
            let hist = workload_histogram(m.as_mut(), &rows);
            assert_eq!(hist.iter().sum::<u64>(), total_tags, "{}", kind.name());
        }
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn zero_units_panics() {
        RingMapping::new(0);
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(MappingKind::Drhm.name(), "drhm");
        assert_eq!(MappingKind::ALL.len(), 4);
    }
}
