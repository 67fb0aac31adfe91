//! Compute-mapping algorithms (Section 3.5, Figures 12/13).
//!
//! A mapping algorithm decides which NeuraMem accumulates the partial
//! products of a given output tag (and, symmetrically, which NeuraCore a
//! multiplication task is pushed to).  The paper requires mappings to be
//! *consistent* (same tag → same unit), *cheap to evaluate*, and
//! *sparsity-agnostic*.  Four schemes are modelled, one [`MappingKind`]
//! each, and [`MappingKind::build`] makes the [`Mapper`] that evaluates it:
//!
//! * `ring` — round-robin / ring hashing,
//! * `modular` — prime-number modular hashing,
//! * `random-table` — ideal random mapping with a full lookup table,
//! * `drhm` — the paper's Dynamically Reseeding Hash-based Mapping.

use neura_sim::DeterministicRng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Which mapping algorithm to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MappingKind {
    /// Round-robin (ring) hashing: `tag mod units`.
    Ring,
    /// Prime-number based modular hashing: `(tag · p) mod q mod units`
    /// with fixed primes.
    Modular,
    /// Random mapping backed by a full lookup table (idealised): every
    /// distinct tag gets an independent uniform unit, remembered to stay
    /// consistent. Sparsity-agnostic, but its memory grows linearly in the
    /// number of distinct tags — the impracticality the paper points out.
    RandomTable,
    /// Dynamically Reseeding Hash-based Mapping (the paper's contribution).
    ///
    /// Implements the lower-k-bit variant of Equation 3:
    /// `H_l(TAG, γ) = ((TAG << k) >> k) · γ mod N` with `k = 12`, where the
    /// seed `γ` changes for every row of the input sparse matrix.  The
    /// paper stores the per-row seeds in a compact lookup table; the
    /// [`Mapper`] derives γ for a row on demand from its base seed with a
    /// SplitMix64-style mixer, which is functionally identical (same seed
    /// is always recovered for the same row) with O(1) state.
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
    ///
    /// # Panics
    ///
    /// When `units` is 0.
    pub fn build(&self, units: usize, seed: u64) -> Mapper {
        assert!(units > 0, "mapping needs at least one unit");
        Mapper { kind: *self, units, seed, rng: DeterministicRng::new(seed), table: HashMap::new() }
    }
}

const MODULAR_PRIME_MULTIPLIER: u64 = 2_654_435_761; // Knuth's multiplicative constant
const MODULAR_PRIME_MODULUS: u64 = 4_294_967_291; // largest 32-bit prime

/// The upper TAG bits DRHM ignores (`k` in Equation 3).
const DRHM_K: u32 = 12;

/// A consistent assignment of tags to compute/accumulation units: one
/// [`MappingKind`] over a number of units.
///
/// `row` is the output row the tag belongs to (the row of the input sparse
/// matrix whose computation produced it).  DRHM derives its seed γ from the
/// row — the paper's "compact lookup table" of per-row seeds — so that every
/// partial product of a given output element maps to the same NeuraMem no
/// matter when it is generated, while different rows still get statistically
/// independent placements.  The other mappings ignore `row`.
#[derive(Debug)]
pub struct Mapper {
    kind: MappingKind,
    units: usize,
    /// DRHM's base seed (the random table draws from `rng`, seeded with it).
    seed: u64,
    /// `random-table` only: the draws for tags not seen before.
    rng: DeterministicRng,
    /// `random-table` only: the unit drawn for every tag seen so far.
    table: HashMap<u64, usize>,
}

impl Mapper {
    /// Maps a tag (belonging to output row `row`) to a unit index in `[0, units)`.
    ///
    /// Inlined, with the table lookup kept out of line: one function
    /// holding the `HashMap` path made a ring or modular lookup up to twice
    /// as slow as the virtual call this `match` replaced.
    #[inline]
    pub fn map(&mut self, tag: u64, row: u64) -> usize {
        let units = self.units as u64;
        match self.kind {
            MappingKind::Ring => (tag % units) as usize,
            MappingKind::Modular => {
                let hashed = tag.wrapping_mul(MODULAR_PRIME_MULTIPLIER) % MODULAR_PRIME_MODULUS;
                (hashed % units) as usize
            }
            MappingKind::RandomTable => self.table_lookup(tag),
            MappingKind::Drhm => drhm_hash(tag as u32, drhm_gamma(self.seed, row), self.units),
        }
    }

    /// `random-table`: the unit drawn for `tag`, drawn now if it is new.
    #[inline(never)]
    fn table_lookup(&mut self, tag: u64) -> usize {
        let (units, rng) = (self.units as u64, &mut self.rng);
        *self.table.entry(tag).or_insert_with(|| rng.next_below(units) as usize)
    }

    /// Memory overhead of the mapping state in bytes (the paper's argument
    /// for DRHM over a full random table).
    pub fn state_bytes(&self) -> usize {
        match self.kind {
            MappingKind::Ring => 8,
            MappingKind::Modular => 16,
            // One (tag, unit) pair per distinct tag.
            MappingKind::RandomTable => self.table.len() * (8 + 8),
            // The base seed and k: constant regardless of workload size.
            MappingKind::Drhm => 8 + 4,
        }
    }
}

/// The DRHM seed γ of input row `row` under base seed `seed` (always odd,
/// so the multiplicative hash never degenerates).
fn drhm_gamma(seed: u64, row: u64) -> u64 {
    let mut z = seed ^ row.wrapping_mul(0x9E37_79B9_7F4A_7C15);
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
fn drhm_hash(tag32: u32, gamma: u64, units: usize) -> usize {
    let masked = ((tag32 << DRHM_K) >> DRHM_K) as u64;
    let mixed = masked.wrapping_mul(gamma);
    (((mixed >> 32) ^ mixed) % units as u64) as usize
}

/// Builds the per-unit workload histogram produced by mapping every tag.
///
/// `rows[i]` lists the tags generated while computing input row `i`; the row
/// index is what drives DRHM's seed selection.  The returned vector has one
/// entry per unit and is the data behind Figures 12/13.
pub fn workload_histogram(mapping: &mut Mapper, rows: &[Vec<u64>]) -> Vec<u64> {
    let mut histogram = vec![0u64; mapping.units];
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
        let mut m = MappingKind::Ring.build(8, 0);
        assert_eq!(m.map(0, 0), 0);
        assert_eq!(m.map(9, 0), 1);
        assert_eq!(m.map(16, 0), 0);
    }

    #[test]
    fn drhm_uses_a_different_seed_per_row() {
        let gammas: std::collections::HashSet<u64> =
            (0..32u64).map(|row| drhm_gamma(3, row)).collect();
        assert!(gammas.len() > 28, "per-row seeds must be (almost) all distinct");
        // The same row always yields the same seed (the compact lookup table).
        assert_eq!(drhm_gamma(3, 7), drhm_gamma(3, 7));
        let mut m = MappingKind::Drhm.build(64, 3);
        // And therefore the same (tag, row) pair always maps identically.
        assert_eq!(m.map(777, 5), m.map(777, 5));
    }

    #[test]
    fn drhm_placement_varies_across_rows() {
        let mut m = MappingKind::Drhm.build(64, 3);
        let placements: std::collections::HashSet<usize> =
            (0..16u64).map(|row| m.map(777, row)).collect();
        assert!(placements.len() > 4, "the same tag pattern must spread across rows");
    }

    #[test]
    fn drhm_state_is_constant_size_random_table_grows() {
        let mut drhm = MappingKind::Drhm.build(32, 1);
        let mut table = MappingKind::RandomTable.build(32, 1);
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

        let mut ring = MappingKind::Ring.build(units, 0);
        let ring_hist = workload_histogram(&mut ring, &rows);
        let (ring_peak, _) = imbalance(&ring_hist);

        let mut drhm = MappingKind::Drhm.build(units, 11);
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
        let mut drhm = MappingKind::Drhm.build(units, 5);
        let mut random = MappingKind::RandomTable.build(units, 5);
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
        let a = drhm_hash(0x0000_1234, gamma, 64);
        let b = drhm_hash(0xFFF0_1234, gamma, 64);
        assert_eq!(a, b);
    }

    #[test]
    fn histogram_conserves_work() {
        let rows = strided_rows(10, 3, 17);
        let total_tags: u64 = rows.iter().map(|r| r.len() as u64).sum();
        for kind in MappingKind::ALL {
            let mut m = kind.build(8, 2);
            let hist = workload_histogram(&mut m, &rows);
            assert_eq!(hist.iter().sum::<u64>(), total_tags, "{}", kind.name());
        }
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn zero_units_panics() {
        MappingKind::Ring.build(0, 0);
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(MappingKind::Drhm.name(), "drhm");
        assert_eq!(MappingKind::ALL.len(), 4);
    }
}
