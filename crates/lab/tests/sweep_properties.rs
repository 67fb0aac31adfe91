//! Property tests for sweep enumeration: the cartesian product must be
//! exhaustive (every axis combination appears exactly once) and free of
//! duplicate run IDs, for arbitrary subsets of every axis.

use std::collections::HashSet;

use neura_chip::config::{ChipConfig, EvictionPolicy, TileSize};
use neura_chip::mapping::MappingKind;
use neura_lab::spec::eviction_name;
use neura_lab::{ExperimentSpec, SweepGrid};
use proptest::prelude::*;

const ALL_DATASETS: [&str; 4] = ["cora", "facebook", "wiki-Vote", "ca-CondMat"];
const ALL_EVICTIONS: [EvictionPolicy; 2] = [EvictionPolicy::Rolling, EvictionPolicy::Barrier];
const ALL_MMH: [u8; 4] = [1, 2, 4, 8];
const ALL_HASHLINES: [usize; 4] = [256, 1024, 2048, 8192];

/// Picks the first `n` entries of an axis (0 = axis not swept).
fn prefix<T: Clone>(values: &[T], n: usize) -> Vec<T> {
    values[..n].to_vec()
}

/// A strategy over grids built from arbitrary prefixes of every axis.
fn arb_grid() -> impl Strategy<Value = SweepGrid> {
    (0usize..=4, 0usize..=3, 0usize..=4, 0usize..=2, 0usize..=4, 0usize..=4).prop_map(
        |(nd, nt, nm, ne, nh, nl)| {
            SweepGrid::new()
                .datasets(prefix(&ALL_DATASETS, nd))
                .tile_sizes(prefix(&TileSize::ALL, nt))
                .mappings(prefix(&MappingKind::ALL, nm))
                .evictions(prefix(&ALL_EVICTIONS, ne))
                .mmh_tiles(prefix(&ALL_MMH, nh))
                .hashlines(prefix(&ALL_HASHLINES, nl))
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Point count equals the product of non-empty axis lengths, and every
    /// run ID is unique.
    #[test]
    fn enumeration_is_exhaustive_and_duplicate_free(grid in arb_grid()) {
        let spec = ExperimentSpec::new("prop", ChipConfig::tile_16(), grid.clone());
        let points = spec.points();
        prop_assert_eq!(points.len(), grid.len());

        let ids: HashSet<&str> = points.iter().map(|p| p.id.as_str()).collect();
        prop_assert_eq!(ids.len(), points.len());

        // Every declared combination appears: project each point back onto
        // the swept axes and compare the projected set against the product.
        let mut combos = HashSet::new();
        for p in &points {
            combos.insert((
                p.dataset.clone(),
                p.config.tile_size.name(),
                p.config.mapping.name(),
                eviction_name(p.config.eviction),
                p.config.mmh_tile,
                p.config.mem.hashlines,
            ));
        }
        prop_assert_eq!(combos.len(), points.len());
    }

    /// Swept axis values are faithfully applied to the resolved config.
    #[test]
    fn swept_values_reach_the_config(n in 1usize..=4) {
        let grid = SweepGrid::new().mmh_tiles(prefix(&ALL_MMH, n));
        let spec = ExperimentSpec::new("prop", ChipConfig::tile_16(), grid);
        let tiles: Vec<u8> = spec.points().iter().map(|p| p.config.mmh_tile).collect();
        prop_assert_eq!(tiles, prefix(&ALL_MMH, n));
    }
}
