//! What the serving property suites share: one synthetic cost table and
//! one fleet shape, so a replay means the same thing in every suite.

use neura_chip::config::ChipConfig;
use neura_serve::{ClassCost, CostTable, RequestClass, ShardGroup};

/// Every class a stream over `mix_size` datasets and `shrinks` can draw.
pub(crate) fn classes(mix_size: usize, shrinks: &[usize]) -> Vec<RequestClass> {
    (0..mix_size)
        .flat_map(|dataset| shrinks.iter().map(move |&shrink| RequestClass { dataset, shrink }))
        .collect()
}

/// A synthetic cost table covering every class a generated stream can draw
/// on Tile-16 silicon: heavier datasets and lighter shrinks cost more,
/// with enough spread that SJF reordering and batching amortisation are
/// exercised.
pub(crate) fn synthetic_costs(mix_size: usize, shrinks: &[usize]) -> CostTable {
    let mut costs = CostTable::new();
    let fp = costs.register(&ChipConfig::tile_16());
    for class in classes(mix_size, shrinks) {
        let cycles = 2_000_000 * (class.dataset as u64 + 1) / class.shrink as u64;
        costs.insert(&fp, class, ClassCost { cycles, flops: cycles });
    }
    costs
}

/// A homogeneous Tile-16 fleet of `n` shards.
pub(crate) fn tile16_fleet(n: usize) -> Vec<ShardGroup> {
    vec![ShardGroup::new("t16", ChipConfig::tile_16(), n)]
}
