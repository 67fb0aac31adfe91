//! The functional oracle: whatever the configuration and however
//! degenerate the input, the simulated chip computes what the reference
//! kernel computes, or says — with a typed error, once it stops moving —
//! that it could not.
//!
//! SpGEMM is compared with `==`, pattern *and* values. That is sound
//! because every input here is integer-valued: partial products and their
//! sums are exact in `f64`, so the order in which a HashPad happens to
//! accumulate them cannot round differently from Gustavson's. Aggregation
//! uses real-valued features and is held to `1e-9` instead.
//!
//! Beside the hand-built shapes, a property test draws small rectangular
//! operand pairs — dimensions from zero, signed values so that products
//! cancel into stored zeros — and one configuration of the grid each.

use neura_chip::accelerator::{Accelerator, ChipError};
use neura_chip::config::{ChipConfig, EvictionPolicy, TileSize};
use neura_chip::mapping::MappingKind;
use neura_mem::HbmPreset;
use neura_sparse::gen::{feature_matrix, GraphGenerator};
use neura_sparse::{spgemm, spmm, CooMatrix, CsrMatrix};
use proptest::prelude::*;

const EVICTIONS: [EvictionPolicy; 2] = [EvictionPolicy::Rolling, EvictionPolicy::Barrier];

/// An `n × n` matrix holding a small positive integer at every `(r, c)`
/// that `keep` selects.
fn integer_matrix(n: usize, keep: impl Fn(usize, usize) -> bool) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    for r in 0..n {
        for c in (0..n).filter(|&c| keep(r, c)) {
            coo.push(r, c, (1 + (3 * r + 5 * c) % 7) as f64).expect("in bounds");
        }
    }
    coo.to_csr()
}

fn dense_row_and_column() -> CsrMatrix {
    integer_matrix(6, |r, c| r == 2 || c == 4)
}

fn dense_6x6() -> CsrMatrix {
    integer_matrix(6, |_, _| true)
}

/// Unweighted generator output: every stored value is an edge multiplicity.
fn power_law_32() -> CsrMatrix {
    GraphGenerator::power_law(32, 32 * 4, 2.1, 17).generate().to_csr()
}

fn banded_40() -> CsrMatrix {
    GraphGenerator::banded(40, 2, 17).generate().to_csr()
}

/// Shapes a compiler or a drain check is likeliest to get wrong.
fn degenerate_shapes() -> Vec<(&'static str, CsrMatrix)> {
    vec![
        ("4x4 empty", CsrMatrix::zeros(4, 4)),
        ("0x0", CsrMatrix::zeros(0, 0)),
        ("1x1", integer_matrix(1, |_, _| true)),
        ("identity-5", CsrMatrix::identity(5)),
        ("dense row + dense column", dense_row_and_column()),
        ("dense 6x6", dense_6x6()),
    ]
}

/// Every (tile × eviction × mapping × HBM preset × MMH height) cell.
fn full_grid() -> Vec<(String, ChipConfig)> {
    let mut grid = Vec::new();
    for tile in TileSize::ALL {
        for eviction in EVICTIONS {
            for mapping in MappingKind::ALL {
                for preset in [HbmPreset::Hbm2, HbmPreset::Ddr4] {
                    for mmh in [1, 4, 8] {
                        let config = ChipConfig::for_tile_size(tile)
                            .with_eviction(eviction)
                            .with_mapping(mapping)
                            .with_hbm_preset(preset)
                            .with_mmh_tile(mmh);
                        let label = format!(
                            "{} {eviction:?} {} {} MMH{mmh}",
                            tile.name(),
                            mapping.name(),
                            preset.name()
                        );
                        grid.push((label, config));
                    }
                }
            }
        }
    }
    grid
}

fn assert_spgemm_matches(name: &str, a: &CsrMatrix, label: &str, config: &ChipConfig) {
    let run = Accelerator::new(config.clone())
        .run_spgemm(a, a)
        .unwrap_or_else(|e| panic!("{name} on {label}: {e}"));
    assert_eq!(run.product, spgemm::gustavson(a, a), "{name} on {label}");
}

#[test]
fn degenerate_spgemm_equals_the_reference_on_every_configuration() {
    let grid = full_grid();
    assert_eq!(grid.len(), 144);
    for (name, a) in degenerate_shapes() {
        for (label, config) in &grid {
            assert_spgemm_matches(name, &a, label, config);
        }
    }
}

#[test]
fn graph_spgemm_equals_the_reference_on_every_configuration() {
    let grid = full_grid();
    for (name, a) in [("power-law 32", power_law_32()), ("banded 40", banded_40())] {
        for (label, config) in &grid {
            assert_spgemm_matches(name, &a, label, config);
        }
    }
}

/// Cores of 256 and 300 pipelines, the regime where a pipeline index no
/// longer fits a byte. The index names the `memory_response` that wakes a
/// sleeping core, and it has to survive the controller's refusals on the
/// way (`RetryRead`; a two-slot queue refuses every read of the high
/// pipelines at least once). A read that came back to the wrong pipeline
/// would leave one waiting for ever. A pipeline takes an instruction at the
/// round-robin cursor, one step a cycle, so the high indices are reached
/// only by a program still dispatching after 256 cycles: 2 592 one-element
/// `MMH1`s over the eight cores of a Tile-4, against two thin right-hand
/// sides (fan-in 1 and 2).
#[test]
fn wide_cores_equal_the_reference_through_refused_reads() {
    let a = integer_matrix(72, |r, c| (r + c) % 2 == 0);
    let thin = [
        ("diagonal", integer_matrix(72, |r, c| r == c)),
        ("bidiagonal", integer_matrix(72, |r, c| c == r || c == (r + 1) % 72)),
    ];
    for (name, b) in &thin {
        let reference = spgemm::gustavson(&a, b);
        for pipelines in [256, 300] {
            for eviction in EVICTIONS {
                let mut config = ChipConfig::tile_4()
                    .with_eviction(eviction)
                    .with_mmh_tile(1)
                    .with_mem_queue_capacity(2);
                config.core.pipelines = pipelines;
                let run = Accelerator::new(config)
                    .run_spgemm(&a, b)
                    .unwrap_or_else(|e| panic!("{name} {eviction:?} x{pipelines}: {e}"));
                assert_eq!(run.product, reference, "{name} {eviction:?} x{pipelines}");
            }
        }
    }
}

/// An up-to-9 × 9 operand pair with compatible shapes, any dimension
/// possibly zero, holding integers in `-2..=2` (explicit zeros included;
/// duplicates of a coordinate sum).
fn arb_integer_pair() -> impl Strategy<Value = (CsrMatrix, CsrMatrix)> {
    let entries = || proptest::collection::vec((0usize..90, 0usize..90, 0u8..5), 0..30);
    (0usize..10, 0usize..10, 0usize..10, entries(), entries()).prop_map(|(m, k, n, a, b)| {
        let build = |rows: usize, cols: usize, entries: &[(usize, usize, u8)]| {
            let mut coo = CooMatrix::new(rows, cols);
            if rows > 0 && cols > 0 {
                for &(r, c, v) in entries {
                    coo.push(r % rows, c % cols, f64::from(v) - 2.0).expect("in bounds");
                }
            }
            coo.to_csr()
        };
        (build(m, k, &a), build(k, n, &b))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The simulated product is Gustavson's array for array: the same
    /// `row_ptr` and `col_idx` — an element whose partial products cancel
    /// stays a stored zero — and the same values.
    #[test]
    fn random_spgemm_equals_the_reference_array_for_array(
        (a, b) in arb_integer_pair(),
        cell in 0usize..144,
    ) {
        let (label, config) = &full_grid()[cell];
        let run = Accelerator::new(config.clone()).run_spgemm(&a, &b);
        let product = run.map_err(|e| format!("{label}: {e}"))?.product;
        let reference = spgemm::gustavson(&a, &b);
        prop_assert!(product.row_ptr() == reference.row_ptr(), "{label}: row_ptr of {product:?}");
        prop_assert!(product.col_idx() == reference.col_idx(), "{label}: col_idx of {product:?}");
        prop_assert!(product.values() == reference.values(), "{label}: values of {product:?}");
    }
}

#[test]
fn aggregation_equals_the_reference_within_rounding() {
    let shapes = [
        ("4x4 empty", CsrMatrix::zeros(4, 4)),
        ("0x0", CsrMatrix::zeros(0, 0)),
        ("1x1", integer_matrix(1, |_, _| true)),
        ("power-law 32", power_law_32()),
        ("banded 40", banded_40()),
    ];
    for (name, a) in &shapes {
        for width in [1, 3] {
            let x = feature_matrix(a.cols(), width, 5);
            let reference = spmm::spmm(a, &x).expect("shapes agree");
            for tile in TileSize::ALL {
                for eviction in EVICTIONS {
                    let config = ChipConfig::for_tile_size(tile).with_eviction(eviction);
                    let run = Accelerator::new(config).run_aggregation(a, &x).unwrap_or_else(|e| {
                        panic!("{name} x{width} on {tile:?} {eviction:?}: {e}")
                    });
                    let diff = run.aggregated.max_abs_diff(&reference).expect("shapes agree");
                    assert!(
                        diff <= 1e-9,
                        "{name} x{width} on {tile:?} {eviction:?}: off by {diff}"
                    );
                }
            }
        }
    }
}

/// A HashPad smaller than the set of tags live at once cannot finish some
/// of these runs (a full pad stalls head-of-line on a tag that is not
/// resident). Whatever happens, the answer is the right product or the
/// typed error, and a cell that wedges stopped moving early: these
/// programs are a few dozen partial products long.
#[test]
fn an_undersized_hashpad_is_correct_or_wedged() {
    let mut wedged = 0;
    for (name, a) in
        [("dense row + dense column", dense_row_and_column()), ("dense 6x6", dense_6x6())]
    {
        let reference = spgemm::gustavson(&a, &a);
        for hashlines in 1..=3 {
            for eviction in EVICTIONS {
                for mapping in MappingKind::ALL {
                    let mut config =
                        ChipConfig::tile_4().with_eviction(eviction).with_mapping(mapping);
                    config.mem.hashlines = hashlines;
                    let label =
                        format!("{name}, {hashlines} lines, {eviction:?} {}", mapping.name());
                    match Accelerator::new(config).run_spgemm(&a, &a) {
                        Ok(run) => assert_eq!(run.product, reference, "{label}"),
                        Err(ChipError::Wedged { cycle, outstanding_haccs }) => {
                            assert!(cycle < 1_000, "{label}: wedged at {cycle}");
                            assert!(outstanding_haccs > 0, "{label}");
                            wedged += 1;
                        }
                        Err(other) => panic!("{label}: {other}"),
                    }
                }
            }
        }
    }
    assert!(wedged > 0, "no cell was undersized enough to wedge: shrink the pads");
}
