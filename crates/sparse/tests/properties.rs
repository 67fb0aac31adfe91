//! Property-based tests for the sparse-matrix substrate.

use neura_sparse::gen::GraphGenerator;
use neura_sparse::spgemm::{self, Dataflow, SpgemmStats, SymbolicProduct};
use neura_sparse::{spmm, CooMatrix, CsrMatrix, DenseMatrix};
use proptest::prelude::*;

/// Strategy producing a small random sparse matrix together with its shape.
fn arb_matrix(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = CsrMatrix> {
    (1..max_dim, 1..max_dim).prop_flat_map(move |(rows, cols)| {
        let entry = (0..rows, 0..cols, -5.0f64..5.0);
        proptest::collection::vec(entry, 0..max_nnz).prop_map(move |entries| {
            let mut coo = CooMatrix::new(rows, cols);
            for (r, c, v) in entries {
                coo.push(r, c, v).unwrap();
            }
            coo.to_csr()
        })
    })
}

/// A pair of matrices with compatible, generally rectangular shapes for
/// multiplication; at up to 60 entries in up to 23 × 23 most pairs have
/// empty rows and empty columns on both sides.
fn arb_pair() -> impl Strategy<Value = (CsrMatrix, CsrMatrix)> {
    arb_pair_with_cols(1..24)
}

/// [`arb_pair`] with a `B` of 65–300 columns, so output rows span several
/// 64-column words of the sparse accumulator's bitmap.
fn arb_wide_pair() -> impl Strategy<Value = (CsrMatrix, CsrMatrix)> {
    arb_pair_with_cols(65..301)
}

/// `A` (up to 23 × 23) times `B` with a column count drawn from `cols`,
/// up to 60 entries each.
fn arb_pair_with_cols(
    cols: std::ops::Range<usize>,
) -> impl Strategy<Value = (CsrMatrix, CsrMatrix)> {
    (1usize..24, 1usize..24, cols).prop_flat_map(|(m, k, n)| {
        let a_entries = proptest::collection::vec((0..m, 0..k, -3.0f64..3.0), 0..60);
        let b_entries = proptest::collection::vec((0..k, 0..n, -3.0f64..3.0), 0..60);
        (a_entries, b_entries).prop_map(move |(ae, be)| {
            let mut a = CooMatrix::new(m, k);
            for (r, c, v) in ae {
                a.push(r, c, v).unwrap();
            }
            let mut b = CooMatrix::new(k, n);
            for (r, c, v) in be {
                b.push(r, c, v).unwrap();
            }
            (a.to_csr(), b.to_csr())
        })
    })
}

/// Operand pairs that stress the symbolic pass: every dimension may be zero
/// (a 0 × n operand, an output without rows or columns), the few entries of
/// an up-to-11 × 11 operand leave rows and columns empty, and every third
/// `B` is fully dense with zeros stored — the CSR the NeuraCompiler builds
/// of a GCN feature matrix.
fn arb_degenerate_pair() -> impl Strategy<Value = (CsrMatrix, CsrMatrix)> {
    let coordinate = || (0usize..1_000, 0usize..1_000, -3.0f64..3.0);
    let entries = || proptest::collection::vec(coordinate(), 0..40);
    (0usize..12, 0usize..12, 0usize..12, 0usize..3, entries(), entries()).prop_map(
        |(m, k, n, b_kind, a_entries, b_entries)| {
            let sparse = |rows: usize, cols: usize, entries: &[(usize, usize, f64)]| {
                let mut coo = CooMatrix::new(rows, cols);
                if rows > 0 && cols > 0 {
                    for &(r, c, v) in entries {
                        coo.push(r % rows, c % cols, v).unwrap();
                    }
                }
                coo.to_csr()
            };
            let b = if b_kind == 0 {
                let row_ptr = (0..=k).map(|r| r * n).collect();
                let col_idx = (0..k).flat_map(|_| 0..n).collect();
                let values = (0..k * n).map(|i| (i % 3) as f64).collect();
                CsrMatrix::from_raw_parts(k, n, row_ptr, col_idx, values).unwrap()
            } else {
                sparse(k, n, &b_entries)
            };
            (sparse(m, k, &a_entries), b)
        },
    )
}

/// The statistics a symbolic product implies, folded from its arrays alone.
fn stats_of(product: &SymbolicProduct) -> SpgemmStats {
    let mut stats = SpgemmStats { output_nnz: product.col_idx.len(), ..Default::default() };
    for row in product.row_ptr.windows(2) {
        let partial_products: u64 = product.fanin[row[0]..row[1]].iter().map(|&f| f as u64).sum();
        stats.multiplications += partial_products;
        stats.active_rows += usize::from(partial_products > 0);
        stats.max_row_partial_products = stats.max_row_partial_products.max(partial_products);
    }
    stats.additions = stats.multiplications - stats.output_nnz as u64;
    stats
}

/// Every dataflow `spgemm::multiply` can run, tiled at each MMH height.
const DATAFLOWS: [Dataflow; 7] = [
    Dataflow::InnerProduct,
    Dataflow::OuterProduct,
    Dataflow::RowWise,
    Dataflow::TiledRowWise(1),
    Dataflow::TiledRowWise(2),
    Dataflow::TiledRowWise(4),
    Dataflow::TiledRowWise(8),
];

/// `a_i0·b_0j + a_i1·b_1j == 0` is a stored zero in every dataflow: an output
/// entry exists wherever a partial product landed, whatever the sum.
#[test]
fn cancellation_stays_a_stored_zero_in_every_dataflow() {
    let a = CooMatrix::from_triplets(2, 3, vec![(0, 0, 2.0), (0, 1, 1.0)]).unwrap().to_csr();
    let b = CooMatrix::from_triplets(3, 4, vec![(0, 1, 1.5), (0, 3, 1.0), (1, 1, -3.0)])
        .unwrap()
        .to_csr();
    for dataflow in DATAFLOWS {
        let c = spgemm::multiply(&a, &b, dataflow).unwrap();
        assert_eq!(c.row_ptr(), &[0, 2, 2], "{dataflow:?}");
        assert_eq!(c.col_idx(), &[1, 3], "{dataflow:?}");
        assert_eq!(c.values(), &[0.0, 2.0], "{dataflow:?}");
    }
    assert_eq!(spgemm::count_products(&a, &b).output_nnz, 2);
}

/// The body of `spgemm_dataflows_agree`. The products of one output
/// element add up in ascending `k` in every dataflow, so `RowWise`,
/// `OuterProduct` and every `TiledRowWise` height agree bit for bit;
/// `InnerProduct` starts its dot product at `0.0`, so a lone `-0.0` product
/// reads `+0.0` there, and it is held to `==`.
fn dataflows_agree(a: &CsrMatrix, b: &CsrMatrix) -> Result<(), String> {
    let dense = a.to_dense().matmul(&b.to_dense()).unwrap();
    let row_wise = spgemm::gustavson(a, b);
    prop_assert!(row_wise.to_dense().max_abs_diff(&dense).unwrap() < 1e-6);
    let bits = |c: &CsrMatrix| c.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for dataflow in DATAFLOWS {
        let c = spgemm::multiply(a, b, dataflow).unwrap();
        prop_assert!(c.row_ptr() == row_wise.row_ptr(), "{dataflow:?}: row_ptr differs");
        prop_assert!(c.col_idx() == row_wise.col_idx(), "{dataflow:?}: col_idx differs");
        if dataflow == Dataflow::InnerProduct {
            prop_assert!(c.values() == row_wise.values(), "{dataflow:?}: values differ");
        } else {
            prop_assert!(bits(&c) == bits(&row_wise), "{dataflow:?}: value bits differ");
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CSR -> CSC -> CSR round trips are lossless.
    #[test]
    fn csr_csc_round_trip(m in arb_matrix(32, 128)) {
        let back = m.to_csc().to_csr();
        prop_assert_eq!(m.nnz(), back.nnz());
        for (r, c, v) in m.iter() {
            prop_assert_eq!(back.get(r, c), v);
        }
    }

    /// COO -> dense and COO -> CSR -> dense agree entry-for-entry.
    #[test]
    fn coo_conversions_agree(m in arb_matrix(24, 96)) {
        let coo = m.to_coo();
        let via_dense = coo.to_dense();
        let via_csr = coo.to_csr().to_dense();
        prop_assert!(via_dense.max_abs_diff(&via_csr).unwrap() < 1e-12);
    }

    /// All four SpGEMM dataflows (tiled at every MMH height) agree with the
    /// dense reference product, and with each other exactly, on narrow
    /// outputs and on outputs wider than one bitmap word.
    #[test]
    fn spgemm_dataflows_agree((a, b) in arb_pair(), (wide_a, wide_b) in arb_wide_pair()) {
        dataflows_agree(&a, &b)?;
        dataflows_agree(&wide_a, &wide_b)?;
    }

    /// The pattern-only pass returns the counting multiplication's
    /// statistics, all five fields.
    #[test]
    fn count_products_matches_the_counting_multiplication((a, b) in arb_pair()) {
        prop_assert_eq!(spgemm::count_products(&a, &b), spgemm::multiply_counting(&a, &b).1);
    }

    /// The counting transpose is the sort-based COO conversion, bit for bit.
    #[test]
    fn counting_transpose_matches_the_coo_conversion(m in arb_matrix(32, 128)) {
        prop_assert_eq!(m.to_csc(), m.to_coo().to_csc());
    }

    /// The bloat figures are internally consistent: pp >= nnz_out, fanin >= 1 when non-empty.
    #[test]
    fn bloat_report_invariants((a, b) in arb_pair()) {
        prop_assume!(a.cols() == b.rows());
        let stats = spgemm::count_products(&a, &b);
        prop_assert!(stats.multiplications >= stats.output_nnz as u64);
        if stats.output_nnz > 0 {
            prop_assert!(stats.average_fanin() >= 1.0);
            prop_assert!(stats.bloat_percent() >= 0.0);
        }
        prop_assert_eq!(stats.multiplications, spgemm::partial_product_count(&a, &b));
    }

    /// SpMM against a random dense matrix matches the dense-dense reference.
    #[test]
    fn spmm_matches_dense(a in arb_matrix(24, 96), cols in 1usize..8, seed in 0u64..1000) {
        let x = neura_sparse::gen::feature_matrix(a.cols(), cols, seed);
        let got = spmm::spmm(&a, &x).unwrap();
        let expected = a.to_dense().matmul(&x).unwrap();
        prop_assert!(got.max_abs_diff(&expected).unwrap() < 1e-9);
    }

    /// Transposing twice is the identity.
    #[test]
    fn transpose_is_involution(m in arb_matrix(24, 96)) {
        let tt = m.transpose().transpose();
        prop_assert_eq!(m.nnz(), tt.nnz());
        for (r, c, v) in m.iter() {
            prop_assert_eq!(tt.get(r, c), v);
        }
    }

    /// Generated graphs always fit their declared shape and dedup is idempotent.
    #[test]
    fn generators_stay_in_bounds(seed in 0u64..500, nodes in 8usize..64, edges in 1usize..400) {
        let g = GraphGenerator::power_law(nodes, edges, 2.2, seed).generate();
        prop_assert_eq!(g.rows(), nodes);
        prop_assert_eq!(g.cols(), nodes);
        for &(r, c, _) in g.iter() {
            prop_assert!(r < nodes && c < nodes);
        }
        let csr = g.to_csr();
        prop_assert!(csr.nnz() <= edges);
    }

    /// Dense matmul with the identity is a no-op (sanity for the reference kernel).
    #[test]
    fn dense_identity_neutral(rows in 1usize..12, cols in 1usize..12, seed in 0u64..100) {
        let x = neura_sparse::gen::feature_matrix(rows, cols, seed);
        let id = DenseMatrix::identity(rows);
        let y = id.matmul(&x).unwrap();
        prop_assert!(y.max_abs_diff(&x).unwrap() < 1e-12);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The symbolic product against three independent references: the
    /// numeric kernel's pattern, the closed-form partial-product count and
    /// the counting walk's statistics.
    #[test]
    fn symbolic_product_matches_its_references((a, b) in arb_degenerate_pair()) {
        let product = spgemm::symbolic(&a, &b);
        let numeric = spgemm::gustavson(&a, &b);
        prop_assert_eq!(&product.row_ptr[..], numeric.row_ptr());
        prop_assert_eq!(&product.col_idx[..], numeric.col_idx());
        prop_assert_eq!(product.fanin.len(), product.col_idx.len());
        prop_assert!(product.fanin.iter().all(|&f| f >= 1));
        let fanin_sum: u64 = product.fanin.iter().map(|&f| f as u64).sum();
        prop_assert_eq!(fanin_sum, spgemm::partial_product_count(&a, &b));
        prop_assert_eq!(stats_of(&product), spgemm::count_products(&a, &b));
        for (r, c, _) in numeric.iter() {
            let at = product.position(r, c);
            prop_assert!(at.is_some_and(|p| product.col_idx[p] == c), "({r}, {c}) at {at:?}");
        }
    }
}
