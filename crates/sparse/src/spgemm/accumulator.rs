//! Direct CSR assembly shared by the SpGEMM kernels and the symbolic phase.
//!
//! Three pieces, each used by more than one caller:
//!
//! * [`CsrRows`] appends finished output rows; [`CsrRows::finish`] hands the
//!   numeric arrays to [`CsrMatrix::from_raw_parts`], so every product is
//!   still validated;
//! * [`SparseAccumulator`] is the dense sparse-accumulator (SPA) that merges
//!   what lands in the columns of one output row — partial products for the
//!   numeric kernels, fan-in counts for the symbolic product — and emits the
//!   row in ascending column order from a word bitmap, without sorting the
//!   row's columns;
//! * [`RowBuckets`] holds *every* partial product of a multiplication,
//!   bucketed by output row in generation order, for the dataflows that
//!   materialise them all before an explicit merge phase.

use std::ops::AddAssign;

use crate::CsrMatrix;

/// Columns per block of the accumulator: the bits in one bitmap word.
const WORD_BITS: usize = u64::BITS as usize;

/// A CSR matrix under construction, one finished row at a time; `T` is
/// what each stored element carries.
pub(crate) struct CsrRows<T> {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<T>,
}

impl<T> CsrRows<T> {
    pub(crate) fn new(rows: usize, cols: usize) -> Self {
        let mut row_ptr = Vec::with_capacity(rows + 1);
        row_ptr.push(0);
        CsrRows { rows, cols, row_ptr, col_idx: Vec::new(), values: Vec::new() }
    }

    /// Appends one entry to the open row; columns must arrive ascending.
    pub(crate) fn push(&mut self, col: usize, value: T) {
        self.col_idx.push(col);
        self.values.push(value);
    }

    /// Closes the open row.
    pub(crate) fn end_row(&mut self) {
        self.row_ptr.push(self.col_idx.len());
    }

    /// The row pointers, column indices and values as appended, unchecked.
    pub(crate) fn into_parts(self) -> (Vec<usize>, Vec<usize>, Vec<T>) {
        (self.row_ptr, self.col_idx, self.values)
    }
}

impl CsrRows<f64> {
    /// Validates the arrays into a matrix.
    ///
    /// # Panics
    ///
    /// Panics if the caller closed a number of rows other than `rows` or
    /// pushed unsorted, duplicate or out-of-range columns.
    pub(crate) fn finish(self) -> CsrMatrix {
        let (rows, cols) = (self.rows, self.cols);
        let (row_ptr, col_idx, values) = self.into_parts();
        CsrMatrix::from_raw_parts(rows, cols, row_ptr, col_idx, values)
            .expect("SpGEMM kernels assemble structurally valid CSR rows")
    }
}

/// Dense sparse-accumulator over the columns of one output row.
///
/// The columns of `B` are cut into blocks of 64. A block holds one `u64`
/// word whose bit `i` says whether the open row has reached the block's
/// column `i`, beside the 64 values those columns have accumulated; `words`
/// lists the blocks whose word the open row has made non-zero, in the
/// order it made them so. [`flush_row`](Self::flush_row) sorts only those
/// block indices, walks each word's set bits upward and zeroes it, so the
/// row comes out in ascending column order. A row of `k` additions that
/// reach `W ≤ min(k, ⌈cols / 64⌉)` words costs O(k + W log W) — never
/// O(cols), which matters at paper scale, where rows span hundreds of
/// thousands of columns and reach a handful.
///
/// A column's word and value share a block, so [`add`](Self::add) pays one
/// bounds check, not two: on merge-heavy rows (banded inputs, where most
/// partial products land on a column already reached) separate bit and
/// value arrays made the test measurably dearer than a per-column flag.
///
/// Each column adds up its values in the order `add` received them,
/// starting from the first one (not from zero), so `f64` sums are the ones
/// a sequential loop over that column's values computes.
pub(crate) struct SparseAccumulator<T> {
    blocks: Vec<Block<T>>,
    words: Vec<usize>,
}

/// Sixty-four consecutive columns of the accumulator: which of them the
/// open row has reached (bit `i` of `bits` for column `i`), and what each
/// has accumulated.
#[derive(Clone, Copy)]
struct Block<T> {
    bits: u64,
    values: [T; WORD_BITS],
}

impl<T: Copy + Default + AddAssign> SparseAccumulator<T> {
    pub(crate) fn new(cols: usize) -> Self {
        let empty = Block { bits: 0, values: [T::default(); WORD_BITS] };
        SparseAccumulator { blocks: vec![empty; cols.div_ceil(WORD_BITS)], words: Vec::new() }
    }

    /// Accumulates `value` into column `col` — assigned on the open row's
    /// first visit there, added afterwards; returns `true` when it merged
    /// into an earlier value (one scalar addition).
    #[inline]
    pub(crate) fn add(&mut self, col: usize, value: T) -> bool {
        let (w, i) = (col / WORD_BITS, col % WORD_BITS);
        let block = &mut self.blocks[w];
        if block.bits >> i & 1 != 0 {
            block.values[i] += value;
            true
        } else {
            if block.bits == 0 {
                self.words.push(w);
            }
            block.bits |= 1 << i;
            block.values[i] = value;
            false
        }
    }

    /// Emits the accumulated row in ascending column order, closes it and
    /// resets the accumulator for the next row.
    pub(crate) fn flush_row(&mut self, out: &mut CsrRows<T>) {
        self.words.sort_unstable();
        for &w in &self.words {
            let block = &mut self.blocks[w];
            let mut bits = std::mem::take(&mut block.bits);
            while bits != 0 {
                let i = bits.trailing_zeros() as usize;
                out.push(w * WORD_BITS + i, block.values[i]);
                bits &= bits - 1;
            }
        }
        self.words.clear();
        out.end_row();
    }
}

/// Every partial product of `A × B`, bucketed by output row.
///
/// The buckets are sized up front from the operand structure (row `i`
/// receives `Σ_{k ∈ row i of A} row_nnz_B(k)` products, which over all rows
/// is `Σ_k col_nnz_A(k) · row_nnz_B(k)`), so generation is a scatter into one
/// 16-byte-per-product buffer and keeps generation order inside each row.
/// [`RowBuckets::merge`] is the explicit merge phase.
pub(crate) struct RowBuckets {
    cols: usize,
    /// Bucket `i` is `products[bounds[i]..bounds[i + 1]]`.
    bounds: Vec<usize>,
    /// Next free slot of each bucket.
    next: Vec<usize>,
    products: Vec<(usize, f64)>,
}

impl RowBuckets {
    /// Buckets sized for the product `a × b`.
    pub(crate) fn for_product(a: &CsrMatrix, b: &CsrMatrix) -> Self {
        let mut bounds = Vec::with_capacity(a.rows() + 1);
        bounds.push(0usize);
        for i in 0..a.rows() {
            let count: usize = a.row(i).0.iter().map(|&k| b.row_nnz(k)).sum();
            bounds.push(bounds[i] + count);
        }
        let next = bounds[..a.rows()].to_vec();
        let products = vec![(0usize, 0.0f64); bounds[a.rows()]];
        RowBuckets { cols: b.cols(), bounds, next, products }
    }

    /// Generates the partial products of `a_ik` against row `k` of `B`
    /// (`b_cols` / `b_vals`) into the bucket of output row `row`.
    ///
    /// # Panics
    ///
    /// Panics if the bucket would receive more products than it was sized
    /// for.
    pub(crate) fn scatter(&mut self, row: usize, a_ik: f64, b_cols: &[usize], b_vals: &[f64]) {
        let start = self.next[row];
        let end = start + b_cols.len();
        assert!(end <= self.bounds[row + 1], "output row {row} is over-filled");
        for (slot, (&j, &b_kj)) in
            self.products[start..end].iter_mut().zip(b_cols.iter().zip(b_vals))
        {
            *slot = (j, a_ik * b_kj);
        }
        self.next[row] = end;
    }

    /// The merge phase: sums each bucket's products per column, in
    /// generation order, into one CSR row.
    ///
    /// # Panics
    ///
    /// Panics if a bucket received fewer products than it was sized for.
    pub(crate) fn merge(self) -> CsrMatrix {
        let rows = self.next.len();
        let mut out = CsrRows::new(rows, self.cols);
        let mut spa = SparseAccumulator::new(self.cols);
        for row in 0..rows {
            assert!(self.next[row] == self.bounds[row + 1], "output row {row} is under-filled");
            for &(col, product) in &self.products[self.bounds[row]..self.bounds[row + 1]] {
                spa.add(col, product);
            }
            spa.flush_row(&mut out);
        }
        out.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;
    use proptest::prelude::*;

    /// `A` (3 × 3) and `B` (3 × 3) whose product puts 3, 0 and 1 partial
    /// products into output rows 0, 1 and 2.
    fn pair() -> (CsrMatrix, CsrMatrix) {
        let a = CooMatrix::from_triplets(3, 3, vec![(0, 0, 1.0), (0, 1, 1.0), (2, 2, 2.0)]);
        let b = CooMatrix::from_triplets(
            3,
            3,
            vec![(0, 0, 0.2), (0, 2, 0.1), (1, 2, 0.3), (2, 1, 4.0)],
        );
        (a.unwrap().to_csr(), b.unwrap().to_csr())
    }

    #[test]
    fn buckets_merge_in_generation_order() {
        let (a, b) = pair();
        let mut buckets = RowBuckets::for_product(&a, &b);
        buckets.scatter(2, 2.0, &[1], &[4.0]);
        buckets.scatter(0, 1.0, &[0, 2], &[0.2, 0.1]);
        buckets.scatter(0, 1.0, &[2], &[0.3]);
        let c = buckets.merge();
        assert_eq!(c.row_ptr(), &[0, 2, 2, 3]);
        assert_eq!(c.col_idx(), &[0, 2, 1]);
        assert_eq!(c.values(), &[0.2, 0.1 + 0.3, 8.0]);
    }

    #[test]
    #[should_panic(expected = "row 2 is over-filled")]
    fn over_filled_row_panics() {
        let (a, b) = pair();
        let mut buckets = RowBuckets::for_product(&a, &b);
        buckets.scatter(2, 2.0, &[1, 2], &[4.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "row 0 is under-filled")]
    fn under_filled_row_panics() {
        let (a, b) = pair();
        let mut buckets = RowBuckets::for_product(&a, &b);
        buckets.scatter(0, 1.0, &[0, 2], &[0.2, 0.1]);
        buckets.scatter(2, 2.0, &[1], &[4.0]);
        let _ = buckets.merge();
    }

    /// The sort-based accumulator the bitmap one replaced, kept as the
    /// reference it must match bit for bit: a `bool` per column, the list
    /// of columns the open row reached, and a sort of that list per row.
    struct SortAccumulator {
        sums: Vec<f64>,
        seen: Vec<bool>,
        columns: Vec<usize>,
    }

    impl SortAccumulator {
        fn new(cols: usize) -> Self {
            SortAccumulator { sums: vec![0.0; cols], seen: vec![false; cols], columns: Vec::new() }
        }

        fn add(&mut self, col: usize, product: f64) -> bool {
            if self.seen[col] {
                self.sums[col] += product;
                true
            } else {
                self.seen[col] = true;
                self.columns.push(col);
                self.sums[col] = product;
                false
            }
        }

        fn flush_row(&mut self, out: &mut CsrRows<f64>) {
            self.columns.sort_unstable();
            for &col in &self.columns {
                out.push(col, self.sums[col]);
                self.seen[col] = false;
            }
            self.columns.clear();
            out.end_row();
        }
    }

    /// Row widths on both sides of every word boundary, and a 70 000-column
    /// width whose rows reach a few scattered columns.
    const WIDTHS: [usize; 7] = [1, 63, 64, 65, 129, 1_000, 70_000];

    /// One row's `(column, value)` additions over `width` columns: empty,
    /// every column once in descending order and then some again, a
    /// handful of columns hit repeatedly, or scattered columns. Values span
    /// sixteen decades and include `-0.0`, so a sum taken in another order
    /// would show in its bits.
    fn arb_row(width: usize) -> impl Strategy<Value = Vec<(usize, f64)>> {
        let entry = (0..width, -3.0f64..3.0, 0u32..16);
        (0usize..4, proptest::collection::vec(entry, 0..48)).prop_map(move |(kind, entries)| {
            let value = |v: f64, decade: u32| match decade {
                0 => -0.0,
                _ => v * 10f64.powi(decade as i32 - 8),
            };
            let mut row: Vec<(usize, f64)> = match kind {
                0 => return Vec::new(),
                1 => (0..width).rev().map(|col| (col, 1.0 + col as f64 * 1e-3)).collect(),
                _ => Vec::new(),
            };
            let handful = entries.len().clamp(1, 4);
            for (n, &(col, v, decade)) in entries.iter().enumerate() {
                let col = if kind == 2 { entries[n % handful].0 } else { col };
                row.push((col, value(v, decade)));
            }
            row
        })
    }

    /// A width from [`WIDTHS`] and up to six rows over it.
    fn arb_rows() -> impl Strategy<Value = (usize, Vec<Vec<(usize, f64)>>)> {
        (0..WIDTHS.len()).prop_flat_map(|w| {
            let width = WIDTHS[w];
            proptest::collection::vec(arb_row(width), 0..7).prop_map(move |rows| (width, rows))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The bitmap accumulator emits the sort-based one's CSR arrays,
        /// every value bit for bit, reports the same merges, and counts the
        /// same fan-in when it accumulates `u32`s.
        #[test]
        fn bitmap_rows_equal_the_sorted_reference((width, rows) in arb_rows()) {
            let mut bitmap = SparseAccumulator::new(width);
            let mut fanin = SparseAccumulator::new(width);
            let mut reference = SortAccumulator::new(width);
            let mut counted = SortAccumulator::new(width);
            let mut got = CsrRows::new(rows.len(), width);
            let mut got_fanin = CsrRows::new(rows.len(), width);
            let mut want = CsrRows::new(rows.len(), width);
            let mut want_fanin = CsrRows::new(rows.len(), width);
            for row in &rows {
                for &(col, value) in row {
                    prop_assert_eq!(bitmap.add(col, value), reference.add(col, value));
                    prop_assert_eq!(fanin.add(col, 1u32), counted.add(col, 1.0));
                }
                bitmap.flush_row(&mut got);
                fanin.flush_row(&mut got_fanin);
                reference.flush_row(&mut want);
                counted.flush_row(&mut want_fanin);
            }
            let (got, want) = (got.into_parts(), want.into_parts());
            prop_assert_eq!(&got.0, &want.0);
            prop_assert_eq!(&got.1, &want.1);
            let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got.2), bits(&want.2));
            let (got_fanin, want_fanin) = (got_fanin.into_parts(), want_fanin.into_parts());
            prop_assert_eq!(&got_fanin.0, &want.0);
            prop_assert_eq!(&got_fanin.1, &want.1);
            let counts: Vec<f64> = got_fanin.2.iter().map(|&n| f64::from(n)).collect();
            prop_assert_eq!(bits(&counts), bits(&want_fanin.2));
        }
    }
}
