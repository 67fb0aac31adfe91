//! Direct CSR assembly shared by the SpGEMM kernels and the symbolic phase.
//!
//! Two pieces, each used by more than one caller:
//!
//! * [`CsrRows`] appends finished output rows; [`CsrRows::finish`] hands the
//!   numeric arrays to [`CsrMatrix::from_raw_parts`], so every product is
//!   still validated;
//! * [`SparseAccumulator`] is the dense sparse-accumulator (SPA) that merges
//!   what lands in the columns of one output row — partial products for the
//!   numeric kernel, fan-in counts for the symbolic product — and emits the
//!   row in ascending column order from a word bitmap, without sorting the
//!   row's columns.

use std::ops::AddAssign;

use crate::CsrMatrix;

/// Columns per block of the accumulator: the bits in one `u64` word.
const BLOCK: usize = u64::BITS as usize;

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
/// The columns of `B` are cut into blocks of 64. A block holds the values
/// its columns have accumulated, one flag byte per column that says whether
/// the open row has reached it, and whether `listed` names the block;
/// `listed` names the blocks the open row has reached, in the order it
/// reached them. [`flush_row`](Self::flush_row) sorts only those block
/// indices, packs each block's flags into a `u64` word, walks its set bits
/// upward and clears the flags, so the row comes out in ascending column
/// order. A row of `k` additions that reach `W ≤ min(k, ⌈cols / 64⌉)`
/// blocks costs O(k + W log W) — never O(cols), which matters at paper
/// scale, where rows span hundreds of thousands of columns and reach a
/// handful.
///
/// Every value rests at [`Summand::ZERO`], the additive identity, between
/// rows, so [`add`](Self::add) adds on a column's first visit as on every
/// later one: no branch asks whether the open row has reached the column,
/// so scale-free rows, whose products land now on a new column and now on
/// an old one, do not mispredict it. `add` stores the column's flag and
/// never loads it: a bit in a shared word would make each `add` read what
/// the one before it wrote, and serialise banded rows, whose successive
/// products fall in one block. A column's flag and value share a block,
/// so `add` pays one bounds check, not two.
///
/// Each column adds up its values in the order `add` received them, so
/// `f64` sums are the ones a sequential loop over that column's values
/// computes.
pub(crate) struct SparseAccumulator<T> {
    blocks: Vec<Block<T>>,
    listed: Vec<usize>,
}

/// What the accumulator sums: partial products, or fan-in counts.
pub(crate) trait Summand: Copy + AddAssign {
    /// The additive identity: `ZERO + x` is `x`, bit for bit, for every
    /// `x`. For `f64` that is `-0.0`, not `0.0`: `0.0 + -0.0` is `0.0`, so a
    /// lone `-0.0` product would lose its sign.
    const ZERO: Self;
}

impl Summand for f64 {
    const ZERO: f64 = -0.0;
}

impl Summand for u32 {
    const ZERO: u32 = 0;
}

/// Sixty-four consecutive columns of the accumulator: which of them the
/// open row has reached (`reached[i]` is 1 for column `i`), what each has
/// accumulated, and whether the accumulator lists the block.
#[derive(Clone, Copy)]
struct Block<T> {
    reached: [u8; BLOCK],
    values: [T; BLOCK],
    listed: bool,
}

impl<T: Summand> SparseAccumulator<T> {
    pub(crate) fn new(cols: usize) -> Self {
        let empty = Block { reached: [0; BLOCK], values: [T::ZERO; BLOCK], listed: false };
        SparseAccumulator { blocks: vec![empty; cols.div_ceil(BLOCK)], listed: Vec::new() }
    }

    /// Accumulates `value` into column `col` of the open row.
    #[inline]
    pub(crate) fn add(&mut self, col: usize, value: T) {
        let (b, i) = (col / BLOCK, col % BLOCK);
        let block = &mut self.blocks[b];
        if !block.listed {
            block.listed = true;
            self.listed.push(b);
        }
        block.reached[i] = 1;
        block.values[i] += value;
    }

    /// Emits the accumulated row in ascending column order, closes it and
    /// resets the accumulator for the next row.
    pub(crate) fn flush_row(&mut self, out: &mut CsrRows<T>) {
        self.listed.sort_unstable();
        for &b in &self.listed {
            let block = &mut self.blocks[b];
            block.listed = false;
            let mut bits = 0u64;
            for (n, flags) in block.reached.chunks_exact(8).enumerate() {
                // Eight flags of 0 or 1, one per byte: the multiplication
                // gathers them into its top byte, flag `i` at bit `56 + i`.
                let flags = u64::from_le_bytes(flags.try_into().expect("eight flags"));
                bits |= (flags.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * n);
            }
            block.reached = [0; BLOCK];
            while bits != 0 {
                let i = bits.trailing_zeros() as usize;
                out.push(b * BLOCK + i, std::mem::replace(&mut block.values[i], T::ZERO));
                bits &= bits - 1;
            }
        }
        self.listed.clear();
        out.end_row();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

        fn add(&mut self, col: usize, product: f64) {
            if self.seen[col] {
                self.sums[col] += product;
            } else {
                self.seen[col] = true;
                self.columns.push(col);
                self.sums[col] = product;
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
        /// every value bit for bit (a lone `-0.0` included), and counts the
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
                    bitmap.add(col, value);
                    reference.add(col, value);
                    fanin.add(col, 1u32);
                    counted.add(col, 1.0);
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
