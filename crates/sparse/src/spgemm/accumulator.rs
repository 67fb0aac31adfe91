//! Direct CSR assembly shared by the SpGEMM kernels and the symbolic phase.
//!
//! Three pieces, each used by more than one caller:
//!
//! * [`CsrRows`] appends finished output rows; [`CsrRows::finish`] hands the
//!   numeric arrays to [`CsrMatrix::from_raw_parts`], so every product is
//!   still validated;
//! * [`RowMarks`] lists, once per multiplication, which 64-column blocks
//!   each row of `B` reaches, grouped by 4 096-column summary word;
//! * [`SparseAccumulator`] is the dense sparse-accumulator (SPA) that merges
//!   what lands in the columns of one output row — partial products for the
//!   numeric kernel, fan-in counts for the symbolic product — marks the
//!   blocks once per row of `B` it adds, and emits the row in ascending
//!   column order from those marks, without sorting the row's columns.

use std::ops::AddAssign;

use crate::CsrMatrix;

/// Columns per block of the accumulator: the bits in one `u64` word.
const BLOCK: usize = u64::BITS as usize;

/// Columns per summary word of the accumulator: one bit per block.
const WORD: usize = BLOCK * BLOCK;

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
/// Every column has a value and a flag byte that says whether the open row
/// has reached it. The columns are cut into blocks of 64 and the blocks
/// into summary words of 64, so one `u64` summary word holds a bit for
/// each block of 4 096 columns; `listed` names the words the open row has
/// made non-zero, in the order it reached them.
///
/// The row adds one segment at a time, a segment being the scaled row of
/// `B` that one `a_ik` contributes. [`add_segment`](Self::add_segment)
/// first ORs the segment's [`Mark`]s, one per summary word that row of `B`
/// reaches, into the summary; a word joins `listed` without a branch (its
/// index is written to the next free slot, and the count moves on only if
/// the word was zero). Then each partial product adds its value and stores
/// its column's flag. It stores the flag and never loads it: a bit in a
/// shared word would make each addition read what the one before it wrote,
/// and serialise banded rows, whose successive products fall in one block.
///
/// [`flush_row`](Self::flush_row) sorts only the listed words, walks each
/// word's block bits upward, packs each block's 64 flags into a `u64`,
/// walks its set bits upward and clears the flags, so the row comes out in
/// ascending column order. A row of `k` products over segments with `m`
/// marks that reach `W` summary words and `N` blocks costs
/// O(k + m + W log W + N), with `W ≤ N ≤ min(k, ⌈cols / 64⌉)` — never
/// O(cols), which matters at paper scale, where rows span hundreds of
/// thousands of columns and reach a handful.
///
/// Every value rests at [`Summand::ZERO`], the additive identity, between
/// rows, so a column's first product adds as every later one does: no
/// branch asks whether the open row has reached the column, so scale-free
/// rows, whose products land now on a new column and now on an old one, do
/// not mispredict it. Each column adds up its values in the order they
/// arrived, so `f64` sums are the ones a sequential loop over that column's
/// values computes.
pub(crate) struct SparseAccumulator<T> {
    values: Vec<T>,
    reached: Vec<u8>,
    summary: Vec<u64>,
    /// One slot per summary word and a spare: the branch-free append
    /// writes a slot before it knows whether to keep it.
    listed: Vec<usize>,
    listed_len: usize,
    /// Summary words and blocks that flushes have examined.
    #[cfg(test)]
    examined: usize,
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

/// The blocks that a run of columns reaches inside one summary word: bit
/// `b` of `blocks` stands for the 64 columns from `(64 · word + b) · 64`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Mark {
    word: usize,
    blocks: u64,
}

impl Mark {
    /// Appends the marks of `cols`: one per run of consecutive columns in
    /// one summary word, so one per word when `cols` ascends.
    pub(crate) fn extend(marks: &mut Vec<Mark>, cols: &[usize]) {
        let first = marks.len();
        for &col in cols {
            let (word, bit) = (col / WORD, 1 << (col / BLOCK % BLOCK));
            match marks[first..].last_mut() {
                Some(mark) if mark.word == word => mark.blocks |= bit,
                _ => marks.push(Mark { word, blocks: bit }),
            }
        }
    }
}

/// The [`Mark`]s of every row of `B`, built once per multiplication in
/// O(nnz B), so that each segment marks its blocks once instead of once
/// per partial product.
pub(crate) struct RowMarks {
    row_ptr: Vec<usize>,
    marks: Vec<Mark>,
}

impl RowMarks {
    pub(crate) fn of(b: &CsrMatrix) -> Self {
        // Counted first, so the marks take one allocation of their size: a
        // vector grown by doubling raised `model-tier`'s peak RSS.
        let runs = |cols: &[usize]| {
            usize::from(!cols.is_empty())
                + cols.windows(2).filter(|p| p[0] / WORD != p[1] / WORD).count()
        };
        let mut marks = Vec::with_capacity((0..b.rows()).map(|k| runs(b.row(k).0)).sum());
        let mut row_ptr = Vec::with_capacity(b.rows() + 1);
        row_ptr.push(0);
        for k in 0..b.rows() {
            Mark::extend(&mut marks, b.row(k).0);
            row_ptr.push(marks.len());
        }
        RowMarks { row_ptr, marks }
    }

    /// The marks of row `k` of `B`.
    #[inline]
    pub(crate) fn row(&self, k: usize) -> &[Mark] {
        &self.marks[self.row_ptr[k]..self.row_ptr[k + 1]]
    }
}

impl<T: Summand> SparseAccumulator<T> {
    pub(crate) fn new(cols: usize) -> Self {
        let padded = cols.div_ceil(BLOCK) * BLOCK;
        let words = cols.div_ceil(WORD);
        SparseAccumulator {
            values: vec![T::ZERO; padded],
            reached: vec![0; padded],
            summary: vec![0; words],
            listed: vec![0; words + 1],
            listed_len: 0,
            #[cfg(test)]
            examined: 0,
        }
    }

    /// Accumulates one segment into the open row: `values` into `cols`,
    /// pairwise, where `marks` are the [`Mark`]s of `cols`.
    #[inline]
    pub(crate) fn add_segment(
        &mut self,
        marks: &[Mark],
        cols: &[usize],
        values: impl Iterator<Item = T>,
    ) {
        for mark in marks {
            self.listed[self.listed_len] = mark.word;
            self.listed_len += usize::from(self.summary[mark.word] == 0);
            self.summary[mark.word] |= mark.blocks;
        }
        let sums = &mut self.values[..];
        let reached = &mut self.reached[..sums.len()];
        for (&col, value) in cols.iter().zip(values) {
            sums[col] += value;
            reached[col] = 1;
        }
    }

    /// Emits the accumulated row in ascending column order, closes it and
    /// resets the accumulator for the next row.
    pub(crate) fn flush_row(&mut self, out: &mut CsrRows<T>) {
        let listed = &mut self.listed[..self.listed_len];
        listed.sort_unstable();
        for &word in listed.iter() {
            let mut blocks = std::mem::take(&mut self.summary[word]);
            #[cfg(test)]
            {
                self.examined += 1 + blocks.count_ones() as usize;
            }
            while blocks != 0 {
                let block = word * BLOCK + blocks.trailing_zeros() as usize;
                let cols = block * BLOCK..(block + 1) * BLOCK;
                let reached = <&mut [u8; BLOCK]>::try_from(&mut self.reached[cols.clone()])
                    .expect("the accumulator holds whole blocks");
                flush_block(block * BLOCK, reached, &mut self.values[cols], out);
                blocks &= blocks - 1;
            }
        }
        self.listed_len = 0;
        out.end_row();
    }
}

/// Emits the reached columns of the block that starts at column `first`,
/// ascending, and returns its flags and values to rest.
fn flush_block<T: Summand>(
    first: usize,
    reached: &mut [u8; BLOCK],
    values: &mut [T],
    out: &mut CsrRows<T>,
) {
    let mut bits = 0u64;
    for (n, flags) in reached.chunks_exact(8).enumerate() {
        // Eight flags of 0 or 1, one per byte: the multiplication gathers
        // them into its top byte, flag `i` at bit `56 + i`.
        let flags = u64::from_le_bytes(flags.try_into().expect("eight flags"));
        bits |= (flags.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * n);
    }
    *reached = [0; BLOCK];
    while bits != 0 {
        let i = bits.trailing_zeros() as usize;
        out.push(first + i, std::mem::replace(&mut values[i], T::ZERO));
        bits &= bits - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GraphGenerator;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// Adds `entries` to the open row in segments of `segment` entries, each
    /// with the marks of its columns, as a row of `B` would arrive.
    fn add_in_segments<T: Summand>(
        spa: &mut SparseAccumulator<T>,
        entries: &[(usize, T)],
        segment: usize,
    ) {
        let mut marks = Vec::new();
        for run in entries.chunks(segment) {
            let cols: Vec<usize> = run.iter().map(|&(col, _)| col).collect();
            marks.clear();
            Mark::extend(&mut marks, &cols);
            spa.add_segment(&marks, &cols, run.iter().map(|&(_, value)| value));
        }
    }

    /// Row widths on both sides of every block and summary-word boundary, a
    /// 70 000-column width whose rows reach a few scattered columns, and a
    /// width of more than 64 summary words.
    const WIDTHS: [usize; 11] = [1, 63, 64, 65, 129, 1_000, 4_095, 4_096, 4_097, 70_000, 300_000];

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

    /// A width from [`WIDTHS`], a segment length, and up to six rows.
    fn arb_rows() -> impl Strategy<Value = (usize, usize, Vec<Vec<(usize, f64)>>)> {
        (0..WIDTHS.len(), 1usize..9).prop_flat_map(|(w, segment)| {
            let width = WIDTHS[w];
            proptest::collection::vec(arb_row(width), 0..7)
                .prop_map(move |rows| (width, segment, rows))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The bitmap accumulator emits the sort-based one's CSR arrays,
        /// every value bit for bit (a lone `-0.0` included), and counts the
        /// same fan-in when it accumulates `u32`s.
        #[test]
        fn bitmap_rows_equal_the_sorted_reference((width, segment, rows) in arb_rows()) {
            let mut bitmap = SparseAccumulator::new(width);
            let mut fanin = SparseAccumulator::new(width);
            let mut reference = SortAccumulator::new(width);
            let mut counted = SortAccumulator::new(width);
            let mut got = CsrRows::new(rows.len(), width);
            let mut got_fanin = CsrRows::new(rows.len(), width);
            let mut want = CsrRows::new(rows.len(), width);
            let mut want_fanin = CsrRows::new(rows.len(), width);
            for row in &rows {
                add_in_segments(&mut bitmap, row, segment);
                let ones: Vec<(usize, u32)> = row.iter().map(|&(col, _)| (col, 1)).collect();
                add_in_segments(&mut fanin, &ones, segment);
                for &(col, value) in row {
                    reference.add(col, value);
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

    /// `symbolic` on a wide R-MAT pair (131 072 columns, so 32 summary
    /// words) gives the sort-based reference's pattern and fan-in.
    #[test]
    fn symbolic_equals_the_sorted_reference_on_a_wide_rmat_pair() {
        let a = GraphGenerator::rmat(17, 12_000, 21).generate().to_csr();
        let b = GraphGenerator::rmat(17, 12_000, 22).generate().to_csr();
        let mut counted = SortAccumulator::new(b.cols());
        let mut want = CsrRows::new(a.rows(), b.cols());
        for i in 0..a.rows() {
            for &k in a.row(i).0 {
                for &j in b.row(k).0 {
                    counted.add(j, 1.0);
                }
            }
            counted.flush_row(&mut want);
        }
        let (row_ptr, col_idx, fanin) = want.into_parts();
        let got = super::super::symbolic(&a, &b);
        assert!(got.col_idx.len() > 1_000, "the pair multiplies to {} elements", got.col_idx.len());
        assert_eq!(got.row_ptr, row_ptr);
        assert_eq!(got.col_idx, col_idx);
        let fanin: Vec<u32> = fanin.iter().map(|&n| n as u32).collect();
        assert_eq!(got.fanin, fanin);
    }

    /// The most summary words and blocks one flush examines, over 4 000
    /// rows that each add two random rows of a `width`-column `B` with at
    /// most two columns each, so reach at most four columns; each reached
    /// column costs at most one summary word and one block, whatever the
    /// width.
    fn most_examined_per_row(width: usize) -> usize {
        let mut rng = StdRng::seed_from_u64(46);
        let mut row_ptr = vec![0];
        let mut col_idx = Vec::new();
        for _ in 0..1_000 {
            let mut cols: Vec<usize> =
                (0..rng.gen_range(0..3)).map(|_| rng.gen_range(0..width)).collect();
            cols.sort_unstable();
            cols.dedup();
            col_idx.extend(cols);
            row_ptr.push(col_idx.len());
        }
        let values = vec![1.0; col_idx.len()];
        let b = CsrMatrix::from_raw_parts(1_000, width, row_ptr, col_idx, values).unwrap();
        let marks = RowMarks::of(&b);
        let mut spa = SparseAccumulator::new(width);
        let mut out = CsrRows::new(4_000, width);
        let mut most = 0;
        for _ in 0..4_000 {
            for k in [rng.gen_range(0..1_000), rng.gen_range(0..1_000)] {
                spa.add_segment(marks.row(k), b.row(k).0, b.row(k).1.iter().copied());
            }
            let before = spa.examined;
            spa.flush_row(&mut out);
            most = most.max(spa.examined - before);
        }
        most
    }

    /// Flush work follows the columns a row reached, not the width: at most
    /// 8 summary words and blocks per row of at most four columns, at 70 000
    /// columns (18 summary words) and at 560 000 (137). A flush that
    /// scanned every summary word would examine at least 18 and 137.
    #[test]
    fn flush_work_per_row_does_not_grow_with_the_width() {
        for width in [70_000, 560_000] {
            let most = most_examined_per_row(width);
            assert!(most <= 8, "{most} words and blocks examined in one row of {width} columns");
        }
    }
}
