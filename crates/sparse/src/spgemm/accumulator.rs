//! Direct CSR assembly shared by the SpGEMM kernels.
//!
//! Three pieces, each used by more than one kernel:
//!
//! * [`CsrRows`] appends finished output rows and hands the arrays to
//!   [`CsrMatrix::from_raw_parts`], so every product is still validated;
//! * [`SparseAccumulator`] is the dense sparse-accumulator (SPA) that merges
//!   the partial products of one output row;
//! * [`RowBuckets`] holds *every* partial product of a multiplication,
//!   bucketed by output row in generation order, for the dataflows that
//!   materialise them all before an explicit merge phase.

use crate::CsrMatrix;

/// A CSR matrix under construction, one finished row at a time.
pub(crate) struct CsrRows {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrRows {
    pub(crate) fn new(rows: usize, cols: usize) -> Self {
        let mut row_ptr = Vec::with_capacity(rows + 1);
        row_ptr.push(0);
        CsrRows { rows, cols, row_ptr, col_idx: Vec::new(), values: Vec::new() }
    }

    /// Appends one entry to the open row; columns must arrive ascending.
    pub(crate) fn push(&mut self, col: usize, value: f64) {
        self.col_idx.push(col);
        self.values.push(value);
    }

    /// Closes the open row.
    pub(crate) fn end_row(&mut self) {
        self.row_ptr.push(self.col_idx.len());
    }

    /// Validates the arrays into a matrix.
    ///
    /// # Panics
    ///
    /// Panics if the caller closed a number of rows other than `rows` or
    /// pushed unsorted, duplicate or out-of-range columns.
    pub(crate) fn finish(self) -> CsrMatrix {
        CsrMatrix::from_raw_parts(self.rows, self.cols, self.row_ptr, self.col_idx, self.values)
            .expect("SpGEMM kernels assemble structurally valid CSR rows")
    }
}

/// Dense sparse-accumulator over the columns of one output row.
pub(crate) struct SparseAccumulator {
    sums: Vec<f64>,
    touched: Vec<bool>,
    occupied: Vec<usize>,
}

impl SparseAccumulator {
    pub(crate) fn new(cols: usize) -> Self {
        SparseAccumulator {
            sums: vec![0.0; cols],
            touched: vec![false; cols],
            occupied: Vec::new(),
        }
    }

    /// Accumulates one partial product into column `col`; returns `true`
    /// when it merged into an earlier one (one scalar addition).
    pub(crate) fn add(&mut self, col: usize, product: f64) -> bool {
        if self.touched[col] {
            self.sums[col] += product;
            true
        } else {
            self.touched[col] = true;
            self.occupied.push(col);
            self.sums[col] = product;
            false
        }
    }

    /// Emits the accumulated row in ascending column order, closes it and
    /// resets the accumulator for the next row.
    pub(crate) fn flush_row(&mut self, out: &mut CsrRows) {
        self.occupied.sort_unstable();
        for &col in &self.occupied {
            out.push(col, self.sums[col]);
            self.touched[col] = false;
        }
        self.occupied.clear();
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
}
