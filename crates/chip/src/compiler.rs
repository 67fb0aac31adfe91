//! The NeuraCompiler: lowers an SpGEMM onto the NeuraChip ISA.
//!
//! The compiler mirrors the paper's NeuraCompiler module: it takes the
//! adjacency matrix in CSC form and the feature (or second adjacency) matrix
//! in CSR form, tiles the Gustavson dataflow into `MMH<tile>` tasks, lays the
//! operands out in a virtual address space, and — crucially for the
//! rolling-eviction mechanism — precomputes the contribution count of every
//! output element so each partial product can carry its eviction counter.
//! A GCN aggregation `A · X` is the same lowering with the dense features
//! stored in full, every entry an element of its CSR row, as the paper's
//! aggregation-phase SpGEMM treats them. The instructions are the decoded
//! tasks of the paper's 128-bit formats ([`crate::isa`]), not their words.
//!
//! That precomputation is the symbolic phase of Gustavson's algorithm and is
//! not done here: [`neura_sparse::spgemm::symbolic`] derives the pattern of
//! `C` and the fan-in of its elements once, the compiler copies every
//! counter out of it in one row-major pass over `A`, and the [`Program`]
//! carries it on so the accelerator model assembles its result in the same
//! arrays.

use crate::isa::{MmhInstruction, MmhWork};
use neura_sparse::spgemm::{self, SymbolicProduct};
use neura_sparse::{CscMatrix, CsrMatrix, DenseMatrix};
use serde::{Deserialize, Serialize};

/// Virtual-address-space layout used by the compiler.
pub mod layout {
    /// Base address of matrix A's value array (CSC order).
    pub(crate) const A_DATA_BASE: u64 = 0x0000_0000;
    /// Base address of matrix B's column-index array (CSR order).
    pub(crate) const B_COL_IDX_BASE: u64 = 0x4000_0000;
    /// Base address of matrix B's value array (CSR order).
    pub(crate) const B_DATA_BASE: u64 = 0x8000_0000;
    /// Base address of the rolling-counter array.
    pub(crate) const COUNTER_BASE: u64 = 0xC000_0000;
    /// Base address of the output matrix (indexed by output tag).
    pub(crate) const OUTPUT_BASE: u64 = 0xE000_0000;
}

/// A compiled workload: the instruction stream plus its metadata.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Program {
    /// The `MMH` instruction stream in dispatch order: column by column of
    /// `A`, `tile` stored elements at a time.
    pub instructions: Vec<MmhInstruction>,
    /// Shape of the output matrix (rows, cols).
    pub output_shape: (usize, usize),
    /// Number of `HACC` instructions the program will generate.
    pub total_partial_products: u64,
    /// Number of distinct output elements (non-zeros of the result).
    pub output_nnz: usize,
    /// Pattern of the output matrix with the contribution count of every
    /// element — the rolling-eviction counters, by output position.
    pub pattern: SymbolicProduct,
}

impl Program {
    /// Number of `MMH` instructions.
    pub fn instruction_count(&self) -> usize {
        self.instructions.len()
    }

    /// Decodes an output tag back into `(row, col)`.
    pub(crate) fn coords_of(&self, tag: u64) -> (usize, usize) {
        let cols = self.output_shape.1 as u64;
        ((tag / cols) as usize, (tag % cols) as usize)
    }
}

/// Compiles the SpGEMM `C = A × B` into an `MMH<tile>` instruction stream.
///
/// `A` is consumed in CSC form (streamed column by column, `tile` stored
/// elements at a time) and `B` in CSR form, matching Section 3.1.
///
/// # Panics
///
/// Panics if the shapes are incompatible or `tile` is not 1, 2, 4 or 8.
pub fn compile_spgemm(a: &CscMatrix, b: &CsrMatrix, tile: u8) -> Program {
    assert!(matches!(tile, 1 | 2 | 4 | 8), "MMH tile height must be 1, 2, 4 or 8");
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");

    // The contribution count (reduction fan-in) of every output element —
    // the rolling-eviction counters.
    let a_csr = a.to_csr();
    let pattern = spgemm::symbolic(&a_csr, b);

    let mut instructions = Vec::new();
    // The index of each column's first instruction.
    let mut first_instruction = Vec::with_capacity(a.cols());
    let mut total_partial_products = 0u64;
    let mut a_cursor = 0u64; // index into A's value array (CSC order)

    for k in 0..a.cols() {
        first_instruction.push(instructions.len());
        let (a_rows, a_vals) = a.col(k);
        let (b_cols, b_vals) = b.row(k);
        if a_rows.is_empty() || b_cols.is_empty() {
            a_cursor += a_rows.len() as u64;
            continue;
        }
        let b_row_start = b.row_ptr()[k] as u64;
        for chunk_start in (0..a_rows.len()).step_by(tile as usize) {
            let chunk_end = (chunk_start + tile as usize).min(a_rows.len());
            let rows_chunk = &a_rows[chunk_start..chunk_end];
            let vals_chunk = &a_vals[chunk_start..chunk_end];
            let instr = MmhInstruction {
                a_data_addr: (layout::A_DATA_BASE + (a_cursor + chunk_start as u64) * 8) as u32,
                b_col_ind_addr: (layout::B_COL_IDX_BASE + b_row_start * 4) as u32,
                b_data_addr: (layout::B_DATA_BASE + b_row_start * 8) as u32,
                roll_counter_addr: (layout::COUNTER_BASE.wrapping_add(total_partial_products * 4))
                    as u32,
                work: MmhWork {
                    a_rows: rows_chunk.to_vec(),
                    a_values: vals_chunk.to_vec(),
                    b_cols: b_cols.to_vec(),
                    b_values: b_vals.to_vec(),
                    counters: vec![0; rows_chunk.len() * b_cols.len()],
                },
            };
            total_partial_products += instr.hacc_count() as u64;
            instructions.push(instr);
        }
        a_cursor += a_rows.len() as u64;
    }

    write_counters(&mut instructions, &first_instruction, tile.into(), &a_csr, b, &pattern);

    Program {
        instructions,
        output_shape: (a.rows(), b.cols()),
        total_partial_products,
        output_nnz: pattern.col_idx.len(),
        pattern,
    }
}

/// Writes the rolling-eviction counter of every partial product — the
/// fan-in of the output element it lands in — into `instructions`, which
/// [`compile_spgemm`] cut from the columns of `A`, `tile` stored elements
/// at a time, `first_instruction[k]` the first of column `k`.
///
/// One row-major pass over `A` (`a_csr`): row `i`'s fan-ins are
/// scattered into a dense array over the columns of `C`, then read for
/// every `j` of `b.row(k)` into the slots of CSC entry `(k, i)`. Rows
/// arrive in ascending order, as each column of the CSC lists them, so the
/// entry is the next one of its column not yet visited.
fn write_counters(
    instructions: &mut [MmhInstruction],
    first_instruction: &[usize],
    tile: usize,
    a_csr: &CsrMatrix,
    b: &CsrMatrix,
    pattern: &SymbolicProduct,
) {
    let mut fanin = vec![0u32; b.cols()];
    let mut visited = vec![0usize; a_csr.cols()];
    for i in 0..a_csr.rows() {
        let row = pattern.row_ptr[i]..pattern.row_ptr[i + 1];
        for (&j, &count) in pattern.col_idx[row.clone()].iter().zip(&pattern.fanin[row]) {
            fanin[j] = count;
        }
        for &k in a_csr.row(i).0 {
            let rank = visited[k];
            visited[k] += 1;
            let b_cols = b.row(k).0;
            if b_cols.is_empty() {
                continue;
            }
            let instr = &mut instructions[first_instruction[k] + rank / tile];
            let at = rank % tile * b_cols.len();
            for (slot, &j) in instr.work.counters[at..].iter_mut().zip(b_cols) {
                *slot = fanin[j];
            }
        }
    }
}

/// Converts a dense matrix to CSR keeping every entry (including zeros), so
/// that [`compile_spgemm`] lowers the GCN aggregation `A × X` with the
/// structural fan-in of the dense computation: every row of `X` has
/// `feature_dim` stored elements.
pub(crate) fn dense_to_csr(m: &DenseMatrix) -> CsrMatrix {
    let rows = m.rows();
    let cols = m.cols();
    let row_ptr: Vec<usize> = (0..=rows).map(|r| r * cols).collect();
    let col_idx: Vec<usize> = (0..rows).flat_map(|_| 0..cols).collect();
    let values: Vec<f64> = (0..rows).flat_map(|r| m.row(r).to_vec()).collect();
    CsrMatrix::from_raw_parts(rows, cols, row_ptr, col_idx, values)
        .expect("dense layout is structurally valid CSR")
}

#[cfg(test)]
mod tests {
    use super::*;
    use neura_sparse::gen::{feature_matrix, GraphGenerator};
    use std::collections::HashMap;

    fn small_graph(seed: u64) -> CsrMatrix {
        GraphGenerator::power_law(60, 400, 2.1, seed).generate().to_csr()
    }

    /// The output tag of element `(row, col)`.
    fn tag_of(program: &Program, row: usize, col: usize) -> u64 {
        (row as u64) * program.output_shape.1 as u64 + col as u64
    }

    /// Contribution count per output tag, recounted from the instruction
    /// stream the way the NeuraCores will expand it.
    fn recount_fanin(program: &Program) -> HashMap<u64, u32> {
        let mut fanin = HashMap::new();
        for instr in &program.instructions {
            for &i in &instr.work.a_rows {
                for &j in &instr.work.b_cols {
                    *fanin.entry(tag_of(program, i, j)).or_insert(0) += 1;
                }
            }
        }
        fanin
    }

    #[test]
    fn partial_product_count_matches_reference() {
        let a = small_graph(1);
        let program = compile_spgemm(&a.to_csc(), &a, 4);
        let (_, stats) = spgemm::multiply_counting(&a, &a);
        assert_eq!(program.total_partial_products, stats.multiplications);
        assert_eq!(program.output_nnz, stats.output_nnz);
    }

    #[test]
    fn fanin_sums_to_partial_products() {
        let a = small_graph(2);
        let program = compile_spgemm(&a.to_csc(), &a, 4);
        let fanin = recount_fanin(&program);
        let fanin_sum: u64 = fanin.values().map(|&f| f as u64).sum();
        assert_eq!(fanin_sum, program.total_partial_products);
        assert_eq!(fanin.len(), program.output_nnz);
    }

    #[test]
    fn every_instruction_respects_tile_height() {
        let a = small_graph(3);
        for tile in [1u8, 2, 4, 8] {
            let program = compile_spgemm(&a.to_csc(), &a, tile);
            assert!(program
                .instructions
                .iter()
                .all(|i| i.work.a_rows.len() <= tile as usize && !i.work.a_rows.is_empty()));
        }
    }

    #[test]
    fn larger_tiles_need_fewer_instructions() {
        let a = small_graph(4);
        let p1 = compile_spgemm(&a.to_csc(), &a, 1);
        let p4 = compile_spgemm(&a.to_csc(), &a, 4);
        let p8 = compile_spgemm(&a.to_csc(), &a, 8);
        assert!(p4.instruction_count() <= p1.instruction_count());
        assert!(p8.instruction_count() <= p4.instruction_count());
        assert_eq!(p1.total_partial_products, p8.total_partial_products);
    }

    #[test]
    fn counters_match_fanin_for_each_partial_product() {
        let a = small_graph(5);
        for tile in [1u8, 2, 4, 8] {
            let program = compile_spgemm(&a.to_csc(), &a, tile);
            let fanin = recount_fanin(&program);
            for instr in &program.instructions {
                let mut idx = 0;
                for &i in &instr.work.a_rows {
                    for &j in &instr.work.b_cols {
                        let tag = tag_of(&program, i, j);
                        assert_eq!(instr.work.counters[idx], fanin[&tag]);
                        idx += 1;
                    }
                }
            }
        }
    }

    #[test]
    fn tag_round_trip() {
        let a = small_graph(7);
        let program = compile_spgemm(&a.to_csc(), &a, 4);
        for &(r, c) in &[(0usize, 0usize), (3, 17), (59, 59)] {
            let tag = tag_of(&program, r, c);
            assert_eq!(program.coords_of(tag), (r, c));
        }
    }

    #[test]
    fn aggregation_lowering_covers_dense_features() {
        let a = small_graph(8);
        let x = feature_matrix(a.cols(), 8, 3);
        let program = compile_spgemm(&a.to_csc(), &dense_to_csr(&x), 4);
        // Every (non-empty row of A) × feature column pair is an output element.
        assert_eq!(program.total_partial_products, a.nnz() as u64 * 8);
        assert_eq!(program.output_shape, (a.rows(), 8));
    }

    /// The operand addresses cover every operand once, where the layout
    /// puts it: `A`'s values in CSC order, each read once unless its column
    /// meets an empty row of `B`, each instruction's `B` row at its CSR
    /// offset in both `B` arrays, and the rolling counters back to back,
    /// one per partial product.
    #[test]
    fn input_bytes_accounts_for_all_operands() {
        let a = small_graph(9);
        let a_csc = a.to_csc();
        let program = compile_spgemm(&a_csc, &a, 4);
        let mut a_next = layout::A_DATA_BASE;
        let mut a_bytes = 0;
        let mut counter_next = layout::COUNTER_BASE;
        for instr in &program.instructions {
            let work = &instr.work;
            assert!(instr.a_data_addr as u64 >= a_next, "A values are read in order, once");
            a_next = instr.a_data_addr as u64 + work.a_rows.len() as u64 * 8;
            a_bytes += work.a_rows.len() as u64 * 8;
            let b_start = (instr.b_col_ind_addr as u64 - layout::B_COL_IDX_BASE) as usize / 4;
            assert_eq!(instr.b_data_addr as u64, layout::B_DATA_BASE + b_start as u64 * 8);
            assert_eq!(work.b_cols, a.col_idx()[b_start..b_start + work.b_cols.len()]);
            assert_eq!(work.b_values, a.values()[b_start..b_start + work.b_values.len()]);
            assert_eq!(instr.roll_counter_addr as u64, counter_next);
            counter_next += work.counters.len() as u64 * 4;
        }
        let a_read = (0..a.rows()).filter(|&k| a.row_nnz(k) > 0).map(|k| a_csc.col(k).0.len());
        assert_eq!(a_bytes, a_read.sum::<usize>() as u64 * 8);
        assert_eq!(counter_next - layout::COUNTER_BASE, program.total_partial_products * 4);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn shape_mismatch_panics() {
        let a = CsrMatrix::identity(4).to_csc();
        let b = CsrMatrix::identity(5);
        compile_spgemm(&a, &b, 4);
    }
}
