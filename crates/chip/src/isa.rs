//! The NeuraChip instruction set: `MMH` and `HACC`.
//!
//! NeuraChip extends a conventional ISA with two 128-bit instructions
//! (Figures 7 and 9 of the paper):
//!
//! * `matrix_mult_hash_N` (`MMH1/2/4/8`) — executed by a NeuraCore: pairs up
//!   to `N` stored elements of a column of the adjacency matrix `A` with one
//!   row of the feature matrix `B`, producing up to `N × row_nnz(B)` partial
//!   products, each dispatched as a `HACC`.
//! * `hash_accumulate` (`HACC`) — executed by a NeuraMem: hashes the TAG,
//!   accumulates DATA into the matching hash-line and decrements the rolling
//!   eviction COUNTER.
//!
//! The 128-bit word layouts are the paper's. The model moves decoded
//! instructions, never their words, and reads of the formats only their
//! size: a `HACC` crosses the NoC as a 16-byte packet.

use serde::{Deserialize, Serialize};

/// A `matrix_mult_hash_N` instruction (Figure 7).
///
/// The four address fields are the operand addresses of Algorithm 1, in
/// the compiler's one virtual address space ([`crate::compiler::layout`]),
/// so the word's base-address register is always zero and is not carried.
/// The `work` field carries the decoded task metadata the simulator needs
/// (which output rows the instruction covers, with the operand values);
/// hardware would re-derive this from the fetched operands.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MmhInstruction {
    /// Address of the matrix-A data elements (Reg 1).
    pub a_data_addr: u32,
    /// Address of the matrix-B column indices (Reg 2).
    pub b_col_ind_addr: u32,
    /// Address of the matrix-B data elements (Reg 3).
    pub b_data_addr: u32,
    /// Address of the rolling-eviction counters (Reg 4).
    pub roll_counter_addr: u32,
    /// Decoded task payload (simulator-side metadata).
    pub work: MmhWork,
}

/// Decoded task metadata carried alongside an [`MmhInstruction`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MmhWork {
    /// Output rows covered (up to the tile height `N` of them).
    pub a_rows: Vec<usize>,
    /// Values of `A` for each entry of `a_rows`.
    pub a_values: Vec<f64>,
    /// Column indices of the shared row `k` of `B`.
    pub b_cols: Vec<usize>,
    /// Values of row `k` of `B`.
    pub b_values: Vec<f64>,
    /// Rolling-eviction counter for each `(a_row, b_col)` partial product,
    /// laid out row-major (`a_rows.len() × b_cols.len()`).
    pub counters: Vec<u32>,
}

impl MmhInstruction {
    /// Number of `HACC` instructions this instruction will dispatch.
    pub(crate) fn hacc_count(&self) -> usize {
        self.work.a_rows.len() * self.work.b_cols.len()
    }
}

/// A `hash_accumulate` instruction (Figure 9).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HaccInstruction {
    /// Output-element tag (Reg 0/1 — the hash key).
    pub tag: u64,
    /// Partial-product value (Reg 2).
    pub data: f64,
    /// Total number of partial products that contribute to this output tag
    /// (the rolling-eviction counter, Reg 3, 16 bits).  The NeuraMem installs
    /// this value on the first arrival, decrements it on every accumulation
    /// including the first, and evicts the hash-line when it reaches zero.
    pub counter: u32,
    /// Cycle at which the producing NeuraCore generated this instruction
    /// (simulator bookkeeping for the Figure 15 latency histogram).
    pub generated_at: u64,
}

impl HaccInstruction {
    /// Size of a `HACC` on the NoC in bytes: the instruction is 128 bits
    /// (Figure 9).
    pub(crate) const BYTES: usize = 16;

    /// Creates a `HACC` with the given tag, value and remaining-contribution count.
    pub fn new(tag: u64, data: f64, counter: u32) -> Self {
        HaccInstruction { tag, data, counter, generated_at: 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mmh() -> MmhInstruction {
        MmhInstruction {
            a_data_addr: 0x10,
            b_col_ind_addr: 0x20,
            b_data_addr: 0x30,
            roll_counter_addr: 0x40,
            work: MmhWork {
                a_rows: vec![0, 2, 5],
                a_values: vec![1.0, 2.0, 3.0],
                b_cols: vec![1, 4],
                b_values: vec![0.5, 0.25],
                counters: vec![0; 6],
            },
        }
    }

    #[test]
    fn mmh_counts_and_bytes() {
        let mmh = sample_mmh();
        // 3 rows of A × 2 stored elements of the B row.
        assert_eq!(mmh.hacc_count(), 6);
    }

    #[test]
    fn hacc_is_16_bytes() {
        assert_eq!(HaccInstruction::BYTES, 16);
    }

    #[test]
    fn mmh4_can_dispatch_up_to_16_haccs() {
        let mut mmh = sample_mmh();
        mmh.work.a_rows = vec![0, 1, 2, 3];
        mmh.work.a_values = vec![1.0; 4];
        mmh.work.b_cols = vec![0, 1, 2, 3];
        mmh.work.b_values = vec![1.0; 4];
        mmh.work.counters = vec![0; 16];
        assert_eq!(mmh.hacc_count(), 16);
    }
}
