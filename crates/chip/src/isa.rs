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

use serde::{Deserialize, Serialize};

/// Operation codes of the extended ISA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) enum Opcode {
    /// `matrix_mult_hash_N` with tile height `N ∈ {1, 2, 4, 8}`.
    Mmh(u8),
    /// `hash_accumulate`.
    Hacc,
}

impl Opcode {
    /// The 8-bit encoding of the opcode.
    pub(crate) fn encode(self) -> u8 {
        match self {
            Opcode::Mmh(1) => 0x10,
            Opcode::Mmh(2) => 0x11,
            Opcode::Mmh(4) => 0x12,
            Opcode::Mmh(8) => 0x13,
            Opcode::Mmh(n) => panic!("unsupported MMH tile height {n}"),
            Opcode::Hacc => 0x20,
        }
    }

    /// Decodes an 8-bit opcode.
    pub(crate) fn decode(byte: u8) -> Option<Opcode> {
        match byte {
            0x10 => Some(Opcode::Mmh(1)),
            0x11 => Some(Opcode::Mmh(2)),
            0x12 => Some(Opcode::Mmh(4)),
            0x13 => Some(Opcode::Mmh(8)),
            0x20 => Some(Opcode::Hacc),
            _ => None,
        }
    }
}

/// A `matrix_mult_hash_N` instruction (Figure 7: 128 bits).
///
/// The address fields are byte offsets relative to `base_addr`, exactly as in
/// Algorithm 1.  The `work` field carries the decoded task metadata the
/// simulator needs (which output rows / inner index the instruction covers);
/// hardware would re-derive this from the fetched operands.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MmhInstruction {
    /// Tile height `N` (1, 2, 4 or 8).
    pub tile: u8,
    /// Base address added to all other addresses (Reg 0, 32 bits).
    pub base_addr: u32,
    /// Offset of the matrix-A data elements (Reg 1, 22 bits).
    pub a_data_addr: u32,
    /// Offset of the matrix-B column indices (Reg 2, 22 bits).
    pub b_col_ind_addr: u32,
    /// Offset of the matrix-B data elements (Reg 3, 22 bits).
    pub b_data_addr: u32,
    /// Offset of the rolling-eviction counters (Reg 4, 22 bits).
    pub roll_counter_addr: u32,
    /// Decoded task payload (simulator-side metadata).
    pub work: MmhWork,
}

/// Decoded task metadata carried alongside an [`MmhInstruction`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MmhWork {
    /// Shared inner index `k` (column of `A`, row of `B`).
    pub k: usize,
    /// Output rows covered (up to `tile` of them) and the A values.
    pub a_rows: Vec<usize>,
    /// Values of `A` for each entry of `a_rows`.
    pub a_values: Vec<f64>,
    /// Column indices of row `k` of `B`.
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

    /// Number of operand bytes the NeuraCore must fetch from memory:
    /// A values, B column indices, B values and rolling counters.
    pub(crate) fn operand_bytes(&self) -> usize {
        let a = self.work.a_rows.len() * 8;
        let b_idx = self.work.b_cols.len() * 4;
        let b_val = self.work.b_values.len() * 8;
        let ctr = self.work.counters.len() * 4;
        a + b_idx + b_val + ctr
    }

    /// Encodes the 128-bit instruction word (Figure 7).  The register fields
    /// are truncated to their architectural widths (22 bits each).
    pub fn encode(&self) -> u128 {
        let opcode = Opcode::Mmh(self.tile).encode() as u128;
        let reg0 = self.base_addr as u128;
        let reg1 = (self.a_data_addr & 0x3F_FFFF) as u128;
        let reg2 = (self.b_col_ind_addr & 0x3F_FFFF) as u128;
        let reg3 = (self.b_data_addr & 0x3F_FFFF) as u128;
        let reg4 = (self.roll_counter_addr & 0x3F_FFFF) as u128;
        (opcode << 120) | (reg0 << 88) | (reg1 << 66) | (reg2 << 44) | (reg3 << 22) | reg4
    }
}

/// A `hash_accumulate` instruction (Figure 9: 128 bits).
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
    /// Architectural size of the instruction in bytes (128 bits).
    pub(crate) const BYTES: usize = 16;

    /// Creates a `HACC` with the given tag, value and remaining-contribution count.
    pub fn new(tag: u64, data: f64, counter: u32) -> Self {
        HaccInstruction { tag, data, counter, generated_at: 0 }
    }

    /// Encodes the 128-bit instruction word (Figure 9).
    pub fn encode(&self) -> u128 {
        let opcode = Opcode::Hacc.encode() as u128;
        let tag = (self.tag & 0xFFFF_FFFF) as u128;
        let data_bits = (self.data as f32).to_bits() as u128;
        let counter = (self.counter & 0xFFFF) as u128;
        (opcode << 120) | (tag << 88) | (data_bits << 56) | (counter << 40)
    }

    /// Decodes the architectural fields back out of an encoded word.
    pub fn decode(word: u128) -> Option<Self> {
        let opcode = ((word >> 120) & 0xFF) as u8;
        if Opcode::decode(opcode) != Some(Opcode::Hacc) {
            return None;
        }
        let tag = ((word >> 88) & 0xFFFF_FFFF) as u64;
        let data = f32::from_bits(((word >> 56) & 0xFFFF_FFFF) as u32) as f64;
        let counter = ((word >> 40) & 0xFFFF) as u32;
        Some(HaccInstruction { tag, data, counter, generated_at: 0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_mmh() -> MmhInstruction {
        MmhInstruction {
            tile: 4,
            base_addr: 0x1000,
            a_data_addr: 0x10,
            b_col_ind_addr: 0x20,
            b_data_addr: 0x30,
            roll_counter_addr: 0x40,
            work: MmhWork {
                k: 3,
                a_rows: vec![0, 2, 5],
                a_values: vec![1.0, 2.0, 3.0],
                b_cols: vec![1, 4],
                b_values: vec![0.5, 0.25],
                counters: vec![0; 6],
            },
        }
    }

    #[test]
    fn opcode_round_trip() {
        for op in [Opcode::Mmh(1), Opcode::Mmh(2), Opcode::Mmh(4), Opcode::Mmh(8), Opcode::Hacc] {
            assert_eq!(Opcode::decode(op.encode()), Some(op));
        }
        assert_eq!(Opcode::decode(0xFF), None);
    }

    #[test]
    #[should_panic(expected = "unsupported")]
    fn invalid_mmh_tile_panics_on_encode() {
        Opcode::Mmh(3).encode();
    }

    #[test]
    fn mmh_counts_and_bytes() {
        let mmh = sample_mmh();
        assert_eq!(mmh.hacc_count(), 6);
        // 3 A values (24B) + 2 B indices (8B) + 2 B values (16B) + 6 counters (24B).
        assert_eq!(mmh.operand_bytes(), 24 + 8 + 16 + 24);
    }

    #[test]
    fn mmh_encoding_places_opcode_in_top_byte() {
        let word = sample_mmh().encode();
        assert_eq!(((word >> 120) & 0xFF) as u8, Opcode::Mmh(4).encode());
    }

    #[test]
    fn hacc_encode_decode_round_trip() {
        let hacc = HaccInstruction::new(0x00AB_CDEF, 1.5, 42);
        let decoded = HaccInstruction::decode(hacc.encode()).unwrap();
        assert_eq!(decoded.tag, 0x00AB_CDEF);
        assert_eq!(decoded.counter, 42);
        assert!((decoded.data - 1.5).abs() < 1e-6);
    }

    #[test]
    fn hacc_decode_rejects_wrong_opcode() {
        let word = sample_mmh().encode();
        assert!(HaccInstruction::decode(word).is_none());
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
