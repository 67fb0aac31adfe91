//! One HBM channel: a set of banks plus a bandwidth-limited data bus.

use crate::bank::Bank;
use crate::HbmTiming;
use serde::{Deserialize, Serialize};

/// A single HBM channel.
///
/// Addresses are mapped bank-interleaved at burst granularity: consecutive
/// bursts fall in consecutive banks, which is what lets coalesced streaming
/// reads approach peak bandwidth.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Channel {
    timing: HbmTiming,
    banks: Vec<Bank>,
    /// Cycle until which the shared data bus is busy.
    bus_busy_until: u64,
}

impl Channel {
    /// Creates a channel with the given timing.
    pub fn new(timing: HbmTiming) -> Self {
        let banks = (0..timing.banks_per_channel).map(|_| Bank::new()).collect();
        Channel { timing, banks, bus_busy_until: 0 }
    }

    /// Maps a byte address to (bank index, row index) within this channel.
    pub(crate) fn map_address(&self, addr: u64) -> (usize, u64) {
        let burst = addr / self.timing.burst_bytes as u64;
        let bank = (burst % self.banks.len() as u64) as usize;
        let row = addr / self.timing.row_bytes as u64;
        (bank, row)
    }

    /// Services an access of `bytes` bytes at `addr`, arriving at `now`.
    /// Returns the completion cycle.
    ///
    /// For any addresses and sizes, completions strictly increase from one
    /// access to the next: the data bus starts each transfer at or after
    /// the end of the previous one, and a transfer, even of zero bytes,
    /// takes at least a cycle. The memory controller retires in issue
    /// order on the strength of this.
    pub fn access(&mut self, addr: u64, bytes: usize, now: u64) -> u64 {
        let (bank_idx, row) = self.map_address(addr);
        let bank_done = self.banks[bank_idx].access(row, now, &self.timing);
        // The data transfer occupies the shared bus after the bank produces it.
        let transfer = self.timing.transfer_cycles(bytes.max(1));
        let bus_start = bank_done.max(self.bus_busy_until);
        let done = bus_start + transfer + self.timing.base_latency;
        self.bus_busy_until = bus_start + transfer;
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HbmPreset;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The theorem the controller's in-flight FIFO rests on.
        #[test]
        fn completions_strictly_increase(
            preset in 0usize..HbmPreset::ALL.len(),
            accesses in proptest::collection::vec((0u64..1 << 20, 0usize..2_048, 0u64..4), 1..200),
        ) {
            let mut channel = Channel::new(HbmPreset::ALL[preset].timing());
            let (mut now, mut last) = (0, None);
            for (addr, bytes, wait) in accesses {
                now += wait * wait * 20;
                let done = channel.access(addr, bytes, now);
                prop_assert!(last.is_none_or(|last| done > last), "{done} after {last:?}");
                last = Some(done);
            }
        }
    }

    #[test]
    fn address_mapping_interleaves_banks() {
        let ch = Channel::new(HbmTiming::hbm2());
        let (b0, _) = ch.map_address(0);
        let (b1, _) = ch.map_address(64);
        let (b2, _) = ch.map_address(128);
        assert_ne!(b0, b1);
        assert_ne!(b1, b2);
    }

    #[test]
    fn sequential_bursts_use_different_banks_and_pipeline() {
        let mut ch = Channel::new(HbmTiming::hbm2());
        let done_a = ch.access(0, 64, 0);
        let done_b = ch.access(64, 64, 0);
        // Different banks: the second access should not pay a full serialised
        // bank latency on top of the first, only bus serialisation.
        assert!(done_b < done_a + HbmTiming::hbm2().row_miss_latency);
    }

    #[test]
    fn same_row_access_is_faster_than_conflicting_rows() {
        let t = HbmTiming::hbm2();
        let mut hit_channel = Channel::new(t);
        hit_channel.access(0, 64, 0);
        let hit_done = hit_channel.access(0, 64, 500);

        let mut conflict_channel = Channel::new(t);
        conflict_channel.access(0, 64, 0);
        // Same bank (same burst-aligned address modulo banks), different row.
        let far = (t.row_bytes * t.banks_per_channel) as u64;
        let conflict_done = conflict_channel.access(far, 64, 500);
        assert_eq!(conflict_done - hit_done, t.row_conflict_latency - t.row_hit_latency);
    }

    #[test]
    fn bus_contention_serialises_large_transfers() {
        let mut ch = Channel::new(HbmTiming::hbm2());
        // Two large transfers at the same time must be separated by at least
        // the transfer time of the first on the shared bus.
        let done_a = ch.access(0, 1024, 0);
        let done_b = ch.access(4096, 1024, 0);
        let transfer = HbmTiming::hbm2().transfer_cycles(1024);
        assert!(done_b >= done_a.min(ch.bus_busy_until) && done_b >= transfer);
        assert!(ch.bus_busy_until >= 2 * transfer);
    }
}
