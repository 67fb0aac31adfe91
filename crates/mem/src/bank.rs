//! A single DRAM bank with an open-row (row-buffer) policy.

use crate::HbmTiming;
use serde::{Deserialize, Serialize};

/// State of one DRAM bank.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub(crate) struct Bank {
    open_row: Option<u64>,
    busy_until: u64,
}

impl Bank {
    /// Creates a bank with no open row.
    pub(crate) fn new() -> Self {
        Bank::default()
    }

    /// Services an access to `row` arriving at `now`, returning the cycle at
    /// which data is available: after the row-hit latency when `row` is
    /// open, the row-miss latency when no row is, and the row-conflict
    /// latency (precharge + activate) when another row is.
    ///
    /// The bank is busy until the returned completion cycle; a request that
    /// arrives earlier queues behind it (modelled by starting from
    /// `max(now, busy_until)`).
    pub(crate) fn access(&mut self, row: u64, now: u64, timing: &HbmTiming) -> u64 {
        let start = now.max(self.busy_until);
        let latency = match self.open_row {
            Some(open) if open == row => timing.row_hit_latency,
            Some(_) => timing.row_conflict_latency,
            None => timing.row_miss_latency,
        };
        self.open_row = Some(row);
        let done = start + latency;
        self.busy_until = done;
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_is_a_miss() {
        let mut bank = Bank::new();
        let t = HbmTiming::hbm2();
        assert_eq!(bank.access(5, 0, &t), t.row_miss_latency);
        assert_eq!(bank.open_row, Some(5));
    }

    #[test]
    fn repeated_access_hits() {
        let mut bank = Bank::new();
        let t = HbmTiming::hbm2();
        bank.access(5, 0, &t);
        assert_eq!(bank.access(5, 100, &t), 100 + t.row_hit_latency);
    }

    #[test]
    fn row_change_is_a_conflict() {
        let mut bank = Bank::new();
        let t = HbmTiming::hbm2();
        bank.access(5, 0, &t);
        assert_eq!(bank.access(6, 100, &t), 100 + t.row_conflict_latency);
        assert_eq!(bank.open_row, Some(6));
    }

    #[test]
    fn back_to_back_requests_serialise() {
        let mut bank = Bank::new();
        let t = HbmTiming::hbm2();
        let first_done = bank.access(1, 0, &t);
        let second_done = bank.access(1, 0, &t);
        assert_eq!(second_done, first_done + t.row_hit_latency);
    }
}
