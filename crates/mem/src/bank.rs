//! A single DRAM bank with an open-row (row-buffer) policy.

use crate::HbmTiming;
use serde::{Deserialize, Serialize};

/// Classification of an access relative to the bank's row buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RowBufferOutcome {
    /// The requested row was already open.
    Hit,
    /// The bank was idle (no open row); an activate was required.
    Miss,
    /// A different row was open; precharge + activate were required.
    Conflict,
}

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
    /// which data is available and the row-buffer outcome.
    ///
    /// The bank is busy until the returned completion cycle; a request that
    /// arrives earlier queues behind it (modelled by starting from
    /// `max(now, busy_until)`).
    pub(crate) fn access(
        &mut self,
        row: u64,
        now: u64,
        timing: &HbmTiming,
    ) -> (u64, RowBufferOutcome) {
        let start = now.max(self.busy_until);
        let (latency, outcome) = match self.open_row {
            Some(open) if open == row => (timing.row_hit_latency, RowBufferOutcome::Hit),
            Some(_) => (timing.row_conflict_latency, RowBufferOutcome::Conflict),
            None => (timing.row_miss_latency, RowBufferOutcome::Miss),
        };
        self.open_row = Some(row);
        let done = start + latency;
        self.busy_until = done;
        (done, outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_is_a_miss() {
        let mut bank = Bank::new();
        let t = HbmTiming::hbm2();
        let (done, outcome) = bank.access(5, 0, &t);
        assert_eq!(outcome, RowBufferOutcome::Miss);
        assert_eq!(done, t.row_miss_latency);
        assert_eq!(bank.open_row, Some(5));
    }

    #[test]
    fn repeated_access_hits() {
        let mut bank = Bank::new();
        let t = HbmTiming::hbm2();
        bank.access(5, 0, &t);
        let (_, outcome) = bank.access(5, 100, &t);
        assert_eq!(outcome, RowBufferOutcome::Hit);
    }

    #[test]
    fn row_change_is_a_conflict() {
        let mut bank = Bank::new();
        let t = HbmTiming::hbm2();
        bank.access(5, 0, &t);
        let (_, outcome) = bank.access(6, 100, &t);
        assert_eq!(outcome, RowBufferOutcome::Conflict);
        assert_eq!(bank.open_row, Some(6));
    }

    #[test]
    fn back_to_back_requests_serialise() {
        let mut bank = Bank::new();
        let t = HbmTiming::hbm2();
        let (first_done, _) = bank.access(1, 0, &t);
        let (second_done, _) = bank.access(1, 0, &t);
        assert!(second_done >= first_done + t.row_hit_latency);
    }
}
