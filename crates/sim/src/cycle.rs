//! Strongly-typed cycle counter.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A clock-cycle timestamp.
///
/// All NeuraChip configurations run at 1 GHz (Table 3), so a cycle count
/// converts directly to nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Cycle(pub u64);

impl Cycle {
    /// The zero timestamp.
    pub const ZERO: Cycle = Cycle(0);

    /// Returns the raw cycle count.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Saturating difference between two timestamps.
    #[must_use]
    pub fn saturating_sub(self, other: Cycle) -> u64 {
        self.0.saturating_sub(other.0)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub for Cycle {
    type Output = u64;
    fn sub(self, rhs: Cycle) -> u64 {
        self.0.checked_sub(rhs.0).expect("cycle subtraction underflow")
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}", self.0)
    }
}

impl From<u64> for Cycle {
    fn from(value: u64) -> Self {
        Cycle(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_behaves() {
        let c = Cycle(10);
        assert_eq!(c + 5, Cycle(15));
        assert_eq!(Cycle(15) - c, 5);
        let mut d = c;
        d += 3;
        assert_eq!(d, Cycle(13));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_underflow_panics() {
        let _ = Cycle(1) - Cycle(2);
    }

    #[test]
    fn saturating_sub_clamps() {
        assert_eq!(Cycle(1).saturating_sub(Cycle(5)), 0);
        assert_eq!(Cycle(9).saturating_sub(Cycle(5)), 4);
    }

    #[test]
    fn display_and_conversions() {
        assert_eq!(Cycle::from(7u64).to_string(), "cycle 7");
        assert_eq!(Cycle(42).as_u64(), 42);
        assert_eq!(Cycle::ZERO, Cycle::default());
    }
}
