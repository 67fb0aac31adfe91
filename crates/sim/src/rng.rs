//! Deterministic pseudo-random number generator.
//!
//! The DRHM mapping reseeds a hash function with a random value after every
//! row of computation (Section 3.5).  To keep simulations reproducible the
//! accelerator model draws those seeds from this small, explicitly-seeded
//! xorshift64* generator instead of a global RNG.

use serde::{Deserialize, Serialize};

/// A deterministic xorshift64* pseudo-random number generator.
///
/// Not cryptographically secure — it only needs to be fast, stateless across
/// platforms, and reproducible from a seed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeterministicRng {
    state: u64,
}

impl DeterministicRng {
    /// Creates a generator from a seed.  A zero seed is remapped to a fixed
    /// non-zero constant because xorshift has an all-zero fixed point.
    pub fn new(seed: u64) -> Self {
        DeterministicRng { state: if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed } }
    }

    /// Next raw 64-bit value.
    pub(crate) fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Next value reduced to `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        self.next_u64() % bound
    }
}

impl Default for DeterministicRng {
    fn default() -> Self {
        DeterministicRng::new(0x5EED)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = DeterministicRng::new(42);
        let mut b = DeterministicRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DeterministicRng::new(1);
        let mut b = DeterministicRng::new(2);
        let a_vals: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let b_vals: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(a_vals, b_vals);
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut rng = DeterministicRng::new(0);
        assert_ne!(rng.next_u64(), 0);
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = DeterministicRng::new(7);
        for _ in 0..1000 {
            assert!(rng.next_below(13) < 13);
        }
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        let mut rng = DeterministicRng::new(123);
        let mut buckets = [0u32; 8];
        for _ in 0..8000 {
            buckets[rng.next_below(8) as usize] += 1;
        }
        for &b in &buckets {
            assert!((700..1300).contains(&b), "bucket count {b} far from uniform");
        }
    }
}
