//! A cheap hasher for the run loop's integer-keyed tables.
//!
//! The keys (output tags) are produced by the compiler, never by outside
//! input, so SipHash's flooding resistance buys nothing here and costs a
//! large share of every `HACC`. No iteration order of these tables reaches
//! a result: the one walk, a HashPad flush, sorts what it collects.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Fibonacci multiply of the one integer written, folded so both the
/// bucket-index (low) and control-byte (high) bits are mixed.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, value: u64) {
        let mixed = (self.0 ^ value).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = mixed ^ (mixed >> 32);
    }
}

/// A `HashMap` from an integer key hashed with [`IntHasher`].
pub(crate) type IntMap<V> = HashMap<u64, V, BuildHasherDefault<IntHasher>>;
