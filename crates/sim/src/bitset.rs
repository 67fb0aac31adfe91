//! A fixed-capacity set of small indices, one bit each: the units a cycle
//! loop or an event loop can change, so a walk visits only those.

/// A set of indices below a fixed capacity, one bit per index.
///
/// Membership changes in O(1), and [`Self::iter`] and [`Self::retain`]
/// visit the members in ascending order at a cost of one word per 64
/// indices plus one step per member. The set keeps no running length:
/// [`Self::len`] counts the bits.
///
/// An index at or above the capacity rounded up to a multiple of 64
/// panics; one below that but at or above the capacity is a caller bug
/// the set does not catch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
}

// The per-index operations and the walk are `#[inline]`: the chip loop
// and the torus call them per unit per cycle, from other crates.
impl BitSet {
    /// The empty set for indices `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        BitSet { words: vec![0; capacity.div_ceil(64)] }
    }

    /// The set holding every index of `0..capacity`.
    pub fn full(capacity: usize) -> Self {
        let mut set = BitSet::new(capacity);
        for (index, word) in set.words.iter_mut().enumerate() {
            let bits = capacity - index * 64;
            *word = if bits >= 64 { u64::MAX } else { (1 << bits) - 1 };
        }
        set
    }

    /// Adds `index` (a no-op when it is a member).
    #[inline]
    pub fn insert(&mut self, index: usize) {
        self.words[index / 64] |= 1 << (index % 64);
    }

    /// Removes `index` (a no-op when it is not a member).
    #[inline]
    pub fn remove(&mut self, index: usize) {
        self.words[index / 64] &= !(1 << (index % 64));
    }

    /// Whether `index` is a member.
    #[inline]
    pub fn contains(&self, index: usize) -> bool {
        self.words[index / 64] >> (index % 64) & 1 == 1
    }

    /// The number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.iter().map(|word| word.count_ones() as usize).sum()
    }

    /// Whether the set has no member.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&word| word == 0)
    }

    /// The members, ascending.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let (&word, rest) = self.words.split_first().unwrap_or((&0, &[]));
        Members { rest, base: 0, word }
    }

    /// Calls `keep` with each member in ascending order and removes the
    /// ones it returns `false` for. The walk reads each word once, before
    /// its members are visited, and clears a bit without a branch.
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        for (index, word) in self.words.iter_mut().enumerate() {
            let (mut pending, mut kept) = (*word, *word);
            while pending != 0 {
                let bit = pending.trailing_zeros();
                pending &= pending - 1;
                kept &= !(u64::from(!keep(index * 64 + bit as usize)) << bit);
            }
            *word = kept;
        }
    }
}

/// The members of a [`BitSet`], ascending: the bits left in the current
/// word, then the words after it.
#[derive(Debug)]
struct Members<'a> {
    rest: &'a [u64],
    /// The index of the current word's bit 0.
    base: usize,
    word: u64,
}

impl Iterator for Members<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            let (&word, rest) = self.rest.split_first()?;
            (self.rest, self.base, self.word) = (rest, self.base + 64, word);
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    const CAPACITIES: [usize; 6] = [0, 1, 63, 64, 65, 130];

    /// `(op, index seed, retain salt)`: op 0 inserts, 1 removes, 2 retains.
    fn arb_ops() -> impl Strategy<Value = Vec<(u8, usize, usize)>> {
        proptest::collection::vec((0u8..3, 0usize..1 << 20, 0usize..5), 0..200)
    }

    /// Keeps a member unless `(member + salt) % 5 == 0`: a retain drops
    /// about one member in five, a different fifth per salt.
    fn keeps(member: usize, salt: usize) -> bool {
        !(member + salt).is_multiple_of(5)
    }

    fn agrees(set: &BitSet, model: &BTreeSet<usize>, capacity: usize) -> Result<(), String> {
        prop_assert_eq!(set.len(), model.len());
        prop_assert_eq!(set.is_empty(), model.is_empty());
        prop_assert!(set.iter().eq(model.iter().copied()), "members {:?}", model);
        for index in 0..capacity {
            prop_assert!(set.contains(index) == model.contains(&index), "index {}", index);
        }
        Ok(())
    }

    proptest! {
        /// Any sequence of inserts, removes and retains, from an empty or
        /// a full start, leaves the set equal to a `BTreeSet` model, and a
        /// retain visits exactly the model's members in ascending order.
        #[test]
        fn matches_a_btreeset_model(
            which in 0usize..CAPACITIES.len(),
            full in 0u8..2,
            ops in arb_ops(),
        ) {
            let capacity = CAPACITIES[which];
            let (mut set, mut model) = if full == 1 {
                (BitSet::full(capacity), (0..capacity).collect())
            } else {
                (BitSet::new(capacity), BTreeSet::new())
            };
            agrees(&set, &model, capacity)?;
            for (op, seed, salt) in ops {
                match op {
                    0 if capacity > 0 => {
                        set.insert(seed % capacity);
                        model.insert(seed % capacity);
                    }
                    1 if capacity > 0 => {
                        set.remove(seed % capacity);
                        model.remove(&(seed % capacity));
                    }
                    _ => {
                        let mut visited = Vec::new();
                        set.retain(|member| {
                            visited.push(member);
                            keeps(member, salt)
                        });
                        prop_assert!(visited.iter().eq(model.iter()), "retain visited {:?}", visited);
                        model.retain(|&member| keeps(member, salt));
                    }
                }
                agrees(&set, &model, capacity)?;
            }
        }
    }
}
