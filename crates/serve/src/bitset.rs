//! A fixed-capacity set of small indices, one bit each: the fleet's idle
//! shard slots and the batching backlog's non-empty classes. Membership
//! changes in O(1) and a walk visits the members in ascending order at a
//! cost of one word per 64 indices plus one step per member.

/// A set of indices below a fixed capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set for indices `0..capacity`.
    pub(crate) fn new(capacity: usize) -> Self {
        BitSet { words: vec![0; capacity.div_ceil(64)] }
    }

    pub(crate) fn insert(&mut self, index: usize) {
        self.words[index / 64] |= 1 << (index % 64);
    }

    pub(crate) fn remove(&mut self, index: usize) {
        self.words[index / 64] &= !(1 << (index % 64));
    }

    pub(crate) fn contains(&self, index: usize) -> bool {
        self.words[index / 64] >> (index % 64) & 1 == 1
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|&word| word == 0)
    }

    /// The members, ascending.
    pub(crate) fn iter(&self) -> Members<'_> {
        let (&word, rest) = self.words.split_first().unwrap_or((&0, &[]));
        Members { rest, base: 0, word }
    }
}

/// The members of a [`BitSet`], ascending: the bits left in the current
/// word, then the words after it.
pub(crate) struct Members<'a> {
    rest: &'a [u64],
    /// The index of the current word's bit 0.
    base: usize,
    word: u64,
}

impl Iterator for Members<'_> {
    type Item = usize;

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

    #[test]
    fn members_walk_ascending_across_words() {
        let mut set = BitSet::new(130);
        assert!(set.is_empty());
        for index in [129, 0, 64, 63, 5] {
            set.insert(index);
        }
        set.remove(5);
        set.remove(6);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![0, 63, 64, 129]);
        assert!(set.contains(63) && !set.contains(5) && !set.is_empty());
    }
}
