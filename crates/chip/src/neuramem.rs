//! NeuraMem: the on-chip hash-based accumulation unit (Figures 8 and 10).
//!
//! Each NeuraMem owns a *HashPad* — an array of hash-lines, each holding a
//! TAG, an accumulating DATA value and a rolling-eviction COUNTER — serviced
//! by a set of hash engines.  `HACC` instructions arriving from the NoC are
//! hashed onto a line; matching tags accumulate, new tags allocate a line,
//! and a line whose counter reaches zero is evicted and written back to HBM
//! (rolling eviction).  Under the barrier-eviction baseline, completed lines
//! stay resident until an explicit row barrier, inflating occupancy and
//! stalling inserts when the pad fills up.
//!
//! Rolling eviction keeps a pad nearly empty (a Tile-64 NeuraMem holds at
//! most a few dozen of its 2 048 lines on the ledger's workloads), and the
//! model stores what the pad holds, not the pad: one occupancy bit per
//! hash-line in a [`neura_sim::BitSet`], which a new tag's probe walks
//! from its home slot `tag % hashlines`, and the resident lines keyed by
//! tag, each with the slot it sits in. Slots, collisions, stalls and the
//! slot-order sweep of a final flush are exactly a dense array's; a
//! lock-step test holds the two together.

use crate::config::{EvictionPolicy, NeuraMemConfig};
use crate::inthash::IntMap;
use crate::isa::HaccInstruction;
use neura_sim::{BitSet, Cycle, Histogram};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One completed output element evicted from the HashPad.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvictedLine {
    /// Output tag.
    pub tag: u64,
    /// Fully accumulated value.
    pub value: f64,
    /// Cycle at which the eviction happened.
    pub evicted_at: u64,
}

/// Statistics exported by a NeuraMem unit.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NeuraMemStats {
    /// HACC instructions fully processed (accumulated).
    pub haccs_processed: u64,
    /// Hash-lines evicted (== output elements produced).
    pub evictions: u64,
    /// Cycles in which at least one HACC could not proceed because the
    /// HashPad was full.
    pub pad_full_stalls: u64,
    /// Hash collisions resolved by probing.
    pub collisions: u64,
    /// Peak number of occupied hash-lines.
    pub peak_occupancy: usize,
}

/// A resident hash-line, keyed by its tag.
#[derive(Debug, Clone, Copy)]
struct HashLine {
    /// Where in the pad it sits.
    slot: usize,
    data: f64,
    counter: u32,
    /// The line sits off its tag's home slot (`tag % hashlines`), placed
    /// there by probing: every later hit on it counts as a collision.
    displaced: bool,
}

/// A NeuraMem accumulation unit.
#[derive(Debug)]
pub struct NeuraMem {
    id: usize,
    config: NeuraMemConfig,
    eviction: EvictionPolicy,
    /// HashPad occupancy, a bit per hash-line: what probing walks.
    taken: BitSet,
    /// The resident lines by tag. Hardware finds a line with the comparator
    /// array; the map is the model's way to the same line.
    lines: IntMap<HashLine>,
    /// Incoming HACC instructions awaiting a hash engine.
    input: VecDeque<HaccInstruction>,
    /// Completed lines awaiting write-back pickup by the accelerator.
    evicted: VecDeque<EvictedLine>,
    /// Tags of the lines whose counter reached zero under barrier
    /// eviction, waiting for the next barrier.
    barrier_pending: Vec<u64>,
    stats: NeuraMemStats,
    /// Histogram of HACC completion latency (generation → accumulation).
    hacc_latency: Histogram,
}

impl NeuraMem {
    /// Creates a NeuraMem with the given per-unit configuration.
    pub fn new(id: usize, config: NeuraMemConfig, eviction: EvictionPolicy) -> Self {
        NeuraMem {
            id,
            config,
            eviction,
            taken: BitSet::new(config.hashlines),
            lines: IntMap::default(),
            input: VecDeque::new(),
            evicted: VecDeque::new(),
            barrier_pending: Vec::new(),
            stats: NeuraMemStats::default(),
            hacc_latency: Histogram::new(50, 20),
        }
    }

    /// Unit identifier (index within the chip).
    pub fn id(&self) -> usize {
        self.id
    }

    /// True when the instruction buffer can accept another HACC.
    pub(crate) fn can_accept(&self) -> bool {
        self.input.len() < self.config.instruction_buffer
    }

    /// Enqueues a HACC instruction.  Returns `false`, taking nothing, when
    /// the buffer is full. The accelerator then keeps the refused `HACC`
    /// outside the NoC, in a queue of this unit's that it offers again,
    /// oldest first, before any later delivery.
    pub fn accept(&mut self, hacc: HaccInstruction) -> bool {
        if !self.can_accept() {
            return false;
        }
        self.input.push_back(hacc);
        true
    }

    /// Number of currently occupied hash-lines.
    pub(crate) fn occupancy(&self) -> usize {
        self.lines.len()
    }

    /// Unit statistics.
    pub fn stats(&self) -> &NeuraMemStats {
        &self.stats
    }

    /// Histogram of HACC completion latencies (Figure 15).
    pub(crate) fn hacc_latency_histogram(&self) -> &Histogram {
        &self.hacc_latency
    }

    /// Removes all evicted (completed) output elements produced so far.
    pub fn drain_evicted(&mut self) -> Vec<EvictedLine> {
        self.evicted.drain(..).collect()
    }

    /// Removes the oldest evicted output element, if any — the
    /// non-allocating form of [`Self::drain_evicted`] the run loop uses.
    pub(crate) fn pop_evicted(&mut self) -> Option<EvictedLine> {
        self.evicted.pop_front()
    }

    /// True when no work remains anywhere in the unit.
    pub(crate) fn is_idle(&self) -> bool {
        self.input.is_empty() && self.evicted.is_empty()
    }

    /// Row barrier: under barrier eviction, flush every completed line.
    pub(crate) fn barrier(&mut self, now: Cycle) {
        if self.eviction == EvictionPolicy::Barrier {
            let pending = std::mem::take(&mut self.barrier_pending);
            for tag in pending {
                self.evict(tag, now);
            }
        }
    }

    /// Final flush at the end of the program: evicts every remaining line
    /// regardless of counter state (used to drain barrier-mode residue and to
    /// guard against malformed counters), sweeping the pad in slot order.
    pub fn flush(&mut self, now: Cycle) {
        let mut resident: Vec<(usize, u64)> =
            self.lines.iter().map(|(&tag, line)| (line.slot, tag)).collect();
        resident.sort_unstable();
        for (_, tag) in resident {
            self.evict(tag, now);
        }
        self.barrier_pending.clear();
    }

    /// Advances the unit one cycle, processing up to
    /// `hash_engines × comparators` HACC instructions.
    pub fn tick(&mut self, now: Cycle) {
        let throughput = self.config.hash_engines * self.config.comparators.max(1);
        let mut processed = 0usize;
        while processed < throughput {
            let Some(hacc) = self.input.front().copied() else { break };
            if self.apply(hacc, now) {
                self.input.pop_front();
                processed += 1;
            } else {
                // HashPad full: head-of-line stall until an eviction frees a line.
                self.stats.pad_full_stalls += 1;
                break;
            }
        }
    }

    /// Applies one HACC.  Returns `false` when no hash-line is available.
    fn apply(&mut self, hacc: HaccInstruction, now: Cycle) -> bool {
        // Hit on a resident tag: accumulate and decrement the counter.
        if let Some(line) = self.lines.get_mut(&hacc.tag) {
            line.data += hacc.data;
            line.counter = line.counter.saturating_sub(1);
            let done = line.counter == 0;
            if line.displaced {
                self.stats.collisions += 1;
            }
            self.finish_hacc(&hacc, now);
            if done {
                self.complete(hacc.tag, now);
            }
            return true;
        }
        // Miss: allocate a free line by probing from the tag's home slot.
        let len = self.config.hashlines;
        if self.lines.len() >= len {
            return false; // pad completely full of other tags
        }
        let home = (hacc.tag as usize) % len;
        let mut slot = home;
        while self.taken.contains(slot) {
            slot = if slot + 1 == len { 0 } else { slot + 1 };
        }
        self.taken.insert(slot);
        let displaced = slot != home;
        if displaced {
            self.stats.collisions += 1;
        }
        let counter = hacc.counter.saturating_sub(1);
        self.lines.insert(hacc.tag, HashLine { slot, data: hacc.data, counter, displaced });
        self.stats.peak_occupancy = self.stats.peak_occupancy.max(self.lines.len());
        self.finish_hacc(&hacc, now);
        if counter == 0 {
            self.complete(hacc.tag, now);
        }
        true
    }

    fn finish_hacc(&mut self, hacc: &HaccInstruction, now: Cycle) {
        self.stats.haccs_processed += 1;
        self.hacc_latency.record(now.as_u64().saturating_sub(hacc.generated_at));
    }

    /// Marks a line's reduction as complete: rolling eviction writes it back
    /// immediately, barrier eviction defers to the next barrier.
    fn complete(&mut self, tag: u64, now: Cycle) {
        match self.eviction {
            EvictionPolicy::Rolling => self.evict(tag, now),
            EvictionPolicy::Barrier => self.barrier_pending.push(tag),
        }
    }

    fn evict(&mut self, tag: u64, now: Cycle) {
        if let Some(line) = self.lines.remove(&tag) {
            self.taken.remove(line.slot);
            self.stats.evictions += 1;
            self.evicted.push_back(EvictedLine { tag, value: line.data, evicted_at: now.as_u64() });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(hashlines: usize) -> NeuraMemConfig {
        NeuraMemConfig {
            comparators: 4,
            hash_engines: 4,
            hashlines,
            accumulators: 256,
            ports: 4,
            instruction_buffer: 32,
        }
    }

    fn hacc(tag: u64, data: f64, counter: u32) -> HaccInstruction {
        HaccInstruction::new(tag, data, counter)
    }

    #[test]
    fn single_contribution_evicts_immediately() {
        let mut mem = NeuraMem::new(0, small_config(64), EvictionPolicy::Rolling);
        assert!(mem.accept(hacc(7, 2.5, 1)));
        mem.tick(Cycle(0));
        let out = mem.drain_evicted();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].tag, 7);
        assert_eq!(out[0].value, 2.5);
        assert_eq!(mem.occupancy(), 0);
    }

    #[test]
    fn partial_products_accumulate_until_counter_zero() {
        let mut mem = NeuraMem::new(0, small_config(64), EvictionPolicy::Rolling);
        for v in [1.0, 2.0, 3.0] {
            assert!(mem.accept(hacc(42, v, 3)));
        }
        mem.tick(Cycle(0));
        let out = mem.drain_evicted();
        assert_eq!(out.len(), 1);
        assert!((out[0].value - 6.0).abs() < 1e-12);
        assert_eq!(mem.stats().evictions, 1);
        assert_eq!(mem.stats().haccs_processed, 3);
    }

    #[test]
    fn rolling_eviction_keeps_occupancy_low() {
        let mut mem = NeuraMem::new(0, small_config(1024), EvictionPolicy::Rolling);
        // 100 distinct single-contribution tags: every one evicts right away.
        for t in 0..100u64 {
            assert!(mem.accept(hacc(t, 1.0, 1)));
            mem.tick(Cycle(t));
        }
        assert_eq!(mem.stats().evictions, 100);
        assert!(mem.stats().peak_occupancy <= 1);
    }

    #[test]
    fn barrier_eviction_retains_lines_until_barrier() {
        let mut mem = NeuraMem::new(0, small_config(1024), EvictionPolicy::Barrier);
        // Feed and process incrementally so the instruction buffer never overflows.
        for t in 0..50u64 {
            assert!(mem.accept(hacc(t, 1.0, 1)));
            mem.tick(Cycle(t));
        }
        for c in 50..60u64 {
            mem.tick(Cycle(c));
        }
        assert_eq!(mem.drain_evicted().len(), 0, "nothing leaves before the barrier");
        assert_eq!(mem.occupancy(), 50);
        mem.barrier(Cycle(60));
        assert_eq!(mem.drain_evicted().len(), 50);
        assert_eq!(mem.occupancy(), 0);
    }

    #[test]
    fn barrier_policy_has_higher_peak_occupancy_than_rolling() {
        let run = |policy| {
            let mut mem = NeuraMem::new(0, small_config(4096), policy);
            for t in 0..200u64 {
                assert!(mem.accept(hacc(t, 1.0, 1)));
                mem.tick(Cycle(t));
            }
            mem.barrier(Cycle(300));
            mem.stats().peak_occupancy
        };
        assert!(run(EvictionPolicy::Barrier) > run(EvictionPolicy::Rolling));
    }

    #[test]
    fn pad_exhaustion_stalls_and_recovers_after_flush() {
        let mut mem = NeuraMem::new(0, small_config(4), EvictionPolicy::Rolling);
        // Five distinct never-completing tags (counter 2, only one arrival each).
        for t in 0..5u64 {
            assert!(mem.accept(hacc(t, 1.0, 2)));
        }
        for c in 0..10u64 {
            mem.tick(Cycle(c));
        }
        assert!(mem.stats().pad_full_stalls > 0);
        assert_eq!(mem.occupancy(), 4);
        // Flush clears the pad and the stalled instruction can then proceed.
        mem.flush(Cycle(20));
        mem.tick(Cycle(21));
        assert_eq!(mem.input.len(), 0);
    }

    #[test]
    fn colliding_tags_resolve_by_probing() {
        let mut mem = NeuraMem::new(0, small_config(8), EvictionPolicy::Rolling);
        // Tags 1 and 9 collide in an 8-line pad (same home slot).
        assert!(mem.accept(hacc(1, 1.0, 2)));
        assert!(mem.accept(hacc(9, 5.0, 2)));
        assert!(mem.accept(hacc(1, 1.0, 2)));
        assert!(mem.accept(hacc(9, 5.0, 2)));
        for c in 0..4u64 {
            mem.tick(Cycle(c));
        }
        let mut out = mem.drain_evicted();
        out.sort_by_key(|e| e.tag);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].tag, 1);
        assert!((out[0].value - 2.0).abs() < 1e-12);
        assert_eq!(out[1].tag, 9);
        assert!((out[1].value - 10.0).abs() < 1e-12);
        assert!(mem.stats().collisions > 0);
    }

    #[test]
    fn instruction_buffer_applies_backpressure() {
        let cfg = NeuraMemConfig { instruction_buffer: 2, ..small_config(16) };
        let mut mem = NeuraMem::new(0, cfg, EvictionPolicy::Rolling);
        assert!(mem.accept(hacc(1, 1.0, 5)));
        assert!(mem.accept(hacc(2, 1.0, 5)));
        assert!(!mem.accept(hacc(3, 1.0, 5)));
        assert_eq!(mem.input.len(), 2, "the refused HACC is not buffered");
    }

    #[test]
    fn throughput_limited_by_hash_engines() {
        let cfg = NeuraMemConfig { hash_engines: 1, comparators: 1, ..small_config(64) };
        let mut mem = NeuraMem::new(0, cfg, EvictionPolicy::Rolling);
        for t in 0..10u64 {
            assert!(mem.accept(hacc(t, 1.0, 1)));
        }
        mem.tick(Cycle(0));
        // Only one instruction can retire per cycle with a single engine.
        assert_eq!(mem.stats().haccs_processed, 1);
        assert_eq!(mem.input.len(), 9);
    }

    #[test]
    fn latency_histogram_records_generation_to_completion() {
        let mut mem = NeuraMem::new(0, small_config(16), EvictionPolicy::Rolling);
        let mut h = hacc(1, 1.0, 1);
        h.generated_at = 10;
        assert!(mem.accept(h));
        mem.tick(Cycle(150));
        assert_eq!(mem.hacc_latency_histogram().count(), 1);
        assert!(mem.hacc_latency_histogram().mean() >= 140.0);
    }

    /// A unit with an empty instruction buffer is not necessarily done:
    /// under barrier eviction completed lines wait for the next barrier, and
    /// once it comes the unit has output to hand over even though nothing
    /// arrived. A run loop that skipped empty-input units would lose them.
    #[test]
    fn empty_input_with_barrier_pending_lines_still_has_work() {
        let mut mem = NeuraMem::new(0, small_config(64), EvictionPolicy::Barrier);
        for t in 0..5u64 {
            assert!(mem.accept(hacc(t, 1.0, 1)));
        }
        mem.tick(Cycle(0));
        assert_eq!(mem.input.len(), 0);
        assert!(mem.is_idle(), "completed lines are resident, nothing is owed yet");
        assert_eq!(mem.occupancy(), 5);

        // Idle ticks neither evict nor lose the pending lines.
        for c in 1..4u64 {
            mem.tick(Cycle(c));
        }
        assert!(mem.pop_evicted().is_none());

        mem.barrier(Cycle(4));
        assert!(!mem.is_idle(), "evicted lines await pickup although the input is empty");
        let mut tags = Vec::new();
        while let Some(line) = mem.pop_evicted() {
            assert_eq!(line.evicted_at, 4);
            tags.push(line.tag);
        }
        assert_eq!(tags, vec![0, 1, 2, 3, 4]);
        assert!(mem.is_idle() && mem.occupancy() == 0);
    }

    /// The dense-pad NeuraMem the sparse one replaced, verbatim but for its
    /// name and the accessors the lock-step test needs no copy of: every
    /// hash-line stored, `None` when free, and a tag → slot index beside it.
    #[derive(Debug)]
    struct DenseMem {
        config: NeuraMemConfig,
        eviction: EvictionPolicy,
        pad: Vec<Option<DenseLine>>,
        index: IntMap<usize>,
        occupied: usize,
        input: VecDeque<HaccInstruction>,
        evicted: VecDeque<EvictedLine>,
        barrier_pending: Vec<usize>,
        stats: NeuraMemStats,
        hacc_latency: Histogram,
    }

    #[derive(Debug, Clone, Copy)]
    struct DenseLine {
        tag: u64,
        data: f64,
        counter: u32,
        displaced: bool,
    }

    impl DenseMem {
        fn new(config: NeuraMemConfig, eviction: EvictionPolicy) -> Self {
            DenseMem {
                config,
                eviction,
                pad: vec![None; config.hashlines],
                index: IntMap::default(),
                occupied: 0,
                input: VecDeque::new(),
                evicted: VecDeque::new(),
                barrier_pending: Vec::new(),
                stats: NeuraMemStats::default(),
                hacc_latency: Histogram::new(50, 20),
            }
        }

        fn accept(&mut self, hacc: HaccInstruction) -> bool {
            if self.input.len() >= self.config.instruction_buffer {
                return false;
            }
            self.input.push_back(hacc);
            true
        }

        fn barrier(&mut self, now: Cycle) {
            if self.eviction == EvictionPolicy::Barrier {
                let pending = std::mem::take(&mut self.barrier_pending);
                for slot in pending {
                    self.evict_slot(slot, now);
                }
            }
        }

        fn flush(&mut self, now: Cycle) {
            if self.occupied == 0 {
                return;
            }
            for slot in 0..self.pad.len() {
                if self.pad[slot].is_some() {
                    self.evict_slot(slot, now);
                }
            }
            self.barrier_pending.clear();
        }

        fn tick(&mut self, now: Cycle) {
            let throughput = self.config.hash_engines * self.config.comparators.max(1);
            let mut processed = 0usize;
            while processed < throughput {
                let Some(hacc) = self.input.front().copied() else { break };
                if self.apply(hacc, now) {
                    self.input.pop_front();
                    processed += 1;
                } else {
                    self.stats.pad_full_stalls += 1;
                    break;
                }
            }
        }

        fn apply(&mut self, hacc: HaccInstruction, now: Cycle) -> bool {
            if let Some(&slot) = self.index.get(&hacc.tag) {
                let line = self.pad[slot].as_mut().expect("indexed slot is occupied");
                line.data += hacc.data;
                line.counter = line.counter.saturating_sub(1);
                let done = line.counter == 0;
                if line.displaced {
                    self.stats.collisions += 1;
                }
                self.finish_hacc(&hacc, now);
                if done {
                    self.complete_slot(slot, now);
                }
                return true;
            }
            if self.occupied >= self.pad.len() {
                return false;
            }
            let len = self.pad.len();
            let home = (hacc.tag as usize) % len;
            let mut slot = home;
            let mut probes = 0usize;
            while self.pad[slot].is_some() {
                probes += 1;
                slot = (slot + 1) % len;
                debug_assert!(probes <= len, "occupancy check guarantees a free slot");
            }
            if probes > 0 {
                self.stats.collisions += 1;
            }
            let counter = hacc.counter.saturating_sub(1);
            self.pad[slot] =
                Some(DenseLine { tag: hacc.tag, data: hacc.data, counter, displaced: probes > 0 });
            self.index.insert(hacc.tag, slot);
            self.occupied += 1;
            self.stats.peak_occupancy = self.stats.peak_occupancy.max(self.occupied);
            self.finish_hacc(&hacc, now);
            if counter == 0 {
                self.complete_slot(slot, now);
            }
            true
        }

        fn finish_hacc(&mut self, hacc: &HaccInstruction, now: Cycle) {
            self.stats.haccs_processed += 1;
            self.hacc_latency.record(now.as_u64().saturating_sub(hacc.generated_at));
        }

        fn complete_slot(&mut self, slot: usize, now: Cycle) {
            match self.eviction {
                EvictionPolicy::Rolling => self.evict_slot(slot, now),
                EvictionPolicy::Barrier => self.barrier_pending.push(slot),
            }
        }

        fn evict_slot(&mut self, slot: usize, now: Cycle) {
            if let Some(line) = self.pad[slot].take() {
                self.index.remove(&line.tag);
                self.occupied -= 1;
                self.stats.evictions += 1;
                self.evicted.push_back(EvictedLine {
                    tag: line.tag,
                    value: line.data,
                    evicted_at: now.as_u64(),
                });
            }
        }
    }

    /// An evicted line as the lock-step test compares it: the value by its
    /// bits, so a reordered sum cannot pass for an equal one.
    fn exact(lines: impl IntoIterator<Item = EvictedLine>) -> Vec<(u64, u64, u64)> {
        lines.into_iter().map(|line| (line.tag, line.value.to_bits(), line.evicted_at)).collect()
    }

    /// One cycle of a lock-step run: the `HACC`s offered as `(tag, value,
    /// counter, age)`, then a roll that is a barrier at 0 and a flush at 1.
    type Step = (Vec<(u64, u8, u32, u64)>, u8);

    fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
        let hacc = (0u64..40, 0u8..8, 1u32..4, 0u64..8);
        proptest::collection::vec((proptest::collection::vec(hacc, 0..6), 0u8..12), 1..150)
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Driven through the same `HACC` stream, barriers and flushes, the
        /// sparse pad evicts what the dense one evicts — same order, tag,
        /// value bits and cycle — and agrees on `stats()`, `occupancy()` and
        /// the latency histogram after every tick. Forty tags on 8 or 16
        /// lines collide, wrap around the pad's end and fill it up to
        /// `pad_full_stalls`.
        #[test]
        fn the_sparse_pad_keeps_step_with_the_dense_one(
            hashlines in 0usize..2,
            policy in 0usize..2,
            engines in 1usize..=2,
            steps in arb_steps(),
        ) {
            let config = NeuraMemConfig {
                hash_engines: engines,
                comparators: 1,
                instruction_buffer: 8,
                ..small_config(8 << hashlines)
            };
            let eviction = [EvictionPolicy::Rolling, EvictionPolicy::Barrier][policy];
            let (mut sparse, mut dense) = (NeuraMem::new(0, config, eviction), DenseMem::new(config, eviction));
            for (cycle, (haccs, roll)) in steps.into_iter().enumerate() {
                let now = Cycle(cycle as u64);
                for (tag, value, counter, age) in haccs {
                    let mut h = hacc(tag, f64::from(value) * 0.37 - 1.1, counter);
                    h.generated_at = (cycle as u64).saturating_sub(age * 29);
                    prop_assert_eq!(sparse.accept(h), dense.accept(h));
                }
                match roll {
                    0 => (sparse.barrier(now), dense.barrier(now)),
                    1 => (sparse.flush(now), dense.flush(now)),
                    _ => ((), ()),
                };
                sparse.tick(now);
                dense.tick(now);
                prop_assert_eq!(exact(sparse.drain_evicted()), exact(dense.evicted.drain(..)));
                prop_assert_eq!(sparse.stats(), &dense.stats);
                prop_assert_eq!(sparse.occupancy(), dense.occupied);
                prop_assert_eq!(sparse.hacc_latency_histogram(), &dense.hacc_latency);
            }
            let end = Cycle(1 << 20);
            sparse.flush(end);
            dense.flush(end);
            prop_assert_eq!(exact(sparse.drain_evicted()), exact(dense.evicted.drain(..)));
        }
    }
}
