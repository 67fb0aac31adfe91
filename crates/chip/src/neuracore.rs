//! NeuraCore: the multiplication engine (Figure 6).
//!
//! A NeuraCore is a simple in-order core with several independent pipelines.
//! Each pipeline walks the Figure-6 sequence for one `MMH` instruction:
//! decode, register allocation, operand fetch from HBM (through the tile's
//! memory controller), partial-product computation, and finally dispatch of
//! one `HACC` instruction per partial product toward the NeuraMems.
//!
//! The core interacts with the rest of the chip through explicit hand-offs:
//! [`NeuraCore::tick`] writes the memory requests it wants to issue and the
//! `HACC` instructions it produced this cycle into a caller-owned
//! [`CoreTickOutput`]; the accelerator forwards the
//! former to the memory controller and the latter onto the NoC, and calls
//! [`NeuraCore::memory_response`] when data returns.
//!
//! A core whose tick found nothing able to move is *settled*: until an
//! instruction or a completing operand arrives every tick would repeat that
//! one. [`NeuraCore::tick`] returns whether it settled the core, and the
//! core keeps no flag of it: its sleep is owned by the accelerator, whose
//! set of awake cores leaves a settled core untouched until
//! [`NeuraCore::accept`] or a completing [`NeuraCore::memory_response`]
//! wakes it. The next tick (or a final [`NeuraCore::catch_up`]) accounts
//! the skipped cycles in bulk.

use crate::config::NeuraCoreConfig;
use crate::isa::{HaccInstruction, MmhInstruction};
use neura_mem::MemoryRequest;
use neura_sim::{Cycle, Histogram};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Statistics exported by a NeuraCore.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub(crate) struct NeuraCoreStats {
    /// MMH instructions fully executed.
    pub mmh_completed: u64,
    /// HACC instructions generated.
    pub haccs_generated: u64,
    /// Cycles in which at least one pipeline was waiting on memory.
    pub stall_cycles: u64,
    /// Cycles in which at least one pipeline did useful work.
    pub busy_cycles: u64,
    /// Cycles in which the whole core was idle.
    pub idle_cycles: u64,
}

/// A memory request produced by a pipeline, tagged with its origin so the
/// accelerator can route the response back.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CoreMemoryRequest {
    /// Index of the pipeline that issued the request.
    pub pipeline: usize,
    /// The request itself.
    pub request: MemoryRequest,
}

/// How a core spent one tick — exactly one of the three, with the same
/// precedence the cycle counters use (`busy` wins over `stalled` wins
/// over `idle`). The profiler reads this off [`CoreTickOutput`] so stall
/// attribution never needs to diff the stats block mid-run.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TickOutcome {
    /// At least one pipeline decoded or computed this cycle.
    Busy,
    /// Every active pipeline was waiting on outstanding memory responses.
    Stalled,
    /// No pipeline had work.
    #[default]
    Idle,
}

/// Output of one [`NeuraCore::tick`] call. The caller owns it and hands
/// the same one back every cycle, so its buffers are allocated once.
#[derive(Debug, Default)]
pub(crate) struct CoreTickOutput {
    /// Memory read requests to forward to the tile's memory controller.
    pub memory_requests: Vec<CoreMemoryRequest>,
    /// HACC instructions produced this cycle (already stamped with `generated_at`).
    pub haccs: Vec<HaccInstruction>,
    /// How the core spent the tick (mirrors the busy/stall/idle counters).
    pub outcome: TickOutcome,
    /// MMH instructions retired this tick (pipelines that finished Compute).
    pub mmh_retired: u32,
}

/// Where one pipeline is in the Figure-6 sequence. The instruction is the
/// program's own, on loan from the dispatcher. `Compute::next` is the
/// `(a, b)` operand pair of partial product number `produced`
/// (`produced == a * b_cols.len() + b`), stepped with it so no `HACC`
/// costs a division.
#[derive(Debug, Clone, Copy)]
enum PipelineState<'p> {
    Idle,
    Decode { instr: &'p MmhInstruction, remaining: u64, started: u64 },
    WaitMem { instr: &'p MmhInstruction, outstanding: usize, started: u64 },
    Compute { instr: &'p MmhInstruction, produced: usize, next: (usize, usize), started: u64 },
}

/// The NeuraCore multiplication engine, executing instructions borrowed
/// from a compiled program for `'p`.
#[derive(Debug)]
pub(crate) struct NeuraCore<'p> {
    tile: usize,
    config: NeuraCoreConfig,
    instx: VecDeque<&'p MmhInstruction>,
    pipelines: Vec<PipelineState<'p>>,
    /// Generated HACCs awaiting injection into the NoC (bounded by ports × 8).
    outbox: VecDeque<HaccInstruction>,
    /// Number of output columns of the current program (for tag computation).
    out_cols: u64,
    stats: NeuraCoreStats,
    cpi_histogram: Histogram,
    next_pipeline: usize,
    /// Pipelines not in [`PipelineState::Idle`], kept in step with every
    /// state transition so `load`/`is_idle`/the idle tick never scan.
    busy_pipelines: usize,
    /// The first cycle not yet accounted in `stats`: one past the last
    /// tick, or where [`Self::catch_up`] stopped.
    accounted_until: u64,
}

impl<'p> NeuraCore<'p> {
    /// Creates a NeuraCore belonging to tile `tile` for a program whose
    /// output matrix is `out_cols` wide (at least one; used for tag
    /// computation).
    pub(crate) fn new(tile: usize, config: NeuraCoreConfig, out_cols: u64) -> Self {
        NeuraCore {
            tile,
            config,
            instx: VecDeque::new(),
            pipelines: vec![PipelineState::Idle; config.pipelines],
            outbox: VecDeque::new(),
            out_cols: out_cols.max(1),
            stats: NeuraCoreStats::default(),
            cpi_histogram: Histogram::new(25, 20),
            next_pipeline: 0,
            busy_pipelines: 0,
            accounted_until: 0,
        }
    }

    /// The tile this core belongs to (selects the memory channel).
    pub(crate) fn tile(&self) -> usize {
        self.tile
    }

    /// True when the instruction buffer can accept another MMH instruction.
    pub(crate) fn can_accept(&self) -> bool {
        self.instx.len() < self.config.instruction_buffer
    }

    /// Number of instructions waiting plus executing (dispatcher load metric).
    pub(crate) fn load(&self) -> usize {
        self.instx.len() + self.busy_pipelines
    }

    /// Accepts an MMH instruction from the dispatcher.
    ///
    /// Returns `false` when the instruction buffer is full.
    pub(crate) fn accept(&mut self, instr: &'p MmhInstruction) -> bool {
        if !self.can_accept() {
            return false;
        }
        self.instx.push_back(instr);
        true
    }

    /// Notifies the core that one of pipeline `pipeline`'s memory requests
    /// completed. Returns `true` when that was the pipeline's last
    /// outstanding operand, which wakes a settled core; a pipeline still
    /// short of operands keeps stalling.
    pub(crate) fn memory_response(&mut self, pipeline: usize) -> bool {
        if let Some(PipelineState::WaitMem { outstanding, .. }) = self.pipelines.get_mut(pipeline) {
            *outstanding = outstanding.saturating_sub(1);
            return *outstanding == 0;
        }
        false
    }

    /// Accounts the ticks a settled core was not given, up to but excluding
    /// `cycle`. Each would have rotated `next_pipeline` and counted one
    /// cycle — stalled if a pipeline is occupied (on a settled core they all
    /// wait on operands), idle otherwise — and touched nothing else.
    pub(crate) fn catch_up(&mut self, cycle: u64) {
        let missed = cycle.saturating_sub(self.accounted_until);
        if missed == 0 {
            return;
        }
        if self.busy_pipelines > 0 {
            self.stats.stall_cycles += missed;
        } else {
            self.stats.idle_cycles += missed;
        }
        let pipelines = self.pipelines.len().max(1);
        self.next_pipeline =
            (self.next_pipeline + (missed % pipelines as u64) as usize) % pipelines;
        self.accounted_until = cycle;
    }

    /// Core statistics.
    pub(crate) fn stats(&self) -> &NeuraCoreStats {
        &self.stats
    }

    /// Per-instruction cycle-count histogram (Figure 14).
    pub(crate) fn cpi_histogram(&self) -> &Histogram {
        &self.cpi_histogram
    }

    /// True when no instruction is buffered, executing, or waiting for output.
    pub(crate) fn is_idle(&self) -> bool {
        self.instx.is_empty() && self.outbox.is_empty() && self.busy_pipelines == 0
    }

    /// Advances the core one cycle, overwriting `output` with what the
    /// cycle produced, and returns whether it settled the core (see the
    /// module docs): no pipeline moved and the outbox is empty, so every
    /// tick until [`Self::accept`] or a completing
    /// [`Self::memory_response`] would repeat this one.
    ///
    /// `output_credit` bounds how many HACCs may be handed to the NoC this
    /// cycle (router injection back-pressure). Cycles skipped since the
    /// last tick are accounted first, as [`Self::catch_up`] describes.
    pub(crate) fn tick(
        &mut self,
        now: Cycle,
        output_credit: usize,
        output: &mut CoreTickOutput,
    ) -> bool {
        output.memory_requests.clear();
        output.haccs.clear();
        output.mmh_retired = 0;
        let cycle = now.as_u64();
        self.catch_up(cycle);
        self.accounted_until = cycle + 1;
        let (mut any_busy, mut any_stalled) = (false, false);
        // With nothing buffered and every pipeline idle the walk below
        // would touch no state, so skip it; the rotation, the (then empty)
        // outbox drain and the accounting after it still run.
        let has_work = !self.instx.is_empty() || self.busy_pipelines > 0;

        // Shared multiplier budget across pipelines for this cycle.
        let mut multiplier_budget = self.config.multipliers;

        let pipeline_count = self.pipelines.len();
        let walked = if has_work { pipeline_count } else { 0 };
        for offset in 0..walked {
            // Round-robin start index so pipeline 0 is not structurally favoured.
            // (`next_pipeline < pipeline_count`, so one subtraction wraps.)
            let mut idx = self.next_pipeline + offset;
            if idx >= pipeline_count {
                idx -= pipeline_count;
            }
            match self.step_pipeline(idx, cycle, &mut multiplier_budget, output) {
                TickOutcome::Busy => any_busy = true,
                TickOutcome::Stalled => any_stalled = true,
                TickOutcome::Idle => {}
            }
        }
        self.next_pipeline += 1;
        if self.next_pipeline >= pipeline_count {
            self.next_pipeline = 0;
        }

        // Drain the outbox up to the NoC injection credit.
        let to_send = output_credit.min(self.outbox.len());
        for _ in 0..to_send {
            output.haccs.push(self.outbox.pop_front().expect("outbox length checked"));
        }

        if any_busy {
            self.stats.busy_cycles += 1;
            output.outcome = TickOutcome::Busy;
        } else if any_stalled {
            self.stats.stall_cycles += 1;
            output.outcome = TickOutcome::Stalled;
        } else {
            self.stats.idle_cycles += 1;
            output.outcome = TickOutcome::Idle;
        }
        // A tick without a busy pipeline changed no pipeline state and
        // generated no HACC, so with the outbox empty the next one is this
        // one again until an instruction or an operand arrives.
        !any_busy && self.outbox.is_empty()
    }

    /// Moves pipeline `idx` one step along the Figure-6 sequence and says
    /// how it spent the cycle.
    fn step_pipeline(
        &mut self,
        idx: usize,
        cycle: u64,
        multiplier_budget: &mut usize,
        output: &mut CoreTickOutput,
    ) -> TickOutcome {
        let state = &mut self.pipelines[idx];
        match *state {
            PipelineState::Idle => {
                let Some(instr) = self.instx.pop_front() else { return TickOutcome::Idle };
                *state = PipelineState::Decode { instr, remaining: 1, started: cycle };
                self.busy_pipelines += 1;
            }
            PipelineState::Decode { instr, remaining, started } if remaining > 0 => {
                *state = PipelineState::Decode { instr, remaining: remaining - 1, started };
            }
            PipelineState::Decode { instr, started, .. } => {
                // Issue the operand fetches: A data, B column indices,
                // B data and the rolling counters (Algorithm 1), each
                // sized by the elements it holds.
                let requests = [
                    (instr.a_data_addr as u64, instr.work.a_rows.len() * 8),
                    (instr.b_col_ind_addr as u64, instr.work.b_cols.len() * 4),
                    (instr.b_data_addr as u64, instr.work.b_values.len() * 8),
                    (instr.roll_counter_addr as u64, instr.work.counters.len() * 4),
                ];
                for (addr, bytes) in requests {
                    output.memory_requests.push(CoreMemoryRequest {
                        pipeline: idx,
                        request: MemoryRequest::read(addr, bytes.max(4)),
                    });
                }
                *state = PipelineState::WaitMem { instr, outstanding: 4, started };
            }
            PipelineState::WaitMem { outstanding, .. } if outstanding > 0 => {
                return TickOutcome::Stalled;
            }
            PipelineState::WaitMem { instr, started, .. } => {
                *state = PipelineState::Compute { instr, produced: 0, next: (0, 0), started };
            }
            PipelineState::Compute {
                instr,
                mut produced,
                next: (mut a_idx, mut b_idx),
                started,
            } => {
                // Outbox cap: allow a few cycles worth of buffering before blocking.
                let outbox_cap = self.config.ports * 8;
                let total = instr.hacc_count();
                let work = &instr.work;
                while produced < total && *multiplier_budget > 0 && self.outbox.len() < outbox_cap {
                    let tag = work.a_rows[a_idx] as u64 * self.out_cols + work.b_cols[b_idx] as u64;
                    let value = work.a_values[a_idx] * work.b_values[b_idx];
                    let mut hacc = HaccInstruction::new(tag, value, work.counters[produced]);
                    hacc.generated_at = cycle;
                    self.outbox.push_back(hacc);
                    self.stats.haccs_generated += 1;
                    produced += 1;
                    b_idx += 1;
                    if b_idx == work.b_cols.len() {
                        b_idx = 0;
                        a_idx += 1;
                    }
                    *multiplier_budget -= 1;
                }
                if produced >= total {
                    self.stats.mmh_completed += 1;
                    output.mmh_retired += 1;
                    self.cpi_histogram.record(cycle.saturating_sub(started) + 1);
                    *state = PipelineState::Idle;
                    self.busy_pipelines -= 1;
                } else {
                    *state =
                        PipelineState::Compute { instr, produced, next: (a_idx, b_idx), started };
                }
            }
        }
        TickOutcome::Busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::MmhWork;

    fn core_config() -> NeuraCoreConfig {
        NeuraCoreConfig {
            pipeline_registers: 8,
            pipelines: 2,
            multipliers: 4,
            address_generators: 2,
            ports: 4,
            instruction_buffer: 4,
        }
    }

    fn mmh(rows: &[usize], cols: &[usize]) -> MmhInstruction {
        MmhInstruction {
            a_data_addr: 0x100,
            b_col_ind_addr: 0x200,
            b_data_addr: 0x300,
            roll_counter_addr: 0x400,
            work: MmhWork {
                a_rows: rows.to_vec(),
                a_values: vec![2.0; rows.len()],
                b_cols: cols.to_vec(),
                b_values: vec![3.0; cols.len()],
                counters: vec![1; rows.len() * cols.len()],
            },
        }
    }

    /// Drives the core until idle, acknowledging all memory requests after
    /// `mem_latency` cycles.  Returns all generated HACCs.
    fn run_to_completion(
        core: &mut NeuraCore<'_>,
        mem_latency: u64,
        max_cycles: u64,
    ) -> Vec<HaccInstruction> {
        let mut haccs = Vec::new();
        let mut pending: Vec<(u64, usize)> = Vec::new(); // (ready_cycle, pipeline)
        let mut out = CoreTickOutput::default();
        for c in 0..max_cycles {
            core.tick(Cycle(c), 16, &mut out);
            for req in &out.memory_requests {
                pending.push((c + mem_latency, req.pipeline));
            }
            let (ready, rest): (Vec<_>, Vec<_>) = pending.into_iter().partition(|&(t, _)| t <= c);
            pending = rest;
            for (_, pipeline) in ready {
                core.memory_response(pipeline);
            }
            haccs.extend(out.haccs.iter().copied());
            if core.is_idle() && pending.is_empty() {
                break;
            }
        }
        haccs
    }

    #[test]
    fn executes_a_single_mmh_and_produces_all_haccs() {
        let instr = mmh(&[0, 1, 2, 3], &[0, 1, 2, 3]);
        let mut core = NeuraCore::new(0, core_config(), 16);
        assert!(core.accept(&instr));
        let haccs = run_to_completion(&mut core, 10, 500);
        assert_eq!(haccs.len(), 16);
        assert!(core.is_idle());
        assert_eq!(core.stats().mmh_completed, 1);
        assert_eq!(core.stats().haccs_generated, 16);
        // All partial products are 2.0 * 3.0.
        assert!(haccs.iter().all(|h| (h.data - 6.0).abs() < 1e-12));
        // Tags use row * out_cols + col.
        assert!(haccs.iter().any(|h| h.tag == 3 * 16 + 2));
    }

    #[test]
    fn instruction_buffer_enforces_capacity() {
        let instr = mmh(&[0], &[0]);
        let mut core = NeuraCore::new(0, core_config(), 4);
        for _ in 0..4 {
            assert!(core.accept(&instr));
        }
        assert!(!core.accept(&instr));
        assert_eq!(core.load(), 4, "the refused instruction is not buffered");
    }

    #[test]
    fn memory_latency_creates_stall_cycles() {
        let instr = mmh(&[0, 1], &[0, 1]);
        let mut fast = NeuraCore::new(0, core_config(), 8);
        fast.accept(&instr);
        run_to_completion(&mut fast, 2, 500);

        let mut slow = NeuraCore::new(0, core_config(), 8);
        slow.accept(&instr);
        run_to_completion(&mut slow, 100, 1_000);

        assert!(slow.stats().stall_cycles > fast.stats().stall_cycles);
    }

    #[test]
    fn cpi_histogram_records_completed_instructions() {
        let instr = mmh(&[0, 1], &[0, 1, 2]);
        let mut core = NeuraCore::new(0, core_config(), 8);
        for _ in 0..3 {
            core.accept(&instr);
        }
        run_to_completion(&mut core, 20, 2_000);
        assert_eq!(core.cpi_histogram().count(), 3);
        assert!(core.cpi_histogram().mean() > 20.0);
        assert_eq!(core.stats().mmh_completed, 3);
    }

    #[test]
    fn output_credit_limits_hacc_injection_per_cycle() {
        let instr = mmh(&[0, 1, 2, 3], &[0, 1, 2, 3]);
        let mut core = NeuraCore::new(0, core_config(), 8);
        core.accept(&instr);
        // Run with zero output credit: HACCs accumulate internally, none escape.
        let mut produced = 0;
        let mut pending: Vec<(u64, usize)> = Vec::new();
        let mut out = CoreTickOutput::default();
        for c in 0..200u64 {
            core.tick(Cycle(c), 0, &mut out);
            for req in &out.memory_requests {
                pending.push((c + 5, req.pipeline));
            }
            let (ready, rest): (Vec<_>, Vec<_>) = pending.into_iter().partition(|&(t, _)| t <= c);
            pending = rest;
            for (_, p) in ready {
                core.memory_response(p);
            }
            produced += out.haccs.len();
        }
        assert_eq!(produced, 0);
        assert!(!core.is_idle(), "HACCs are stuck in the outbox");
        // Granting credit drains them.
        let mut drained = 0;
        for c in 200..400u64 {
            core.tick(Cycle(c), 4, &mut out);
            drained += out.haccs.len();
        }
        assert_eq!(drained, 16);
    }

    #[test]
    fn load_counts_buffered_and_executing_instructions() {
        let instrs = [mmh(&[0], &[0]), mmh(&[1], &[0])];
        let mut core = NeuraCore::new(0, core_config(), 8);
        assert_eq!(core.load(), 0);
        core.accept(&instrs[0]);
        core.accept(&instrs[1]);
        assert_eq!(core.load(), 2);
    }

    /// The Decode arm alone sizes the operand reads: each is the bytes of
    /// the elements it fetches (8 per value, 4 per index or counter).
    #[test]
    fn four_memory_requests_per_mmh() {
        let instr = mmh(&[0, 1, 2, 3], &[0, 1]);
        let mut core = NeuraCore::new(0, core_config(), 8);
        core.accept(&instr);
        let mut reads = Vec::new();
        let mut pending: Vec<(u64, usize)> = Vec::new();
        let mut out = CoreTickOutput::default();
        for c in 0..50u64 {
            core.tick(Cycle(c), 16, &mut out);
            reads.extend(out.memory_requests.iter().map(|r| (r.request.addr, r.request.bytes)));
            for req in &out.memory_requests {
                pending.push((c + 1, req.pipeline));
            }
            let (ready, rest): (Vec<_>, Vec<_>) = pending.into_iter().partition(|&(t, _)| t <= c);
            pending = rest;
            for (_, p) in ready {
                core.memory_response(p);
            }
        }
        // 4 A values, 2 B indices, 2 B values, 4 × 2 counters.
        assert_eq!(reads, [(0x100, 32), (0x200, 8), (0x300, 16), (0x400, 32)]);
    }

    /// The idle tick skips the pipeline walk, so everything the walk used
    /// to leave behind is pinned here against what the walk would do:
    /// `Idle` outcome and empty output every cycle, exactly `n` idle cycles,
    /// and the round-robin cursor advanced by `n` — visible afterwards as
    /// the pipeline that picks up the next instruction.
    #[test]
    fn idle_ticks_equal_the_full_pipeline_walk() {
        let pipelines = core_config().pipelines;
        let instr = mmh(&[0, 1], &[0, 1]);
        let mut out = CoreTickOutput::default();
        for idle_ticks in 0..=2 * pipelines as u64 + 1 {
            let mut core = NeuraCore::new(0, core_config(), 8);
            for c in 0..idle_ticks {
                core.tick(Cycle(c), 4, &mut out);
                assert_eq!(out.outcome, TickOutcome::Idle);
                assert!(out.memory_requests.is_empty() && out.haccs.is_empty());
                assert_eq!(out.mmh_retired, 0);
            }
            assert!(core.is_idle());
            assert_eq!(core.load(), 0);
            let expected = NeuraCoreStats { idle_cycles: idle_ticks, ..NeuraCoreStats::default() };
            assert_eq!(core.stats(), &expected);

            // The walk starts at the rotated cursor, so that pipeline decodes
            // the instruction and issues its four operand reads.
            core.accept(&instr);
            let mut cycle = idle_ticks;
            while out.memory_requests.is_empty() {
                core.tick(Cycle(cycle), 4, &mut out);
                assert_eq!(out.outcome, TickOutcome::Busy);
                cycle += 1;
            }
            let owner = idle_ticks as usize % pipelines;
            assert!(out.memory_requests.iter().all(|req| req.pipeline == owner));
            assert_eq!(core.load(), 1);
        }
    }

    /// Ticks `core` at `cycle` and checks what the tick returned against
    /// its definition: no pipeline moved and the outbox is empty.
    fn tick_settles(core: &mut NeuraCore<'_>, cycle: u64, credit: usize) -> bool {
        let mut out = CoreTickOutput::default();
        let settled = core.tick(Cycle(cycle), credit, &mut out);
        let expected = out.outcome != TickOutcome::Busy && core.outbox.is_empty();
        assert_eq!(settled, expected, "cycle {cycle}: {:?}", out.outcome);
        settled
    }

    /// `tick` settles the core exactly when no pipeline moved and the
    /// outbox is empty: through an idle start, a gap of operand waits, a
    /// retired instruction whose `HACC`s zero credit holds in the outbox,
    /// and the drain that empties it.
    #[test]
    fn tick_settles_exactly_when_nothing_moved_and_the_outbox_is_empty() {
        let instr = mmh(&[0, 1], &[0, 1]);
        let mut core = NeuraCore::new(0, core_config(), 8);
        assert!(tick_settles(&mut core, 0, 4), "an empty core settles");
        assert!(core.accept(&instr));
        let mut cycle = 1;
        // Decode and the operand reads it issues on its last cycle.
        while core.pipelines.iter().all(|p| !matches!(p, PipelineState::WaitMem { .. })) {
            assert!(!tick_settles(&mut core, cycle, 4), "decoding moves a pipeline");
            cycle += 1;
        }
        for _ in 0..5 {
            assert!(tick_settles(&mut core, cycle, 4), "an operand wait settles");
            cycle += 1;
        }
        let owner = core.pipelines.iter().position(|p| !matches!(p, PipelineState::Idle));
        let owner = owner.expect("one pipeline holds the instruction");
        for last in [false, false, false, true] {
            assert_eq!(core.memory_response(owner), last, "only the fourth operand wakes");
        }
        // No credit: the instruction computes and retires, and its four
        // HACCs keep the core from settling until credit drains them.
        while core.load() > 0 {
            assert!(!tick_settles(&mut core, cycle, 0), "compute moves a pipeline");
            cycle += 1;
        }
        for _ in 0..3 {
            assert!(!tick_settles(&mut core, cycle, 0), "HACCs wait in the outbox");
            cycle += 1;
        }
        assert!(tick_settles(&mut core, cycle, 4), "the drain empties the outbox");
        assert!(core.is_idle());
    }

    /// Two cores driven in lock step: `cores[0]` ticked every cycle,
    /// `cores[1]` the way the accelerator drives a core — not ticked from
    /// the tick that settles it until an instruction or a completing operand
    /// wakes it; [`LockStep::finish`] has it catch up.
    struct LockStep<'p> {
        cores: [NeuraCore<'p>; 2],
        outs: [CoreTickOutput; 2],
        cycle: u64,
        /// What the second core's last tick returned, until a wake.
        asleep: bool,
        /// Ticks the second core was not given.
        skipped_ticks: u64,
    }

    impl<'p> LockStep<'p> {
        fn new(config: NeuraCoreConfig) -> Self {
            let cores = [NeuraCore::new(0, config, 8), NeuraCore::new(0, config, 8)];
            LockStep { cores, outs: Default::default(), cycle: 0, asleep: false, skipped_ticks: 0 }
        }

        /// Ticks both cores, checks that the cycle produced the same output
        /// on each and returns the pipelines that issued operand reads. A
        /// skipped tick stands as what the accelerator reports for it:
        /// nothing out, stalled if a pipeline is occupied, else idle.
        fn tick(&mut self) -> Vec<usize> {
            let [first, second] = &mut self.cores;
            first.tick(Cycle(self.cycle), 4, &mut self.outs[0]);
            if self.asleep {
                let outcome = if second.busy_pipelines > 0 {
                    TickOutcome::Stalled
                } else {
                    TickOutcome::Idle
                };
                self.outs[1] = CoreTickOutput { outcome, ..CoreTickOutput::default() };
                self.skipped_ticks += 1;
            } else {
                self.asleep = second.tick(Cycle(self.cycle), 4, &mut self.outs[1]);
            }
            let ([fast, other], cycle) = (&self.outs, self.cycle);
            assert_eq!(fast.outcome, other.outcome, "cycle {cycle}");
            assert_eq!(fast.mmh_retired, other.mmh_retired, "cycle {cycle}");
            assert_eq!(fast.memory_requests, other.memory_requests, "cycle {cycle}");
            assert_eq!(fast.haccs, other.haccs, "cycle {cycle}");
            self.cycle += 1;
            fast.memory_requests.iter().map(|req| req.pipeline).collect()
        }

        fn respond(&mut self, pipelines: &[usize]) {
            let [first, second] = &mut self.cores;
            for &pipeline in pipelines {
                first.memory_response(pipeline);
                if second.memory_response(pipeline) {
                    self.asleep = false;
                }
            }
        }

        fn accept(&mut self, instr: &'p MmhInstruction) {
            for core in &mut self.cores {
                assert!(core.accept(instr));
            }
            self.asleep = false;
        }

        /// Settles the second core's account and checks that the counters,
        /// the cursor and the CPI samples of the two agree.
        fn finish(&mut self) {
            self.cores[1].catch_up(self.cycle);
            let [first, second] = &self.cores;
            assert_eq!(first.stats(), second.stats());
            assert_eq!(first.cpi_histogram(), second.cpi_histogram());
            assert_eq!(first.next_pipeline, second.next_pipeline);
        }
    }

    /// The accelerator does not tick a settled core at all; the core
    /// accounts the skipped cycles on its next tick, or in a final
    /// `catch_up`. Against a core ticked every cycle, through gaps of
    /// `skipped` cycles — long enough for the cursor to wrap — with no work,
    /// waiting on four operands, waiting on the last one, and with no work
    /// again at the end: every tick's output, the final counters, the cursor
    /// (it picks the second instruction's pipeline) and the CPI samples must
    /// agree.
    #[test]
    fn skipped_settled_ticks_equal_ticked_ones() {
        let config = NeuraCoreConfig { pipelines: 3, ..core_config() };
        let instrs = [mmh(&[0, 1], &[0, 1, 2]), mmh(&[2, 3], &[1, 2])];
        for skipped in 0..=2 * config.pipelines as u64 + 1 {
            let mut pair = LockStep::new(config);
            // The first tick of each gap is the one that settles the core.
            let gap = |pair: &mut LockStep<'_>, outcome| {
                for _ in 0..=skipped {
                    assert!(pair.tick().is_empty());
                    assert_eq!(pair.outs[0].outcome, outcome);
                }
            };
            gap(&mut pair, TickOutcome::Idle);
            pair.accept(&instrs[0]);
            let mut waiting = Vec::new();
            while waiting.is_empty() {
                waiting = pair.tick();
            }
            gap(&mut pair, TickOutcome::Stalled);
            // Three of four operands do not wake the core.
            pair.respond(&waiting[..3]);
            assert!(pair.asleep);
            gap(&mut pair, TickOutcome::Stalled);
            pair.respond(&waiting[3..]);
            pair.accept(&instrs[1]);
            while !pair.cores[0].is_idle() {
                let issued = pair.tick();
                pair.respond(&issued);
                assert!(pair.cycle < 200, "the instructions never retired");
            }
            gap(&mut pair, TickOutcome::Idle);
            assert!(pair.skipped_ticks >= 4 * skipped, "the gaps were not skipped");
            pair.finish();
            assert_eq!(pair.cores[1].stats().mmh_completed, 2);
        }
    }

    /// A core whose pipelines have all retired but whose outbox still holds
    /// HACCs takes the idle path too; the outbox must keep draining on it.
    #[test]
    fn idle_path_still_drains_the_outbox() {
        let instr = mmh(&[0, 1, 2, 3], &[0, 1, 2, 3]);
        let mut core = NeuraCore::new(0, core_config(), 8);
        core.accept(&instr);
        let mut out = CoreTickOutput::default();
        let mut cycle = 0u64;
        // Zero credit: compute finishes, all 16 HACCs wait in the outbox.
        while core.load() > 0 {
            core.tick(Cycle(cycle), 0, &mut out);
            for req in &out.memory_requests {
                core.memory_response(req.pipeline);
            }
            cycle += 1;
            assert!(cycle < 200, "the instruction never retired");
        }
        assert!(!core.is_idle(), "HACCs are stuck in the outbox");
        let idle_before = core.stats().idle_cycles;
        let mut drained = 0;
        for _ in 0..4 {
            core.tick(Cycle(cycle), 4, &mut out);
            assert_eq!(out.outcome, TickOutcome::Idle);
            drained += out.haccs.len();
            cycle += 1;
        }
        assert_eq!(drained, 16);
        assert_eq!(core.stats().idle_cycles, idle_before + 4);
        assert!(core.is_idle());
    }
}
