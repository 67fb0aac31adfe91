//! The Dispatcher: push-based distribution of `MMH` instructions to NeuraCores.
//!
//! The paper contrasts NeuraChip's *push-based* multiplication mapping (the
//! Dispatcher assigns `MMH4` instructions to NeuraCores, preserving input
//! temporal locality in the register files) with FlowGNN's pull-based
//! scheme.  The dispatcher walks the compiled program in order and lends
//! each instruction to the least-loaded core that has instruction-buffer
//! room (dynamic allocation "depending on its utilization").  It signals
//! nothing at the row boundaries of `A`: DRHM takes its per-row γ from the
//! tag's output row, so no reseed or barrier protocol hangs off dispatch.

use crate::compiler::Program;
use crate::isa::MmhInstruction;
use crate::neuracore::NeuraCore;

/// The dispatcher walks a borrowed [`Program`] and feeds NeuraCores.
#[derive(Debug)]
pub(crate) struct Dispatcher<'p> {
    instructions: &'p [MmhInstruction],
    next_instruction: usize,
    dispatch_width: usize,
}

impl<'p> Dispatcher<'p> {
    /// Creates a dispatcher over a compiled program that places up to
    /// `dispatch_width` (at least one) instructions per cycle.
    pub(crate) fn new(program: &'p Program, dispatch_width: usize) -> Self {
        Dispatcher {
            instructions: &program.instructions,
            next_instruction: 0,
            dispatch_width: dispatch_width.max(1),
        }
    }

    /// Number of instructions not yet dispatched.
    pub(crate) fn remaining(&self) -> usize {
        self.instructions.len() - self.next_instruction
    }

    /// True when every instruction has been dispatched.
    pub(crate) fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    /// Places up to `dispatch_width` instructions this cycle, calls
    /// `placed_on` with the index of the core that took each, and returns
    /// how many it placed.
    ///
    /// Each goes to the core with the smallest [`NeuraCore::load`] among
    /// those that [`NeuraCore::can_accept`], lowest index first on a tie.
    /// Both are read off the cores as they stand, so an instruction placed
    /// earlier in the cycle counts toward its core's load — otherwise the
    /// whole cycle would pile onto one core. The cycle ends early when the
    /// program runs out or every core is full.
    pub(crate) fn dispatch_cycle(
        &mut self,
        cores: &mut [NeuraCore<'p>],
        mut placed_on: impl FnMut(usize),
    ) -> usize {
        let mut placed = 0;
        while placed < self.dispatch_width {
            let Some(instr) = self.instructions.get(self.next_instruction) else { break };
            let Some((index, core)) = cores
                .iter_mut()
                .enumerate()
                .filter(|(_, core)| core.can_accept())
                .min_by_key(|(_, core)| core.load())
            else {
                break;
            };
            let accepted = core.accept(instr);
            debug_assert!(accepted, "a core that can accept took the instruction");
            placed_on(index);
            self.next_instruction += 1;
            placed += 1;
        }
        placed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile_spgemm;
    use crate::config::{ChipConfig, NeuraCoreConfig};
    use neura_sparse::gen::GraphGenerator;

    fn program() -> Program {
        let a = GraphGenerator::erdos_renyi(40, 0.1, 5).generate().to_csr();
        compile_spgemm(&a.to_csc(), &a, 4)
    }

    /// `count` cores that never tick, each with room for `buffer` instructions.
    fn cores<'p>(count: usize, buffer: usize) -> Vec<NeuraCore<'p>> {
        let config = NeuraCoreConfig { instruction_buffer: buffer, ..ChipConfig::tile_4().core };
        (0..count).map(|_| NeuraCore::new(0, config, 1)).collect()
    }

    /// Instructions each core took: as the cores never tick, their load.
    fn accepted(cores: &[NeuraCore<'_>]) -> Vec<usize> {
        cores.iter().map(NeuraCore::load).collect()
    }

    #[test]
    fn dispatches_every_instruction_exactly_once() {
        let p = program();
        let mut d = Dispatcher::new(&p, 2);
        let mut cores = cores(4, p.instruction_count());
        let mut placed = 0;
        while !d.is_done() {
            placed += d.dispatch_cycle(&mut cores, |_| {});
        }
        assert_eq!(placed, p.instruction_count());
        assert_eq!(accepted(&cores).iter().sum::<usize>(), p.instruction_count());
        assert_eq!(d.remaining(), 0);
        assert_eq!(d.dispatch_cycle(&mut cores, |_| {}), 0);
    }

    #[test]
    fn least_loaded_prefers_empty_cores() {
        let (p, backlog) = (program(), program());
        let mut cores = cores(4, 16);
        // Core 2 is markedly less loaded than the others.
        for core in [0, 1, 3] {
            for instr in &backlog.instructions[..10] {
                assert!(cores[core].accept(instr));
            }
        }
        let mut d = Dispatcher::new(&p, 1);
        assert_eq!(d.dispatch_cycle(&mut cores, |_| {}), 1);
        assert_eq!(accepted(&cores), [10, 10, 1, 10]);
    }

    /// Instructions placed earlier in a cycle count toward the load the
    /// later ones see, and a tie goes to the lowest index.
    #[test]
    fn one_cycle_spreads_over_equally_loaded_cores() {
        let p = program();
        let mut cores = cores(4, 16);
        let mut d = Dispatcher::new(&p, 6);
        let mut took = Vec::new();
        assert_eq!(d.dispatch_cycle(&mut cores, |core| took.push(core)), 6);
        assert_eq!(took, [0, 1, 2, 3, 0, 1]);
        assert_eq!(accepted(&cores), [2, 2, 1, 1]);
    }

    #[test]
    fn full_cores_block_dispatch() {
        let p = program();
        let mut d = Dispatcher::new(&p, 4);
        let before = d.remaining();
        assert_eq!(d.dispatch_cycle(&mut cores(2, 0), |_| {}), 0);
        assert_eq!(d.remaining(), before);
        // One free slot on one core: that is all a cycle can place.
        let mut cores = cores(2, 1);
        assert!(cores[0].accept(&p.instructions[0]));
        assert_eq!(d.dispatch_cycle(&mut cores, |_| {}), 1);
        assert_eq!(accepted(&cores), [1, 1]);
        assert_eq!(d.remaining(), before - 1);
    }

    #[test]
    fn dispatch_width_limits_instructions_per_cycle() {
        let p = program();
        let mut d = Dispatcher::new(&p, 3);
        assert_eq!(d.dispatch_cycle(&mut cores(4, 16), |_| {}), 3.min(p.instruction_count()));
        // A zero width still makes progress.
        assert_eq!(Dispatcher::new(&p, 0).dispatch_cycle(&mut cores(4, 16), |_| {}), 1);
    }
}
