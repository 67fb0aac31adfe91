//! The full NeuraChip assembly and its cycle-level execution loop.
//!
//! An [`Accelerator`] instantiates the configured number of NeuraCores and
//! NeuraMems, interleaves them on a 2D-torus NoC, connects one memory
//! controller per tile to an HBM channel, and executes compiled programs by
//! walking the eight-step dataflow of Figure 5:
//!
//! 1. the Dispatcher issues `MMH` instructions to NeuraCores,
//! 2. NeuraCores issue operand reads to their tile's memory controller,
//! 3. the controller coalesces requests and fetches from DRAM,
//! 4. operand data streams back to the cores,
//! 5. cores compute partial products and emit `HACC` instructions,
//! 6. routers carry the `HACC`s to NeuraMems selected by the compute mapping,
//! 7. NeuraMems hash-accumulate the partial products,
//! 8. completed hash-lines are evicted and written back to HBM.
//!
//! The walk is a private `Machine`: the assembled units plus the queues of
//! what one unit refused another, with one method per stage (`dispatch`,
//! `tick_cores`, `tick_noc`, `tick_mems`, `tick_memory`, then
//! `is_drained` → `flush_and_drain` → `report`), so a sampling profiler
//! reads the stage split of the host's time off the function names. Every
//! stage reports to one observer, the crate-private `Observe` seam of
//! [`crate::profile`]: `()` for a plain run, a [`Profiler`] for a
//! profiled one, chosen once on entry and monomorphised, never tested
//! for inside the loop.
//!
//! A cycle costs what can change in it, not what the chip holds. Most of a
//! Tile-64's 128 NeuraCores and 128 NeuraMems do nothing in a given cycle
//! — cores wait some 900 cycles on HBM operands or idle behind a hub row
//! — and the `Machine` does not visit those:
//!
//! - **Cores.** A core whose tick found nothing able to move is settled
//!   and goes to sleep: `NeuraCore::tick` returns that, and the `Machine`'s
//!   set of awake cores is the one place a core's sleep is kept. Two things
//!   wake it: the dispatcher placing an instruction on it, and the operand
//!   response that completes one of its pipelines. The cycles in between
//!   are not lost: the core accounts them itself, as stalled or idle cycles
//!   and steps of its round-robin cursor, on its next tick or in `report`,
//!   and the observer is told every cycle how many cores sleep in either
//!   state.
//! - **NeuraMems.** A NeuraMem is ticked while the NoC holds deliveries for
//!   it or it holds `HACC`s it has not processed; under barrier eviction
//!   the per-cycle pressure check adds the ones it made evict. An idle
//!   NeuraMem's tick has no effect and no counter, so nothing is owed.
//!
//! The awake cores, the waiting cores and the busy NeuraMems are each a
//! [`neura_sim::BitSet`], the set the torus keeps of its active routers.
//! Both walks go in ascending unit index, the order that fixes how
//! injections, controller submissions and write-backs interleave.
//!
//! A run ends when it drains or stops moving. Every cycle either makes
//! progress — an instruction dispatched, an `MMH` retired or a `HACC`
//! emitted, a NoC delivery, a `HACC` accumulated or a line evicted, a DRAM
//! response — or it does not, and each kind of event happens at most a
//! number of times the program's size bounds. A machine that goes
//! [`ChipConfig::patience`] cycles without one is wedged (a full HashPad
//! waiting head-of-line on a tag it cannot place is how), and the run
//! returns [`ChipError::Wedged`]. So the cycle loop ends within
//! `(events + 1) · patience` cycles.
//!
//! The memory side holds live state only. A HashPad stores its resident
//! lines and an occupancy bit per line, not the whole array
//! ([`crate::neuramem`]). A controller retires its in-flight requests
//! from the front of a FIFO, because the channel completes them in issue
//! order. An operand read carries its issuing pipeline in the request's
//! tag, which the response hands back, so the `Machine` keeps no table of
//! outstanding reads.

use crate::compiler::{self, Program};
use crate::config::{ChipConfig, EvictionPolicy};
use crate::dispatcher::Dispatcher;
use crate::isa::HaccInstruction;
use crate::mapping::Mapper;
use crate::neuracore::{CoreTickOutput, NeuraCore, NeuraCoreStats};
use crate::neuramem::{NeuraMem, NeuraMemStats};
use crate::profile::{Observe, Profiler};
use neura_mem::{ControllerStats, MemoryController, MemoryRequest, MemoryResponse};
use neura_noc::{Packet, TorusNetwork, TorusTopology};
use neura_sim::{BitSet, Cycle, Histogram};
use neura_sparse::spgemm::SymbolicProduct;
use neura_sparse::{CsrMatrix, DenseMatrix, SparseError};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// Errors produced while running a workload on the accelerator model.
#[derive(Debug, Clone, PartialEq)]
pub enum ChipError {
    /// The machine stopped moving before it drained: no progress event for
    /// [`ChipConfig::patience`] cycles after `cycle`.
    Wedged {
        /// The last cycle in which anything made progress.
        cycle: u64,
        /// Partial products never accumulated.
        outstanding_haccs: u64,
    },
    /// The workload matrices had incompatible shapes.
    Shape(SparseError),
}

impl fmt::Display for ChipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChipError::Wedged { cycle, outstanding_haccs } => write!(
                f,
                "simulation wedged: no progress after cycle {cycle} ({outstanding_haccs} partial products outstanding)"
            ),
            ChipError::Shape(e) => write!(f, "workload shape error: {e}"),
        }
    }
}

impl std::error::Error for ChipError {}

impl From<SparseError> for ChipError {
    fn from(value: SparseError) -> Self {
        ChipError::Shape(value)
    }
}

/// Aggregate execution statistics of one program run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExecutionReport {
    /// Total simulated cycles.
    pub total_cycles: u64,
    /// `MMH` instructions executed.
    pub mmh_instructions: u64,
    /// `HACC` instructions (partial products) processed.
    pub hacc_instructions: u64,
    /// Sum of per-core busy cycles.
    pub core_busy_cycles: u64,
    /// Sum of per-core stall (memory wait) cycles.
    pub core_stall_cycles: u64,
    /// Sum of per-core idle cycles.
    pub core_idle_cycles: u64,
    /// Average cycles per `MMH` instruction.
    pub cpi: f64,
    /// `MMH` instructions retired per cycle across the whole chip.
    pub ipc: f64,
    /// Histogram of per-`MMH` execution cycles (Figure 14).
    pub mmh_cpi_histogram: Histogram,
    /// Histogram of `HACC` generation-to-accumulation latency (Figure 15).
    pub hacc_latency_histogram: Histogram,
    /// Partial products generated per NeuraCore (Figure 12 x-axis).
    pub core_work_histogram: Vec<u64>,
    /// Partial products accumulated per NeuraMem (Figure 12 y-axis).
    pub mem_work_histogram: Vec<u64>,
    /// Mean number of in-flight HBM requests per cycle (memory pressure; a
    /// transaction that coalesced k requests counts k).
    pub avg_in_flight_mem: f64,
    /// Peak number of in-flight HBM requests, counted the same way.
    pub peak_in_flight_mem: usize,
    /// Bytes read from HBM.
    pub dram_bytes_read: u64,
    /// Bytes written to HBM.
    pub dram_bytes_written: u64,
    /// Mean HBM request latency.
    pub mean_dram_latency: f64,
    /// NoC packets delivered.
    pub noc_packets: u64,
    /// Mean NoC packet latency.
    pub noc_mean_latency: f64,
    /// Mean NoC hop count of delivered packets.
    pub noc_mean_hops: f64,
    /// Peak HashPad occupancy across all NeuraMems.
    pub peak_hashpad_occupancy: usize,
    /// Cycles lost to a full HashPad.
    pub hashpad_full_stalls: u64,
    /// Hash collisions observed.
    pub hash_collisions: u64,
    /// Hash-line evictions (output elements produced).
    pub evictions: u64,
    /// Wall-clock execution time implied by the cycle count and frequency.
    pub execution_seconds: f64,
    /// Achieved throughput in GOP/s (2 ops per partial product).
    pub gops: f64,
    /// Fraction of cycles in which the average core was busy.
    pub core_utilization: f64,
}

/// Result of running an SpGEMM workload: the product matrix plus statistics.
#[derive(Debug, Clone)]
pub struct SpgemmRun {
    /// The numerically accumulated product matrix.
    pub product: CsrMatrix,
    /// Execution statistics.
    pub report: ExecutionReport,
}

/// Result of running a GCN aggregation (sparse × dense) workload.
#[derive(Debug, Clone)]
pub struct AggregationRun {
    /// The aggregated (dense) feature matrix.
    pub aggregated: DenseMatrix,
    /// Execution statistics.
    pub report: ExecutionReport,
}

/// A core's operand read that the tile's controller refused, waiting to
/// be resubmitted. The request's tag names the pipeline that issued it.
#[derive(Debug, Clone, Copy)]
struct RetryRead {
    tile: usize,
    request: MemoryRequest,
}

/// `HACC` payloads of the packets in the NoC; a packet's id is its slot.
#[derive(Debug, Default)]
struct PayloadSlab {
    slots: Vec<Option<HaccInstruction>>,
    free: Vec<usize>,
}

impl PayloadSlab {
    fn insert(&mut self, hacc: HaccInstruction) -> u64 {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        self.slots[slot] = Some(hacc);
        slot as u64
    }

    fn remove(&mut self, id: u64) -> HaccInstruction {
        let slot = id as usize;
        self.free.push(slot);
        self.slots[slot].take().expect("every delivered packet has a registered payload")
    }
}

/// Assembles the product of a drained `program`: its symbolic pattern, with
/// the eviction-ordered `outputs` scattered in as the values. A tag evicted
/// more than once keeps the entry evicted last.
fn scatter_into_pattern(program: Program, outputs: &[(u64, f64)]) -> CsrMatrix {
    let mut values = vec![0.0; program.output_nnz];
    for &(tag, value) in outputs {
        let (r, c) = program.coords_of(tag);
        values[program.pattern.position(r, c).expect("an evicted tag is in the pattern")] = value;
    }
    let (rows, cols) = program.output_shape;
    let SymbolicProduct { row_ptr, col_idx, .. } = program.pattern;
    CsrMatrix::from_raw_parts(rows, cols, row_ptr, col_idx, values)
        .expect("the symbolic pattern is structurally valid CSR")
}

/// The NeuraChip accelerator model.
#[derive(Debug)]
pub struct Accelerator {
    config: ChipConfig,
}

impl Accelerator {
    /// Creates an accelerator with the given configuration.
    pub fn new(config: ChipConfig) -> Self {
        Accelerator { config }
    }

    /// The accelerator configuration.
    pub(crate) fn config(&self) -> &ChipConfig {
        &self.config
    }

    /// Runs the SpGEMM `C = A × B` and returns the product with statistics.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::Shape`] when the shapes are incompatible and
    /// [`ChipError::Wedged`] when the machine stops moving before it
    /// drains.
    pub fn run_spgemm(&mut self, a: &CsrMatrix, b: &CsrMatrix) -> Result<SpgemmRun, ChipError> {
        self.run_spgemm_profiled(a, b, None)
    }

    /// [`Self::run_spgemm`] with an optional [`Profiler`] attached.
    ///
    /// With `Some(profiler)` the profiler is the run loop's observer and
    /// is fed once per cycle (windowed busy/stall/idle attribution, stall
    /// taxonomy, hop and DRAM-latency distributions); call
    /// [`Profiler::into_profile`] afterwards. With `None` the observer is
    /// `()` and this is exactly [`Self::run_spgemm`]: nothing is
    /// constructed or recorded. Either way the simulation is
    /// byte-identical.
    ///
    /// # Errors
    ///
    /// As [`Self::run_spgemm`]. On error the profiler is left
    /// unfinalized (there is no complete run to profile).
    pub fn run_spgemm_profiled(
        &mut self,
        a: &CsrMatrix,
        b: &CsrMatrix,
        profiler: Option<&mut Profiler>,
    ) -> Result<SpgemmRun, ChipError> {
        if a.cols() != b.rows() {
            return Err(ChipError::Shape(SparseError::ShapeMismatch {
                left: (a.rows(), a.cols()),
                right: (b.rows(), b.cols()),
            }));
        }
        let program = compiler::compile_spgemm(&a.to_csc(), b, self.config.mmh_tile);
        let (outputs, report) = self.run(&program, profiler)?;
        Ok(SpgemmRun { product: scatter_into_pattern(program, &outputs), report })
    }

    /// Runs the GCN aggregation `A × X` with dense features `X`: the SpGEMM
    /// with `X` stored in full, every entry an element of its row (see
    /// [`compiler`]), returned dense.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::Shape`] when the shapes are incompatible and
    /// [`ChipError::Wedged`] when the machine stops moving before it
    /// drains.
    pub fn run_aggregation(
        &mut self,
        a: &CsrMatrix,
        features: &DenseMatrix,
    ) -> Result<AggregationRun, ChipError> {
        let SpgemmRun { product, report } =
            self.run_spgemm(a, &compiler::dense_to_csr(features))?;
        Ok(AggregationRun { aggregated: product.to_dense(), report })
    }

    /// Executes a compiled [`Program`] on a freshly built [`Machine`],
    /// observed by the [`Profiler`] if there is one (see
    /// [`Self::run_spgemm_profiled`] for the contract).
    ///
    /// Returns the accumulated output elements as `(tag, value)` in the
    /// order the NeuraMems evicted them, together with the execution
    /// report. A compiled program evicts every tag exactly once; should
    /// malformed counters evict one twice, the later entry is the value
    /// that was written back last.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::Wedged`] when the machine stops moving before
    /// it drains.
    fn run(
        &mut self,
        program: &Program,
        profiler: Option<&mut Profiler>,
    ) -> Result<(Vec<(u64, f64)>, ExecutionReport), ChipError> {
        let machine = Machine::new(&self.config, program);
        match profiler {
            Some(profiler) => machine.run(profiler),
            None => machine.run(&mut ()),
        }
    }
}

/// One assembled chip executing one program: the state the cycle loop
/// carries, with one method per stage of the Figure-5 walk (the numbers in
/// their docs are the module's step numbers). Every stage reports to an
/// [`Observe`]r; see [`Machine::run`] for the order.
struct Machine<'p> {
    cfg: &'p ChipConfig,
    program: &'p Program,
    cores: Vec<NeuraCore<'p>>,
    /// The cores that are not settled: the ones [`Self::tick_cores`] ticks.
    /// The one owner of a core's sleep: a core leaves it when its tick
    /// returns that it settled, and [`Self::wake`] puts it back.
    awake: BitSet,
    /// The settled cores that still hold work: their occupied pipelines
    /// all wait on operands. The other settled cores are idle.
    waiting: BitSet,
    mems: Vec<NeuraMem>,
    /// The NeuraMems that hold buffered `HACC`s, or evictions not yet
    /// picked up: with the NoC's deliveries, the ones [`Self::tick_mems`]
    /// ticks.
    busy_mems: BitSet,
    /// One per tile.
    controllers: Vec<MemoryController>,
    /// NoC node ids: cores first, then mems.
    noc: TorusNetwork,
    mapping: Mapper,
    dispatcher: Dispatcher<'p>,
    /// `(tag, value)` of every evicted line, in eviction order.
    outputs: Vec<(u64, f64)>,
    payloads: PayloadSlab,
    retry_reads: Vec<RetryRead>,
    retry_injections: Vec<Packet>,
    /// Per NeuraMem, oldest first, the `HACC`s its full instruction buffer
    /// turned away. A NeuraMem stays in `busy_mems` while its queue holds
    /// any.
    refused: Vec<VecDeque<HaccInstruction>>,
    /// `(tile, request)` write-backs not yet taken by their controller.
    retry_writebacks: Vec<(usize, MemoryRequest)>,
    /// Something made progress in the current cycle (see [`Self::run`]).
    progressed: bool,
    // Per-cycle scratch, allocated once.
    core_out: CoreTickOutput,
    delivered: Vec<Packet>,
    done: Vec<MemoryResponse>,
    in_flight_samples: u128,
    peak_in_flight: usize,
}

impl<'p> Machine<'p> {
    fn new(cfg: &'p ChipConfig, program: &'p Program) -> Self {
        let (total_cores, total_mems) = (cfg.total_cores(), cfg.total_mems());
        let out_cols = program.output_shape.1 as u64;
        let cores = (0..total_cores)
            .map(|i| NeuraCore::new(i / cfg.cores_per_tile, cfg.core, out_cols))
            .collect();
        let topology = TorusTopology::for_nodes(total_cores + total_mems);
        assert!(
            u32::try_from(cfg.total_pipelines()).is_ok(),
            "a read's tag names its pipeline in 32 bits, and {} pipelines do not fit",
            cfg.total_pipelines()
        );
        Machine {
            cfg,
            program,
            cores,
            awake: BitSet::full(total_cores),
            waiting: BitSet::new(total_cores),
            mems: (0..total_mems).map(|i| NeuraMem::new(i, cfg.mem, cfg.eviction)).collect(),
            busy_mems: BitSet::new(total_mems),
            controllers: (0..cfg.tiles)
                .map(|t| MemoryController::new(t, cfg.hbm, cfg.mem_queue_capacity))
                .collect(),
            noc: TorusNetwork::new(topology, cfg.router_buffer)
                .with_links_per_cycle(cfg.core.ports.max(2)),
            mapping: cfg.mapping.build(total_mems, cfg.seed),
            dispatcher: Dispatcher::new(program, total_cores.max(4)),
            outputs: Vec::with_capacity(program.output_nnz),
            payloads: PayloadSlab::default(),
            retry_reads: Vec::new(),
            retry_injections: Vec::new(),
            refused: vec![VecDeque::new(); total_mems],
            retry_writebacks: Vec::new(),
            progressed: false,
            core_out: CoreTickOutput::default(),
            delivered: Vec::new(),
            done: Vec::new(),
            in_flight_samples: 0,
            peak_in_flight: 0,
        }
    }

    /// Walks the machine cycle by cycle until it drains, or until
    /// [`ChipConfig::patience`] cycles pass in which no stage reports
    /// progress: then it is wedged.
    fn run<O: Observe>(
        mut self,
        obs: &mut O,
    ) -> Result<(Vec<(u64, f64)>, ExecutionReport), ChipError> {
        let patience = self.cfg.patience();
        let mut last_progress = 0;
        for cycle in 0.. {
            let now = Cycle(cycle);
            obs.begin_cycle(cycle);
            self.dispatch(obs);
            self.tick_cores(now, obs);
            self.tick_noc(now, obs);
            self.tick_mems(now, obs);
            self.tick_memory(now, obs);
            obs.end_cycle();
            if self.is_drained() {
                let end = self.flush_and_drain(cycle, obs);
                return Ok(self.report(cycle + 1, end + 1, obs));
            }
            if std::mem::take(&mut self.progressed) {
                last_progress = cycle;
            } else if cycle - last_progress >= patience {
                break;
            }
        }
        let processed: u64 = self.mems.iter().map(|m| m.stats().haccs_processed).sum();
        Err(ChipError::Wedged {
            cycle: last_progress,
            outstanding_haccs: self.program.total_partial_products.saturating_sub(processed),
        })
    }

    /// Core `core` took an instruction or its last outstanding operand:
    /// it is ticked again from the next [`Self::tick_cores`] on.
    fn wake(awake: &mut BitSet, waiting: &mut BitSet, core: usize) {
        awake.insert(core);
        waiting.remove(core);
    }

    /// (1) Dispatches `MMH` instructions to the least-loaded cores, which
    /// wakes them.
    fn dispatch<O: Observe>(&mut self, obs: &mut O) {
        if self.dispatcher.is_done() {
            return;
        }
        let (awake, waiting) = (&mut self.awake, &mut self.waiting);
        let placed = self
            .dispatcher
            .dispatch_cycle(&mut self.cores, |core| Self::wake(awake, waiting, core));
        if placed == 0 {
            obs.note_dispatch_starved();
        } else {
            self.progressed = true;
        }
    }

    /// (2, 5, 6) Ticks the awake cores: their operand reads go to the
    /// tile's controller and their `HACC`s onto the NoC, toward the NeuraMem
    /// the compute mapping selects. What either refused earlier goes first.
    ///
    /// A core its tick leaves settled goes to sleep. The observer gets the
    /// sleepers of the cycle as two counts; the cores account the cycles
    /// they slept through themselves, on their next tick or in
    /// [`Self::report`].
    fn tick_cores<O: Observe>(&mut self, now: Cycle, obs: &mut O) {
        let rejected_before = self.noc.stats().injection_rejected;
        let controllers = &mut self.controllers;
        self.retry_reads
            .retain(|retry| controllers[retry.tile].submit(retry.request, now).is_none());

        let out_cols = self.program.output_shape.1.max(1) as u64;
        let total_cores = self.cores.len();
        let (asleep, waiting) = (total_cores - self.awake.len(), self.waiting.len());
        obs.record_cores_asleep(waiting as u64, (asleep - waiting) as u64);
        let out = &mut self.core_out;
        self.awake.retain(|core_idx| {
            let core = &mut self.cores[core_idx];
            let credit = if self.retry_injections.len() > 256 { 0 } else { self.cfg.core.ports };
            let settled = core.tick(now, credit, out);
            obs.record_core_tick(out.outcome, out.mmh_retired);
            self.progressed |= out.mmh_retired > 0 || !out.haccs.is_empty();
            let tile = core.tile();
            let first_pipeline = core_idx * self.cfg.core.pipelines;
            for req in &out.memory_requests {
                // `Machine::new` checked that every pipeline index fits.
                let request = req.request.with_tag((first_pipeline + req.pipeline) as u32);
                if controllers[tile].submit(request, now).is_none() {
                    self.retry_reads.push(RetryRead { tile, request });
                }
            }
            for &hacc in &out.haccs {
                let mem_idx = self.mapping.map(hacc.tag, hacc.tag / out_cols);
                let packet = Packet::new(
                    self.payloads.insert(hacc),
                    core_idx,
                    total_cores + mem_idx,
                    HaccInstruction::BYTES,
                );
                if let Err(p) = self.noc.inject(packet, now) {
                    self.retry_injections.push(p);
                }
            }
            // Every tick until the next wake would repeat this one. A
            // sleeper that still holds work waits on operands.
            if settled && !core.is_idle() {
                self.waiting.insert(core_idx);
            }
            !settled
        });

        let noc = &mut self.noc;
        self.retry_injections.retain(|packet| noc.inject(packet.clone(), now).is_err());
        if self.noc.stats().injection_rejected > rejected_before {
            obs.note_noc_backpressure();
        }
    }

    /// (6) Advances the NoC.
    fn tick_noc<O: Observe>(&mut self, now: Cycle, obs: &mut O) {
        self.noc.tick(now);
        obs.record_noc_in_flight(self.noc.in_flight() as u64);
    }

    /// (7, 8) Delivers arrived `HACC`s to the NeuraMems, ticks the ones
    /// with work and hands their evictions to the tile's controller for
    /// write-back.
    ///
    /// A NeuraMem has work when the NoC holds deliveries for it or it is in
    /// `busy_mems`: it took a `HACC` it has not processed yet, it refused
    /// one, or (barrier policy) the pressure check below made it evict. The
    /// others are not visited: their tick would find an empty instruction
    /// buffer.
    ///
    /// A refused `HACC` waits in the NeuraMem's `refused` queue. The queue
    /// goes first in the NeuraMem's visit, for as long as its buffer takes
    /// them, and a delivery joins its tail while it holds any, so a
    /// NeuraMem takes its `HACC`s in the order they arrived.
    fn tick_mems<O: Observe>(&mut self, now: Cycle, obs: &mut O) {
        // Barrier-eviction baseline: completed hash-lines are only
        // released under capacity pressure (the "emergency barrier"),
        // otherwise they stay resident until the end of the program.
        if self.cfg.eviction == EvictionPolicy::Barrier {
            for (mem_idx, mem) in self.mems.iter_mut().enumerate() {
                let occupied = mem.occupancy();
                if occupied * 10 >= self.cfg.mem.hashlines * 9 {
                    mem.barrier(now);
                    obs.record_mem(occupied, mem.occupancy(), 0, 0);
                    if !mem.is_idle() {
                        self.busy_mems.insert(mem_idx);
                    }
                }
            }
        }

        let first_mem_node = self.cores.len();
        for node in self.noc.nodes_with_deliveries() {
            self.busy_mems.insert(node - first_mem_node);
            self.progressed = true;
        }
        self.busy_mems.retain(|mem_idx| {
            let (mem, refused) = (&mut self.mems[mem_idx], &mut self.refused[mem_idx]);
            while refused.front().is_some_and(|&hacc| mem.accept(hacc)) {
                refused.pop_front();
            }
            self.noc.drain_delivered_into(first_mem_node + mem_idx, &mut self.delivered);
            for packet in self.delivered.drain(..) {
                obs.record_hops(packet.hops);
                let hacc = self.payloads.remove(packet.id);
                if !refused.is_empty() || !mem.accept(hacc) {
                    refused.push_back(hacc);
                }
            }
            let (occupied, stalls, haccs) =
                (mem.occupancy(), mem.stats().pad_full_stalls, mem.stats().haccs_processed);
            mem.tick(now);
            let accumulated = mem.stats().haccs_processed - haccs;
            obs.record_mem(
                occupied,
                mem.occupancy(),
                mem.stats().pad_full_stalls - stalls,
                accumulated,
            );
            self.progressed |= accumulated > 0;
            let tile = mem_idx / self.cfg.mems_per_tile;
            while let Some(request) = pop_write_back(mem, &mut self.outputs) {
                self.progressed = true;
                if self.controllers[tile].submit(request, now).is_none() {
                    self.retry_writebacks.push((tile, request));
                }
            }
            !mem.is_idle() || !refused.is_empty()
        });
    }

    /// (8, 3, 4) One cycle of the memory system: resubmits the write-backs
    /// refused earlier, ticks the controllers and delivers read responses
    /// to the cores that wait on them — the response that completes a
    /// pipeline's operands wakes its core. Every read is a core's, and its
    /// tag is the issuing pipeline's index across the chip
    /// (`core × pipelines + pipeline`). Returns the requests in flight.
    ///
    /// Responses of one cycle arrive in no particular order: each is a
    /// counter decrement here and a histogram sample in the observer.
    fn tick_controllers<O: Observe>(&mut self, now: Cycle, obs: &mut O) -> usize {
        let controllers = &mut self.controllers;
        self.retry_writebacks
            .retain(|&(tile, request)| controllers[tile].submit(request, now).is_none());
        let pipelines = self.cfg.core.pipelines;
        let mut in_flight = 0;
        for controller in controllers.iter_mut() {
            self.done.clear();
            controller.tick(now, &mut self.done);
            self.progressed |= !self.done.is_empty();
            in_flight += controller.in_flight();
            for response in &self.done {
                obs.record_dram_response(response.latency());
                if response.request.is_read() {
                    let tag = response.request.tag() as usize;
                    let (core, pipeline) = (tag / pipelines, tag % pipelines);
                    if self.cores[core].memory_response(pipeline) {
                        Self::wake(&mut self.awake, &mut self.waiting, core);
                    }
                }
            }
        }
        in_flight
    }

    /// (3, 4) The memory stage of an executing cycle: [`Self::tick_controllers`]
    /// plus the memory-pressure samples of the report and the observer.
    fn tick_memory<O: Observe>(&mut self, now: Cycle, obs: &mut O) {
        let in_flight = self.tick_controllers(now, obs);
        self.in_flight_samples += in_flight as u128;
        self.peak_in_flight = self.peak_in_flight.max(in_flight);
        for (tile, controller) in self.controllers.iter().enumerate() {
            let (reads, writes) = controller.queue_depths();
            obs.record_channel(tile, (reads + writes) as u64);
        }
        obs.record_hbm_in_flight(in_flight as u64);
    }

    /// True when nothing is left to execute: every instruction dispatched,
    /// every `HACC` accumulated, every read answered. Resident hash-lines
    /// and write-backs may remain; [`Self::flush_and_drain`] settles those.
    ///
    /// Read off the sets: a core asleep is idle unless it is `waiting`, and
    /// past [`Self::tick_mems`] a NeuraMem is in `busy_mems` exactly when it
    /// has a backlog or refused `HACC`s waiting.
    fn is_drained(&self) -> bool {
        self.dispatcher.is_done()
            && self.waiting.is_empty()
            && self.awake.iter().all(|core| self.cores[core].is_idle())
            && self.noc.in_flight() == 0
            && self.retry_injections.is_empty()
            && self.retry_reads.is_empty()
            && self.busy_mems.is_empty()
            && self.controllers.iter().all(|c| c.pending() == 0)
    }

    /// The write-back epilogue, entered in the cycle the machine drained.
    ///
    /// Flushes barrier-mode residue (and any malformed counters) out of the
    /// HashPads, then keeps ticking the memory system from `cycle` until
    /// every write-back is committed to DRAM, so that deferring evictions
    /// (HACC-BE) cannot dodge the output-write cost. Returns the cycle it
    /// stopped at. No observer cycle is open: only DRAM responses are
    /// reported. It always ends: with no reads left, every controller issues
    /// its queued writes and retires them in a bounded number of cycles.
    fn flush_and_drain<O: Observe>(&mut self, mut cycle: u64, obs: &mut O) -> u64 {
        for (mem_idx, mem) in self.mems.iter_mut().enumerate() {
            mem.barrier(Cycle(cycle));
            mem.flush(Cycle(cycle));
            // Queued, not submitted: they go behind the older write-backs.
            while let Some(request) = pop_write_back(mem, &mut self.outputs) {
                self.retry_writebacks.push((mem_idx / self.cfg.mems_per_tile, request));
            }
        }
        while !self.retry_writebacks.is_empty() || self.controllers.iter().any(|c| c.pending() > 0)
        {
            self.tick_controllers(Cycle(cycle), obs);
            cycle += 1;
        }
        cycle
    }

    /// Seals the observer and assembles the outputs and the report of a
    /// run that drained after `total_cycles`, the first `executed` of them
    /// in the main loop: the cores asleep at the end have those still to
    /// account.
    fn report<O: Observe>(
        mut self,
        executed: u64,
        total_cycles: u64,
        obs: &mut O,
    ) -> (Vec<(u64, f64)>, ExecutionReport) {
        let (total_cores, total_mems) = (self.cores.len(), self.mems.len());
        self.cores.iter_mut().for_each(|core| core.catch_up(executed));
        obs.finalize(total_cycles, total_cores as u64, total_mems as u64, self.cfg.tiles as u64);
        // Ratios of an empty run are zero, not NaN.
        let per = |sum: f64, count: f64| if count == 0.0 { 0.0 } else { sum / count };

        let mut mmh_cpi_histogram = Histogram::new(25, 20);
        let mut core_totals = NeuraCoreStats::default();
        let mut core_work = Vec::with_capacity(total_cores);
        for core in &self.cores {
            let stats = core.stats();
            core_totals.busy_cycles += stats.busy_cycles;
            core_totals.stall_cycles += stats.stall_cycles;
            core_totals.idle_cycles += stats.idle_cycles;
            core_totals.mmh_completed += stats.mmh_completed;
            core_work.push(stats.haccs_generated);
            mmh_cpi_histogram.merge(core.cpi_histogram());
        }
        let mut hacc_latency_histogram = Histogram::new(50, 20);
        let mut mem_totals = NeuraMemStats::default();
        let mut mem_work = Vec::with_capacity(total_mems);
        for mem in &self.mems {
            let stats = mem.stats();
            mem_work.push(stats.haccs_processed);
            mem_totals.haccs_processed += stats.haccs_processed;
            mem_totals.peak_occupancy = mem_totals.peak_occupancy.max(stats.peak_occupancy);
            mem_totals.pad_full_stalls += stats.pad_full_stalls;
            mem_totals.collisions += stats.collisions;
            mem_totals.evictions += stats.evictions;
            hacc_latency_histogram.merge(mem.hacc_latency_histogram());
        }
        let dram = |field: fn(&ControllerStats) -> u64| -> u64 {
            self.controllers.iter().map(|c| field(c.stats())).sum()
        };
        let execution_seconds = total_cycles as f64 / (self.cfg.frequency_ghz * 1e9);
        let noc = self.noc.stats();
        let report = ExecutionReport {
            total_cycles,
            mmh_instructions: core_totals.mmh_completed,
            hacc_instructions: mem_totals.haccs_processed,
            core_busy_cycles: core_totals.busy_cycles,
            core_stall_cycles: core_totals.stall_cycles,
            core_idle_cycles: core_totals.idle_cycles,
            cpi: mmh_cpi_histogram.mean(),
            ipc: per(core_totals.mmh_completed as f64, total_cycles as f64),
            mmh_cpi_histogram,
            hacc_latency_histogram,
            core_work_histogram: core_work,
            mem_work_histogram: mem_work,
            avg_in_flight_mem: per(self.in_flight_samples as f64, total_cycles as f64),
            peak_in_flight_mem: self.peak_in_flight,
            dram_bytes_read: dram(|s| s.bytes_read),
            dram_bytes_written: dram(|s| s.bytes_written),
            mean_dram_latency: per(dram(|s| s.total_latency) as f64, dram(|s| s.completed) as f64),
            noc_packets: noc.delivered,
            noc_mean_latency: noc.mean_latency(),
            noc_mean_hops: noc.mean_hops(),
            peak_hashpad_occupancy: mem_totals.peak_occupancy,
            hashpad_full_stalls: mem_totals.pad_full_stalls,
            hash_collisions: mem_totals.collisions,
            evictions: mem_totals.evictions,
            execution_seconds,
            gops: per(2.0 * self.program.total_partial_products as f64, execution_seconds) / 1e9,
            core_utilization: per(
                core_totals.busy_cycles as f64,
                total_cycles as f64 * total_cores as f64,
            ),
        };
        (self.outputs, report)
    }
}

/// (8) Takes `mem`'s oldest evicted line as an output element and returns
/// the write that commits it to the output matrix in HBM.
fn pop_write_back(mem: &mut NeuraMem, outputs: &mut Vec<(u64, f64)>) -> Option<MemoryRequest> {
    let evicted = mem.pop_evicted()?;
    outputs.push((evicted.tag, evicted.value));
    Some(MemoryRequest::write(compiler::layout::OUTPUT_BASE + evicted.tag * 8, 8))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TileSize;
    use crate::mapping::MappingKind;
    use neura_sparse::gen::{feature_matrix, GraphGenerator};
    use neura_sparse::spgemm;

    fn small_graph(nodes: usize, seed: u64) -> CsrMatrix {
        GraphGenerator::power_law(nodes, nodes * 6, 2.1, seed).generate().to_csr()
    }

    #[test]
    fn spgemm_result_matches_reference() {
        let a = small_graph(48, 1);
        let mut chip = Accelerator::new(ChipConfig::tile_4());
        let run = chip.run_spgemm(&a, &a).expect("simulation drains");
        let reference = spgemm::gustavson(&a, &a);
        assert_eq!(run.product.nnz(), reference.nnz());
        let diff = run.product.to_dense().max_abs_diff(&reference.to_dense()).unwrap();
        assert!(diff < 1e-9, "accelerator output diverged by {diff}");
        assert_eq!(run.report.evictions as usize, reference.nnz());
        assert!(run.report.total_cycles > 0);
        assert!(run.report.gops > 0.0);
    }

    #[test]
    fn aggregation_matches_reference_spmm() {
        let a = small_graph(40, 2);
        let x = feature_matrix(a.cols(), 4, 7);
        let mut chip = Accelerator::new(ChipConfig::tile_4());
        let run = chip.run_aggregation(&a, &x).expect("simulation drains");
        let reference = neura_sparse::spmm::spmm(&a, &x).unwrap();
        assert!(run.aggregated.max_abs_diff(&reference).unwrap() < 1e-9);
    }

    #[test]
    fn a_repeated_tag_keeps_its_last_eviction() {
        // The product of 3 × 3 diagonals stores tags 0, 4 and 8.
        let id = CsrMatrix::identity(3);
        let program = compiler::compile_spgemm(&id.to_csc(), &id, 4);
        let evictions = [(8, 1.0), (0, 2.0), (8, 3.0), (4, 4.0), (0, 5.0), (8, 6.0)];
        let product = scatter_into_pattern(program, &evictions);
        assert_eq!(product.col_idx(), [0, 1, 2]);
        assert_eq!(product.values(), [5.0, 4.0, 6.0]);
        let empty = CsrMatrix::zeros(3, 3);
        let program = compiler::compile_spgemm(&empty.to_csc(), &empty, 4);
        assert_eq!(scatter_into_pattern(program, &[]).nnz(), 0);
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let a = CsrMatrix::identity(4);
        let b = CsrMatrix::identity(5);
        let mut chip = Accelerator::new(ChipConfig::tile_4());
        assert!(matches!(chip.run_spgemm(&a, &b), Err(ChipError::Shape(_))));
    }

    #[test]
    fn larger_tiles_run_faster_on_the_same_workload() {
        let a = small_graph(64, 3);
        let mut t4 = Accelerator::new(ChipConfig::tile_4());
        let mut t16 = Accelerator::new(ChipConfig::tile_16());
        let run4 = t4.run_spgemm(&a, &a).unwrap();
        let run16 = t16.run_spgemm(&a, &a).unwrap();
        assert!(
            run16.report.total_cycles < run4.report.total_cycles,
            "Tile-16 ({}) should beat Tile-4 ({})",
            run16.report.total_cycles,
            run4.report.total_cycles
        );
    }

    #[test]
    fn all_mappings_produce_correct_results() {
        let a = small_graph(40, 4);
        let reference = spgemm::gustavson(&a, &a);
        for kind in MappingKind::ALL {
            let mut chip = Accelerator::new(ChipConfig::tile_4().with_mapping(kind));
            let run = chip.run_spgemm(&a, &a).expect("simulation drains");
            let diff = run.product.to_dense().max_abs_diff(&reference.to_dense()).unwrap();
            assert!(diff < 1e-9, "{} mapping diverged by {diff}", kind.name());
        }
    }

    #[test]
    fn drhm_balances_mem_work_better_than_ring() {
        use neura_sparse::stats::imbalance;
        // Load balance is a statistical property of the workload draw, so
        // compare the mappings on their mean peak/mean ratio across several
        // graphs rather than on a single (lucky or unlucky) seed.
        let seeds = [1u64, 2, 3, 4, 5, 6];
        let mean_imbalance = |kind: MappingKind| {
            let total: f64 = seeds
                .iter()
                .map(|&seed| {
                    let a = small_graph(96, seed);
                    let mut chip = Accelerator::new(ChipConfig::tile_16().with_mapping(kind));
                    let run = chip.run_spgemm(&a, &a).unwrap();
                    imbalance(&run.report.mem_work_histogram).0
                })
                .sum();
            total / seeds.len() as f64
        };
        let ring = mean_imbalance(MappingKind::Ring);
        let drhm = mean_imbalance(MappingKind::Drhm);
        assert!(
            drhm <= ring * 1.05,
            "DRHM mean peak/mean {drhm} should not exceed ring hashing {ring}"
        );
    }

    #[test]
    fn barrier_eviction_uses_more_hashpad_than_rolling() {
        let a = small_graph(64, 6);
        let run_with = |policy| {
            let mut chip = Accelerator::new(ChipConfig::tile_4().with_eviction(policy));
            chip.run_spgemm(&a, &a).unwrap().report
        };
        let rolling = run_with(EvictionPolicy::Rolling);
        let barrier = run_with(EvictionPolicy::Barrier);
        assert!(
            barrier.peak_hashpad_occupancy > rolling.peak_hashpad_occupancy,
            "barrier {} vs rolling {}",
            barrier.peak_hashpad_occupancy,
            rolling.peak_hashpad_occupancy
        );
        // Both still produce every output element.
        assert_eq!(barrier.evictions, rolling.evictions);
    }

    #[test]
    fn report_counts_are_internally_consistent() {
        let a = small_graph(48, 7);
        let (_, stats) = spgemm::multiply_counting(&a, &a);
        let mut chip = Accelerator::new(ChipConfig::tile_4());
        let run = chip.run_spgemm(&a, &a).unwrap();
        assert_eq!(run.report.hacc_instructions, stats.multiplications);
        assert_eq!(run.report.core_work_histogram.iter().sum::<u64>(), stats.multiplications);
        assert_eq!(run.report.mem_work_histogram.iter().sum::<u64>(), stats.multiplications);
        assert!(run.report.dram_bytes_read > 0);
        assert!(run.report.dram_bytes_written >= run.report.evictions * 8);
        assert!(run.report.core_utilization > 0.0 && run.report.core_utilization <= 1.0);
    }

    #[test]
    fn config_accessor_reflects_tile_size() {
        let chip = Accelerator::new(ChipConfig::tile_64());
        assert_eq!(chip.config().tile_size, TileSize::Tile64);
    }
}
