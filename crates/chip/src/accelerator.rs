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

use crate::compiler::{self, Program};
use crate::config::{ChipConfig, EvictionPolicy};
use crate::dispatcher::{DispatchPolicy, Dispatcher};
use crate::inthash::IntMap;
use crate::isa::HaccInstruction;
use crate::mapping::ComputeMapping;
use crate::neuracore::{CoreTickOutput, NeuraCore};
use crate::neuramem::NeuraMem;
use crate::profile::Profiler;
use neura_mem::{MemoryController, MemoryRequest, MemoryResponse};
use neura_noc::{Packet, TorusNetwork, TorusTopology};
use neura_sim::{Cycle, Histogram};
use neura_sparse::{CooMatrix, CsrMatrix, DenseMatrix, SparseError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors produced while running a workload on the accelerator model.
#[derive(Debug, Clone, PartialEq)]
pub enum ChipError {
    /// The simulation hit its cycle budget before the machine drained.
    Incomplete {
        /// Cycles simulated before giving up.
        cycles: u64,
        /// Partial products still unaccounted for.
        outstanding_haccs: u64,
    },
    /// The workload matrices had incompatible shapes.
    Shape(SparseError),
}

impl fmt::Display for ChipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChipError::Incomplete { cycles, outstanding_haccs } => write!(
                f,
                "simulation did not drain within {cycles} cycles ({outstanding_haccs} partial products outstanding)"
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
    /// Mean number of in-flight HBM transactions per cycle (memory pressure).
    pub avg_in_flight_mem: f64,
    /// Peak number of in-flight HBM transactions.
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

impl ExecutionReport {
    /// Speedup of this run relative to another (ratio of execution times).
    pub fn speedup_over(&self, other: &ExecutionReport) -> f64 {
        if self.execution_seconds == 0.0 {
            0.0
        } else {
            other.execution_seconds / self.execution_seconds
        }
    }
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
/// be resubmitted.
#[derive(Debug, Clone, Copy)]
struct RetryRead {
    tile: usize,
    core: usize,
    pipeline: usize,
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

/// Sorts eviction-ordered outputs by tag and keeps, of a tag evicted more
/// than once, the entry evicted last.
fn last_write_per_tag(mut outputs: Vec<(u64, f64)>) -> Vec<(u64, f64)> {
    // Stable, so entries of one tag stay in eviction order.
    outputs.sort_by_key(|&(tag, _)| tag);
    outputs.reverse();
    outputs.dedup_by_key(|&mut (tag, _)| tag);
    outputs.reverse();
    outputs
}

/// The NeuraChip accelerator model.
#[derive(Debug)]
pub struct Accelerator {
    config: ChipConfig,
    max_cycles_override: Option<u64>,
}

impl Accelerator {
    /// Creates an accelerator with the given configuration.
    pub fn new(config: ChipConfig) -> Self {
        Accelerator { config, max_cycles_override: None }
    }

    /// The accelerator configuration.
    pub fn config(&self) -> &ChipConfig {
        &self.config
    }

    /// Overrides the simulation cycle budget (mainly for tests).
    pub fn with_max_cycles(mut self, max_cycles: u64) -> Self {
        self.max_cycles_override = Some(max_cycles);
        self
    }

    /// Runs the SpGEMM `C = A × B` and returns the product with statistics.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::Shape`] when the shapes are incompatible and
    /// [`ChipError::Incomplete`] if the simulation fails to drain.
    pub fn run_spgemm(&mut self, a: &CsrMatrix, b: &CsrMatrix) -> Result<SpgemmRun, ChipError> {
        self.run_spgemm_profiled(a, b, None)
    }

    /// [`Self::run_spgemm`] with an optional [`Profiler`] attached.
    ///
    /// With `Some(profiler)` the run loop feeds the profiler once per
    /// cycle (windowed busy/stall/idle attribution, stall taxonomy, hop
    /// and DRAM-latency distributions); call
    /// [`Profiler::into_profile`] afterwards. With `None` this is
    /// exactly [`Self::run_spgemm`]: nothing is constructed and the
    /// simulation is byte-identical.
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
        let mut coo = CooMatrix::new(a.rows(), b.cols());
        for (tag, value) in last_write_per_tag(outputs) {
            let (r, c) = program.coords_of(tag);
            coo.push(r, c, value).expect("tag coordinates are in bounds");
        }
        Ok(SpgemmRun { product: coo.to_csr(), report })
    }

    /// Runs the GCN aggregation `A × X` with dense features `X`.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::Shape`] when the shapes are incompatible and
    /// [`ChipError::Incomplete`] if the simulation fails to drain.
    pub fn run_aggregation(
        &mut self,
        a: &CsrMatrix,
        features: &DenseMatrix,
    ) -> Result<AggregationRun, ChipError> {
        if a.cols() != features.rows() {
            return Err(ChipError::Shape(SparseError::ShapeMismatch {
                left: (a.rows(), a.cols()),
                right: (features.rows(), features.cols()),
            }));
        }
        let program = compiler::compile_aggregation(&a.to_csc(), features, self.config.mmh_tile);
        let (outputs, report) = self.run(&program, None)?;
        let mut aggregated = DenseMatrix::zeros(a.rows(), features.cols());
        // In eviction order, so a later write to a tag replaces an earlier one.
        for (tag, value) in outputs {
            let (r, c) = program.coords_of(tag);
            *aggregated.get_mut(r, c) = value;
        }
        Ok(AggregationRun { aggregated, report })
    }

    /// Executes a compiled [`Program`] cycle by cycle, feeding the
    /// optional [`Profiler`] once per cycle (see
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
    /// Returns [`ChipError::Incomplete`] if the machine fails to drain within
    /// the cycle budget.
    fn run(
        &mut self,
        program: &Program,
        mut profiler: Option<&mut Profiler>,
    ) -> Result<(Vec<(u64, f64)>, ExecutionReport), ChipError> {
        let cfg = &self.config;
        let total_cores = cfg.total_cores();
        let total_mems = cfg.total_mems();

        // --- build the machine ---------------------------------------------
        let mut cores: Vec<NeuraCore> =
            (0..total_cores).map(|i| NeuraCore::new(i, i / cfg.cores_per_tile, cfg.core)).collect();
        for core in &mut cores {
            core.prepare(program.output_shape.1 as u64);
        }
        let mut mems: Vec<NeuraMem> =
            (0..total_mems).map(|i| NeuraMem::new(i, cfg.mem, cfg.eviction)).collect();
        let mut controllers: Vec<MemoryController> = (0..cfg.tiles)
            .map(|t| MemoryController::new(t, cfg.hbm, cfg.mem_queue_capacity))
            .collect();
        let topology = TorusTopology::for_nodes(total_cores + total_mems);
        let mut noc = TorusNetwork::new(topology, cfg.router_buffer)
            .with_links_per_cycle(cfg.core.ports.max(2));
        let mut mapping: Box<dyn ComputeMapping> = cfg.mapping.build(total_mems, cfg.seed);
        let mut dispatcher =
            Dispatcher::new(program, total_cores, DispatchPolicy::LeastLoaded, total_cores.max(4));

        // NoC node ids: cores first, then mems.
        let core_node = |core: usize| core;
        let mem_node = |mem: usize| total_cores + mem;
        let mem_tile = |mem: usize| mem / cfg.mems_per_tile;
        let out_cols = program.output_shape.1.max(1) as u64;

        // --- bookkeeping -----------------------------------------------------
        let mut outputs: Vec<(u64, f64)> = Vec::with_capacity(program.output_nnz);
        let mut payloads = PayloadSlab::default();
        // Issuing (core, pipeline) of every outstanding read, per tile by request id.
        let mut read_owner: Vec<IntMap<(usize, usize)>> = vec![IntMap::default(); cfg.tiles];
        let mut retry_reads: Vec<RetryRead> = Vec::new();
        let mut retry_injections: Vec<Packet> = Vec::new();
        let mut retry_accepts: Vec<(usize, HaccInstruction)> = Vec::new(); // (mem, hacc)
        let mut retry_writebacks: Vec<(usize, MemoryRequest)> = Vec::new(); // (tile, req)

        // Per-cycle scratch, allocated once.
        let mut can_accept: Vec<bool> = Vec::with_capacity(total_cores);
        let mut load: Vec<usize> = Vec::with_capacity(total_cores);
        let mut core_out = CoreTickOutput::default();
        let mut refused: Vec<Packet> = Vec::new();
        let mut delivered: Vec<Packet> = Vec::new();
        let mut done: Vec<MemoryResponse> = Vec::new();

        let mut in_flight_samples = 0u128;
        let mut peak_in_flight = 0usize;
        // Occupied hash-lines chip-wide, kept in step with every tick and
        // barrier so the profiler never re-sums the NeuraMems.
        let mut pad_occupancy = 0u64;

        let max_cycles = self
            .max_cycles_override
            .unwrap_or_else(|| 200_000 + program.total_partial_products * 200);

        let mut cycle = 0u64;
        let mut drained = false;
        while cycle < max_cycles {
            let now = Cycle(cycle);
            if let Some(prof) = profiler.as_deref_mut() {
                prof.begin_cycle(cycle);
            }
            let rejected_before = noc.stats().injection_rejected;

            // (1) Dispatch MMH instructions.
            if !dispatcher.is_done() {
                can_accept.clear();
                can_accept.extend(cores.iter().map(NeuraCore::can_accept));
                load.clear();
                load.extend(cores.iter().map(NeuraCore::load));
                let dispatched_before = dispatcher.stats().dispatched;
                dispatcher.dispatch_cycle(&can_accept, &load, |core_idx, instr| {
                    cores[core_idx].accept(instr)
                });
                if let Some(prof) = profiler.as_deref_mut() {
                    if !dispatcher.is_done() && dispatcher.stats().dispatched == dispatched_before {
                        prof.note_dispatch_starved();
                    }
                }
            }

            // Barrier-eviction baseline: completed hash-lines are only
            // released under capacity pressure (the "emergency barrier"),
            // otherwise they stay resident until the end of the program.
            if cfg.eviction == EvictionPolicy::Barrier {
                for mem in &mut mems {
                    let occupied = mem.occupancy();
                    if occupied * 10 >= cfg.mem.hashlines * 9 {
                        mem.barrier(now);
                        pad_occupancy -= (occupied - mem.occupancy()) as u64;
                    }
                }
            }

            // Retry previously rejected memory requests before new ones.
            retry_reads.retain(|retry| match controllers[retry.tile].submit(retry.request, now) {
                Some(id) => {
                    read_owner[retry.tile].insert(id.0, (retry.core, retry.pipeline));
                    false
                }
                None => true,
            });

            // (2, 5) Tick the cores: collect memory requests and HACCs.
            for (core_idx, core) in cores.iter_mut().enumerate() {
                let credit = if retry_injections.len() > 256 { 0 } else { cfg.core.ports };
                core.tick(now, credit, &mut core_out);
                if let Some(prof) = profiler.as_deref_mut() {
                    prof.record_core_tick(core_out.outcome, core_out.mmh_retired);
                }
                let tile = core.tile();
                for req in &core_out.memory_requests {
                    match controllers[tile].submit(req.request, now) {
                        Some(id) => {
                            read_owner[tile].insert(id.0, (core_idx, req.pipeline));
                        }
                        None => retry_reads.push(RetryRead {
                            tile,
                            core: core_idx,
                            pipeline: req.pipeline,
                            request: req.request,
                        }),
                    }
                }
                for &hacc in &core_out.haccs {
                    let mem_idx = mapping.map(hacc.tag, hacc.tag / out_cols);
                    let packet = Packet::new(
                        payloads.insert(hacc),
                        core_node(core_idx),
                        mem_node(mem_idx),
                        HaccInstruction::BYTES,
                    );
                    if let Err(p) = noc.inject(packet, now) {
                        retry_injections.push(p);
                    }
                }
            }

            // Retry NoC injections that were previously refused.
            for packet in retry_injections.drain(..) {
                if let Err(p) = noc.inject(packet, now) {
                    refused.push(p);
                }
            }
            std::mem::swap(&mut retry_injections, &mut refused);
            if let Some(prof) = profiler.as_deref_mut() {
                if noc.stats().injection_rejected > rejected_before {
                    prof.note_noc_backpressure();
                }
            }

            // (6) Advance the NoC.
            noc.tick(now);
            if let Some(prof) = profiler.as_deref_mut() {
                prof.record_noc_in_flight(noc.in_flight() as u64);
            }

            // (7) Deliver HACCs to NeuraMems and tick them.
            retry_accepts.retain(|&(mem_idx, hacc)| !mems[mem_idx].accept(hacc));

            let mut pad_full_stalls = 0u64;
            let mut haccs_processed = 0u64;
            for (mem_idx, mem) in mems.iter_mut().enumerate() {
                if noc.waiting_at(mem_node(mem_idx)) == 0 && mem.is_idle() {
                    // Nothing arrived, is buffered or awaits write-back: the
                    // tick counts an idle cycle and the rest has no effect.
                    mem.tick(now);
                    continue;
                }
                noc.drain_delivered_into(mem_node(mem_idx), &mut delivered);
                for packet in delivered.drain(..) {
                    if let Some(prof) = profiler.as_deref_mut() {
                        prof.record_hops(packet.hops);
                    }
                    let hacc = payloads.remove(packet.id);
                    if !mem.accept(hacc) {
                        retry_accepts.push((mem_idx, hacc));
                    }
                }
                let (stalls_before, haccs_before, occupied_before) =
                    (mem.stats().pad_full_stalls, mem.stats().haccs_processed, mem.occupancy());
                mem.tick(now);
                pad_full_stalls += mem.stats().pad_full_stalls - stalls_before;
                haccs_processed += mem.stats().haccs_processed - haccs_before;
                pad_occupancy = pad_occupancy + mem.occupancy() as u64 - occupied_before as u64;
                // (8) Collect evictions and write them back.
                while let Some(evicted) = mem.pop_evicted() {
                    outputs.push((evicted.tag, evicted.value));
                    let addr = compiler::layout::OUTPUT_BASE + evicted.tag * 8;
                    let request = MemoryRequest::write(addr, 8);
                    let tile = mem_tile(mem_idx);
                    if controllers[tile].submit(request, now).is_none() {
                        retry_writebacks.push((tile, request));
                    }
                }
            }

            // Retry write-backs rejected earlier.
            retry_writebacks
                .retain(|(tile, request)| controllers[*tile].submit(*request, now).is_none());

            if let Some(prof) = profiler.as_deref_mut() {
                prof.record_mems(pad_occupancy, pad_full_stalls, haccs_processed);
            }

            // (3, 4) Tick the memory controllers and deliver read responses.
            // Responses of one cycle arrive in no particular order: each is a
            // counter decrement here and a histogram sample in the profiler.
            let mut in_flight_now = 0usize;
            for (tile, controller) in controllers.iter_mut().enumerate() {
                done.clear();
                controller.tick(now, &mut done);
                in_flight_now += controller.in_flight();
                if let Some(prof) = profiler.as_deref_mut() {
                    let (reads, writes) = controller.queue_depths();
                    prof.record_channel(tile, (reads + writes) as u64);
                    for response in &done {
                        prof.record_dram_response(response.latency());
                    }
                }
                for response in &done {
                    if response.request.is_read() {
                        if let Some((core_idx, pipeline)) = read_owner[tile].remove(&response.id.0)
                        {
                            cores[core_idx].memory_response(pipeline);
                        }
                    }
                }
            }
            in_flight_samples += in_flight_now as u128;
            peak_in_flight = peak_in_flight.max(in_flight_now);
            if let Some(prof) = profiler.as_deref_mut() {
                prof.record_hbm_in_flight(in_flight_now as u64);
                prof.end_cycle();
            }

            // Termination check.
            let machine_idle = dispatcher.is_done()
                && cores.iter().all(NeuraCore::is_idle)
                && noc.in_flight() == 0
                && retry_injections.is_empty()
                && retry_accepts.is_empty()
                && retry_reads.is_empty()
                && mems.iter().all(|m| m.backlog() == 0)
                && controllers.iter().all(|c| c.pending() == 0);
            if machine_idle {
                // Barrier-mode residue (and any malformed counters) flushes here.
                // The flushed lines still owe their write-back traffic, which is
                // drained in the epilogue below so that deferring evictions
                // (HACC-BE) cannot dodge the output-write cost.
                for (mem_idx, mem) in mems.iter_mut().enumerate() {
                    mem.barrier(now);
                    mem.flush(now);
                    while let Some(evicted) = mem.pop_evicted() {
                        outputs.push((evicted.tag, evicted.value));
                        let addr = compiler::layout::OUTPUT_BASE + evicted.tag * 8;
                        retry_writebacks.push((mem_tile(mem_idx), MemoryRequest::write(addr, 8)));
                    }
                }
                // Epilogue: keep ticking the memory system until every
                // outstanding write-back has been committed to DRAM.
                while (!retry_writebacks.is_empty() || controllers.iter().any(|c| c.pending() > 0))
                    && cycle < max_cycles
                {
                    let now = Cycle(cycle);
                    retry_writebacks.retain(|(tile, request)| {
                        controllers[*tile].submit(*request, now).is_none()
                    });
                    for controller in controllers.iter_mut() {
                        done.clear();
                        controller.tick(now, &mut done);
                        if let Some(prof) = profiler.as_deref_mut() {
                            // Epilogue write-backs count toward the aggregate
                            // DRAM-latency distribution (no window is open).
                            for response in &done {
                                prof.record_dram_response(response.latency());
                            }
                        }
                    }
                    cycle += 1;
                }
                // The budget bounds `total_cycles`: if it ran out in the epilogue,
                // write-backs are uncommitted or the closing cycle does not fit.
                if cycle < max_cycles {
                    drained = true;
                    cycle += 1;
                }
                break;
            }
            cycle += 1;
        }

        if !drained {
            return Err(ChipError::Incomplete {
                cycles: cycle,
                outstanding_haccs: program
                    .total_partial_products
                    .saturating_sub(mems.iter().map(|m| m.stats().haccs_processed).sum::<u64>()),
            });
        }

        // --- assemble the report --------------------------------------------
        let total_cycles = cycle;
        if let Some(prof) = profiler {
            prof.finalize(total_cycles, total_cores as u64, total_mems as u64, cfg.tiles as u64);
        }
        let mut mmh_cpi_histogram = Histogram::new(25, 20);
        let mut hacc_latency_histogram = Histogram::new(50, 20);
        let mut core_busy = 0u64;
        let mut core_stall = 0u64;
        let mut core_idle = 0u64;
        let mut core_work = Vec::with_capacity(total_cores);
        for core in &cores {
            let stats = core.stats();
            core_busy += stats.busy_cycles;
            core_stall += stats.stall_cycles;
            core_idle += stats.idle_cycles;
            core_work.push(stats.haccs_generated);
            mmh_cpi_histogram.merge(core.cpi_histogram());
        }
        let mut mem_work = Vec::with_capacity(total_mems);
        let mut peak_pad = 0usize;
        let mut pad_stalls = 0u64;
        let mut collisions = 0u64;
        let mut evictions = 0u64;
        for mem in &mems {
            let stats = mem.stats();
            mem_work.push(stats.haccs_processed);
            peak_pad = peak_pad.max(stats.peak_occupancy);
            pad_stalls += stats.pad_full_stalls;
            collisions += stats.collisions;
            evictions += stats.evictions;
            hacc_latency_histogram.merge(mem.hacc_latency_histogram());
        }
        let mmh_instructions: u64 = cores.iter().map(|c| c.stats().mmh_completed).sum();
        let hacc_instructions: u64 = mems.iter().map(|m| m.stats().haccs_processed).sum();
        let dram_bytes_read: u64 = controllers.iter().map(|c| c.stats().bytes_read).sum();
        let dram_bytes_written: u64 = controllers.iter().map(|c| c.stats().bytes_written).sum();
        let mean_dram_latency = {
            let completed: u64 = controllers.iter().map(|c| c.stats().completed).sum();
            let latency: u64 = controllers.iter().map(|c| c.stats().total_latency).sum();
            if completed == 0 {
                0.0
            } else {
                latency as f64 / completed as f64
            }
        };
        let execution_seconds = total_cycles as f64 / (self.config.frequency_ghz * 1e9);
        let gops = if execution_seconds > 0.0 {
            2.0 * program.total_partial_products as f64 / execution_seconds / 1e9
        } else {
            0.0
        };
        let report = ExecutionReport {
            total_cycles,
            mmh_instructions,
            hacc_instructions,
            core_busy_cycles: core_busy,
            core_stall_cycles: core_stall,
            core_idle_cycles: core_idle,
            cpi: mmh_cpi_histogram.mean(),
            ipc: if total_cycles == 0 {
                0.0
            } else {
                mmh_instructions as f64 / total_cycles as f64
            },
            mmh_cpi_histogram,
            hacc_latency_histogram,
            core_work_histogram: core_work,
            mem_work_histogram: mem_work,
            avg_in_flight_mem: if total_cycles == 0 {
                0.0
            } else {
                in_flight_samples as f64 / total_cycles as f64
            },
            peak_in_flight_mem: peak_in_flight,
            dram_bytes_read,
            dram_bytes_written,
            mean_dram_latency,
            noc_packets: noc.stats().delivered,
            noc_mean_latency: noc.stats().mean_latency(),
            noc_mean_hops: noc.stats().mean_hops(),
            peak_hashpad_occupancy: peak_pad,
            hashpad_full_stalls: pad_stalls,
            hash_collisions: collisions,
            evictions,
            execution_seconds,
            gops,
            core_utilization: if total_cycles == 0 {
                0.0
            } else {
                core_busy as f64 / (total_cycles as f64 * total_cores as f64)
            },
        };
        Ok((outputs, report))
    }
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
        let evictions = vec![(7, 1.0), (2, 2.0), (7, 3.0), (5, 4.0), (2, 5.0), (7, 6.0)];
        assert_eq!(last_write_per_tag(evictions), [(2, 5.0), (5, 4.0), (7, 6.0)]);
        assert_eq!(last_write_per_tag(Vec::new()), []);
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
    fn incomplete_simulation_is_detected() {
        let a = small_graph(48, 8);
        let mut chip = Accelerator::new(ChipConfig::tile_4()).with_max_cycles(5);
        assert!(matches!(chip.run_spgemm(&a, &a), Err(ChipError::Incomplete { .. })));
    }

    /// A budget is a bound on `total_cycles`: one cycle short of the full
    /// run must fail even when the machine itself has gone idle and only the
    /// write-back epilogue (long under barrier eviction) is still running.
    #[test]
    fn cycle_budget_is_honoured_through_the_writeback_epilogue() {
        let a = small_graph(48, 8);
        for policy in [EvictionPolicy::Rolling, EvictionPolicy::Barrier] {
            let config = ChipConfig::tile_4().with_eviction(policy);
            let run_within = |budget: Option<u64>| {
                let chip = Accelerator::new(config.clone());
                let mut chip = match budget {
                    Some(budget) => chip.with_max_cycles(budget),
                    None => chip,
                };
                chip.run_spgemm(&a, &a).map(|run| run.report)
            };
            let full = run_within(None).expect("simulation drains");
            let total = full.total_cycles;
            for budget in total - 60..total {
                match run_within(Some(budget)) {
                    Err(ChipError::Incomplete { cycles, .. }) => assert_eq!(cycles, budget),
                    other => panic!("{policy:?}: budget {budget} of {total} gave {other:?}"),
                }
            }
            let exact = run_within(Some(total)).expect("the full run fits its own length");
            assert_eq!(format!("{exact:?}"), format!("{full:?}"));
        }
    }

    #[test]
    fn config_accessor_reflects_tile_size() {
        let chip = Accelerator::new(ChipConfig::tile_64());
        assert_eq!(chip.config().tile_size, TileSize::Tile64);
    }
}
