//! Opt-in chip-level profiler: windowed cycle attribution and a stall
//! taxonomy for the cycle simulator.
//!
//! [`crate::ExecutionReport`] is an end-of-run aggregate — it can say
//! *that* `core_stall_cycles` is high, never *when* or *why*. The
//! profiler adds the missing axes without touching the fast path: the
//! accelerator's run loop is generic over one crate-private observer
//! seam, `Observe`, whose methods all default to nothing. An unprofiled
//! run is the `()` instantiation — every observer call, and the
//! bookkeeping that feeds only observer calls, compiles away, so it
//! constructs nothing, records nothing and stays byte-identical (the
//! same contract the serving layer's `--trace` keeps for `serve.json`).
//! A profiled run is the [`Profiler`] instantiation: the loop feeds it
//! once per cycle and the profiler folds the observations into:
//!
//! 1. a **windowed timeline** — per fixed-width cycle window the
//!    per-core busy/stall/idle split, MMH/HACC retire counts, chip-wide
//!    HashPad occupancy peak and full-stall cycles, the NoC's peak
//!    packets in flight, and HBM's peak in-flight transactions and
//!    queued requests;
//! 2. a **stall taxonomy** — every core stall cycle is attributed to one
//!    [`StallCause`] by the dominant chip-level condition of that cycle,
//!    with precedence HashPad-full > NoC backpressure > dispatch
//!    starvation > operand fetch (a stalled NeuraCore is mechanically
//!    always waiting on operand reads; the taxonomy names the upstream
//!    condition that made those reads slow). Classification happens
//!    exactly once per observed stall, and a window's stall count *is*
//!    the sum of its buckets;
//! 3. **distributions** — an exact per-hop-count packet histogram (its
//!    weighted total equals `NetworkStats::total_hops`), plus mergeable
//!    [`LatencyHistogram`]s of hop counts and DRAM request latencies for
//!    percentile reporting.
//!
//! The NoC and memory-controller signals come in through their public
//! observation surface (`Packet::hops` of the packets the accelerator
//! drains from the NoC, and `MemoryController::queue_depths`) rather than
//! by threading the profiler *into* those crates — they sit
//! below `neura_chip` in the workspace DAG, and the accelerator already
//! owns the only loop that accounts for every unit every cycle (a core it
//! does not tick reaches the profiler as one of two per-cycle counts).
//!
//! A profile stores each count once, in its windows: every run total is
//! a fold over them ([`Profile::total`]), and the write-back drain
//! epilogue (where cores no longer tick) is the idle remainder of
//! `cores × total_cycles` that no window observed. So the totals cannot
//! disagree with the timeline; what [`Profile::check_conservation`] still
//! checks is that each window's busy + stall + idle covers exactly its
//! cores and cycles.
//!
//! Profiles serialize through `neura_lab` as a versioned
//! `neura_lab.profile/v1` artifact; the `profile` binary sweeps
//! (dataset × tile × HBM preset × shrink) and gates on the invariants.

use crate::neuracore::TickOutcome;
use neura_sim::LatencyHistogram;

/// Why a core stall cycle happened, by the dominant chip-level condition
/// of that cycle (see the module docs for the precedence order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallCause {
    /// Plain operand-fetch latency: the HBM round trip itself, with no
    /// upstream pressure observed that cycle.
    OperandFetch,
    /// A HashPad registered full-pad stalls that cycle: the accumulation
    /// side is saturated and its evictions compete with operand reads.
    HashpadFull,
    /// The NoC refused injections that cycle: router buffers are full
    /// and the resulting head-of-line blocking backs up the cores.
    NocBackpressure,
    /// The dispatcher had rows left but placed no instruction that
    /// cycle: cores starve behind an imbalanced tail.
    DispatchStarvation,
}

impl StallCause {
    /// Every cause, in bucket order.
    pub const ALL: [StallCause; 4] = [
        StallCause::OperandFetch,
        StallCause::HashpadFull,
        StallCause::NocBackpressure,
        StallCause::DispatchStarvation,
    ];

    /// Stable snake_case name (used for metric names).
    pub fn name(self) -> &'static str {
        match self {
            StallCause::OperandFetch => "operand_fetch",
            StallCause::HashpadFull => "hashpad_full",
            StallCause::NocBackpressure => "noc_backpressure",
            StallCause::DispatchStarvation => "dispatch_starvation",
        }
    }

    fn index(self) -> usize {
        match self {
            StallCause::OperandFetch => 0,
            StallCause::HashpadFull => 1,
            StallCause::NocBackpressure => 2,
            StallCause::DispatchStarvation => 3,
        }
    }
}

/// One fixed-width cycle window of the profile timeline. All core-cycle
/// counts are of `(core, cycle)` pairs, so per window
/// `busy + stall() + idle = cores × cycles-observed-in-window`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileWindow {
    /// First cycle of the window.
    pub start_cycle: u64,
    /// Cycles the window actually observed (the last window of a run is
    /// usually short).
    pub cycles: u64,
    /// Core-cycles spent computing or decoding.
    pub busy: u64,
    /// Core-cycles with no work.
    pub idle: u64,
    /// Core-cycles stalled on outstanding memory responses, per
    /// [`StallCause`], indexed by `StallCause::index`.
    pub stall_by: [u64; 4],
    /// MMH instructions retired by all cores in the window.
    pub mmh_retired: u64,
    /// HACC instructions processed by all NeuraMems in the window.
    pub hacc_retired: u64,
    /// Peak chip-wide HashPad occupancy (lines in use, summed over mems).
    pub pad_occupancy_peak: u64,
    /// HashPad full-stall cycles registered in the window (summed over mems).
    pub pad_full_stalls: u64,
    /// Peak NoC packets in flight (buffered or awaiting pickup).
    pub noc_in_flight_peak: u64,
    /// Peak in-flight HBM transactions (summed over channels).
    pub hbm_in_flight_peak: u64,
    /// Peak queued-but-unissued HBM requests on any single channel.
    pub hbm_queue_peak: u64,
}

impl ProfileWindow {
    /// Core-cycles stalled on outstanding memory responses: the sum of
    /// the cause buckets.
    pub fn stall(&self) -> u64 {
        self.stall_by.iter().sum()
    }

    /// Stall core-cycles attributed to `cause`.
    pub fn stall_by_cause(&self, cause: StallCause) -> u64 {
        self.stall_by[cause.index()]
    }

    /// Core-cycles the window accounted for: busy + stall + idle.
    fn core_cycles(&self) -> u64 {
        self.busy + self.stall() + self.idle
    }

    /// Stalled fraction of the window's observed core-cycles.
    pub fn stall_frac(&self) -> f64 {
        let total = self.core_cycles();
        if total == 0 {
            0.0
        } else {
            self.stall() as f64 / total as f64
        }
    }
}

/// A finished profile: the windowed timeline, the stall taxonomy and the
/// hop/DRAM-latency distributions of one simulated run.
///
/// It keeps only what its windows cannot give. Every run total is the sum
/// of its windows' values ([`Self::total`]), and the idle core-cycles of
/// the write-back drain epilogue are the remainder of
/// `cores × total_cycles` ([`Self::epilogue_idle`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Window width in cycles.
    pub window_cycles: u64,
    /// Total cycles of the run (including the write-back drain epilogue).
    pub total_cycles: u64,
    /// NeuraCores on the chip.
    pub cores: u64,
    /// NeuraMems on the chip.
    pub mems: u64,
    /// The timeline, one entry per window in cycle order.
    pub windows: Vec<ProfileWindow>,
    /// Exact delivered-packet hop distribution: `hop_counts[h]` packets
    /// crossed exactly `h` links. `Σ h × hop_counts[h]` equals the NoC's
    /// `total_hops`.
    pub hop_counts: Vec<u64>,
    /// Mergeable DRAM request-latency histogram, in cycles.
    pub dram_latency: LatencyHistogram,
    /// Per-channel peak queued-but-unissued requests, one entry per HBM
    /// channel (one memory controller per tile).
    pub channel_queue_peaks: Vec<u64>,
}

impl Profile {
    /// The run total of a window count: `profile.total(|w| w.busy)` is the
    /// busy core-cycles of the run, `profile.total(ProfileWindow::stall)`
    /// its stall core-cycles (== `core_stall_cycles`).
    pub fn total(&self, count: impl Fn(&ProfileWindow) -> u64) -> u64 {
        self.windows.iter().map(count).sum()
    }

    /// Core-cycles of the drain epilogue, where only the memory
    /// controllers tick and every core is idle by definition: the part of
    /// `cores × total_cycles` that no window observed (zero when the
    /// windows over-count, which [`Self::check_conservation`] reports).
    pub fn epilogue_idle(&self) -> u64 {
        (self.cores * self.total_cycles).saturating_sub(self.total(ProfileWindow::core_cycles))
    }

    /// Mergeable hop histogram (for percentile reporting and fleet-level
    /// aggregation; small integers bucket exactly): [`Self::hop_counts`]
    /// re-bucketed.
    pub fn hops(&self) -> LatencyHistogram {
        let mut hops = LatencyHistogram::new();
        for (h, &packets) in self.hop_counts.iter().enumerate() {
            hops.record_n(h as f64, packets);
        }
        hops
    }

    /// Peak in-flight HBM transactions (summed over channels) over the
    /// run: the largest window peak.
    pub fn hbm_in_flight_peak(&self) -> u64 {
        self.windows.iter().map(|w| w.hbm_in_flight_peak).max().unwrap_or(0)
    }

    /// Packets delivered by the NoC (the hop distribution's mass).
    pub fn noc_delivered(&self) -> u64 {
        self.hop_counts.iter().sum()
    }

    /// Total link crossings — must equal `NetworkStats::total_hops`.
    pub fn hops_total(&self) -> u64 {
        self.hop_counts.iter().enumerate().map(|(h, &n)| h as u64 * n).sum()
    }

    /// Stalled fraction of all core-cycles over the run.
    pub fn stall_frac(&self) -> f64 {
        let total = self.cores * self.total_cycles;
        if total == 0 {
            0.0
        } else {
            self.total(ProfileWindow::stall) as f64 / total as f64
        }
    }

    /// Index and stall fraction of the worst (most-stalled) window; ties
    /// resolve to the earliest window. `None` for an empty timeline.
    pub fn worst_window(&self) -> Option<(usize, f64)> {
        let mut worst: Option<(usize, f64)> = None;
        for (index, window) in self.windows.iter().enumerate() {
            let frac = window.stall_frac();
            if worst.is_none_or(|(_, best)| frac > best) {
                worst = Some((index, frac));
            }
        }
        worst
    }

    /// Checks that the timeline covers the run, returning the first
    /// violation as a message: each window's busy + stall + idle equals
    /// `cores × window.cycles`, and the windows observe at most
    /// `total_cycles` cycles.
    ///
    /// The rest of the conservation laws hold by construction: the run
    /// totals are sums of the windows, a window's stall count is the sum
    /// of its buckets, and the epilogue is the remainder of
    /// `cores × total_cycles`.
    pub fn check_conservation(&self) -> Result<(), String> {
        for (w, window) in self.windows.iter().enumerate() {
            let split = window.core_cycles();
            if split != self.cores * window.cycles {
                return Err(format!(
                    "window {w}: busy+stall+idle is {split} over {} cycles of {} cores",
                    window.cycles, self.cores
                ));
            }
        }
        let observed = self.total(|w| w.cycles);
        if observed > self.total_cycles {
            return Err(format!(
                "the windows observe {observed} cycles but the run spans {}",
                self.total_cycles
            ));
        }
        Ok(())
    }
}

/// Per-cycle scratch state, reset when the [`Profiler`] opens a cycle and
/// folded into the current window when it closes it.
#[derive(Debug, Clone, Copy, Default)]
struct CycleScratch {
    busy: u64,
    stall: u64,
    idle: u64,
    mmh_retired: u64,
    hacc_retired: u64,
    pad_full_stalls: u64,
    noc_backpressure: bool,
    dispatch_starved: bool,
}

/// What the accelerator's cycle loop reports while it runs. Every method
/// defaults to nothing and the loop is generic over the observer, so the
/// `()` instantiation is the bare loop; [`Profiler`] is the recording one.
pub(crate) trait Observe {
    /// Opens cycle `cycle`.
    fn begin_cycle(&mut self, _cycle: u64) {}
    /// The dispatcher had work but placed nothing this cycle.
    fn note_dispatch_starved(&mut self) {}
    /// One core's tick outcome and retire count.
    fn record_core_tick(&mut self, _outcome: TickOutcome, _mmh: u32) {}
    /// The settled cores the cycle did not tick: how many of them wait on
    /// operands and how many have no work.
    fn record_cores_asleep(&mut self, _stalled: u64, _idle: u64) {}
    /// The NoC refused at least one injection this cycle.
    fn note_noc_backpressure(&mut self) {}
    /// The NoC's in-flight packet count after its tick.
    fn record_noc_in_flight(&mut self, _in_flight: u64) {}
    /// One delivered packet's hop count.
    fn record_hops(&mut self, _hops: u32) {}
    /// One NeuraMem's tick or barrier: its occupied hash-lines before and
    /// after, and the full-stall cycles and HACCs the step added.
    fn record_mem(&mut self, _before: usize, _after: usize, _pad_full: u64, _haccs: u64) {}
    /// One completed DRAM request's latency in cycles (also during the
    /// drain epilogue, where no cycle is open).
    fn record_dram_response(&mut self, _latency: u64) {}
    /// One channel's queued-but-unissued request count after its tick.
    fn record_channel(&mut self, _channel: usize, _queued: u64) {}
    /// The chip-wide in-flight HBM transaction count.
    fn record_hbm_in_flight(&mut self, _in_flight: u64) {}
    /// Closes the cycle.
    fn end_cycle(&mut self) {}
    /// The run drained after `total_cycles` (write-back epilogue included).
    fn finalize(&mut self, _total_cycles: u64, _cores: u64, _mems: u64, _channels: u64) {}
}

/// The unobserved run.
impl Observe for () {}

/// The recording half: created by a caller, handed to
/// [`crate::Accelerator::run_spgemm_profiled`], which runs the cycle loop
/// with it as the observer, and consumed with [`Profiler::into_profile`]
/// after the run.
#[derive(Debug)]
pub struct Profiler {
    window_cycles: u64,
    windows: Vec<ProfileWindow>,
    scratch: CycleScratch,
    in_cycle: bool,
    /// Occupied hash-lines chip-wide, kept in step with every NeuraMem
    /// tick and barrier so no cycle re-sums the NeuraMems.
    pad_occupancy: u64,
    hop_counts: Vec<u64>,
    dram_latency: LatencyHistogram,
    channel_queue_peaks: Vec<u64>,
    finished: Option<Profile>,
}

/// Default window width: coarse enough that paper-scale runs stay in the
/// hundreds of windows, fine enough that smoke runs still get several.
pub const DEFAULT_WINDOW_CYCLES: u64 = 1024;

impl Profiler {
    /// Creates a profiler with the given window width in cycles.
    ///
    /// # Panics
    ///
    /// Panics when `window_cycles` is zero.
    pub fn new(window_cycles: u64) -> Self {
        assert!(window_cycles > 0, "profile window width must be positive");
        Profiler {
            window_cycles,
            windows: Vec::new(),
            scratch: CycleScratch::default(),
            in_cycle: false,
            pad_occupancy: 0,
            hop_counts: Vec::new(),
            dram_latency: LatencyHistogram::new(),
            channel_queue_peaks: Vec::new(),
            finished: None,
        }
    }

    /// The finished profile.
    ///
    /// # Panics
    ///
    /// Panics when the profiler was never run through the accelerator.
    pub fn into_profile(self) -> Profile {
        self.finished.expect("profiler was not run: pass it to a *_profiled entry point first")
    }

    fn current_window(&mut self) -> &mut ProfileWindow {
        self.windows.last_mut().expect("begin_cycle opened a window")
    }
}

impl Observe for Profiler {
    /// Opens cycle `cycle`, rolling to a new window at each boundary.
    fn begin_cycle(&mut self, cycle: u64) {
        debug_assert!(!self.in_cycle, "begin_cycle without end_cycle");
        self.in_cycle = true;
        if self.windows.is_empty() || cycle.is_multiple_of(self.window_cycles) {
            self.windows.push(ProfileWindow { start_cycle: cycle, ..ProfileWindow::default() });
        }
        self.current_window().cycles += 1;
        self.scratch = CycleScratch::default();
    }

    fn record_core_tick(&mut self, outcome: TickOutcome, mmh: u32) {
        match outcome {
            TickOutcome::Busy => self.scratch.busy += 1,
            TickOutcome::Stalled => self.scratch.stall += 1,
            TickOutcome::Idle => self.scratch.idle += 1,
        }
        self.scratch.mmh_retired += u64::from(mmh);
    }

    fn record_cores_asleep(&mut self, stalled: u64, idle: u64) {
        self.scratch.stall += stalled;
        self.scratch.idle += idle;
    }

    fn note_noc_backpressure(&mut self) {
        self.scratch.noc_backpressure = true;
    }

    fn note_dispatch_starved(&mut self) {
        self.scratch.dispatch_starved = true;
    }

    fn record_hops(&mut self, hops: u32) {
        let h = hops as usize;
        if self.hop_counts.len() <= h {
            self.hop_counts.resize(h + 1, 0);
        }
        self.hop_counts[h] += 1;
    }

    fn record_noc_in_flight(&mut self, in_flight: u64) {
        let window = self.current_window();
        window.noc_in_flight_peak = window.noc_in_flight_peak.max(in_flight);
    }

    fn record_mem(&mut self, before: usize, after: usize, pad_full: u64, haccs: u64) {
        self.pad_occupancy = self.pad_occupancy + after as u64 - before as u64;
        self.scratch.pad_full_stalls += pad_full;
        self.scratch.hacc_retired += haccs;
    }

    /// The histogram is aggregate, not windowed, so the epilogue's late
    /// write-backs still count.
    fn record_dram_response(&mut self, latency: u64) {
        self.dram_latency.record(latency as f64);
    }

    /// Keeps the channel's own peak and, per window, the largest depth
    /// any single channel reached.
    fn record_channel(&mut self, channel: usize, queued: u64) {
        if self.channel_queue_peaks.len() <= channel {
            self.channel_queue_peaks.resize(channel + 1, 0);
        }
        self.channel_queue_peaks[channel] = self.channel_queue_peaks[channel].max(queued);
        let window = self.current_window();
        window.hbm_queue_peak = window.hbm_queue_peak.max(queued);
    }

    fn record_hbm_in_flight(&mut self, in_flight: u64) {
        let window = self.current_window();
        window.hbm_in_flight_peak = window.hbm_in_flight_peak.max(in_flight);
    }

    /// Closes the cycle: attributes the cycle's stalls to their cause and
    /// folds the scratch counters into the current window.
    fn end_cycle(&mut self) {
        debug_assert!(self.in_cycle, "end_cycle without begin_cycle");
        self.in_cycle = false;
        let scratch = self.scratch;
        let cause = if scratch.pad_full_stalls > 0 {
            StallCause::HashpadFull
        } else if scratch.noc_backpressure {
            StallCause::NocBackpressure
        } else if scratch.dispatch_starved {
            StallCause::DispatchStarvation
        } else {
            StallCause::OperandFetch
        };
        let pad_occupancy = self.pad_occupancy;
        let window = self.current_window();
        window.pad_occupancy_peak = window.pad_occupancy_peak.max(pad_occupancy);
        window.busy += scratch.busy;
        window.idle += scratch.idle;
        window.stall_by[cause.index()] += scratch.stall;
        window.mmh_retired += scratch.mmh_retired;
        window.hacc_retired += scratch.hacc_retired;
        window.pad_full_stalls += scratch.pad_full_stalls;
    }

    /// Seals the profile once the run drains. `total_cycles` includes the
    /// write-back epilogue the windows never saw; its core-cycles are
    /// [`Profile::epilogue_idle`].
    fn finalize(&mut self, total_cycles: u64, cores: u64, mems: u64, channels: u64) {
        debug_assert!(!self.in_cycle, "finalize inside an open cycle");
        let windows = std::mem::take(&mut self.windows);
        let observed: u64 = windows.iter().map(ProfileWindow::core_cycles).sum();
        let expected = cores * total_cycles;
        assert!(
            observed <= expected,
            "profiler observed {observed} core-cycles but the run only spans {expected}"
        );
        let mut channel_queue_peaks = std::mem::take(&mut self.channel_queue_peaks);
        channel_queue_peaks.resize(channels as usize, 0);
        self.finished = Some(Profile {
            window_cycles: self.window_cycles,
            total_cycles,
            cores,
            mems,
            windows,
            hop_counts: std::mem::take(&mut self.hop_counts),
            dram_latency: std::mem::take(&mut self.dram_latency),
            channel_queue_peaks,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two full windows of 3 cycles on 2 cores, in a 10-cycle run.
    fn two_windows() -> Profile {
        let window = |start_cycle| ProfileWindow {
            start_cycle,
            cycles: 3,
            busy: 2,
            idle: 1,
            stall_by: [1, 1, 0, 1],
            ..ProfileWindow::default()
        };
        Profile {
            window_cycles: 3,
            total_cycles: 10,
            cores: 2,
            mems: 2,
            windows: vec![window(0), window(3)],
            hop_counts: Vec::new(),
            dram_latency: LatencyHistogram::new(),
            channel_queue_peaks: vec![0],
        }
    }

    #[test]
    fn check_conservation_holds_each_window_and_the_run_to_their_cover() {
        let mut profile = two_windows();
        assert_eq!(profile.check_conservation(), Ok(()));
        assert_eq!(profile.total(ProfileWindow::stall), 6);
        assert_eq!(profile.epilogue_idle(), 2 * 10 - 2 * 6, "the four unobserved cycles");

        profile.windows[1].idle -= 1;
        let err = profile.check_conservation().unwrap_err();
        assert!(err.starts_with("window 1: busy+stall+idle is 5 over 3 cycles"), "{err}");

        let mut profile = two_windows();
        profile.total_cycles = 5;
        let err = profile.check_conservation().unwrap_err();
        assert_eq!(err, "the windows observe 6 cycles but the run spans 5");
    }
}
