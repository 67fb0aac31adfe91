//! Per-tile memory controller with request coalescing.
//!
//! Step 3 of the paper's on-chip dataflow: "The Memory Controller coalesces
//! requests for contiguous memory locations into a singular transaction and
//! reorganizes memory transactions to enhance spatial locality."

use crate::channel::Channel;
use crate::request::{MemoryRequest, MemoryResponse, RequestId, RequestKind};
use crate::HbmTiming;
use neura_sim::Cycle;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Aggregate statistics exported by a [`MemoryController`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ControllerStats {
    /// Total bytes read.
    pub bytes_read: u64,
    /// Total bytes written.
    pub bytes_written: u64,
    /// Sum of request latencies (for mean latency).
    pub total_latency: u64,
    /// Number of completed requests.
    pub completed: u64,
}

#[derive(Debug, Clone)]
struct PendingRequest {
    id: RequestId,
    request: MemoryRequest,
    issued_at: u64,
}

/// A per-tile memory controller fronting one HBM channel.
#[derive(Debug)]
pub struct MemoryController {
    tile_id: usize,
    channel: Channel,
    queue_capacity: usize,
    read_queue: VecDeque<PendingRequest>,
    write_queue: VecDeque<PendingRequest>,
    /// Issued requests in issue order, which is completion order: the
    /// channel completes each transaction strictly after the one before
    /// (see [`Channel::access`]), so a tick retires from the front.
    in_flight: VecDeque<MemoryResponse>,
    next_id: u64,
    stats: ControllerStats,
    /// Maximum number of DRAM transactions issued per cycle.
    issue_width: usize,
}

impl MemoryController {
    /// Creates a controller for tile `tile_id` with the given queue capacity.
    pub fn new(tile_id: usize, timing: HbmTiming, queue_capacity: usize) -> Self {
        MemoryController {
            tile_id,
            channel: Channel::new(timing),
            queue_capacity: queue_capacity.max(1),
            read_queue: VecDeque::new(),
            write_queue: VecDeque::new(),
            in_flight: VecDeque::new(),
            next_id: 0,
            stats: ControllerStats::default(),
            issue_width: 4,
        }
    }

    /// The tile this controller belongs to.
    pub fn tile_id(&self) -> usize {
        self.tile_id
    }

    /// Submits a request; returns its id, or `None` when the queue is full
    /// (back-pressure to the requester).
    pub fn submit(&mut self, request: MemoryRequest, now: Cycle) -> Option<RequestId> {
        let queue = match request.kind {
            RequestKind::Read => &mut self.read_queue,
            RequestKind::Write => &mut self.write_queue,
        };
        if queue.len() >= self.queue_capacity {
            return None;
        }
        let id = RequestId(self.next_id);
        self.next_id += 1;
        queue.push_back(PendingRequest { id, request, issued_at: now.as_u64() });
        match request.kind {
            RequestKind::Read => self.stats.bytes_read += request.bytes as u64,
            RequestKind::Write => self.stats.bytes_written += request.bytes as u64,
        }
        Some(id)
    }

    /// Number of requests waiting or in flight.
    pub fn pending(&self) -> usize {
        self.read_queue.len() + self.write_queue.len() + self.in_flight.len()
    }

    /// Number of in-flight requests (issued, not yet completed; a
    /// transaction that coalesced k requests counts k) — the "In-Flight
    /// InstX"/memory-pressure metric of Figure 11.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Queued-but-unissued requests as `(reads, writes)` — the per-channel
    /// queue-depth signal the chip profiler samples each cycle.
    pub fn queue_depths(&self) -> (usize, usize) {
        (self.read_queue.len(), self.write_queue.len())
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> &ControllerStats {
        &self.stats
    }

    /// Advances one cycle: issues coalesced transactions (reads prioritised)
    /// and appends completed responses to `completed`.
    pub fn tick(&mut self, now: Cycle, completed: &mut Vec<MemoryResponse>) {
        let cycle = now.as_u64();

        // Retire finished requests, in issue order.
        while self.in_flight.front().is_some_and(|head| head.completed_at <= cycle) {
            let done = self.in_flight.pop_front().expect("checked");
            self.stats.completed += 1;
            self.stats.total_latency += done.latency();
            completed.push(done);
        }

        // Issue new transactions, reads first (they stall compute), writes after.
        for _ in 0..self.issue_width {
            let queue = if self.read_queue.is_empty() {
                &mut self.write_queue
            } else {
                &mut self.read_queue
            };
            let Some(head) = queue.front() else { break };

            // Coalesce up to eight immediately-contiguous same-kind requests
            // into one transaction.
            let pairs = queue.iter().zip(queue.iter().skip(1));
            let group = 1 + pairs
                .take_while(|(last, next)| last.request.is_contiguous_with(&next.request))
                .take(7)
                .count();
            let total_bytes = queue.iter().take(group).map(|pending| pending.request.bytes).sum();
            let done_at = self.channel.access(head.request.addr, total_bytes, cycle);
            debug_assert!(
                self.in_flight.back().is_none_or(|last| last.completed_at < done_at),
                "channel completions strictly increase, so in-flight order is completion order"
            );
            self.in_flight.extend(queue.drain(..group).map(|pending| MemoryResponse {
                id: pending.id,
                request: pending.request,
                issued_at: pending.issued_at,
                completed_at: done_at,
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_latency(ctrl: &MemoryController) -> f64 {
        ctrl.stats.total_latency as f64 / ctrl.stats.completed as f64
    }

    fn drive(ctrl: &mut MemoryController, cycles: u64) -> Vec<MemoryResponse> {
        let mut out = Vec::new();
        for c in 0..cycles {
            ctrl.tick(Cycle(c), &mut out);
        }
        out
    }

    #[test]
    fn single_read_completes_with_reasonable_latency() {
        let mut ctrl = MemoryController::new(0, HbmTiming::hbm2(), 32);
        let id = ctrl.submit(MemoryRequest::read(0x100, 64), Cycle(0)).unwrap();
        let done = drive(&mut ctrl, 200);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, id);
        let latency = done[0].latency();
        assert!(latency >= HbmTiming::hbm2().row_hit_latency);
        assert!(latency < 150, "latency {latency} too high for an unloaded channel");
    }

    #[test]
    fn queue_capacity_applies_back_pressure() {
        let mut ctrl = MemoryController::new(0, HbmTiming::hbm2(), 2);
        assert!(ctrl.submit(MemoryRequest::read(0, 64), Cycle(0)).is_some());
        assert!(ctrl.submit(MemoryRequest::read(64, 64), Cycle(0)).is_some());
        assert!(ctrl.submit(MemoryRequest::read(128, 64), Cycle(0)).is_none());
        assert_eq!(ctrl.pending(), 2, "a refused request is not queued");
        // Writes use a separate queue.
        assert!(ctrl.submit(MemoryRequest::write(256, 64), Cycle(0)).is_some());
    }

    #[test]
    fn contiguous_requests_are_coalesced() {
        let mut ctrl = MemoryController::new(0, HbmTiming::hbm2(), 32);
        for i in 0..4u64 {
            ctrl.submit(MemoryRequest::read(i * 64, 64), Cycle(0)).unwrap();
        }
        let done = drive(&mut ctrl, 300);
        assert_eq!(done.len(), 4);
        assert!(
            done.iter().all(|r| r.completed_at == done[0].completed_at),
            "one transaction completes every request it coalesced"
        );
    }

    #[test]
    fn scattered_requests_are_not_coalesced() {
        let mut ctrl = MemoryController::new(0, HbmTiming::hbm2(), 32);
        for i in 0..4u64 {
            ctrl.submit(MemoryRequest::read(i * 10_000, 64), Cycle(0)).unwrap();
        }
        let done = drive(&mut ctrl, 300);
        let mut completions: Vec<u64> = done.iter().map(|r| r.completed_at).collect();
        completions.dedup();
        assert_eq!(completions.len(), 4, "four transactions complete in four distinct cycles");
    }

    #[test]
    fn every_submitted_request_eventually_completes() {
        let mut ctrl = MemoryController::new(0, HbmTiming::hbm2(), 128);
        let mut ids = Vec::new();
        for i in 0..50u64 {
            ids.push(ctrl.submit(MemoryRequest::read(i * 4096, 64), Cycle(0)).unwrap());
        }
        let done = drive(&mut ctrl, 5_000);
        assert_eq!(done.len(), 50);
        let mut done_ids: Vec<RequestId> = done.iter().map(|r| r.id).collect();
        done_ids.sort();
        ids.sort();
        assert_eq!(done_ids, ids);
        assert_eq!(ctrl.pending(), 0);
    }

    #[test]
    fn reads_and_writes_are_tracked_separately() {
        let mut ctrl = MemoryController::new(0, HbmTiming::hbm2(), 32);
        ctrl.submit(MemoryRequest::read(0, 64), Cycle(0)).unwrap();
        ctrl.submit(MemoryRequest::write(1024, 128), Cycle(0)).unwrap();
        drive(&mut ctrl, 300);
        assert_eq!(ctrl.stats().bytes_read, 64);
        assert_eq!(ctrl.stats().bytes_written, 128);
        assert!(mean_latency(&ctrl) > 0.0);
    }

    #[test]
    fn pending_and_in_flight_follow_a_request_from_queue_to_completion() {
        let mut ctrl = MemoryController::new(3, HbmTiming::hbm2(), 8);
        assert_eq!((ctrl.pending(), ctrl.in_flight()), (0, 0));
        ctrl.submit(MemoryRequest::read(0, 64), Cycle(0)).unwrap();
        assert_eq!((ctrl.pending(), ctrl.in_flight()), (1, 0), "queued, not yet issued");
        let mut done = Vec::new();
        ctrl.tick(Cycle(0), &mut done);
        assert_eq!((ctrl.pending(), ctrl.in_flight()), (1, 1), "issued to the channel");
        assert_eq!(ctrl.tile_id(), 3);
        drive(&mut ctrl, 200);
        assert_eq!((ctrl.pending(), ctrl.in_flight()), (0, 0));
    }

    #[test]
    fn loaded_channel_has_higher_latency_than_unloaded() {
        let mut light = MemoryController::new(0, HbmTiming::hbm2(), 256);
        light.submit(MemoryRequest::read(0, 64), Cycle(0)).unwrap();
        drive(&mut light, 500);

        let mut heavy = MemoryController::new(0, HbmTiming::hbm2(), 256);
        for i in 0..200u64 {
            heavy.submit(MemoryRequest::read(i * 8192, 64), Cycle(0)).unwrap();
        }
        let (mut done, mut peak_in_flight) = (Vec::new(), 0);
        for c in 0..5_000 {
            heavy.tick(Cycle(c), &mut done);
            peak_in_flight = peak_in_flight.max(heavy.in_flight());
        }
        assert!(mean_latency(&heavy) > mean_latency(&light));
        assert!(peak_in_flight > 1);
    }
}
