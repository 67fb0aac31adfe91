//! `MemoryController` against a linear-scan reference.
//!
//! The controller keeps its in-flight requests in a FIFO and retires from
//! the front, which is sound only because channel completions strictly
//! increase in issue order (`Channel::access`); it coalesces by peeking at
//! its queue. The reference below assumes neither: it collects each
//! transaction into a fresh group and scans every in-flight request every
//! cycle. For any submit schedule the two must retire the same *set* of
//! responses in every cycle and agree on `stats()`, `in_flight()` and
//! `pending()`.
//!
//! The order of responses *within* one cycle is deliberately not compared:
//! the FIFO yields issue order where the scan yields swap-remove order, and
//! every consumer of a response is order-free (a pipeline's
//! outstanding-read decrement, a histogram sample, a sum).

use neura_mem::{
    Channel, ControllerStats, HbmPreset, MemoryController, MemoryRequest, MemoryResponse, RequestId,
};
use neura_sim::Cycle;
use proptest::prelude::*;
use std::collections::VecDeque;

struct Pending {
    id: RequestId,
    request: MemoryRequest,
    issued_at: u64,
}

struct Reference {
    channel: Channel,
    capacity: usize,
    reads: VecDeque<Pending>,
    writes: VecDeque<Pending>,
    in_flight: Vec<MemoryResponse>,
    next_id: u64,
    stats: ControllerStats,
}

impl Reference {
    fn submit(&mut self, request: MemoryRequest, now: u64) -> Option<RequestId> {
        let queue = if request.is_read() { &mut self.reads } else { &mut self.writes };
        if queue.len() >= self.capacity {
            return None;
        }
        let id = RequestId(self.next_id);
        self.next_id += 1;
        queue.push_back(Pending { id, request, issued_at: now });
        if request.is_read() {
            self.stats.bytes_read += request.bytes as u64;
        } else {
            self.stats.bytes_written += request.bytes as u64;
        }
        Some(id)
    }

    fn tick(&mut self, now: u64, completed: &mut Vec<MemoryResponse>) {
        let mut index = 0;
        while index < self.in_flight.len() {
            if self.in_flight[index].completed_at <= now {
                let done = self.in_flight.swap_remove(index);
                self.stats.completed += 1;
                self.stats.total_latency += done.latency();
                completed.push(done);
            } else {
                index += 1;
            }
        }
        for _ in 0..4 {
            let queue = if self.reads.is_empty() { &mut self.writes } else { &mut self.reads };
            let Some(head) = queue.pop_front() else { break };
            let mut group = vec![head];
            while let Some(next) = queue.front() {
                if group[group.len() - 1].request.is_contiguous_with(&next.request)
                    && group.len() < 8
                {
                    group.push(queue.pop_front().expect("front exists"));
                } else {
                    break;
                }
            }
            let bytes = group.iter().map(|p| p.request.bytes).sum();
            let completed_at = self.channel.access(group[0].request.addr, bytes, now);
            self.in_flight.extend(group.into_iter().map(|p| MemoryResponse {
                id: p.id,
                request: p.request,
                issued_at: p.issued_at,
                completed_at,
            }));
        }
    }

    fn pending(&self) -> usize {
        self.reads.len() + self.writes.len() + self.in_flight.len()
    }
}

/// One cycle's submissions: `(is_read, 64-byte block, contiguous run length)`.
/// Runs of adjacent blocks exercise coalescing; scattered blocks exercise
/// bank conflicts and out-of-order completion.
type Submissions = Vec<(bool, u64, usize)>;

fn arb_schedule() -> impl Strategy<Value = Vec<Submissions>> {
    let submission = ((0u8..4).prop_map(|roll| roll > 0), 0u64..4_096, 1usize..=10);
    proptest::collection::vec(proptest::collection::vec(submission, 0..4), 1..80)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn controller_retires_what_the_linear_scan_retires(
        preset in 0usize..HbmPreset::ALL.len(),
        capacity in 1usize..=24,
        schedule in arb_schedule(),
    ) {
        let timing = HbmPreset::ALL[preset].timing();
        let mut controller = MemoryController::new(0, timing, capacity);
        let mut reference = Reference {
            channel: Channel::new(timing),
            capacity,
            reads: VecDeque::new(),
            writes: VecDeque::new(),
            in_flight: Vec::new(),
            next_id: 0,
            stats: ControllerStats::default(),
        };
        let by_id = |responses: &mut Vec<MemoryResponse>| responses.sort_by_key(|r| r.id);
        let (mut done, mut expected) = (Vec::new(), Vec::new());
        let (mut cycle, mut accepted) = (0u64, 0u64);
        let mut schedule = schedule.into_iter();
        loop {
            let submissions = schedule.next();
            if submissions.is_none() && reference.pending() == 0 {
                break;
            }
            for (is_read, block, run) in submissions.unwrap_or_default() {
                for offset in 0..run as u64 {
                    let addr = (block + offset) * 64;
                    let request = if is_read {
                        MemoryRequest::read(addr, 64)
                    } else {
                        MemoryRequest::write(addr, 64)
                    };
                    let id = controller.submit(request, Cycle(cycle));
                    accepted += u64::from(id.is_some());
                    prop_assert_eq!(id, reference.submit(request, cycle));
                }
            }
            done.clear();
            expected.clear();
            controller.tick(Cycle(cycle), &mut done);
            reference.tick(cycle, &mut expected);
            by_id(&mut done);
            by_id(&mut expected);
            prop_assert_eq!(&done, &expected);
            prop_assert_eq!(controller.stats(), &reference.stats);
            prop_assert_eq!(controller.in_flight(), reference.in_flight.len());
            prop_assert_eq!(controller.pending(), reference.pending());
            cycle += 1;
            prop_assert!(cycle < 200_000, "the controller never drained");
        }
        prop_assert_eq!(controller.stats().completed, accepted);
    }
}
