//! A scoped-thread work-stealing executor for sweep points.
//!
//! Workers share a single atomic cursor over the item list and claim the
//! next index as soon as they finish their current one, so long-running
//! points (the cycle-level simulations) do not serialise behind short ones.
//! Results are written into a slot vector indexed by item position, which
//! makes the collected output *spec-ordered and deterministic regardless of
//! the thread count* — the property the artifact byte-identity tests pin
//! down. Uses only `std` (`thread::scope` + atomics), no external deps.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::spec::{ExperimentSpec, SweepPoint};

/// Environment variable overriding the worker count used by
/// [`Runner::from_env`].
pub(crate) const THREADS_ENV: &str = "NEURA_LAB_THREADS";

/// The parallel executor. Holds only the worker count; each [`Runner::run`]
/// call spawns a fresh scoped pool.
#[derive(Debug, Clone, Copy)]
pub struct Runner {
    threads: usize,
}

impl Runner {
    /// Creates a runner with an explicit worker count (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        Runner { threads: threads.max(1) }
    }

    /// Creates a runner sized from `THREADS_ENV` when set, otherwise from
    /// [`std::thread::available_parallelism`].
    ///
    /// # Exits
    ///
    /// With code 2 when the variable is set but not a positive integer, for
    /// the same reason the scale-multiplier knob does: a typo must not
    /// silently pick a different parallelism than the caller intended.
    pub fn from_env() -> Self {
        let threads = crate::positive_env(THREADS_ENV)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        Runner::new(threads)
    }

    /// The worker count this runner uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item, in parallel, returning the results in item
    /// order. `f` receives the item index alongside the item.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any worker closure (the scope joins all
    /// threads first, so no work is silently lost).
    pub fn run<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let workers = self.threads.min(items.len()).max(1);
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                handles.push(scope.spawn(|| loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(index) else { break };
                    let result = f(index, item);
                    *slots[index].lock().expect("result slot poisoned") = Some(result);
                }));
            }
            let mut panicked = None;
            for handle in handles {
                if let Err(payload) = handle.join() {
                    panicked = Some(payload);
                }
            }
            if let Some(payload) = panicked {
                std::panic::resume_unwind(payload);
            }
        });

        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("every index claimed exactly once")
            })
            .collect()
    }

    /// Runs every point of a spec through `f`, returning `(point, result)`
    /// pairs in the spec's enumeration order.
    pub fn run_spec<R, F>(&self, spec: &ExperimentSpec, f: F) -> Vec<(SweepPoint, R)>
    where
        R: Send,
        F: Fn(&SweepPoint) -> R + Sync,
    {
        let points = spec.points();
        let results = self.run(&points, |_, point| f(point));
        points.into_iter().zip(results).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepGrid;
    use neura_chip::config::ChipConfig;

    #[test]
    fn results_are_item_ordered_for_any_thread_count() {
        let items: Vec<usize> = (0..97).collect();
        for threads in [1, 2, 3, 8, 64] {
            let out = Runner::new(threads).run(&items, |i, &x| {
                assert_eq!(i, x);
                x * 2
            });
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = Runner::new(4).run(&[] as &[u8], |_, _| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn run_spec_pairs_points_with_results_in_spec_order() {
        let spec = crate::spec::ExperimentSpec::new(
            "t",
            ChipConfig::tile_16(),
            SweepGrid::new().mmh_tiles([1, 2, 4, 8]),
        );
        let pairs = Runner::new(3).run_spec(&spec, |p| p.config.mmh_tile as u32);
        let tiles: Vec<u32> = pairs.iter().map(|(_, r)| *r).collect();
        assert_eq!(tiles, vec![1, 2, 4, 8]);
        assert!(pairs.iter().all(|(point, r)| point.config.mmh_tile as u32 == *r));
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        Runner::new(2).run(&[1, 2, 3], |_, &x| {
            if x == 2 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn zero_thread_request_clamps_to_one() {
        assert_eq!(Runner::new(0).threads(), 1);
    }
}
