//! Scoped-thread parallelism for embarrassingly parallel flow work.
//!
//! The design flow evaluates many *independent* pure computations — DSE
//! design points whose cost varies by orders of magnitude with the binder
//! and the tile count — whose results must come back in a deterministic
//! order. [`dynamic_map`] provides that on `std` only (no registry
//! dependencies): a work-stealing scheduler in which each worker starts
//! with a contiguous slice of the input and, when it runs dry, steals the
//! upper half of the largest remaining slice, which keeps every core busy
//! until the global tail. The DSE sweep ([`crate::dse`]) and the service
//! workers ([`crate::serve`]) use it.
//!
//! Results come back in input order and are identical for any job count.
//! `mamps_sdf::buffer` uses the same scoped-worker pattern internally for
//! concurrent buffer-growth candidates (it sits below this crate in the
//! dependency graph); everything at flow level should use this helper.

use std::ops::Range;
use std::sync::Mutex;

/// A sensible default for `jobs` knobs: the machine's available
/// parallelism, or 1 when it cannot be determined.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item of `items` on up to `jobs` scoped threads
/// with work stealing, and returns the results in input order.
///
/// Each worker starts with a contiguous range of item indices (the same
/// even split a static partitioner would hand out). A worker pops from the
/// front of its own range; when the range is empty it scans the other
/// workers' ranges and steals the upper half (⌈len/2⌉ items) of the
/// largest one. A worker exits only once every range is empty, so the
/// expensive tail of a skewed workload ends up spread over all cores
/// instead of serialized on whichever worker's partition held it.
///
/// The schedule is dynamic but the *results* are deterministic: `f` runs
/// exactly once per index and results come back in input order, so callers
/// behave identically for any job count — this is what lets the sharded
/// DSE merge stay byte-identical to an unsharded run.
///
/// The worker count is capped at `min(jobs, items.len())` and at the
/// machine's available parallelism — the work is CPU-bound, so
/// oversubscription only adds contention, and a worker without an item to
/// claim would only park on the scope join. With an effective single job
/// (or a single item) everything runs on the calling thread — the results
/// are identical either way, only the wall-clock differs. Worker panics
/// propagate to the caller once the scope joins.
pub fn dynamic_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = jobs.min(default_jobs()).clamp(1, items.len().max(1));
    if jobs <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    // Per-worker index ranges: an even contiguous split to start with.
    let chunk = items.len().div_ceil(jobs);
    let queues: Vec<Mutex<Range<usize>>> = (0..jobs)
        .map(|w| Mutex::new((w * chunk).min(items.len())..((w + 1) * chunk).min(items.len())))
        .collect();
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();

    // Pops the front index of queue `w`, if any.
    let pop_own = |w: usize| -> Option<usize> {
        let mut q = queues[w].lock().expect("work queue poisoned");
        if q.start < q.end {
            let i = q.start;
            q.start += 1;
            Some(i)
        } else {
            None
        }
    };
    // Steals the upper half of the largest other queue into queue `w` and
    // returns the first stolen index; `None` once every queue is empty.
    let steal_into = |w: usize| -> Option<usize> {
        loop {
            let mut best: Option<(usize, usize)> = None; // (victim, remaining)
            for (v, q) in queues.iter().enumerate() {
                if v == w {
                    continue;
                }
                let q = q.lock().expect("work queue poisoned");
                let len = q.end - q.start;
                if len > best.map_or(0, |(_, l)| l) {
                    best = Some((v, len));
                }
            }
            let (victim, _) = best?;
            let stolen = {
                let mut q = queues[victim].lock().expect("work queue poisoned");
                let len = q.end - q.start;
                if len == 0 {
                    continue; // raced with the victim or another thief
                }
                let mid = q.start + len / 2;
                let stolen = mid..q.end;
                q.end = mid;
                stolen
            };
            // Our own queue is empty (that is why we are stealing), so
            // installing the remainder cannot discard work.
            *queues[w].lock().expect("work queue poisoned") = stolen.start + 1..stolen.end;
            return Some(stolen.start);
        }
    };

    std::thread::scope(|scope| {
        for w in 0..jobs {
            let (pop_own, steal_into, slots, f) = (&pop_own, &steal_into, &slots, &f);
            scope.spawn(move || {
                while let Some(i) = pop_own(w).or_else(|| steal_into(w)) {
                    let r = f(i, &items[i]);
                    *slots[i].lock().expect("result slot poisoned") = Some(r);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every item claimed by a worker")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn dynamic_map_matches_sequential_for_any_job_count() {
        let items: Vec<u64> = (0..257).collect();
        let seq: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x) ^ 7).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let par = dynamic_map(jobs, &items, |_, &x| x.wrapping_mul(x) ^ 7);
            assert_eq!(par, seq, "jobs={jobs}");
        }
    }

    #[test]
    fn dynamic_map_passes_indices() {
        let items = ["a", "b", "c", "d", "e"];
        let r = dynamic_map(2, &items, |i, &s| format!("{i}{s}"));
        assert_eq!(r, vec!["0a", "1b", "2c", "3d", "4e"]);
    }

    #[test]
    fn dynamic_map_empty_and_single_item() {
        let none: Vec<u32> = Vec::new();
        assert!(dynamic_map(4, &none, |_, &x| x).is_empty());
        assert_eq!(dynamic_map(4, &[7u32], |_, &x| x + 1), vec![8]);
        assert_eq!(dynamic_map(64, &[1u32, 2, 3], |_, &x| x), vec![1, 2, 3]);
    }

    #[test]
    fn dynamic_map_rebalances_skewed_workloads() {
        // All the cost sits in the first static partition: without
        // stealing, worker 0 would run the whole expensive prefix alone.
        // Correctness (not wall-clock) is asserted — every item computed
        // exactly once, in order — plus the call must terminate.
        let items: Vec<u64> = (0..64).collect();
        let calls = AtomicUsize::new(0);
        let r = dynamic_map(8, &items, |i, &x| {
            calls.fetch_add(1, Ordering::Relaxed);
            if i < 8 {
                // Busy work concentrated on the first chunk.
                (0..50_000u64).fold(x, |a, b| a.wrapping_add(b ^ a))
            } else {
                x
            }
        });
        assert_eq!(calls.load(Ordering::Relaxed), items.len());
        assert_eq!(r[63], 63);
        assert_eq!(r.len(), items.len());
    }

    #[test]
    fn dynamic_map_steals_from_the_largest_queue() {
        // Deterministic single-threaded check of the stealing arithmetic:
        // with jobs=2 and 5 items the split is [0..3) / [3..5); stealing
        // the upper half of a 3-long queue takes ⌈3/2⌉ = 2 items.
        // Exercised indirectly: results must still be exactly one call per
        // index for a shape that forces at least one steal.
        let items: Vec<u32> = (0..5).collect();
        let r = dynamic_map(2, &items, |_, &x| x * 10);
        assert_eq!(r, vec![0, 10, 20, 30, 40]);
    }
}
