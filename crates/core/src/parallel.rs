//! Scoped-thread parallelism for embarrassingly parallel flow work.
//!
//! The design flow evaluates many *independent* pure computations — DSE
//! design points whose cost varies by orders of magnitude with the binder
//! and the tile count — whose results must come back in a deterministic
//! order. [`dynamic_map`] provides that on `std` only (no registry
//! dependencies): workers claim the next unclaimed item from one shared
//! cursor, so a worker that drew cheap points keeps claiming while another
//! runs an expensive one, and every core stays busy until the last item.
//! The DSE sweep ([`crate::dse`]) and the service workers
//! ([`crate::serve`]) reach it through `Sweep::evaluate`.
//!
//! Results come back in input order and are identical for any job count.
//! Everything at flow level should use this helper.

use std::sync::atomic::{AtomicUsize, Ordering};

/// A sensible default for `jobs` knobs: the machine's available
/// parallelism, or 1 when it cannot be determined.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item of `items` on up to `jobs` scoped threads
/// and returns the results in input order.
///
/// Each worker claims the next item index from one atomic cursor, runs
/// `f` on it and keeps the `(index, result)` pair; once the cursor is past
/// the end, the pairs of all workers are put back in input order. Items
/// are claimed one at a time, so the expensive tail of a skewed workload
/// spreads over every worker instead of piling up on one.
///
/// The schedule is dynamic but the *results* are deterministic: `f` runs
/// exactly once per item and results come back in input order, so callers
/// behave identically for any job count — this is what lets the sharded
/// DSE merge stay byte-identical to an unsharded run.
///
/// The worker count is capped at `min(jobs, items.len())` and at the
/// machine's available parallelism — the work is CPU-bound, so
/// oversubscription only adds contention, and a worker without an item to
/// claim would only park on the scope join. With an effective single job
/// (or a single item) everything runs on the calling thread — the results
/// are identical either way, only the wall-clock differs. A panic in `f`
/// propagates to the caller, with its payload, once every worker has
/// stopped.
pub fn dynamic_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = jobs.min(default_jobs()).clamp(1, items.len().max(1));
    if jobs <= 1 {
        return items.iter().map(f).collect();
    }
    // `Relaxed` suffices: the cursor only hands out indices, and the
    // results reach this thread through the joins.
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            return mine;
                        };
                        mine.push((i, f(item)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn dynamic_map_matches_sequential_for_any_job_count() {
        let items: Vec<u64> = (0..257).collect();
        let seq: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x) ^ 7).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let par = dynamic_map(jobs, &items, |&x| x.wrapping_mul(x) ^ 7);
            assert_eq!(par, seq, "jobs={jobs}");
        }
    }

    #[test]
    fn dynamic_map_empty_and_single_item() {
        let none: Vec<u32> = Vec::new();
        assert!(dynamic_map(4, &none, |&x| x).is_empty());
        assert_eq!(dynamic_map(4, &[7u32], |&x| x + 1), vec![8]);
        assert_eq!(dynamic_map(64, &[1u32, 2, 3], |&x| x), vec![1, 2, 3]);
    }

    #[test]
    fn dynamic_map_keeps_input_order_on_skewed_workloads() {
        // All the cost sits in the first eight items, so the workers
        // finish out of input order; every item must still be computed
        // exactly once and come back in its place.
        let items: Vec<u64> = (0..64).collect();
        let calls = AtomicUsize::new(0);
        let cost = |&x: &u64| {
            if x < 8 {
                (0..50_000u64).fold(x, |a, b| a.wrapping_add(b ^ a))
            } else {
                x
            }
        };
        let r = dynamic_map(8, &items, |x| {
            calls.fetch_add(1, Ordering::Relaxed);
            cost(x)
        });
        assert_eq!(calls.load(Ordering::Relaxed), items.len());
        assert_eq!(r, items.iter().map(cost).collect::<Vec<_>>());
    }

    #[test]
    fn dynamic_map_propagates_a_panicking_item() {
        let items: Vec<u32> = (0..16).collect();
        let caught = std::panic::catch_unwind(|| {
            dynamic_map(2, &items, |&x| {
                assert_ne!(x, 5, "item five fails");
                x
            })
        });
        let payload = caught.expect_err("the panic must reach the caller");
        let message = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or_default();
        assert!(message.contains("item five fails"), "payload: {message:?}");
    }
}
