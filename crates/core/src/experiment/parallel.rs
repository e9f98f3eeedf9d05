//! A small work-stealing helper used to fan experiment runs out over the
//! available cores (the figure sweeps run thousands of independent
//! simulations).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use crate::knobs::knobs;

/// Upper bound on the resolved worker count: `RESCACHE_THREADS` values above
/// this clamp down to it. Spawning thousands of scoped threads only adds
/// scheduler pressure — `parallel_map` additionally never uses more workers
/// than it has items.
const MAX_WORKERS: usize = 512;

/// Resolves the worker count from the parsed `RESCACHE_THREADS` knob (a
/// positive count, or `None` when unset) and the host parallelism: the knob
/// if set, the host otherwise, clamped to `1..=MAX_WORKERS`.
fn resolve_workers(threads: Option<usize>, host: usize) -> usize {
    threads.unwrap_or(host).clamp(1, MAX_WORKERS)
}

/// The number of worker threads `parallel_map` fans out over: the
/// `RESCACHE_THREADS` knob if set (clamped to 512), otherwise
/// `std::thread::available_parallelism()`. A malformed knob panics with its
/// typed error (see [`crate::knobs`]); entry points reject it before this
/// runs.
///
/// The override serves two audiences: scaling studies (pin the worker count
/// and measure, instead of inheriting whatever the host offers) and shared
/// CI/build boxes (cap the fan-out below the machine width). The value is
/// resolved **once per process**; perfbench prints it with every run so each
/// measurement names the parallelism it was taken at.
/// Callers that fan out over fewer items than workers use fewer threads
/// (`parallel_map` caps at the item count).
pub fn effective_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        let host = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        resolve_workers(knobs().threads, host)
    })
}

/// Applies `f` to every item, in parallel, preserving the input order of the
/// results: `parallel_map_on` over [`effective_workers`] threads.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_on(effective_workers(), items, f)
}

/// Applies `f` to every item on `workers` threads (or fewer if there are
/// fewer items; one worker runs inline on the caller's thread), preserving
/// the input order of the results.
///
/// Items are handed out through a shared counter, so uneven per-item cost
/// balances naturally. Result storage is lock-free: each worker accumulates
/// `(index, value)` pairs in a local buffer and the buffers are merged when
/// the workers are joined, so the only shared write is the atomic item
/// counter.
///
/// Calls nest safely (the figure drivers parallelize over applications while
/// the runner parallelizes over configuration points): each call owns its
/// worker scope, and a nested call simply adds threads that the OS scheduler
/// multiplexes over the same cores.
pub(crate) fn parallel_map_on<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= items.len() {
                            break;
                        }
                        local.push((index, f(&items[index])));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            let local = handle
                .join()
                .expect("parallel_map workers do not panic: the closure is required not to");
            for (index, value) in local {
                results[index] = Some(value);
            }
        }
    });

    results
        .into_iter()
        .map(|slot| slot.expect("every index was processed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Worker counts each pool test runs at: one (inline on the caller's
    /// thread) and more than `items` (capped at the item count).
    fn worker_counts(items: usize) -> [usize; 2] {
        [1, items + 3]
    }

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        for workers in worker_counts(items.len()) {
            let out = parallel_map_on(workers, &items, |x| x * 2);
            assert_eq!(
                out,
                items.iter().map(|x| x * 2).collect::<Vec<_>>(),
                "{workers} workers"
            );
        }
        assert_eq!(parallel_map(&items, |x| x * 2)[99], 198);
    }

    #[test]
    fn empty_input_is_empty_output() {
        let items: Vec<u64> = vec![];
        for workers in worker_counts(0) {
            assert!(parallel_map_on(workers, &items, |x| *x).is_empty());
        }
        assert!(parallel_map(&items, |x| *x).is_empty());
    }

    #[test]
    fn single_item_runs_inline() {
        let caller = std::thread::current().id();
        for workers in worker_counts(1) {
            let out = parallel_map_on(workers, &[7u64], |x| {
                assert_eq!(std::thread::current().id(), caller, "{workers} workers");
                x + 1
            });
            assert_eq!(out, vec![8]);
        }
    }

    #[test]
    fn handles_non_trivial_work() {
        let items: Vec<u64> = (0..32).collect();
        for workers in worker_counts(items.len()) {
            let out = parallel_map_on(workers, &items, |x| (0..=*x).sum::<u64>());
            assert_eq!(out[31], 496, "{workers} workers");
        }
    }

    #[test]
    fn effective_workers_is_positive_and_stable() {
        // The value is computed once per process.
        let first = effective_workers();
        assert!(first >= 1);
        assert_eq!(effective_workers(), first);
    }

    #[test]
    fn resolve_workers_accepts_positive_integers() {
        assert_eq!(resolve_workers(Some(3), 8), 3);
        assert_eq!(resolve_workers(Some(16), 8), 16, "may exceed the host");
        assert_eq!(resolve_workers(Some(1), 8), 1);
        assert_eq!(resolve_workers(None, 8), 8, "unset follows the host");
    }

    #[test]
    fn resolve_workers_clamps_oversized_requests_and_hosts() {
        assert_eq!(resolve_workers(Some(1_000_000), 8), MAX_WORKERS);
        assert_eq!(resolve_workers(None, 100_000), MAX_WORKERS);
        assert_eq!(resolve_workers(None, 0), 1, "degenerate host clamps up");
    }

    #[test]
    fn workers_beyond_item_count_are_harmless() {
        // The pool caps the fan-out at the item count, so a worker request
        // far above it still computes every item exactly once.
        let items: Vec<u64> = (0..3).collect();
        let calls = AtomicUsize::new(0);
        for workers in worker_counts(items.len()) {
            let out = parallel_map_on(workers, &items, |x| {
                calls.fetch_add(1, Ordering::Relaxed);
                x + 1
            });
            assert_eq!(out, vec![1, 2, 3], "{workers} workers");
        }
        assert_eq!(calls.load(Ordering::Relaxed), 2 * items.len());
    }

    #[test]
    fn nested_calls_complete() {
        let outer: Vec<u64> = (0..8).collect();
        for workers in worker_counts(outer.len()) {
            let out = parallel_map_on(workers, &outer, |x| {
                let inner: Vec<u64> = (0..4).collect();
                parallel_map_on(workers, &inner, |y| x * 10 + y)
                    .into_iter()
                    .sum::<u64>()
            });
            assert_eq!(out[1], 10 + 11 + 12 + 13, "{workers} workers");
            assert_eq!(out.len(), 8);
        }
    }
}
