//! Scoped-thread fan-out for embarrassingly parallel simulation work.
//!
//! Experiments and cross-campus sweeps are independent, self-seeded runs:
//! each one owns its RNG and its simulated clock, so running them on
//! separate OS threads cannot change any result. [`parallel_map`]
//! preserves input order in its output, which keeps reports and
//! statistics byte-identical to a sequential run — determinism is a
//! property of the work items, parallelism only changes wall-clock time.

use std::sync::Mutex;

/// Map `f` over `items` on a pool of scoped worker threads, preserving
/// input order in the output.
///
/// `f` receives `(index, &item)`. Workers pull the next unclaimed item
/// from a shared queue, so long and short items balance automatically.
/// With one worker (or one item) this degrades to a plain sequential map
/// with no thread spawned.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map_with(items, worker_count(items.len()), f)
}

/// [`parallel_map`] with an explicit worker count (still capped at the
/// item count). Exposed so callers and tests can pin the pool size
/// regardless of machine shape.
pub fn parallel_map_with<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map_vec(items.iter().collect(), workers, f)
}

/// [`parallel_map_with`] over *owned* items: each worker takes its item
/// by value, so the closure can consume it (sort a batch in place, move
/// records into a segment) instead of cloning out of a shared slice.
/// Input order is preserved in the output.
pub fn parallel_map_vec<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let workers = workers.min(items.len()).max(1);
    if workers <= 1 {
        return items.into_iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let work = Mutex::new(items.into_iter().enumerate());
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                // The queue is locked for the claim only, not for `f`.
                let Some((i, item)) = work.lock().expect("work queue poisoned").next() else { break };
                *slots[i].lock().expect("result slot poisoned") = Some(f(i, item));
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every slot")
        })
        .collect()
}

/// An explicit worker count from the `CAMPUSLAB_JOBS` environment
/// variable, when it is set to a positive integer.
pub fn jobs_from_env() -> Option<usize> {
    std::env::var("CAMPUSLAB_JOBS").ok().and_then(|v| v.parse::<usize>().ok()).filter(|&n| n > 0)
}

/// The machine's available parallelism (1 when it cannot be read).
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// How many workers a fan-out over `items` should use: the
/// `CAMPUSLAB_JOBS` environment variable when set, otherwise the
/// machine's available parallelism, both capped at the item count.
pub fn worker_count(items: usize) -> usize {
    jobs_from_env().unwrap_or_else(cores).min(items.max(1))
}

/// The executor rule for fine-grained fan-outs (an ingest's segment
/// builds): explicit `jobs` are honoured as given; unset, fewer than four
/// `cores` means inline (one worker) and a wider box gets a thread per
/// core. DESIGN.md §9 has the measurement behind the four.
pub fn executor_workers(cores: usize, jobs: Option<usize>) -> usize {
    jobs.unwrap_or(if cores < 4 { 1 } else { cores })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map_with(&items, 4, |i, &x| {
            assert_eq!(i as u64, x);
            x * x
        });
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map_with(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(parallel_map_with(&[7u32], 4, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn matches_sequential_result() {
        // Unbalanced work: item i busy-loops proportionally to i, so
        // workers finish out of order; the output must not.
        let items: Vec<usize> = (0..32).collect();
        let out = parallel_map_with(&items, 4, |_, &x| {
            let mut acc = 0u64;
            for k in 0..(x * 1000) {
                acc = acc.wrapping_add(k as u64);
            }
            (x, acc)
        });
        let seq: Vec<(usize, u64)> = items
            .iter()
            .map(|&x| {
                let mut acc = 0u64;
                for k in 0..(x * 1000) {
                    acc = acc.wrapping_add(k as u64);
                }
                (x, acc)
            })
            .collect();
        assert_eq!(out, seq);
    }

    #[test]
    fn owned_map_consumes_and_preserves_order() {
        // Non-Clone payloads prove the closure really takes ownership.
        struct NoClone(usize);
        let items: Vec<NoClone> = (0..64).map(NoClone).collect();
        let out = parallel_map_vec(items, 4, |i, t| {
            assert_eq!(i, t.0);
            t.0 * 2
        });
        assert_eq!(out, (0..64).map(|x| x * 2).collect::<Vec<_>>());
        let empty: Vec<NoClone> = Vec::new();
        assert!(parallel_map_vec(empty, 4, |_, t| t.0).is_empty());
    }

    #[test]
    fn worker_count_respects_caps() {
        assert_eq!(worker_count(0), 1);
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(1000) >= 1);
    }
}
