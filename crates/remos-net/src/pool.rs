//! Hand-rolled scoped worker pool for deterministic fan-out.
//!
//! Zero dependencies and deliberately tiny: jobs are claimed through an
//! atomic cursor, each worker collects `(input index, result)` pairs
//! locally, and results are re-slotted by input index afterwards — so
//! the output order is deterministic (it matches the input order) no
//! matter how the OS schedules the workers.
//!
//! Its one caller is `remos-core`'s `Remos::run_batch`, which fans a
//! batch of query answers across it; the engine solves on the caller.
//!
//! The `std::thread` use here is sanctioned: this module is the one
//! scoped exemption from the remos-audit `thread-spawn` rule, because
//! the pool runs pure computation over already-collected, immutable data
//! (shared query plans, pinned sample selections) and never touches the
//! simulated clock, the collector, or the trace recorder.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Largest worker count [`default_workers`] will pick.
const MAX_WORKERS: usize = 8;

/// Worker count for `jobs` jobs: hardware parallelism, capped at
/// `MAX_WORKERS` (8) and at the job count (never zero).
pub fn default_workers(jobs: usize) -> usize {
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    hw.min(MAX_WORKERS).clamp(1, jobs.max(1))
}

/// Run `f` over every job on `workers` scoped threads, returning the
/// results in input order. A panic in any job is resumed on the caller.
pub fn run_indexed<J, R, F>(jobs: &[J], workers: usize, f: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(&J) -> R + Sync,
{
    if jobs.is_empty() {
        return Vec::new();
    }
    let workers = workers.clamp(1, jobs.len());
    if workers == 1 {
        return jobs.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs.len() {
                            break;
                        }
                        out.push((i, f(&jobs[i])));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(v) => v,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    // Deterministic ordering: place each result at its input index.
    let mut slots: Vec<Option<R>> = (0..jobs.len()).map(|_| None).collect();
    for chunk in per_worker {
        for (i, r) in chunk {
            slots[i] = Some(r);
        }
    }
    let out: Vec<R> = slots.into_iter().flatten().collect();
    debug_assert_eq!(out.len(), jobs.len(), "worker pool lost a job result");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let jobs: Vec<usize> = (0..257).collect();
        let got = run_indexed(&jobs, 4, |&j| j * 3);
        let want: Vec<usize> = jobs.iter().map(|&j| j * 3).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn single_worker_and_empty_inputs() {
        let got = run_indexed(&[1u32, 2, 3], 1, |&j| j + 1);
        assert_eq!(got, vec![2, 3, 4]);
        let empty: Vec<u32> = run_indexed(&[], 8, |&j: &u32| j);
        assert!(empty.is_empty());
    }

    #[test]
    fn worker_count_is_clamped_to_job_count() {
        let got = run_indexed(&[10u64, 20], 64, |&j| j);
        assert_eq!(got, vec![10, 20]);
        assert!(default_workers(0) >= 1);
        assert!(default_workers(1) == 1);
        assert!(default_workers(1000) <= MAX_WORKERS);
    }
}
