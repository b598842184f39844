//! Hand-rolled scoped worker pool for deterministic fan-out.
//!
//! Zero dependencies and deliberately tiny: jobs are claimed through an
//! atomic cursor, each worker collects `(input index, result)` pairs
//! locally, and results are re-slotted by input index afterwards — so
//! the output order is deterministic (it matches the input order) no
//! matter how the OS schedules the workers.
//!
//! Lives in `remos-net` so the engine (parallel independent
//! connected-component solves) and `remos-core` (batch query answers,
//! sharded collector polls) share one implementation.
//!
//! The `std::thread` use here is sanctioned: this module is the one
//! scoped exemption from the remos-audit `thread-spawn` rule, because
//! the pool runs pure computation over already-collected, immutable data
//! (disjoint solver components, shared query plans, pinned sample
//! selections) and never touches the simulated clock, the collector, or
//! the trace recorder.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Largest worker count [`default_workers`] will pick.
const MAX_WORKERS: usize = 8;

/// Worker count for `jobs` jobs: hardware parallelism, capped at
/// [`MAX_WORKERS`] and at the job count (never zero).
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

/// Run `f` over every job *by mutable reference* on `workers` scoped
/// threads, returning the results in input order. Jobs are dealt out by
/// striding (worker `w` takes jobs `w`, `w + workers`, …), so the claim
/// schedule — unlike [`run_indexed`]'s atomic cursor — is deterministic
/// too, not just the result order. A panic in any job is resumed on the
/// caller. The federated collector fans its child polls out through
/// this.
pub fn run_indexed_mut<J, R, F>(jobs: &mut [J], workers: usize, f: F) -> Vec<R>
where
    J: Send,
    R: Send,
    F: Fn(usize, &mut J) -> R + Sync,
{
    if jobs.is_empty() {
        return Vec::new();
    }
    let workers = workers.clamp(1, jobs.len());
    if workers == 1 {
        return jobs.iter_mut().enumerate().map(|(i, j)| f(i, j)).collect();
    }
    let n = jobs.len();
    // Strided hand-out: split the slice into per-worker (index, &mut J)
    // lists up front so no synchronization is needed while running.
    let mut parts: Vec<Vec<(usize, &mut J)>> =
        (0..workers).map(|_| Vec::with_capacity(n / workers + 1)).collect();
    for (i, j) in jobs.iter_mut().enumerate() {
        parts[i % workers].push((i, j));
    }
    let per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|s| {
        let handles: Vec<_> = parts
            .into_iter()
            .map(|part| {
                let f = &f;
                s.spawn(move || {
                    part.into_iter().map(|(i, j)| (i, f(i, j))).collect::<Vec<_>>()
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
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for chunk in per_worker {
        for (i, r) in chunk {
            slots[i] = Some(r);
        }
    }
    let out: Vec<R> = slots.into_iter().flatten().collect();
    debug_assert_eq!(out.len(), n, "worker pool lost a job result");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mut_results_come_back_in_input_order() {
        let mut jobs: Vec<u64> = (0..101).collect();
        let got = run_indexed_mut(&mut jobs, 4, |i, j| {
            *j += 1;
            *j * 10 + i as u64 % 2
        });
        for (i, &j) in jobs.iter().enumerate() {
            assert_eq!(j, i as u64 + 1, "job {i} mutated in place");
        }
        let want: Vec<u64> = (0..101u64).map(|i| (i + 1) * 10 + i % 2).collect();
        assert_eq!(got, want);
        let mut empty: Vec<u64> = Vec::new();
        assert!(run_indexed_mut(&mut empty, 8, |_, j| *j).is_empty());
        let single = run_indexed_mut(&mut jobs[..3], 1, |_, j| *j);
        assert_eq!(single, vec![1, 2, 3]);
    }

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
