//! The deterministic parallel executor for independent jobs.
//!
//! This module is the single home of thread spawning in the workspace
//! (clippy's `disallowed_methods`, configured in `clippy.toml`, keeps
//! `std::thread::spawn`/`scope` out of every other library). It lives in the tensor crate — the
//! bottom of the dependency stack — and `taglets-core`'s staged execution
//! engine uses it to train modules.
//!
//! [`Executor::run`] dispatches `n` independent indexed jobs, claimed
//! work-stealing style, with results reassembled **in index order** so
//! scheduling never leaks into the output. Combined with each job
//! deriving its own RNG from the run seed (`seed ^ name_hash(name)` for
//! modules), parallel execution is bitwise identical to serial.
//!
//! The worker count is the host's: [`std::thread::available_parallelism`],
//! which on Linux already honours CPU affinity and cgroup quotas, so
//! `taskset` or a container limit caps it.

#[expect(
    clippy::disallowed_types,
    reason = "the claim counter below is the executor's one atomic"
)]
use std::sync::atomic::{AtomicUsize, Ordering};

/// Deterministic executor over indexed, independent jobs.
///
/// Jobs are claimed work-stealing style from an atomic counter, but results
/// are reassembled by index before being returned, so scheduling order never
/// leaks into the output. Each job must derive any randomness it needs from
/// its *index or identity*, never from shared mutable state — the system
/// guarantees this by seeding each module's RNG as `seed ^ name_hash(name)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Executor {
    /// An executor with one worker per core available to this process
    /// (1 if the count cannot be read).
    #[expect(
        clippy::new_without_default,
        reason = "the worker count is read from the host, not a default value"
    )]
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        Executor { threads }
    }

    /// An executor with exactly `threads` workers, so the unit tests
    /// exercise fan-out whatever the host's core count.
    #[cfg(test)]
    fn with_threads(threads: usize) -> Self {
        Executor { threads }
    }

    /// Worker threads [`Executor::run`] uses for `jobs` jobs: the host's
    /// count clamped to the job count, and at least 1.
    pub fn workers(&self, jobs: usize) -> usize {
        self.threads.min(jobs).max(1)
    }

    /// Runs `jobs` fallible jobs and returns their results in index order.
    ///
    /// Serial and parallel execution produce identical output: results are
    /// slotted by index, and when several jobs fail, the error of the
    /// *lowest-indexed* failing job is returned — exactly the error a serial
    /// loop would have surfaced first. A panicking job propagates its panic
    /// to the caller in both modes.
    ///
    /// # Errors
    ///
    /// The first (by index) error any job returned.
    pub fn run<T, E, F>(&self, jobs: usize, f: F) -> Result<Vec<T>, E>
    where
        T: Send,
        E: Send,
        F: Fn(usize) -> Result<T, E> + Sync,
    {
        let workers = self.workers(jobs);
        if workers <= 1 {
            return (0..jobs).map(f).collect();
        }

        #[expect(
            clippy::disallowed_types,
            reason = "the claim counter only orders job *claiming*; results carry their index and are reassembled in index order below, so claim order never reaches outputs. Relaxed suffices: fetch_add's atomic RMW already yields unique indices, and scope join gives the happens-before edge before results are read"
        )]
        let next = AtomicUsize::new(0);
        #[expect(
            clippy::disallowed_methods,
            reason = "the executor is the workspace's one home of thread spawning, so determinism is argued here once"
        )]
        let per_worker: Vec<Vec<(usize, Result<T, E>)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut out = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= jobs {
                                break;
                            }
                            out.push((i, f(i)));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(results) => results,
                    // Re-raise worker panics so parallel failure looks like
                    // serial failure to the caller.
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });

        let mut collected: Vec<(usize, Result<T, E>)> = per_worker.into_iter().flatten().collect();
        collected.sort_by_key(|(i, _)| *i);
        debug_assert_eq!(collected.len(), jobs, "every job index claimed once");
        let mut out = Vec::with_capacity(jobs);
        for (_, result) in collected {
            out.push(result?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square(i: usize) -> Result<usize, ()> {
        Ok(i * i)
    }

    #[test]
    fn serial_and_parallel_agree_on_order() {
        let serial = Executor::with_threads(1).run(16, square);
        for threads in [2, 4] {
            assert_eq!(Executor::with_threads(threads).run(16, square), serial);
        }
        assert_eq!(serial, Ok((0..16).map(|i| i * i).collect()));
    }

    #[test]
    fn lowest_indexed_error_wins_at_every_worker_count() {
        let job = |i: usize| -> Result<usize, usize> {
            if i % 3 == 2 {
                Err(i)
            } else {
                Ok(i)
            }
        };
        for threads in [1, 2, 4] {
            assert_eq!(Executor::with_threads(threads).run(10, job), Err(2));
        }
    }

    #[test]
    fn worker_count_is_clamped_to_jobs() {
        assert_eq!(Executor::with_threads(1).workers(8), 1);
        assert_eq!(Executor::with_threads(4).workers(8), 4);
        assert_eq!(Executor::with_threads(16).workers(3), 3);
        assert_eq!(Executor::with_threads(0).workers(3), 1);
        assert_eq!(Executor::with_threads(4).workers(0), 1);
        assert!(Executor::new().workers(usize::MAX) >= 1);
    }

    #[test]
    fn zero_and_one_job_edge_cases() {
        let exec = Executor::with_threads(4);
        assert_eq!(exec.run(0, square), Ok(Vec::new()));
        assert_eq!(exec.run(1, |i| Ok::<_, ()>(i + 41)), Ok(vec![41]));
    }
}
