//! The deterministic parallel executor for independent jobs.
//!
//! This module is the single home of thread spawning in the workspace (the
//! `taglets-lint` rule TL006 enforces that `std::thread::spawn`/`scope`
//! appear nowhere else in library code). It lives in the tensor crate — the
//! bottom of the dependency stack — and `taglets-core` re-exports its types
//! for the staged execution engine, serving and the evaluation sweeps.
//!
//! [`Executor::run`]/[`Executor::map`] dispatch `n` independent indexed
//! jobs, claimed work-stealing style, with results reassembled **in index
//! order** so scheduling never leaks into the output. Combined with each job
//! deriving its own RNG from the run seed (`seed ^ name_hash(name)` for
//! modules), parallel execution is bitwise identical to serial.

use std::sync::atomic::{AtomicUsize, Ordering};

/// How many worker threads a parallelizable stage may use.
///
/// The knob lives in `TagletsConfig::concurrency` (in `taglets-core`) and
/// can be overridden at run time by the `TAGLETS_THREADS` environment
/// variable (`TAGLETS_THREADS=1` or `serial` forces serial,
/// `TAGLETS_THREADS=N` allows up to `N` workers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Concurrency {
    /// Run jobs one after another on the calling thread.
    #[default]
    Serial,
    /// Run jobs on up to this many scoped worker threads (clamped to the
    /// job count; `Threads(1)` behaves like [`Concurrency::Serial`]).
    Threads(usize),
}

impl Concurrency {
    /// Normalizing constructor: `n <= 1` collapses to [`Concurrency::Serial`].
    pub fn threads(n: usize) -> Self {
        if n <= 1 {
            Concurrency::Serial
        } else {
            Concurrency::Threads(n)
        }
    }

    /// Applies the `TAGLETS_THREADS` environment override, falling back to
    /// `self` when the variable is unset or unparsable.
    pub fn from_env(self) -> Self {
        match std::env::var("TAGLETS_THREADS") {
            Ok(v) => {
                let v = v.trim();
                if v.eq_ignore_ascii_case("serial") {
                    Concurrency::Serial
                } else {
                    v.parse::<usize>().map(Concurrency::threads).unwrap_or(self)
                }
            }
            Err(_) => self,
        }
    }

    /// Effective worker count for a stage of `jobs` independent jobs.
    pub fn workers(self, jobs: usize) -> usize {
        match self {
            Concurrency::Serial => 1,
            Concurrency::Threads(n) => n.max(1).min(jobs.max(1)),
        }
    }
}

impl std::fmt::Display for Concurrency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Concurrency::Serial => write!(f, "serial"),
            Concurrency::Threads(n) => write!(f, "threads({n})"),
        }
    }
}

/// Deterministic executor over indexed, independent jobs.
///
/// Jobs are claimed work-stealing style from an atomic counter, but results
/// are reassembled by index before being returned, so scheduling order never
/// leaks into the output. Each job must derive any randomness it needs from
/// its *index or identity*, never from shared mutable state — the system
/// guarantees this by seeding each module's RNG as `seed ^ name_hash(name)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    concurrency: Concurrency,
}

impl Executor {
    /// An executor with the given concurrency knob (already env-resolved by
    /// the caller if desired).
    // lint: root(determinism)
    pub fn new(concurrency: Concurrency) -> Self {
        Executor { concurrency }
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
    // lint: root(determinism)
    pub fn run<T, E, F>(&self, jobs: usize, f: F) -> Result<Vec<T>, E>
    where
        T: Send,
        E: Send,
        F: Fn(usize) -> Result<T, E> + Sync,
    {
        let workers = self.concurrency.workers(jobs);
        if workers <= 1 || jobs <= 1 {
            return (0..jobs).map(f).collect();
        }

        // lint: concurrency(claim counter only orders job *claiming*; results carry their index and are reassembled in index order below, so claim order never reaches outputs)
        let next = AtomicUsize::new(0);
        let per_worker: Vec<Vec<(usize, Result<T, E>)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut out = Vec::new();
                        loop {
                            // lint: concurrency(Relaxed suffices: fetch_add's atomic RMW already yields unique indices, and scope join gives the happens-before edge before results are read)
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

    /// [`Executor::run`] for infallible jobs.
    // lint: root(determinism)
    pub fn map<T, F>(&self, jobs: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        match self.run::<T, std::convert::Infallible, _>(jobs, |i| Ok(f(i))) {
            Ok(v) => v,
            Err(e) => match e {},
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree_on_order() {
        let serial = Executor::new(Concurrency::Serial).map(16, |i| i * i);
        let parallel = Executor::new(Concurrency::Threads(4)).map(16, |i| i * i);
        assert_eq!(serial, parallel);
        assert_eq!(serial, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn lowest_indexed_error_wins_in_both_modes() {
        let job = |i: usize| -> Result<usize, usize> {
            if i % 3 == 2 {
                Err(i)
            } else {
                Ok(i)
            }
        };
        let serial = Executor::new(Concurrency::Serial).run(10, job);
        let parallel = Executor::new(Concurrency::Threads(4)).run(10, job);
        assert_eq!(serial, Err(2));
        assert_eq!(parallel, Err(2));
    }

    #[test]
    fn worker_count_is_clamped_to_jobs() {
        assert_eq!(Concurrency::Serial.workers(8), 1);
        assert_eq!(Concurrency::Threads(4).workers(8), 4);
        assert_eq!(Concurrency::Threads(16).workers(3), 3);
        assert_eq!(Concurrency::Threads(0).workers(3), 1);
        assert_eq!(Concurrency::Threads(4).workers(0), 1);
    }

    #[test]
    fn threads_constructor_normalizes() {
        assert_eq!(Concurrency::threads(0), Concurrency::Serial);
        assert_eq!(Concurrency::threads(1), Concurrency::Serial);
        assert_eq!(Concurrency::threads(3), Concurrency::Threads(3));
    }

    #[test]
    fn zero_and_one_job_edge_cases() {
        let exec = Executor::new(Concurrency::Threads(4));
        assert_eq!(exec.map(0, |i| i), Vec::<usize>::new());
        assert_eq!(exec.map(1, |i| i + 41), vec![41]);
    }

    #[test]
    fn env_override_parses_all_forms() {
        // Set/removed around the assertions only; tests in this module run
        // in one process, so keep the variable's lifetime tight.
        std::env::set_var("TAGLETS_THREADS", "4");
        assert_eq!(Concurrency::Serial.from_env(), Concurrency::Threads(4));
        std::env::set_var("TAGLETS_THREADS", "1");
        assert_eq!(Concurrency::Threads(8).from_env(), Concurrency::Serial);
        std::env::set_var("TAGLETS_THREADS", "serial");
        assert_eq!(Concurrency::Threads(8).from_env(), Concurrency::Serial);
        std::env::set_var("TAGLETS_THREADS", "not-a-number");
        assert_eq!(Concurrency::Threads(2).from_env(), Concurrency::Threads(2));
        std::env::remove_var("TAGLETS_THREADS");
        assert_eq!(Concurrency::Threads(2).from_env(), Concurrency::Threads(2));
    }
}
