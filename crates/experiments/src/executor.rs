//! Parallel experiment executor.
//!
//! Every scenario in this crate boils down to a grid of *independent*
//! simulator runs: (system, seed, config) cells that share no mutable
//! state. Each cell builds its own [`crate::harness::Runner`] — simulators hold
//! `Rc`/`RefCell` plumbing and are deliberately **not** `Send`, so a job
//! closure builds *and* drives the runner entirely inside one worker
//! thread and returns only plain (`Send`) data: table rows, percentile
//! summaries, digests.
//!
//! Determinism: results are returned in **submission order**, no matter
//! which worker finished first or how many workers ran. Combined with
//! every job owning its own seeded simulator, `repro --jobs 8` produces
//! byte-identical stdout/CSV output to `--jobs 1`.
//!
//! Worker count: [`set_jobs`] (the `--jobs N` CLI flag), else
//! [`std::thread::available_parallelism`].
//!
//! Whatever the request, [`run_jobs`] never spawns more workers than the
//! machine has cores: oversubscribing the pool (e.g. `--jobs 4` on one
//! core) costs real throughput — the workers contend for the same CPU
//! and evict each other's caches — without changing any output, so the
//! excess is clamped away. Output is submission-ordered either way.
//!
//! The grid is the only thing spread over cores: a simulation is one
//! event queue run by one thread.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker-count override; 0 = unset (fall back to cores).
static JOBS: AtomicUsize = AtomicUsize::new(0);

// Only callers: `ufabbench/src/{suite,twin}.rs` (frozen); ROADMAP item 1's PR deletes both.
#[doc(hidden)]
pub fn set_shards(_n: usize) {}

/// Set the worker count explicitly (the `--jobs N` flag). `0` clears the
/// override.
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::Relaxed);
}

/// Resolved worker count (see module docs).
pub(crate) fn jobs() -> usize {
    let n = JOBS.load(Ordering::Relaxed);
    if n > 0 {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One schedulable unit: a label (for error reporting) plus a closure
/// that builds, drives, and summarises one simulator run.
pub struct Job<T> {
    label: String,
    run: Box<dyn FnOnce() -> T + Send>,
}

impl<T> Job<T> {
    /// Package a closure as a job. The closure must capture only `Send`
    /// data (seeds, configs, scales — not runners).
    pub fn new(label: impl Into<String>, run: impl FnOnce() -> T + Send + 'static) -> Self {
        Self {
            label: label.into(),
            run: Box::new(run),
        }
    }
}

/// Run `jobs` across the configured number of workers and return their
/// results **in submission order**.
///
/// With one worker (or one job) everything runs inline on the calling
/// thread — the serial path stays allocation- and thread-free so tiny
/// scenarios pay nothing for the machinery.
///
/// # Panics
/// Propagates the first panicking job (by submission order), naming its
/// label.
pub fn run_jobs<T: Send>(jobs_in: Vec<Job<T>>) -> Vec<T> {
    // Clamp to the physical core count: extra workers on a saturated
    // machine only add scheduling churn (see module docs).
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let n_workers = jobs().min(jobs_in.len()).min(cores);
    if n_workers <= 1 {
        return jobs_in.into_iter().map(|j| (j.run)()).collect();
    }

    let n = jobs_in.len();
    let queue: Mutex<VecDeque<(usize, Job<T>)>> =
        Mutex::new(jobs_in.into_iter().enumerate().collect());
    let slots: Vec<Mutex<Option<std::thread::Result<T>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..n_workers {
            scope.spawn(|| loop {
                let Some((idx, job)) = queue.lock().expect("job queue poisoned").pop_front() else {
                    return;
                };
                // Catch panics so one bad cell reports its label instead
                // of tearing down the whole pool with a poisoned queue.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job.run));
                if let Err(payload) = &result {
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic".into());
                    eprintln!("[executor] job '{}' panicked: {msg}", job.label);
                }
                *slots[idx].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            match slot
                .into_inner()
                .expect("result slot poisoned")
                .expect("worker exited without storing a result")
            {
                Ok(v) => v,
                Err(payload) => std::panic::resume_unwind(payload),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `set_jobs` is process-global; serialize the tests that touch it.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn results_come_back_in_submission_order() {
        let _g = TEST_LOCK.lock().unwrap();
        set_jobs(4);
        let jobs: Vec<Job<usize>> = (0..32)
            .map(|i| {
                Job::new(format!("job{i}"), move || {
                    // Stagger finish times so completion order != submission.
                    std::thread::sleep(std::time::Duration::from_micros(
                        ((31 - i) % 7) as u64 * 100,
                    ));
                    i * 10
                })
            })
            .collect();
        let out = run_jobs(jobs);
        set_jobs(0);
        assert_eq!(out, (0..32).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn serial_path_matches_parallel() {
        let _g = TEST_LOCK.lock().unwrap();
        let mk = || {
            (0..16)
                .map(|i| Job::new(format!("j{i}"), move || i * i))
                .collect::<Vec<Job<i32>>>()
        };
        set_jobs(1);
        let serial = run_jobs(mk());
        set_jobs(4);
        let parallel = run_jobs(mk());
        set_jobs(0);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn explicit_jobs_override_cores_and_zero_clears() {
        let _g = TEST_LOCK.lock().unwrap();
        set_jobs(3);
        assert_eq!(jobs(), 3);
        set_jobs(0);
        assert!(jobs() >= 1);
    }
}
