//! The three checks only the retired `simbench` binary held. One is
//! exact and runs in tier-1; two compare wall clocks, so they are
//! `#[ignore]`d and meant for a release build:
//! `cargo test --release -p bench --test guards -- --ignored`.

use bench::scenario::{run_testbed_permutation, run_testbed_permutation_chaos_idle};
use experiments::executor;
use experiments::scenarios::common::Scale;
use experiments::scenarios::{abuse, churn, fig11};
use netsim::MS;
use std::sync::Mutex;
use std::time::Instant;

/// One timing guard at a time: the test harness runs tests on parallel
/// threads, and a second cell on the other core is exactly the noise the
/// interleaving below cannot cancel.
static TIMING: Mutex<()> = Mutex::new(());

/// Best wall-clock ms per arm over `reps` rounds that take every arm in
/// turn, so a slow phase of a shared machine hits both arms equally.
fn best_of_interleaved(reps: usize, arms: [fn() -> u64; 2]) -> [f64; 2] {
    let mut best = [f64::INFINITY; 2];
    for _ in 0..reps {
        for (slot, arm) in arms.iter().enumerate() {
            let t0 = Instant::now();
            arm();
            best[slot] = best[slot].min(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    best
}

/// An empty fault plan puts every send through the chaos runtime's
/// lookup branch and must fire nothing.
#[test]
fn idle_chaos_engine_leaves_the_event_count_identical() {
    let until = 10 * MS;
    assert_eq!(
        run_testbed_permutation_chaos_idle(1, until),
        run_testbed_permutation(1, until),
        "an idle chaos engine must not change the simulation"
    );
}

/// The enforcement stage and the containment loop, armed over honest
/// tenants only, against the identical churn cell with both off.
#[test]
#[ignore = "timing guard: release build, quiet machine"]
fn abuse_clean_path_overhead_stays_under_3_percent() {
    let _one_at_a_time = TIMING.lock().unwrap_or_else(|e| e.into_inner());
    let [baseline, clean] = best_of_interleaved(
        3,
        [|| churn::bench_cell_at(1, 64), || abuse::bench_cell(1, 0)],
    );
    let overhead = (clean - baseline) / baseline * 100.0;
    assert!(
        overhead < 3.0,
        "clean-tenant-path enforcement overhead {overhead:.2}% breaches the 3% bound \
         (clean {clean:.0} ms vs baseline {baseline:.0} ms)"
    );
}

/// More executor jobs must never be slower than serial beyond noise
/// (`--jobs 4` on a saturated 1-core machine lost ~25% to
/// oversubscription until `executor::run_jobs` learned to clamp to the
/// core count).
#[test]
#[ignore = "timing guard: release build, quiet machine"]
fn fig11_quick_jobs4_is_at_least_085_of_jobs1() {
    let _one_at_a_time = TIMING.lock().unwrap_or_else(|e| e.into_inner());
    // `fig11` writes `results/*.csv` under the working directory.
    std::env::set_current_dir(env!("CARGO_TARGET_TMPDIR")).unwrap();
    fn fig11_at(jobs: usize) -> u64 {
        executor::set_jobs(jobs);
        fig11::run_with_stats(Scale::default()).1
    }
    let [serial, par] = best_of_interleaved(2, [|| fig11_at(1), || fig11_at(4)]);
    // Both arms run the same events, so the rates compare as the walls.
    assert!(
        serial / par >= 0.85,
        "parallel executor regression: fig11_quick jobs=4 took {par:.0} ms, \
         below 85% of the jobs=1 rate ({serial:.0} ms)"
    );
}
