//! Containment determinism properties: the hostile-tenant abuse cell
//! (`repro abuse`) must produce a byte-identical determinism digest at
//! every `--jobs` worker count, with **zero** honest
//! victim guarantee-violation milliseconds and **zero** false
//! quarantines — for arbitrary seeds and hostile fractions, not just
//! the pinned defaults.
//!
//! The cell under test is the 64-server variant with the full invariant
//! suite armed (`abuse::cell_checked`): a mid-run core-switch failure,
//! enforcement on, and the quarantine loop closed every control step.

use experiments::executor::{self, run_jobs, Job};
use experiments::scenarios::abuse;
use std::sync::Mutex;

/// Serializes tests in this file: the executor's jobs worker count is
/// process-global.
static EXEC_LOCK: Mutex<()> = Mutex::new(());

const SERVERS: usize = 64;
const INTENSITY: u32 = 4;

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2))]

    /// Containment must hold (no victim violation-ms, no false
    /// quarantines) for whatever seed and hostile fraction proptest
    /// draws.
    #[test]
    fn containment_holds_for_any_seed(
        seed in 1u64..1_000,
        pct in proptest::sample::select(vec![0u32, 10, 30]),
    ) {
        let _guard = EXEC_LOCK.lock().unwrap();
        let base = abuse::cell_checked(seed, SERVERS, pct, INTENSITY);
        proptest::prop_assert!(!base.digest.is_empty(), "digest must be armed");
        proptest::prop_assert_eq!(
            base.victim_viol_ms, 0,
            "victims lost guarantee-ms at seed {} pct {}", seed, pct
        );
        proptest::prop_assert_eq!(base.false_quarantines, 0);
    }
}

/// The jobs axis: three hostile fractions fanned out through the
/// executor merge to identical per-cell results at 1, 2, and 4
/// workers (results are merged in submission order, so the executor
/// must be invisible in the output).
#[test]
fn containment_is_jobs_invariant() {
    let _guard = EXEC_LOCK.lock().unwrap();
    let run_at = |workers: usize| -> Vec<(String, usize, u64, u64)> {
        executor::set_jobs(workers);
        let cells: Vec<Job<abuse::CellOut>> = [0u32, 10, 30]
            .into_iter()
            .map(|pct| {
                Job::new(format!("abuse:{pct}pct"), move || {
                    abuse::cell_checked(5, SERVERS, pct, INTENSITY)
                })
            })
            .collect();
        let outs = run_jobs(cells);
        executor::set_jobs(0);
        outs.into_iter()
            .map(|o| (o.digest, o.quarantined, o.events, o.victim_viol_ms))
            .collect()
    };
    let serial = run_at(1);
    for (_, _, _, viol) in &serial {
        assert_eq!(*viol, 0, "victim violation-ms in serial run");
    }
    assert_eq!(run_at(2), serial, "jobs=2 changed a cell");
    assert_eq!(run_at(4), serial, "jobs=4 changed a cell");
}
