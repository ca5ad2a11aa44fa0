//! Full-stack determinism of the `dse` sweep (ISSUE 10 satellite):
//! the rendered measurement and Pareto tables — the exact bytes `repro
//! dse` prints and writes to CSV — must be identical at any `--jobs`
//! worker count, with the invariant suite armed.
//!
//! Own test binary: the executor's jobs knob is process-wide, so this
//! file must not share a process with tests that race it.

use experiments::scenarios::common::Scale;
use experiments::scenarios::dse as dse_scenario;
use ufab::CoreHwCfg;

/// A two-point mini-grid (paper baseline + starved 64 B Bloom filter):
/// enough to exercise sweep fan-out, the cost bridge, and a non-trivial
/// front, while keeping the debug-build runtime test-sized.
fn mini_grid() -> Vec<CoreHwCfg> {
    let base = dse::baseline();
    vec![
        base,
        CoreHwCfg {
            bloom_bytes: 64,
            ..base
        },
    ]
}

fn sweep_bytes(jobs: usize) -> (String, String, Vec<f64>) {
    experiments::executor::set_jobs(jobs);
    let scale = Scale {
        seed: 1,
        quick: true,
        check_invariants: true,
        ..Scale::default()
    };
    let out = dse_scenario::sweep(scale, &mini_grid());
    experiments::executor::set_jobs(0);
    assert!(out.front_size > 0, "front must be non-empty");
    (out.grid.render(), out.pareto.render(), out.fp_pct)
}

#[test]
fn sweep_bytes_identical_at_any_worker_count() {
    let serial = sweep_bytes(1);
    // The starved filter must show measurable FP omissions even in the
    // mini cell — the knob → behaviour thread the sweep exists to map.
    assert!(
        serial.2[1] > serial.2[0],
        "64 B filter FP rate {:.3}% must exceed baseline {:.3}%",
        serial.2[1],
        serial.2[0]
    );
    let jobs4 = sweep_bytes(4);
    assert_eq!(serial.0, jobs4.0, "grid table changed under --jobs 4");
    assert_eq!(serial.1, jobs4.1, "pareto table changed under --jobs 4");
}
