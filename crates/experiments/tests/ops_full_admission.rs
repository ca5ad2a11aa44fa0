//! `repro ops --servers 128 --seed 1` used to exit 101: this seed's
//! trace admits all 112 requests, and `ops::run` asserted that some
//! request must be rejected. Whether a trace over-subscribes a class is
//! a property of the seed, not of the service, so the cell must report.
//!
//! Own test binary: `ops::run` writes `results/ops_fabricd.csv` under
//! the working directory, which this test moves.

use experiments::scenarios::common::Scale;
use experiments::scenarios::ops;

#[test]
fn a_trace_that_admits_everything_still_gets_its_rows() {
    std::env::set_current_dir(env!("CARGO_TARGET_TMPDIR")).unwrap();
    let scale = Scale {
        seed: 1,
        servers: Some(128),
        ..Scale::default()
    };
    let csv = ops::run(scale, "mixed", None).to_csv();
    let rows: Vec<Vec<&str>> = csv.lines().map(|l| l.split(',').collect()).collect();
    assert_eq!(rows[0][..3], ["policy", "admit", "reject"]);
    assert_eq!(rows.len(), 3, "one row per placement policy:\n{csv}");
    for row in &rows[1..] {
        assert_eq!(row[1..3], ["112", "0"], "{csv}");
    }
}
