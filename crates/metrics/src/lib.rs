//! Measurement primitives for the μFAB reproduction.
//!
//! This crate is deliberately dependency-free: it defines the statistics,
//! time-series, and recording machinery that both the simulator agents and
//! the experiment harness use to report results. Time is represented as
//! `u64` nanoseconds throughout (matching `netsim::Time`), but this crate
//! does not depend on the simulator so that it can also be used standalone
//! (e.g. in the analytic theory tests).
//!
//! Main pieces:
//!
//! * `stats` — streaming moments, exact percentiles.
//! * `timeseries` — per-entity rate series sampled on a fixed grid.
//! * [`recorder`] — the shared [`Recorder`](recorder::Recorder) sink that
//!   edge agents write delivered bytes / RTT samples / flow completions into
//!   and that experiments read results out of.
//! * `convergence` — the paper's *bandwidth dissatisfaction ratio*
//!   (§5.2, Fig 11d / Fig 17a).
//! * `fairness` — Jain's index.
//! * [`table`] — plain-text table / CSV emission used by the `repro` binary.

#![deny(missing_docs)]

pub(crate) mod convergence;
pub(crate) mod fairness;
pub mod recorder;
pub(crate) mod stats;
pub mod table;
pub(crate) mod timeseries;

pub use convergence::DissatisfactionMeter;
pub use fairness::jain_index;
pub use recorder::{Recorder, SharedRecorder};
pub use stats::{OnlineStats, Percentiles};
pub use timeseries::RateSeries;

/// Nanoseconds, mirroring `netsim::Time` without the dependency.
pub(crate) type Nanos = u64;

/// One millisecond in nanoseconds.
pub const MS: Nanos = 1_000_000;

/// Convert a byte count observed over `dt` nanoseconds into bits/second.
///
/// Returns 0.0 for an empty interval rather than dividing by zero.
pub(crate) fn bps(bytes: u64, dt: Nanos) -> f64 {
    if dt == 0 {
        return 0.0;
    }
    bytes as f64 * 8.0 * 1e9 / dt as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bps_converts() {
        // 125 MB in one second = 1 Gbps.
        assert_eq!(bps(125_000_000, 1000 * MS), 1e9);
        assert_eq!(bps(0, MS), 0.0);
        assert_eq!(bps(100, 0), 0.0);
    }
}
