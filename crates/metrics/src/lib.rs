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
//! * [`stats`] — streaming moments, exact percentiles.
//! * [`timeseries`] — per-entity rate series sampled on a fixed grid.
//! * [`recorder`] — the shared [`Recorder`](recorder::Recorder) sink that
//!   edge agents write delivered bytes / RTT samples / flow completions into
//!   and that experiments read results out of.
//! * [`convergence`] — the paper's *bandwidth dissatisfaction ratio*
//!   (§5.2, Fig 11d / Fig 17a).
//! * [`fairness`] — Jain's index.
//! * [`table`] — plain-text table / CSV emission used by the `repro` binary.

#![deny(missing_docs)]

pub mod convergence;
pub mod fairness;
pub mod recorder;
pub mod stats;
pub mod table;
pub mod timeseries;

pub use convergence::DissatisfactionMeter;
pub use fairness::jain_index;
pub use recorder::{Completion, Recorder, SharedRecorder};
pub use stats::{OnlineStats, Percentiles};
pub use timeseries::{RateSeries, SeriesSet};

/// Nanoseconds, mirroring `netsim::Time` without the dependency.
pub type Nanos = u64;

/// One second in nanoseconds.
pub const SEC: Nanos = 1_000_000_000;
/// One millisecond in nanoseconds.
pub const MS: Nanos = 1_000_000;
/// One microsecond in nanoseconds.
pub const US: Nanos = 1_000;

/// Convert a byte count observed over `dt` nanoseconds into bits/second.
///
/// Returns 0.0 for an empty interval rather than dividing by zero.
pub fn bps(bytes: u64, dt: Nanos) -> f64 {
    if dt == 0 {
        return 0.0;
    }
    bytes as f64 * 8.0 * 1e9 / dt as f64
}

/// Convert bits/second into Gbit/s for display.
pub fn gbps(rate_bps: f64) -> f64 {
    rate_bps / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bps_converts() {
        // 125 MB in one second = 1 Gbps.
        assert_eq!(bps(125_000_000, SEC), 1e9);
        assert_eq!(bps(0, SEC), 0.0);
        assert_eq!(bps(100, 0), 0.0);
    }

    #[test]
    fn gbps_scales() {
        assert_eq!(gbps(2.5e9), 2.5);
    }
}
