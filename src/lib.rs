//! Umbrella crate for the μFAB reproduction.
//!
//! Re-exports every workspace crate so examples and downstream users can
//! depend on a single package:
//!
//! ```
//! use ufab_repro::ufab;
//! let cfg = ufab::UfabConfig::default();
//! assert!(cfg.bounded_latency);
//! ```

pub use baselines;
pub use dse;
pub use experiments;
pub use fabric;
pub use fabricd;
pub use metrics;
pub use netsim;
pub use telemetry;
pub use topology;
pub use ufab;
pub use workloads;
