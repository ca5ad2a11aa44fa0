//! # μFAB design-space exploration (`dse`)
//!
//! ROADMAP item 5: a Kugelblitz-style *executable* sweep of μFAB-C
//! hardware knobs. `ufab::resources` reproduces the paper's Table 3/4
//! static accounting; this crate closes the loop by pairing that
//! analytic cost model with *measured* accuracy outcomes from the
//! simulator, the way §3.6 pairs the Bloom false-positive analysis with
//! observed omissions.
//!
//! The crate is deliberately pure — no simulator dependency — so it can
//! sit below `experiments` without a cycle:
//!
//! * `knobs` — the knob space, whose points are `ufab::CoreHwCfg`s
//!   around the reference point [`baseline`], and the sweep grids
//!   ([`GridKind`]). Every knob maps to a real behaviour in
//!   `ufab::core_agent` via [`apply`] on a `UfabConfig`:
//!   register width saturates INT read-outs, Bloom size/hashes change
//!   real false-positive omissions, hop depth truncates telemetry,
//!   cleanup period bounds stale-entry lifetime.
//! * `cost` — bridges a knob point to the Table 4 Tofino operating
//!   point ([`cost::cost_of`]), scaling the SRAM / hash-bit /
//!   stateful-ALU / PHV shares with the knobs that consume them.
//! * [`pareto`] — non-dominated sorting over the cost × outcome vector
//!   ([`pareto::pareto_front`]), deterministic under input permutation.
//!
//! The sweep engine itself (fanning the grid over the parallel
//! executor and measuring outcomes on a churn-style cell) lives in
//! `experiments::scenarios::dse`; run it as `repro dse --grid quick`.

#![deny(missing_docs)]

pub(crate) mod cost;
pub(crate) mod knobs;
pub mod pareto;

pub use cost::{cost_of, CostBreakdown};
pub use knobs::{apply, baseline, label, GridKind};
pub use pareto::pareto_front;
