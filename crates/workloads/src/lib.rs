//! Workload generators and application models for the μFAB evaluation.
//!
//! * [`dists`] — empirical distributions: the web-search flow sizes the
//!   paper samples for its "real workload" (§5.5, from [7]), the
//!   key-value object sizes of the Memcached model (mean ≈ 2 KB, from
//!   [10]), and Poisson arrival helpers.
//! * [`driver`] — the closed-loop driver framework: drivers inject
//!   [`AppMsg`]s through a [`driver::WorkloadPort`] and react to completions the
//!   experiment harness drains from the shared recorder between
//!   simulation slices.
//! * [`patterns`] — open-loop patterns: permutation with guarantee
//!   classes (Fig 11), N-to-1 incast (Fig 4/12), the 90-to-1 on-off
//!   underload/overload toggle (Fig 16), and Poisson flow arrivals over
//!   synthesized tenants (Fig 17).
//! * [`ecs`] — the Elastic Compute Service scenario (Fig 13): Memcached
//!   (latency-sensitive closed-loop GETs) vs MongoDB (bandwidth-hungry
//!   500 KB fetches).
//! * [`ebs`] — the Elastic Block Storage scenario (Fig 14): Storage
//!   Agents, Block Agents with 3-way replication, and the Garbage
//!   Collection read/write-back loop.
//! * [`abuse`] — adversarial generators for the hostile-tenant
//!   containment scenario (guarantee-exceeding sender, probe flooder,
//!   UDP blaster) with deterministic hostile selection.

#![deny(missing_docs)]

pub mod abuse;
pub mod churn;
pub mod dists;
pub mod driver;
pub mod ebs;
pub mod ecs;
pub mod patterns;

pub use ufab::endpoint::AppMsg;
