//! Experiment harness: regenerates every figure and table of the paper's
//! evaluation (see DESIGN.md §3 for the full index).
//!
//! [`harness`] assembles a simulator for any of the four systems under
//! test — μFAB, μFAB′ (no bounded-latency stage), PicNIC′+WCC+Clove, and
//! ElasticSwitch+Clove — over a chosen topology/fabric, implements the
//! [`workloads::driver::WorkloadPort`] bridge for closed-loop drivers, and samples
//! queues.
//!
//! Each scenario module reproduces one figure/table and returns
//! [`metrics::table::Table`]s that the `repro` binary prints and writes to
//! `results/*.csv`.

#![deny(missing_docs)]

pub mod executor;
pub mod harness;
pub mod scenarios;
