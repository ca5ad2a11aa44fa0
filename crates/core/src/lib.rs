//! # μFAB — Predictable vFabric on an Informative Data Plane
//!
//! A from-scratch Rust implementation of the SIGCOMM '22 paper's system:
//! a virtual-fabric service for multi-tenant data centers that provides
//! **minimum bandwidth guarantees**, **work conservation**, and **bounded
//! tail latency** simultaneously, converging at sub-millisecond timescales.
//!
//! The design is a fusion of an *informative core* and an *active edge*:
//!
//! * [`core_agent::UfabCore`] — μFAB-C, the switch program. At egress
//!   dequeue it reads each probe's demand (φ, w), maintains the per-link
//!   demand summaries Φ_l and W_l (two registers + a counting Bloom
//!   filter), and stamps link telemetry (capacity, queue, TX rate) into the
//!   probe (§3.6, §4.2).
//! * [`edge::UfabEdge`] — μFAB-E, the SmartNIC program. It aggregates
//!   tenant flows into VM-pairs on explicit underlay paths, runs the
//!   hierarchical bandwidth allocation of §3.3 (Eqns 1–3), the two-stage
//!   window-based traffic admission of §3.4 (bounding worst-case inflight
//!   to 3 BDP), and the qualification-aware path migration of §3.5.
//! * [`tokens`] — the Guarantee-Partitioning token assignment the edge
//!   runs every update period (Appendix E, Algorithm 1) plus the multipath
//!   token split (Appendix F, Algorithm 2).
//! * [`endpoint`] — the host transport engine (per-pair message queues,
//!   packetisation, selective-repeat reliability, delivery/FCT tracking,
//!   request/response auto-reply). Shared with the baseline transports so
//!   every system is measured identically.
//! * [`theory`] — reference allocations from Appendix C: weighted max-min
//!   waterfilling (the α→∞ limit μFAB converges to) used for "Ideal"
//!   comparisons and property tests.
//! * [`resources`] — the analytic FPGA/Tofino resource models reproducing
//!   Tables 3 and 4.
//!
//! ## Quick start
//!
//! ```
//! use ufab::{FabricSpec, UfabConfig};
//! use netsim::{NodeId, VmId};
//!
//! let mut fabric = FabricSpec::new(500e6); // B_u = 500 Mbps per token
//! let t = fabric.add_tenant("tenant-a", 2.0); // 2 tokens / VM = 1 Gbps
//! let v0 = fabric.add_vm(t, NodeId(0));
//! let v1 = fabric.add_vm(t, NodeId(1));
//! let pair = fabric.add_pair(v0, v1);
//! assert_eq!(fabric.pair_guarantee_bps(pair), 1e9);
//! let _cfg = UfabConfig::default();
//! ```

#![deny(missing_docs)]

pub(crate) mod config;
pub(crate) mod core_agent;
pub mod edge;
pub mod endpoint;
pub mod fabric;
pub mod invariants;
pub mod resources;
pub mod theory;
pub mod tokens;

pub use config::UfabConfig;
pub use core_agent::{CoreHwCfg, UfabCore};
pub use edge::UfabEdge;
pub use endpoint::AppMsg;
pub use fabric::FabricSpec;

/// Set slot `s` of a slot-indexed column to `v`, growing the column when
/// `s` is one past its end (a new slot) and overwriting a reused one.
pub(crate) fn put<T>(col: &mut Vec<T>, s: usize, v: T) {
    if s == col.len() {
        col.push(v);
    } else {
        col[s] = v;
    }
}
