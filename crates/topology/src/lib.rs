//! Data-center topologies for the μFAB reproduction.
//!
//! Provides the exact graphs the paper evaluates on, plus generic builders:
//!
//! * [`testbed`] — Fig 10: 3-tier, 2 pods, 8 servers, 10 programmable
//!   switches (4 ToR + 4 Agg + 2 Core), 10 G links, max baseRTT ≈ 24 μs.
//! * [`case2`] — the §2.2 Case-2 graph: two ToRs joined by three
//!   aggregation switches, giving exactly three equivalent paths P1–P3.
//! * [`three_tier`] — parametric pods/ToRs/Aggs/Cores fabric used for the
//!   NS3-scale experiments (Fig 17: 512 servers, 1:1 or 1:2
//!   oversubscription at the core).
//! * [`dumbbell`] — n hosts each side of one bottleneck (unit analysis).
//!
//! A [`Topo`] owns the [`netsim::builder::Network`] until
//! [`Topo::take_network`] hands it to the simulator, and retains an
//! adjacency map for **path enumeration** (all minimum-hop paths, the
//! candidate set μFAB-E randomly samples from, §3.5), **ECMP table**
//! installation, and **baseRTT** computation.

#![deny(missing_docs)]

pub(crate) mod graph;
pub(crate) mod shapes;

pub use graph::{Tier, Topo};
pub use shapes::{case2, dumbbell, leaf_spine, testbed, three_tier, TestbedCfg, ThreeTierCfg};
