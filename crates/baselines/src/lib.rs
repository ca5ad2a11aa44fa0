//! The baseline systems the paper compares μFAB against (§2.2, §5.1):
//!
//! * `swift` — Swift-style delay-based congestion control, weighted per
//!   source (the WCC of Seawall/ElasticSwitch; the paper picks Swift as
//!   the WCC basis "due to its excellent low latency").
//! * `clove` — Clove: edge-based flowlet load balancing directed by
//!   explicit path utilisation (the simulator stamps `max_util` on data
//!   packets; tiny per-path pilot packets keep estimates of unused paths
//!   fresh, as Clove-INT does).
//! * `picnic` — PicNIC′: the paper's reduction of PicNIC to its
//!   bandwidth-envelope components — sender-side WFQ plus receiver-driven
//!   admission (per-sender grants ∝ guarantee tokens, as EyeQ).
//! * [`edge`] — [`BaselineEdge`](edge::BaselineEdge): one edge agent
//!   implementing both composites evaluated in the paper,
//!   **PicNIC′+WCC+Clove** and **ElasticSwitch+Clove**, on the same
//!   transport engine ([`ufab::endpoint`]) μFAB uses, so measured
//!   differences are control-plane differences.
//!
//! ElasticSwitch's rate allocation is the `max(guarantee, WCC)` floor:
//! the sending window never drops below `B^min·baseRTT` even under
//! congestion — which is exactly why the paper's Fig 11e/17b shows it
//! queueing heavily.

#![deny(missing_docs)]

pub(crate) mod clove;
pub mod edge;
pub(crate) mod picnic;
pub(crate) mod swift;
