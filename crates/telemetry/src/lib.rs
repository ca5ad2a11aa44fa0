//! In-band network telemetry primitives for μFAB.
//!
//! This crate holds everything §3.2/§3.6/§4.2 and Appendix G of the paper
//! define about the *information* layer, independent of the simulator:
//!
//! * `frame` — the logical probe / response / finish frames carried by
//!   simulator packets, including the per-hop INT records (link capacity,
//!   queue size, TX rate, total subscription Φ_l, total window W_l).
//! * [`wire`] — the bit-accurate Appendix-G packet layout. The simulator
//!   moves logical frames around for fidelity of *values*, but probe packet
//!   *sizes* (and therefore Fig 15b's bandwidth overhead) are computed from
//!   this encoding, and encode/decode round-trips are tested to the
//!   quantisation step.
//! * `counting` — the counting Bloom filter μFAB-C uses to recognise
//!   active VM-pairs and to forget them on a finish probe (two banks by
//!   default, the paper's §4.2 layout).
//! * `rate` — the per-port EWMA TX-rate estimator behind `tx_l`.
//! * `registers` — the Φ_l / W_l register pair with saturating updates.

#![deny(missing_docs)]

pub(crate) mod counting;
pub(crate) mod frame;
pub(crate) mod rate;
pub(crate) mod registers;
pub mod wire;

pub use counting::CountingBloom;
pub use frame::{FinishFrame, HopInfo, ProbeFrame, ProbeKind};
pub use rate::RateEstimator;
pub use registers::DemandRegisters;
