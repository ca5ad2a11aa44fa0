//! Packet-level discrete-event network simulator.
//!
//! This crate is the substrate on which the μFAB reproduction runs — it
//! replaces the paper's hardware testbed (SmartNICs + Tofino switches) and
//! its NS3 simulations with a single deterministic, single-threaded
//! discrete-event engine, following the event-driven design ethos of the
//! networking guides (no async runtime: the workload is CPU-bound).
//!
//! The model:
//!
//! * **Nodes** are hosts or switches. Every node owns **ports**; each port
//!   is the sending side of one unidirectional channel (capacity,
//!   propagation delay, drop-tail byte-bounded queue, up/down state, and
//!   an EWMA TX-rate meter).
//! * **Packets** carry an explicit source route (egress port per node) —
//!   μFAB pins VM-pairs to underlay paths via source routing (§3.2); an
//!   ECMP table fallback exists for route-less packets.
//! * **Edge agents** (one per host) implement transports: μFAB-E and every
//!   baseline. They see packet arrivals, timers, NIC-idle callbacks and an
//!   injection channel for workload drivers.
//! * **Switch agents** (one per switch, optional) hook the egress pipeline
//!   at dequeue time — exactly where a P4 switch stamps INT — and get a
//!   periodic timer (μFAB-C's idle cleanup).
//! * **Faults**: links can be scheduled up/down (the smoltcp guide's
//!   fault-injection ethos); the `chaos` module generalises this into
//!   seed-deterministic [`FaultPlan`]s (flapping, degradation, burst
//!   loss, selective loss, INT corruption, switch reboots, edge
//!   restarts).
//!
//! Determinism: all randomness flows from one master seed through per-node
//! RNG streams, and the event queue breaks time ties by insertion sequence,
//! so a given (topology, agents, seed) triple always produces identical
//! results.

#![deny(missing_docs)]

pub mod agent;
pub mod builder;
pub(crate) mod chaos;
pub(crate) mod equeue;
pub(crate) mod fastmap;
pub(crate) mod ids;
pub mod msg;
pub mod packet;
pub(crate) mod port;
pub(crate) mod route;
pub mod sim;
pub mod time;

pub use agent::EdgeAgent;
pub use chaos::{FaultKind, FaultPlan};
pub use equeue::{EventQueue, QueueStats};
pub use fastmap::FastMap;
pub use ids::{FlowId, NodeId, PairId, PortNo, TenantId, VmId};
pub use msg::{AppMsg, Inject};
pub use route::Route;
pub use sim::Simulator;
pub use time::{Time, MS, SEC, US};

/// Bytes of link+IP+transport framing added to every data payload packet.
pub const DATA_OVERHEAD: u32 = 58;
/// Size of a pure ACK packet in bytes.
pub const ACK_SIZE: u32 = 64;
