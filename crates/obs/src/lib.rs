//! Observability subsystem: flight recorder, online invariants and a
//! determinism hasher.
//!
//! This crate is a dependency-free leaf so that every layer — `netsim`
//! at the bottom, `ufab` and the experiment harness above it — can emit
//! structured events into one `FlightRecorder` without dependency
//! cycles. Event payloads are raw integers/floats (`NodeId::raw()`
//! etc.), never simulator types.
//!
//! Three pieces:
//!
//! * `FlightRecorder` — a fixed-capacity ring buffer of timestamped
//!   [`Event`]s with a per-[`Category`] enable mask, dumpable as JSONL
//!   on demand, on invariant failure, or on panic
//!   ([`arm_panic_dump`]). The cheap clonable [`ObsHandle`] is what
//!   instrumented code holds: when tracing is off it is a single
//!   `Option` check per site and the event constructor closure is
//!   never run.
//! * [`Invariant`]/[`InvariantSuite`] — online checkers evaluated on a
//!   timer against an arbitrary context type (the simulator), each
//!   failure producing a `Violation` carrying the checker's detail
//!   string plus the last N recorder events.
//! * [`DetHash`] — an FNV-1a fold over every event-loop step so two
//!   same-seed runs can be compared in O(1).

mod event;
mod hash;
mod invariant;
mod recorder;

pub use event::{Category, CategoryMask, Event};
pub use hash::DetHash;
pub use invariant::{Invariant, InvariantSuite, SnapshotRoundTrip, Snapshottable};
pub use recorder::{arm_panic_dump, ObsHandle};
