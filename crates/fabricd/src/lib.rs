//! The fabric control plane: the one tenant lifecycle, operated online
//! behind a typed command API over the `fabric` crate's
//! ledger/placement machinery.
//!
//! Every guaranteed byte in the repo is committed and released here —
//! tenants are admitted, qualify, resize, get quarantined and
//! reinstated, depart and are reclaimed; switches get cordoned and
//! drained, and the control plane survives restarts
//! without violating any admitted guarantee. The batch scenarios
//! (`repro churn`/`abuse`/`dse`) drive the same service with admissions
//! pre-decided by [`fabric::plan`]; `repro ops` drives it with a live op
//! stream.
//!
//! * `ops` — [`FabricOp`]/[`FabricReply`] with a
//!   canonical single-line wire form; the encoded bytes of every
//!   applied op and its reply feed the service's determinism digest.
//! * `service` — [`FabricService`]: the tenant state machine
//!   (`Requested → Admitted → Qualifying → Guaranteed → Departing →
//!   Reclaimed`, chaos re-qualification, the DESIGN §10 quarantine
//!   ladder), scheduled departures and reclaims, and the conservation
//!   audit, under a paced op queue applied in `(timestamp, seq)` order;
//!   tenant CRUD plus in-place **resize** (admissibility-checked delta
//!   commit/release on the existing ECMP spread — no depart/re-admit
//!   round trip) and **cordon/drain** (all-or-nothing migration off
//!   drained hosts, spread-table rebuilds around cordoned aggs/cores).
//! * `invariants` — online checks over the service (ledger
//!   conservation, bounded qualifying time) pluggable into an
//!   [`obs::InvariantSuite`].
//! * `snapshot` — versioned serialization of tenants + cordons +
//!   admission-queue state with byte-exact (IEEE-754 bit pattern)
//!   floats; restore rebuilds the ledger and placer from the active
//!   tenants, and a restored service passes the conservation audit,
//!   re-snapshots byte-identically (the `SnapshotRoundTrip` invariant),
//!   and continues the original digest stream.

#![deny(missing_docs)]

pub(crate) mod invariants;
pub(crate) mod ops;
pub(crate) mod service;
pub(crate) mod snapshot;

pub use invariants::{LedgerConservation, QualifyingStagger};
pub use ops::{FabricOp, FabricReply};
pub use service::{Applied, FabricService, RECLAIM_GRACE};
