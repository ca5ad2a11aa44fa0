//! Hose-model capacity accounting, placement and admission planning
//! over any [`topology`] graph.
//!
//! The paper's deliverable is a *predictable vFabric* — a hose-model
//! guarantee (B_min per VM) that the provider must be able to admit,
//! qualify, and reclaim as tenants come and go. This crate holds the
//! stateless machinery of that control plane; the one live tenant
//! lifecycle that drives it is `fabricd::FabricService`:
//!
//! * `ledger` — per-link committed-B_min accounting with an
//!   admissibility check (commit fractionally along the ECMP up-walk,
//!   admit only while every touched link stays under η·cap), in exact
//!   integer units so its state is a function of the live tenants;
//! * `place` — first-fit / load-spread VM placement gated by the
//!   ledger, all-or-nothing per tenant, anti-affinity within a tenant;
//! * `manager` — the admission types, the lifecycle states
//!   `Requested → Admitted → Qualifying → Guaranteed → Departing →
//!   Reclaimed` with their transition table, and [`plan`]: a pure
//!   pre-pass over a full arrival trace that fixes every tenant's
//!   hosts and decision instant before a simulation is built, and the
//!   reference model the live service is property-tested against;
//! * `abuse` — the misbehavior ledger (DESIGN §10): per tenant, a
//!   decayed score fed by each tick's edge enforcement-counter deltas
//!   and a sustain count, with the hysteresis thresholds and clocks the
//!   service's quarantine ladder `Guaranteed → Suspected → Quarantined
//!   → Reinstated` reads. When a hold or a probation started is the
//!   service's to derive from the tenant's guarantee spans.
//!
//! Determinism: everything here is pure control-plane arithmetic — no
//! simulator state, no randomness, no wall-clock — so a churn scenario
//! is byte-identical at any `--jobs N`.

#![deny(missing_docs)]

pub(crate) mod abuse;
pub(crate) mod ledger;
pub(crate) mod manager;
pub(crate) mod place;

pub use abuse::{
    ClampAction, MisbehaviorLedger, ENTER_SCORE, EXIT_SCORE, PENALTY_FRACTION, PROBATION,
    QUARANTINE_HOLD, SUSTAIN_TICKS,
};
pub use ledger::Ledger;
pub use manager::{
    plan, AdmissionCfg, Plan, PlannedTenant, Rejection, TenantReq, TenantState, DECISION_GAP,
};
pub use place::{Placer, Policy, RejectReason};
