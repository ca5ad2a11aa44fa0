//! Admission types, the tenant lifecycle states and the admission
//! pre-pass.
//!
//! The live lifecycle — the one place that commits and releases
//! capacity at run time — is `fabricd::FabricService`. What stays here
//! is what that service and its callers share:
//!
//! * [`AdmissionCfg`], [`TenantReq`] and [`TenantState`] with its
//!   transition table [`TenantState::can_go`];
//! * [`plan`], a stateless pre-pass over a full arrival trace. It paces
//!   decisions through the admission queue (one every
//!   [`DECISION_GAP`] ns), releases departures that
//!   precede each decision, and runs the placement policy — producing
//!   an immutable [`Plan`] of per-tenant host assignments, decision
//!   times and rejections. Pure control-plane math: no state machine,
//!   no simulator state, no randomness, no wall-clock.
//!
//! `plan` has two jobs. Planned admissions are decided before the run,
//! so the control-plane half of a cell is a pure function of the trace,
//! and the data plane, `abuse`'s hostile selection and the benchmark's
//! twin of the cell are all built from that one tenant set (the cells
//! then commit each tenant with `FabricService::admit_planned`). And it
//! is the small independent model the live service is diffed against:
//! fed the same requests as admit ops, the service must reach the same
//! decisions (fabricd's `plan_is_the_services_reference_model`
//! property).

use crate::ledger::Ledger;
use crate::place::{Placer, Policy, RejectReason};
use netsim::{NodeId, Time};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use topology::Topo;

/// Minimum spacing between admission decisions (ns). The queue drains
/// one decision per gap, which both rate-limits control-plane churn and
/// staggers qualification load.
pub const DECISION_GAP: Time = 20_000;

/// Admission-control configuration.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionCfg {
    /// Unit bandwidth B_u (paper: 500 Mbps); hose = tokens × B_u.
    pub bu_bps: f64,
    /// Ledger provisioning headroom η: links admit hose up to η·cap.
    pub headroom: f64,
    /// VM slots per host.
    pub max_vms_per_host: usize,
    /// Placement policy.
    pub policy: Policy,
}

impl Default for AdmissionCfg {
    fn default() -> Self {
        Self {
            bu_bps: 500e6,
            headroom: 0.9,
            max_vms_per_host: 8,
            policy: Policy::FirstFit,
        }
    }
}

impl AdmissionCfg {
    /// The hose of one VM holding `tokens`: tokens × B_u in integer bps,
    /// rounded to the nearest, saturating at 0 and `u64::MAX` (so an
    /// absurd token count is an inadmissible hose, never a wrap). Every
    /// ledger and placer amount is made of these.
    pub fn hose(&self, tokens: f64) -> u64 {
        (tokens * self.bu_bps).round() as u64
    }
}

/// One tenant request in the churn trace.
#[derive(Debug, Clone)]
pub struct TenantReq {
    /// Human-readable tenant name (also the `FabricSpec` tenant name).
    pub name: String,
    /// Number of VMs requested.
    pub n_vms: usize,
    /// Hose tokens per VM (B_min = tokens × B_u).
    pub tokens_per_vm: f64,
    /// Arrival time of the request (ns).
    pub arrival: Time,
    /// Requested lifetime from the admission decision (ns).
    pub lifetime: Time,
}

/// Tenant lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantState {
    /// In the admission queue, not yet decided.
    Requested,
    /// Admitted and placed; guarantee not yet active.
    Admitted,
    /// Waiting for μFAB-E to qualify every pair's path.
    Qualifying,
    /// All pairs qualified: the B_min guarantee is in force.
    Guaranteed,
    /// Misbehavior score over the enter threshold; guarantee still in
    /// force while the hysteresis window decides (DESIGN §10).
    Suspected,
    /// Sustained abuse: rate clamped to a penalty fraction at the edge,
    /// guarantee released back to the ledger.
    Quarantined,
    /// Probation after quarantine: guarantee re-committed, score
    /// decaying; re-offending returns straight to `Quarantined`.
    Reinstated,
    /// Departed; capacity freed, teardown in progress.
    Departing,
    /// Fully reclaimed.
    Reclaimed,
}

impl TenantState {
    /// Stable lowercase label (used in obs events and tables).
    pub fn label(self) -> &'static str {
        match self {
            TenantState::Requested => "requested",
            TenantState::Admitted => "admitted",
            TenantState::Qualifying => "qualifying",
            TenantState::Guaranteed => "guaranteed",
            TenantState::Suspected => "suspected",
            TenantState::Quarantined => "quarantined",
            TenantState::Reinstated => "reinstated",
            TenantState::Departing => "departing",
            TenantState::Reclaimed => "reclaimed",
        }
    }

    /// Is `self → next` a legal lifecycle transition? The table the
    /// one lifecycle owner (`fabricd::FabricService`) asserts on every
    /// state change.
    pub fn can_go(self, next: TenantState) -> bool {
        use TenantState::*;
        matches!(
            (self, next),
            (Requested, Admitted)
                | (Admitted, Qualifying)
                | (Qualifying, Guaranteed)
                | (Guaranteed, Qualifying) // chaos re-qualification
                | (Qualifying, Departing)
                | (Guaranteed, Departing)
                | (Departing, Reclaimed)
                // Quarantine ladder (DESIGN §10): hysteresis up and down.
                | (Guaranteed, Suspected)
                | (Suspected, Guaranteed)
                | (Suspected, Quarantined)
                | (Quarantined, Reinstated)
                | (Reinstated, Guaranteed)
                | (Reinstated, Quarantined)
                | (Suspected, Departing)
                | (Quarantined, Departing)
                | (Reinstated, Departing)
        )
    }
}

/// An admitted tenant as decided by [`plan`].
#[derive(Debug, Clone)]
pub struct PlannedTenant {
    /// Index into the original request trace.
    pub req: usize,
    /// Tenant name (copied from the request).
    pub name: String,
    /// VM count.
    pub n_vms: usize,
    /// Hose tokens per VM.
    pub tokens_per_vm: f64,
    /// Request arrival (ns).
    pub arrival: Time,
    /// Admission decision instant (ns).
    pub decision: Time,
    /// Departure instant (ns): `decision + lifetime`.
    pub depart: Time,
    /// Host of each VM (`hosts[i]` holds VM *i*).
    pub hosts: Vec<NodeId>,
}

/// A rejected request as decided by [`plan`].
#[derive(Debug, Clone)]
pub struct Rejection {
    /// Index into the original request trace.
    pub req: usize,
    /// Decision instant (ns).
    pub at: Time,
    /// Why it was refused.
    pub reason: RejectReason,
}

/// The immutable output of the admission pre-pass.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Admitted tenants in decision order.
    pub admitted: Vec<PlannedTenant>,
    /// Rejected requests in decision order.
    pub rejected: Vec<Rejection>,
    /// Queueing latency (decision − arrival, ns) of every decision,
    /// admitted and rejected alike, in decision order.
    pub decision_latency_ns: Vec<u64>,
}

impl Plan {
    /// Fraction of requests refused.
    pub fn rejection_rate(&self) -> f64 {
        let n = self.admitted.len() + self.rejected.len();
        if n == 0 {
            0.0
        } else {
            self.rejected.len() as f64 / n as f64
        }
    }
}

/// Run the admission queue over a full arrival trace.
///
/// `reqs` must be sorted by arrival time. Decisions are paced one per
/// [`DECISION_GAP`]; before each decision every tenant whose departure
/// precedes the decision instant has its capacity released, so the
/// ledger the decision sees is exactly the ledger the live
/// `fabricd::FabricService` holds at that instant.
pub fn plan(topo: &Topo, cfg: &AdmissionCfg, reqs: &[TenantReq]) -> Plan {
    for w in reqs.windows(2) {
        assert!(
            w[0].arrival <= w[1].arrival,
            "plan: requests must be sorted by arrival"
        );
    }
    let mut ledger = Ledger::new(topo, cfg.headroom);
    let mut placer = Placer::new(&topo.hosts, cfg.policy, cfg.max_vms_per_host);
    let mut admitted: Vec<PlannedTenant> = Vec::new();
    let mut rejected = Vec::new();
    let mut latency = Vec::with_capacity(reqs.len());
    // (depart, admitted-index) min-heap of live tenants.
    let mut departs: BinaryHeap<Reverse<(Time, usize)>> = BinaryHeap::new();
    let mut next_slot: Time = 0;

    for (req_idx, r) in reqs.iter().enumerate() {
        let t_dec = r.arrival.max(next_slot);
        next_slot = t_dec + DECISION_GAP;
        // Free everything that departs before this decision lands.
        while let Some(&Reverse((dep, ai))) = departs.peek() {
            if dep > t_dec {
                break;
            }
            departs.pop();
            let t = &admitted[ai];
            placer.release(&mut ledger, &t.hosts, cfg.hose(t.tokens_per_vm));
        }
        latency.push(t_dec - r.arrival);
        match placer.place(&mut ledger, r.n_vms, cfg.hose(r.tokens_per_vm)) {
            Ok(hosts) => {
                let ai = admitted.len();
                departs.push(Reverse((t_dec + r.lifetime, ai)));
                admitted.push(PlannedTenant {
                    req: req_idx,
                    name: r.name.clone(),
                    n_vms: r.n_vms,
                    tokens_per_vm: r.tokens_per_vm,
                    arrival: r.arrival,
                    decision: t_dec,
                    depart: t_dec + r.lifetime,
                    hosts,
                });
            }
            Err(reason) => rejected.push(Rejection {
                req: req_idx,
                at: t_dec,
                reason,
            }),
        }
    }
    debug_assert!(ledger.conservation().is_ok());
    Plan {
        admitted,
        rejected,
        decision_latency_ns: latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::builder::LinkSpec;
    use netsim::{MS, US};
    use topology::{leaf_spine, Topo};

    fn topo() -> Topo {
        leaf_spine(
            2,
            2,
            4,
            LinkSpec::gbps(10, 1000),
            LinkSpec::gbps(10, 1000),
            1500,
        )
    }

    fn req(name: &str, n_vms: usize, tokens: f64, arrival: Time, life: Time) -> TenantReq {
        TenantReq {
            name: name.into(),
            n_vms,
            tokens_per_vm: tokens,
            arrival,
            lifetime: life,
        }
    }

    fn cfg() -> AdmissionCfg {
        AdmissionCfg {
            max_vms_per_host: 2,
            ..AdmissionCfg::default()
        }
    }

    #[test]
    fn plan_paces_decisions_and_rejects_overclaim() {
        let t = topo();
        let c = cfg();
        // Both arrive at t=0; second decision slips one gap later.
        // 10G access × 0.9 = 9G; 20 tokens × 500M = 10G → inadmissible.
        let reqs = vec![
            req("a", 2, 2.0, 0, 10 * MS),
            req("over", 1, 20.0, 0, 10 * MS),
            req("b", 2, 2.0, 50 * US, 10 * MS),
        ];
        let p = plan(&t, &c, &reqs);
        assert_eq!(p.admitted.len(), 2);
        assert_eq!(p.rejected.len(), 1);
        assert_eq!(p.rejected[0].reason, RejectReason::NoCapacity);
        assert_eq!(p.admitted[0].decision, 0);
        assert_eq!(p.decision_latency_ns, vec![0, DECISION_GAP, 0]);
        assert!(p.rejection_rate() > 0.3 && p.rejection_rate() < 0.4);
    }

    #[test]
    fn plan_releases_departures_before_deciding() {
        let t = topo();
        let c = cfg();
        // "big" (one 4.5G VM on every host) saturates both leaves'
        // uplink pools: 4 hosts × 4.5G × ½ = 9G = η·10G per uplink.
        // "late" only fits if "big"'s capacity was released first.
        let reqs = vec![
            req("big", 8, 9.0, 0, 1 * MS),
            req("late", 2, 9.0, 2 * MS, 1 * MS),
        ];
        let p = plan(&t, &c, &reqs);
        assert_eq!(p.admitted.len(), 2, "{:?}", p.rejected);
    }
}
