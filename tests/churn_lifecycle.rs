//! Full-stack tenant lifecycle on the fabric service: plan → place →
//! run traffic → qualify off μFAB-E telemetry → depart → reclaim, with
//! an over-subscribed request refused at admission.
//!
//! The cell is the one the ops drill runs, with the requests planned up
//! front and no operator script. The cell audits the ledger every
//! millisecond, checks that every tenant is reclaimed by the horizon and
//! none inside its teardown grace, and judges violation-ms against its
//! own threshold.

use experiments::scenarios::common::Scale;
use experiments::scenarios::ops::drill;
use fabric::{Policy, RejectReason, TenantReq, TenantState};
use netsim::{Time, MS, US};
use topology::TestbedCfg;
use workloads::churn::DemandKind;

const HORIZON: Time = 12 * MS;

#[test]
fn tenant_lifecycle_end_to_end() {
    // 8-host 10 G testbed; access admits 0.9 × 10 G = 9 G of hose.
    let req = |name: &str, n_vms, tokens_per_vm, arrival| {
        let lifetime = 8 * MS;
        let req = TenantReq {
            name: name.into(),
            n_vms,
            tokens_per_vm,
            arrival,
            lifetime,
        };
        (req, DemandKind::Bulk)
    };
    let reqs = vec![
        req("a", 2, 2.0, 0),            // 1 G hose — admissible
        req("over", 1, 224.0, 50 * US), // 112 G hose — no access link admits it
        req("b", 3, 1.0, 100 * US),     // 0.5 G hose — admissible
    ];
    let scale = Scale {
        seed: 7,
        ..Scale::default()
    };
    let topo = topology::testbed(TestbedCfg::default());
    let d = drill(
        scale,
        Policy::FirstFit,
        topo,
        reqs,
        0..HORIZON,
        HORIZON,
        None,
        None,
    );

    let plan = &d.plan;
    assert_eq!(plan.admitted.len(), 2);
    assert_eq!(plan.rejected.len(), 1);
    assert_eq!(plan.rejected[0].req, 1, "the over-subscribed request");
    assert_eq!(plan.rejected[0].reason, RejectReason::NoCapacity);
    assert_eq!(d.svc.tenants().len(), 2);
    for (t, p) in d.svc.tenants().iter().zip(&plan.admitted) {
        assert_eq!(t.state, TenantState::Reclaimed);
        assert_eq!(t.hosts, p.hosts, "the plan's hosts were committed verbatim");
        // Only μFAB-E's qualification signal moves a tenant to Guaranteed.
        assert!(t.ttg_ns().is_some(), "{} never reached Guaranteed", t.name);
        let (enter, exit) = t.guaranteed_spans[0];
        assert!(enter < exit && exit == p.depart);
    }
    assert!(
        d.svc.ledger().utilization() < 1e-9,
        "all committed capacity returned to the ledger"
    );
    assert_eq!(d.viol_ms, 0, "steady tenants saw violation-ms");
}
