//! Full-stack tenant lifecycle on the fabric service: plan → place →
//! run traffic → qualify off μFAB-E telemetry → depart → reclaim, with
//! the capacity ledger audited throughout and an over-subscribed
//! request refused at admission.

use experiments::harness::{Runner, SystemKind, SLICE};
use fabric::{AdmissionCfg, RejectReason, TenantReq, TenantState};
use fabricd::{FabricService, RECLAIM_GRACE};
use netsim::{NodeId, PairId, Time, MS, US};
use std::sync::Arc;
use topology::TestbedCfg;
use ufab::FabricSpec;
use workloads::churn::{ChurnDriver, PairDemand, TenantTraffic};
use workloads::driver::Driver;

const STEP: Time = 250 * US;

#[test]
fn tenant_lifecycle_end_to_end() {
    // 8-host 10 G testbed; access admits 0.9 × 10 G = 9 G of hose.
    let topo = topology::testbed(TestbedCfg::default());
    let cfg = AdmissionCfg::default();
    let reqs = vec![
        TenantReq {
            name: "a".into(),
            n_vms: 2,
            tokens_per_vm: 2.0, // 1 G hose — admissible
            arrival: 0,
            lifetime: 8 * MS,
        },
        TenantReq {
            name: "over".into(),
            n_vms: 1,
            tokens_per_vm: 224.0, // 112 G hose — no access link admits it
            arrival: 50 * US,
            lifetime: 8 * MS,
        },
        TenantReq {
            name: "b".into(),
            n_vms: 3,
            tokens_per_vm: 1.0, // 0.5 G hose — admissible
            arrival: 100 * US,
            lifetime: 8 * MS,
        },
    ];
    let plan = fabric::plan(&topo, &cfg, &reqs);
    assert_eq!(plan.admitted.len(), 2);
    assert_eq!(plan.rejected.len(), 1);
    assert_eq!(plan.rejected[0].req, 1, "the over-subscribed request");
    assert_eq!(plan.rejected[0].reason, RejectReason::NoCapacity);

    // Ring pairs over each admitted tenant's VMs, steady traffic at the
    // pair guarantee for the whole lifetime.
    let mut spec = FabricSpec::new(cfg.bu_bps);
    let mut tenant_pairs: Vec<Vec<(NodeId, PairId)>> = Vec::new();
    let mut programs = Vec::new();
    for p in &plan.admitted {
        let tid = spec.add_tenant(&p.name, p.tokens_per_vm);
        let vms: Vec<_> = p.hosts.iter().map(|&h| spec.add_vm(tid, h)).collect();
        let guar = p.tokens_per_vm * cfg.bu_bps;
        let mut pairs = Vec::new();
        let mut prog = Vec::new();
        for i in 0..vms.len() {
            let pair = spec.add_pair(vms[i], vms[(i + 1) % vms.len()]);
            pairs.push((p.hosts[i], pair));
            prog.push((p.hosts[i], pair, PairDemand::Steady { bps: guar }));
        }
        tenant_pairs.push(pairs);
        programs.push(TenantTraffic {
            tag: tid.raw(),
            start: p.decision,
            stop: p.depart,
            pairs: prog,
        });
    }
    let grace = RECLAIM_GRACE;
    let mut r = Runner::new(topo, spec, SystemKind::Ufab, 7, None, MS);
    // Plan order is `add_tenant` order: service tenant id == spec id.
    let mut svc = FabricService::new(Arc::clone(&r.topo), cfg);
    let mut driver = ChurnDriver::new(programs, 7, 0);

    let mut baselines: Vec<Vec<u64>> = vec![Vec::new(); plan.admitted.len()];
    let horizon = 8 * MS + 20 * MS;
    let mut now = 0;
    let mut saw_qualified_signal = false;
    while now < horizon {
        now += STEP;
        {
            let mut drivers: [&mut dyn Driver; 1] = [&mut driver];
            r.run(now, SLICE, &mut drivers);
        }
        while let Some(p) = plan.admitted.get(svc.tenants().len()) {
            if p.decision > now {
                break;
            }
            let i = svc.admit_planned(p) as usize;
            baselines[i] = r.acked_baseline(&tenant_pairs[i]);
        }
        svc.advance(now);
        for (id, _) in svc.qualifying() {
            let i = id as usize;
            if r.pairs_qualified(&tenant_pairs[i], &baselines[i]) {
                saw_qualified_signal = true;
                svc.note_qualified(id, now);
            }
        }
        if now % MS == 0 {
            svc.audit().expect("ledger stays conserved through churn");
        }
        if svc.count(TenantState::Reclaimed) == 2 {
            break;
        }
    }

    assert!(saw_qualified_signal, "μFAB-E must report qualification");
    assert_eq!(
        svc.count(TenantState::Reclaimed),
        2,
        "both tenants reclaimed"
    );
    for (t, p) in svc.tenants().iter().zip(&plan.admitted) {
        assert_eq!(t.state, TenantState::Reclaimed);
        assert_eq!(t.hosts, p.hosts, "the plan's hosts were committed verbatim");
        assert!(t.ttg_ns.is_some(), "{} never reached Guaranteed", t.name);
        let (enter, exit) = t.guaranteed_spans[0];
        assert!(enter < exit && exit == p.depart);
        assert!(
            p.depart + grace <= now,
            "reclaim happened only after the teardown grace"
        );
    }
    svc.audit().expect("final ledger is clean");
    assert!(
        svc.ledger().utilization() < 1e-9,
        "all committed capacity returned to the ledger"
    );
}
