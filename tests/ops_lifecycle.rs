//! Full-stack fabricd lifecycle on the 8-host Fig-10 testbed: admit →
//! run traffic → qualify off μFAB-E telemetry → cordon a core → resize
//! in place → drain a host → snapshot/kill/restore mid-run → depart →
//! reclaim, with **zero** guarantee-violation milliseconds for the
//! steady tenants and the determinism digest byte-identical between
//! `--jobs 1` and `--jobs 4` executor runs.
//!
//! The cell is `repro ops`'s, through the same public drill: the
//! uninterrupted pre-pass records the op stream, the cell replays it in
//! lock-step with the simulator and must end on the pre-pass's digest
//! although it was restored from a snapshot at 6 ms. The drill itself
//! audits the ledger every millisecond, checks that every tenant is
//! reclaimed and that no open guarantee span changes across the
//! restore, and judges violation-ms against the hose in force: the
//! resize retunes μFAB-E and the drain moves the tenant's traffic to new
//! pairs from its new host, which must re-qualify.

use experiments::executor::{self, run_jobs, Job};
use experiments::scenarios::common::Scale;
use experiments::scenarios::ops::{drill, Drill, ScriptEv};
use fabric::{Policy, TenantReq};
use netsim::{Time, MS, US};
use topology::TestbedCfg;
use workloads::churn::DemandKind;

const HORIZON: Time = 18 * MS;

/// One policy's cell: three steady tenants (the second asks for a 112 G
/// hose no access link admits), a core cordon at 2 ms, a resize at 3 ms
/// (tenant 0 grows ×1.25 to 2.5 tokens, tenant 1 shrinks ×0.75), a
/// drain of tenant 0's first host at 5 ms with the core still cordoned,
/// and the cordon lifted at 8 ms.
fn lifecycle_cell(policy: Policy) -> Drill {
    let req = |name: &str, n_vms, tokens_per_vm, arrival| {
        let lifetime = 14 * MS;
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
        req("a", 2, 2.0, 0),
        req("over", 1, 224.0, 50 * US),
        req("b", 3, 1.0, 100 * US),
    ];
    let script = vec![
        (2 * MS, ScriptEv::CordonCore),
        (3 * MS, ScriptEv::Resize),
        (5 * MS, ScriptEv::DrainHost),
        (8 * MS, ScriptEv::UncordonCore),
    ];
    let scale = Scale {
        seed: 7,
        ..Scale::default()
    };
    let topo = topology::testbed(TestbedCfg::default());
    let snap_at = Some(6 * MS);
    drill(
        scale,
        policy,
        topo,
        reqs,
        0..HORIZON,
        HORIZON,
        Some(script),
        snap_at,
    )
}

#[test]
fn ops_lifecycle_end_to_end() {
    let run_both = || {
        let cell =
            |p: Policy| Job::new(format!("ops-life:{}", p.label()), move || lifecycle_cell(p));
        run_jobs(vec![cell(Policy::FirstFit), cell(Policy::LoadSpread)])
    };
    executor::set_jobs(1);
    let serial = run_both();
    executor::set_jobs(4);
    let parallel = run_both();

    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(
            s.svc.digest(),
            p.svc.digest(),
            "service digest must be byte-identical between jobs=1 and jobs=4"
        );
        assert_eq!(s.viol_ms, p.viol_ms);
    }
    for out in &serial {
        let (plan, svc) = (&out.plan, &out.svc);
        assert_eq!(plan.admitted.len(), 2, "a and b admitted");
        assert_eq!(svc.n_rejected(), 1, "the 112 G hose request is refused");
        let tokens: Vec<f64> = svc.tenants().iter().map(|t| t.tokens_per_vm).collect();
        assert_eq!(tokens, [2.5, 0.75], "grow and shrink both commit");
        // A drained tenant's VMs left the plan's hosts, and the drain
        // closed its guarantee span: a second one means it re-qualified.
        let (mut moved, mut requalified) = (0, false);
        for (t, p) in svc.tenants().iter().zip(&plan.admitted) {
            let n = t.hosts.iter().zip(&p.hosts).filter(|(h, q)| h != q).count();
            moved += n;
            requalified |= n > 0 && t.guaranteed_spans.len() >= 2;
        }
        assert!(moved >= 1, "the drain migrated, not rolled back");
        assert!(
            requalified,
            "a drained tenant re-reached Guaranteed off μFAB-E telemetry"
        );
        // On new pairs from its new host, which must deliver first.
        let requal = out.requal.expect("the drained tenant re-qualified");
        assert!(
            requal > 0 && requal <= MS,
            "re-qualification took {requal} ns"
        );
        assert!(
            out.restored_spans > Some(0),
            "at least one tenant must be Guaranteed when the snapshot fires"
        );
        for t in svc.tenants() {
            assert!(t.ttg_ns.is_some(), "{} never reached Guaranteed", t.name);
        }
        assert!(
            svc.ledger().utilization() < 1e-9,
            "all committed capacity returned to the ledger"
        );
        assert!(
            out.guaranteed_ms >= 10,
            "the guarantee spans must cover a measurable window"
        );
        assert_eq!(
            out.viol_ms, 0,
            "steady tenants saw violation-ms inside guarantee spans"
        );
    }
}
