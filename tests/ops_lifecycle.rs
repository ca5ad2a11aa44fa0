//! Full-stack fabricd lifecycle: admit → run traffic → qualify off
//! μFAB-E telemetry → cordon a core → resize in place → drain a host →
//! snapshot/kill/restore mid-run → depart → reclaim, with the capacity
//! ledger audited throughout, **zero** guarantee-violation milliseconds
//! for the steady tenants, and the determinism digest byte-identical
//! between `--jobs 1` and `--jobs 4` executor runs.
//!
//! Mirrors the `repro ops` scenario in miniature on the 8-host Fig-10
//! testbed: a reference pre-pass (pure control plane, uninterrupted)
//! records the resolved op stream and digest; the inline run replays it
//! in lock-step with the simulator and must finish with the same digest
//! even though it was serialized, dropped and restored at 6 ms.

use experiments::executor::{self, run_jobs, Job};
use experiments::harness::{Runner, SystemKind, SLICE};
use fabric::{AdmissionCfg, Policy, TenantState};
use fabricd::{Applied, FabricOp, FabricReply, FabricService};
use netsim::{NodeId, PairId, Time, MS, US};
use std::sync::Arc;
use topology::{TestbedCfg, Topo};
use ufab::FabricSpec;
use workloads::churn::{ChurnDriver, PairDemand, TenantTraffic};
use workloads::driver::Driver;

const STEP: Time = 250 * US;
const LIFETIME: Time = 14 * MS;
const HORIZON: Time = 18 * MS;
const SNAP_AT: Time = 6 * MS;
const GUAR_FRACTION: f64 = 0.85;

fn topo() -> Topo {
    topology::testbed(TestbedCfg::default())
}

/// The uninterrupted reference run: resolved op stream + digest.
struct Prepass {
    ops: Vec<(Time, FabricOp)>,
    applied: Vec<Applied>,
    digest: u64,
}

fn sub(svc: &mut FabricService, ops: &mut Vec<(Time, FabricOp)>, t: Time, op: FabricOp) {
    svc.submit(t, op.clone());
    ops.push((t, op));
}

/// Play the fixed operator timeline into a fresh control-plane-only
/// service: three admits (one over-subscribed), a core cordon, a
/// grow + shrink resize pair, a host drain, and the cordon lift.
/// Operator targets are resolved from service state here, so the
/// recorded stream is a pure function of the placement policy.
fn prepass(cfg: AdmissionCfg) -> Prepass {
    let mut svc = FabricService::new(Arc::new(topo()), cfg);
    let mut ops = Vec::new();
    let mut applied = Vec::new();
    let admit = |name: &str, n_vms: usize, tokens: f64| FabricOp::Admit {
        name: name.into(),
        n_vms,
        tokens_per_vm: tokens,
        lifetime: LIFETIME,
    };
    sub(&mut svc, &mut ops, 0, admit("a", 2, 2.0)); // 1 G hose per VM
    sub(&mut svc, &mut ops, 50 * US, admit("over", 1, 224.0)); // 112 G — refused
    sub(&mut svc, &mut ops, 100 * US, admit("b", 3, 1.0)); // 0.5 G hose per VM
    applied.extend(svc.advance(2 * MS));
    let core = svc.topo().cores[0].raw();
    sub(&mut svc, &mut ops, 2 * MS, FabricOp::Cordon { node: core });
    let grow = FabricOp::Resize {
        tenant: 0,
        new_tokens_per_vm: 2.5,
    };
    let shrink = FabricOp::Resize {
        tenant: 1,
        new_tokens_per_vm: 0.75,
    };
    sub(&mut svc, &mut ops, 3 * MS, grow);
    sub(&mut svc, &mut ops, 3 * MS, shrink);
    applied.extend(svc.advance(5 * MS));
    // Drain the host carrying tenant a's first VM (with the core still
    // cordoned, so migration re-placement works around the cordon).
    let drain_host = svc.tenants()[0].hosts[0].raw();
    sub(
        &mut svc,
        &mut ops,
        5 * MS,
        FabricOp::Drain { node: drain_host },
    );
    sub(
        &mut svc,
        &mut ops,
        8 * MS,
        FabricOp::Uncordon { node: core },
    );
    applied.extend(svc.advance(HORIZON));
    svc.audit().expect("reference run fails conservation audit");
    Prepass {
        ops,
        applied,
        digest: svc.digest(),
    }
}

/// What one policy cell reports back for the asserts.
struct Out {
    digest: u64,
    rejected: u32,
    resized_ok: u32,
    drained_vms: usize,
    requalified_after_drain: bool,
    reclaimed: usize,
    viol_ms: u64,
    guaranteed_ms: u64,
}

/// The inline run: replay the recorded stream against the simulated
/// testbed with qualification driven by μFAB-E telemetry, and restore
/// the service from a snapshot at [`SNAP_AT`].
fn lifecycle_cell(policy: Policy) -> Out {
    let cfg = AdmissionCfg {
        policy,
        ..AdmissionCfg::default()
    };
    let pre = prepass(cfg);

    // Traffic programs from the reference admit replies: ring pairs,
    // steady demand 15 % above the pair guarantee on the *original*
    // placement (a drain migrates the control-plane slot; the
    // data-plane probe keeps flowing).
    let mut spec = FabricSpec::new(cfg.bu_bps);
    let mut tenant_pairs: Vec<Vec<(NodeId, PairId)>> = Vec::new();
    let mut tenant_fabric: Vec<u32> = Vec::new();
    let mut min_tokens: Vec<f64> = Vec::new();
    let mut programs = Vec::new();
    for ap in &pre.applied {
        let FabricOp::Admit {
            name,
            tokens_per_vm,
            lifetime,
            ..
        } = &ap.op
        else {
            if let FabricReply::Resized {
                tenant, new_tokens, ..
            } = &ap.reply
            {
                let e = &mut min_tokens[*tenant as usize];
                *e = e.min(*new_tokens);
            }
            continue;
        };
        let FabricReply::Admitted { tenant, hosts } = &ap.reply else {
            continue;
        };
        assert_eq!(*tenant as usize, tenant_pairs.len());
        let tid = spec.add_tenant(name, *tokens_per_vm);
        let hosts: Vec<NodeId> = hosts.iter().map(|&h| NodeId(h)).collect();
        let vms: Vec<_> = hosts.iter().map(|&h| spec.add_vm(tid, h)).collect();
        let guar = tokens_per_vm * cfg.bu_bps;
        let mut pairs = Vec::new();
        let mut prog = Vec::new();
        for i in 0..vms.len() {
            let pair = spec.add_pair(vms[i], vms[(i + 1) % vms.len()]);
            pairs.push((hosts[i], pair));
            prog.push((hosts[i], pair, PairDemand::Steady { bps: 1.15 * guar }));
        }
        tenant_pairs.push(pairs);
        tenant_fabric.push(tid.raw());
        min_tokens.push(*tokens_per_vm);
        programs.push(TenantTraffic {
            tag: tid.raw(),
            start: ap.applied,
            stop: ap.applied + lifetime,
            pairs: prog,
        });
    }
    let admitted = tenant_pairs.len();
    assert_eq!(admitted, 2, "a and b admitted, over refused");

    let svc_topo = Arc::new(topo());
    let mut r = Runner::new(topo(), spec, SystemKind::Ufab, 7, None, MS);
    let mut svc = FabricService::new(svc_topo.clone(), cfg);
    svc.set_obs(r.obs.clone());
    let mut driver = ChurnDriver::new(programs, 7, 0);

    let mut baselines: Vec<Vec<u64>> = vec![Vec::new(); admitted];
    let mut resized_ok = 0u32;
    let mut drained_vms = 0usize;
    let mut drain_at: Option<Time> = None;
    let mut drain_touched: Vec<u32> = Vec::new();
    let mut requalified_after_drain = false;
    let mut snapshot_fired = false;
    let mut next_op = 0usize;
    let mut now = 0;
    while now < HORIZON {
        now += STEP;
        while next_op < pre.ops.len() && pre.ops[next_op].0 <= now {
            let (t, op) = &pre.ops[next_op];
            svc.submit(*t, op.clone());
            next_op += 1;
        }
        {
            let mut drivers: [&mut dyn Driver; 1] = [&mut driver];
            r.run(now, SLICE, &mut drivers);
        }
        for ap in svc.advance(now) {
            match &ap.reply {
                FabricReply::Admitted { tenant, .. } => {
                    baselines[*tenant as usize] = r.acked_baseline(&tenant_pairs[*tenant as usize]);
                }
                FabricReply::Resized { .. } => resized_ok += 1,
                FabricReply::Drained { moved, .. } => {
                    drained_vms += moved.len();
                    drain_at = Some(ap.applied);
                    drain_touched = moved.iter().map(|m| m.0).collect();
                    drain_touched.dedup();
                }
                FabricReply::DrainFailed { detail, .. } => {
                    panic!("drain must migrate, not roll back: {detail}");
                }
                _ => {}
            }
        }
        for (i, _) in svc.qualifying() {
            let i = i as usize;
            if r.pairs_qualified(&tenant_pairs[i], &baselines[i]) {
                svc.note_qualified(i as u32, now);
                if drain_at.is_some() && drain_touched.contains(&(i as u32)) {
                    requalified_after_drain = true;
                }
            }
        }
        // Operator restart drill: serialize, kill, restore — no open
        // guarantee span may blink across the restart.
        if !snapshot_fired && now >= SNAP_AT {
            snapshot_fired = true;
            let open_spans: Vec<(u32, Time)> = svc
                .tenants()
                .iter()
                .enumerate()
                .filter_map(|(i, t)| t.guaranteed_at.map(|g| (i as u32, g)))
                .collect();
            assert!(
                !open_spans.is_empty(),
                "at least one tenant must be Guaranteed when the snapshot fires"
            );
            let snap = svc.snapshot();
            drop(svc);
            svc = FabricService::restore(svc_topo.clone(), &snap)
                .expect("mid-run snapshot must restore");
            svc.set_obs(r.obs.clone());
            for (i, g) in open_spans {
                assert_eq!(
                    svc.tenants()[i as usize].guaranteed_at,
                    Some(g),
                    "restore interrupted tenant {i}'s open guarantee span"
                );
            }
        }
        if now % MS == 0 {
            svc.audit().expect("ledger stays conserved through the run");
        }
    }
    assert!(next_op == pre.ops.len(), "every recorded op was replayed");
    svc.audit().expect("final ledger is clean");
    assert_eq!(
        svc.digest(),
        pre.digest,
        "restored service diverged from the uninterrupted reference run"
    );
    assert!(
        svc.ledger().utilization() < 1e-9,
        "all committed capacity returned to the ledger"
    );
    for t in svc.tenants() {
        assert!(t.ttg_ns.is_some(), "a tenant never reached Guaranteed");
    }

    // Violation accounting: 1 ms rate bins fully inside a guarantee
    // span (1 ms entry grace), threshold at the lowest guarantee ever
    // in force for the tenant. Both steady tenants offer 1.15× their
    // guarantee, so on a conformant fabric this must be zero.
    let rec = r.rec.lock().unwrap();
    let mut viol_ms = 0u64;
    let mut guaranteed_ms = 0u64;
    for (i, t) in svc.tenants().iter().enumerate() {
        let tenant_guar = GUAR_FRACTION * min_tokens[i] * cfg.bu_bps * tenant_pairs[i].len() as f64;
        let series = rec.tenant_rates.get(&tenant_fabric[i]);
        let mut spans = t.guaranteed_spans.clone();
        if let Some(g) = t.guaranteed_at {
            spans.push((g, HORIZON));
        }
        for &(enter, exit) in &spans {
            let b0 = ((enter + MS) / MS + 1) as usize;
            let b1 = (exit / MS) as usize;
            for b in b0..b1 {
                guaranteed_ms += 1;
                if series.map(|s| s.rate_at(b)).unwrap_or(0.0) < tenant_guar {
                    viol_ms += 1;
                }
            }
        }
    }
    drop(rec);

    Out {
        digest: svc.digest(),
        rejected: svc.n_rejected(),
        resized_ok,
        drained_vms,
        requalified_after_drain,
        reclaimed: svc.count(TenantState::Reclaimed),
        viol_ms,
        guaranteed_ms,
    }
}

#[test]
fn ops_lifecycle_end_to_end() {
    let run_both = || {
        run_jobs(vec![
            Job::new("ops-life:first_fit", || lifecycle_cell(Policy::FirstFit)),
            Job::new("ops-life:load_spread", || {
                lifecycle_cell(Policy::LoadSpread)
            }),
        ])
    };
    executor::set_jobs(1);
    let serial = run_both();
    executor::set_jobs(4);
    let parallel = run_both();

    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(
            s.digest, p.digest,
            "service digest must be byte-identical between jobs=1 and jobs=4"
        );
        assert_eq!(s.viol_ms, p.viol_ms);
    }
    for out in &serial {
        assert_eq!(out.rejected, 1, "the 112 G hose request is refused");
        assert_eq!(out.resized_ok, 2, "grow and shrink both commit");
        assert!(out.drained_vms >= 1, "the drain migrated at least one VM");
        assert!(
            out.requalified_after_drain,
            "a drained tenant re-reached Guaranteed off μFAB-E telemetry"
        );
        assert_eq!(out.reclaimed, 2, "both tenants reclaimed by the horizon");
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
