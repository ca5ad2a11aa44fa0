//! `repro abuse` — hostile-tenant containment on the churn cell.
//!
//! The 512-server churn cell of `repro churn` with `--hostile-pct` of
//! the admitted tenants replaced by adversaries (DESIGN §10): the
//! guarantee-exceeding sender, the probe flooder, and the UDP blaster,
//! each at `--abuse-intensity`. The μFAB edge runs with the per-tenant
//! enforcement stage armed (`UfabConfig::enforce`), the fabric service
//! runs the misbehavior ledger + quarantine state machine, and every
//! control-plane step closes the loop: enforcement counters are polled
//! off the edges, integrated into misbehavior scores, and quarantine
//! clamps are programmed back down to the edges.
//!
//! Everything of the parent cell is kept — the pod partition (PR 8
//! sharded engine) and the mid-run core-switch failure (PR 4 chaos
//! engine) — so containment is demonstrated *composed* with the rest of
//! the harness, not in a sanitized corner.
//!
//! Reported:
//!
//! * **victim_viol_ms** — guarantee-violation milliseconds of *honest*
//!   bulk tenants inside their `Guaranteed` spans, excluding
//!   containment-settling bins (ms in which some active aggressor was
//!   not yet clamped — the detection window, where the edge policer
//!   only *bounds* the damage). Must be **0**: once the quarantine
//!   clamp is in force, abuse never costs a victim its guarantee.
//! * **clamp_ratio** — mean aggressor goodput after first quarantine ÷
//!   before (the penalty clamp biting; honest-rate aggressors land near
//!   the penalty fraction).
//! * **ttq_p99_us** — p99 time-to-quarantine: first `Quarantined` entry
//!   − first enforcement verdict against that tenant.
//! * **false_quar** — honest tenants ever quarantined. Must be **0**:
//!   hysteresis separates bursty-but-honest from hostile.
//! * **digest** — determinism digest, byte-identical at any `--jobs N`
//!   and `--shards N`.
//!
//! The fabric invariant suite (ledger conservation — including capacity
//! released while quarantined — and bounded qualifying time) always
//! runs; a violation fails the scenario.

use super::churn::{
    churn_cfg, demand_for, guaranteed_crossing, step_lifecycle, timeline, GUAR_FRACTION,
    STAGGER_BOUND, STEP,
};
use super::common::{emit, f, obs_epilogue, us, Scale};
use super::fig17::build_topo;
use crate::executor::{run_jobs, Job};
use crate::harness::{Runner, SystemKind, SLICE};
use fabric::{AbuseCfg, AdmissionCfg, Policy, TenantState};
use fabricd::{FabricService, LedgerConservation, QualifyingStagger};
use metrics::table::Table;
use metrics::Percentiles;
use netsim::{FaultKind, FaultPlan, NodeId, PairId, TenantId, Time, MS};
use obs::InvariantSuite;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use ufab::{FabricSpec, UfabConfig, UfabEdge};
use workloads::abuse::{hostile_demand, select_hostiles};
use workloads::churn::{gen_trace, ChurnDriver, DemandKind, TenantTraffic};
use workloads::driver::Driver;

/// Everything the abuse cell reports back for asserts and the table.
pub struct CellOut {
    row: [String; 9],
    epilogue: String,
    /// Admitted tenants marked hostile.
    pub hostile: usize,
    /// Hostile tenants that entered `Quarantined` at least once.
    pub quarantined: usize,
    /// Honest tenants that entered `Quarantined` (must be 0).
    pub false_quarantines: usize,
    /// Guarantee-violation ms of honest bulk tenants (must be 0).
    pub victim_viol_ms: u64,
    /// Guaranteed ms of honest bulk tenants (denominator / coverage).
    pub victim_guar_ms: u64,
    fabric_violations: usize,
    fabric_report: String,
    /// Simulator events processed.
    pub events: u64,
    /// Determinism digest (empty when the det hash is off).
    pub digest: String,
    sim_violations: usize,
    admitted: usize,
    reclaimed: usize,
}

/// One containment cell: the churn run with `pct`% hostile tenants and
/// the enforcement/quarantine loop closed every [`STEP`].
pub fn run_cell(scale: Scale, policy: Policy, pct: u32, intensity: u32) -> CellOut {
    let tl = timeline(scale.quick);
    let servers = scale.servers.unwrap_or(512);
    let mut topo = build_topo(servers, false);
    topo.enable_pod_partition();
    let n_hosts = topo.hosts.len();

    // 1) Trace + admission plan — identical to the churn cell: hostile
    //    selection happens *after* admission (an adversary looks honest
    //    until it starts sending), so the plan and the honest tenants'
    //    programs are bit-identical to the enforcement-off run.
    let trace = gen_trace(&churn_cfg(&scale, &tl, n_hosts));
    let acfg = AdmissionCfg {
        policy,
        ..AdmissionCfg::default()
    };
    let reqs: Vec<fabric::TenantReq> = trace
        .iter()
        .enumerate()
        .map(|(i, a)| fabric::TenantReq {
            name: format!("churn-{i}"),
            n_vms: a.n_vms,
            tokens_per_vm: a.tokens_per_vm,
            arrival: a.arrival,
            lifetime: a.lifetime,
        })
        .collect();
    let plan = fabric::plan(&topo, &acfg, &reqs);
    let hostiles = select_hostiles(scale.seed, plan.admitted.len(), pct, intensity);

    // 2) FabricSpec + traffic programs. Hostile tenants get the
    //    adversarial demand program; everyone else the churn mix.
    let mut fabric_spec = FabricSpec::new(acfg.bu_bps);
    let mut tenant_pairs: Vec<Vec<(NodeId, PairId)>> = Vec::with_capacity(plan.admitted.len());
    let mut programs: Vec<TenantTraffic> = Vec::with_capacity(plan.admitted.len());
    for (idx, p) in plan.admitted.iter().enumerate() {
        let kind = trace[p.req].kind;
        let tid = fabric_spec.add_tenant(&p.name, p.tokens_per_vm);
        debug_assert_eq!(tid.raw() as usize, tenant_pairs.len());
        let vms: Vec<_> = p
            .hosts
            .iter()
            .map(|&h| fabric_spec.add_vm(tid, h))
            .collect();
        let guar = p.tokens_per_vm * acfg.bu_bps;
        let mut pairs = Vec::with_capacity(vms.len());
        let mut prog_pairs = Vec::with_capacity(vms.len());
        for i in 0..vms.len() {
            let j = (i + 1) % vms.len();
            let pair = fabric_spec.add_pair(vms[i], vms[j]);
            pairs.push((p.hosts[i], pair));
            let dem = match &hostiles[idx] {
                Some(h) => hostile_demand(h.kind, guar, h.intensity),
                None => demand_for(kind, guar),
            };
            prog_pairs.push((p.hosts[i], pair, dem));
        }
        tenant_pairs.push(pairs);
        programs.push(TenantTraffic {
            tag: tid.raw(),
            start: p.decision,
            stop: p.depart,
            pairs: prog_pairs,
        });
    }
    // 3) Simulator + chaos (same core-switch failure as churn), with
    //    the edge enforcement stage armed.
    let dead_core = topo.cores[0];
    let mut fplan = FaultPlan::new(scale.seed);
    fplan.push(FaultKind::SwitchFail {
        node: dead_core,
        at: tl.fault_at,
        recover_at: Some(tl.fault_recover),
    });
    let ucfg = UfabConfig {
        core_cleanup_period: 5 * MS,
        enforce: true,
        ..UfabConfig::default()
    };
    let mut r = Runner::new(
        topo,
        fabric_spec,
        SystemKind::Ufab,
        scale.seed,
        Some(ucfg),
        MS,
    );
    if let Some(cap) = scale.trace {
        r.enable_trace(cap);
    } else {
        r.sim.enable_det_hash();
    }
    if scale.check_invariants {
        r.enable_chaos_invariants(MS / 4, 5 * MS, tl.fault_recover + 15 * MS);
    }
    // The one tenant lifecycle, scorer armed. Plan order is `add_tenant`
    // order, so the service's tenant ids are the `FabricSpec` tenant ids.
    let mut svc = FabricService::new(Arc::clone(&r.topo), acfg);
    svc.enable_abuse(AbuseCfg::default());
    svc.set_obs(r.obs.clone());
    r.sim.apply_chaos(&fplan);

    // Program the hostile behavior models into each aggressor's source
    // NICs (plan order; within a tenant, ascending host id).
    for (i, h) in hostiles.iter().enumerate() {
        let Some(h) = h else { continue };
        let t = TenantId(i as u32);
        let hosts: BTreeSet<NodeId> = tenant_pairs[i].iter().map(|&(src, _)| src).collect();
        for host in hosts {
            r.sim
                .edge_mut::<UfabEdge>(host)
                .set_hostile(t, h.kind, h.intensity);
        }
    }

    let mut fsuite: InvariantSuite<FabricService> = InvariantSuite::new(MS);
    fsuite.register(Box::new(LedgerConservation));
    fsuite.register(Box::new(QualifyingStagger::new(STAGGER_BOUND)));

    let mut driver = ChurnDriver::new(programs, scale.seed ^ 0x5eed, 0);

    // 4) Run loop: the churn loop plus the containment loop — poll the
    //    edges' enforcement counters (hosts ascending, tenants
    //    ascending: a sorted-iteration contract, so the misbehavior
    //    integration order is identical at any `--jobs`/`--shards`),
    //    feed the deltas to the misbehavior ledger, step the quarantine
    //    state machine, and program its clamp directives back down.
    let mut baselines: Vec<Vec<u64>> = vec![Vec::new(); plan.admitted.len()];
    let mut enf_seen: BTreeMap<(u32, u32), [u64; 3]> = BTreeMap::new();
    let mut first_enf: BTreeMap<u32, Time> = BTreeMap::new();
    // Containment-settling bins: ms bins during which an *unclamped*
    // hostile tenant drew enforcement verdicts — the time-to-quarantine
    // window after an aggressor goes over the line, and the short
    // re-offense window when a reinstated aggressor resumes. Victim
    // accounting excludes these: the containment SLO is that abuse
    // never costs a victim its guarantee *once the quarantine clamp is
    // in force*; inside the detection window the policer only bounds
    // the damage (DESIGN §10).
    let mut unsettled: BTreeSet<usize> = BTreeSet::new();
    let mut fault_done = false;
    let mut now = 0;
    while now < tl.horizon {
        let step_start = now;
        now = (now + STEP).min(tl.horizon);
        {
            let mut drivers: [&mut dyn Driver; 1] = [&mut driver];
            r.run(now, SLICE, &mut drivers);
        }
        for i in step_lifecycle(&mut svc, &plan, now) {
            baselines[i] = r.acked_baseline(&tenant_pairs[i]);
        }
        if !fault_done && now >= tl.fault_at {
            fault_done = true;
            for i in guaranteed_crossing(&svc, &r, &tenant_pairs, dead_core) {
                svc.requalify(i as u32, now);
                baselines[i] = r.acked_baseline(&tenant_pairs[i]);
            }
        }
        for (id, _) in svc.qualifying() {
            let i = id as usize;
            if r.pairs_qualified(&tenant_pairs[i], &baselines[i]) {
                svc.note_qualified(id, now);
            }
        }

        // Containment loop. Counter *deltas* (not absolutes) feed the
        // scorer: the ledger weighs "was this class active this tick",
        // and a delta of zero must read as silence.
        let mut deltas: BTreeMap<u32, [u64; 3]> = BTreeMap::new();
        for &host in &r.topo.hosts {
            let Some(e) = r.sim.try_edge::<UfabEdge>(host) else {
                continue;
            };
            for t in e.enforced_tenants() {
                let Some(c) = e.enforcement_counters(t) else {
                    continue;
                };
                let cum = [c.policed_pkts, c.throttled_probes, c.unsol_pkts];
                let prev = enf_seen
                    .insert((host.raw(), t.raw()), cum)
                    .unwrap_or([0; 3]);
                let d = [cum[0] - prev[0], cum[1] - prev[1], cum[2] - prev[2]];
                if d != [0; 3] {
                    let agg = deltas.entry(t.raw()).or_insert([0; 3]);
                    for (a, x) in agg.iter_mut().zip(d) {
                        *a += x;
                    }
                }
            }
        }
        // Settling check for the step that just elapsed: an *unclamped*
        // hostile produced enforcement verdicts this step, i.e.
        // detectable abuse was in flight before the quarantine machine
        // could clamp it (states are read pre-`abuse_tick`, so a clamp
        // landing at `now` still marks the step it closed out). Never-
        // scoring aggressors (a probe flooder under budget, a blaster
        // whose datagrams die at the source NIC) don't open windows —
        // they also can't congest the fabric.
        // (The lifetime window matters: a departed aggressor's gated
        // backlog keeps drawing policer verdicts while it drains, but a
        // reclaimed tenant can no longer congest anything.)
        let open_abuse = svc.tenants().iter().enumerate().any(|(i, t)| {
            hostiles[i].is_some()
                && now < t.depart_at
                && t.state != TenantState::Quarantined
                && deltas.contains_key(&(i as u32))
        });
        if open_abuse {
            for b in (step_start / MS) as usize..=(now / MS) as usize {
                unsettled.insert(b);
            }
        }

        for (&t, &[p, pr, un]) in &deltas {
            first_enf.entry(t).or_insert(now);
            svc.note_enforcement(t, p, pr, un);
        }
        for a in svc.abuse_tick(now) {
            let hosts: BTreeSet<NodeId> = tenant_pairs[a.tenant as usize]
                .iter()
                .map(|&(src, _)| src)
                .collect();
            for host in hosts {
                r.sim.edge_mut::<UfabEdge>(host).set_enforce_clamp(
                    TenantId(a.tenant),
                    a.clamp,
                    now,
                );
            }
        }

        if fsuite.due(now) {
            fsuite.run(&svc, now, &r.obs);
        }
    }

    // 5) Metrics.
    let ab = svc.abuse().expect("abuse ledger is enabled");
    let hostile = hostiles.iter().filter(|h| h.is_some()).count();
    let mut quarantined = 0usize;
    let mut false_quarantines = 0usize;
    let mut ttq = Percentiles::new();
    for i in 0..svc.tenants().len() {
        if ab.quarantines(i) == 0 {
            continue;
        }
        if hostiles[i].is_some() {
            quarantined += 1;
        } else {
            false_quarantines += 1;
        }
        if let (Some(q), Some(&e0)) = (ab.first_quarantine_at(i), first_enf.get(&(i as u32))) {
            ttq.add(q.saturating_sub(e0) as f64);
        }
    }

    let rec = r.merged_recorder();
    // Victim-class violation ms: honest bulk tenants only, same
    // accounting as churn (1 ms bins fully inside a Guaranteed span,
    // 1 ms entry grace), minus the containment-settling bins collected
    // above — inside a detection window the policer bounds the damage,
    // the zero-violation SLO starts when the clamp does.
    let mut victim_viol_ms = 0u64;
    let mut victim_guar_ms = 0u64;
    // Aggressor goodput clamp ratio: per quarantined aggressor, mean
    // delivered rate after its first quarantine entry ÷ before.
    let mut clamp_ratios: Vec<f64> = Vec::new();
    for (i, t) in svc.tenants().iter().enumerate() {
        let series = rec.tenant_rates.get(&(i as u32));
        if hostiles[i].is_none() {
            if trace[plan.admitted[i].req].kind != DemandKind::Bulk {
                continue;
            }
            let tenant_guar =
                GUAR_FRACTION * t.tokens_per_vm * acfg.bu_bps * tenant_pairs[i].len() as f64;
            for &(enter, exit) in &t.guaranteed_spans {
                let b0 = ((enter + MS) / MS + 1) as usize;
                let b1 = (exit / MS) as usize;
                for b in b0..b1 {
                    if unsettled.contains(&b) {
                        continue;
                    }
                    victim_guar_ms += 1;
                    let rate = series.map(|s| s.rate_at(b)).unwrap_or(0.0);
                    if rate < tenant_guar {
                        victim_viol_ms += 1;
                    }
                }
            }
        } else if let (Some(q), Some(s)) = (ab.first_quarantine_at(i), series) {
            let start = (t.admitted_at / MS + 1) as usize;
            let qb = (q / MS) as usize;
            let stop = (t.depart_at / MS) as usize;
            let mean = |b0: usize, b1: usize| {
                if b1 <= b0 {
                    return None;
                }
                Some((b0..b1).map(|b| s.rate_at(b)).sum::<f64>() / (b1 - b0) as f64)
            };
            if let (Some(pre), Some(post)) = (mean(start, qb), mean(qb + 1, stop)) {
                if pre > 0.0 {
                    clamp_ratios.push(post / pre);
                }
            }
        }
    }
    drop(rec);
    let clamp_ratio = if clamp_ratios.is_empty() {
        f64::NAN
    } else {
        clamp_ratios.iter().sum::<f64>() / clamp_ratios.len() as f64
    };

    let digest = r
        .sim
        .det_digest()
        .map(|d| format!("{d:016x}"))
        .unwrap_or_default();
    let epilogue = obs_epilogue(&scale, &r, &format!("abuse:{pct}pct"));
    let admitted = plan.admitted.len();
    CellOut {
        row: [
            format!("{pct}% x{intensity}"),
            admitted.to_string(),
            hostile.to_string(),
            quarantined.to_string(),
            us(ttq.percentile(99.0).unwrap_or(0.0)),
            if clamp_ratio.is_nan() {
                "-".to_string()
            } else {
                f(clamp_ratio, 3)
            },
            victim_viol_ms.to_string(),
            false_quarantines.to_string(),
            digest.clone(),
        ],
        epilogue,
        hostile,
        quarantined,
        false_quarantines,
        victim_viol_ms,
        victim_guar_ms,
        fabric_violations: fsuite.violations().len(),
        fabric_report: fsuite.report(),
        events: r.sim.stats().events,
        digest,
        sim_violations: r.invariant_violations(),
        admitted,
        reclaimed: svc.count(TenantState::Reclaimed),
    }
}

/// Run the abuse scenario: one containment cell at `pct`% hostile.
pub fn run(scale: Scale, pct: u32, intensity: u32) -> Table {
    let cells: Vec<Job<CellOut>> = vec![Job::new(format!("abuse:{pct}pct"), move || {
        run_cell(scale, Policy::FirstFit, pct, intensity)
    })];
    let mut table = Table::new([
        "hostile",
        "admit",
        "marked",
        "quar",
        "ttq_p99_us",
        "clamp_ratio",
        "victim_viol_ms",
        "false_quar",
        "digest",
    ]);
    for out in run_jobs(cells) {
        table.row(out.row.clone());
        if !out.epilogue.is_empty() {
            print!("{}", out.epilogue);
        }
        assert_eq!(
            out.fabric_violations, 0,
            "fabric invariants violated:\n{}",
            out.fabric_report
        );
        assert_eq!(
            out.reclaimed, out.admitted,
            "every admitted tenant (hostile included) must be reclaimed"
        );
        assert_eq!(
            out.false_quarantines, 0,
            "an honest tenant was quarantined — hysteresis failed"
        );
        assert_eq!(
            out.victim_viol_ms, 0,
            "honest bulk tenants lost {} guarantee-ms of {} to abuse",
            out.victim_viol_ms, out.victim_guar_ms
        );
        if pct >= 10 && out.hostile >= 10 {
            assert!(
                out.quarantined > 0,
                "{} hostile tenants and not one quarantined — enforcement inert",
                out.hostile
            );
        }
    }
    emit(
        "abuse_containment",
        "Abuse: hostile-tenant containment at 512-server scale",
        &table,
    );
    table
}

/// Small fixed cell for `simbench abuse`: 64 servers, first-fit, quick
/// timeline, enforcement armed. `pct = 0` is the clean-tenant path —
/// identical workload to `churn::bench_cell` with the enforcement
/// stage and the containment loop in the hot path, which is what the
/// <3% overhead bound compares. Returns simulator events processed.
pub fn bench_cell(seed: u64, pct: u32) -> u64 {
    let scale = Scale {
        seed,
        quick: true,
        servers: Some(64),
        ..Scale::default()
    };
    let out = run_cell(scale, Policy::FirstFit, pct, 4);
    assert_eq!(out.fabric_violations, 0, "{}", out.fabric_report);
    assert_eq!(out.false_quarantines, 0, "false quarantine in bench cell");
    out.events
}

/// Test hook for determinism and containment checks at arbitrary
/// scale. Returns the full [`CellOut`].
pub fn cell_checked(seed: u64, servers: usize, pct: u32, intensity: u32) -> CellOut {
    let scale = Scale {
        seed,
        quick: true,
        servers: Some(servers),
        check_invariants: true,
        ..Scale::default()
    };
    let out = run_cell(scale, Policy::FirstFit, pct, intensity);
    assert_eq!(out.fabric_violations, 0, "{}", out.fabric_report);
    assert_eq!(out.sim_violations, 0, "sim invariants fired");
    out
}
