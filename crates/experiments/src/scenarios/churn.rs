//! `repro churn` — multi-tenant provisioning churn on the 512-server
//! FatTree.
//!
//! Not a paper figure: the control-plane companion to the data-plane
//! scenarios. A Poisson stream of tenant requests (lognormal lifetimes,
//! paper-CDF demand mix, a deliberate over-subscribed class) flows
//! through the fabric control plane — hose-model admission against the
//! capacity ledger, VM placement, μFAB-E-driven qualification, and
//! reclamation on departure — while the admitted tenants' traffic runs
//! on the simulated fabric. Mid-run a core switch fails (chaos engine)
//! and every guaranteed tenant whose qualified path crossed it is sent
//! back through `Qualifying` by the same state machine.
//!
//! Reported per placement policy:
//!
//! * **admit / reject** — admission outcomes (reject must be nonzero:
//!   the over-subscribed class is refused at admission rather than
//!   violating an admitted tenant's guarantee);
//! * **adm_p99_us** — p99 admission-queue latency (decision − arrival);
//! * **ttg_p99_us** — p99 time-to-guarantee (first `Guaranteed` −
//!   decision) over admitted tenants;
//! * **viol_ms** — guarantee-violation milliseconds of bulk tenants,
//!   counted only inside their `Guaranteed` spans;
//! * **util_pct** — mean committed fraction of the admissible access
//!   budget over the arrival window;
//! * **requal** — chaos-driven re-qualifications;
//! * **digest** — determinism digest, byte-identical at any `--jobs N`.
//!
//! The fabric invariant suite (ledger conservation audit + bounded
//! qualifying time) always runs — a violation fails the scenario.

use super::common::{emit, f, obs_epilogue, us, Scale};
use super::fig17::build_topo;
use crate::executor::{run_jobs, Job};
use crate::harness::{Runner, SystemKind, SLICE};
use fabric::{AdmissionCfg, Plan, Policy, TenantState};
use fabricd::{FabricService, LedgerConservation, QualifyingStagger};
use metrics::table::Table;
use metrics::Percentiles;
use netsim::{FaultKind, FaultPlan, NodeId, PairId, Time, MS, US};
use obs::InvariantSuite;
use std::sync::Arc;
use ufab::{FabricSpec, UfabConfig, UfabEdge};
use workloads::churn::{gen_trace, ChurnCfg, ChurnDriver, DemandKind, PairDemand, TenantTraffic};
use workloads::dists::{kv_object_sizes, websearch_flow_sizes};
use workloads::driver::Driver;

/// Outer control-plane step: lifecycle advance + qualification polling.
pub(crate) const STEP: Time = 250 * US;
/// No tenant may sit in `Qualifying` longer than this. Residence in
/// `Qualifying` is naturally bounded by the tenant's lifetime (clamped
/// at 20 ms by the churn model — departure forces the transition out),
/// so the enforceable stagger bound is that maximum plus admission
/// queueing slack: a tenant beyond it has been *lost* by the state
/// machine, not merely slowed by congestion or a chaos outage.
pub(crate) const STAGGER_BOUND: Time = 25 * MS;
/// Guarantee threshold for violation accounting (matches chaos SLOs).
pub(crate) const GUAR_FRACTION: f64 = 0.85;

/// Everything a policy cell reports back for asserts and the table.
struct CellOut {
    row: [String; 9],
    epilogue: String,
    arrivals: usize,
    admitted: usize,
    rejected: usize,
    reclaimed: usize,
    overclaim_admitted: usize,
    fabric_violations: usize,
    fabric_report: String,
    viol_ms: u64,
    guaranteed_ms: u64,
    events: u64,
    digest: String,
    sim_violations: usize,
}

/// Timeline of one churn run (all instants in ns). Shared with the
/// `abuse` scenario, which layers hostile tenants on this exact cell.
pub(crate) struct Timeline {
    pub(crate) first_arrival: Time,
    pub(crate) last_arrival: Time,
    pub(crate) fault_at: Time,
    pub(crate) fault_recover: Time,
    pub(crate) horizon: Time,
}

pub(crate) fn timeline(quick: bool) -> Timeline {
    let s: Time = if quick { 1 } else { 3 };
    let first_arrival = 2 * MS;
    let last_arrival = first_arrival + 68 * MS * s;
    let mid = first_arrival + 34 * MS * s;
    Timeline {
        first_arrival,
        last_arrival,
        fault_at: mid,
        fault_recover: mid + 5 * MS,
        // Latest depart: last_arrival + queueing + max lifetime; then
        // the reclaim grace and a settling margin.
        horizon: last_arrival + 20 * MS + MS + 4 * MS,
    }
}

pub(crate) fn churn_cfg(scale: &Scale, tl: &Timeline, n_hosts: usize) -> ChurnCfg {
    ChurnCfg {
        seed: scale.seed,
        // 22k tenants/sec at 512 servers, scaled with the fabric.
        arrivals_per_sec: 22_000.0 * n_hosts as f64 / 512.0,
        first_arrival: tl.first_arrival,
        last_arrival: tl.last_arrival,
        mean_lifetime_ns: 5e6,
        sigma_lifetime: 0.8,
        min_lifetime: 600 * US,
        max_lifetime: 20 * MS,
    }
}

/// Per-pair demand program for one admitted tenant of `kind`.
pub(crate) fn demand_for(kind: DemandKind, guar_bps: f64) -> PairDemand {
    match kind {
        // The predictability probe: offer exactly the guarantee.
        DemandKind::Bulk => PairDemand::Steady { bps: guar_bps },
        // Whales stress the ledger, not the data plane: cap the offered
        // rate well under the (huge) hose.
        DemandKind::Whale => PairDemand::Steady {
            bps: guar_bps.min(1.5e9),
        },
        DemandKind::WebFlows => {
            let sizes = websearch_flow_sizes();
            // ~30 % of the guarantee as heavy-tailed flow arrivals.
            let rate = (0.3 * guar_bps / (sizes.mean() * 8.0)).max(1.0);
            PairDemand::Flows {
                mean_gap_ns: 1e9 / rate,
                sizes,
            }
        }
        // 2 000 lookups/sec of small objects per pair.
        DemandKind::KvFlows => PairDemand::Flows {
            mean_gap_ns: 500_000.0,
            sizes: kv_object_sizes(),
        },
        DemandKind::Overclaim => unreachable!("overclaim tenants are never admitted"),
    }
}

/// One control-plane step of a plan-driven cell: commit every planned
/// admission decided by `now` (tenant id == plan index), then fire the
/// departures and reclaims due by `now`. Returns the ids just admitted.
pub(crate) fn step_lifecycle(
    svc: &mut FabricService,
    plan: &Plan,
    now: Time,
) -> std::ops::Range<usize> {
    let first = svc.tenants().len();
    while let Some(p) = plan.admitted.get(svc.tenants().len()) {
        if p.decision > now {
            break;
        }
        svc.admit_planned(p);
    }
    svc.advance(now);
    first..svc.tenants().len()
}

/// Guaranteed tenants with a pair whose current route crosses `node` —
/// the tenants a fault on `node` sends back through `Qualifying`.
pub(crate) fn guaranteed_crossing(
    svc: &FabricService,
    r: &Runner,
    tenant_pairs: &[Vec<(NodeId, PairId)>],
    node: NodeId,
) -> Vec<usize> {
    (0..svc.tenants().len())
        .filter(|&i| svc.tenants()[i].state == TenantState::Guaranteed)
        .filter(|&i| {
            tenant_pairs[i].iter().any(|&(src, pair)| {
                r.sim
                    .try_edge::<UfabEdge>(src)
                    .and_then(|e| e.route_of(pair))
                    .map(|route| r.topo.walk_route(src, &route).contains(&node))
                    .unwrap_or(false)
            })
        })
        .collect()
}

fn run_cell(scale: Scale, policy: Policy) -> CellOut {
    let tl = timeline(scale.quick);
    let servers = scale.servers.unwrap_or(512);
    let mut topo = build_topo(servers, false);
    // Churn is the sharded-execution scenario: partition the fabric at
    // pod granularity so `--shards N` can spread it over N workers. The
    // partition is a topology property (independent of worker count),
    // so results and digests are identical at any `--shards` value.
    topo.enable_pod_partition();
    let n_hosts = topo.hosts.len();

    // 1) Trace + admission plan (pure control plane, pre-simulation).
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
    let overclaim_admitted = plan
        .admitted
        .iter()
        .filter(|p| trace[p.req].kind == DemandKind::Overclaim)
        .count();

    // 2) FabricSpec + traffic programs for every admitted tenant. VMs
    //    ring-pair (i → i+1 mod n); anti-affinity in the placer makes
    //    every pair cross-host.
    let mut fabric_spec = FabricSpec::new(acfg.bu_bps);
    let mut tenant_pairs: Vec<Vec<(NodeId, PairId)>> = Vec::with_capacity(plan.admitted.len());
    let mut programs: Vec<TenantTraffic> = Vec::with_capacity(plan.admitted.len());
    for p in &plan.admitted {
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
            prog_pairs.push((p.hosts[i], pair, demand_for(kind, guar)));
        }
        tenant_pairs.push(pairs);
        programs.push(TenantTraffic {
            tag: tid.raw(),
            start: p.decision,
            stop: p.depart,
            pairs: prog_pairs,
        });
    }
    // 3) Simulator + chaos: one core switch dies mid-window.
    let dead_core = topo.cores[0];
    let mut fplan = FaultPlan::new(scale.seed);
    fplan.push(FaultKind::SwitchFail {
        node: dead_core,
        at: tl.fault_at,
        recover_at: Some(tl.fault_recover),
    });
    // Shortened idle sweep (paper default 10 s): departed tenants stop
    // sending for good, so their switch registrations must be reclaimed
    // inside the run — and registrations orphaned by the core-switch
    // outage (a lost finish probe) likewise.
    let ucfg = UfabConfig {
        core_cleanup_period: 5 * MS,
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
        // Fault-aware suite: the run contains a switch failure by design.
        r.enable_chaos_invariants(MS / 4, 5 * MS, tl.fault_recover + 15 * MS);
    }
    // The one tenant lifecycle. Plan order is `add_tenant` order, so the
    // service's tenant ids are the `FabricSpec` tenant ids.
    let mut svc = FabricService::new(Arc::clone(&r.topo), acfg);
    svc.set_obs(r.obs.clone());
    r.sim.apply_chaos(&fplan);

    // The fabric suite always runs: ledger conservation is this
    // scenario's hard acceptance criterion, not an opt-in.
    let mut fsuite: InvariantSuite<FabricService> = InvariantSuite::new(MS);
    fsuite.register(Box::new(LedgerConservation));
    fsuite.register(Box::new(QualifyingStagger::new(STAGGER_BOUND)));

    let mut driver = ChurnDriver::new(programs, scale.seed ^ 0x5eed, 0);

    // 4) Run loop: advance the simulator one STEP at a time, then drive
    //    the lifecycle (admissions / departures / reclaims), poll the
    //    qualification signal, and fire chaos re-qualification.
    let mut baselines: Vec<Vec<u64>> = vec![Vec::new(); plan.admitted.len()];
    let mut util_sum = 0.0;
    let mut util_n = 0u64;
    let mut requal_total = 0u64;
    let mut fault_done = false;
    let mut now = 0;
    while now < tl.horizon {
        now = (now + STEP).min(tl.horizon);
        {
            let mut drivers: [&mut dyn Driver; 1] = [&mut driver];
            r.run(now, SLICE, &mut drivers);
        }
        for i in step_lifecycle(&mut svc, &plan, now) {
            baselines[i] = r.acked_baseline(&tenant_pairs[i]);
        }
        // Chaos interop: at the fault instant, every guaranteed tenant
        // whose current route crosses the dead switch re-qualifies
        // through the same state machine.
        if !fault_done && now >= tl.fault_at {
            fault_done = true;
            for i in guaranteed_crossing(&svc, &r, &tenant_pairs, dead_core) {
                svc.requalify(i as u32, now);
                requal_total += 1;
                baselines[i] = r.acked_baseline(&tenant_pairs[i]);
            }
        }
        for (id, _) in svc.qualifying() {
            let i = id as usize;
            if r.pairs_qualified(&tenant_pairs[i], &baselines[i]) {
                svc.note_qualified(id, now);
            }
        }
        if fsuite.due(now) {
            fsuite.run(&svc, now, &r.obs);
        }
        if now >= tl.first_arrival && now <= tl.last_arrival {
            util_sum += svc.ledger().utilization();
            util_n += 1;
        }
    }

    // 5) Metrics.
    let mut adm = Percentiles::new();
    for &l in &plan.decision_latency_ns {
        adm.add(l as f64);
    }
    let mut ttg = Percentiles::new();
    for t in svc.tenants() {
        if let Some(x) = t.ttg_ns {
            ttg.add(x as f64);
        }
    }
    // Guarantee-violation milliseconds: bulk tenants, 1 ms rate bins
    // fully inside a Guaranteed span (1 ms entry grace for ramp-up).
    let rec = r.merged_recorder();
    let mut viol_ms = 0u64;
    let mut guaranteed_ms = 0u64;
    for (i, t) in svc.tenants().iter().enumerate() {
        if trace[plan.admitted[i].req].kind != DemandKind::Bulk {
            continue;
        }
        let tenant_guar =
            GUAR_FRACTION * t.tokens_per_vm * acfg.bu_bps * tenant_pairs[i].len() as f64;
        let series = rec.tenant_rates.get(&(i as u32));
        for &(enter, exit) in &t.guaranteed_spans {
            let b0 = ((enter + MS) / MS + 1) as usize; // entry grace
            let b1 = (exit / MS) as usize;
            for b in b0..b1 {
                guaranteed_ms += 1;
                let rate = series.map(|s| s.rate_at(b)).unwrap_or(0.0);
                if rate < tenant_guar {
                    viol_ms += 1;
                }
            }
        }
    }
    drop(rec);

    let digest = r
        .sim
        .det_digest()
        .map(|d| format!("{d:016x}"))
        .unwrap_or_default();
    let epilogue = obs_epilogue(&scale, &r, &format!("churn:{}", policy.label()));
    let admitted = plan.admitted.len();
    let rejected = plan.rejected.len();
    CellOut {
        row: [
            policy.label().to_string(),
            admitted.to_string(),
            format!("{rejected} ({:.1}%)", plan.rejection_rate() * 100.0),
            us(adm.percentile(99.0).unwrap_or(0.0)),
            us(ttg.percentile(99.0).unwrap_or(0.0)),
            viol_ms.to_string(),
            f(100.0 * util_sum / util_n.max(1) as f64, 1),
            requal_total.to_string(),
            digest.clone(),
        ],
        epilogue,
        arrivals: trace.len(),
        admitted,
        rejected,
        reclaimed: svc.count(TenantState::Reclaimed),
        overclaim_admitted,
        fabric_violations: fsuite.violations().len(),
        fabric_report: fsuite.report(),
        viol_ms,
        guaranteed_ms,
        events: r.sim.stats().events,
        digest,
        sim_violations: r.invariant_violations(),
    }
}

/// Run the churn scenario: both placement policies, in parallel cells.
pub fn run(scale: Scale) -> Table {
    let cells: Vec<Job<CellOut>> = [Policy::FirstFit, Policy::LoadSpread]
        .into_iter()
        .map(|p| Job::new(format!("churn:{}", p.label()), move || run_cell(scale, p)))
        .collect();
    let mut table = Table::new([
        "policy",
        "admit",
        "reject",
        "adm_p99_us",
        "ttg_p99_us",
        "viol_ms",
        "util_pct",
        "requal",
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
            out.overclaim_admitted, 0,
            "an over-subscribed tenant slipped through admission"
        );
        assert_eq!(
            out.reclaimed, out.admitted,
            "every admitted tenant must be reclaimed by the horizon"
        );
        if out.arrivals >= 300 {
            assert!(
                out.rejected > 0,
                "the over-subscribed class must produce rejections \
                 ({} arrivals, 0 rejected)",
                out.arrivals
            );
        }
        if out.arrivals >= 1200 {
            assert!(
                out.admitted >= 1000,
                "expected >= 1000 admissions at paper scale, got {} of {}",
                out.admitted,
                out.arrivals
            );
        }
        if out.guaranteed_ms >= 200 {
            let frac = out.viol_ms as f64 / out.guaranteed_ms as f64;
            assert!(
                frac < 0.10,
                "bulk tenants below {GUAR_FRACTION}x guarantee for {:.1}% of \
                 their guaranteed time ({} of {} ms)",
                frac * 100.0,
                out.viol_ms,
                out.guaranteed_ms
            );
        }
    }
    emit(
        "churn_fabric",
        "Churn: tenant lifecycle at 512-server scale",
        &table,
    );
    table
}

/// Small fixed cell for `simbench churn`: 64 servers, first-fit, quick
/// timeline. Returns simulator events processed.
pub fn bench_cell(seed: u64) -> u64 {
    bench_cell_at(seed, 64)
}

/// [`bench_cell`] at an arbitrary server count (`simbench shard` uses
/// 64 and 2048). Returns simulator events processed.
pub fn bench_cell_at(seed: u64, servers: usize) -> u64 {
    let scale = Scale {
        seed,
        quick: true,
        servers: Some(servers),
        ..Scale::default()
    };
    let out = run_cell(scale, Policy::FirstFit);
    assert_eq!(out.fabric_violations, 0, "{}", out.fabric_report);
    out.events
}

/// Test hook for shard-identity checks: the bench cell with the
/// fault-aware invariant suite armed (the timeline kills a core switch
/// mid-run, which under sharding is a shard-boundary node). Returns
/// `(events, digest, sim_invariant_violations)`.
pub fn bench_cell_checked(seed: u64, servers: usize) -> (u64, String, usize) {
    let scale = Scale {
        seed,
        quick: true,
        servers: Some(servers),
        check_invariants: true,
        ..Scale::default()
    };
    let out = run_cell(scale, Policy::FirstFit);
    assert_eq!(out.fabric_violations, 0, "{}", out.fabric_report);
    (out.events, out.digest, out.sim_violations)
}

/// Admission-plan throughput input for `simbench churn`: generate
/// `target` requests on the paper-512 fabric and plan them, returning
/// the number of decisions taken.
pub fn admission_bench(seed: u64, target: usize) -> usize {
    let topo = build_topo(512, false);
    let cfg = ChurnCfg {
        seed,
        arrivals_per_sec: 20_000.0,
        first_arrival: 0,
        last_arrival: (target as f64 / 20_000.0 * 1e9) as Time,
        mean_lifetime_ns: 5e6,
        sigma_lifetime: 0.8,
        min_lifetime: 600 * US,
        max_lifetime: 20 * MS,
    };
    let trace = gen_trace(&cfg);
    let reqs: Vec<fabric::TenantReq> = trace
        .iter()
        .enumerate()
        .map(|(i, a)| fabric::TenantReq {
            name: format!("b{i}"),
            n_vms: a.n_vms,
            tokens_per_vm: a.tokens_per_vm,
            arrival: a.arrival,
            lifetime: a.lifetime,
        })
        .collect();
    let plan = fabric::plan(&topo, &AdmissionCfg::default(), &reqs);
    plan.admitted.len() + plan.rejected.len()
}
