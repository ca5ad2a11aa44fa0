//! The fabric-level *cell*: one simulated FatTree carrying a churn of
//! tenants through the one tenant lifecycle (DESIGN §7, "The cell").
//!
//! `repro churn`, `abuse`, `dse` and `ops` each run one [`Cell`] built
//! from one [`Planned`], and differ in what they pass to the
//! constructors and in what they do between [`Cell::step`] and
//! [`Cell::audit`]. `ops` builds its `Planned` from the applied log of
//! its pre-pass, so its cell submits the recorded op stream instead of
//! committing a plan. The same drill (`ops::drill`) also runs the
//! umbrella lifecycle tests' cells: the 8-host testbed with a caller's
//! requests, horizon and operator script, or with the requests planned.

use super::common::{obs_epilogue, observe, Scale};
use super::fig17::build_topo;
use crate::harness::{Runner, SystemKind, SLICE};
use fabric::{AdmissionCfg, Plan, PlannedTenant, Policy, Rejection, TenantReq, TenantState};
use fabricd::{
    Applied, FabricOp, FabricReply, FabricService, LedgerConservation, QualifyingStagger,
    RECLAIM_GRACE,
};
use metrics::{RateSeries, Recorder};
use netsim::{FaultKind, FaultPlan, NodeId, PairId, TenantId, Time, MS, US};
use obs::{InvariantSuite, SnapshotRoundTrip};
use std::iter::Peekable;
use std::ops::Range;
use std::sync::Arc;
use topology::Topo;
use ufab::{FabricSpec, UfabConfig, UfabEdge};
use workloads::churn::{
    gen_trace, ChurnCfg, ChurnDriver, DemandKind, PairDemand, TenantArrival, TenantTraffic,
};
use workloads::dists::{kv_object_sizes, websearch_flow_sizes};

/// Outer control-plane step: lifecycle advance + qualification polling.
pub(crate) const STEP: Time = 250 * US;
/// No tenant may sit in `Qualifying` longer than this. Residence in
/// `Qualifying` is naturally bounded by the tenant's lifetime (clamped
/// at 20 ms by the churn model — departure forces the transition out),
/// so the enforceable stagger bound is that maximum plus admission
/// queueing slack: a tenant beyond it has been *lost* by the state
/// machine, not merely slowed by congestion or a chaos outage.
const STAGGER_BOUND: Time = 25 * MS;
/// Guarantee threshold for violation accounting (matches chaos SLOs).
pub(crate) const GUAR_FRACTION: f64 = 0.85;
/// How long μFAB takes to put a resize in force once the cell hands it
/// on, at the instant the service applied it (§5, Fig 18a/b).
const RETUNE_SETTLE: Time = 500 * US;

/// Timeline of one cell (all instants in ns).
pub(crate) struct Timeline {
    pub(crate) first_arrival: Time,
    pub(crate) last_arrival: Time,
    fault_at: Time,
    fault_recover: Time,
    pub(crate) horizon: Time,
}

impl Timeline {
    /// Tenants arrive for `window_ms` (×3 when not `quick`) from t = 2 ms.
    pub(crate) fn new(quick: bool, window_ms: u64) -> Self {
        let last = 2 * MS + window_ms * MS * if quick { 1 } else { 3 };
        // Latest depart: last arrival + queueing + max lifetime; then the
        // reclaim grace and a settling margin.
        Self::span(2 * MS..last, last + 20 * MS + MS + 4 * MS)
    }

    /// Tenants arrive over `window` and the cell runs to `horizon`; the
    /// fault, where a cell has one, strikes mid-window for 5 ms.
    pub(crate) fn span(window: Range<Time>, horizon: Time) -> Self {
        let fault_at = window.start + (window.end - window.start) / 2;
        Timeline {
            first_arrival: window.start,
            last_arrival: window.end,
            fault_at,
            fault_recover: fault_at + 5 * MS,
            horizon,
        }
    }

    /// An instant at `pct`% of the arrival window.
    pub(crate) fn at(&self, pct: u64) -> Time {
        self.first_arrival + (self.last_arrival - self.first_arrival) * pct / 100
    }

    /// Inside the arrival window, where ledger utilisation is sampled.
    pub(crate) fn in_window(&self, now: Time) -> bool {
        now >= self.first_arrival && now <= self.last_arrival
    }
}

/// The cell's arrival trace over the timeline's window:
/// `per_sec_at_512` tenants/sec at 512 servers, scaled with the fabric.
pub(crate) fn cell_trace(
    seed: u64,
    tl: &Timeline,
    n_hosts: usize,
    per_sec_at_512: f64,
) -> Vec<TenantArrival> {
    gen_trace(&ChurnCfg {
        seed,
        arrivals_per_sec: per_sec_at_512 * n_hosts as f64 / 512.0,
        first_arrival: tl.first_arrival,
        last_arrival: tl.last_arrival,
        mean_lifetime_ns: 5e6,
        sigma_lifetime: 0.8,
        min_lifetime: 600 * US,
        max_lifetime: 20 * MS,
    })
}

/// The admission requests of a trace (request index == trace index),
/// named `<prefix>-<index>`.
pub(crate) fn requests(trace: &[TenantArrival], prefix: &str) -> Vec<TenantReq> {
    trace
        .iter()
        .enumerate()
        .map(|(i, a)| TenantReq {
            name: format!("{prefix}-{i}"),
            n_vms: a.n_vms,
            tokens_per_vm: a.tokens_per_vm,
            arrival: a.arrival,
            lifetime: a.lifetime,
        })
        .collect()
}

/// Per-pair demand program for one admitted tenant of `kind`. Bulk
/// tenants — the predictability probe — offer `bulk_factor` × their
/// guarantee.
pub(crate) fn demand_for(kind: DemandKind, guar_bps: f64, bulk_factor: f64) -> PairDemand {
    match kind {
        DemandKind::Bulk => PairDemand::Steady {
            bps: bulk_factor * guar_bps,
        },
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

/// Register one tenant with VM *i* on `hosts[i]` and its VMs ring-paired
/// (i → i+1 mod n; anti-affinity in the placer makes every pair
/// cross-host). Returns the tenant's `(source host, pair)` list and its
/// traffic program: tagged with the `FabricSpec` tenant id, live over
/// `window`, one `demand()` per pair.
fn add_ring_tenant(
    spec: &mut FabricSpec,
    name: &str,
    tokens_per_vm: f64,
    hosts: &[NodeId],
    window: (Time, Time),
    mut demand: impl FnMut() -> PairDemand,
) -> (Vec<(NodeId, PairId)>, TenantTraffic) {
    let tid = spec.add_tenant(name, tokens_per_vm);
    let vms: Vec<_> = hosts.iter().map(|&h| spec.add_vm(tid, h)).collect();
    let pairs: Vec<(NodeId, PairId)> = (0..vms.len())
        .map(|i| (hosts[i], spec.add_pair(vms[i], vms[(i + 1) % vms.len()])))
        .collect();
    let program = TenantTraffic {
        tag: tid.raw(),
        start: window.0,
        stop: window.1,
        pairs: pairs.iter().map(|&(h, p)| (h, p, demand())).collect(),
    };
    (pairs, program)
}

/// Guarantee-violation accounting: visit every 1 ms rate bin fully
/// inside one of a tenant's `Guaranteed` spans (1 ms entry grace for
/// ramp-up) as `(bin, delivered < guar_bps(bin))`. A tenant with no
/// series delivered nothing.
fn guaranteed_bins(
    spans: &[(Time, Time)],
    series: Option<&RateSeries>,
    guar_bps: impl Fn(usize) -> f64,
    mut visit: impl FnMut(usize, bool),
) {
    for &(enter, exit) in spans {
        let b0 = ((enter + MS) / MS + 1) as usize; // entry grace
        let b1 = (exit / MS) as usize;
        for b in b0..b1 {
            let rate = series.map(|s| s.rate_at(b)).unwrap_or(0.0);
            visit(b, rate < guar_bps(b));
        }
    }
}

/// Fail the run if bulk tenants sat below the threshold for 10 % or more
/// of their guaranteed time, once there are 200 guaranteed ms to judge.
pub(crate) fn assert_bulk_viol(viol_ms: u64, guaranteed_ms: u64) {
    if guaranteed_ms >= 200 {
        let frac = viol_ms as f64 / guaranteed_ms as f64;
        assert!(
            frac < 0.10,
            "bulk tenants below {GUAR_FRACTION}x guarantee for {:.1}% of \
             their guaranteed time ({viol_ms} of {guaranteed_ms} ms)",
            frac * 100.0,
        );
    }
}

/// The quick-mode scale of the fixed cells behind the bench and test hooks.
pub(crate) fn hook_scale(seed: u64, servers: Option<usize>, check_invariants: bool) -> Scale {
    Scale {
        seed,
        quick: true,
        servers,
        check_invariants,
        ..Scale::default()
    }
}

/// Where a cell's admissions come from. A plan's are committed through
/// `admit_planned` at their decision instants. An op stream is
/// `submit`ted to the service's queue once due, because only the queue
/// digests every op, and `admit_planned` panics with queued ops due.
enum Admissions {
    Plan,
    Ops(Peekable<std::vec::IntoIter<(Time, FabricOp)>>),
}

/// The control-plane half of a cell. Pure function of its inputs: what
/// the data plane later does — hardware knobs, hostile programs —
/// cannot move an admission, so outcome deltas between cells sharing
/// these are the data plane's.
pub(crate) struct Planned {
    tl: Timeline,
    /// Demand class of each request, by request index.
    kinds: Vec<DemandKind>,
    acfg: AdmissionCfg,
    pub(crate) plan: Plan,
    topo: Topo,
    admissions: Admissions,
}

impl Planned {
    /// Trace + admission plan on the `--servers` (or `default_servers`)
    /// FatTree: 22 k tenants/sec at 512 servers over a 68 ms window.
    pub(crate) fn new(scale: &Scale, policy: Policy, default_servers: usize) -> Self {
        let tl = Timeline::new(scale.quick, 68);
        let topo = build_topo(scale.servers.unwrap_or(default_servers), false);
        let trace = cell_trace(scale.seed, &tl, topo.hosts.len(), 22_000.0);
        let (reqs, kinds) = (requests(&trace, "churn"), trace.iter().map(|a| a.kind));
        Self::plan(tl, topo, &reqs, kinds.collect(), admission(policy))
    }

    /// `reqs` of demand classes `kinds` on `topo`, planned up front.
    pub(crate) fn plan(
        tl: Timeline,
        topo: Topo,
        reqs: &[TenantReq],
        kinds: Vec<DemandKind>,
        acfg: AdmissionCfg,
    ) -> Self {
        Planned {
            plan: fabric::plan(&topo, &acfg, reqs),
            tl,
            kinds,
            acfg,
            topo,
            admissions: Admissions::Plan,
        }
    }

    /// The plan an op stream applied: `ops` is the `(submit instant, op)`
    /// stream a pre-pass played into a service on `topo`, with the
    /// `Admit` of request *k* of `reqs` its *k*-th admit, and `applied`
    /// that service's log. Each `Admitted` reply is a tenant decided when
    /// applied and departing a lifetime later on the reply's hosts.
    pub(crate) fn from_ops(
        tl: Timeline,
        topo: Arc<Topo>,
        reqs: &[TenantReq],
        kinds: Vec<DemandKind>,
        acfg: AdmissionCfg,
        ops: Vec<(Time, FabricOp)>,
        applied: &[Applied],
    ) -> Self {
        let (mut admitted, mut rejected, mut decision_latency_ns) = (vec![], vec![], vec![]);
        let admits = applied.iter().filter_map(|ap| match &ap.op {
            FabricOp::Admit { name, .. } => Some((ap, name)),
            _ => None,
        });
        for (req, (ap, name)) in admits.enumerate() {
            let a = &reqs[req];
            decision_latency_ns.push(ap.applied - ap.submitted);
            match &ap.reply {
                FabricReply::Admitted { hosts, .. } => admitted.push(PlannedTenant {
                    req,
                    name: name.clone(),
                    n_vms: a.n_vms,
                    tokens_per_vm: a.tokens_per_vm,
                    arrival: ap.submitted,
                    decision: ap.applied,
                    depart: ap.applied + a.lifetime,
                    hosts: hosts.iter().map(|&h| NodeId(h)).collect(),
                }),
                FabricReply::Rejected { reason } => rejected.push(Rejection {
                    req,
                    at: ap.applied,
                    reason: *reason,
                }),
                other => unreachable!("admit {name} replied {other}"),
            }
        }
        let plan = Plan {
            admitted,
            rejected,
            decision_latency_ns,
        };
        Planned {
            tl,
            kinds,
            acfg,
            plan,
            topo: Arc::into_inner(topo).expect("the pre-pass service is gone"),
            admissions: Admissions::Ops(ops.into_iter().peekable()),
        }
    }
}

/// The admission config of a cell placing with `policy`.
pub(crate) fn admission(policy: Policy) -> AdmissionCfg {
    AdmissionCfg {
        policy,
        ..AdmissionCfg::default()
    }
}

/// A built, steppable cell. Tenant id == plan index == `FabricSpec`
/// tenant id, so every per-tenant `Vec` here is indexed by it.
pub(crate) struct Cell {
    pub(crate) tl: Timeline,
    /// Demand class of each request, by request index.
    pub(crate) kinds: Vec<DemandKind>,
    pub(crate) plan: Plan,
    pub(crate) r: Runner,
    pub(crate) svc: FabricService,
    /// `(source host, pair)` of every pair of each tenant.
    pub(crate) tenant_pairs: Vec<Vec<(NodeId, PairId)>>,
    /// Simulated time the cell has been stepped to.
    pub(crate) now: Time,
    /// Chaos-driven re-qualifications so far.
    pub(crate) requalified: u64,
    admissions: Admissions,
    driver: ChurnDriver,
    /// Acked bytes of each pair when its tenant last entered `Qualifying`.
    baselines: Vec<Vec<u64>>,
    /// Tenants whose pairs were handed to [`Runner::retire`].
    retired: Vec<bool>,
    /// The `(since, tokens per VM)` steps each tenant's hose took: its
    /// plan's from 0, then one per resize, since the service applied it.
    tokens: Vec<Vec<(Time, f64)>>,
    fsuite: InvariantSuite<FabricService>,
    /// The core switch that fails at `tl.fault_at`, until it has.
    pending_fault: Option<NodeId>,
}

/// What every cell reports once it has run to the horizon.
pub(crate) struct CellEnd {
    pub(crate) epilogue: String,
    pub(crate) admitted: usize,
    pub(crate) sim_violations: usize,
    pub(crate) events: u64,
    pub(crate) digest: String,
}

impl Cell {
    /// Assemble simulator, service and traffic for a plan. `ucfg` is the
    /// μFAB configuration of every edge and switch; `core_fault` kills
    /// one core switch mid-window (and arms the fault-aware simulator
    /// suite instead of the standard one); `demand(tenant, kind,
    /// guarantee_bps)` is called once per pair.
    pub(crate) fn build(
        scale: &Scale,
        planned: Planned,
        ucfg: UfabConfig,
        core_fault: bool,
        mut demand: impl FnMut(usize, DemandKind, f64) -> PairDemand,
    ) -> Self {
        let Planned {
            tl,
            kinds,
            acfg,
            plan,
            topo,
            admissions,
        } = planned;
        let mut spec = FabricSpec::new(acfg.bu_bps);
        let mut tenant_pairs = Vec::with_capacity(plan.admitted.len());
        let mut programs = Vec::with_capacity(plan.admitted.len());
        let mut tokens = Vec::with_capacity(plan.admitted.len());
        for (i, p) in plan.admitted.iter().enumerate() {
            let kind = kinds[p.req];
            let guar = p.tokens_per_vm * acfg.bu_bps;
            let (pairs, program) = add_ring_tenant(
                &mut spec,
                &p.name,
                p.tokens_per_vm,
                &p.hosts,
                (p.decision, p.depart),
                || demand(i, kind, guar),
            );
            debug_assert_eq!(program.tag as usize, i);
            tenant_pairs.push(pairs);
            programs.push(program);
            tokens.push(vec![(0, p.tokens_per_vm)]);
        }
        let dead_core = topo.cores[0];
        let cleanup_period = ucfg.core_cleanup_period;
        let mut r = Runner::new(topo, spec, SystemKind::Ufab, scale.seed, Some(ucfg), MS);
        // `CellEnd::digest` is reported for every run, traced or not.
        r.sim.enable_det_hash();
        // Fault-aware suite where the run contains a switch failure by
        // design. The standard suite of `dse`, the one cell without a
        // fault, deliberately excludes the stale-registration sweep check,
        // whose grace is itself a function of the cleanup knob under sweep.
        let faults = core_fault.then_some((cleanup_period, tl.fault_recover + 15 * MS));
        observe(scale, &mut r, faults);
        // The one tenant lifecycle. Plan order is `add_tenant` order, so
        // the service's tenant ids are the `FabricSpec` tenant ids.
        let mut svc = FabricService::new(Arc::clone(&r.topo), acfg);
        svc.set_obs(r.obs.clone());
        if core_fault {
            let mut fplan = FaultPlan::new(scale.seed);
            fplan.push(FaultKind::SwitchFail {
                node: dead_core,
                at: tl.fault_at,
                recover_at: Some(tl.fault_recover),
            });
            r.sim.apply_chaos(&fplan);
        }
        // The fabric suite always runs: ledger conservation is every
        // cell's hard acceptance criterion, not an opt-in. With
        // invariants on, every evaluation also requires the service's
        // snapshot to restore byte-identical and audit-clean.
        let mut fsuite: InvariantSuite<FabricService> = InvariantSuite::new(MS);
        fsuite.register(Box::new(LedgerConservation));
        fsuite.register(Box::new(QualifyingStagger::new(STAGGER_BOUND)));
        if scale.check_invariants {
            fsuite.register(Box::new(SnapshotRoundTrip));
        }
        Cell {
            baselines: vec![Vec::new(); plan.admitted.len()],
            retired: vec![false; plan.admitted.len()],
            tokens,
            driver: ChurnDriver::new(programs, scale.seed ^ 0x5eed, 0),
            pending_fault: core_fault.then_some(dead_core),
            tl,
            kinds,
            plan,
            r,
            svc,
            tenant_pairs,
            now: 0,
            requalified: 0,
            admissions,
            fsuite,
        }
    }

    /// Advance one [`STEP`]: commit every planned admission decided by
    /// its end (or submit every op due), fire the ops, departures and
    /// reclaims due, and run the simulator to the step's end, handing
    /// each applied resize and drain to the data plane at the instant the
    /// service applied it ([`Runner::retune`], [`Runner::rehost`], the
    /// driver following the moved pairs, the drained tenants' acked bytes
    /// re-baselined). Retire the pairs of the tenants just reclaimed,
    /// re-qualify across the fault, and poll the qualification signal.
    /// Returns the applied ops, or `None` once the horizon is reached.
    pub(crate) fn step(&mut self) -> Option<Vec<Applied>> {
        if self.now >= self.tl.horizon {
            return None;
        }
        self.now = (self.now + STEP).min(self.tl.horizon);
        let now = self.now;
        let first_new = self.svc.tenants().len();
        match &mut self.admissions {
            Admissions::Plan => {
                let due = |p: &&PlannedTenant| p.decision <= now;
                while let Some(p) = self.plan.admitted.get(self.svc.tenants().len()).filter(due) {
                    self.svc.admit_planned(p);
                }
            }
            Admissions::Ops(ops) => {
                while let Some((t, op)) = ops.next_if(|&(t, _)| t <= now) {
                    self.svc.submit(t, op);
                }
            }
        }
        let applied = self.svc.advance(now);
        for ap in &applied {
            match &ap.reply {
                &FabricReply::Resized {
                    tenant, new_tokens, ..
                } => {
                    self.r.run(ap.applied, SLICE, &mut [&mut self.driver]);
                    self.r.retune(TenantId(tenant), new_tokens);
                    self.tokens[tenant as usize].push((ap.applied, new_tokens));
                }
                FabricReply::Drained { moved, .. } => {
                    self.r.run(ap.applied, SLICE, &mut [&mut self.driver]);
                    for &(t, v, _, to) in moved {
                        let pairs = &mut self.tenant_pairs[t as usize];
                        // Ring pair v is sent by VM v.
                        let vm = self.r.fabric.pair(pairs[v as usize].1).src;
                        for (old, (src, new)) in self.r.rehost(vm, NodeId(to), pairs) {
                            self.driver.repoint(old.1, src, new);
                        }
                        // The drain sent the tenant back to `Qualifying`.
                        self.baselines[t as usize] = self.r.acked_baseline(pairs);
                    }
                }
                _ => {}
            }
        }
        self.r.run(now, SLICE, &mut [&mut self.driver]);
        for i in first_new..self.svc.tenants().len() {
            self.baselines[i] = self.r.acked_baseline(&self.tenant_pairs[i]);
        }
        for (i, t) in self.svc.tenants().iter().enumerate() {
            if t.state == TenantState::Reclaimed && !self.retired[i] {
                let due = t.depart_at + RECLAIM_GRACE;
                assert!(due <= now, "tenant {i} reclaimed inside its teardown grace");
                self.retired[i] = true;
                self.r.retire(&self.tenant_pairs[i]);
            }
        }
        // Chaos interop: at the fault instant, every guaranteed tenant
        // whose current route crosses the dead switch re-qualifies
        // through the same state machine.
        if now >= self.tl.fault_at {
            if let Some(dead) = self.pending_fault.take() {
                for i in self.guaranteed_crossing(dead) {
                    self.svc.requalify(i as u32, now);
                    self.requalified += 1;
                    self.baselines[i] = self.r.acked_baseline(&self.tenant_pairs[i]);
                }
            }
        }
        for (id, _) in self.svc.qualifying() {
            let i = id as usize;
            if self
                .r
                .pairs_qualified(&self.tenant_pairs[i], &self.baselines[i])
            {
                self.svc.note_qualified(id, now);
            }
        }
        Some(applied)
    }

    /// Guaranteed tenants with a pair whose current route crosses `node`
    /// — the tenants a fault on `node` sends back through `Qualifying`.
    fn guaranteed_crossing(&self, node: NodeId) -> Vec<usize> {
        let r = &self.r;
        (0..self.svc.tenants().len())
            .filter(|&i| self.svc.tenants()[i].state == TenantState::Guaranteed)
            .filter(|&i| {
                self.tenant_pairs[i].iter().any(|&(src, pair)| {
                    r.sim
                        .try_edge::<UfabEdge>(src)
                        .and_then(|e| e.route_of(pair))
                        .map(|route| r.topo.walk_route(src, &route).contains(&node))
                        .unwrap_or(false)
                })
            })
            .collect()
    }

    /// Evaluate the fabric suite if due. Separate from [`Cell::step`]
    /// because what a scenario does to the service after the step
    /// (`abuse`'s quarantine ladder) must be audited in the same step.
    pub(crate) fn audit(&mut self) {
        if self.fsuite.due(self.now) {
            self.fsuite.run(&self.svc, self.now, &self.r.obs);
        }
    }

    /// Visit every guaranteed bin ([`guaranteed_bins`]) of every bulk
    /// tenant as `(tenant, bin, violated)`, against [`GUAR_FRACTION`] of
    /// the aggregate guarantee in force over the bin: the lowest of the
    /// tenant's hoses from [`RETUNE_SETTLE`] before the bin to its end,
    /// so a bin within the settle time of a retune is held to the lower
    /// of the two. `rec` is the cell's recorder, locked by the caller
    /// (`abuse` goes on reading it).
    pub(crate) fn bulk_bins(&self, rec: &Recorder, mut visit: impl FnMut(usize, usize, bool)) {
        for (i, t) in self.svc.tenants().iter().enumerate() {
            if self.kinds[self.plan.admitted[i].req] != DemandKind::Bulk {
                continue;
            }
            let n_pairs = self.tenant_pairs[i].len() as f64;
            let per_token = GUAR_FRACTION * self.r.fabric.bu_bps * n_pairs;
            let steps = &self.tokens[i];
            // The lowest step in force over [bin start − settle, bin end).
            let guar = |b: usize| {
                let from = (b as Time * MS).saturating_sub(RETUNE_SETTLE);
                let first = steps.partition_point(|s| s.0 <= from) - 1;
                let to = (b as Time + 1) * MS;
                let tokens = steps[first..].iter().take_while(|s| s.0 < to);
                per_token * tokens.fold(f64::INFINITY, |m, s| m.min(s.1))
            };
            let series = rec.tenant_rates.get(&(i as u32));
            guaranteed_bins(&t.guaranteed_spans, series, guar, |b, violated| {
                visit(i, b, violated)
            });
        }
    }

    /// The common end-of-run readings; `label` names the cell in the
    /// observability epilogue and in the verdicts. Every op of an op
    /// stream must have been submitted, every admitted tenant must have
    /// been reclaimed by the horizon, so no guarantee span is still
    /// open, and the fabric suite must have recorded no violation.
    pub(crate) fn end(&self, scale: &Scale, label: &str) -> CellEnd {
        if let Admissions::Ops(ops) = &self.admissions {
            assert_eq!(ops.len(), 0, "[{label}] ops left past the horizon");
        }
        assert_eq!(
            self.svc.count(TenantState::Reclaimed),
            self.plan.admitted.len(),
            "[{label}] every admitted tenant must be reclaimed by the horizon"
        );
        assert!(
            self.fsuite.violations().is_empty(),
            "[{label}] fabric invariants violated:\n{}",
            self.fsuite.report()
        );
        CellEnd {
            epilogue: obs_epilogue(scale, &self.r, label),
            admitted: self.plan.admitted.len(),
            sim_violations: self.r.invariant_violations(),
            events: self.r.sim.stats().events,
            digest: self
                .r
                .sim
                .det_digest()
                .map(|d| format!("{d:016x}"))
                .unwrap_or_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::fig17::FABRIC_SIZES;
    use super::*;

    /// The quick churn instants are the ones `ufabbench/src/twin.rs`
    /// hard-codes for its copy of the cell.
    #[test]
    fn timeline_scales_its_window_and_keeps_its_margins() {
        let q = Timeline::new(true, 68);
        assert_eq!((q.first_arrival, q.last_arrival), (2 * MS, 70 * MS));
        assert_eq!(
            (q.fault_at, q.fault_recover, q.horizon),
            (36 * MS, 41 * MS, 95 * MS)
        );
        let f = Timeline::new(false, 68);
        assert_eq!((f.first_arrival, f.last_arrival), (2 * MS, 206 * MS));
        assert_eq!(
            (f.fault_at, f.fault_recover, f.horizon),
            (104 * MS, 109 * MS, 231 * MS)
        );
        assert_eq!(Timeline::new(true, 48).at(50), 26 * MS);
    }

    #[test]
    fn guaranteed_bins_skip_the_grace_and_count_equality_as_met() {
        let visited = |span: (Time, Time), series: Option<&RateSeries>, guar_bps: f64| {
            let mut seen = Vec::new();
            guaranteed_bins(
                &[span],
                series,
                |_| guar_bps,
                |b, violated| seen.push((b, violated)),
            );
            seen
        };
        let mut series = RateSeries::new(MS);
        for b in 0..5 {
            series.add(b * MS, 1000);
        }
        let rate = 8e6; // 1000 B per 1 ms bin
        let all = |violated| [(2, violated), (3, violated), (4, violated)];
        assert_eq!(visited((0, 5 * MS), Some(&series), rate), all(false));
        assert_eq!(visited((0, 5 * MS), Some(&series), 1.01 * rate), all(true));
        assert_eq!(visited((0, 5 * MS), None, rate), all(true));
        assert_eq!(visited((0, 3 * MS - 1), Some(&series), rate), []);
    }

    #[test]
    fn ring_tenant_pairs_each_vm_with_the_next() {
        let mut spec = FabricSpec::new(1e9);
        spec.add_tenant("earlier", 1.0);
        let h = [NodeId(7), NodeId(8), NodeId(9)];
        let (pairs, program) = add_ring_tenant(&mut spec, "t", 2.0, &h, (3 * MS, 9 * MS), || {
            PairDemand::Steady { bps: 1.0 }
        });
        let ends =
            |&(src, p): &(NodeId, PairId)| (src, spec.pair_src_host(p), spec.pair_dst_host(p));
        let ring = [(h[0], h[0], h[1]), (h[1], h[1], h[2]), (h[2], h[2], h[0])];
        assert!(pairs.iter().map(ends).eq(ring));
        assert_eq!(
            (program.tag, program.start, program.stop),
            (1, 3 * MS, 9 * MS)
        );
        assert!(program.pairs.iter().map(|&(src, p, _)| (src, p)).eq(pairs));
    }

    /// Step `cell` to the horizon and check retirement: no edge holds
    /// any state of a reclaimed tenant, and the per-pair slots the edges
    /// ever held at once follow the pairs active at once, not the pairs
    /// the run has seen. Returns the cell's end-of-run readings.
    fn assert_retired(mut cell: Cell) -> CellEnd {
        fn edge(cell: &Cell, h: NodeId) -> &UfabEdge {
            cell.r.sim.edge(h)
        }
        let mut peak_active = 0;
        while cell.step().is_some() {
            let active = (cell.tenant_pairs.iter().flatten())
                .filter(|&&(src, p)| edge(&cell, src).is_active(p) == Some(true))
                .count();
            peak_active = peak_active.max(active);
        }
        let ever: usize = cell.tenant_pairs.iter().map(Vec::len).sum();
        for (i, pairs) in cell.tenant_pairs.iter().enumerate() {
            assert_eq!(cell.svc.tenants()[i].state, TenantState::Reclaimed);
            for &(src, p) in pairs {
                let dst = cell.r.fabric.pair_dst_host(p);
                assert!(!edge(&cell, src).holds(p), "{p} still held at its source");
                assert!(
                    !edge(&cell, dst).holds(p),
                    "{p} still held at its destination"
                );
            }
        }
        let (mut rows, mut slots) = (0, 0);
        for &h in &cell.r.topo.hosts {
            let [(_, r), (_, e)] = edge(&cell, h).slot_use();
            (rows, slots) = (rows + r, slots + e);
        }
        assert!(ever > 4 * peak_active, "{ever} pairs, {peak_active} active");
        // Every pair has a row at its source and a slot at both ends.
        assert!(
            rows <= 2 * peak_active,
            "{rows} rows for {peak_active} active"
        );
        assert!(
            slots <= 2 * 2 * peak_active,
            "{slots} slots for {peak_active} active"
        );
        cell.end(&hook_scale(1, Some(64), false), "retired")
    }

    /// The first-fit `repro ops` cell under the `preset` script.
    fn ops_cell(scale: &Scale, preset: &str) -> Cell {
        use super::super::ops::{build_cell, ops_requests, script_events, WINDOW_MS};
        let tl = Timeline::new(scale.quick, WINDOW_MS);
        let (topo, reqs) = ops_requests(scale, &tl);
        let script = script_events(preset, &tl);
        build_cell(scale, Policy::FirstFit, topo, reqs, tl, Some(script)).0
    }

    /// Retirement on the two 64-server cells: the plan-driven churn cell
    /// and the op-driven ops cell, whose tenants come from its pre-pass.
    /// The churn cell is `churn::bench_cell_at(1, 64)`'s, the benchmark's
    /// `churn_64`: its events and simulator digest are pinned, so a change
    /// that moves a planned cell fails here first.
    #[test]
    fn reclaimed_tenants_leave_no_pair_state_behind() {
        let scale = hook_scale(1, Some(64), false);
        let planned = Planned::new(&scale, Policy::FirstFit, 64);
        let ucfg = UfabConfig {
            core_cleanup_period: 5 * MS,
            ..UfabConfig::default()
        };
        let churn = Cell::build(&scale, planned, ucfg, true, |_, kind, guar| {
            demand_for(kind, guar, 1.0)
        });
        // Seed 1: 760 pairs, at most 98 active at once.
        let end = assert_retired(churn);
        assert_eq!(
            (end.events, end.digest.as_str()),
            (3_052_756, "a18dced8cc0c5892")
        );
        // Seed 1: 200 pairs, at most 38 active at once.
        assert_retired(ops_cell(&scale, "mixed"));
    }

    /// Step `cell` until it applies an op `want` picks, and return that.
    fn step_until<T>(cell: &mut Cell, mut want: impl FnMut(&Applied) -> Option<T>) -> T {
        loop {
            let applied = cell.step().expect("the op is applied before the horizon");
            if let Some(t) = applied.iter().find_map(&mut want) {
                return t;
            }
        }
    }

    /// A resize reaches μFAB-E at the instant the service applied it: by
    /// the end of that step every active pair of the tenant holds the new
    /// hose as its sender token (a ring pair is its VM's only outgoing
    /// pair, so it gets the VM's whole hose).
    #[test]
    fn resized_tenants_pairs_take_the_new_hose() {
        let mut cell = ops_cell(&hook_scale(1, Some(64), false), "resize");
        let resized = |ap: &Applied| match ap.reply {
            FabricReply::Resized {
                tenant, new_tokens, ..
            } => Some((tenant as usize, new_tokens)),
            _ => None,
        };
        let (i, tokens) = step_until(&mut cell, resized);
        assert_ne!(tokens, cell.plan.admitted[i].tokens_per_vm);
        let active: Vec<_> = (cell.tenant_pairs[i].iter())
            .filter_map(|&(src, p)| cell.r.sim.edge::<UfabEdge>(src).tokens_of(p))
            .collect();
        assert!(!active.is_empty(), "tenant {i} has no pair at its edges");
        assert!(active.iter().all(|&phi| phi == tokens), "{active:?}");
    }

    /// A drain reaches μFAB-E at the instant the service applied it: a
    /// moved bulk VM's pairs are new pairs, sent from and routed to its
    /// new host, its old pairs are gone from the tenant and retired, and
    /// the tenant's acked bytes are re-baselined at the drain instant.
    #[test]
    fn drained_vms_pairs_run_from_their_new_host() {
        let mut cell = ops_cell(&hook_scale(1, Some(64), false), "drain");
        let kinds: Vec<_> = (cell.plan.admitted.iter())
            .map(|p| cell.kinds[p.req])
            .collect();
        let drained = |ap: &Applied| match &ap.reply {
            FabricReply::Drained { moved, .. } => (moved.iter())
                .find(|m| kinds[m.0 as usize] == DemandKind::Bulk)
                .map(|&m| (m, ap.applied)),
            _ => None,
        };
        let before = cell.tenant_pairs.clone();
        let ((t, v, from, to), at) = step_until(&mut cell, drained);
        let (i, new_host) = (t as usize, NodeId(to));
        let pairs = cell.tenant_pairs[i].clone();
        // Re-qualifying takes progress past the drain instant, which is
        // inside the step: the moved VM's new pairs start from nothing,
        // the others from what they had acked by then.
        let (n, v) = (pairs.len(), v as usize);
        let (base, acked) = (&cell.baselines[i], cell.r.acked_baseline(&pairs));
        assert!(at < cell.now, "drained at {at} ns, the step's end");
        assert_eq!((base[v], base[(v + n - 1) % n]), (0, 0), "{base:?}");
        assert!(base.iter().any(|&b| b > 0), "{base:?}");
        assert!(base.iter().zip(&acked).all(|(b, a)| b <= a), "{acked:?}");
        // Ring pair v leaves VM v; pair v - 1 enters it.
        let (out, into) = (pairs[v], pairs[(v + n - 1) % n]);
        for (k, old) in before[i].iter().enumerate() {
            let touched = k == v || k == (v + n - 1) % n;
            assert_eq!(touched, !pairs.contains(old), "ring pair {k}");
        }
        assert_eq!(out.0, new_host);
        assert!(before[i].iter().all(|&(src, _)| src != new_host));
        let held =
            |cell: &Cell, (src, p): (NodeId, PairId)| cell.r.sim.edge::<UfabEdge>(src).route_of(p);
        while held(&cell, out).is_none() || held(&cell, into).is_none() {
            cell.step().expect("the new pairs send before the horizon");
        }
        let topo = &cell.r.topo;
        let route = |(src, p)| topo.walk_route(src, &held(&cell, (src, p)).unwrap());
        let first_hop = topo.neighbors(new_host)[0].peer;
        assert_eq!(route(out)[..2], [new_host, first_hop]);
        assert_eq!(route(into).last(), Some(&new_host));
        assert!(!route(into).contains(&NodeId(from)));
        while cell.step().is_some() {}
        let edge = |h| cell.r.sim.edge::<UfabEdge>(h);
        for &(src, p) in before[i].iter().filter(|old| !pairs.contains(old)) {
            let dst = cell.r.fabric.pair_dst_host(p);
            assert!(
                !edge(src).holds(p) && !edge(dst).holds(p),
                "{p} not retired"
            );
        }
    }

    /// `bulk_bins` judges each bin against the hose in force over it and
    /// the settle time before it: a tenant halved and then restored,
    /// delivering 60 % of its planned guarantee, violates exactly the
    /// bins that neither overlap the halved span nor start within
    /// `RETUNE_SETTLE` of its end.
    #[test]
    fn bulk_bins_judge_each_bin_against_the_hose_in_force() {
        let scale = hook_scale(1, Some(64), false);
        let mut cell = ops_cell(&scale, "none");
        let i = loop {
            cell.step()
                .expect("a bulk tenant is guaranteed before the horizon");
            let long_lived_bulk = |&i: &usize| {
                let p = &cell.plan.admitted[i];
                cell.kinds[p.req] == DemandKind::Bulk
                    && cell.svc.tenants()[i].state == TenantState::Guaranteed
                    && p.depart > cell.now + 6 * MS
            };
            if let Some(i) = (0..cell.svc.tenants().len()).find(long_lived_bulk) {
                break i;
            }
        };
        let tokens = cell.plan.admitted[i].tokens_per_vm;
        let mut at = [0; 2];
        for (k, factor) in [0.5, 1.0].into_iter().enumerate() {
            let op = FabricOp::Resize {
                tenant: i as u32,
                new_tokens_per_vm: factor * tokens,
            };
            cell.svc.submit(cell.now, op);
            let ours = |ap: &Applied| match ap.reply {
                FabricReply::Resized { tenant, .. } if tenant as usize == i => Some(ap.applied),
                _ => None,
            };
            at[k] = step_until(&mut cell, ours);
            (0..8).for_each(|_| drop(cell.step()));
        }
        while cell.step().is_some() {}
        let steps = [(0, tokens), (at[0], 0.5 * tokens), (at[1], tokens)];
        assert_eq!(cell.tokens[i], steps);

        let rec = metrics::recorder::shared(MS);
        let guar_bps = tokens * cell.r.fabric.bu_bps * cell.tenant_pairs[i].len() as f64;
        let bytes_per_bin = (0.6 * guar_bps / 8.0 * (MS as f64 / 1e9)) as u64;
        for b in 0..cell.tl.horizon / MS {
            rec.lock()
                .unwrap()
                .delivered(b * MS, 0, i as u32, bytes_per_bin);
        }
        let (mut bins, mut halved) = (0, 0);
        cell.bulk_bins(&rec.lock().unwrap(), |t, b, violated| {
            if t == i {
                let (start, end) = (b as Time * MS, (b as Time + 1) * MS);
                let overlaps_halved = end > at[0] && start < at[1] + RETUNE_SETTLE;
                assert_eq!(violated, !overlaps_halved, "bin {b}");
                bins += 1;
                halved += overlaps_halved as u32;
            }
        });
        assert!(bins > halved && halved > 0, "{bins} bins, {halved} halved");
    }

    #[test]
    fn fabric_sizes_are_the_shapes_build_topo_has() {
        for n in FABRIC_SIZES {
            assert_eq!(build_topo(n, false).hosts.len(), n);
        }
    }

    #[test]
    #[should_panic(expected = "FABRIC_SIZES")]
    fn build_topo_rejects_a_size_it_has_no_shape_for() {
        build_topo(256, false);
    }
}
