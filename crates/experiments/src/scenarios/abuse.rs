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
//! The parent cell's mid-run core-switch failure (chaos engine) is kept, so
//! containment is demonstrated *composed* with the rest of the harness, not
//! in a sanitized corner.
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
//! * **digest** — determinism digest, byte-identical at any `--jobs N`.
//!
//! The fabric invariant suite (ledger conservation — including capacity
//! released while quarantined — and bounded qualifying time) always
//! runs; a violation fails the scenario.

use super::cell::{demand_for, hook_scale, Cell, CellEnd, Planned};
use super::common::{emit, f, us, Scale};
use crate::executor::{run_jobs, Job};
use fabric::{Policy, TenantState};
use metrics::table::Table;
use metrics::Percentiles;
use netsim::{NodeId, PairId, TenantId, Time, MS};
use std::collections::{BTreeMap, BTreeSet};
use ufab::{UfabConfig, UfabEdge};
use workloads::abuse::{hostile_demand, select_hostiles};

/// Everything the abuse cell reports back for asserts and the table.
pub struct CellOut {
    row: [String; 9],
    end: CellEnd,
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
    /// Simulator events processed.
    pub events: u64,
    /// Determinism digest (empty when the det hash is off).
    pub digest: String,
}

/// One containment cell: the churn run with `pct`% hostile tenants and
/// the enforcement/quarantine loop closed every control-plane step.
pub(crate) fn run_cell(scale: Scale, policy: Policy, pct: u32, intensity: u32) -> CellOut {
    // 1) Trace + admission plan — identical to the churn cell: hostile
    //    selection happens *after* admission (an adversary looks honest
    //    until it starts sending), so the plan and the honest tenants'
    //    programs are bit-identical to the enforcement-off run.
    let planned = Planned::new(&scale, policy, 512);
    let hostiles = select_hostiles(scale.seed, planned.plan.admitted.len(), pct, intensity);

    // 2) The churn cell (same core-switch failure, same shortened idle
    //    sweep) with the edge enforcement stage armed. Hostile tenants
    //    get the adversarial demand program; everyone else the churn mix.
    let ucfg = UfabConfig {
        core_cleanup_period: 5 * MS,
        enforce: true,
        ..UfabConfig::default()
    };
    let mut cell = Cell::build(
        &scale,
        planned,
        ucfg,
        true,
        |i, kind, guar| match &hostiles[i] {
            Some(h) => hostile_demand(h.kind, guar, h.intensity),
            None => demand_for(kind, guar, 1.0),
        },
    );
    // The one tenant lifecycle runs with the scorer armed.
    cell.svc.enable_abuse();

    // Program the hostile behavior models into each aggressor's source
    // NICs (plan order; within a tenant, ascending host id).
    let source_hosts = |pairs: &[(NodeId, PairId)]| -> BTreeSet<NodeId> {
        pairs.iter().map(|&(src, _)| src).collect()
    };
    for (i, h) in hostiles.iter().enumerate() {
        let Some(h) = h else { continue };
        for host in source_hosts(&cell.tenant_pairs[i]) {
            cell.r.sim.edge_mut::<UfabEdge>(host).set_hostile(
                TenantId(i as u32),
                h.kind,
                h.intensity,
            );
        }
    }

    // 3) Run loop: the cell's step plus the containment loop — poll the
    //    edges' enforcement counters (hosts ascending, tenants
    //    ascending: a sorted-iteration contract, so the misbehavior
    //    integration order is identical at any `--jobs`),
    //    step the quarantine state machine on the deltas, and program
    //    its clamp directives back down.
    let mut enf_seen: BTreeMap<(u32, u32), [u64; 3]> = BTreeMap::new();
    let mut first_enf: BTreeMap<u32, Time> = BTreeMap::new();
    // Each tenant's first quarantine: the first clamp pushed to it.
    let mut first_clamp: BTreeMap<u32, Time> = BTreeMap::new();
    // Containment-settling bins: ms bins during which an *unclamped*
    // hostile tenant drew enforcement verdicts — the time-to-quarantine
    // window after an aggressor goes over the line, and the short
    // re-offense window when a reinstated aggressor resumes. Victim
    // accounting excludes these: the containment SLO is that abuse
    // never costs a victim its guarantee *once the quarantine clamp is
    // in force*; inside the detection window the policer only bounds
    // the damage (DESIGN §10).
    let mut unsettled: BTreeSet<usize> = BTreeSet::new();
    let mut step_start = 0;
    while cell.step().is_some() {
        let now = cell.now;

        // Containment loop. Counter *deltas* (not absolutes) feed the
        // scorer: the ledger weighs "was this class active this tick",
        // and a delta of zero must read as silence.
        let mut deltas: BTreeMap<u32, [u64; 3]> = BTreeMap::new();
        for &host in &cell.r.topo.hosts {
            let Some(e) = cell.r.sim.try_edge::<UfabEdge>(host) else {
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
        let open_abuse = cell.svc.tenants().iter().enumerate().any(|(i, t)| {
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

        for &t in deltas.keys() {
            first_enf.entry(t).or_insert(now);
        }
        for a in cell.svc.abuse_tick(now, &deltas) {
            if a.clamp.is_some() {
                first_clamp.entry(a.tenant).or_insert(now);
            }
            for host in source_hosts(&cell.tenant_pairs[a.tenant as usize]) {
                cell.r.sim.edge_mut::<UfabEdge>(host).set_enforce_clamp(
                    TenantId(a.tenant),
                    a.clamp,
                    now,
                );
            }
        }

        // The suite audits the post-quarantine ledger of this step.
        cell.audit();
        step_start = now;
    }

    // 4) Metrics.
    let hostile = hostiles.iter().filter(|h| h.is_some()).count();
    let mut quarantined = 0usize;
    let mut false_quarantines = 0usize;
    let mut ttq = Percentiles::new();
    for (&i, &q) in &first_clamp {
        if hostiles[i as usize].is_some() {
            quarantined += 1;
        } else {
            false_quarantines += 1;
        }
        if let Some(&e0) = first_enf.get(&i) {
            ttq.add(q.saturating_sub(e0) as f64);
        }
    }

    let rec = cell.r.rec.lock().unwrap();
    // Victim-class violation ms: honest bulk tenants only, same
    // accounting as churn, minus the containment-settling bins collected
    // above — inside a detection window the policer bounds the damage,
    // the zero-violation SLO starts when the clamp does.
    let mut victim_viol_ms = 0u64;
    let mut victim_guar_ms = 0u64;
    cell.bulk_bins(&rec, |i, b, violated| {
        if hostiles[i].is_none() && !unsettled.contains(&b) {
            victim_guar_ms += 1;
            victim_viol_ms += violated as u64;
        }
    });
    // Aggressor goodput clamp ratio: per quarantined aggressor, mean
    // delivered rate after its first quarantine entry ÷ before.
    let mut clamp_ratios: Vec<f64> = Vec::new();
    for (i, t) in cell.svc.tenants().iter().enumerate() {
        if hostiles[i].is_none() {
            continue;
        }
        let series = rec.tenant_rates.get(&(i as u32));
        if let (Some(&q), Some(s)) = (first_clamp.get(&(i as u32)), series) {
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

    let end = cell.end(&scale, &format!("abuse:{pct}pct"));
    CellOut {
        row: [
            format!("{pct}% x{intensity}"),
            end.admitted.to_string(),
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
            end.digest.clone(),
        ],
        hostile,
        quarantined,
        false_quarantines,
        victim_viol_ms,
        victim_guar_ms,
        events: end.events,
        digest: end.digest.clone(),
        end,
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
        if !out.end.epilogue.is_empty() {
            print!("{}", out.end.epilogue);
        }
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

/// Small fixed cell: 64 servers, first-fit, quick timeline, enforcement
/// armed. `ufabbench`'s `abuse_64` runs it at `pct = 10`; `pct = 0` is
/// the clean-tenant path — identical workload to
/// `churn::bench_cell_at(seed, 64)` with the enforcement stage and the
/// containment loop in the hot path, which is what the <3% overhead
/// bound in `bench/tests/guards.rs` compares. Returns simulator events
/// processed.
pub fn bench_cell(seed: u64, pct: u32) -> u64 {
    let out = run_cell(hook_scale(seed, Some(64), false), Policy::FirstFit, pct, 4);
    assert_eq!(out.false_quarantines, 0, "false quarantine in bench cell");
    out.events
}

/// Test hook for determinism and containment checks at arbitrary
/// scale. Returns the full [`CellOut`].
pub fn cell_checked(seed: u64, servers: usize, pct: u32, intensity: u32) -> CellOut {
    let scale = hook_scale(seed, Some(servers), true);
    let out = run_cell(scale, Policy::FirstFit, pct, intensity);
    assert_eq!(out.end.sim_violations, 0, "sim invariants fired");
    out
}
