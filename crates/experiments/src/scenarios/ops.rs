//! `repro ops` — the fabricd control-plane service operated live on the
//! 512-server FatTree: churn workload plus a scripted operator timeline
//! (mid-run tenant resizes, cordon-and-drain, snapshot/kill/restore).
//!
//! Two runs of the same op stream happen per cell, both in [`drill`]:
//!
//! 1. **Reference pre-pass** (pure control plane, no simulator): the
//!    requests plus the operator script are played into a
//!    [`FabricService`] end to end, *uninterrupted*. This run both
//!    records the op stream — operator targets are selected from
//!    service state at the scripted instants — and produces the
//!    reference determinism digest. Its applied log is the plan of the
//!    cell (`Planned::from_ops`).
//! 2. **Inline run**: a `Cell` submits the recorded stream to its own
//!    fresh service in lock-step with the simulated fabric (admitted
//!    tenants' traffic, μFAB-E-driven qualification, pair retirement,
//!    the fabric suite). Each resize and drain it applies reaches
//!    μFAB-E through the one tenant table: GP splits the new hose, and
//!    a drained VM's traffic moves to new pairs from its new host. At
//!    `--snapshot-at` the service is serialized, dropped, and restored
//!    from the snapshot mid-run.
//!
//! The acceptance criteria are exact, not statistical: the restored
//! service must (a) pass the ledger conservation audit, (b) preserve
//! every open guarantee span across the restore, and (c) finish with a
//! digest **byte-identical** to the uninterrupted reference run — at
//! any `--jobs N`.
//!
//! Reported per placement policy: admission outcomes, applied resizes
//! (`ok+denied`) and p99 resize decision latency, drained VM count and
//! the time for drained tenants to re-reach `Guaranteed` on their new
//! pairs, guarantee violation milliseconds (against the hose in force,
//! `Cell::bulk_bins`) overall and inside the restore window, mean
//! ledger utilization, and the service digest.
//!
//! All snapshot/restore progress goes to **stderr**: stdout is
//! byte-identical whether the mid-run restore happens or not
//! (`--snapshot-at 0` disables it).
//!
//! [`drill`] is public: the umbrella tests run it on the 8-host testbed
//! with their own requests, horizon and script, or with none (a plan).

use super::cell::{
    admission, assert_bulk_viol, cell_trace, demand_for, requests, Cell, CellEnd, Planned,
    Timeline, GUAR_FRACTION,
};
use super::common::{emit, f, us, Scale};
use super::fig17::build_topo;
use crate::executor::{run_jobs, Job};
use fabric::{AdmissionCfg, Plan, Policy, TenantReq};
use fabricd::{Applied, FabricOp, FabricReply, FabricService};
use metrics::table::Table;
use metrics::Percentiles;
use netsim::{Time, MS, US};
use std::ops::Range;
use std::sync::Arc;
use topology::Topo;
use ufab::UfabConfig;
use workloads::churn::DemandKind;

/// Operator-script presets accepted by `--ops-script`.
pub const PRESETS: &[&str] = &["none", "resize", "drain", "mixed"];

/// Violation bins inspected around the restore instant (1 ms bins).
const RESTORE_WINDOW_MS: u64 = 5;

/// Arrival window of an ops run in ms: shorter than `repro churn`'s 68.
pub(super) const WINDOW_MS: u64 = 48;
/// Tenant arrivals per second at 512 servers. Lighter than `repro
/// churn`'s 22 k: the scenario probes operator ops on a
/// loaded-but-conformant fabric, not admission pressure.
const PER_SEC_AT_512: f64 = 8_000.0;
/// Bulk tenants offer 15 % above their planned guarantee so delivered
/// rate sits clearly over the violation threshold on a conformant
/// fabric — the violation metric then isolates fabric misbehavior, not
/// offered-load shortfall. Their demand does not follow a resize, so it
/// must clear the threshold of the largest hose a script can put in
/// force, a grow's.
const BULK_FACTOR: f64 = 1.15;
const _: () = assert!(BULK_FACTOR / GROW > GUAR_FRACTION);
/// A scripted resize grows a tenant's hose by `GROW` or shrinks it by
/// `SHRINK`; a tenant's rounds alternate, so no hose exceeds one grow.
const GROW: f64 = 1.25;
const SHRINK: f64 = 0.75;

/// One scripted operator action; targets are selected from live service
/// state when the instant is reached.
#[derive(Clone, Copy)]
pub enum ScriptEv {
    /// Grow/shrink up to 4 active tenants in id order: round *r* grows
    /// tenant *i* ×[`GROW`] when *i + r* is even, else shrinks it
    /// ×[`SHRINK`].
    Resize,
    /// Cordon-and-drain the first host of the first active tenant.
    DrainHost,
    /// Cordon core switch 0 (spread-table rebuild around it).
    CordonCore,
    /// Lift the core cordon (rebuild back).
    UncordonCore,
}

/// The operator timeline for a preset, `(instant, action)` sorted.
pub(super) fn script_events(script: &str, tl: &Timeline) -> Vec<(Time, ScriptEv)> {
    match script {
        "none" => vec![],
        "resize" => vec![(tl.at(35), ScriptEv::Resize), (tl.at(55), ScriptEv::Resize)],
        "drain" => vec![(tl.at(70), ScriptEv::DrainHost)],
        "mixed" => vec![
            (tl.at(25), ScriptEv::CordonCore),
            (tl.at(35), ScriptEv::Resize),
            (tl.at(55), ScriptEv::Resize),
            (tl.at(70), ScriptEv::DrainHost),
            (tl.at(85), ScriptEv::UncordonCore),
        ],
        other => panic!("unknown ops script preset {other:?}"),
    }
}

/// Select the concrete ops for a script action from service state.
fn select_ops(ev: ScriptEv, svc: &FabricService, resize_round: &mut u32) -> Vec<FabricOp> {
    match ev {
        ScriptEv::Resize => {
            // Up to 4 active tenants in id order; alternate grow/shrink
            // so both the delta-commit and the release path run.
            let round = *resize_round;
            *resize_round += 1;
            svc.tenants()
                .iter()
                .enumerate()
                .filter(|(_, t)| t.is_active())
                .take(4)
                .map(|(i, t)| {
                    let even = (i as u32 + round) % 2 == 0;
                    let factor = if even { GROW } else { SHRINK };
                    FabricOp::Resize {
                        tenant: i as u32,
                        new_tokens_per_vm: t.tokens_per_vm * factor,
                    }
                })
                .collect()
        }
        ScriptEv::DrainHost => svc
            .tenants()
            .iter()
            .find(|t| t.is_active())
            .map(|t| {
                vec![FabricOp::Drain {
                    node: t.hosts[0].raw(),
                }]
            })
            .unwrap_or_default(),
        ScriptEv::CordonCore => vec![FabricOp::Cordon {
            node: svc.topo().cores[0].raw(),
        }],
        ScriptEv::UncordonCore => vec![FabricOp::Uncordon {
            node: svc.topo().cores[0].raw(),
        }],
    }
}

/// Output of the uninterrupted reference pre-pass.
struct Prepass {
    /// The recorded op stream: `(submit instant, op)` in order. The
    /// cell replays exactly this — operator targets are already
    /// resolved.
    ops: Vec<(Time, FabricOp)>,
    /// Full applied stream of the uninterrupted run.
    applied: Vec<Applied>,
    /// Reference determinism digest.
    digest: u64,
}

/// Play the requests + operator script into a fresh service up to
/// `horizon`, recording the resolved op stream and the reference digest.
fn prepass(
    topo: Arc<Topo>,
    acfg: AdmissionCfg,
    reqs: &[TenantReq],
    script: &[(Time, ScriptEv)],
    horizon: Time,
) -> Prepass {
    let mut svc = FabricService::new(topo, acfg);
    let mut ops: Vec<(Time, FabricOp)> = Vec::with_capacity(reqs.len() + 8);
    let mut applied: Vec<Applied> = Vec::new();
    let mut resize_round = 0u32;
    let mut arrivals = reqs.iter().peekable();
    let mut script = script.iter().peekable();
    loop {
        // Arrivals win ties so the script sees the newest state.
        let due = script.peek().map_or(Time::MAX, |s| s.0);
        while let Some(r) = arrivals.next_if(|r| r.arrival <= due) {
            let op = FabricOp::Admit {
                name: r.name.clone(),
                n_vms: r.n_vms,
                tokens_per_vm: r.tokens_per_vm,
                lifetime: r.lifetime,
            };
            svc.submit(r.arrival, op.clone());
            ops.push((r.arrival, op));
        }
        let Some(&(t, ev)) = script.next() else {
            break;
        };
        // Catch the service up to the instant, then pick targets from
        // its state — deterministically, so the recorded stream is a
        // pure function of (requests, script, policy).
        applied.extend(svc.advance(t));
        for op in select_ops(ev, &svc, &mut resize_round) {
            svc.submit(t, op.clone());
            ops.push((t, op));
        }
    }
    applied.extend(svc.advance(horizon));
    svc.audit().expect("reference run fails conservation audit");
    Prepass {
        ops,
        applied,
        digest: svc.digest(),
    }
}

/// The `repro ops` requests: the arrival trace over `tl` on the
/// `--servers` (default 512) FatTree, request *i* named `ops-<i>`.
pub(super) fn ops_requests(scale: &Scale, tl: &Timeline) -> (Topo, Vec<(TenantReq, DemandKind)>) {
    let topo = build_topo(scale.servers.unwrap_or(512), false);
    let trace = cell_trace(scale.seed, tl, topo.hosts.len(), PER_SEC_AT_512);
    let kinds = trace.iter().map(|a| a.kind);
    let reqs = requests(&trace, "ops").into_iter().zip(kinds).collect();
    (topo, reqs)
}

/// The drill's cell, and the digest of the uninterrupted reference
/// pre-pass whose op stream it replays (`None` for planned admissions,
/// which have no pre-pass).
pub(super) fn build_cell(
    scale: &Scale,
    policy: Policy,
    topo: Topo,
    reqs: Vec<(TenantReq, DemandKind)>,
    tl: Timeline,
    script: Option<Vec<(Time, ScriptEv)>>,
) -> (Cell, Option<u64>) {
    let acfg = admission(policy);
    let (reqs, kinds): (Vec<_>, Vec<_>) = reqs.into_iter().unzip();
    let (planned, reference) = match script {
        None => (Planned::plan(tl, topo, &reqs, kinds, acfg), None),
        Some(script) => {
            // The pre-pass's service only reads the topology the
            // simulator then takes.
            let topo = Arc::new(topo);
            let pre = prepass(Arc::clone(&topo), acfg, &reqs, &script, tl.horizon);
            let planned = Planned::from_ops(tl, topo, &reqs, kinds, acfg, pre.ops, &pre.applied);
            (planned, Some(pre.digest))
        }
    };
    // Resizes and drains reach the data plane in `Cell::step`.
    let cell = Cell::build(
        scale,
        planned,
        UfabConfig::default(),
        false,
        |_, kind, guar| demand_for(kind, guar, BULK_FACTOR),
    );
    (cell, reference)
}

/// What one drilled cell reports.
pub struct Drill {
    /// The cell's admissions: its plan, or the one its op stream applied.
    pub plan: Plan,
    /// The service at the horizon: the restored one, if the restore fired.
    pub svc: FabricService,
    /// Open guarantee spans carried across the restore, if it fired.
    pub restored_spans: Option<usize>,
    /// 1 ms bins of bulk tenants inside a guarantee span ([`Cell::bulk_bins`]).
    pub guaranteed_ms: u64,
    /// Those of them below the cell's threshold.
    pub viol_ms: u64,
    /// The longest a drained tenant took from the drain to `Guaranteed`,
    /// or to its departure if it left still `Qualifying` (a lower bound).
    pub requal: Option<Time>,
    restore_viol_ms: u64,
    drain_failed: bool,
    row: [String; 11],
    end: CellEnd,
}

/// Run one cell through the operator drill: `reqs` of their demand
/// classes (bulk ones offer 1.15× their guarantee) on `topo`, placed by
/// `policy`, arriving over `window`, run to `horizon`. The cell replays
/// the op stream of `script`'s (sorted by instant) uninterrupted
/// pre-pass and must end on its digest; `None` commits the requests'
/// plan instead. At `snap_at` the service is snapshotted, dropped and
/// restored with no open guarantee span changed.
pub fn drill(
    scale: Scale,
    policy: Policy,
    topo: Topo,
    reqs: Vec<(TenantReq, DemandKind)>,
    window: Range<Time>,
    horizon: Time,
    script: Option<Vec<(Time, ScriptEv)>>,
    snap_at: Option<Time>,
) -> Drill {
    let tl = Timeline::span(window, horizon);
    let (mut cell, reference) = build_cell(&scale, policy, topo, reqs, tl, script);
    let mut resize_lat = Percentiles::new();
    let (mut resized_ok, mut resized_denied) = (0u32, 0u32);
    let (mut drained, mut drain_failed, mut restored_spans) = (vec![], false, None);
    let (mut util_sum, mut util_n) = (0.0, 0u64);
    // The cell replays the recorded op stream (or commits its plan) in
    // lock-step with the simulator; snapshot/kill/restore the service at
    // `snap_at`.
    while let Some(applied) = cell.step() {
        let now = cell.now;
        for ap in applied {
            match ap.reply {
                FabricReply::Resized { .. } => {
                    resized_ok += 1;
                    resize_lat.add((ap.applied - ap.submitted) as f64);
                }
                FabricReply::ResizeDenied { .. } => {
                    resized_denied += 1;
                    resize_lat.add((ap.applied - ap.submitted) as f64);
                }
                FabricReply::Drained { moved, .. } => {
                    drained.extend(moved.iter().map(|m| (ap.applied, m.0 as usize)));
                }
                FabricReply::DrainFailed { detail, .. } => {
                    drain_failed = true;
                    eprintln!("[ops] drain failed: {detail}");
                }
                _ => {}
            }
        }
        // Operator restart drill: serialize, kill, restore.
        if snap_at.is_some_and(|at| restored_spans.is_none() && now >= at) {
            let open_spans: Vec<(u32, Time)> = cell
                .svc
                .tenants()
                .iter()
                .enumerate()
                .filter_map(|(i, t)| t.guaranteed_at.map(|g| (i as u32, g)))
                .collect();
            let snap = cell.svc.snapshot();
            eprintln!(
                "[ops {}] snapshot at {} µs: {} bytes, digest {:016x}",
                policy.label(),
                now / US,
                snap.len(),
                cell.svc.digest()
            );
            cell.svc = FabricService::restore(Arc::clone(&cell.r.topo), &snap)
                .expect("mid-run snapshot must restore");
            cell.svc.set_obs(cell.r.obs.clone());
            // No guarantee blinks across the restart: every open span
            // survives with its original start instant.
            for &(i, g) in &open_spans {
                assert_eq!(
                    cell.svc.tenants()[i as usize].guaranteed_at,
                    Some(g),
                    "restore interrupted tenant {i}'s open guarantee span"
                );
            }
            restored_spans = Some(open_spans.len());
            eprintln!("[ops {}] restored, audit clean", policy.label());
        }
        cell.audit();
        if cell.tl.in_window(now) {
            util_sum += cell.svc.ledger().utilization();
            util_n += 1;
        }
    }
    cell.svc
        .audit()
        .expect("inline service fails conservation audit");
    if let Some(reference) = reference {
        assert_eq!(
            cell.svc.digest(),
            reference,
            "inline digest diverged from the uninterrupted reference run"
        );
    }
    let end = cell.end(&scale, &format!("ops:{}", policy.label()));
    let requal = (drained.iter())
        .map(|&(d, i)| {
            let t = &cell.svc.tenants()[i];
            let span = t.guaranteed_spans.iter().find(|s| s.0 >= d);
            span.map_or(t.depart_at, |s| s.0) - d
        })
        .max();

    // Violation accounting over every guarantee span (`end` found them
    // all closed), against the hose in force. The restore window is a
    // fixed time range, evaluated whether or not the restore drill
    // actually ran there — a correct restore must leave the data plane
    // untouched, so the count is identical either way (and stdout stays
    // byte-identical across `--snapshot-at`).
    let window_at = snap_at.unwrap_or_else(|| cell.tl.at(50));
    let restore_bins = window_at / MS..=window_at / MS + RESTORE_WINDOW_MS;
    let (mut viol_ms, mut guaranteed_ms, mut restore_viol_ms) = (0u64, 0u64, 0u64);
    cell.bulk_bins(&cell.r.rec.lock().unwrap(), |_, b, violated| {
        guaranteed_ms += 1;
        if violated {
            viol_ms += 1;
            restore_viol_ms += restore_bins.contains(&(b as u64)) as u64;
        }
    });
    let row = [
        policy.label().to_string(),
        end.admitted.to_string(),
        cell.svc.n_rejected().to_string(),
        format!("{resized_ok}+{resized_denied}"),
        us(resize_lat.percentile(99.0).unwrap_or(0.0)),
        drained.len().to_string(),
        requal.map_or_else(|| "-".into(), |n| f(n as f64 / 1e6, 1)),
        viol_ms.to_string(),
        restore_viol_ms.to_string(),
        f(100.0 * util_sum / util_n.max(1) as f64, 1),
        format!("{:016x}", cell.svc.digest()),
    ];
    Drill {
        plan: cell.plan,
        svc: cell.svc,
        restored_spans,
        guaranteed_ms,
        viol_ms,
        requal,
        restore_viol_ms,
        drain_failed,
        row,
        end,
    }
}

/// The `repro ops` cell of `policy` under the `script` preset.
fn run_cell(scale: Scale, policy: Policy, script: &str, snap_at: Option<Time>) -> Drill {
    let tl = Timeline::new(scale.quick, WINDOW_MS);
    let (topo, reqs) = ops_requests(&scale, &tl);
    let (w, ev) = (
        tl.first_arrival..tl.last_arrival,
        script_events(script, &tl),
    );
    drill(scale, policy, topo, reqs, w, tl.horizon, Some(ev), snap_at)
}

/// Run the ops scenario: both placement policies, in parallel cells.
/// `snap_at_us` is the snapshot/kill/restore instant in µs of simulated
/// time — `None` picks mid-window, `Some(0)` disables the drill.
pub fn run(scale: Scale, script: &str, snap_at_us: Option<u64>) -> Table {
    assert!(
        PRESETS.contains(&script),
        "unknown ops script preset {script:?} (have {PRESETS:?})"
    );
    let tl = Timeline::new(scale.quick, WINDOW_MS);
    let snap_at = match snap_at_us {
        Some(0) => None,
        Some(us_in) => Some(us_in * US),
        None => Some(tl.at(50)),
    };
    let cells: Vec<Job<Drill>> = [Policy::FirstFit, Policy::LoadSpread]
        .into_iter()
        .map(|p| {
            let script = script.to_string();
            Job::new(format!("ops:{}", p.label()), move || {
                run_cell(scale, p, &script, snap_at)
            })
        })
        .collect();
    let mut table = Table::new([
        "policy",
        "admit",
        "reject",
        "resized",
        "rsz_p99_us",
        "drained_vms",
        "requal_ms",
        "viol_ms",
        "rst_viol_ms",
        "util_pct",
        "digest",
    ]);
    for out in run_jobs(cells) {
        table.row(out.row.clone());
        if !out.end.epilogue.is_empty() {
            print!("{}", out.end.epilogue);
        }
        // Whether the trace over-subscribes a class is a property of
        // the seed, not an invariant of the service.
        if out.svc.n_rejected() == 0 && out.end.admitted >= 50 {
            eprintln!(
                "[note] {}: all {} requests admitted — this seed's trace never \
                 over-subscribes a class, so the reject column is empty",
                out.row[0], out.end.admitted
            );
        }
        if script == "drain" || script == "mixed" {
            assert!(
                !out.drain_failed,
                "the scripted drain must migrate, not roll back, at this load"
            );
        }
        if out.restored_spans.is_some() {
            assert_eq!(
                out.restore_viol_ms, 0,
                "guaranteed tenants violated inside the restore window"
            );
        }
        assert_bulk_viol(out.viol_ms, out.guaranteed_ms);
    }
    emit(
        "ops_fabricd",
        "Ops: fabricd resize/drain/restore drill at 512-server scale",
        &table,
    );
    table
}

/// `ufabbench` input (`ctl_plane`, and the `fabricd.resize.ops_per_s`
/// probe): build a populated 64-server service and run `iters` resize
/// round-trips, returning ops applied.
pub fn resize_bench(seed: u64, iters: usize) -> usize {
    let (mut svc, mut now) = populated_service(seed);
    let n = svc.tenants().len() as u32;
    let mut applied = 0;
    for k in 0..iters {
        let tenant = (k as u32) % n;
        let tokens = svc.tenants()[tenant as usize].tokens_per_vm;
        let factor = if k % 2 == 0 { 1.25 } else { 0.8 };
        now += 25 * US;
        svc.submit(
            now,
            FabricOp::Resize {
                tenant,
                new_tokens_per_vm: tokens * factor,
            },
        );
        applied += svc.advance(now + 25 * US).len();
    }
    svc.audit().expect("bench service fails audit");
    applied
}

/// Snapshot serialization on a populated service, `iters` times
/// (`ufabbench`: `ctl_plane`, `fabricd.snapshot.per_s`). Returns total
/// snapshot bytes rendered.
pub fn snapshot_bench(seed: u64, iters: usize) -> usize {
    let (svc, _) = populated_service(seed);
    let mut bytes = 0;
    for _ in 0..iters {
        bytes += svc.snapshot().len();
    }
    bytes
}

/// Snapshot restore (parse + ledger/placer rebuild + conservation
/// audit) on a populated service, `iters` times (`ufabbench`:
/// `ctl_plane`, `fabricd.restore.per_s`). Returns tenants restored
/// across all iterations.
pub fn restore_bench(seed: u64, iters: usize) -> usize {
    let (svc, _) = populated_service(seed);
    let topo = Arc::new(build_topo(64, false));
    let snap = svc.snapshot();
    let mut tenants = 0;
    for _ in 0..iters {
        let back = FabricService::restore(topo.clone(), &snap).expect("bench snapshot restores");
        assert_eq!(back.digest(), svc.digest());
        tenants += back.tenants().len();
    }
    tenants
}

/// A 64-server service carrying a settled tenant population, plus the
/// clock it has advanced to.
fn populated_service(seed: u64) -> (FabricService, Time) {
    let tl = Timeline::new(true, WINDOW_MS);
    let topo = Arc::new(build_topo(64, false));
    let trace = cell_trace(seed, &tl, topo.hosts.len(), PER_SEC_AT_512);
    let mut svc = FabricService::new(topo, AdmissionCfg::default());
    // Long-lived population: admit the first half of the trace with
    // lifetimes past the bench horizon so resizes hit live tenants.
    for (i, a) in trace.iter().take(trace.len() / 2).enumerate() {
        svc.submit(
            a.arrival,
            FabricOp::Admit {
                name: format!("bench-{i}"),
                n_vms: a.n_vms,
                tokens_per_vm: a.tokens_per_vm,
                lifetime: 10 * tl.horizon,
            },
        );
    }
    let now = tl.at(50);
    svc.advance(now);
    assert!(!svc.tenants().is_empty(), "bench service admitted nothing");
    (svc, now)
}

#[cfg(test)]
mod tests {
    use super::super::cell::hook_scale;
    use super::*;

    /// `resize_bench`'s ×1.25/×0.8 pattern leaves the live ledger and
    /// placer equal to a rebuild from the tenant records (a restore) at
    /// every checkpoint: resizes leave no trace beyond the tenants'
    /// current tokens.
    #[test]
    fn resizes_leave_the_ledger_equal_to_a_rebuild_from_the_tenants() {
        let (mut svc, mut now) = populated_service(1);
        let topo = Arc::new(build_topo(64, false));
        let n = svc.tenants().len() as u32;
        for k in 0..2_000 {
            let tenant = (k as u32) % n;
            let tokens = svc.tenants()[tenant as usize].tokens_per_vm;
            let factor = if k % 2 == 0 { 1.25 } else { 0.8 };
            now += 25 * US;
            let new_tokens_per_vm = tokens * factor;
            svc.submit(
                now,
                FabricOp::Resize {
                    tenant,
                    new_tokens_per_vm,
                },
            );
            svc.advance(now + 25 * US);
            if k % 100 == 99 {
                let back = FabricService::restore(topo.clone(), &svc.snapshot()).unwrap();
                assert!(
                    back.ledger() == svc.ledger(),
                    "ledger drift after {} resizes",
                    k + 1
                );
                assert!(
                    back.placer() == svc.placer(),
                    "placer drift after {} resizes",
                    k + 1
                );
            }
        }
    }

    /// The cells of the `ops_64_seed2` golden (mixed script, restore
    /// drill mid-window). The service digests are the golden's; the
    /// simulator digests and event counts are the ones `--trace`
    /// prints, which no golden holds.
    #[test]
    fn ops_cells_keep_their_service_and_simulator_digests() {
        let scale = hook_scale(2, Some(64), false);
        let snap_at = Some(Timeline::new(true, WINDOW_MS).at(50));
        for (policy, svc, sim, events) in [
            (
                Policy::FirstFit,
                "0f16cdb2132a4138",
                "7b66eb9824fdbbdf",
                1_219_803,
            ),
            (
                Policy::LoadSpread,
                "8c5c849e296efeee",
                "302b86aa1d8f900c",
                1_619_739,
            ),
        ] {
            let out = run_cell(scale, policy, "mixed", snap_at);
            assert!(out.restored_spans.is_some(), "{}", policy.label());
            assert_eq!(
                (
                    out.row[10].as_str(),
                    out.end.digest.as_str(),
                    out.end.events
                ),
                (svc, sim, events),
                "{}",
                policy.label()
            );
        }
    }
}
