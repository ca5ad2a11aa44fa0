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

use super::cell::{assert_bulk_viol, demand_for, hook_scale, requests, Cell, CellEnd, Planned};
use super::common::{emit, f, us, Scale};
use super::fig17::build_topo;
use crate::executor::{run_jobs, Job};
use fabric::{AdmissionCfg, Policy};
use metrics::table::Table;
use metrics::Percentiles;
use netsim::{Time, MS, US};
use ufab::UfabConfig;
use workloads::churn::{gen_trace, ChurnCfg, DemandKind};

/// Everything a policy cell reports back for asserts and the table.
struct CellOut {
    row: [String; 9],
    end: CellEnd,
    arrivals: usize,
    rejected: usize,
    overclaim_admitted: usize,
    viol_ms: u64,
    guaranteed_ms: u64,
}

fn run_cell(scale: Scale, policy: Policy) -> CellOut {
    // 1) Trace + admission plan (pure control plane, pre-simulation).
    let planned = Planned::new(&scale, policy, 512);

    // 2) The cell, with one core switch dying mid-window. Bulk tenants
    //    are the predictability probe: they offer exactly the guarantee.
    //    Shortened idle sweep (paper default 10 s): departed tenants stop
    //    sending for good, so their switch registrations must be
    //    reclaimed inside the run — and registrations orphaned by the
    //    core-switch outage (a lost finish probe) likewise.
    let ucfg = UfabConfig {
        core_cleanup_period: 5 * MS,
        ..UfabConfig::default()
    };
    let mut cell = Cell::build(&scale, planned, ucfg, true, |_, kind, guar| {
        demand_for(kind, guar, 1.0)
    });

    // 3) Run loop, sampling ledger utilisation over the arrival window.
    let mut util_sum = 0.0;
    let mut util_n = 0u64;
    while cell.step().is_some() {
        cell.audit();
        if cell.tl.in_window(cell.now) {
            util_sum += cell.svc.ledger().utilization();
            util_n += 1;
        }
    }

    // 4) Metrics.
    let overclaim_admitted = cell
        .plan
        .admitted
        .iter()
        .filter(|p| cell.kinds[p.req] == DemandKind::Overclaim)
        .count();
    let mut adm = Percentiles::new();
    for &l in &cell.plan.decision_latency_ns {
        adm.add(l as f64);
    }
    let mut ttg = Percentiles::new();
    for t in cell.svc.tenants() {
        if let Some(x) = t.ttg_ns() {
            ttg.add(x as f64);
        }
    }
    let mut viol_ms = 0u64;
    let mut guaranteed_ms = 0u64;
    cell.bulk_bins(&cell.r.rec.lock().unwrap(), |_, _, violated| {
        guaranteed_ms += 1;
        viol_ms += violated as u64;
    });

    let end = cell.end(&scale, &format!("churn:{}", policy.label()));
    let rejected = cell.plan.rejected.len();
    CellOut {
        row: [
            policy.label().to_string(),
            end.admitted.to_string(),
            format!("{rejected} ({:.1}%)", cell.plan.rejection_rate() * 100.0),
            us(adm.percentile(99.0).unwrap_or(0.0)),
            us(ttg.percentile(99.0).unwrap_or(0.0)),
            viol_ms.to_string(),
            f(100.0 * util_sum / util_n.max(1) as f64, 1),
            cell.requalified.to_string(),
            end.digest.clone(),
        ],
        end,
        arrivals: cell.kinds.len(),
        rejected,
        overclaim_admitted,
        viol_ms,
        guaranteed_ms,
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
        if !out.end.epilogue.is_empty() {
            print!("{}", out.end.epilogue);
        }
        assert_eq!(
            out.overclaim_admitted, 0,
            "an over-subscribed tenant slipped through admission"
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
                out.end.admitted >= 1000,
                "expected >= 1000 admissions at paper scale, got {} of {}",
                out.end.admitted,
                out.arrivals
            );
        }
        assert_bulk_viol(out.viol_ms, out.guaranteed_ms);
    }
    emit(
        "churn_fabric",
        "Churn: tenant lifecycle at 512-server scale",
        &table,
    );
    table
}

/// Small fixed cell (first-fit, quick timeline) at any
/// [`super::fig17::FABRIC_SIZES`] server count: `ufabbench`'s `churn_64`
/// and `churn_512` workloads, and the enforcement-off arm of
/// `bench/tests/guards.rs`. Returns simulator events processed.
pub fn bench_cell_at(seed: u64, servers: usize) -> u64 {
    let out = run_cell(hook_scale(seed, Some(servers), false), Policy::FirstFit);
    out.end.events
}

/// Test hook for digest-identity checks: the bench cell with the
/// fault-aware invariant suite armed (the timeline kills a core switch
/// mid-run). Returns `(events, digest, sim_invariant_violations)`.
pub fn bench_cell_checked(seed: u64, servers: usize) -> (u64, String, usize) {
    let out = run_cell(hook_scale(seed, Some(servers), true), Policy::FirstFit);
    (out.end.events, out.end.digest, out.end.sim_violations)
}

/// Admission-plan throughput input for `ufabbench` (`ctl_plane`, and
/// the `fabric.plan.decisions_per_s` probe): generate `target` requests
/// on the paper-512 fabric and plan them, returning the number of
/// decisions taken.
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
    let reqs = requests(&gen_trace(&cfg), "churn");
    let plan = fabric::plan(&topo, &AdmissionCfg::default(), &reqs);
    plan.admitted.len() + plan.rejected.len()
}
