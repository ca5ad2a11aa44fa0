//! `repro dse` — cost-aware design-space exploration of μFAB-C
//! hardware knobs (ROADMAP item 5, Kugelblitz-style).
//!
//! Each grid point of [`dse::GridKind`] is one fully simulated
//! churn-style cell (the provisioning workload of `repro churn`, minus
//! the chaos fault): tenants arrive, are admitted against the capacity
//! ledger, qualify through μFAB-E, send real traffic through μFAB-C
//! switches built with the point's hardware knobs, and depart. The cell
//! measures what the knobs *do* —
//!
//! * **fp_pct** — Bloom false-positive omission rate (§3.6): omitted
//!   registrations / registration attempts, summed over every switch;
//! * **clamps / truncs** — INT read-outs saturated by the register
//!   width, probes forwarded unstamped past the INT hop depth;
//! * **viol_ms** — guarantee-violation milliseconds of bulk tenants
//!   inside their `Guaranteed` spans (the predictability headline);
//! * **ttg_p99_us** — p99 time-to-guarantee (horizon sentinel when no
//!   tenant qualifies: a switch that cannot carry telemetry must pay
//!   for it on this axis, not hide);
//!
//! — while `dse::cost_of` prices the point against the Table 4 Tofino
//! operating point. The non-dominated subset of (cost, fp_pct,
//! viol_ms, ttg_p99_us) is the emitted Pareto front: "what switch
//! would you buy?" as a CSV.
//!
//! Every cell is an executor job, so the sweep parallelises under
//! `--jobs N` / `--shards N` with byte-identical output; the fabric
//! invariant suite (ledger conservation, qualifying-stagger bound)
//! always runs, and `--check-invariants` arms the simulator suite.

use super::churn::{churn_cfg, demand_for, step_lifecycle, timeline, GUAR_FRACTION, STEP};
use super::common::{emit, f, us, Scale};
use super::fig17::build_topo;
use crate::executor::{run_jobs, Job};
use crate::harness::{Runner, SystemKind, SLICE};
use dse::{cost_of, pareto_front, CostBreakdown, KnobPoint};
use fabric::{AdmissionCfg, Policy, TenantState};
use fabricd::{FabricService, LedgerConservation, QualifyingStagger};
use metrics::table::Table;
use metrics::Percentiles;
use netsim::{NodeId, PairId, MS};
use obs::InvariantSuite;
use std::sync::Arc;
use ufab::{FabricSpec, UfabConfig, UfabCore};
use workloads::churn::{gen_trace, ChurnDriver, DemandKind, TenantTraffic};
use workloads::driver::Driver;

/// Default fabric for a sweep cell: the 64-server FatTree (2 pods, so
/// `--shards` has a pod partition to spread). The sweep runs one cell
/// per grid point; keeping each cell small is what makes a ~dozen-point
/// grid CI-sized.
const SWEEP_SERVERS: usize = 64;

/// Everything one knob-point cell reports back.
struct PointOut {
    label: String,
    cost: CostBreakdown,
    fp_pct: f64,
    registrations: u64,
    clamps: u64,
    truncs: u64,
    viol_ms: u64,
    ttg_p99_ns: f64,
    admitted: usize,
    reclaimed: usize,
    qualified: usize,
    events: u64,
    digest: String,
    epilogue: String,
    fabric_violations: usize,
    fabric_report: String,
}

/// Simulate one knob point on the churn-style cell.
fn run_point(scale: Scale, point: KnobPoint) -> PointOut {
    let tl = timeline(scale.quick);
    let servers = scale.servers.unwrap_or(SWEEP_SERVERS);
    let mut topo = build_topo(servers, false);
    topo.enable_pod_partition();
    let n_hosts = topo.hosts.len();

    // Control plane: trace + admission plan (identical at every point —
    // the knobs only change the data plane, so outcome deltas between
    // points are attributable to the hardware alone).
    let trace = gen_trace(&churn_cfg(&scale, &tl, n_hosts));
    let acfg = AdmissionCfg {
        policy: Policy::FirstFit,
        ..AdmissionCfg::default()
    };
    let reqs: Vec<fabric::TenantReq> = trace
        .iter()
        .enumerate()
        .map(|(i, a)| fabric::TenantReq {
            name: format!("dse-{i}"),
            n_vms: a.n_vms,
            tokens_per_vm: a.tokens_per_vm,
            arrival: a.arrival,
            lifetime: a.lifetime,
        })
        .collect();
    let plan = fabric::plan(&topo, &acfg, &reqs);

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
    // Data plane: thread the knob point through UfabConfig — the
    // harness builds every μFAB-C from CoreHwCfg::from(&cfg), so
    // register width, Bloom geometry, INT depth and cleanup period all
    // take effect behaviourally.
    let mut ucfg = UfabConfig::default();
    point.apply(&mut ucfg);
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
        // Standard suite (no fault in this cell). It deliberately
        // excludes the stale-registration sweep check, whose grace is
        // itself a function of the cleanup knob under sweep.
        r.enable_invariants(MS / 4);
    }
    // The one tenant lifecycle. Plan order is `add_tenant` order, so the
    // service's tenant ids are the `FabricSpec` tenant ids.
    let mut svc = FabricService::new(Arc::clone(&r.topo), acfg);
    svc.set_obs(r.obs.clone());

    let mut fsuite: InvariantSuite<FabricService> = InvariantSuite::new(MS);
    fsuite.register(Box::new(LedgerConservation));
    fsuite.register(Box::new(QualifyingStagger::new(
        super::churn::STAGGER_BOUND,
    )));

    let mut driver = ChurnDriver::new(programs, scale.seed ^ 0x5eed, 0);

    let mut baselines: Vec<Vec<u64>> = vec![Vec::new(); plan.admitted.len()];
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
        for (id, _) in svc.qualifying() {
            let i = id as usize;
            if r.pairs_qualified(&tenant_pairs[i], &baselines[i]) {
                svc.note_qualified(id, now);
            }
        }
        if fsuite.due(now) {
            fsuite.run(&svc, now, &r.obs);
        }
    }

    // Outcomes. Switch-side accuracy counters, summed over the fabric.
    let mut fp = 0u64;
    let mut registrations = 0u64;
    let mut clamps = 0u64;
    let mut truncs = 0u64;
    for &s in r
        .topo
        .tors
        .iter()
        .chain(r.topo.aggs.iter())
        .chain(r.topo.cores.iter())
    {
        if let Some(c) = r.sim.try_switch_agent::<UfabCore>(s) {
            fp += c.stats.fp_omissions;
            registrations += c.stats.registrations;
            clamps += c.stats.reg_clamps;
            truncs += c.stats.int_truncations;
        }
    }
    let fp_pct = 100.0 * fp as f64 / (fp + registrations).max(1) as f64;

    let mut ttg = Percentiles::new();
    let mut qualified = 0usize;
    for t in svc.tenants() {
        if let Some(x) = t.ttg_ns {
            ttg.add(x as f64);
            qualified += 1;
        }
    }
    // Horizon sentinel: a configuration in which nothing qualifies must
    // score worst-case convergence, not a vacuous 0.
    let ttg_p99_ns = ttg.percentile(99.0).unwrap_or(tl.horizon as f64);

    let rec = r.merged_recorder();
    let mut viol_ms = 0u64;
    for (i, t) in svc.tenants().iter().enumerate() {
        if trace[plan.admitted[i].req].kind != DemandKind::Bulk {
            continue;
        }
        let tenant_guar =
            GUAR_FRACTION * t.tokens_per_vm * acfg.bu_bps * tenant_pairs[i].len() as f64;
        let series = rec.tenant_rates.get(&(i as u32));
        for &(enter, exit) in &t.guaranteed_spans {
            let b0 = ((enter + MS) / MS + 1) as usize;
            let b1 = (exit / MS) as usize;
            for b in b0..b1 {
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
    let label = point.label();
    let epilogue = super::common::obs_epilogue(&scale, &r, &format!("dse:{label}"));
    PointOut {
        label,
        cost: cost_of(&point),
        fp_pct,
        registrations,
        clamps,
        truncs,
        viol_ms,
        ttg_p99_ns,
        admitted: plan.admitted.len(),
        reclaimed: svc.count(TenantState::Reclaimed),
        qualified,
        events: r.sim.stats().events,
        digest,
        epilogue,
        fabric_violations: fsuite.violations().len(),
        fabric_report: fsuite.report(),
    }
}

/// Everything a sweep produces, for `run`, the determinism test, and
/// `simbench dse`.
pub struct SweepOut {
    /// Per-point measurement table (one row per grid point, grid order).
    pub grid: Table,
    /// Non-dominated subset over (cost, fp_pct, viol_ms, ttg_p99_us).
    pub pareto: Table,
    /// Point labels, grid order (row key of `grid`).
    pub labels: Vec<String>,
    /// Measured FP omission percentage per point, grid order.
    pub fp_pct: Vec<f64>,
    /// Guarantee-violation ms per point, grid order.
    pub viol_ms: Vec<u64>,
    /// Tenants that reached `Guaranteed` per point, grid order.
    pub qualified: Vec<usize>,
    /// Pareto-front size.
    pub front_size: usize,
    /// Total simulator events over all cells (bench metric).
    pub events: u64,
}

/// Sweep a set of knob points as parallel executor jobs and assemble
/// the measurement + Pareto tables. Output is a pure function of
/// `(scale, points)`: jobs merge in submission order and the front is
/// sorted by objective vector, so stdout and CSVs are byte-identical
/// at any `--jobs` / `--shards` value.
pub fn sweep(scale: Scale, points: &[KnobPoint]) -> SweepOut {
    let jobs: Vec<Job<PointOut>> = points
        .iter()
        .map(|&p| Job::new(format!("dse:{}", p.label()), move || run_point(scale, p)))
        .collect();
    let mut grid = Table::new([
        "point",
        "cost_units",
        "sram_pct",
        "hash_pct",
        "alu_pct",
        "phv_pct",
        "fp_pct",
        "clamps",
        "truncs",
        "viol_ms",
        "ttg_p99_us",
        "digest",
    ]);
    let outs = run_jobs(jobs);
    let mut events = 0u64;
    for out in &outs {
        if !out.epilogue.is_empty() {
            print!("{}", out.epilogue);
        }
        assert_eq!(
            out.fabric_violations, 0,
            "[{}] fabric invariants violated:\n{}",
            out.label, out.fabric_report
        );
        assert_eq!(
            out.reclaimed, out.admitted,
            "[{}] every admitted tenant must be reclaimed by the horizon",
            out.label
        );
        assert!(
            out.registrations > 0,
            "[{}] cell produced no switch registrations — nothing measured",
            out.label
        );
        events += out.events;
        grid.row([
            out.label.clone(),
            f(out.cost.cost_units, 2),
            f(out.cost.sram_pct, 2),
            f(out.cost.hash_bits_pct, 2),
            f(out.cost.stateful_alu_pct, 2),
            f(out.cost.phv_pct, 2),
            f(out.fp_pct, 2),
            out.clamps.to_string(),
            out.truncs.to_string(),
            out.viol_ms.to_string(),
            us(out.ttg_p99_ns),
            out.digest.clone(),
        ]);
    }
    // Pareto extraction over the cost × outcome vector (all minimised).
    let vectors: Vec<Vec<f64>> = outs
        .iter()
        .map(|o| {
            vec![
                o.cost.cost_units,
                o.fp_pct,
                o.viol_ms as f64,
                o.ttg_p99_ns / 1e3,
            ]
        })
        .collect();
    let front = pareto_front(&vectors);
    let mut pareto = Table::new(["point", "cost_units", "fp_pct", "viol_ms", "ttg_p99_us"]);
    for &i in &front {
        pareto.row([
            outs[i].label.clone(),
            f(outs[i].cost.cost_units, 2),
            f(outs[i].fp_pct, 2),
            outs[i].viol_ms.to_string(),
            us(outs[i].ttg_p99_ns),
        ]);
    }
    SweepOut {
        grid,
        pareto,
        labels: outs.iter().map(|o| o.label.clone()).collect(),
        fp_pct: outs.iter().map(|o| o.fp_pct).collect(),
        viol_ms: outs.iter().map(|o| o.viol_ms).collect(),
        qualified: outs.iter().map(|o| o.qualified).collect(),
        front_size: front.len(),
        events,
    }
}

/// Run the dse scenario for a grid and emit the two CSVs.
pub fn run(scale: Scale, grid: dse::GridKind) {
    let points = grid.points();
    let out = sweep(scale, &points);
    assert!(out.front_size > 0, "Pareto front must be non-empty");
    // Measurability: the sweep is pointless unless a knob moves an
    // accuracy outcome. The starved 64 B filter must show a strictly
    // higher measured FP omission rate than the paper's 20 KB baseline
    // (§3.6's analytic prediction, observed behaviourally).
    let idx =
        |want: fn(&KnobPoint) -> bool| points.iter().position(want).expect("grid point present");
    let base = idx(|p| *p == KnobPoint::baseline());
    let starved = idx(|p| p.bloom_bytes == 64 && p.bloom_hashes == 2);
    assert!(
        out.qualified[base] > 0,
        "the baseline hardware point must qualify tenants"
    );
    assert!(
        out.fp_pct[starved] > out.fp_pct[base],
        "64 B Bloom filter must raise the FP omission rate \
         ({}: {:.2}% vs {}: {:.2}%)",
        out.labels[starved],
        out.fp_pct[starved],
        out.labels[base],
        out.fp_pct[base],
    );
    emit(
        "dse_grid",
        "DSE: μFAB-C knob sweep — cost model × measured accuracy",
        &out.grid,
    );
    emit(
        "dse_pareto",
        "DSE: Pareto front (cost vs FP omission vs violation vs convergence)",
        &out.pareto,
    );
    println!(
        "[dse] {} points swept, {} on the Pareto front",
        points.len(),
        out.front_size
    );
}

/// `simbench dse` sweep cell: the quick grid at bench scale. Returns
/// total simulator events processed.
pub fn bench_sweep(seed: u64) -> u64 {
    let scale = Scale {
        seed,
        quick: true,
        ..Scale::default()
    };
    sweep(scale, &dse::GridKind::Quick.points()).events
}

/// `simbench dse` single-point cell: the baseline knob point alone
/// (per-cell throughput without sweep fan-out). Returns events.
pub fn bench_point(seed: u64) -> u64 {
    let scale = Scale {
        seed,
        quick: true,
        ..Scale::default()
    };
    let out = run_point(scale, KnobPoint::baseline());
    assert_eq!(out.fabric_violations, 0, "{}", out.fabric_report);
    out.events
}
