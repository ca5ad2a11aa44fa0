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
//! `--jobs N` with byte-identical output; the fabric
//! invariant suite (ledger conservation, qualifying-stagger bound)
//! always runs, and `--check-invariants` arms the simulator suite.

use super::cell::{demand_for, Cell, CellEnd, Planned};
use super::common::{emit, f, us, Scale};
use crate::executor::{run_jobs, Job};
use dse::{cost_of, pareto_front, CostBreakdown};
use fabric::Policy;
use metrics::table::Table;
use metrics::Percentiles;
use ufab::{CoreHwCfg, UfabConfig, UfabCore};

/// Default fabric for a sweep cell: the 64-server FatTree (2 pods). The
/// sweep runs one cell per grid point; keeping each cell small is what makes a
/// ~dozen-point grid CI-sized.
const SWEEP_SERVERS: usize = 64;

/// Everything one knob-point cell reports back.
struct PointOut {
    label: String,
    end: CellEnd,
    cost: CostBreakdown,
    fp_pct: f64,
    registrations: u64,
    clamps: u64,
    truncs: u64,
    viol_ms: u64,
    ttg_p99_ns: f64,
    qualified: usize,
}

/// Simulate one knob point on the churn-style cell.
fn run_point(scale: Scale, point: CoreHwCfg) -> PointOut {
    // Control plane: trace + admission plan (identical at every point —
    // the knobs only change the data plane, so outcome deltas between
    // points are attributable to the hardware alone).
    let planned = Planned::new(&scale, Policy::FirstFit, SWEEP_SERVERS);
    // Data plane: thread the knob point through UfabConfig — the
    // harness builds every μFAB-C from CoreHwCfg::from(&cfg), so
    // register width, Bloom geometry, INT depth and cleanup period all
    // take effect behaviourally. No fault in this cell.
    let mut ucfg = UfabConfig::default();
    dse::apply(&point, &mut ucfg);
    let mut cell = Cell::build(&scale, planned, ucfg, false, |_, kind, guar| {
        demand_for(kind, guar, 1.0)
    });
    while cell.step().is_some() {
        cell.audit();
    }

    // Outcomes. Switch-side accuracy counters, summed over the fabric.
    let mut fp = 0u64;
    let mut registrations = 0u64;
    let mut clamps = 0u64;
    let mut truncs = 0u64;
    let topo = &cell.r.topo;
    for s in topo.switches() {
        if let Some(c) = cell.r.sim.try_switch_agent::<UfabCore>(s) {
            fp += c.stats.fp_omissions;
            registrations += c.stats.registrations;
            clamps += c.stats.reg_clamps;
            truncs += c.stats.int_truncations;
        }
    }
    let fp_pct = 100.0 * fp as f64 / (fp + registrations).max(1) as f64;

    let mut ttg = Percentiles::new();
    let mut qualified = 0usize;
    for t in cell.svc.tenants() {
        if let Some(x) = t.ttg_ns() {
            ttg.add(x as f64);
            qualified += 1;
        }
    }
    // Horizon sentinel: a configuration in which nothing qualifies must
    // score worst-case convergence, not a vacuous 0.
    let ttg_p99_ns = ttg.percentile(99.0).unwrap_or(cell.tl.horizon as f64);

    let mut viol_ms = 0u64;
    cell.bulk_bins(&cell.r.rec.lock().unwrap(), |_, _, violated| {
        viol_ms += violated as u64;
    });

    let label = dse::label(&point);
    PointOut {
        end: cell.end(&scale, &format!("dse:{label}")),
        label,
        cost: cost_of(&point),
        fp_pct,
        registrations,
        clamps,
        truncs,
        viol_ms,
        ttg_p99_ns,
        qualified,
    }
}

/// Everything a sweep produces, for `run` and the determinism test.
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
}

/// Sweep a set of knob points as parallel executor jobs and assemble
/// the measurement + Pareto tables. Output is a pure function of
/// `(scale, points)`: jobs merge in submission order and the front is
/// sorted by objective vector, so stdout and CSVs are byte-identical
/// at any `--jobs` value.
pub fn sweep(scale: Scale, points: &[CoreHwCfg]) -> SweepOut {
    let jobs: Vec<Job<PointOut>> = points
        .iter()
        .map(|&p| {
            Job::new(format!("dse:{}", dse::label(&p)), move || {
                run_point(scale, p)
            })
        })
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
    for out in &outs {
        if !out.end.epilogue.is_empty() {
            print!("{}", out.end.epilogue);
        }
        assert!(
            out.registrations > 0,
            "[{}] cell produced no switch registrations — nothing measured",
            out.label
        );
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
            out.end.digest.clone(),
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
        |want: fn(&CoreHwCfg) -> bool| points.iter().position(want).expect("grid point present");
    let base = idx(|p| *p == dse::baseline());
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
