//! Ablation study of the implementation-level design choices DESIGN.md §5
//! calls out (beyond the paper's own μFAB′ ablation of Fig 12/16):
//!
//! * **claim smoothing** — Eqn-3 claims integrate with a per-response
//!   gain; gain = 1.0 is the unsmoothed update.
//! * **two-stage admission** (`bounded_latency`) — the paper's μFAB′.
//! * **reorder-free migration** — probe-only first RTT on a new path.
//! * **freeze window** — [1,1] RTT (no randomised damping) vs [1,10].
//!
//! Each variant runs the same two scenarios: a 10-to-1 incast
//! (tail-latency stress) and a mixed-demand work-conservation dumbbell
//! (utilisation stress). The table shows what each mechanism buys.

use super::common::{emit, incast_on_testbed, run_incast, Scale};
use crate::executor::{run_jobs, Job};
use crate::harness::{Runner, SystemKind, SLICE};
use metrics::table::Table;
use netsim::MS;
use topology::TestbedCfg;
use ufab::{FabricSpec, UfabConfig};
use workloads::driver::Driver;
use workloads::patterns::{BulkDriver, OnOffDriver};

fn variants() -> Vec<(&'static str, UfabConfig)> {
    let base = UfabConfig::default();
    vec![
        ("baseline", base.clone()),
        (
            "unsmoothed-claims",
            UfabConfig {
                claim_gain: 1.0,
                ..base.clone()
            },
        ),
        (
            "no-two-stage (uFAB')",
            UfabConfig {
                bounded_latency: false,
                ..base.clone()
            },
        ),
        (
            "reorder-free",
            UfabConfig {
                reorder_free: true,
                ..base.clone()
            },
        ),
        (
            "freeze [1,1]",
            UfabConfig {
                freeze_rtts_max: 1,
                ..base
            },
        ),
    ]
}

/// Utilisation of the work-conservation dumbbell: one hungry tenant, one
/// paced to 0.5 G, both with 4 G hoses on a 10 G bottleneck.
fn work_conservation_util(cfg: &UfabConfig, seed: u64) -> f64 {
    let topo = topology::dumbbell(2, 10, 10);
    let mut fabric = FabricSpec::new(500e6);
    let t0 = fabric.add_tenant("limited", 8.0);
    let t1 = fabric.add_tenant("hungry", 8.0);
    let a0 = fabric.add_vm(t0, topo.hosts[0]);
    let b0 = fabric.add_vm(t0, topo.hosts[2]);
    let a1 = fabric.add_vm(t1, topo.hosts[1]);
    let b1 = fabric.add_vm(t1, topo.hosts[3]);
    let p0 = fabric.add_pair(a0, b0);
    let p1 = fabric.add_pair(a1, b1);
    let h0 = topo.hosts[0];
    let h1 = topo.hosts[1];
    let mut r = Runner::new(topo, fabric, SystemKind::Ufab, seed, Some(cfg.clone()), MS);
    let mut limited = OnOffDriver::new(vec![(h0, p0)], 1_000_000 * MS, 0.5e9, 0);
    let mut hungry = BulkDriver::new(vec![(0, h1, p1, 400_000_000, 0)], 1 << 40);
    let mut drivers: [&mut dyn Driver; 2] = [&mut limited, &mut hungry];
    r.run(40 * MS, SLICE, &mut drivers);
    (r.pair_rate(p0, 15 * MS, 40 * MS) + r.pair_rate(p1, 15 * MS, 40 * MS)) / 9.5e9
}

/// Run the ablation grid.
pub fn run(scale: Scale) -> Table {
    let mut table = Table::new([
        "variant",
        "incast_p99_9_us",
        "incast_max_us",
        "wc_utilization",
        "migrations",
    ]);
    let jobs_list: Vec<Job<[String; 5]>> = variants()
        .into_iter()
        .map(|(name, cfg)| {
            let seed = scale.seed;
            Job::new(format!("ablation:{name}"), move || {
                // Incast stress.
                let (topo, fabric, srcs, pairs, _dst) =
                    incast_on_testbed(10, TestbedCfg::default(), 1.0, 500e6);
                let r = {
                    let mut r =
                        Runner::new(topo, fabric, SystemKind::Ufab, seed, Some(cfg.clone()), MS);
                    r.watch_all_switch_queues();
                    let jobs: Vec<_> = srcs
                        .iter()
                        .zip(&pairs)
                        .map(|(&s, &p)| (MS, s, p, 20_000_000u64, 0u32))
                        .collect();
                    let mut d = BulkDriver::new(jobs, 0);
                    let mut drivers: [&mut dyn Driver; 1] = [&mut d];
                    r.run(25 * MS, SLICE, &mut drivers);
                    r
                };
                let rec = r.rec.lock().unwrap();
                let (rtts, migrations) = (&rec.rtts, rec.path_migrations);
                let util = work_conservation_util(&cfg, seed);
                let _ = run_incast;
                [
                    name.to_string(),
                    format!("{:.1}", rtts.percentile(99.9).unwrap_or(f64::NAN) / 1e3),
                    format!("{:.1}", rtts.max().unwrap_or(f64::NAN) / 1e3),
                    format!("{util:.3}"),
                    migrations.to_string(),
                ]
            })
        })
        .collect();
    for row in run_jobs(jobs_list) {
        table.row(row);
    }
    emit(
        "ablation",
        "Ablation: implementation design choices (DESIGN.md §5)",
        &table,
    );
    table
}
