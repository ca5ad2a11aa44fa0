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

use super::common::{emit, incast_driver, incast_on_testbed, simulate, Scale, Sim};
use crate::executor::{run_jobs, Job};
use crate::harness::{SystemKind, SLICE};
use metrics::table::Table;
use netsim::MS;
use topology::TestbedCfg;
use ufab::{FabricSpec, UfabConfig};
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

/// μFAB with the variant's config, labelled by the variant and stage.
fn sim(name: &str, stage: &str, cfg: &UfabConfig) -> Sim {
    Sim {
        label: format!("{name}:{stage}"),
        ufab: Some(cfg.clone()),
        ..Sim::of(SystemKind::Ufab)
    }
}

/// Utilisation of the work-conservation dumbbell: one hungry tenant, one
/// paced to 0.5 G, both with 4 G hoses on a 10 G bottleneck. Returns it
/// with the run's epilogue.
fn work_conservation_util(scale: &Scale, sim: Sim) -> (f64, String) {
    let topo = topology::dumbbell(2, 10, 10);
    let mut fabric = FabricSpec::new(500e6);
    let (h0, h1) = (topo.hosts[0], topo.hosts[1]);
    let p0 = fabric.add_vf(8.0, h0, topo.hosts[2]);
    let p1 = fabric.add_vf(8.0, h1, topo.hosts[3]);
    let mut limited = OnOffDriver::new(vec![(h0, p0)], 1_000_000 * MS, 0.5e9, 0);
    let mut hungry = BulkDriver::new(vec![(0, h1, p1, 400_000_000, 0)], 1 << 40);
    let (r, epilogue) = simulate(scale, topo, fabric, sim, |r| {
        r.run(40 * MS, SLICE, &mut [&mut limited, &mut hungry])
    });
    let util = (r.pair_rate(p0, 15 * MS, 40 * MS) + r.pair_rate(p1, 15 * MS, 40 * MS)) / 9.5e9;
    (util, epilogue)
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
    let jobs_list: Vec<Job<([String; 5], String)>> = variants()
        .into_iter()
        .map(|(name, cfg)| {
            Job::new(format!("ablation:{name}"), move || {
                // Incast stress.
                let (topo, fabric, srcs, pairs, _dst) =
                    incast_on_testbed(10, TestbedCfg::default(), 1.0, 500e6);
                let mut incast = incast_driver(&srcs, &pairs, 20_000_000, MS);
                let (r, incast_epilogue) =
                    simulate(&scale, topo, fabric, sim(name, "incast", &cfg), |r| {
                        r.run(25 * MS, SLICE, &mut [&mut incast])
                    });
                let rec = r.rec.lock().unwrap();
                let (rtts, migrations) = (&rec.rtts, rec.path_migrations);
                let (util, wc_epilogue) = work_conservation_util(&scale, sim(name, "wc", &cfg));
                let row = [
                    name.to_string(),
                    format!("{:.1}", rtts.percentile(99.9).unwrap_or(f64::NAN) / 1e3),
                    format!("{:.1}", rtts.max().unwrap_or(f64::NAN) / 1e3),
                    format!("{util:.3}"),
                    migrations.to_string(),
                ];
                (row, incast_epilogue + &wc_epilogue)
            })
        })
        .collect();
    for (row, epilogue) in run_jobs(jobs_list) {
        print!("{epilogue}");
        table.row(row);
    }
    emit(
        "ablation",
        "Ablation: implementation design choices (DESIGN.md §5)",
        &table,
    );
    table
}
