//! Fig 12: 14-to-1 incast — bounded latency (§5.2).
//!
//! Extends Fig 4's worst case with all four systems, including the μFAB′
//! ablation (no two-stage admission). Reports the rate-convergence
//! behaviour (time to reach and hold the aggregate bottleneck rate) and
//! the RTT distribution. The paper's headline: PWC/ES+Clove show ~2.2 ms
//! P99 RTTs, μFAB′ cuts that ~11×, μFAB additionally bounds the maximum.

use super::common::{emit, incast_driver, incast_on_testbed, simulate, us, Scale, Sim};
use crate::executor::{run_jobs, Job};
use crate::harness::{SystemKind, SLICE};
use metrics::table::Table;
use netsim::MS;
use topology::TestbedCfg;

struct SystemResult {
    epilogue: String,
    rtt_row: [String; 7],
    rate_rows: Vec<[String; 5]>,
}

fn run_system(system: SystemKind, scale: Scale) -> SystemResult {
    let n = 14;
    let until = if scale.quick { 30 * MS } else { 60 * MS };
    let (topo, fabric, srcs, pairs, _dst) = incast_on_testbed(n, TestbedCfg::default(), 1.0, 500e6);
    let mut incast = incast_driver(&srcs, &pairs, 30_000_000, MS);
    let (r, epilogue) = simulate(&scale, topo, fabric, Sim::of(system), |r| {
        r.run(until, SLICE, &mut [&mut incast])
    });
    let agg = pairs
        .iter()
        .map(|&p| r.pair_rate(p, 5 * MS, until))
        .sum::<f64>();
    // Convergence: first ms bin where the aggregate reaches 90 % of
    // the target (~9.5 G) and holds for 3 bins.
    let mut conv_ms = f64::NAN;
    {
        let rec = r.rec.lock().unwrap();
        let bins = (until / MS) as usize;
        let agg_at = |b: usize| -> f64 {
            pairs
                .iter()
                .map(|p| rec.pair_rates.rate_at(&p.raw(), b))
                .sum()
        };
        for b in 1..bins.saturating_sub(3) {
            if (0..3).all(|k| agg_at(b + k) > 0.9 * 9.5e9) {
                conv_ms = b as f64 - 1.0; // joined at t = 1 ms
                break;
            }
        }
    }
    let rec = r.rec.lock().unwrap();
    let rtt_row = [
        system.label().to_string(),
        us(rec.rtts.median().unwrap_or(f64::NAN)),
        us(rec.rtts.percentile(99.0).unwrap_or(f64::NAN)),
        us(rec.rtts.percentile(99.9).unwrap_or(f64::NAN)),
        us(rec.rtts.max().unwrap_or(f64::NAN)),
        format!("{:.2}", agg / 1e9),
        format!("{conv_ms:.0}"),
    ];
    let mut rate_rows = Vec::new();
    for b in 0..(until / MS) as usize {
        let rates: Vec<f64> = pairs
            .iter()
            .map(|p| rec.pair_rates.rate_at(&p.raw(), b))
            .collect();
        let agg: f64 = rates.iter().sum();
        let min = rates.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = rates.iter().cloned().fold(0.0, f64::max);
        rate_rows.push([
            system.label().to_string(),
            b.to_string(),
            format!("{:.3}", agg / 1e9),
            format!("{:.3}", min / 1e9),
            format!("{:.3}", max / 1e9),
        ]);
    }
    SystemResult {
        epilogue,
        rtt_row,
        rate_rows,
    }
}

/// Run and emit both the RTT table and the rate-evolution series.
pub fn run(scale: Scale) -> Table {
    let mut rtt_table = Table::new([
        "system",
        "median_us",
        "p99_us",
        "p99_9_us",
        "max_us",
        "agg_gbps",
        "conv_ms",
    ]);
    let mut rate_table = Table::new(["system", "t_ms", "agg_gbps", "min_vf_gbps", "max_vf_gbps"]);
    let jobs: Vec<Job<SystemResult>> = [
        SystemKind::Pwc,
        SystemKind::EsClove,
        SystemKind::UfabPrime,
        SystemKind::Ufab,
    ]
    .into_iter()
    .map(|system| {
        Job::new(format!("fig12:{}", system.label()), move || {
            run_system(system, scale)
        })
    })
    .collect();
    for res in run_jobs(jobs) {
        print!("{}", res.epilogue);
        rtt_table.row(res.rtt_row);
        for row in res.rate_rows {
            rate_table.row(row);
        }
    }
    emit(
        "fig12_rates",
        "Fig 12a: 14-to-1 incast rate evolution",
        &rate_table,
    );
    emit(
        "fig12_rtt",
        "Fig 12b: 14-to-1 incast network RTT",
        &rtt_table,
    );
    rtt_table
}
