//! Fig 16: 90-to-1 highly dynamic workload (§5.5).
//!
//! Ninety VFs (1 Gbps guarantee each) toward one receiver toggle between
//! a fixed 500 Mbps underload and unlimited demand every 4 ms.
//! PWC overshoots (under-utilisation after each toggle), ES+Clove recovers
//! aggressively at the cost of latency, μFAB converges each phase within
//! RTTs and — with the latency stage — keeps the RTT near base.

use super::common::{emit, simulate, us, Scale, Sim};
use crate::executor::{run_jobs, Job};
use crate::harness::{SystemKind, SLICE};
use metrics::table::Table;
use netsim::{NodeId, PairId, MS};
use topology::{leaf_spine, three_tier, ThreeTierCfg};
use ufab::FabricSpec;
use workloads::patterns::OnOffDriver;

/// Run the on-off sweep over all four systems.
pub fn run(scale: Scale) -> Table {
    let until = if scale.quick { 16 * MS } else { 32 * MS };
    let mut table = Table::new([
        "system",
        "agg_underload_gbps",
        "agg_overload_gbps",
        "rtt_p50_us",
        "rtt_p99_us",
        "rtt_max_us",
    ]);
    let mut series = Table::new(["system", "t_ms", "agg_gbps"]);
    let jobs: Vec<Job<(Vec<[String; 3]>, [String; 6], String)>> = [
        SystemKind::Pwc,
        SystemKind::EsClove,
        SystemKind::UfabPrime,
        SystemKind::Ufab,
    ]
    .into_iter()
    .map(|system| {
        Job::new(format!("fig16:{}", system.label()), move || {
            // Built per system (topo/fabric consumed by the runner).
            let (topo, fabric, pairs) = build(scale);
            let mut driver = OnOffDriver::new(pairs.clone(), 4 * MS, 500e6, 0);
            let (r, epilogue) = simulate(&scale, topo, fabric, Sim::of(system), |r| {
                r.run(until, SLICE, &mut [&mut driver])
            });
            let rec = r.rec.lock().unwrap();
            let agg_at = |b: usize| -> f64 {
                pairs
                    .iter()
                    .map(|(_, p)| rec.pair_rates.rate_at(&p.raw(), b))
                    .sum()
            };
            let mut series_rows = Vec::new();
            for b in 0..(until / MS) as usize {
                series_rows.push([
                    system.label().to_string(),
                    b.to_string(),
                    format!("{:.2}", agg_at(b) / 1e9),
                ]);
            }
            // Phases: [0,4) ms underload, [4,8) overload, … skip the
            // first cycle as warmup.
            let mut under = 0.0;
            let mut over = 0.0;
            let mut under_n = 0;
            let mut over_n = 0;
            for b in 8..(until / MS) as usize {
                if (b / 4) % 2 == 0 {
                    under += agg_at(b);
                    under_n += 1;
                } else {
                    over += agg_at(b);
                    over_n += 1;
                }
            }
            let summary_row = [
                system.label().to_string(),
                format!("{:.2}", under / under_n.max(1) as f64 / 1e9),
                format!("{:.2}", over / over_n.max(1) as f64 / 1e9),
                us(rec.rtts.median().unwrap_or(f64::NAN)),
                us(rec.rtts.percentile(99.0).unwrap_or(f64::NAN)),
                us(rec.rtts.max().unwrap_or(f64::NAN)),
            ];
            drop(rec);
            (series_rows, summary_row, epilogue)
        })
    })
    .collect();
    for (series_rows, summary_row, epilogue) in run_jobs(jobs) {
        print!("{epilogue}");
        for row in series_rows {
            series.row(row);
        }
        table.row(summary_row);
    }
    emit(
        "fig16_series",
        "Fig 16a: 90-to-1 on-off aggregate rate",
        &series,
    );
    emit(
        "fig16_summary",
        "Fig 16: on-off rates + RTT (expect uFAB near-base RTT)",
        &table,
    );
    table
}

/// The 90-to-1 (quick: 30-to-1) fabric: one 1 Gbps VF per sender, all
/// toward the last host; returns each pair with its source host.
fn build(scale: Scale) -> (topology::Topo, FabricSpec, Vec<(NodeId, PairId)>) {
    let n = if scale.quick { 30 } else { 90 };
    // 100 G fabric so 90×1 G guarantees are feasible into one host.
    let topo = if scale.quick {
        leaf_spine(
            4,
            2,
            8,
            netsim::builder::LinkSpec::gbps(100, 1000),
            netsim::builder::LinkSpec::gbps(100, 1000),
            4096,
        )
    } else {
        three_tier(ThreeTierCfg {
            pods: 2,
            tors_per_pod: 3,
            hosts_per_tor: 16,
            aggs_per_pod: 2,
            cores: 4,
            ..ThreeTierCfg::default()
        })
    };
    let dst = *topo.hosts.last().unwrap();
    let mut fabric = FabricSpec::new(500e6);
    let mut pairs: Vec<(NodeId, PairId)> = Vec::new();
    let srcs: Vec<NodeId> = topo.hosts.iter().copied().filter(|&h| h != dst).collect();
    for i in 0..n {
        let src = srcs[i % srcs.len()];
        pairs.push((src, fabric.add_vf(2.0, src, dst))); // 1 Gbps
    }
    (topo, fabric, pairs)
}
