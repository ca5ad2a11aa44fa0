//! Fig 20 (Appendix D): convergence with asynchronous probe responses.
//!
//! A large incast (128-to-1 in the paper; scaled by default) over 50 %
//! background load. Different senders receive probe responses at
//! different times (self-clocked probing is unsynchronised by design),
//! yet the rate allocation still converges quickly — the Appendix C.3
//! delayed-feedback stability result in action.

use super::common::{emit, simulate, Scale, Sim};
use crate::harness::{SystemKind, SLICE};
use metrics::table::Table;
use netsim::{Time, MS};
use workloads::patterns::BulkDriver;

/// Run the asynchronous-response incast.
pub fn run(scale: Scale) -> Table {
    let servers = scale.servers.unwrap_or(if scale.quick { 64 } else { 128 });
    let n = if scale.quick { 48 } else { 128 };
    let duration = if scale.quick { 16 * MS } else { 40 * MS };
    let topo = super::fig17::build_topo(servers, true);
    let (mut fabric, wl) = super::fig17::synthesize(&topo, 0.5, duration, scale.seed);
    let hosts = topo.hosts.clone();
    let dst = hosts[hosts.len() - 1];
    let join = duration / 4;
    let mut jobs = Vec::new();
    let mut pairs = Vec::new();
    for i in 0..n {
        let src = hosts[i % (hosts.len() - 1)];
        let p = fabric.add_vf(1.0, src, dst);
        jobs.push((join, src, p, 1_000_000_000u64, 1u32));
        pairs.push(p);
    }
    let mut bg = BulkDriver::new(wl.jobs.clone(), 0);
    let mut incast = BulkDriver::new(jobs, 1 << 41);
    let (r, epilogue) = simulate(&scale, topo, fabric, Sim::of(SystemKind::Ufab), |r| {
        r.run(duration, SLICE, &mut [&mut bg, &mut incast])
    });
    print!("{epilogue}");

    // (a) response asynchrony: per-sender response counts spread.
    let mut resp_counts = Vec::new();
    for i in 0..n {
        let src = hosts[i % (hosts.len() - 1)];
        let stats = r.sim.edge::<ufab::UfabEdge>(src).edge_stats();
        resp_counts.push(stats.responses);
    }
    let min_resp = *resp_counts.iter().min().unwrap_or(&0);
    let max_resp = *resp_counts.iter().max().unwrap_or(&0);

    // (b) rate evolution of one sender + aggregate convergence.
    let mut series = Table::new(["t_ms", "sender0_gbps", "agg_gbps"]);
    let rec = r.rec.lock().unwrap();
    let mut conv_ms = f64::NAN;
    let fair = 100e9 / n as f64; // rough per-sender target on a 100G NIC
    for b in 0..(duration / MS) as usize {
        let s0 = rec.pair_rates.rate_at(&pairs[0].raw(), b);
        let agg: f64 = pairs
            .iter()
            .map(|p| rec.pair_rates.rate_at(&p.raw(), b))
            .sum();
        if conv_ms.is_nan() && (b as Time * MS) > join && agg > 0.7 * 95e9 {
            conv_ms = (b as f64) - (join / MS) as f64;
        }
        series.row([
            b.to_string(),
            format!("{:.2}", s0 / 1e9),
            format!("{:.2}", agg / 1e9),
        ]);
    }
    drop(rec);
    emit("fig20_rates", "Fig 20b: incast rate evolution", &series);
    let mut summary = Table::new([
        "incast_n",
        "conv_ms",
        "resp_count_min",
        "resp_count_max",
        "fair_gbps",
    ]);
    summary.row([
        n.to_string(),
        format!("{conv_ms:.0}"),
        min_resp.to_string(),
        max_resp.to_string(),
        format!("{:.2}", fair / 1e9),
    ]);
    emit(
        "fig20_summary",
        "Fig 20: convergence with asynchronous responses",
        &summary,
    );
    summary
}
