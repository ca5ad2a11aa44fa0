//! Fig 18: sensitivity analysis (§5.6).
//!
//! (a/b) The migration freeze window `[1, N]` RTTs vs convergence time
//! and migration count under 50 %/70 % background load: larger windows
//! suppress oscillation (fewer migrations) at modest convergence cost.
//! (c) Probing frequency: self-clocked vs fixed every 2/3 RTTs — lazy
//! probing converges in fewer, more aggressive control steps, ending up
//! with similar convergence times.

use super::common::{emit, simulate, Scale, Sim};
use crate::executor::{run_jobs, Job};
use crate::harness::{SystemKind, SLICE};
use metrics::table::Table;
use netsim::{Time, MS, US};
use ufab::UfabConfig;
use workloads::patterns::BulkDriver;

/// Rate-series resolution of every Fig 18 run.
const BIN: Time = 100 * US;

/// μFAB with `cfg` at [`BIN`] resolution, labelled `label`.
fn sim(label: String, cfg: UfabConfig) -> Sim {
    Sim {
        label,
        ufab: Some(cfg),
        rate_bin: BIN,
        ..Sim::of(SystemKind::Ufab)
    }
}

/// Measure, for a set of late-joining probe VFs, the mean time until each
/// reaches 90 % of its guarantee (held for 3 consecutive 100 μs bins).
fn probe_vf_convergence(
    rec: &metrics::SharedRecorder,
    probes: &[(Time, u32, f64)], // (join, pair, guarantee)
    horizon: Time,
) -> (f64, usize) {
    let rec = rec.lock().unwrap();
    let mut times = Vec::new();
    let mut converged = 0;
    for &(join, pair, guar) in probes {
        let start_bin = (join / BIN) as usize;
        let end_bin = (horizon / BIN) as usize;
        for b in start_bin..end_bin.saturating_sub(2) {
            let ok = (0..3).all(|k| rec.pair_rates.rate_at(&pair, b + k) >= 0.9 * guar);
            if ok {
                times.push(((b as Time * BIN).saturating_sub(join)) as f64);
                converged += 1;
                break;
            }
        }
    }
    let mean = if times.is_empty() {
        f64::NAN
    } else {
        times.iter().sum::<f64>() / times.len() as f64
    };
    (mean, converged)
}

/// Fig 18a/b: freeze-window sweep at two load levels.
pub fn run_ab(scale: Scale) -> Table {
    let servers = scale.servers.unwrap_or(64);
    let duration = if scale.quick { 20 * MS } else { 60 * MS };
    let mut table = Table::new([
        "load",
        "freeze_rtts",
        "conv_time_us",
        "converged",
        "migrations",
    ]);
    let mut jobs_list: Vec<Job<([String; 5], String)>> = Vec::new();
    for &load in &[0.5, 0.7] {
        for &n in &[2u64, 3, 4, 10] {
            let label = format!("{load}:{n}");
            jobs_list.push(Job::new(format!("fig18ab:{label}"), move || {
                let topo = super::fig17::build_topo(servers, false);
                let (mut fabric, wl) = super::fig17::synthesize(&topo, load, duration, scale.seed);
                // Probe VFs: 8 extra tenants with 1 G guarantees joining
                // mid-run with sustained demand.
                let hosts = topo.hosts.clone();
                let mut probe_jobs = Vec::new();
                let mut probes = Vec::new();
                // 8-token (4 G) probe VFs: big enough that a randomly
                // chosen initial path is often disqualified, exercising
                // migration.
                for i in 0..8usize {
                    let src = hosts[(i * 7) % hosts.len()];
                    // Half the fabric away, so never `src`.
                    let dst = hosts[(i * 7 + hosts.len() / 2) % hosts.len()];
                    let p = fabric.add_vf(8.0, src, dst);
                    let join = duration / 3 + i as Time * MS;
                    probe_jobs.push((join, src, p, 2_000_000_000u64, 1u32));
                    probes.push((join, p.raw(), 4e9));
                }
                let cfg = UfabConfig {
                    freeze_rtts_max: n,
                    ..UfabConfig::default()
                };
                let mut bg = BulkDriver::new(wl.jobs.clone(), 0);
                let mut probe_driver = BulkDriver::new(probe_jobs, 1 << 41);
                let (r, epilogue) = simulate(&scale, topo, fabric, sim(label, cfg), |r| {
                    r.run(duration, SLICE, &mut [&mut bg, &mut probe_driver])
                });
                let (conv, converged) = probe_vf_convergence(&r.rec, &probes, duration);
                let migrations = r.rec.lock().unwrap().path_migrations;
                let row = [
                    format!("{load}"),
                    format!("[1,{n}]"),
                    format!("{:.0}", conv / 1e3),
                    format!("{converged}/{}", probes.len()),
                    migrations.to_string(),
                ];
                (row, epilogue)
            }));
        }
    }
    for (row, epilogue) in run_jobs(jobs_list) {
        print!("{epilogue}");
        table.row(row);
    }
    emit(
        "fig18ab_freeze",
        "Fig 18a/b: migration freeze window vs convergence + migrations",
        &table,
    );
    table
}

/// Fig 18c: probing frequency under a 16-to-1 incast over background.
pub fn run_c(scale: Scale) -> Table {
    let servers = scale.servers.unwrap_or(64);
    let duration = if scale.quick { 12 * MS } else { 30 * MS };
    let mut table = Table::new(["probing", "incast_agg_gbps", "conv_time_us", "rtt_p99_us"]);
    let jobs_list: Vec<Job<([String; 4], String)>> = [
        ("self-clocking", None),
        ("2 RTT", Some(2u64)),
        ("3 RTT", Some(3u64)),
    ]
    .into_iter()
    .map(|(name, period)| {
        Job::new(format!("fig18c:{name}"), move || {
            let topo = super::fig17::build_topo(servers, false);
            let (mut fabric, wl) = super::fig17::synthesize(&topo, 0.5, duration, scale.seed);
            let hosts = topo.hosts.clone();
            let dst = hosts[hosts.len() - 1];
            let mut jobs = Vec::new();
            let mut pairs = Vec::new();
            let join = duration / 3;
            for i in 0..16usize {
                let src = hosts[i % (hosts.len() - 1)];
                let p = fabric.add_vf(2.0, src, dst);
                jobs.push((join, src, p, 2_000_000_000u64, 1u32));
                pairs.push((join, p.raw(), 100e9 / 16.0 * 0.5));
            }
            let cfg = UfabConfig {
                probe_period_rtts: period,
                ..UfabConfig::default()
            };
            let mut bg = BulkDriver::new(wl.jobs.clone(), 0);
            let mut incast = BulkDriver::new(jobs, 1 << 41);
            let (r, epilogue) = simulate(&scale, topo, fabric, sim(name.to_string(), cfg), |r| {
                r.run(duration, SLICE, &mut [&mut bg, &mut incast])
            });
            let (conv, _) = probe_vf_convergence(&r.rec, &pairs, duration);
            let rec = r.rec.lock().unwrap();
            let agg: f64 = pairs
                .iter()
                .map(|&(_, p, _)| rec.pair_rates.avg_rate(&p, join + 2 * MS, duration))
                .sum();
            let row = [
                name.to_string(),
                format!("{:.1}", agg / 1e9),
                format!("{:.0}", conv / 1e3),
                format!("{:.1}", rec.rtts.percentile(99.0).unwrap_or(f64::NAN) / 1e3),
            ];
            (row, epilogue)
        })
    })
    .collect();
    for (row, epilogue) in run_jobs(jobs_list) {
        print!("{epilogue}");
        table.row(row);
    }
    emit(
        "fig18c_probing",
        "Fig 18c: probing frequency vs convergence",
        &table,
    );
    table
}
