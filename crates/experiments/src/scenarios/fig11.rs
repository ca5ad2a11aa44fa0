//! Fig 11: bandwidth guarantee with work conservation under high load
//! (§5.2).
//!
//! A cross-pod permutation on the testbed with three guarantee classes —
//! 1, 2, 5 Gbps — one VF of each class per source host (1+2+5 = 8 Gbps
//! ≤ 10 G, so hosts are not the bottleneck). VFs join one at a time every
//! `stagger`; the paper reports (a–c) per-class rate evolution, (d) the
//! bandwidth-dissatisfaction curve, and (e) the switch-queue CDF.

use super::common::{det_shuffle, emit, simulate, Scale, Sim};
use crate::executor::{run_jobs, Job};
use crate::harness::{SystemKind, SLICE};
use metrics::table::Table;
use metrics::DissatisfactionMeter;
use netsim::{NodeId, PairId, Time, MS};
use topology::TestbedCfg;
use ufab::FabricSpec;
use workloads::patterns::BulkDriver;

struct Setup {
    topo: topology::Topo,
    fabric: FabricSpec,
    /// (join_time, src_host, pair, class_gbps)
    vfs: Vec<(Time, NodeId, PairId, u64)>,
}

fn setup(stagger: Time, seed: u64) -> Setup {
    let topo = topology::testbed(TestbedCfg::default());
    let mut fabric = FabricSpec::new(500e6);
    let classes = [(1u64, 2.0), (2, 4.0), (5, 10.0)];
    let mut vfs = Vec::new();
    // Pod-1 hosts (S1–S4) each run one VF per class toward the matching
    // pod-2 host (S5–S8).
    let mut joins = Vec::new();
    for hi in 0..4 {
        for &(gbps, tokens) in &classes {
            let src = topo.hosts[hi];
            joins.push((src, fabric.add_vf(tokens, src, topo.hosts[4 + hi]), gbps));
        }
    }
    // Random join order, one every `stagger`.
    det_shuffle(&mut joins, seed);
    for (k, (src, pair, gbps)) in joins.into_iter().enumerate() {
        vfs.push((MS + k as Time * stagger, src, pair, gbps));
    }
    Setup { topo, fabric, vfs }
}

/// What one per-system run sends back from its worker thread.
struct SystemResult {
    rate_rows: Vec<[String; 5]>,
    summary_row: [String; 6],
    epilogue: String,
    events: u64,
}

fn run_system(system: SystemKind, scale: Scale, stagger: Time) -> SystemResult {
    let Setup { topo, fabric, vfs } = setup(stagger, scale.seed);
    let until = vfs.last().unwrap().0 + 12 * stagger.max(5 * MS);
    let jobs: Vec<(Time, NodeId, PairId, u64, u32)> = vfs
        .iter()
        .map(|&(at, src, pair, _)| (at, src, pair, 8_000_000_000, 0))
        .collect();
    let mut driver = BulkDriver::new(jobs, 0);
    let (r, epilogue) = simulate(&scale, topo, fabric, Sim::of(system), |r| {
        r.watch_all_switch_queues();
        r.run(until, SLICE, &mut [&mut driver]);
    });

    // (a–c) per-VF rate series.
    let mut rate_rows = Vec::new();
    let rec = r.rec.lock().unwrap();
    for b in 0..(until / MS) as usize {
        for (vi, &(_, _, pair, gbps)) in vfs.iter().enumerate() {
            let rate = rec.pair_rates.rate_at(&pair.raw(), b);
            rate_rows.push([
                system.label().to_string(),
                b.to_string(),
                gbps.to_string(),
                format!("vf{vi}"),
                format!("{:.2}", rate / 1e9),
            ]);
        }
    }
    // (d) dissatisfaction: each VF is entitled to its guarantee from
    // its join time (demand is unlimited).
    let mut meter = DissatisfactionMeter::new();
    for b in 0..(until / MS) as usize {
        let t = b as Time * MS;
        let entries: Vec<(f64, f64, f64)> = vfs
            .iter()
            .filter(|&&(at, _, _, _)| t >= at)
            .map(|&(_, _, pair, gbps)| {
                let rate = rec.pair_rates.rate_at(&pair.raw(), b);
                (rate, gbps as f64 * 1e9, f64::INFINITY)
            })
            .collect();
        meter.observe(MS, &entries);
    }
    let agg: f64 = vfs
        .iter()
        .map(|&(_, _, p, _)| rec.pair_rates.avg_rate(&p.raw(), until - 5 * MS, until))
        .sum();
    drop(rec);
    let q = &r.queue_samples;
    let summary_row = [
        system.label().to_string(),
        format!("{:.4}", meter.ratio()),
        format!("{:.1}", q.percentile(50.0).unwrap_or(0.0) / 1e3),
        format!("{:.1}", q.percentile(99.0).unwrap_or(0.0) / 1e3),
        format!("{:.1}", q.max().unwrap_or(0.0) / 1e3),
        format!("{:.2}", agg / 1e9),
    ];
    SystemResult {
        rate_rows,
        summary_row,
        epilogue,
        events: r.sim.stats().events,
    }
}

/// Run all three systems and emit rates, dissatisfaction and queue CDFs.
pub fn run(scale: Scale) -> Table {
    run_with_stats(scale).0
}

/// Like [`run`] but also returns the total simulator events processed
/// across the three systems (`ufabbench`'s `fig11_testbed` workload).
pub fn run_with_stats(scale: Scale) -> (Table, u64) {
    let stagger = if scale.quick { 5 * MS } else { 20 * MS };
    let mut rates = Table::new(["system", "t_ms", "class_gbps", "vf", "rate_gbps"]);
    let mut summary = Table::new([
        "system",
        "dissatisfaction",
        "q_p50_kb",
        "q_p99_kb",
        "q_max_kb",
        "agg_gbps",
    ]);
    let jobs: Vec<Job<SystemResult>> = SystemKind::headline()
        .into_iter()
        .map(|system| {
            Job::new(format!("fig11:{}", system.label()), move || {
                run_system(system, scale, stagger)
            })
        })
        .collect();
    let mut events = 0u64;
    for res in run_jobs(jobs) {
        print!("{}", res.epilogue);
        for row in res.rate_rows {
            rates.row(row);
        }
        summary.row(res.summary_row);
        events += res.events;
    }
    emit(
        "fig11_rates",
        "Fig 11a-c: permutation rate evolution",
        &rates,
    );
    emit(
        "fig11_summary",
        "Fig 11d-e: dissatisfaction + queue (expect uFAB lowest on both)",
        &summary,
    );
    (summary, events)
}
