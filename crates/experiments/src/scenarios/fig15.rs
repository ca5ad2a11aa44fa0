//! Fig 15: 100GE line rate, failure resilience, probing overhead (§5.4).
//!
//! (a) Seven VFs with different guarantees join every 10 ms toward S8 on
//! the 100GE testbed; the Core-1 switch fails mid-run and μFAB must
//! migrate the victim VFs to the surviving core while keeping queues near
//! zero. (b) Probing bandwidth overhead vs the number of VM-pairs —
//! bounded by L_p/(L_p+L_m) ≈ 1.28 % at L_m = 4 KB.

use super::common::{emit, simulate, Scale, Sim};
use crate::executor::{run_jobs, Job};
use crate::harness::{SystemKind, SLICE};
use metrics::table::Table;
use netsim::{NodeId, PairId, PortNo, Time, MS};
use topology::TestbedCfg;
use ufab::FabricSpec;
use workloads::patterns::BulkDriver;

/// Fig 15a: joins + core switch failure.
pub fn run_a(scale: Scale) -> Table {
    // Quick mode scales the fabric to 10G (guarantees scaled with it) to
    // keep wall-clock low; full mode runs the true 100GE configuration.
    // Guarantees must be feasible into the single destination host:
    // paper (100G): 5+5+5+10+10+10+15 = 60 G ≤ 95 G target. Quick (10G):
    // 0.5×3 + 1×3 + 1.5 = 6 G ≤ 9.5 G target. Tokens are B_u = 500 M.
    let (cfg, guar_tokens): (TestbedCfg, Vec<f64>) = if scale.quick {
        (
            TestbedCfg::default(),
            vec![1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0],
        )
    } else {
        (
            TestbedCfg::hundred_gig(),
            vec![10.0, 10.0, 10.0, 20.0, 20.0, 20.0, 30.0],
        )
    };
    let stagger = if scale.quick { 4 * MS } else { 10 * MS };
    let fail_at = stagger * guar_tokens.len() as Time + stagger;
    let until = fail_at + 4 * stagger;

    let topo = topology::testbed(cfg);
    let dst = *topo.hosts.last().unwrap();
    let mut fabric = FabricSpec::new(500e6);
    let mut jobs = Vec::new();
    let mut pairs = Vec::new();
    let srcs: Vec<NodeId> = topo.hosts.iter().copied().filter(|&h| h != dst).collect();
    let guar_gbps: Vec<f64> = guar_tokens.iter().map(|t| t * 0.5).collect();
    for (i, &g) in guar_tokens.iter().enumerate() {
        let src = srcs[i % srcs.len()];
        let p = fabric.add_vf(g, src, dst);
        pairs.push(p);
        jobs.push((MS + i as Time * stagger, src, p, 200_000_000_000 / 8, 0u32));
    }
    let core1 = topo.cores[0];
    let n_core_ports = topo.neighbors(core1).len();
    let mut driver = BulkDriver::new(jobs, 0);
    let (r, epilogue) = simulate(&scale, topo, fabric, Sim::of(SystemKind::Ufab), |r| {
        r.watch_all_switch_queues();
        // Fail every link of Core-1 (both directions).
        for p in 0..n_core_ports {
            r.sim
                .schedule_link_failure(fail_at, core1, PortNo(p as u16));
        }
        r.run(until, SLICE, &mut [&mut driver]);
    });
    print!("{epilogue}");

    let mut table = Table::new(["t_ms", "agg_gbps", "min_vf_frac_of_guar", "max_q_kb"]);
    let rec = r.rec.lock().unwrap();
    // The deepest watched queue in each ms bin.
    let mut max_q = vec![0u64; (until / MS) as usize + 1];
    for &(t, q) in &r.queue_series {
        max_q[(t / MS) as usize] = max_q[(t / MS) as usize].max(q);
    }
    let mut series: Vec<(f64, u64)> = Vec::new(); // (min_frac, max_q) per ms bin
    for b in 0..(until / MS) as usize {
        let mut agg = 0.0;
        let mut min_frac = f64::INFINITY;
        for (i, &p) in pairs.iter().enumerate() {
            let joined = MS + i as Time * stagger + stagger;
            if (b as Time * MS) < joined {
                continue;
            }
            let rate = rec.pair_rates.rate_at(&p.raw(), b);
            agg += rate;
            min_frac = min_frac.min(rate / (guar_gbps[i] * 1e9));
        }
        series.push((min_frac, max_q[b]));
        table.row([
            b.to_string(),
            format!("{:.2}", agg / 1e9),
            if min_frac.is_finite() {
                format!("{min_frac:.2}")
            } else {
                "-".to_string()
            },
            format!("{:.1}", max_q[b] as f64 / 1e3),
        ]);
    }
    drop(rec);
    let migrations = r.rec.lock().unwrap().path_migrations;
    println!(
        "fail_at = {} ms; migrations performed = {migrations}",
        fail_at / MS
    );
    // ---- Machine-checked recovery SLO (§5.4) ----
    // Within two join-stagger periods of the core failure every VF must
    // be re-qualified — back above 80 % of its guarantee and *staying*
    // there for the rest of the run — and switch queues must return to
    // ≈0 (well under one BDP; the paper shows near-zero throughout).
    let deadline_bin = ((fail_at + 2 * stagger) / MS) as usize;
    let recovered_at = (0..series.len()).find(|&b| {
        b * (MS as usize) >= fail_at as usize && series[b..].iter().all(|&(frac, _)| frac >= 0.8)
    });
    match recovered_at {
        Some(b) => assert!(
            b <= deadline_bin,
            "fig15a recovery SLO violated: VFs re-qualified at t={b} ms, \
             after the deadline of {deadline_bin} ms (fail at {} ms)",
            fail_at / MS
        ),
        None => panic!(
            "fig15a recovery SLO violated: some VF never durably returned \
             above 80% of its guarantee after the failure at {} ms",
            fail_at / MS
        ),
    }
    let q_bound: u64 = if scale.quick { 64_000 } else { 512_000 };
    let tail_q = series[deadline_bin.min(series.len() - 1)..]
        .iter()
        .map(|&(_, q)| q)
        .max()
        .unwrap_or(0);
    assert!(
        tail_q <= q_bound,
        "fig15a recovery SLO violated: post-recovery queue peak {tail_q} B \
         exceeds {q_bound} B — queues did not return to ≈0"
    );
    println!(
        "recovery SLO: re-qualified at t={} ms (deadline {} ms), \
         post-recovery queue peak {} KB",
        recovered_at.unwrap_or(0),
        deadline_bin,
        tail_q / 1000
    );
    emit(
        "fig15a_failover",
        "Fig 15a: staggered joins + core failure (uFAB)",
        &table,
    );
    table
}

/// Fig 15b: probing overhead vs number of VM-pairs.
pub fn run_b(scale: Scale) -> Table {
    let pair_counts: Vec<usize> = if scale.quick {
        vec![1, 10, 100, 1000]
    } else {
        vec![1, 10, 100, 1000, 8192]
    };
    let mut table = Table::new(["vm_pairs", "probe_overhead_pct", "bound_pct"]);
    let cells: Vec<Job<([String; 3], String)>> = pair_counts
        .iter()
        .map(|&n| {
            Job::new(format!("fig15b:{n}"), move || {
                // One saturating VF split across n VM-pairs between two
                // hosts on the same rack (minimal path length isolates
                // the probing cost).
                let mut topo = topology::dumbbell(1, 100, 100);
                topo.mtu = 4096;
                let mut fabric = FabricSpec::new(500e6);
                let t = fabric.add_tenant("t", 190.0);
                let mut pairs: Vec<PairId> = Vec::new();
                for _ in 0..n {
                    let a = fabric.add_vm(t, topo.hosts[0]);
                    let b = fabric.add_vm(t, topo.hosts[1]);
                    pairs.push(fabric.add_pair(a, b));
                }
                let host = topo.hosts[0];
                let until = if scale.quick { 20 * MS } else { 50 * MS };
                let jobs: Vec<(Time, NodeId, PairId, u64, u32)> = pairs
                    .iter()
                    .map(|&p| (0, host, p, 2_000_000_000 / n as u64 + 1_000_000, 0))
                    .collect();
                let mut driver = BulkDriver::new(jobs, 0);
                let sim = Sim {
                    label: format!("{n} pairs"),
                    ..Sim::of(SystemKind::Ufab)
                };
                let (r, epilogue) = simulate(&scale, topo, fabric, sim, |r| {
                    r.run(until, SLICE, &mut [&mut driver])
                });
                let overhead = r.probe_overhead() * 100.0;
                // L_p ≈ probe+response wire bytes over one data exchange
                // of L_m.
                let lp = telemetry::wire::probe_packet_bytes(2, 3) as f64;
                let bound = lp / (lp + 4096.0) * 100.0 * 2.0; // probe + response
                let row = [
                    n.to_string(),
                    format!("{overhead:.3}"),
                    format!("{bound:.3}"),
                ];
                (row, epilogue)
            })
        })
        .collect();
    for (row, epilogue) in run_jobs(cells) {
        print!("{epilogue}");
        table.row(row);
    }
    emit(
        "fig15b_probe_overhead",
        "Fig 15b: probing overhead vs #VM-pairs (bound ≈1.3% twice-counted)",
        &table,
    );
    table
}
