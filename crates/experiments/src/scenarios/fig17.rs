//! Fig 17: performance under a realistic workload (§5.5).
//!
//! Synthesized tenants (VM counts and communication degrees drawn from
//! production-like distributions), Poisson flow arrivals with the
//! web-search size distribution at average link loads of 0.5/0.7, on a
//! three-tier fabric with 1:2 and 1:1 core oversubscription. Reports
//! (a) bandwidth dissatisfaction, (b) tail RTT, (c) FCT slowdown, and
//! (d) the FCT slowdown breakdown by flow size.
//!
//! Scale note: the paper simulates 512 servers in NS3; the default here
//! is a 64-server instance of the same construction (`--servers 512`
//! reproduces the full scale — wall-clock grows accordingly).

use super::common::{emit, simulate, Scale, Sim};
use crate::executor::{run_jobs, Job};
use crate::harness::{SystemKind, SLICE};
use metrics::table::Table;
use metrics::{DissatisfactionMeter, OnlineStats, Percentiles};
use netsim::{NodeId, PairId, Time, MS};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use topology::{three_tier, ThreeTierCfg};
use ufab::FabricSpec;
use workloads::dists::websearch_flow_sizes;
use workloads::patterns::BulkDriver;

/// A synthesized multi-tenant workload instance.
pub(crate) struct Workload {
    /// Arrival schedule: `(time, src_host, pair, bytes)`.
    pub jobs: Vec<(Time, NodeId, PairId, u64, u32)>,
    /// Per-pair minimum guarantee in bits/sec (for slowdown/dissatisfaction).
    pub pair_guar: Vec<f64>,
    /// Pair → source VM index.
    pub pair_vm: Vec<u32>,
    /// Pair → destination VM index.
    pub pair_dst_vm: Vec<u32>,
    /// VM index → hose guarantee in bits/sec.
    pub vm_hose: Vec<f64>,
}

/// The server counts [`build_topo`] has a shape for; it panics on any
/// other, and `repro` rejects those at the command line.
pub const FABRIC_SIZES: [usize; 4] = [64, 128, 512, 2048];

/// Build the topology for one oversubscription setting.
pub fn build_topo(servers: usize, oversub_1to1: bool) -> topology::Topo {
    let cfg = match servers {
        // Beyond-paper scale point: 16 pods × 16 ToRs × 8 hosts = 2048
        // servers.
        2048 => ThreeTierCfg {
            pods: 16,
            tors_per_pod: 16,
            hosts_per_tor: 8,
            aggs_per_pod: 16,
            cores: 32,
            ..ThreeTierCfg::default()
        },
        512 => ThreeTierCfg::paper_512(if oversub_1to1 { 32 } else { 16 }),
        128 => ThreeTierCfg {
            pods: 4,
            tors_per_pod: 4,
            hosts_per_tor: 8,
            aggs_per_pod: 4,
            cores: if oversub_1to1 { 16 } else { 8 },
            ..ThreeTierCfg::default()
        },
        64 => ThreeTierCfg {
            pods: 2,
            tors_per_pod: 4,
            hosts_per_tor: 8,
            aggs_per_pod: 4,
            cores: if oversub_1to1 { 16 } else { 8 },
            ..ThreeTierCfg::default()
        },
        _ => panic!(
            "build_topo: no fabric shape for {servers} servers (FABRIC_SIZES = {FABRIC_SIZES:?})"
        ),
    };
    three_tier(cfg)
}

/// Synthesize tenants + arrivals for `duration` at `load` of host links.
pub(crate) fn synthesize(
    topo: &topology::Topo,
    load: f64,
    duration: Time,
    seed: u64,
) -> (FabricSpec, Workload) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut fabric = FabricSpec::new(500e6);
    let hosts = &topo.hosts;
    let host_bps = topo.neighbors(hosts[0])[0].cap_bps as f64;
    // Tenants of 4–16 VMs with 1–8 token guarantees (0.5–4 Gbps), placed
    // on random hosts, until every host carries ~4 VMs on average.
    let target_vms = hosts.len() * 4;
    let mut pairs: Vec<(NodeId, PairId)> = Vec::new();
    let mut pair_guar = Vec::new();
    let mut pair_vm = Vec::new();
    let mut pair_dst_vm = Vec::new();
    let mut vm_hose = Vec::new();
    let mut total_vms = 0;
    let mut tid = 0;
    while total_vms < target_vms {
        let n_vms = rng.gen_range(4..=16usize);
        let tokens = rng.gen_range(1..=8) as f64;
        let t = fabric.add_tenant(&format!("tenant{tid}"), tokens);
        tid += 1;
        let vms: Vec<_> = (0..n_vms)
            .map(|_| fabric.add_vm(t, hosts[rng.gen_range(0..hosts.len())]))
            .collect();
        for _ in &vms {
            vm_hose.push(tokens * 500e6);
        }
        total_vms += n_vms;
        // Communication degree: each VM talks to 1–4 tenant peers on
        // other hosts.
        for &v in &vms {
            let degree = rng.gen_range(1..=4usize);
            let mut tries = 0;
            let mut made = 0;
            while made < degree && tries < 16 {
                tries += 1;
                let peer = vms[rng.gen_range(0..vms.len())];
                if peer == v || fabric.vm(peer).host == fabric.vm(v).host {
                    continue;
                }
                let p = fabric.add_pair(v, peer);
                if p.idx() == pairs.len() {
                    pairs.push((fabric.vm(v).host, p));
                    pair_guar.push(fabric.pair_guarantee_bps(p));
                    pair_vm.push(v.raw());
                    pair_dst_vm.push(peer.raw());
                    made += 1;
                }
            }
        }
    }
    // Poisson arrivals sized to the requested average host-link load.
    let sizes = websearch_flow_sizes();
    let mean = sizes.mean();
    let agg_rate = load * host_bps * hosts.len() as f64 / (mean * 8.0);
    let mean_gap = 1e9 / agg_rate;
    let mut jobs = Vec::new();
    let mut t = 0.0f64;
    while (t as Time) < duration {
        t += workloads::dists::exp_interarrival(&mut rng, mean_gap) as f64;
        let (host, pair) = pairs[rng.gen_range(0..pairs.len())];
        let size = sizes.sample(&mut rng).max(1000.0) as u64;
        jobs.push((t as Time, host, pair, size, 0u32));
    }
    (
        fabric,
        Workload {
            jobs,
            pair_guar,
            pair_vm,
            pair_dst_vm,
            vm_hose,
        },
    )
}

/// Results of one (system, oversub, load) cell.
pub(crate) struct Cell {
    /// Dissatisfaction ratio.
    pub dissat: f64,
    /// RTT p99 (ns).
    pub rtt_p99: f64,
    /// Slowdown stats (mean ± std, p99).
    pub slow_mean: f64,
    /// Slowdown stddev.
    pub slow_std: f64,
    /// Slowdown p99.
    pub slow_p99: f64,
    /// Per-size-bucket (label, avg slowdown, p99 slowdown).
    pub breakdown: Vec<(String, f64, f64)>,
    /// The run's observability epilogue.
    pub epilogue: String,
}

/// Run one cell.
pub(crate) fn run_cell(
    sim: Sim,
    scale: &Scale,
    servers: usize,
    oversub_1to1: bool,
    load: f64,
    duration: Time,
) -> Cell {
    let topo = build_topo(servers, oversub_1to1);
    let (fabric, wl) = synthesize(&topo, load, duration, scale.seed);
    let mut driver = BulkDriver::new(wl.jobs.clone(), 0);
    let mut done = Vec::new();
    // Run past the arrival horizon to drain.
    let horizon = duration + duration / 2;
    let (r, epilogue) = simulate(scale, topo, fabric, sim, |r| {
        r.run(horizon, SLICE, &mut [&mut driver, &mut done])
    });

    let rec = r.rec.lock().unwrap();
    // (a) dissatisfaction: per ms bin, a pair is entitled to
    // min(guarantee, what it could usefully drain) — its remaining
    // backlog per bin — with one VM's concurrent pairs scaled so they
    // never claim more than the VM hose on either side. Backlog is
    // reconstructed from the arrival schedule minus delivered bytes, so
    // early finishes and sub-bin mice are entitled only to their actual
    // remaining demand.
    let bins = (horizon / MS) as usize;
    let n_pairs = wl.pair_guar.len();
    let bin_s = MS as f64 / 1e9;
    let mut inj = vec![vec![0u64; bins]; n_pairs];
    for &(at, _, pair, bytes, _) in &wl.jobs {
        let b = ((at / MS) as usize).min(bins - 1);
        inj[pair.idx()][b] += bytes;
    }
    let mut remaining = vec![0f64; n_pairs];
    let mut meter = DissatisfactionMeter::new();
    for b in 0..bins {
        let mut per_src_vm: std::collections::HashMap<u32, f64> = std::collections::HashMap::new();
        let mut per_dst_vm: std::collections::HashMap<u32, f64> = std::collections::HashMap::new();
        let mut raw = Vec::new();
        for p in 0..n_pairs {
            remaining[p] += inj[p][b] as f64;
            if remaining[p] < 1.0 {
                continue;
            }
            let drainable_bps = remaining[p] * 8.0 / bin_s;
            let entitled = wl.pair_guar[p].min(drainable_bps);
            *per_src_vm.entry(wl.pair_vm[p]).or_insert(0.0) += entitled;
            *per_dst_vm.entry(wl.pair_dst_vm[p]).or_insert(0.0) += entitled;
            raw.push((p, entitled));
        }
        let mut entries = Vec::new();
        for (p, entitled) in raw {
            let sv = wl.pair_vm[p];
            let dv = wl.pair_dst_vm[p];
            let s_scale = (wl.vm_hose[sv as usize] / per_src_vm[&sv]).min(1.0);
            let d_scale = (wl.vm_hose[dv as usize] / per_dst_vm[&dv]).min(1.0);
            let scale = s_scale.min(d_scale);
            let rate = rec.pair_rates.rate_at(&(p as u32), b);
            entries.push((rate, entitled * scale, f64::INFINITY));
        }
        meter.observe(MS, &entries);
        // Account deliveries after the bin.
        for p in 0..n_pairs {
            if remaining[p] > 0.0 {
                let delivered = rec.pair_rates.rate_at(&(p as u32), b) * bin_s / 8.0;
                remaining[p] = (remaining[p] - delivered).max(0.0);
            }
        }
    }
    // (b) RTT tail.
    let rtt_p99 = rec.rtts.percentile(99.0).unwrap_or(f64::NAN);
    // (c)/(d) slowdown.
    let mut slow = Percentiles::new();
    let mut slow_stats = OnlineStats::new();
    let buckets = [
        ("<10KB", 0u64, 10_000u64),
        ("10-100KB", 10_000, 100_000),
        ("100KB-1MB", 100_000, 1_000_000),
        (">1MB", 1_000_000, u64::MAX),
    ];
    let mut bucket_stats: Vec<(Percentiles, OnlineStats)> = buckets
        .iter()
        .map(|_| (Percentiles::new(), OnlineStats::new()))
        .collect();
    for c in &done {
        let guar = wl.pair_guar.get(c.pair as usize).copied().unwrap_or(1e9);
        let ideal_ns = c.bytes as f64 * 8.0 / guar * 1e9;
        let s = (c.fct() as f64 / ideal_ns.max(1.0)).max(0.0);
        slow.add(s);
        slow_stats.add(s);
        for (i, &(_, lo, hi)) in buckets.iter().enumerate() {
            if c.bytes >= lo && c.bytes < hi {
                bucket_stats[i].0.add(s);
                bucket_stats[i].1.add(s);
            }
        }
    }
    let breakdown = buckets
        .iter()
        .zip(&bucket_stats)
        .map(|(&(label, _, _), (p, st))| {
            (
                label.to_string(),
                st.mean(),
                p.percentile(99.0).unwrap_or(f64::NAN),
            )
        })
        .collect();
    Cell {
        dissat: meter.ratio(),
        rtt_p99,
        slow_mean: slow_stats.mean(),
        slow_std: slow_stats.stddev(),
        slow_p99: slow.percentile(99.0).unwrap_or(f64::NAN),
        breakdown,
        epilogue,
    }
}

/// Run the full grid and emit the four sub-figures.
pub fn run(scale: Scale) -> Table {
    let servers = scale.servers.unwrap_or(if scale.quick { 64 } else { 128 });
    let duration = if scale.quick { 20 * MS } else { 100 * MS };
    let configs: Vec<(bool, f64)> = if scale.quick {
        vec![(false, 0.5), (true, 0.7)]
    } else {
        vec![(false, 0.5), (false, 0.7), (true, 0.5), (true, 0.7)]
    };
    let mut table = Table::new([
        "system",
        "oversub",
        "load",
        "dissat_pct",
        "rtt_p99_us",
        "slow_avg",
        "slow_std",
        "slow_p99",
    ]);
    let mut bd_table = Table::new(["system", "size_bucket", "slow_avg", "slow_p99"]);
    let heaviest = *configs.last().unwrap();
    let mut jobs: Vec<Job<([String; 8], Vec<[String; 4]>, String)>> = Vec::new();
    for &(o11, load) in &configs {
        for system in SystemKind::headline() {
            let oversub = if o11 { "1:1" } else { "1:2" };
            let label = format!("{}:{oversub}:{load}", system.label());
            jobs.push(Job::new(format!("fig17:{label}"), move || {
                let sim = Sim {
                    label,
                    ..Sim::of(system)
                };
                let cell = run_cell(sim, &scale, servers, o11, load, duration);
                let row = [
                    system.label().to_string(),
                    oversub.to_string(),
                    format!("{load}"),
                    format!("{:.2}", cell.dissat * 100.0),
                    format!("{:.1}", cell.rtt_p99 / 1e3),
                    format!("{:.2}", cell.slow_mean),
                    format!("{:.2}", cell.slow_std),
                    format!("{:.2}", cell.slow_p99),
                ];
                // (d): breakdown only for the heaviest config.
                let mut bd_rows = Vec::new();
                if (o11, load) == heaviest {
                    for (label, avg, p99) in &cell.breakdown {
                        bd_rows.push([
                            system.label().to_string(),
                            label.clone(),
                            format!("{avg:.2}"),
                            format!("{p99:.2}"),
                        ]);
                    }
                }
                (row, bd_rows, cell.epilogue)
            }));
        }
    }
    for (row, bd_rows, epilogue) in run_jobs(jobs) {
        print!("{epilogue}");
        table.row(row);
        for bd_row in bd_rows {
            bd_table.row(bd_row);
        }
    }
    emit(
        "fig17_summary",
        "Fig 17a-c: realistic workload (dissatisfaction, tail RTT, slowdown)",
        &table,
    );
    emit(
        "fig17d_breakdown",
        "Fig 17d: FCT slowdown by flow size (heaviest config)",
        &bd_table,
    );
    table
}
