//! Fig 13: Memcached QPS/QCT under MongoDB background (ECS scenario,
//! §5.3).
//!
//! Memcached: 24 server VMs on S7–S8, 12 client VMs on S1–S4, closed-loop
//! GETs with KV-distribution objects (mean ≈ 2 KB). MongoDB: 24 server
//! VMs on S5–S8, 24 clients on S1–S4, continuously fetching 500 KB. The
//! tenants contend at both the edge and the core; the paper reports
//! Memcached QPS (low/high load) and QCT (avg/P90/P99) vs the "Ideal" of
//! running without MongoDB.

use super::common::{emit, simulate, Scale, Sim};
use crate::executor::{run_jobs, Job};
use crate::harness::{SystemKind, SLICE};
use metrics::table::Table;
use netsim::{NodeId, PairId, MS};
use topology::TestbedCfg;
use ufab::FabricSpec;
use workloads::dists::kv_object_sizes;
use workloads::ecs::{ReplySize, RpcClientDriver, TAG_MEMCACHED, TAG_MONGODB};

struct EcsSetup {
    topo: topology::Topo,
    fabric: FabricSpec,
    mc_clients: Vec<(NodeId, Vec<PairId>)>,
    mdb_clients: Vec<(NodeId, Vec<PairId>)>,
}

fn setup() -> EcsSetup {
    let topo = topology::testbed(TestbedCfg::default());
    let h = &topo.hosts;
    let mut fabric = FabricSpec::new(250e6);
    // Hose tokens (B_u = 250 M): Memcached buys 1 G per VM, MongoDB
    // 0.5 G per VM — the latency-sensitive tenant pays for priority of
    // guarantee, the bandwidth-hungry one leans on work conservation.
    let mc = fabric.add_tenant("memcached", 4.0);
    let mdb = fabric.add_tenant("mongodb", 2.0);
    // Memcached servers: 24 VMs over S7–S8.
    let mc_servers: Vec<_> = (0..24).map(|i| fabric.add_vm(mc, h[6 + i % 2])).collect();
    // Memcached clients: 12 VMs over S1–S4.
    let mc_client_vms: Vec<_> = (0..12).map(|i| fabric.add_vm(mc, h[i % 4])).collect();
    // MongoDB servers: 24 VMs over S5–S8; clients: 24 VMs over S1–S4.
    let mdb_servers: Vec<_> = (0..24).map(|i| fabric.add_vm(mdb, h[4 + i % 4])).collect();
    let mdb_client_vms: Vec<_> = (0..24).map(|i| fabric.add_vm(mdb, h[i % 4])).collect();
    // RPC pairs (both directions) client ↔ every server of its app.
    let mut mc_clients = Vec::new();
    for &c in &mc_client_vms {
        let host = fabric.vm(c).host;
        let pairs: Vec<PairId> = mc_servers
            .iter()
            .map(|&s| fabric.add_pair_bidir(c, s).0)
            .collect();
        mc_clients.push((host, pairs));
    }
    let mut mdb_clients = Vec::new();
    for &c in &mdb_client_vms {
        let host = fabric.vm(c).host;
        let pairs: Vec<PairId> = mdb_servers
            .iter()
            .map(|&s| fabric.add_pair_bidir(c, s).0)
            .collect();
        mdb_clients.push((host, pairs));
    }
    EcsSetup {
        topo,
        fabric,
        mc_clients,
        mdb_clients,
    }
}

/// One cell: `system` at a load level, with or without MongoDB. Returns
/// its table row and epilogue.
fn run_cell(
    label: &str,
    load: &str,
    system: SystemKind,
    scale: &Scale,
    until: netsim::Time,
    concurrency: usize,
    with_mongo: bool,
) -> ([String; 6], String) {
    let s = setup();
    let seed = scale.seed;
    let mut mc = RpcClientDriver::new(
        s.mc_clients,
        concurrency,
        64,
        ReplySize::Dist(kv_object_sizes()),
        TAG_MEMCACHED,
        seed,
        1 << 40,
    );
    let mut mdb = RpcClientDriver::new(
        s.mdb_clients,
        3,
        64,
        ReplySize::Fixed(500_000),
        TAG_MONGODB,
        seed + 1,
        2 << 40,
    );
    let warmup = until / 5;
    let sim = Sim {
        label: format!("{label}:{load}"),
        ..Sim::of(system)
    };
    let (_, epilogue) = simulate(scale, s.topo, s.fabric, sim, |r| {
        if with_mongo {
            r.run(until, SLICE, &mut [&mut mc, &mut mdb]);
        } else {
            r.run(until, SLICE, &mut [&mut mc]);
        }
    });
    // QPS over the full window minus warmup (approximately: completions
    // accumulate monotonically; we report completed / measured seconds).
    let secs = (until - warmup) as f64 / 1e9;
    let qct_ms = |p: f64| mc.qct.percentile(p).unwrap_or(f64::NAN) / 1e6;
    let row = [
        label.to_string(),
        load.to_string(),
        format!("{:.0}", mc.completed as f64 / secs),
        format!("{:.3}", mc.qct.mean() / 1e6),
        format!("{:.3}", qct_ms(90.0)),
        format!("{:.3}", qct_ms(99.0)),
    ];
    (row, epilogue)
}

/// Run the grid and emit QPS + QCT tables.
pub fn run(scale: Scale) -> Table {
    let until = if scale.quick { 80 * MS } else { 400 * MS };
    let mut table = Table::new([
        "system",
        "load",
        "qps",
        "qct_avg_ms",
        "qct_p90_ms",
        "qct_p99_ms",
    ]);
    let loads: &[(&str, usize)] = if scale.quick {
        &[("high", 4)]
    } else {
        &[("low", 1), ("high", 4)]
    };
    // Grid cells are independent runs: fan them out as jobs and merge
    // rows back in submission order.
    let mut jobs: Vec<Job<([String; 6], String)>> = Vec::new();
    for &(load_name, conc) in loads {
        // Ideal: Memcached alone (system = uFAB, no background).
        let mut cells: Vec<(&'static str, SystemKind, bool)> =
            vec![("Ideal", SystemKind::Ufab, false)];
        for system in SystemKind::headline() {
            cells.push((system.label(), system, true));
        }
        for (label, system, with_mongo) in cells {
            jobs.push(Job::new(format!("fig13:{label}:{load_name}"), move || {
                run_cell(label, load_name, system, &scale, until, conc, with_mongo)
            }));
        }
    }
    for (row, epilogue) in run_jobs(jobs) {
        print!("{epilogue}");
        table.row(row);
    }
    emit(
        "fig13_memcached",
        "Fig 13: Memcached QPS and QCT (expect uFAB ≈ Ideal)",
        &table,
    );
    table
}
