//! Fig 14: EBS task completion times (§5.3).
//!
//! S1–S4 each host a Storage Agent VM; S5–S8 each host a Block Agent, a
//! Chunk Server and a Garbage-Collection VM. Guarantees: SA 2 G, BA 6 G,
//! GC 1 G (CS hoses sized to admit replication + GC traffic). The paper's
//! latency bound converted to the 10 G testbed: 2 ms average, 10 ms tail;
//! μFAB completes I/O within it while the alternatives blow the tail by
//! >21×.

use super::common::{emit, simulate, Scale, Sim};
use crate::executor::{run_jobs, Job};
use crate::harness::{SystemKind, SLICE};
use metrics::table::Table;
use netsim::MS;
use topology::TestbedCfg;
use ufab::FabricSpec;
use workloads::ebs::{EbsDriver, EbsSpec};

fn setup() -> (topology::Topo, FabricSpec, EbsSpec) {
    let topo = topology::testbed(TestbedCfg::default());
    let h = &topo.hosts;
    let mut fabric = FabricSpec::new(500e6);
    let sa_t = fabric.add_tenant("SA", 4.0); // 2 G
    let ba_t = fabric.add_tenant("BA", 12.0); // 6 G
    let gc_t = fabric.add_tenant("GC", 2.0); // 1 G
    let sa_vms: Vec<_> = (0..4).map(|i| fabric.add_vm(sa_t, h[i])).collect();
    let ba_vms: Vec<_> = (0..4).map(|i| fabric.add_vm(ba_t, h[4 + i])).collect();
    // Chunk servers live in the BA tenant's fabric view for replication
    // admission and in GC's for reads; model them as two colocated VMs.
    let cs_ba_vms: Vec<_> = (0..4).map(|i| fabric.add_vm(ba_t, h[4 + i])).collect();
    let cs_gc_vms: Vec<_> = (0..4).map(|i| fabric.add_vm(gc_t, h[4 + i])).collect();
    let gc_vms: Vec<_> = (0..4).map(|i| fabric.add_vm(gc_t, h[4 + i])).collect();

    // SA i → every BA (cross-host only is automatic: SAs are on S1–S4).
    let mut sa = Vec::new();
    for &s in &sa_vms {
        let host = fabric.vm(s).host;
        let pairs: Vec<_> = ba_vms.iter().map(|&b| fabric.add_pair(s, b)).collect();
        sa.push((host, pairs));
    }
    // BA i → every CS on a *different* host.
    let mut ba = Vec::new();
    for &b in &ba_vms {
        let host = fabric.vm(b).host;
        let remote_cs: Vec<_> = cs_ba_vms
            .iter()
            .copied()
            .filter(|&c| fabric.vm(c).host != host)
            .collect();
        let pairs: Vec<_> = remote_cs.iter().map(|&c| fabric.add_pair(b, c)).collect();
        ba.push((host, pairs));
    }
    // GC i: read requests to CSs on other hosts (reply needs the reverse
    // pair), plus write-back pairs.
    let mut gc = Vec::new();
    for &g in &gc_vms {
        let host = fabric.vm(g).host;
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        for &c in &cs_gc_vms {
            if fabric.vm(c).host == host {
                continue;
            }
            let (req, _resp) = fabric.add_pair_bidir(g, c);
            reads.push(req);
            writes.push(fabric.add_pair(g, c));
        }
        gc.push((host, reads, writes));
    }
    (topo, fabric, EbsSpec { sa, ba, gc })
}

/// Run all systems and emit the TCT table.
pub fn run(scale: Scale) -> Table {
    let until = if scale.quick { 60 * MS } else { 300 * MS };
    let mut table = Table::new(["system", "task", "avg_ms", "p99_ms", "n", "within_bound"]);
    let jobs: Vec<Job<(Vec<[String; 6]>, String)>> = SystemKind::headline()
        .into_iter()
        .map(|system| {
            Job::new(format!("fig14:{}", system.label()), move || {
                let (topo, fabric, spec) = setup();
                let mut driver = EbsDriver::new(spec, scale.seed, 1 << 40);
                driver.until = until - 10 * MS; // let tasks drain
                let (_, epilogue) = simulate(&scale, topo, fabric, Sim::of(system), |r| {
                    r.run(until, SLICE, &mut [&mut driver])
                });
                // The paper's bound at 10 G: 2 ms average, 10 ms tail.
                let stats_rows = [
                    ("SA", &driver.sa_tct),
                    ("BA", &driver.ba_tct),
                    ("Total", &driver.total_tct),
                    ("GC", &driver.gc_tct),
                ];
                let mut rows = Vec::new();
                for (name, stats) in stats_rows {
                    if stats.is_empty() {
                        continue;
                    }
                    let avg = stats.mean();
                    let p99 = stats.percentile(99.0).unwrap();
                    let within = avg <= 2e6 && p99 <= 10e6;
                    rows.push([
                        system.label().to_string(),
                        name.to_string(),
                        format!("{:.3}", avg / 1e6),
                        format!("{:.3}", p99 / 1e6),
                        stats.count().to_string(),
                        within.to_string(),
                    ]);
                }
                (rows, epilogue)
            })
        })
        .collect();
    for (rows, epilogue) in run_jobs(jobs) {
        print!("{epilogue}");
        for row in rows {
            table.row(row);
        }
    }
    emit(
        "fig14_ebs",
        "Fig 14: EBS task completion times (bound: avg 2ms / tail 10ms)",
        &table,
    );
    table
}
