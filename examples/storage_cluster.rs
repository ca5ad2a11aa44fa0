//! A storage cluster on a predictable fabric (the paper's EBS scenario).
//!
//! Three cooperating task classes — Storage Agents writing 64 KB blocks,
//! Block Agents replicating them 3-way, and a Garbage-Collection loop —
//! each run as their own VF with its own guarantee (SA 2 G, BA 6 G,
//! GC 1 G). Prints the task-completion-time distribution against the
//! paper's 10 G latency bound (2 ms average, 10 ms tail).
//!
//! ```sh
//! cargo run --release --example storage_cluster
//! ```

use experiments::harness::{Runner, SystemKind, SLICE};
use netsim::MS;
use topology::TestbedCfg;
use ufab::FabricSpec;
use workloads::driver::Driver;
use workloads::ebs::{EbsDriver, EbsSpec};

fn main() {
    let topo = topology::testbed(TestbedCfg::default());
    let h = topo.hosts.clone();
    let mut fabric = FabricSpec::new(500e6);
    let sa_t = fabric.add_tenant("SA", 4.0);
    let ba_t = fabric.add_tenant("BA", 12.0);
    let gc_t = fabric.add_tenant("GC", 2.0);
    let sa_vms: Vec<_> = (0..4).map(|i| fabric.add_vm(sa_t, h[i])).collect();
    let ba_vms: Vec<_> = (0..4).map(|i| fabric.add_vm(ba_t, h[4 + i])).collect();
    let cs_vms: Vec<_> = (0..4).map(|i| fabric.add_vm(ba_t, h[4 + i])).collect();
    let gcs_vms: Vec<_> = (0..4).map(|i| fabric.add_vm(gc_t, h[4 + i])).collect();
    let cs_gc: Vec<_> = (0..4).map(|i| fabric.add_vm(gc_t, h[4 + i])).collect();

    let mut sa = Vec::new();
    for &s in &sa_vms {
        let host = fabric.vm(s).host;
        let pairs: Vec<_> = ba_vms.iter().map(|&b| fabric.add_pair(s, b)).collect();
        sa.push((host, pairs));
    }
    let mut ba = Vec::new();
    for &b in &ba_vms {
        let host = fabric.vm(b).host;
        let remote: Vec<_> = cs_vms
            .iter()
            .copied()
            .filter(|&c| fabric.vm(c).host != host)
            .collect();
        let pairs: Vec<_> = remote.iter().map(|&c| fabric.add_pair(b, c)).collect();
        ba.push((host, pairs));
    }
    let mut gc = Vec::new();
    for &g in &gcs_vms {
        let host = fabric.vm(g).host;
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        for &c in &cs_gc {
            if fabric.vm(c).host == host {
                continue;
            }
            let (req, _) = fabric.add_pair_bidir(g, c);
            reads.push(req);
            writes.push(fabric.add_pair(g, c));
        }
        gc.push((host, reads, writes));
    }

    let mut r = Runner::new(topo, fabric, SystemKind::Ufab, 11, None, MS);
    let mut driver = EbsDriver::new(EbsSpec { sa, ba, gc }, 11, 1 << 40);
    driver.until = 50 * MS;
    let mut drivers: [&mut dyn Driver; 1] = [&mut driver];
    r.run(60 * MS, SLICE, &mut drivers);

    println!("EBS on uFAB — task completion times (bound: avg ≤ 2 ms, tail ≤ 10 ms)\n");
    println!("{:<8} {:>9} {:>9} {:>6}", "task", "avg_ms", "p99_ms", "n");
    for (name, stats) in [
        ("SA", &driver.sa_tct),
        ("BA", &driver.ba_tct),
        ("Total", &driver.total_tct),
        ("GC", &driver.gc_tct),
    ] {
        if stats.is_empty() {
            continue;
        }
        println!(
            "{:<8} {:>9.3} {:>9.3} {:>6}",
            name,
            stats.mean() / 1e6,
            stats.percentile(99.0).unwrap() / 1e6,
            stats.count()
        );
    }
    println!("\ncompleted storage tasks: {}", driver.tasks_completed());
}
