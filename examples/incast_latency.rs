//! Incast with bounded tail latency (the paper's Case-1 / Fig 4).
//!
//! 14 VFs with 500 Mbps guarantees start transmitting to the same host at
//! the same instant on the paper's 8-server testbed. Runs the experiment
//! twice — μFAB with the §3.4 two-stage admission and the μFAB′ ablation
//! without it — and prints the RTT distribution of each: the two-stage
//! admission is what turns "fast convergence" into "bounded tail".
//!
//! ```sh
//! cargo run --release --example incast_latency
//! ```

use experiments::harness::{Runner, SystemKind, SLICE};
use netsim::{NodeId, PairId, Time, MS};
use topology::TestbedCfg;
use ufab::FabricSpec;
use workloads::driver::Driver;
use workloads::patterns::BulkDriver;

fn run_one(system: SystemKind) -> (f64, f64, f64) {
    let topo = topology::testbed(TestbedCfg::default());
    let dst = *topo.hosts.last().unwrap();
    let mut fabric = FabricSpec::new(500e6);
    let mut jobs: Vec<(Time, NodeId, PairId, u64, u32)> = Vec::new();
    for i in 0..14 {
        let t = fabric.add_tenant(&format!("vf{i}"), 1.0); // 500 Mbps
        let src = topo.hosts[i % 7];
        let v0 = fabric.add_vm(t, src);
        let v1 = fabric.add_vm(t, dst);
        let pair = fabric.add_pair(v0, v1);
        jobs.push((MS, src, pair, 20_000_000, 0));
    }
    let mut runner = Runner::new(topo, fabric, system, 7, None, MS);
    let mut driver = BulkDriver::new(jobs, 0);
    let mut drivers: [&mut dyn Driver; 1] = [&mut driver];
    runner.run(30 * MS, SLICE, &mut drivers);
    let rec = runner.rec.lock().unwrap();
    let rtts = &rec.rtts;
    (
        rtts.median().unwrap_or(f64::NAN) / 1e3,
        rtts.percentile(99.9).unwrap_or(f64::NAN) / 1e3,
        rtts.max().unwrap_or(f64::NAN) / 1e3,
    )
}

fn main() {
    println!("14-to-1 incast, synchronized start, 500 Mbps guarantees\n");
    println!(
        "{:<8} {:>10} {:>10} {:>10}",
        "system", "p50_us", "p99.9_us", "max_us"
    );
    for system in [SystemKind::UfabPrime, SystemKind::Ufab] {
        let (p50, p999, max) = run_one(system);
        println!(
            "{:<8} {:>10.1} {:>10.1} {:>10.1}",
            system.label(),
            p50,
            p999,
            max
        );
    }
    println!("\nThe bounded-latency stage (uFAB vs uFAB') caps the worst case:");
    println!("§3.4 bounds inflight traffic to 3 BDP, so RTT ≤ ~4 baseRTT (~96 us here).");
}
