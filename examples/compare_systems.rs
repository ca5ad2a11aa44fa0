//! Compare μFAB against the paper's baselines on one scenario.
//!
//! Runs the same staggered-join permutation (three guarantee classes, the
//! Fig 11 pattern) under all four systems — μFAB, μFAB′,
//! PicNIC′+WCC+Clove, ElasticSwitch+Clove — and prints each system's
//! bandwidth-dissatisfaction ratio, aggregate throughput and queue tail.
//!
//! ```sh
//! cargo run --release --example compare_systems
//! ```

use experiments::harness::{Runner, SystemKind, SLICE};
use metrics::DissatisfactionMeter;
use netsim::{NodeId, PairId, Time, MS};
use topology::TestbedCfg;
use ufab::FabricSpec;
use workloads::driver::Driver;
use workloads::patterns::BulkDriver;

fn build() -> (topology::Topo, FabricSpec, Vec<(Time, NodeId, PairId, u64)>) {
    let topo = topology::testbed(TestbedCfg::default());
    let mut fabric = FabricSpec::new(500e6);
    let mut vfs = Vec::new();
    let classes = [(1u64, 2.0), (2, 4.0), (5, 10.0)];
    let mut k = 0;
    for hi in 0..4 {
        for &(gbps, tokens) in &classes {
            let t = fabric.add_tenant(&format!("{gbps}G-h{hi}"), tokens);
            let src = topo.hosts[hi];
            let v0 = fabric.add_vm(t, src);
            let v1 = fabric.add_vm(t, topo.hosts[4 + hi]);
            let pair = fabric.add_pair(v0, v1);
            vfs.push((MS + k * 4 * MS, src, pair, gbps * 1_000_000_000));
            k += 1;
        }
    }
    (topo, fabric, vfs)
}

fn main() {
    println!("staggered permutation, classes 1/2/5 Gbps, one VF joins every 4 ms\n");
    println!(
        "{:<20} {:>12} {:>10} {:>10}",
        "system", "dissat_pct", "agg_gbps", "q_p99_kb"
    );
    for system in [
        SystemKind::Pwc,
        SystemKind::EsClove,
        SystemKind::UfabPrime,
        SystemKind::Ufab,
    ] {
        let (topo, fabric, vfs) = build();
        let until = 80 * MS;
        let mut r = Runner::new(topo, fabric, system, 5, None, MS);
        r.watch_all_switch_queues();
        let jobs: Vec<_> = vfs
            .iter()
            .map(|&(at, src, pair, _)| (at, src, pair, 4_000_000_000u64, 0u32))
            .collect();
        let mut driver = BulkDriver::new(jobs, 0);
        let mut drivers: [&mut dyn Driver; 1] = [&mut driver];
        r.run(until, SLICE, &mut drivers);
        let rec = r.rec.lock().unwrap();
        let mut meter = DissatisfactionMeter::new();
        for b in 0..(until / MS) as usize {
            let t = b as Time * MS;
            let entries: Vec<(f64, f64, f64)> = vfs
                .iter()
                .filter(|&&(at, _, _, _)| t >= at)
                .map(|&(_, _, pair, guar)| {
                    let rate = rec
                        .pair_rates
                        .get(&pair.raw())
                        .map(|s| s.rate_at(b))
                        .unwrap_or(0.0);
                    (rate, guar as f64, f64::INFINITY)
                })
                .collect();
            meter.observe(MS, &entries);
        }
        let agg: f64 = vfs
            .iter()
            .map(|&(_, _, p, _)| {
                rec.pair_rates
                    .get(&p.raw())
                    .map(|s| s.avg_rate(until - 10 * MS, until))
                    .unwrap_or(0.0)
            })
            .sum();
        drop(rec);
        let q = &r.queue_samples;
        println!(
            "{:<20} {:>12.2} {:>10.2} {:>10.1}",
            system.label(),
            meter.ratio() * 100.0,
            agg / 1e9,
            q.percentile(99.0).unwrap_or(0.0) / 1e3
        );
    }
    println!("\nuFAB should show the lowest dissatisfaction at full aggregate and a ~10x smaller queue tail.");
}
