//! Type-4 failure notifications (Appendix G): with probe bouncing enabled
//! the edge learns about a dead link in under one RTT and migrates much
//! faster than the 8×baseRTT probe-loss timeout.

use experiments::harness::{Runner, SystemKind, SLICE};
use netsim::{FaultKind, FaultPlan, Time, MS};
use topology::TestbedCfg;
use ufab::FabricSpec;
use workloads::driver::Driver;
use workloads::patterns::BulkDriver;

fn recovery_gap(bounce: bool) -> Time {
    let topo = topology::testbed(TestbedCfg::default());
    let dst = *topo.hosts.last().unwrap();
    let core1 = topo.cores[0];
    let mut fabric = FabricSpec::new(500e6);
    let mut pairs = Vec::new();
    let mut jobs = Vec::new();
    for i in 0..4 {
        let t = fabric.add_tenant(&format!("vf{i}"), 2.0);
        let src = topo.hosts[i];
        let v0 = fabric.add_vm(t, src);
        let v1 = fabric.add_vm(t, dst);
        let p = fabric.add_pair(v0, v1);
        pairs.push(p);
        jobs.push((MS, src, p, 400_000_000u64, 0u32));
    }
    let fail_at = 12 * MS;
    let until = 40 * MS;
    let mut r = Runner::new(topo, fabric, SystemKind::Ufab, 11, None, 200_000);
    r.sim.bounce_probes_on_failure = bounce;
    let fail = FaultKind::SwitchFail {
        node: core1,
        at: fail_at,
        recover_at: None,
    };
    r.sim.apply_chaos(&FaultPlan::new(11).fault(fail));
    let mut d = BulkDriver::new(jobs, 0);
    let mut drivers: [&mut dyn Driver; 1] = [&mut d];
    r.run(until, SLICE, &mut drivers);
    // Longest per-pair delivery gap straddling the failure instant.
    let rec = r.rec.lock().unwrap();
    let bin = 200_000u64; // recorder resolution
    let mut worst_gap = 0u64;
    for &p in &pairs {
        let series = rec.pair_rates.get(&p.raw()).expect("pair delivered");
        let fail_bin = (fail_at / bin) as usize;
        let end_bin = (until / bin) as usize;
        // First bin after the failure with nonzero delivery.
        let mut recovered = end_bin;
        for b in fail_bin..end_bin {
            if series.rate_at(b) > 0.0 {
                recovered = b;
                // A gap can also start later (packets in flight drained
                // first); find the longest zero-run in the window.
            }
        }
        let mut run = 0u64;
        let mut max_run = 0u64;
        for b in fail_bin..end_bin {
            if series.rate_at(b) == 0.0 {
                run += 1;
                max_run = max_run.max(run);
            } else {
                run = 0;
            }
        }
        worst_gap = worst_gap.max(max_run * bin);
        let _ = recovered;
    }
    worst_gap
}

#[test]
fn bounce_speeds_up_failure_recovery() {
    let with = recovery_gap(true);
    let without = recovery_gap(false);
    // Both must recover within the run.
    assert!(without < 20 * MS, "timeout path too slow: {without}");
    assert!(with < 20 * MS, "bounce path too slow: {with}");
    // The notification path should not be slower than timeouts.
    assert!(
        with <= without,
        "bounce ({with} ns) should beat timeout ({without} ns)"
    );
}
