//! Repo-level integration tests: the full stack (topology → simulator →
//! μFAB agents → workloads → metrics) against the paper's design goals
//! and the analytic references.

use experiments::harness::{Runner, SystemKind, SLICE};
use netsim::{FaultKind, FaultPlan, NodeId, PairId, Time, MS};
use topology::TestbedCfg;
use ufab::endpoint::AppMsg;
use ufab::theory::{weighted_max_min, TheoryFlow};
use ufab::FabricSpec;
use workloads::driver::Driver;
use workloads::patterns::BulkDriver;

/// Steady-state μFAB rates track the weighted max-min reference on a
/// parking-lot contention structure.
#[test]
fn ufab_tracks_weighted_max_min() {
    // Testbed; three VFs with tokens 2/4/6 all sending into host S5
    // (shared bottleneck = its 10 G downlink).
    let topo = topology::testbed(TestbedCfg::default());
    let dst = topo.hosts[4];
    let mut fabric = FabricSpec::new(500e6);
    let tokens = [2.0, 4.0, 6.0];
    let mut pairs = Vec::new();
    let mut jobs = Vec::new();
    for (i, &tok) in tokens.iter().enumerate() {
        let t = fabric.add_tenant(&format!("t{i}"), tok);
        let src = topo.hosts[i];
        let v0 = fabric.add_vm(t, src);
        let v1 = fabric.add_vm(t, dst);
        let p = fabric.add_pair(v0, v1);
        pairs.push(p);
        jobs.push((MS, src, p, 500_000_000u64, 0u32));
    }
    let mut r = Runner::new(topo, fabric, SystemKind::Ufab, 1, None, MS);
    let mut d = BulkDriver::new(jobs, 0);
    let mut drivers: [&mut dyn Driver; 1] = [&mut d];
    r.run(40 * MS, SLICE, &mut drivers);

    // Reference: one 9.5 G link shared by tokens 2:4:6.
    let ideal = weighted_max_min(
        &[9.5e9],
        &[
            TheoryFlow::elastic(2.0, vec![0]),
            TheoryFlow::elastic(4.0, vec![0]),
            TheoryFlow::elastic(6.0, vec![0]),
        ],
    );
    for (i, &p) in pairs.iter().enumerate() {
        let measured = r.pair_rate(p, 20 * MS, 40 * MS);
        let err = (measured - ideal[i]).abs() / ideal[i];
        assert!(
            err < 0.25,
            "pair {i}: measured {:.2}G vs ideal {:.2}G",
            measured / 1e9,
            ideal[i] / 1e9
        );
    }
}

/// A hungry unguaranteed-ish tenant (1 token) cannot starve a guaranteed
/// tenant sharing its bottleneck — on μFAB. The guaranteed tenant keeps
/// ≥ 85 % of its guarantee.
#[test]
fn adversarial_background_cannot_starve_guarantee() {
    let topo = topology::testbed(TestbedCfg::default());
    let dst = topo.hosts[6];
    let mut fabric = FabricSpec::new(500e6);
    let vip = fabric.add_tenant("vip", 8.0); // 4 Gbps guarantee
    let hog = fabric.add_tenant("hog", 1.0); // 0.5 Gbps guarantee
    let vip_src = fabric.add_vm(vip, topo.hosts[0]);
    let vip_dst = fabric.add_vm(vip, dst);
    let vip_pair = fabric.add_pair(vip_src, vip_dst);
    let mut jobs = vec![(5 * MS, topo.hosts[0], vip_pair, 400_000_000u64, 0u32)];
    // Four hog pairs from different hosts, all into the same destination,
    // starting earlier so they already own the path.
    for i in 1..5 {
        let s = fabric.add_vm(hog, topo.hosts[i]);
        let d = fabric.add_vm(hog, dst);
        let p = fabric.add_pair(s, d);
        jobs.push((MS, topo.hosts[i], p, 400_000_000u64, 0u32));
    }
    let mut r = Runner::new(topo, fabric, SystemKind::Ufab, 3, None, MS);
    let mut d = BulkDriver::new(jobs, 0);
    let mut drivers: [&mut dyn Driver; 1] = [&mut d];
    r.run(40 * MS, SLICE, &mut drivers);
    let vip_rate = r.pair_rate(vip_pair, 20 * MS, 40 * MS);
    assert!(
        vip_rate > 0.85 * 4e9,
        "vip got {:.2}G of its 4G guarantee",
        vip_rate / 1e9
    );
}

/// Core-switch failure: every VF recovers via path migration; the fabric
/// keeps serving all of them at ≥ 70 % of guarantee after the failure.
#[test]
fn core_failure_recovers_all_vfs() {
    let topo = topology::testbed(TestbedCfg::default());
    let dst = *topo.hosts.last().unwrap();
    let core1 = topo.cores[0];
    let mut fabric = FabricSpec::new(500e6);
    let mut pairs = Vec::new();
    let mut jobs = Vec::new();
    for i in 0..6 {
        let t = fabric.add_tenant(&format!("vf{i}"), 2.0); // 1 G each
        let src = topo.hosts[i];
        let v0 = fabric.add_vm(t, src);
        let v1 = fabric.add_vm(t, dst);
        let p = fabric.add_pair(v0, v1);
        pairs.push(p);
        jobs.push((MS, src, p, 400_000_000u64, 0u32));
    }
    let fail_at = 15 * MS;
    let until = 45 * MS;
    let mut r = Runner::new(topo, fabric, SystemKind::Ufab, 4, None, MS);
    let fail = FaultKind::SwitchFail {
        node: core1,
        at: fail_at,
        recover_at: None,
    };
    r.sim.apply_chaos(&FaultPlan::new(4).fault(fail));
    let mut d = BulkDriver::new(jobs, 0);
    let mut drivers: [&mut dyn Driver; 1] = [&mut d];
    r.run(until, SLICE, &mut drivers);
    for (i, &p) in pairs.iter().enumerate() {
        let after = r.pair_rate(p, fail_at + 10 * MS, until);
        assert!(
            after > 0.7e9,
            "vf{i} got {:.2}G after the core failure",
            after / 1e9
        );
    }
    assert!(
        r.rec.lock().unwrap().path_migrations > 0,
        "no migrations happened"
    );
}

/// The whole harness is deterministic end-to-end for every system.
#[test]
fn harness_deterministic_per_system() {
    for system in [SystemKind::Ufab, SystemKind::Pwc, SystemKind::EsClove] {
        let run = || {
            let topo = topology::dumbbell(2, 10, 10);
            let mut fabric = FabricSpec::new(500e6);
            let t = fabric.add_tenant("t", 4.0);
            let a0 = fabric.add_vm(t, topo.hosts[0]);
            let a1 = fabric.add_vm(t, topo.hosts[2]);
            let b0 = fabric.add_vm(t, topo.hosts[1]);
            let b1 = fabric.add_vm(t, topo.hosts[3]);
            let p0 = fabric.add_pair(a0, a1);
            let p1 = fabric.add_pair(b0, b1);
            // The two 300 KB messages complete inside the run (the 30 MB
            // ones do not), so the compared history is not empty.
            let jobs = vec![
                (0, topo.hosts[0], p0, 300_000u64, 0u32),
                (0, topo.hosts[1], p1, 300_000u64, 0u32),
                (MS, topo.hosts[0], p0, 30_000_000u64, 0u32),
                (2 * MS, topo.hosts[1], p1, 30_000_000u64, 0u32),
            ];
            let mut r = Runner::new(topo, fabric, system, 9, None, MS);
            let mut d = BulkDriver::new(jobs, 0);
            let mut done = Vec::new();
            let mut drivers: [&mut dyn Driver; 2] = [&mut d, &mut done];
            r.run(25 * MS, SLICE, &mut drivers);
            let delivered = r.rec.lock().unwrap().delivered_bytes;
            (delivered, done, r.sim.stats().events)
        };
        let first = run();
        assert_eq!(first.1.len(), 2, "{}: {:?}", system.label(), first.1);
        assert_eq!(first, run(), "{} not deterministic", system.label());
    }
}

/// RPC round-trips work across the full stack on every system, and query
/// completion times are end-to-end (request submit → reply delivered).
#[test]
fn rpc_roundtrip_all_systems() {
    for system in [
        SystemKind::Ufab,
        SystemKind::UfabPrime,
        SystemKind::Pwc,
        SystemKind::EsClove,
    ] {
        let topo = topology::testbed(TestbedCfg::default());
        let mut fabric = FabricSpec::new(500e6);
        let t = fabric.add_tenant("rpc", 4.0);
        let c = fabric.add_vm(t, topo.hosts[0]);
        let s = fabric.add_vm(t, topo.hosts[5]);
        let (req, _resp) = fabric.add_pair_bidir(c, s);
        let client_host = topo.hosts[0];
        let mut r = Runner::new(topo, fabric, system, 5, None, MS);
        r.sim.start();
        r.sim
            .inject(client_host, AppMsg::request(7, req, 200, 100_000, 42));
        r.sim.run_until(20 * MS);
        let reply = r
            .rec
            .lock()
            .unwrap()
            .drain_new_completions()
            .into_iter()
            .find(|c| c.flow & ufab::endpoint::REPLY_FLAG != 0)
            .unwrap_or_else(|| panic!("{}: no reply completed", system.label()));
        assert_eq!(reply.bytes, 100_000);
        assert_eq!(reply.tag, 42);
        // End-to-end QCT: bounded by a handful of RTTs + transfer time.
        assert!(
            reply.fct() < 5 * MS,
            "{}: qct {}us",
            system.label(),
            reply.fct() / 1000
        );
    }
}

/// Queue occupancy under a μFAB incast stays within the §3.4 bound
/// (≈3 BDP of the bottleneck) — measured directly at the switch queues.
#[test]
fn incast_queue_within_3bdp_bound() {
    let topo = topology::testbed(TestbedCfg::default());
    let base_rtt = topo.max_base_rtt();
    let dst = *topo.hosts.last().unwrap();
    let mut fabric = FabricSpec::new(500e6);
    let mut jobs: Vec<(Time, NodeId, PairId, u64, u32)> = Vec::new();
    for i in 0..12 {
        let t = fabric.add_tenant(&format!("vf{i}"), 1.0);
        let src = topo.hosts[i % 7];
        let v0 = fabric.add_vm(t, src);
        let v1 = fabric.add_vm(t, dst);
        let p = fabric.add_pair(v0, v1);
        jobs.push((MS, src, p, 20_000_000, 0));
    }
    let mut r = Runner::new(topo, fabric, SystemKind::Ufab, 6, None, MS);
    r.watch_all_switch_queues();
    let mut d = BulkDriver::new(jobs, 0);
    let mut drivers: [&mut dyn Driver; 1] = [&mut d];
    r.run(30 * MS, SLICE, &mut drivers);
    let bdp = 10e9 * (base_rtt as f64 / 1e9) / 8.0;
    let q999 = r.queue_samples.percentile(99.9).unwrap();
    assert!(
        q999 < 3.5 * bdp,
        "q99.9 {:.0}B exceeds 3 BDP ({:.0}B)",
        q999,
        3.0 * bdp
    );
}
