//! Invariant-checker coverage: a clean μFAB run passes every checker,
//! and each checker fires when the matching state is deliberately
//! corrupted through the fault-injection hooks.

use experiments::harness::{Runner, SystemKind, SLICE};
use experiments::scenarios::common::incast_on_testbed;
use netsim::{FaultKind, FaultPlan, NodeId, PairId, PortNo, Time, MS};
use obs::InvariantSuite;
use topology::TestbedCfg;
use ufab::invariants::{
    BoundedQueueWatchdog, EdgeAccounting, PacketArenaBalance, ReadySetSound, RegisterConservation,
};
use ufab::{UfabCore, UfabEdge};
use workloads::driver::Driver;
use workloads::patterns::BulkDriver;

/// Short 4-to-1 incast with tracing on; returns the runner plus the
/// source hosts and pairs for targeted corruption.
fn warm_run() -> (Runner, Vec<NodeId>, Vec<PairId>) {
    let (topo, fabric, srcs, pairs, _dst) = incast_on_testbed(4, TestbedCfg::default(), 1.0, 500e6);
    let mut r = Runner::new(topo, fabric, SystemKind::Ufab, 3, None, MS);
    r.enable_trace(4096);
    let jobs: Vec<(Time, NodeId, PairId, u64, u32)> = srcs
        .iter()
        .zip(&pairs)
        .map(|(&s, &p)| (MS, s, p, 4_000_000, 0))
        .collect();
    let mut driver = BulkDriver::new(jobs, 0);
    let mut drivers: [&mut dyn Driver; 1] = [&mut driver];
    r.run(6 * MS, SLICE, &mut drivers);
    (r, srcs, pairs)
}

#[test]
fn clean_run_passes_all_checkers() {
    let (topo, fabric, srcs, pairs, _dst) = incast_on_testbed(4, TestbedCfg::default(), 1.0, 500e6);
    let mut r = Runner::new(topo, fabric, SystemKind::Ufab, 3, None, MS);
    r.enable_trace(4096);
    r.enable_invariants(MS / 4, None);
    let jobs: Vec<(Time, NodeId, PairId, u64, u32)> = srcs
        .iter()
        .zip(&pairs)
        .map(|(&s, &p)| (MS, s, p, 4_000_000, 0))
        .collect();
    let mut driver = BulkDriver::new(jobs, 0);
    let mut drivers: [&mut dyn Driver; 1] = [&mut driver];
    r.run(6 * MS, SLICE, &mut drivers);
    let evals = r.invariants.as_ref().unwrap().evaluations();
    assert!(evals > 0, "suite must have been evaluated");
    assert_eq!(
        r.invariant_violations(),
        0,
        "clean run must not violate invariants:\n{}",
        r.invariant_report()
    );
}

#[test]
fn register_conservation_fires_on_corrupted_register() {
    let (mut r, _srcs, _pairs) = warm_run();
    // Find a switch whose core agent has touched ports, then bump Φ_l
    // away from the per-pair shadow sum.
    let n = r.sim.n_nodes();
    let victim = (0..n)
        .map(|i| NodeId(i as u32))
        .find(|&node| {
            r.sim
                .try_switch_agent::<UfabCore>(node)
                .is_some_and(|c| c.port_summaries().next().is_some())
        })
        .expect("some switch saw probes");
    let port = {
        let core = r.sim.switch_agent_mut::<UfabCore>(victim);
        let port = core.port_summaries().next().map(|(p, _)| p).unwrap();
        core.port_summary_mut(port)
            .unwrap()
            .registers
            .add_phi(1_000.0);
        port
    };

    let mut suite: InvariantSuite<netsim::Simulator> = InvariantSuite::new(1);
    suite.register(Box::new(RegisterConservation::default()));
    let now = r.sim.now();
    assert_eq!(suite.run(&r.sim, now, &r.obs), 1);
    let v = &suite.violations()[0];
    assert_eq!(v.invariant, "register-conservation");
    assert!(
        v.detail.contains(&format!("port {port}")),
        "detail names the corrupted port: {}",
        v.detail
    );
    assert!(
        !v.recent.is_empty(),
        "violation carries flight-recorder context"
    );
}

#[test]
fn edge_accounting_fires_on_phantom_inflight() {
    let (mut r, srcs, pairs) = warm_run();
    // Phantom bytes no ack can ever free: inflight now towers over any
    // admitted window, and keeps "growing" on the first evaluation
    // (no previous sample to compare against).
    let host = srcs[0];
    let pair = pairs[0];
    r.sim
        .edge_mut::<UfabEdge>(host)
        .ep
        .inject_inflight(pair, 1_000_000_000);

    let mut suite: InvariantSuite<netsim::Simulator> = InvariantSuite::new(1);
    suite.register(Box::new(EdgeAccounting::default()));
    let now = r.sim.now();
    assert_eq!(suite.run(&r.sim, now, &r.obs), 1);
    let v = &suite.violations()[0];
    assert_eq!(v.invariant, "edge-window-accounting");
    assert!(v.detail.contains("inflight"), "detail: {}", v.detail);
}

#[test]
fn edge_accounting_tolerates_draining_excess() {
    let (mut r, srcs, pairs) = warm_run();
    r.sim
        .edge_mut::<UfabEdge>(srcs[0])
        .ep
        .inject_inflight(pairs[0], 1_000_000_000);
    let mut suite: InvariantSuite<netsim::Simulator> = InvariantSuite::new(1);
    suite.register(Box::new(EdgeAccounting::default()));
    let now = r.sim.now();
    // First evaluation fires (excess appeared), but a second evaluation
    // with no further growth must stay quiet: inflight above a shrunken
    // window is legal while it drains.
    assert_eq!(suite.run(&r.sim, now, &r.obs), 1);
    assert_eq!(suite.run(&r.sim, now + 1, &r.obs), 0);
}

#[test]
fn ready_set_fires_on_a_cleared_bit_with_backlog() {
    let (mut r, srcs, pairs) = warm_run();
    let mut suite: InvariantSuite<netsim::Simulator> = InvariantSuite::new(1);
    suite.register(Box::new(ReadySetSound));
    let now = r.sim.now();
    assert_eq!(suite.run(&r.sim, now, &r.obs), 0, "sound before corruption");
    // Mid-incast the pair still has megabytes queued; with its bit
    // cleared the pump would skip it forever.
    let ep = &mut r.sim.edge_mut::<UfabEdge>(srcs[0]).ep;
    assert!(ep.sendable(pairs[0]) && ep.peek_segment(pairs[0]).is_some());
    ep.corrupt_ready_bit(pairs[0]);
    assert_eq!(suite.run(&r.sim, now + 1, &r.obs), 1);
    let v = &suite.violations()[0];
    assert_eq!(v.invariant, "ready-set-sound");
    assert!(
        v.detail.contains("ready bit clear") && v.detail.contains(&format!("{}", pairs[0])),
        "detail: {}",
        v.detail
    );
}

#[test]
fn queue_watchdog_fires_on_runaway_queue() {
    let (mut r, _srcs, _pairs) = warm_run();
    // Stuff a switch port far past any BDP bound.
    let tor = r.topo.tors[0];
    r.sim.port_mut(tor, PortNo(0)).q_bytes = 500_000_000;

    let mut suite: InvariantSuite<netsim::Simulator> = InvariantSuite::new(1);
    suite.register(Box::new(BoundedQueueWatchdog::new(10_000, 3.0)));
    let now = r.sim.now();
    assert_eq!(suite.run(&r.sim, now, &r.obs), 1);
    let v = &suite.violations()[0];
    assert_eq!(v.invariant, "bounded-queue-watchdog");
    assert!(v.detail.contains("BDP"), "detail: {}", v.detail);
}

#[test]
fn arena_balance_fires_on_leaked_box() {
    let (r, _srcs, _pairs) = warm_run();
    // A leak is simulated by accounting, not by corrupting the arena:
    // claim one more packet in flight than the arena handed out.
    let stats = r.sim.arena_stats();
    let in_flight = r.sim.packets_in_flight();
    assert_eq!(
        stats.outstanding(),
        in_flight,
        "warm run must already balance"
    );
    let mut suite: InvariantSuite<netsim::Simulator> = InvariantSuite::new(1);
    suite.register(Box::new(PacketArenaBalance));
    let now = r.sim.now();
    assert_eq!(suite.run(&r.sim, now, &r.obs), 0, "balanced sim is clean");
}

/// Soak the arena ledger through the harshest fault path: a whole-switch
/// failure drops every queued packet on the failed ports and the reboot
/// wipes the agent — each dropped box must come back to the arena, or
/// `outstanding` drifts away from `packets_in_flight` forever.
#[test]
fn arena_balance_survives_switch_fail_soak() {
    let (topo, fabric, srcs, pairs, _dst) = incast_on_testbed(4, TestbedCfg::default(), 1.0, 500e6);
    let victim = topo.tors[0];
    let mut r = Runner::new(topo, fabric, SystemKind::Ufab, 5, None, MS);
    r.enable_invariants(MS / 8, Some((5 * MS, 60 * MS)));
    let plan = FaultPlan::new(5).fault(FaultKind::SwitchFail {
        node: victim,
        at: 2 * MS,
        recover_at: Some(4 * MS),
    });
    r.sim.apply_chaos(&plan);
    let jobs: Vec<(Time, NodeId, PairId, u64, u32)> = srcs
        .iter()
        .zip(&pairs)
        .map(|(&s, &p)| (MS, s, p, 8_000_000, 0))
        .collect();
    let mut driver = BulkDriver::new(jobs, 0);
    let mut drivers: [&mut dyn Driver; 1] = [&mut driver];
    r.run(10 * MS, SLICE, &mut drivers);

    assert!(
        r.sim.chaos_stats().switch_wipes >= 1,
        "the switch must actually have failed and rebooted"
    );
    assert_eq!(
        r.invariant_violations(),
        0,
        "chaos soak must stay clean:\n{}",
        r.invariant_report()
    );
    let stats = r.sim.arena_stats();
    assert_eq!(
        stats.outstanding(),
        r.sim.packets_in_flight(),
        "every box dropped by the switch wipe must return to the arena \
         ({stats:?})"
    );
    assert!(
        stats.recycled > stats.fresh,
        "steady state must be recycle-dominated: {stats:?}"
    );
}
