//! `Timed` adapters: measure every agent callback and driver poll from
//! outside the program.
//!
//! A twin installs each agent wrapped in [`TimedEdge`] / [`TimedSwitch`].
//! The wrapper reads the clock around every callback, adds the call to
//! a [`Tally`], and forwards `as_any` to the inner agent, so
//! `sim.edge::<UfabEdge>()` and `try_switch_agent::<UfabCore>()` keep
//! working on a wrapped simulator. Agents of one logical process share a
//! tally (they run on one thread at a time); tallies of different LPs
//! sit on different cache lines so two shard workers never contend.

use netsim::agent::{EdgeAgent, EdgeCtx, PortView, SwitchAgent, SwitchCtx};
use netsim::msg::Inject;
use netsim::packet::Packet;
use netsim::Time;
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use workloads::driver::{Driver, WorkloadPort};

/// The callbacks that are told apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cb {
    EdgePacket,
    EdgeTimer,
    EdgeNicIdle,
    EdgeInject,
    /// `on_start` / `on_restart`: a handful of calls per run.
    EdgeOther,
    SwitchEgress,
    SwitchTimer,
    /// `on_start` / `on_reset`.
    SwitchOther,
    DriverPoll,
}

const N_CB: usize = 9;

const EDGE_CBS: [Cb; 5] = [
    Cb::EdgePacket,
    Cb::EdgeTimer,
    Cb::EdgeNicIdle,
    Cb::EdgeInject,
    Cb::EdgeOther,
];

/// Calls and nanoseconds per callback kind.
#[derive(Default)]
#[repr(align(128))]
pub struct Tally {
    calls: [AtomicU64; N_CB],
    ns: [AtomicU64; N_CB],
}

impl Tally {
    #[inline]
    fn time<R>(&self, cb: Cb, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        // Relaxed: statistics that publish no other data.
        self.ns[cb as usize].fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls[cb as usize].fetch_add(1, Ordering::Relaxed);
        out
    }

    pub fn calls(&self, cb: Cb) -> u64 {
        self.calls[cb as usize].load(Ordering::Relaxed)
    }

    pub fn seconds(&self, cb: Cb) -> f64 {
        self.ns[cb as usize].load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Fold `other` into `self` (per-LP tallies into one).
    pub fn absorb(&self, other: &Tally) {
        for i in 0..N_CB {
            self.calls[i].fetch_add(other.calls[i].load(Ordering::Relaxed), Ordering::Relaxed);
            self.ns[i].fetch_add(other.ns[i].load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// Seconds in every edge callback.
    pub fn edge_seconds(&self) -> f64 {
        EDGE_CBS.iter().map(|&cb| self.seconds(cb)).sum()
    }

    /// Calls into every edge callback.
    pub fn edge_calls(&self) -> u64 {
        EDGE_CBS.iter().map(|&cb| self.calls(cb)).sum()
    }

    /// Seconds in every callback and poll: what `Runner::run` spent
    /// outside `netsim`.
    pub fn all_seconds(&self) -> f64 {
        self.ns
            .iter()
            .map(|n| n.load(Ordering::Relaxed) as f64 / 1e9)
            .sum()
    }
}

pub struct TimedEdge {
    inner: Box<dyn EdgeAgent>,
    tally: Arc<Tally>,
}

impl TimedEdge {
    pub fn new(inner: Box<dyn EdgeAgent>, tally: Arc<Tally>) -> Self {
        Self { inner, tally }
    }
}

impl EdgeAgent for TimedEdge {
    fn on_start(&mut self, ctx: &mut EdgeCtx) {
        self.tally.time(Cb::EdgeOther, || self.inner.on_start(ctx))
    }
    fn on_packet(&mut self, ctx: &mut EdgeCtx, pkt: Packet) {
        self.tally
            .time(Cb::EdgePacket, || self.inner.on_packet(ctx, pkt))
    }
    fn on_timer(&mut self, ctx: &mut EdgeCtx, kind: u64) {
        self.tally
            .time(Cb::EdgeTimer, || self.inner.on_timer(ctx, kind))
    }
    fn on_nic_idle(&mut self, ctx: &mut EdgeCtx) {
        self.tally
            .time(Cb::EdgeNicIdle, || self.inner.on_nic_idle(ctx))
    }
    fn on_inject(&mut self, ctx: &mut EdgeCtx, msg: Inject) {
        self.tally
            .time(Cb::EdgeInject, || self.inner.on_inject(ctx, msg))
    }
    fn on_restart(&mut self, ctx: &mut EdgeCtx) {
        self.tally
            .time(Cb::EdgeOther, || self.inner.on_restart(ctx))
    }
    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

pub struct TimedSwitch {
    inner: Box<dyn SwitchAgent>,
    tally: Arc<Tally>,
}

impl TimedSwitch {
    pub fn new(inner: Box<dyn SwitchAgent>, tally: Arc<Tally>) -> Self {
        Self { inner, tally }
    }
}

impl SwitchAgent for TimedSwitch {
    fn on_start(&mut self, ctx: &mut SwitchCtx) {
        self.tally
            .time(Cb::SwitchOther, || self.inner.on_start(ctx))
    }
    fn on_egress(&mut self, ctx: &mut SwitchCtx, view: PortView, pkt: &mut Packet) {
        self.tally
            .time(Cb::SwitchEgress, || self.inner.on_egress(ctx, view, pkt))
    }
    fn on_timer(&mut self, ctx: &mut SwitchCtx, kind: u64) {
        self.tally
            .time(Cb::SwitchTimer, || self.inner.on_timer(ctx, kind))
    }
    fn on_reset(&mut self, ctx: &mut SwitchCtx) {
        self.tally
            .time(Cb::SwitchOther, || self.inner.on_reset(ctx))
    }
    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// A driver whose polls are tallied. Polls run on the caller's thread,
/// between simulator slices.
pub struct TimedDriver<'a> {
    pub inner: &'a mut dyn Driver,
    pub tally: &'a Tally,
}

impl Driver for TimedDriver<'_> {
    fn poll(&mut self, port: &mut dyn WorkloadPort, completions: &[metrics::recorder::Completion]) {
        self.tally
            .time(Cb::DriverPoll, || self.inner.poll(port, completions))
    }
    fn next_wake(&self) -> Time {
        self.inner.next_wake()
    }
    fn done(&self) -> bool {
        self.inner.done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use experiments::harness::{Runner, SystemKind};
    use netsim::MS;
    use ufab::endpoint::AppMsg;
    use ufab::{CoreHwCfg, FabricSpec, UfabConfig, UfabCore, UfabEdge};

    /// Wrapping must be invisible to the downcasts the experiment code
    /// relies on, and the wrapped agents must still do their job.
    #[test]
    fn wrapped_agents_downcast_and_carry_traffic() {
        let topo = topology::dumbbell(1, 10, 10);
        let mut fabric = FabricSpec::new(500e6);
        let t = fabric.add_tenant("t", 2.0);
        let a = fabric.add_vm(t, topo.hosts[0]);
        let b = fabric.add_vm(t, topo.hosts[1]);
        let pair = fabric.add_pair(a, b);
        let mut r = Runner::new(topo, fabric, SystemKind::Ufab, 1, None, MS);
        let tally = Arc::new(Tally::default());
        let cfg = UfabConfig::default();
        for &h in &r.topo.hosts.clone() {
            let inner = UfabEdge::new(
                cfg.clone(),
                Arc::clone(&r.topo),
                Arc::clone(&r.fabric),
                Arc::clone(&r.rec),
                h,
            );
            r.sim.set_edge_agent(
                h,
                Box::new(TimedEdge::new(Box::new(inner), Arc::clone(&tally))),
            );
        }
        let switches: Vec<_> = r.topo.tors.iter().chain(&r.topo.aggs).copied().collect();
        for &s in &switches {
            let inner = UfabCore::with_hw(CoreHwCfg::from(&cfg));
            r.sim.set_switch_agent(
                s,
                Box::new(TimedSwitch::new(Box::new(inner), Arc::clone(&tally))),
            );
        }
        let h0 = r.topo.hosts[0];
        r.sim.start();
        r.sim.inject(h0, AppMsg::oneway(1, pair, 2_000_000, 0));
        r.sim.run_until(5 * MS);

        assert!(r.sim.try_edge::<UfabEdge>(h0).is_some());
        assert!(r.sim.edge::<UfabEdge>(h0).ep.acked_bytes(pair) > 0);
        assert!(r.sim.try_edge::<TimedEdge>(h0).is_none());
        for &s in &switches {
            assert!(r.sim.try_switch_agent::<UfabCore>(s).is_some());
        }
        let _: &mut UfabEdge = r.sim.edge_mut::<UfabEdge>(h0);
        assert_eq!(tally.calls(Cb::EdgeInject), 1);
        assert!(tally.calls(Cb::EdgePacket) > 100);
        assert!(tally.calls(Cb::SwitchEgress) > 100);
        assert!(tally.seconds(Cb::EdgePacket) > 0.0);
        assert!(tally.all_seconds() >= tally.edge_seconds());
    }
}
