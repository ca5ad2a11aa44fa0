//! Simulator assembly and the experiment run loop.

use baselines::edge::{BaselineCfg, BaselineEdge};
use metrics::recorder::{self, SharedRecorder};
use metrics::Percentiles;
use netsim::{NodeId, PairId, PortNo, Simulator, Time, US};
use obs::{InvariantSuite, ObsHandle};
use std::sync::Arc;
use topology::Topo;
use ufab::endpoint::AppMsg;
use ufab::invariants::{
    BoundedQueueWatchdog, EdgeAccounting, PacketArenaBalance, ReadySetSound, RegisterConservation,
    StaleRegistrationSweep, WedgedPairWatchdog,
};
use ufab::{CoreHwCfg, FabricSpec, UfabConfig, UfabCore, UfabEdge};
use workloads::driver::{Driver, WorkloadPort};

/// Which system runs on the edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// μFAB with the two-stage bounded-latency admission.
    Ufab,
    /// μFAB′ — the ablation without the latency bound (Fig 12/16).
    UfabPrime,
    /// PicNIC′ + weighted congestion control + Clove.
    Pwc,
    /// ElasticSwitch + Clove.
    EsClove,
}

impl SystemKind {
    /// Label used in the paper's legends.
    pub fn label(&self) -> &'static str {
        match self {
            SystemKind::Ufab => "uFAB",
            SystemKind::UfabPrime => "uFAB'",
            SystemKind::Pwc => "PicNIC'+WCC+Clove",
            SystemKind::EsClove => "ES+Clove",
        }
    }

    /// The three headline systems compared in most figures.
    pub fn headline() -> [SystemKind; 3] {
        [SystemKind::Pwc, SystemKind::EsClove, SystemKind::Ufab]
    }

    /// Whether this system uses the μFAB edge/core agents.
    pub fn is_ufab(&self) -> bool {
        matches!(self, SystemKind::Ufab | SystemKind::UfabPrime)
    }
}

/// A ready-to-run experiment: simulator + agents + recorder.
pub struct Runner {
    /// The simulator.
    pub sim: Simulator,
    /// The annotated topology.
    pub topo: Arc<Topo>,
    /// The fabric registry.
    pub fabric: Arc<FabricSpec>,
    /// The measurement sink every edge agent writes to.
    pub rec: SharedRecorder,
    /// `vec![rec.clone()]`. Until ROADMAP 1(f).
    #[doc(hidden)]
    pub recs: Vec<SharedRecorder>,
    /// System under test.
    pub system: SystemKind,
    /// Ports to sample queue depth from each slice: `(node, port)`.
    pub queue_watch: Vec<(NodeId, PortNo)>,
    /// Queue-depth samples in bytes (all watched ports pooled).
    pub queue_samples: Percentiles,
    /// Per-slice maximum watched queue depth time series `(t, bytes)`.
    pub queue_series: Vec<(Time, u64)>,
    /// Flight-recorder handle shared with the simulator and agents
    /// (disabled unless [`Runner::enable_trace`] is called).
    pub obs: ObsHandle,
    /// Online invariant checkers, evaluated between run slices when
    /// installed via [`Runner::enable_invariants`].
    pub invariants: Option<InvariantSuite<Simulator>>,
    /// Retired `(source host, pair)`s whose destination edge is told
    /// once the source has let go of them ([`Runner::retire`]).
    retiring: Vec<(NodeId, PairId)>,
}

impl Runner {
    /// Assemble a runner. `ufab_cfg` configures μFAB variants (pass
    /// `None` for defaults); baselines take their standard configs.
    /// `rate_bin` sets the recorder's rate-series resolution.
    pub fn new(
        topo: Topo,
        fabric: FabricSpec,
        system: SystemKind,
        seed: u64,
        ufab_cfg: Option<UfabConfig>,
        rate_bin: Time,
    ) -> Self {
        Self::new_full(topo, fabric, system, seed, ufab_cfg, None, rate_bin)
    }

    /// Like [`Runner::new`] with an explicit baseline configuration
    /// (e.g. Fig 5's 36 μs flowlet gap).
    pub(crate) fn new_full(
        mut topo: Topo,
        fabric: FabricSpec,
        system: SystemKind,
        seed: u64,
        ufab_cfg: Option<UfabConfig>,
        baseline_cfg: Option<BaselineCfg>,
        rate_bin: Time,
    ) -> Self {
        topo.install_ecmp();
        let net = topo.take_network();
        let topo = Arc::new(topo);
        let fabric = Arc::new(fabric);
        let mut sim = Simulator::new(net, seed);
        let rec = recorder::shared(rate_bin);
        let mut cfg = ufab_cfg.unwrap_or_default();
        match system {
            SystemKind::Ufab | SystemKind::UfabPrime => {
                if system == SystemKind::UfabPrime {
                    cfg.bounded_latency = false;
                }
                for &h in &topo.hosts {
                    sim.set_edge_agent(
                        h,
                        Box::new(UfabEdge::new(
                            cfg.clone(),
                            Arc::clone(&topo),
                            Arc::clone(&fabric),
                            Arc::clone(&rec),
                            h,
                        )),
                    );
                }
                for &s in topo
                    .tors
                    .iter()
                    .chain(topo.aggs.iter())
                    .chain(topo.cores.iter())
                {
                    sim.set_switch_agent(s, Box::new(UfabCore::with_hw(CoreHwCfg::from(&cfg))));
                }
            }
            SystemKind::Pwc | SystemKind::EsClove => {
                sim.stamp_util = true;
                let bcfg = baseline_cfg.unwrap_or_else(|| {
                    if system == SystemKind::Pwc {
                        BaselineCfg::pwc()
                    } else {
                        BaselineCfg::es_clove()
                    }
                });
                for &h in &topo.hosts {
                    let nic = topo.neighbors(h)[0].cap_bps;
                    sim.set_edge_agent(
                        h,
                        Box::new(BaselineEdge::new(
                            bcfg.clone(),
                            Arc::clone(&topo),
                            Arc::clone(&fabric),
                            Arc::clone(&rec),
                            h,
                            nic,
                        )),
                    );
                }
            }
        }
        Self {
            sim,
            topo,
            fabric,
            recs: vec![Arc::clone(&rec)],
            rec,
            system,
            queue_watch: Vec::new(),
            queue_samples: Percentiles::new(),
            queue_series: Vec::new(),
            obs: ObsHandle::disabled(),
            invariants: None,
            retiring: Vec::new(),
        }
    }

    /// Attach a flight recorder of `capacity` events to the simulator
    /// and every μFAB agent (baseline edges keep the simulator-level
    /// packet/link trace only), and start the determinism digest.
    pub fn enable_trace(&mut self, capacity: usize) {
        let obs = ObsHandle::recording(capacity);
        self.sim.set_obs(obs.clone());
        self.sim.enable_det_hash();
        if self.system.is_ufab() {
            for i in 0..self.topo.hosts.len() {
                let h = self.topo.hosts[i];
                self.sim.edge_mut::<UfabEdge>(h).set_obs(obs.clone());
            }
            let switches: Vec<NodeId> = self
                .topo
                .tors
                .iter()
                .chain(self.topo.aggs.iter())
                .chain(self.topo.cores.iter())
                .copied()
                .collect();
            for s in switches {
                self.sim
                    .switch_agent_mut::<UfabCore>(s)
                    .set_obs(obs.clone());
            }
        }
        self.obs = obs;
    }

    /// Register the standard invariant suite (register conservation,
    /// edge window accounting, bounded-queue watchdog), evaluated every
    /// `period` of simulated time between run slices.
    pub fn enable_invariants(&mut self, period: Time) {
        let mut suite = InvariantSuite::new(period);
        if self.system.is_ufab() {
            suite.register(Box::new(RegisterConservation::default()));
            suite.register(Box::new(EdgeAccounting::default()));
            suite.register(Box::new(ReadySetSound));
        }
        // Margin over the paper's ~3 BDP bound so the watchdog separates
        // "bounded" from "runaway".
        let rtt = self.diameter_rtt();
        suite.register(Box::new(BoundedQueueWatchdog::new(rtt, 6.0)));
        suite.register(Box::new(PacketArenaBalance));
        self.invariants = Some(suite);
    }

    /// Register the *fault-aware* invariant suite for chaos runs: the
    /// steady-state checks stay on, with tolerances widened to what a
    /// fault may legitimately cause, plus two liveness checks that only
    /// matter under faults:
    ///
    /// * register conservation must hold *through* switch wipes and edge
    ///   restarts (a wipe zeroes registers and registrations together);
    /// * leaked registrations (orphaned by a restart) must be reclaimed
    ///   by the §4.2 idle sweep within `2.5 ×` `cleanup_period` — never
    ///   grow unboundedly;
    /// * a pair with pending work must ack new bytes within `stall_ns`
    ///   (set above the longest injected outage + capped RTO backoff);
    /// * the queue watchdog gets a wide factor — link degradation
    ///   shrinks the BDP under a backlog built at full capacity — and
    ///   skips downed ports entirely.
    pub fn enable_chaos_invariants(&mut self, period: Time, cleanup_period: Time, stall_ns: Time) {
        let mut suite = InvariantSuite::new(period);
        if self.system.is_ufab() {
            suite.register(Box::new(RegisterConservation::default()));
            suite.register(Box::new(EdgeAccounting::default()));
            suite.register(Box::new(ReadySetSound));
            suite.register(Box::new(StaleRegistrationSweep::new(cleanup_period)));
            suite.register(Box::new(WedgedPairWatchdog::new(stall_ns)));
        }
        let rtt = self.diameter_rtt();
        suite.register(Box::new(BoundedQueueWatchdog::new(rtt, 40.0)));
        // Arena accounting must stay exact through every fault path:
        // switch-fail queue wipes, down-port drops, restart floods.
        suite.register(Box::new(PacketArenaBalance));
        self.invariants = Some(suite);
    }

    /// The fabric diameter as a round-trip time (max base RTT from the
    /// first host): what the queue watchdogs size their BDP off.
    fn diameter_rtt(&self) -> Time {
        let h0 = self.topo.hosts[0];
        self.topo
            .hosts
            .iter()
            .skip(1)
            .map(|&h| self.topo.base_rtt(h0, h))
            .max()
            .unwrap_or(10 * US)
            .max(1)
    }

    /// Number of invariant violations so far.
    pub fn invariant_violations(&self) -> usize {
        self.invariants
            .as_ref()
            .map(|s| s.violations().len())
            .unwrap_or(0)
    }

    /// Human-readable report of all violations (empty when clean).
    pub fn invariant_report(&self) -> String {
        self.invariants
            .as_ref()
            .map(|s| s.report())
            .unwrap_or_default()
    }

    fn check_invariants_if_due(&mut self) {
        if let Some(suite) = &mut self.invariants {
            let now = self.sim.now();
            if suite.due(now) {
                suite.run(&self.sim, now, &self.obs);
            }
        }
    }

    /// Watch every fabric (switch-to-switch and switch-to-host) egress
    /// queue.
    pub fn watch_all_switch_queues(&mut self) {
        let mut watch = Vec::new();
        for &sw in self
            .topo
            .tors
            .iter()
            .chain(self.topo.aggs.iter())
            .chain(self.topo.cores.iter())
        {
            for p in 0..self.sim.n_ports(sw) {
                watch.push((sw, PortNo(p as u16)));
            }
        }
        self.queue_watch = watch;
    }

    /// Advance to `until` in `slice` steps, polling `drivers` and sampling
    /// watched queues between slices.
    pub fn run(&mut self, until: Time, slice: Time, drivers: &mut [&mut dyn Driver]) {
        assert!(slice > 0);
        self.sim.start();
        // Initial poll lets drivers seed their first messages.
        let comps = self.rec.lock().unwrap().drain_new_completions();
        for d in drivers.iter_mut() {
            d.poll(self, &comps);
        }
        while self.sim.now() < until {
            let next_wake = drivers
                .iter()
                .map(|d| d.next_wake())
                .min()
                .unwrap_or(Time::MAX);
            let target = (self.sim.now() + slice)
                .min(until)
                .min(next_wake.max(self.sim.now() + 1));
            self.sim.run_until(target);
            let comps = self.rec.lock().unwrap().drain_new_completions();
            for d in drivers.iter_mut() {
                d.poll(self, &comps);
            }
            self.sample_queues();
            self.check_invariants_if_due();
        }
        // A retired pair's destination edge is told once its source has
        // let go of the pair.
        let (sim, fabric) = (&mut self.sim, &self.fabric);
        self.retiring.retain(|&(src, pair)| {
            let held = sim.edge::<UfabEdge>(src).holds(pair);
            if !held {
                let dst = fabric.pair_dst_host(pair);
                sim.edge_mut::<UfabEdge>(dst).retire(pair);
            }
            held
        });
    }

    /// Retire a reclaimed μFAB tenant's `(source host, pair)`s at their
    /// source edges; each destination edge is told at the end of the
    /// first [`Runner::run`] after its source let go of the pair (see
    /// `UfabEdge::retire`).
    pub fn retire(&mut self, pairs: &[(NodeId, PairId)]) {
        for &(src, pair) in pairs {
            self.sim.edge_mut::<UfabEdge>(src).retire(pair);
        }
        self.retiring.extend_from_slice(pairs);
    }

    fn sample_queues(&mut self) {
        if self.queue_watch.is_empty() {
            return;
        }
        let mut max_q = 0u64;
        for &(n, p) in &self.queue_watch {
            let q = self.sim.port(n, p).q_bytes;
            self.queue_samples.add(q as f64);
            max_q = max_q.max(q);
        }
        self.queue_series.push((self.sim.now(), max_q));
    }

    /// The recorder itself, shared. Until ROADMAP 1(f).
    #[doc(hidden)]
    pub fn merged_recorder(&self) -> SharedRecorder {
        Arc::clone(&self.rec)
    }

    /// Acked bytes of each `(source host, pair)` right now — the baseline
    /// a tenant's (re-)qualification must move past: qualifying takes
    /// telemetry *and* delivered progress.
    pub(crate) fn acked_baseline(&self, pairs: &[(NodeId, PairId)]) -> Vec<u64> {
        pairs
            .iter()
            .map(|&(src, pair)| {
                self.sim
                    .try_edge::<UfabEdge>(src)
                    .map(|e| e.ep.acked_bytes(pair))
                    .unwrap_or(0)
            })
            .collect()
    }

    /// μFAB-E's qualification signal for one tenant: every pair's current
    /// path telemetry qualifies and its acked bytes moved past `baseline`
    /// (from [`Runner::acked_baseline`]).
    pub(crate) fn pairs_qualified(&self, pairs: &[(NodeId, PairId)], baseline: &[u64]) -> bool {
        pairs.iter().zip(baseline).all(|(&(src, pair), &base)| {
            self.sim
                .try_edge::<UfabEdge>(src)
                .map(|e| e.pair_qualified(pair) == Some(true) && e.ep.acked_bytes(pair) > base)
                .unwrap_or(false)
        })
    }

    /// Average delivered rate of a pair over `[from, to)` in bits/sec.
    pub fn pair_rate(&self, pair: PairId, from: Time, to: Time) -> f64 {
        let rec = self.rec.lock().unwrap();
        rec.pair_rates.avg_rate(&pair.raw(), from, to)
    }

    /// Probing bandwidth overhead so far: probe bytes / all host TX bytes.
    pub(crate) fn probe_overhead(&self) -> f64 {
        let st = self.sim.stats();
        if st.host_bytes_tx == 0 {
            0.0
        } else {
            st.probe_bytes_tx as f64 / st.host_bytes_tx as f64
        }
    }
}

impl WorkloadPort for Runner {
    fn now(&self) -> Time {
        self.sim.now()
    }

    fn inject(&mut self, host: NodeId, msg: AppMsg) {
        self.sim.inject(host, msg);
    }

    fn backlog(&self, host: NodeId, pair: PairId) -> u64 {
        if self.system.is_ufab() {
            self.sim.edge::<UfabEdge>(host).ep.backlog_bytes(pair)
        } else {
            self.sim.edge::<BaselineEdge>(host).ep.backlog_bytes(pair)
        }
    }

    fn clear_backlog(&mut self, host: NodeId, pair: PairId) {
        if self.system.is_ufab() {
            self.sim.edge_mut::<UfabEdge>(host).ep.clear_backlog(pair);
        } else {
            self.sim
                .edge_mut::<BaselineEdge>(host)
                .ep
                .clear_backlog(pair);
        }
    }
}

/// Default measurement slice for driver polling.
pub const SLICE: Time = 50 * US;

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::MS;
    use topology::dumbbell;

    fn small_fabric(topo: &Topo) -> (FabricSpec, PairId) {
        let mut f = FabricSpec::new(500e6);
        let t = f.add_tenant("t", 2.0);
        let a = f.add_vm(t, topo.hosts[0]);
        let b = f.add_vm(t, topo.hosts[1]);
        let p = f.add_pair(a, b);
        (f, p)
    }

    #[test]
    fn runner_runs_all_four_systems() {
        for system in [
            SystemKind::Ufab,
            SystemKind::UfabPrime,
            SystemKind::Pwc,
            SystemKind::EsClove,
        ] {
            let topo = dumbbell(1, 10, 10);
            let (fabric, pair) = small_fabric(&topo);
            let host = topo.hosts[0];
            let mut r = Runner::new(topo, fabric, system, 1, None, MS);
            r.sim.start();
            r.sim.inject(host, AppMsg::oneway(1, pair, 5_000_000, 0));
            r.sim.run_until(10 * MS);
            let rate = r.pair_rate(pair, 0, 10 * MS);
            assert!(
                rate > 3.0e9,
                "{}: rate {:.2} Gbps",
                system.label(),
                rate / 1e9
            );
        }
    }

    #[test]
    fn workload_port_backlog_roundtrip() {
        let topo = dumbbell(1, 10, 10);
        let (fabric, pair) = small_fabric(&topo);
        let host = topo.hosts[0];
        let mut r = Runner::new(topo, fabric, SystemKind::Ufab, 1, None, MS);
        r.sim.start();
        r.inject(host, AppMsg::oneway(1, pair, 50_000_000, 0));
        r.sim.run_until(100 * US);
        assert!(r.backlog(host, pair) > 0);
        r.clear_backlog(host, pair);
        assert_eq!(r.backlog(host, pair), 0);
    }

    /// A pair retired while its data is in flight keeps its state at both
    /// edges until everything of it has left the network and gone idle,
    /// is then released at both — source first — and the run is the run
    /// without the retirement, event for event.
    #[test]
    fn retiring_a_pair_mid_flight_defers_its_release_and_changes_nothing() {
        let run = |retire: bool| {
            let topo = dumbbell(1, 10, 10);
            let (fabric, pair) = small_fabric(&topo);
            let (src, dst) = (topo.hosts[0], topo.hosts[1]);
            let mut r = Runner::new(topo, fabric, SystemKind::Ufab, 1, None, MS);
            r.sim.enable_det_hash();
            r.inject(src, AppMsg::oneway(1, pair, 200_000, 0));
            let mut none: [&mut dyn Driver; 0] = [];
            r.run(50 * US, SLICE, &mut none);
            assert!(r.sim.packets_in_flight() > 0);
            let held = |r: &Runner| {
                let at = |h| r.sim.edge::<UfabEdge>(h).holds(pair);
                (at(src), at(dst))
            };
            if retire {
                r.retire(&[(src, pair)]);
            }
            let mut seen = vec![held(&r)];
            for k in 1..=40 {
                r.run(50 * US + k * MS / 2, SLICE, &mut none);
                seen.dedup();
                seen.push(held(&r));
            }
            seen.dedup();
            let delivered = r.rec.lock().unwrap().delivered_bytes;
            (seen, delivered, r.sim.stats().events, r.sim.det_digest())
        };
        let ends = |o: &(Vec<(bool, bool)>, u64, u64, Option<u64>)| (o.1, o.2, o.3);
        let (kept, retired) = (run(false), run(true));
        assert_eq!(kept.0, [(true, true)]);
        assert_eq!(retired.0, [(true, true), (false, true), (false, false)]);
        assert_eq!(retired.1, 200_000);
        assert_eq!(ends(&retired), ends(&kept));
    }

    #[test]
    fn queue_watch_collects_samples() {
        let topo = dumbbell(2, 10, 10);
        let mut f = FabricSpec::new(500e6);
        let t = f.add_tenant("t", 2.0);
        let a = f.add_vm(t, topo.hosts[0]);
        let b = f.add_vm(t, topo.hosts[2]);
        let p = f.add_pair(a, b);
        let host = topo.hosts[0];
        let mut r = Runner::new(topo, f, SystemKind::Ufab, 1, None, MS);
        r.watch_all_switch_queues();
        assert!(!r.queue_watch.is_empty());
        r.sim.start();
        r.inject(host, AppMsg::oneway(1, p, 2_000_000, 0));
        let mut drivers: [&mut dyn Driver; 0] = [];
        r.run(2 * MS, 100 * US, &mut drivers);
        assert!(r.queue_samples.count() > 0);
        assert!(!r.queue_series.is_empty());
    }
}
