//! The composite baseline edge agents: **PicNIC′+WCC+Clove** and
//! **ElasticSwitch+Clove** (§5.1 "Alternatives").
//!
//! Both run on the same [`ufab::endpoint::Endpoint`] transport engine and
//! the same sender-side WFQ as μFAB-E; the differences are purely in the
//! control plane:
//!
//! * **Windows.** PicNIC′+WCC+Clove: `min(Swift cwnd, receiver grant ×
//!   baseRTT)`. ElasticSwitch+Clove: `max(guarantee × baseRTT, Swift
//!   cwnd)` — ElasticSwitch's rate-allocation floor that never drops below
//!   the minimum guarantee (and therefore queues under congestion, the
//!   paper's Fig 11e).
//! * **Load balancing.** Clove flowlets steered by echoed path
//!   utilisation, with small pilot probes keeping estimates of idle paths
//!   fresh. Guarantee-agnostic by construction — the §2.2 Case-2 flaw.
//! * **Guarantee partitioning.** Sender-side hose splitting across active
//!   pairs every token period (ElasticSwitch's GP; PicNIC′ uses the same
//!   weights for its WFQ and receiver grants).
//!
//! Neither baseline talks to μFAB-C; they only use the `max_util` stamp
//! the simulator's "informative-lite" switches put on packets, mirroring
//! the Clove-INT deployment model.

use crate::clove::Clove;
use crate::picnic::ReceiverGrants;
use crate::swift::SwiftState;
use metrics::recorder::SharedRecorder;
use netsim::agent::{EdgeAgent, EdgeCtx};
use netsim::packet::{Packet, PacketKind};
use netsim::{
    Inject, NodeId, PairId, PortNo, Route, TenantId, Time, VmId, ACK_SIZE, DATA_OVERHEAD, MS, US,
};
use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;
use telemetry::ProbeFrame;
use topology::Topo;
use ufab::edge::wfq::{weight_class, WfqScheduler};
use ufab::endpoint::Endpoint;
use ufab::fabric::FabricSpec;
use ufab::tokens::{token_assignment, PairTokens};

/// Which composite baseline to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineKind {
    /// PicNIC′ + weighted congestion control + Clove.
    PicnicWccClove,
    /// ElasticSwitch + Clove.
    ElasticSwitchClove,
}

/// Baseline configuration.
#[derive(Debug, Clone)]
pub struct BaselineCfg {
    /// Composite selection.
    pub kind: BaselineKind,
    /// Clove flowlet gap (paper: 200 μs recommended, 36 μs forced).
    pub flowlet_gap: Time,
}

impl BaselineCfg {
    /// PicNIC′+WCC+Clove with the paper's defaults.
    pub fn pwc() -> Self {
        Self {
            kind: BaselineKind::PicnicWccClove,
            flowlet_gap: 200 * US,
        }
    }

    /// ElasticSwitch+Clove with the paper's defaults.
    pub fn es_clove() -> Self {
        Self {
            kind: BaselineKind::ElasticSwitchClove,
            ..Self::pwc()
        }
    }
}

// The baselines' fixed operating constants: no run varies them.

/// Clove utilisation decay constant.
const CLOVE_DECAY: Time = 10 * MS;
/// Per-path pilot probe period (utilisation freshness).
const PILOT_PERIOD: Time = 500 * US;
/// Guarantee-partitioning refresh period.
const TOKEN_UPDATE_PERIOD: Time = 128 * US;
/// Retransmission timeout in baseRTTs.
const RTO_RTTS: u64 = 16;
/// Candidate paths per pair.
const CANDIDATE_PATHS: usize = 4;
/// WFQ weight levels.
const WFQ_LEVELS: u8 = 8;
/// Receiver-grant activity timeout.
const GRANT_TIMEOUT: Time = MS;

const TICK: u64 = 2;

struct BPath {
    route: Vec<PortNo>,
    base_rtt: Time,
}

struct BPair {
    tenant: TenantId,
    src_vm: VmId,
    dst_host: NodeId,
    tokens: f64,
    phi_r: f64,
    paths: Vec<BPath>,
    clove: Clove,
    swift: SwiftState,
    grant_bps: f64,
    base_rtt: Time,
    last_pilot: Time,
    pilot_seq: u64,
    pilots: HashMap<u64, usize>,
    active: bool,
}

/// The baseline edge agent (one per host).
pub struct BaselineEdge {
    cfg: BaselineCfg,
    topo: Arc<Topo>,
    fabric: Arc<FabricSpec>,
    /// Shared transport engine.
    pub ep: Endpoint,
    host: NodeId,
    mtu: u32,
    pairs: HashMap<PairId, BPair>,
    wfq: WfqScheduler,
    grants: ReceiverGrants,
    routes_back: HashMap<NodeId, Vec<PortNo>>,
    reverse_cache: HashMap<(NodeId, Route), Vec<PortNo>>,
    nic_bps: u64,
}

impl BaselineEdge {
    /// Create a baseline agent for `host`. `nic_bps` is the host NIC rate
    /// (receiver grants are computed against it).
    pub fn new(
        cfg: BaselineCfg,
        topo: Arc<Topo>,
        fabric: Arc<FabricSpec>,
        recorder: SharedRecorder,
        host: NodeId,
        nic_bps: u64,
    ) -> Self {
        let mtu = topo.mtu;
        let ep = Endpoint::new(host, Arc::clone(&fabric), recorder, mtu, 100 * US);
        let grants = ReceiverGrants::new(nic_bps as f64, 0.95, GRANT_TIMEOUT);
        Self {
            cfg,
            topo,
            fabric,
            ep,
            host,
            mtu,
            pairs: HashMap::new(),
            wfq: WfqScheduler::new(),
            grants,
            routes_back: HashMap::new(),
            reverse_cache: HashMap::new(),
            nic_bps,
        }
    }

    fn window(&self, p: &BPair) -> f64 {
        let t_s = p.base_rtt as f64 / 1e9;
        match self.cfg.kind {
            BaselineKind::PicnicWccClove => {
                let grant_w = if p.grant_bps > 0.0 && p.grant_bps.is_finite() {
                    p.grant_bps * t_s / 8.0
                } else {
                    f64::INFINITY
                };
                p.swift.cwnd.min(grant_w).max(self.mtu as f64)
            }
            BaselineKind::ElasticSwitchClove => {
                // ElasticSwitch RA: never below the guarantee.
                let guar = p.tokens.min(p.phi_r) * self.fabric.bu_bps;
                let floor = guar * t_s / 8.0;
                p.swift.cwnd.max(floor).max(self.mtu as f64)
            }
        }
    }

    /// Retrace the arriving packet's own route for the reply (see
    /// `UfabEdge::reply_route`).
    fn reply_route(&mut self, pkt: &Packet) -> Vec<PortNo> {
        if pkt.route.is_empty() {
            return self.route_back(pkt.src);
        }
        let key = (pkt.src, pkt.route.clone());
        if let Some(r) = self.reverse_cache.get(&key) {
            return r.clone();
        }
        let rev = self.topo.reverse_route(pkt.src, &pkt.route);
        if self.reverse_cache.len() > 4096 {
            self.reverse_cache.clear();
        }
        self.reverse_cache.insert(key, rev.clone());
        rev
    }

    fn route_back(&mut self, dst: NodeId) -> Vec<PortNo> {
        if let Some(r) = self.routes_back.get(&dst) {
            return r.clone();
        }
        let route = self
            .topo
            .paths(self.host, dst, 1)
            .first()
            .unwrap_or_else(|| panic!("no path {} -> {}", self.host, dst))
            .route();
        self.routes_back.insert(dst, route.clone());
        route
    }

    fn pair_static_tokens(&self, pair: PairId) -> f64 {
        let s = self.fabric.pair(pair);
        self.fabric
            .vm_tokens(s.src)
            .min(self.fabric.vm_tokens(s.dst))
    }

    fn activate_pair(&mut self, ctx: &mut EdgeCtx, pair: PairId) {
        if let Some(p) = self.pairs.get_mut(&pair) {
            if !p.active {
                p.active = true;
                self.wfq.add_pair(p.tenant, pair);
            }
            return;
        }
        let spec = self.fabric.pair(pair);
        let tenant = self.fabric.pair_tenant(pair);
        let dst_host = self.fabric.pair_dst_host(pair);
        assert_eq!(self.fabric.pair_src_host(pair), self.host);
        let all = self.topo.paths(self.host, dst_host, 16);
        assert!(!all.is_empty());
        let mut idxs: Vec<usize> = (0..all.len()).collect();
        use rand::Rng;
        for i in (1..idxs.len()).rev() {
            let j = ctx.rng.gen_range(0..=i);
            idxs.swap(i, j);
        }
        idxs.truncate(CANDIDATE_PATHS);
        let paths: Vec<BPath> = idxs
            .iter()
            .map(|&i| BPath {
                route: all[i].route(),
                base_rtt: self.topo.base_rtt_path(&all[i]),
            })
            .collect();
        let base_rtt = paths[0].base_rtt;
        let vm_tokens = self.fabric.vm_tokens(spec.src);
        let n_active = 1 + self
            .pairs
            .values()
            .filter(|p| p.src_vm == spec.src && p.active)
            .count();
        let n_paths = paths.len();
        let p = BPair {
            tenant,
            src_vm: spec.src,
            dst_host,
            tokens: vm_tokens / n_active as f64,
            phi_r: f64::INFINITY,
            paths,
            clove: Clove::new(n_paths, self.cfg.flowlet_gap, CLOVE_DECAY),
            // Greedy start at the NIC BDP (§2.2 Case-1's burst source).
            swift: SwiftState::with_initial(
                base_rtt,
                (self.nic_bps as f64 * base_rtt as f64 / 8.0 / 1e9).max(self.mtu as f64),
            ),
            grant_bps: f64::INFINITY,
            base_rtt,
            last_pilot: 0,
            pilot_seq: 0,
            pilots: HashMap::new(),
            active: true,
        };
        self.pairs.insert(pair, p);
        self.wfq
            .set_tenant(tenant, weight_class(vm_tokens, WFQ_LEVELS));
        self.wfq.add_pair(tenant, pair);
        self.send_pilots(ctx, pair);
    }

    /// Send one tiny utilisation pilot per path (Clove-INT freshness).
    fn send_pilots(&mut self, ctx: &mut EdgeCtx, pair: PairId) {
        let Some(p) = self.pairs.get_mut(&pair) else {
            return;
        };
        p.last_pilot = ctx.now;
        for i in 0..p.paths.len() {
            let seq = p.pilot_seq;
            p.pilot_seq += 1;
            p.pilots.insert(seq, i);
            let frame = ProbeFrame::probe(pair.raw(), seq, 0.0, 0.0, ctx.now);
            ctx.send(Packet {
                src: self.host,
                dst: p.dst_host,
                pair,
                tenant: p.tenant,
                size: 64,
                kind: PacketKind::Probe(frame),
                route: p.paths[i].route.clone().into(),
                hop: 0,
                max_util: 0.0,
                sent_at: ctx.now,
            });
        }
        // Bound the stale-pilot map.
        if let Some(p) = self.pairs.get_mut(&pair) {
            if p.pilots.len() > 64 {
                let min_keep = p.pilot_seq.saturating_sub(32);
                p.pilots.retain(|&s, _| s >= min_keep);
            }
        }
    }

    fn gp_tick(&mut self, now: Time) {
        let mut by_vm: HashMap<VmId, Vec<PairId>> = HashMap::new();
        for (id, p) in &self.pairs {
            if p.active {
                by_vm.entry(p.src_vm).or_default().push(*id);
            }
        }
        for (vm, mut ids) in by_vm {
            ids.sort();
            let phi_vm = self.fabric.vm_tokens(vm);
            let mut views: Vec<PairTokens> = ids
                .iter()
                .map(|&p| PairTokens::new(self.ep.tx_rate_bps(now, p), self.pairs[&p].phi_r))
                .collect();
            token_assignment(phi_vm, self.fabric.bu_bps, &mut views);
            for (id, v) in ids.iter().zip(views) {
                if let Some(p) = self.pairs.get_mut(id) {
                    p.tokens = v.phi_s;
                }
            }
        }
    }

    fn pump(&mut self, ctx: &mut EdgeCtx) {
        let mut budget = 2usize.saturating_sub(ctx.nic.queue_pkts);
        while budget > 0 {
            let mut wfq = std::mem::take(&mut self.wfq);
            let picked = {
                let pairs = &self.pairs;
                let ep = &self.ep;
                let this = &*self;
                wfq.pick(|pair| {
                    let p = pairs.get(&pair)?;
                    if !p.active {
                        return None;
                    }
                    let (payload, is_retx) = ep.peek_segment(pair)?;
                    // Standard TCP-style credit: send while inflight < cwnd
                    // (overshoot bounded by one segment).
                    if is_retx || (ep.inflight(pair) as f64) < this.window(p) {
                        Some(payload + DATA_OVERHEAD)
                    } else {
                        None
                    }
                })
            };
            self.wfq = wfq;
            let Some((pair, _)) = picked else {
                break;
            };
            let Some((info, size)) = self.ep.next_segment(ctx.now, pair) else {
                break;
            };
            let p = self.pairs.get_mut(&pair).expect("picked");
            let path_idx = p.clove.choose(ctx.now);
            p.base_rtt = p.paths[path_idx].base_rtt;
            ctx.send(Packet {
                src: self.host,
                dst: p.dst_host,
                pair,
                tenant: p.tenant,
                size,
                kind: PacketKind::Data(info),
                route: p.paths[path_idx].route.clone().into(),
                hop: 0,
                max_util: 0.0,
                sent_at: ctx.now,
            });
            budget -= 1;
        }
    }

    fn tick(&mut self, ctx: &mut EdgeCtx) {
        let now = ctx.now;
        self.gp_tick(now);
        // Sorted so pilot/timeout processing order is independent of
        // HashMap hashing — keeps same-seed runs byte-identical across
        // processes (checked by the determinism digest).
        let mut ids: Vec<PairId> = self.pairs.keys().copied().collect();
        ids.sort();
        let mut need_pump = false;
        for pair in ids {
            let (active, base, pilot_due) = {
                let p = &self.pairs[&pair];
                (
                    p.active,
                    p.base_rtt,
                    now.saturating_sub(p.last_pilot) >= PILOT_PERIOD,
                )
            };
            if !active {
                continue;
            }
            if self.ep.inflight(pair) > 0 && self.ep.check_timeouts(now, pair, RTO_RTTS * base) {
                need_pump = true;
            }
            if pilot_due {
                self.send_pilots(ctx, pair);
            }
            // Deactivate long-idle pairs so GP stops counting them.
            let idle = !self.ep.has_backlog(pair)
                && self.ep.inflight(pair) == 0
                && now.saturating_sub(self.ep.last_activity(pair)) > 2 * MS;
            if idle {
                let tenant = self.pairs[&pair].tenant;
                self.pairs.get_mut(&pair).expect("known").active = false;
                self.wfq.remove_pair(tenant, pair);
            }
        }
        if need_pump {
            self.pump(ctx);
        }
        ctx.set_timer(TOKEN_UPDATE_PERIOD, TICK);
    }
}

impl EdgeAgent for BaselineEdge {
    fn on_start(&mut self, ctx: &mut EdgeCtx) {
        ctx.set_timer(TOKEN_UPDATE_PERIOD, TICK);
    }

    fn on_packet(&mut self, ctx: &mut EdgeCtx, pkt: Packet) {
        match &pkt.kind {
            PacketKind::Data(_) => {
                let (mut ack, reply) = self.ep.on_data(ctx.now, &pkt);
                // PicNIC′ receiver-driven admission: grant ∝ tokens.
                if self.cfg.kind == BaselineKind::PicnicWccClove {
                    let tokens = self.pair_static_tokens(pkt.pair);
                    self.grants.on_data(ctx.now, pkt.pair, tokens);
                    ack.grant_bps = self.grants.grant(ctx.now, pkt.pair);
                }
                let route = self.reply_route(&pkt);
                ctx.send(Packet {
                    src: self.host,
                    dst: pkt.src,
                    pair: pkt.pair,
                    tenant: pkt.tenant,
                    size: ACK_SIZE,
                    kind: PacketKind::Ack(ack),
                    route: route.into(),
                    hop: 0,
                    max_util: 0.0,
                    sent_at: ctx.now,
                });
                if let Some(msg) = reply {
                    let p = msg.pair;
                    self.ep.submit(ctx.now, msg);
                    self.activate_pair(ctx, p);
                    self.pump(ctx);
                }
            }
            PacketKind::Ack(ack) => {
                let res = self.ep.on_ack(ctx.now, pkt.pair, ack);
                if let Some(p) = self.pairs.get_mut(&pkt.pair) {
                    if let Some(rtt) = res.rtt {
                        let max_cwnd =
                            4.0 * p.paths[0].base_rtt as f64 / 1e9 * ctx.nic.cap_bps as f64 / 8.0;
                        p.swift.on_ack(
                            ctx.now,
                            rtt,
                            p.tokens.max(0.1),
                            self.mtu,
                            max_cwnd.max(2.0 * self.mtu as f64),
                        );
                        self.ep.recorder().lock().unwrap().rtt(rtt);
                    }
                    if ack.grant_bps > 0.0 {
                        p.grant_bps = ack.grant_bps;
                    }
                    // Approximate per-path attribution: the ack's echoed
                    // utilisation describes the pair's current path.
                    let cur = p.clove.current();
                    p.clove.feedback(ctx.now, cur, ack.max_util as f64);
                }
                if res.valid {
                    self.pump(ctx);
                }
            }
            PacketKind::Probe(frame) => {
                // A pilot: echo the stamped utilisation straight back.
                let mut resp = frame.clone().into_response(f64::INFINITY);
                resp.echo_util = pkt.max_util;
                let route = self.reply_route(&pkt);
                ctx.send(Packet {
                    src: self.host,
                    dst: pkt.src,
                    pair: pkt.pair,
                    tenant: pkt.tenant,
                    size: 64,
                    kind: PacketKind::Response(resp),
                    route: route.into(),
                    hop: 0,
                    max_util: 0.0,
                    sent_at: ctx.now,
                });
            }
            PacketKind::Response(frame) => {
                if let Some(p) = self.pairs.get_mut(&pkt.pair) {
                    if let Some(path) = p.pilots.remove(&frame.seq) {
                        p.clove.feedback(ctx.now, path, frame.echo_util as f64);
                    }
                }
            }
            PacketKind::Finish(_) | PacketKind::FinishAck(_) => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut EdgeCtx, kind: u64) {
        if kind == TICK {
            self.tick(ctx);
        }
    }

    fn on_nic_idle(&mut self, ctx: &mut EdgeCtx) {
        self.pump(ctx);
    }

    fn on_inject(&mut self, ctx: &mut EdgeCtx, msg: Inject) {
        let Inject::App(msg) = msg;
        let pair = msg.pair;
        self.ep.submit(ctx.now, msg);
        self.activate_pair(ctx, pair);
        self.pump(ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::recorder;
    use netsim::AppMsg;
    use netsim::Simulator;
    use topology::dumbbell;

    fn build(
        kind: BaselineKind,
        mut topo: Topo,
        fabric: FabricSpec,
        seed: u64,
    ) -> (Simulator, Arc<Topo>, Arc<FabricSpec>, SharedRecorder) {
        topo.install_ecmp();
        let net = topo.take_network();
        let topo = Arc::new(topo);
        let fabric = Arc::new(fabric);
        let rec = recorder::shared(MS);
        let mut sim = Simulator::new(net, seed);
        sim.stamp_util = true; // Clove's informative-lite feedback
        let cfg = match kind {
            BaselineKind::PicnicWccClove => BaselineCfg::pwc(),
            BaselineKind::ElasticSwitchClove => BaselineCfg::es_clove(),
        };
        for &h in &topo.hosts {
            let nic = 10_000_000_000;
            sim.set_edge_agent(
                h,
                Box::new(BaselineEdge::new(
                    cfg.clone(),
                    Arc::clone(&topo),
                    Arc::clone(&fabric),
                    Arc::clone(&rec),
                    h,
                    nic,
                )),
            );
        }
        (sim, topo, fabric, rec)
    }

    fn rate(rec: &SharedRecorder, pair: u32, from: u64, to: u64) -> f64 {
        rec.lock()
            .unwrap()
            .pair_rates
            .get(&pair)
            .map(|s| s.avg_rate(from, to))
            .unwrap_or(0.0)
    }

    #[test]
    fn pwc_single_flow_fills_link() {
        let topo = dumbbell(1, 10, 10);
        let mut fabric = FabricSpec::new(500e6);
        let t = fabric.add_tenant("t", 2.0);
        let a = fabric.add_vm(t, topo.hosts[0]);
        let b = fabric.add_vm(t, topo.hosts[1]);
        let p = fabric.add_pair(a, b);
        let h = topo.hosts[0];
        let (mut sim, _t, _f, rec) = build(BaselineKind::PicnicWccClove, topo, fabric, 1);
        sim.start();
        sim.inject(h, AppMsg::oneway(1, p, 100_000_000, 0));
        sim.run_until(30 * MS);
        let r = rate(&rec, p.raw(), 10 * MS, 30 * MS);
        assert!(r > 7.5e9, "PWC single flow {:.2} Gbps", r / 1e9);
    }

    #[test]
    fn es_floor_keeps_guarantee_under_contention() {
        // Two tenants with very different guarantees share a bottleneck;
        // ES+Clove must keep the small tenant at/above its guarantee.
        let topo = dumbbell(2, 10, 10);
        let mut fabric = FabricSpec::new(500e6);
        let t0 = fabric.add_tenant("small", 2.0); // 1 Gbps
        let t1 = fabric.add_tenant("big", 10.0); // 5 Gbps
        let a0 = fabric.add_vm(t0, topo.hosts[0]);
        let b0 = fabric.add_vm(t0, topo.hosts[2]);
        let a1 = fabric.add_vm(t1, topo.hosts[1]);
        let b1 = fabric.add_vm(t1, topo.hosts[3]);
        let p0 = fabric.add_pair(a0, b0);
        let p1 = fabric.add_pair(a1, b1);
        let hosts = topo.hosts.clone();
        let (mut sim, _t, _f, rec) = build(BaselineKind::ElasticSwitchClove, topo, fabric, 2);
        sim.start();
        sim.inject(hosts[0], AppMsg::oneway(1, p0, 200_000_000, 0));
        sim.inject(hosts[1], AppMsg::oneway(2, p1, 200_000_000, 0));
        sim.run_until(40 * MS);
        let r0 = rate(&rec, p0.raw(), 15 * MS, 40 * MS);
        let r1 = rate(&rec, p1.raw(), 15 * MS, 40 * MS);
        assert!(r0 > 0.8e9, "small tenant {:.2} Gbps < guarantee", r0 / 1e9);
        assert!(r1 > 4.0e9, "big tenant {:.2} Gbps", r1 / 1e9);
    }

    #[test]
    fn swift_converges_on_shared_bottleneck() {
        let topo = dumbbell(2, 10, 10);
        let mut fabric = FabricSpec::new(500e6);
        let t = fabric.add_tenant("t", 2.0);
        let a0 = fabric.add_vm(t, topo.hosts[0]);
        let b0 = fabric.add_vm(t, topo.hosts[2]);
        let a1 = fabric.add_vm(t, topo.hosts[1]);
        let b1 = fabric.add_vm(t, topo.hosts[3]);
        let p0 = fabric.add_pair(a0, b0);
        let p1 = fabric.add_pair(a1, b1);
        let hosts = topo.hosts.clone();
        let (mut sim, _t, _f, rec) = build(BaselineKind::PicnicWccClove, topo, fabric, 3);
        sim.start();
        sim.inject(hosts[0], AppMsg::oneway(1, p0, 200_000_000, 0));
        sim.inject(hosts[1], AppMsg::oneway(2, p1, 200_000_000, 0));
        sim.run_until(50 * MS);
        let r0 = rate(&rec, p0.raw(), 25 * MS, 50 * MS);
        let r1 = rate(&rec, p1.raw(), 25 * MS, 50 * MS);
        let total = r0 + r1;
        assert!(total > 7.0e9, "total {:.2} Gbps", total / 1e9);
        let jain = metrics::jain_index(&[r0, r1]);
        assert!(
            jain > 0.85,
            "jain {jain}: {:.2} vs {:.2}",
            r0 / 1e9,
            r1 / 1e9
        );
    }

    use metrics::recorder::SharedRecorder;
}
