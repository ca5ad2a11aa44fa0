//! The discrete-event engine.
//!
//! A [`Simulator`] is one sequential event engine over one network: one
//! calendar queue ordered by `(time, seq)`, one node grid, one packet
//! arena, one RNG stream per node. One thread runs it; independent
//! simulations run side by side under `--jobs`.

use crate::agent::{EdgeAgent, EdgeCtx, Effects, NicView, PortView, SwitchAgent, SwitchCtx};
use crate::builder::{Network, Node, NodeKind};
use crate::chaos::{
    self, ChaosRuntime, ChaosStats, FaultKind, FaultPlan, GeLoss, ModKind, RngProb,
};
use crate::equeue::{EventQueue, QueueStats};
use crate::ids::{NodeId, PortNo};
use crate::msg::Inject;
use crate::packet::{ArenaStats, Packet, PacketArena, PacketKind};
use crate::port::EnqueueResult;
use crate::route::Route;
use crate::time::{tx_time, Time};
use obs::{Category, DetHash, Event as ObsEvent, ObsHandle};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Abstract per-hop delay charged to a bounced probe (type-4 failure
/// notification): it is delivered this many nanoseconds per traversed
/// hop after the bounce point.
const PROBE_BOUNCE_HOP_NS: Time = 2_000;

// Packets and injects are boxed so an event entry stays small (the
// calendar queue and port queues move entries by value; a flat `Packet`
// would make every such move a ~200-byte memmove).
enum EvKind {
    Arrive(Box<Packet>),
    TxDone(PortNo),
    EdgeTimer(u64),
    SwitchTimer(u64),
    Inject(Box<Inject>),
    LinkSet(PortNo, bool),
    // Chaos reconfiguration (boxed: rare, keeps the entry small).
    ChaosMod(PortNo, Box<ModKind>),
    // Wipe the agent at this node: switch reboot / edge restart.
    AgentReset,
}

/// Global drop counters across all ports.
#[derive(Debug, Clone, Copy, Default)]
pub struct GlobalStats {
    /// Events processed.
    pub events: u64,
    /// Total packets dropped (overflow + down + chaos).
    pub drops: u64,
    /// Packets dropped to queue overflow.
    pub drops_overflow: u64,
    /// Packets dropped at a downed link.
    pub drops_down: u64,
    /// Packets dropped by the chaos engine (burst + selective loss).
    pub drops_chaos: u64,
    /// Always 0: no link marks ECN. Until ROADMAP 1(f).
    #[doc(hidden)]
    pub ecn_marked: u64,
    /// Retransmitted data packets leaving host NICs.
    pub retx_pkts: u64,
    /// Link up/down transitions applied.
    pub link_flaps: u64,
    /// Total bytes of probe-plane packets transmitted by hosts.
    pub probe_bytes_tx: u64,
    /// Total bytes of all packets transmitted by hosts.
    pub host_bytes_tx: u64,
}

/// The simulator: one deterministic event queue over one network.
pub struct Simulator {
    now: Time,
    seq: u64,
    queue: EventQueue<(NodeId, EvKind)>,
    nodes: Vec<Node>,
    edge: Vec<Option<Box<dyn EdgeAgent>>>,
    switch: Vec<Option<Box<dyn SwitchAgent>>>,
    rngs: Vec<SmallRng>,
    started: bool,
    /// Stamp `max_util` on packets at switch egress (Clove's feedback).
    pub stamp_util: bool,
    /// When a probe would be forwarded into a dead link, bounce it back to
    /// its source as a type-4 failure notification (Appendix G) instead of
    /// silently dropping it — gives the edge sub-RTT failure detection
    /// instead of waiting out the 8×baseRTT probe timeout.
    pub bounce_probes_on_failure: bool,
    stats: GlobalStats,
    obs: ObsHandle,
    det: Option<DetHash>,
    // Fault-injection state: `None` until a plan is applied, so the
    // disabled engine costs one branch in the TX hot path.
    chaos: Option<Box<ChaosRuntime>>,
    // Box recycler: every in-flight packet's allocation comes from (and
    // returns to) this free list, so steady state is malloc-free.
    arena: PacketArena,
    // Scratch effect buffer reused across edge-agent callbacks (keeps
    // the sends/timers Vec capacity instead of allocating per event).
    fx: Effects,
    // Scratch buffer for same-timestamp delivery batches. Boxed on
    // purpose: the batch holds arena boxes, moved by pointer.
    #[allow(clippy::vec_box)]
    burst: Vec<Box<Packet>>,
    // Batch consecutive same-timestamp arrivals at a host into one
    // agent checkout (`false` only in tests proving digest identity).
    batch_delivery: bool,
}

impl Simulator {
    /// Wrap a built network. `seed` drives all randomness.
    pub fn new(net: Network, seed: u64) -> Self {
        let n = net.nodes.len();
        let rngs = (0..n)
            .map(|i| SmallRng::seed_from_u64(seed.wrapping_mul(0x9E3779B97F4A7C15) ^ i as u64))
            .collect();
        Self {
            now: 0,
            seq: 0,
            queue: EventQueue::new(),
            nodes: net.nodes,
            edge: (0..n).map(|_| None).collect(),
            switch: (0..n).map(|_| None).collect(),
            rngs,
            started: false,
            stamp_util: false,
            bounce_probes_on_failure: false,
            stats: GlobalStats::default(),
            obs: ObsHandle::disabled(),
            det: None,
            chaos: None,
            arena: PacketArena::default(),
            fx: Effects::default(),
            burst: Vec::new(),
            batch_delivery: true,
        }
    }

    fn push(&mut self, time: Time, node: NodeId, kind: EvKind) {
        let seq = self.seq;
        self.seq += 1;
        // Clamp to now: chaos plans may name instants that already
        // passed (e.g. applied mid-run); time must never go backwards.
        self.queue.push(time.max(self.now), seq, (node, kind));
    }

    /// Fold one popped event into the determinism digest: (kind, time,
    /// node, payload discriminant) — enough to distinguish any
    /// divergent schedule; seq is implied by fold order. Runs once per
    /// event: left to the inliner's discretion it ends up out of line
    /// (`fig11_testbed` events/s ×0.97).
    #[inline(always)]
    fn fold_det(&mut self, time: Time, node: NodeId, kind: &EvKind) {
        if let Some(det) = &mut self.det {
            let (code, aux) = match kind {
                EvKind::Arrive(p) => (1u64, ((p.pair.raw() as u64) << 32) | p.size as u64),
                EvKind::TxDone(p) => (2, p.raw() as u64),
                EvKind::EdgeTimer(k) => (3, *k),
                EvKind::SwitchTimer(k) => (4, *k),
                EvKind::Inject(m) => (5, m.det_aux()),
                EvKind::LinkSet(p, up) => (6, ((p.raw() as u64) << 1) | *up as u64),
                EvKind::ChaosMod(p, m) => (7, ((p.raw() as u64) << 8) | m.det_code()),
                EvKind::AgentReset => (8, 0),
            };
            det.fold_u64(code << 56 | (node.raw() as u64));
            det.fold_u64(time);
            det.fold_u64(aux);
        }
    }

    fn step_one(&mut self) -> bool {
        let Some((time, _seq, (node, kind))) = self.queue.pop() else {
            return false;
        };
        debug_assert!(time >= self.now, "time went backwards");
        self.now = time;
        self.stats.events += 1;
        self.fold_det(time, node, &kind);
        match kind {
            EvKind::Arrive(pkt) => self.on_arrive(node, pkt),
            EvKind::TxDone(p) => self.on_txdone(node, p),
            EvKind::EdgeTimer(k) => self.with_edge(node, |a, ctx| a.on_timer(ctx, k)),
            EvKind::SwitchTimer(k) => self.with_switch_timer_ctx(node, |a, ctx| a.on_timer(ctx, k)),
            EvKind::Inject(m) => self.with_edge(node, |a, ctx| a.on_inject(ctx, *m)),
            EvKind::LinkSet(p, up) => self.on_link_set(node, p, up),
            EvKind::ChaosMod(p, m) => self.on_chaos_mod(node, p, *m),
            EvKind::AgentReset => self.on_agent_reset(node),
        }
        true
    }

    /// Install or clear a windowed fault's effect.
    fn on_chaos_mod(&mut self, node: NodeId, portno: PortNo, m: ModKind) {
        let port = &mut self.nodes[node.idx()].ports[portno.idx()];
        let ch = self.chaos.get_or_insert_with(Box::default);
        ch.set(node, portno, port, m);
    }

    /// Reset the agent at `node`: a switch reboot wipes the dataplane
    /// program's state; a host restart wipes the edge agent's volatile
    /// control state (transport state survives in host memory).
    fn on_agent_reset(&mut self, node: NodeId) {
        match self.nodes[node.idx()].kind {
            NodeKind::Host => {
                if let Some(ch) = &mut self.chaos {
                    ch.stats.edge_restarts += 1;
                }
                self.with_edge(node, |a, ctx| a.on_restart(ctx));
            }
            NodeKind::Switch => {
                if let Some(ch) = &mut self.chaos {
                    ch.stats.switch_wipes += 1;
                }
                self.with_switch_timer_ctx(node, |a, ctx| a.on_reset(ctx));
            }
        }
    }

    fn on_arrive(&mut self, node: NodeId, pkt: Box<Packet>) {
        match self.nodes[node.idx()].kind {
            NodeKind::Host => {
                debug_assert_eq!(pkt.dst, node, "packet delivered to wrong host");
                let mut burst = std::mem::take(&mut self.burst);
                burst.push(pkt);
                if self.batch_delivery {
                    // Drain the run of consecutive same-timestamp
                    // arrivals at this host into one agent checkout.
                    // Only *head* entries are taken, so the global
                    // (time, seq) pop order — and with it the digest
                    // fold order and every seq assignment made while
                    // handling the batch — is exactly what one-at-a-
                    // time dispatch would produce.
                    let now = self.now;
                    while let Some((_, _, (_, k))) = self.queue.pop_if(|t, (n, k)| {
                        t == now && *n == node && matches!(k, EvKind::Arrive(_))
                    }) {
                        self.stats.events += 1;
                        self.fold_det(now, node, &k);
                        let EvKind::Arrive(p) = k else { unreachable!() };
                        burst.push(p);
                    }
                }
                self.deliver_burst(node, &mut burst);
                self.burst = burst;
            }
            NodeKind::Switch => self.forward(node, pkt),
        }
    }

    /// Deliver a batch of packets to one host's edge agent with a
    /// single agent checkout. Effects are applied (and the NIC view
    /// rebuilt) between packets, so each delivery observes exactly the
    /// state it would have seen under one-at-a-time dispatch — the
    /// batch amortises dispatch overhead without changing behaviour.
    #[allow(clippy::vec_box)]
    fn deliver_burst(&mut self, node: NodeId, burst: &mut Vec<Box<Packet>>) {
        let Some(mut agent) = self.edge[node.idx()].take() else {
            for b in burst.drain(..) {
                self.arena.recycle(b);
            }
            return;
        };
        for boxed in burst.drain(..) {
            let pkt = self.arena.unbox(boxed);
            let nic = {
                let p = &self.nodes[node.idx()].ports[0];
                NicView {
                    queue_pkts: p.queue.len(),
                    cap_bps: p.cap_bps,
                }
            };
            let mut fx = std::mem::take(&mut self.fx);
            {
                let mut ctx = EdgeCtx {
                    now: self.now,
                    nic,
                    rng: &mut self.rngs[node.idx()],
                    effects: &mut fx,
                    arena: &mut self.arena,
                };
                agent.on_packet(&mut ctx, pkt);
            }
            self.apply_edge_effects(node, &mut fx);
            self.fx = fx;
        }
        self.edge[node.idx()] = Some(agent);
    }

    /// Route-and-enqueue at `node` (used for switch forwarding and host
    /// originated sends alike).
    fn forward(&mut self, node: NodeId, mut pkt: Box<Packet>) {
        let egress = if pkt.hop < pkt.route.len() {
            pkt.route[pkt.hop]
        } else {
            // ECMP fallback.
            let Some(group) = self.nodes[node.idx()].ecmp(pkt.dst) else {
                debug_assert!(false, "no route at {node} for dst {}", pkt.dst);
                self.arena.recycle(pkt);
                return;
            };
            let key = match &pkt.kind {
                PacketKind::Data(d) => d.flow.raw() ^ ((pkt.pair.raw() as u64) << 32),
                _ => pkt.pair.raw() as u64,
            };
            let h = ecmp_hash(key, node.raw());
            group[(h % group.len() as u64) as usize]
        };
        pkt.hop += 1;
        debug_assert!(
            egress.idx() < self.nodes[node.idx()].ports.len(),
            "bad egress port {egress} at {node}"
        );
        let port = &mut self.nodes[node.idx()].ports[egress.idx()];
        let port_up = port.up;
        if !port_up && self.bounce_probes_on_failure && matches!(pkt.kind, PacketKind::Probe(_)) {
            // Type-4 failure notification: convert the probe in place
            // and deliver it back to the source out of the dead path.
            // The notification travels the network abstractly (we
            // charge one propagation+serialization worth of delay per
            // hop already traversed) — switches cannot source-route
            // backwards without per-packet path state, and the edge
            // only needs the (pair, seq, hops-so-far) content.
            port.stats.drops_down += 1;
            self.obs.rec(Category::Drop, self.now, || ObsEvent::Drop {
                node: node.raw(),
                port: egress.raw(),
                pair: pkt.pair.raw(),
                kind: pkt.kind.label(),
                bytes: pkt.size,
                reason: "down",
            });
            let src = pkt.src;
            let PacketKind::Probe(frame) =
                std::mem::replace(&mut pkt.kind, PacketKind::placeholder())
            else {
                unreachable!()
            };
            let delay: Time = PROBE_BOUNCE_HOP_NS.saturating_mul(frame.hops.len().max(1) as u64);
            pkt.kind = PacketKind::Probe(frame).into_failure();
            pkt.dst = src;
            pkt.route = Route::new();
            pkt.hop = 0;
            self.push(self.now + delay, src, EvKind::Arrive(pkt));
            return;
        }
        let (pair, kind_label, bytes) = (pkt.pair.raw(), pkt.kind.label(), pkt.size);
        let result = port.enqueue(pkt);
        let q_bytes = port.q_bytes;
        let (b, reason) = match result {
            EnqueueResult::Queued { start_tx } => {
                self.obs
                    .rec(Category::Enqueue, self.now, || ObsEvent::Enqueue {
                        node: node.raw(),
                        port: egress.raw(),
                        pair,
                        kind: kind_label,
                        bytes,
                        q_bytes,
                    });
                if start_tx {
                    self.start_tx(node, egress);
                }
                return;
            }
            EnqueueResult::DroppedOverflow(b) => (b, "overflow"),
            EnqueueResult::DroppedDown(b) => (b, "down"),
        };
        self.obs.rec(Category::Drop, self.now, || ObsEvent::Drop {
            node: node.raw(),
            port: egress.raw(),
            pair,
            kind: kind_label,
            bytes,
            reason,
        });
        self.arena.recycle(b);
    }

    fn start_tx(&mut self, node: NodeId, portno: PortNo) {
        let now = self.now;
        let is_switch = self.nodes[node.idx()].kind == NodeKind::Switch;
        let port = &mut self.nodes[node.idx()].ports[portno.idx()];
        if port.busy || !port.up {
            return;
        }
        let Some(mut pkt) = port.dequeue() else {
            return;
        };
        port.busy = true;
        port.meter.on_bytes(now, pkt.size as u64);
        let view = PortView {
            port: portno,
            q_bytes: port.q_bytes,
            tx_bps: port.meter.rate_bps(now),
            cap_bps: port.cap_bps,
        };
        let ser = tx_time(pkt.size, port.cap_bps);
        let prop = port.prop_ns;
        let peer = port.peer;
        port.stats.tx_pkts += 1;
        if is_switch {
            // Egress pipeline hook (μFAB-C stamping point).
            if let Some(mut agent) = self.switch[node.idx()].take() {
                let mut fx = Effects::default();
                let mut ctx = SwitchCtx {
                    now,
                    node,
                    effects: &mut fx,
                };
                agent.on_egress(&mut ctx, view, &mut pkt);
                self.switch[node.idx()] = Some(agent);
                self.apply_switch_effects(node, fx);
            }
            if self.stamp_util {
                let util = (view.tx_bps / view.cap_bps as f64) as f32;
                pkt.max_util = pkt.max_util.max(util);
            }
        } else {
            // Host NIC: account probe-plane overhead and retransmissions.
            self.stats.host_bytes_tx += pkt.size as u64;
            if pkt.kind.is_probe_plane() {
                self.stats.probe_bytes_tx += pkt.size as u64;
            }
            if matches!(&pkt.kind, PacketKind::Data(d) if d.retx) {
                self.stats.retx_pkts += 1;
            }
        }
        self.obs.rec(Category::Dequeue, now, || ObsEvent::Dequeue {
            node: node.raw(),
            port: portno.raw(),
            pair: pkt.pair.raw(),
            kind: pkt.kind.label(),
            bytes: pkt.size,
        });
        self.push(now + ser, node, EvKind::TxDone(portno));
        // Never armed: this one branch is the engine's whole cost.
        let chaos_reason = match self.chaos.as_deref_mut() {
            Some(ch) => ch.on_tx(node, portno, is_switch, &mut pkt),
            None => None,
        };
        if let Some(reason) = chaos_reason {
            self.nodes[node.idx()].ports[portno.idx()].stats.drops_chaos += 1;
            self.obs.rec(Category::Drop, now, || ObsEvent::Drop {
                node: node.raw(),
                port: portno.raw(),
                pair: pkt.pair.raw(),
                kind: pkt.kind.label(),
                bytes: pkt.size,
                reason,
            });
            self.arena.recycle(pkt);
        } else {
            self.push(now + ser + prop, peer, EvKind::Arrive(pkt));
        }
    }

    fn on_txdone(&mut self, node: NodeId, portno: PortNo) {
        let port = &mut self.nodes[node.idx()].ports[portno.idx()];
        port.busy = false;
        let has_more = !port.queue.is_empty();
        let up = port.up;
        if has_more && up {
            self.start_tx(node, portno);
        }
        if self.nodes[node.idx()].kind == NodeKind::Host {
            self.with_edge(node, |a, ctx| a.on_nic_idle(ctx));
        }
    }

    fn on_link_set(&mut self, node: NodeId, portno: PortNo, up: bool) {
        let port = &mut self.nodes[node.idx()].ports[portno.idx()];
        port.up = up;
        self.stats.link_flaps += 1;
        self.obs.rec(Category::Link, self.now, || ObsEvent::Link {
            node: node.raw(),
            port: portno.raw(),
            up,
        });
        if up && !port.busy && !port.queue.is_empty() {
            self.start_tx(node, portno);
        }
    }

    /// Run an edge-agent callback with a fresh context, then apply its
    /// effects (sends become enqueues at this host's NIC; timers get
    /// scheduled). The effect buffer is a reused scratch field: the
    /// sends/timers `Vec` capacity survives across events, so the
    /// steady state allocates nothing here.
    fn with_edge<F: FnOnce(&mut dyn EdgeAgent, &mut EdgeCtx)>(&mut self, node: NodeId, f: F) {
        let Some(mut agent) = self.edge[node.idx()].take() else {
            return;
        };
        let nic = {
            let p = &self.nodes[node.idx()].ports[0];
            NicView {
                queue_pkts: p.queue.len(),
                cap_bps: p.cap_bps,
            }
        };
        let mut fx = std::mem::take(&mut self.fx);
        {
            let mut ctx = EdgeCtx {
                now: self.now,
                nic,
                rng: &mut self.rngs[node.idx()],
                effects: &mut fx,
                arena: &mut self.arena,
            };
            f(agent.as_mut(), &mut ctx);
        }
        self.edge[node.idx()] = Some(agent);
        self.apply_edge_effects(node, &mut fx);
        self.fx = fx;
    }

    /// Drain an edge effect buffer into the simulator: timers become
    /// events, sends go through the forward path. Draining (instead of
    /// consuming) keeps the buffer's capacity for reuse.
    fn apply_edge_effects(&mut self, node: NodeId, fx: &mut Effects) {
        for (at, kind) in fx.timers.drain(..) {
            self.push(at, node, EvKind::EdgeTimer(kind));
        }
        for pkt in fx.sends.drain(..) {
            debug_assert_eq!(pkt.src, node, "edge agent sent with wrong src");
            self.forward(node, pkt);
        }
    }

    fn with_switch_timer_ctx<F: FnOnce(&mut dyn SwitchAgent, &mut SwitchCtx)>(
        &mut self,
        node: NodeId,
        f: F,
    ) {
        let Some(mut agent) = self.switch[node.idx()].take() else {
            return;
        };
        let mut fx = Effects::default();
        {
            let mut ctx = SwitchCtx {
                now: self.now,
                node,
                effects: &mut fx,
            };
            f(agent.as_mut(), &mut ctx);
        }
        self.switch[node.idx()] = Some(agent);
        self.apply_switch_effects(node, fx);
    }

    fn apply_switch_effects(&mut self, node: NodeId, fx: Effects) {
        for (at, kind) in fx.timers {
            self.push(at, node, EvKind::SwitchTimer(kind));
        }
        for pkt in fx.sends {
            self.forward(node, pkt);
        }
    }
}

fn ecmp_hash(key: u64, salt: u32) -> u64 {
    let mut x = key ^ ((salt as u64) << 32) ^ 0xD6E8_FEB8_6659_FD93;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Simulator {
    /// Always 1: a simulation is one event queue. Until ROADMAP 1(f).
    #[doc(hidden)]
    pub fn n_lps(&self) -> usize {
        1
    }

    /// Always 0: a simulation is one event queue. Until ROADMAP 1(f).
    #[doc(hidden)]
    pub fn owner_of(&self, _node: NodeId) -> u32 {
        0
    }

    /// Toggle same-timestamp delivery batching (on by default). Exposed
    /// so tests can prove batched and one-at-a-time dispatch produce
    /// identical digests; there is no reason to disable it otherwise.
    pub fn set_batch_delivery(&mut self, on: bool) {
        self.batch_delivery = on;
    }

    /// Packet-arena counters (allocated / recycled / fresh / free).
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena.stats()
    }

    /// Packets currently in flight: queued at any port or travelling as
    /// an `Arrive` event. Between runs this must equal
    /// [`Simulator::arena_stats`]`.outstanding()` — the
    /// `PacketArenaBalance` invariant checks exactly that. O(total
    /// queued entries); accounting only.
    pub fn packets_in_flight(&self) -> u64 {
        let queued: usize = self
            .nodes
            .iter()
            .flat_map(|n| n.ports.iter())
            .map(|p| p.queue.len())
            .sum();
        let flying = self
            .queue
            .iter_items()
            .filter(|(_, k)| matches!(k, EvKind::Arrive(_)))
            .count();
        (queued + flying) as u64
    }

    /// Attach a flight-recorder handle. The simulator records
    /// structured events into it (agents attach the same handle through
    /// their own `set_obs`); a disabled handle (the default) costs one
    /// branch per site.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// Start folding every event-loop step into a determinism digest.
    pub fn enable_det_hash(&mut self) {
        if self.det.is_none() {
            self.det = Some(DetHash::new());
        }
    }

    /// The determinism digest so far (`None` unless
    /// [`Simulator::enable_det_hash`] was called). Two same-seed runs
    /// of the same scenario must produce equal digests.
    pub fn det_digest(&self) -> Option<u64> {
        self.det.as_ref().map(|d| d.digest())
    }

    /// Install the edge agent for a host.
    ///
    /// # Panics
    /// Panics if `node` is not a host.
    pub fn set_edge_agent(&mut self, node: NodeId, agent: Box<dyn EdgeAgent>) {
        self.validate_kind(node, NodeKind::Host, "set_edge_agent");
        self.edge[node.idx()] = Some(agent);
    }

    /// Install the switch agent for a switch.
    ///
    /// # Panics
    /// Panics if `node` is not a switch.
    pub fn set_switch_agent(&mut self, node: NodeId, agent: Box<dyn SwitchAgent>) {
        self.validate_kind(node, NodeKind::Switch, "set_switch_agent");
        self.switch[node.idx()] = Some(agent);
    }

    /// Current simulation time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Aggregate counters, drops summed over all ports.
    pub fn stats(&self) -> GlobalStats {
        let mut s = self.stats;
        for p in self.nodes.iter().flat_map(|n| n.ports.iter()) {
            s.drops_overflow += p.stats.drops_overflow;
            s.drops_down += p.stats.drops_down;
            s.drops_chaos += p.stats.drops_chaos;
        }
        s.drops = s.drops_overflow + s.drops_down + s.drops_chaos;
        s
    }

    /// Event-queue traffic counters (rotations, run lengths, tier
    /// decisions).
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }

    /// Chaos-engine counters (all zero when no plan was applied).
    pub fn chaos_stats(&self) -> ChaosStats {
        self.chaos.as_ref().map(|c| c.stats).unwrap_or_default()
    }

    /// Borrow a port (for queue sampling etc.).
    pub fn port(&self, node: NodeId, port: PortNo) -> &crate::port::Port {
        &self.nodes[node.idx()].ports[port.idx()]
    }

    /// Mutably borrow a port (e.g. to plant a queue depth for a check).
    pub fn port_mut(&mut self, node: NodeId, port: PortNo) -> &mut crate::port::Port {
        &mut self.nodes[node.idx()].ports[port.idx()]
    }

    /// Number of ports on `node`.
    pub fn n_ports(&self, node: NodeId) -> usize {
        self.nodes[node.idx()].ports.len()
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Downcast an edge agent for introspection.
    ///
    /// # Panics
    /// Panics if the host has no agent or the type does not match.
    pub fn edge<T: 'static>(&self, node: NodeId) -> &T {
        self.edge[node.idx()]
            .as_ref()
            .expect("no edge agent installed")
            .as_any()
            .downcast_ref::<T>()
            .expect("edge agent type mismatch")
    }

    /// Mutable downcast of an edge agent.
    ///
    /// Mutating agent state outside an event context is safe for
    /// *read-mostly* tweaks (configuration changes between run slices);
    /// injecting traffic should go through [`Simulator::inject`].
    pub fn edge_mut<T: 'static>(&mut self, node: NodeId) -> &mut T {
        self.edge[node.idx()]
            .as_mut()
            .expect("no edge agent installed")
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("edge agent type mismatch")
    }

    /// Downcast an edge agent without panicking: `None` when the host
    /// has no agent or a different concrete type (used by generic
    /// probes such as invariant checkers).
    pub fn try_edge<T: 'static>(&self, node: NodeId) -> Option<&T> {
        self.edge[node.idx()].as_ref()?.as_any().downcast_ref::<T>()
    }

    /// Downcast a switch agent without panicking (see
    /// [`Simulator::try_edge`]).
    pub fn try_switch_agent<T: 'static>(&self, node: NodeId) -> Option<&T> {
        self.switch[node.idx()]
            .as_ref()?
            .as_any()
            .downcast_ref::<T>()
    }

    /// Mutable downcast of a switch agent (configuration between run
    /// slices, e.g. attaching an observability handle).
    pub fn switch_agent_mut<T: 'static>(&mut self, node: NodeId) -> &mut T {
        self.switch[node.idx()]
            .as_mut()
            .expect("no switch agent installed")
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("switch agent type mismatch")
    }

    /// Deliver a message to a host's edge agent at the current time
    /// (ordered with in-flight events). Anything convertible into
    /// [`Inject`] works; today that is [`crate::AppMsg`].
    pub fn inject(&mut self, node: NodeId, msg: impl Into<Inject>) {
        self.push(self.now, node, EvKind::Inject(Box::new(msg.into())));
    }

    /// Check that `node` exists; `what` labels the panic.
    fn validate_node(&self, node: NodeId, what: &str) -> &Node {
        assert!(
            node.idx() < self.nodes.len(),
            "{what}: unknown node {node} (topology has {} nodes)",
            self.nodes.len()
        );
        &self.nodes[node.idx()]
    }

    /// Check that `node` is a switch (`want` = `Switch`) or a host.
    fn validate_kind(&self, node: NodeId, want: NodeKind, what: &str) {
        let kind = self.validate_node(node, what).kind;
        let noun = if want == NodeKind::Switch {
            "switch"
        } else {
            "host"
        };
        assert!(kind == want, "{what}: {node} is not a {noun}");
    }

    /// Check that `node`:`port` names an existing egress port. Fails
    /// *eagerly* with a labelled panic — a silently enqueued event for
    /// a bogus target would only blow up (or worse, be ignored) deep
    /// inside the run, long after the plan was applied.
    fn validate_port(&self, node: NodeId, port: PortNo, what: &str) {
        let n_ports = self.validate_node(node, what).ports.len();
        assert!(
            port.idx() < n_ports,
            "{what}: no such port {port} on {node} (node has {n_ports} ports)"
        );
    }

    /// Take both directions of the `node`:`port` link down or up at `at`.
    fn schedule_link(&mut self, at: Time, node: NodeId, port: PortNo, up: bool) {
        let p = &self.nodes[node.idx()].ports[port.idx()];
        let (peer, peer_port) = (p.peer, p.peer_port);
        self.push(at, node, EvKind::LinkSet(port, up));
        self.push(at, peer, EvKind::LinkSet(peer_port, up));
    }

    /// Invoke `on_start` on every installed agent, in node order.
    /// Idempotent.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            let node = NodeId(i as u32);
            match self.nodes[i].kind {
                NodeKind::Host => {
                    self.with_edge(node, |agent, ctx| agent.on_start(ctx));
                }
                NodeKind::Switch => {
                    self.with_switch_timer_ctx(node, |agent, ctx| agent.on_start(ctx));
                }
            }
        }
    }

    /// Process events until `t` (inclusive); leaves `now == t`.
    pub fn run_until(&mut self, t: Time) {
        self.start();
        while let Some(time) = self.queue.peek_time() {
            if time > t {
                break;
            }
            self.step_one();
        }
        self.now = self.now.max(t);
    }

    /// Drain every remaining event (careful with self-sustaining traffic).
    #[cfg(test)]
    fn run_to_quiescence(&mut self) {
        self.start();
        while self.step_one() {}
    }

    /// Expand a [`FaultPlan`] into scheduled events: the one way to
    /// inject a fault. Link faults become link up/down events on both
    /// directions, a switch reboot or edge restart an agent reset, and
    /// each windowed fault (`Degrade`, `BurstLoss`, `CtrlLoss`,
    /// `IntCorrupt`) one event that installs its effect at `from` and
    /// one that clears it at `until`. Every stochastic fault gets its
    /// own RNG seeded from `(plan seed, fault index)`, so the per-node
    /// RNG streams are untouched and same-seed runs stay byte-identical.
    /// May be called multiple times (plans compose); an empty plan
    /// still arms the engine, which is how the overhead benchmark
    /// measures the armed-but-idle cost.
    ///
    /// # Panics
    /// Panics with a labelled message when a fault names an unknown
    /// node, an out-of-range port, a switch fault on a non-switch (or
    /// edge restart on a non-host), an empty window, a non-positive
    /// degrade factor or a degenerate flap period.
    pub fn apply_chaos(&mut self, plan: &FaultPlan) {
        use chaos::Effect;
        self.chaos.get_or_insert_with(Box::default);
        for (idx, fault) in plan.faults.iter().enumerate() {
            let seed = chaos::derive_seed(plan.seed, idx as u64);
            let window = match *fault {
                FaultKind::LinkDown {
                    node,
                    port,
                    at,
                    restore_at,
                } => {
                    self.validate_port(node, port, "chaos link-down");
                    self.schedule_link(at, node, port, false);
                    if let Some(r) = restore_at {
                        assert!(r > at, "chaos link-down: restore_at {r} <= at {at}");
                        self.schedule_link(r, node, port, true);
                    }
                    None
                }
                FaultKind::LinkFlap {
                    node,
                    port,
                    from,
                    until,
                    down_for,
                    up_for,
                } => {
                    self.validate_port(node, port, "chaos link-flap");
                    assert!(
                        down_for > 0 && up_for > 0,
                        "chaos link-flap: zero-length phase (down_for={down_for}, up_for={up_for})"
                    );
                    assert!(
                        until > from,
                        "chaos link-flap: until {until} <= from {from}"
                    );
                    let mut t = from;
                    while t < until {
                        self.schedule_link(t, node, port, false);
                        let up_at = (t + down_for).min(until);
                        self.schedule_link(up_at, node, port, true);
                        t = up_at + up_for;
                    }
                    None
                }
                FaultKind::SwitchFail {
                    node,
                    at,
                    recover_at,
                } => {
                    self.validate_kind(node, NodeKind::Switch, "chaos switch-fail");
                    let n_ports = self.nodes[node.idx()].ports.len();
                    for p in 0..n_ports {
                        self.schedule_link(at, node, PortNo(p as u16), false);
                    }
                    if let Some(r) = recover_at {
                        assert!(r > at, "chaos switch-fail: recover_at {r} <= at {at}");
                        // Reset first (same timestamp, earlier seq):
                        // the reboot wipes registers, Bloom filter and
                        // shadow state *before* traffic can flow again.
                        self.push(r, node, EvKind::AgentReset);
                        for p in 0..n_ports {
                            self.schedule_link(r, node, PortNo(p as u16), true);
                        }
                    }
                    None
                }
                FaultKind::EdgeRestart { node, at } => {
                    self.validate_kind(node, NodeKind::Host, "chaos edge-restart");
                    self.push(at, node, EvKind::AgentReset);
                    None
                }
                FaultKind::Degrade {
                    node,
                    port,
                    from,
                    until,
                    cap_factor,
                    prop_factor,
                } => {
                    let what = "chaos degrade";
                    self.validate_port(node, port, what);
                    assert!(
                        cap_factor > 0.0 && prop_factor > 0.0,
                        "{what}: factors must be positive"
                    );
                    let effect = Effect::Degrade {
                        cap_factor,
                        prop_factor,
                    };
                    Some((what, node, port, from, until, effect))
                }
                FaultKind::BurstLoss {
                    node,
                    port,
                    from,
                    until,
                    p_enter,
                    p_exit,
                    loss_good,
                    loss_bad,
                } => {
                    let what = "chaos burst-loss";
                    self.validate_port(node, port, what);
                    let ge = GeLoss::new(p_enter, p_exit, loss_good, loss_bad, seed);
                    Some((what, node, port, from, until, Effect::Burst(ge)))
                }
                FaultKind::CtrlLoss {
                    node,
                    port,
                    from,
                    until,
                    prob,
                } => {
                    let what = "chaos ctrl-loss";
                    self.validate_port(node, port, what);
                    let effect = Effect::Ctrl(RngProb::new(prob, seed));
                    Some((what, node, port, from, until, effect))
                }
                FaultKind::IntCorrupt {
                    node,
                    from,
                    until,
                    prob,
                } => {
                    let what = "chaos int-corrupt";
                    self.validate_kind(node, NodeKind::Switch, what);
                    // Switch-wide: its events ride on port 0.
                    let effect = Effect::Corrupt(RngProb::new(prob, seed));
                    Some((what, node, PortNo(0), from, until, effect))
                }
            };
            if let Some((what, node, port, from, until, effect)) = window {
                assert!(until > from, "{what}: until {until} <= from {from}");
                let off = Box::new(ModKind::Off(effect.kind()));
                let on = Box::new(ModKind::On(effect));
                self.push(from, node, EvKind::ChaosMod(port, on));
                self.push(until, node, EvKind::ChaosMod(port, off));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{LinkSpec, NetworkBuilder};
    use crate::ids::{FlowId, PairId, TenantId};
    use crate::packet::{AckInfo, DataInfo, NO_PAIR};
    use crate::time::US;
    use std::any::Any;
    use std::sync::Arc;

    /// Fixed-window sender: keeps `window` packets in flight to dst.
    struct WindowSender {
        node: NodeId,
        dst: NodeId,
        route: Vec<PortNo>,
        window: usize,
        inflight: usize,
        next_seq: u64,
        to_send: u64,
        acked: u64,
        rtts: Vec<Time>,
        pkt_size: u32,
    }

    impl WindowSender {
        fn pump(&mut self, ctx: &mut EdgeCtx) {
            while self.inflight < self.window && self.next_seq < self.to_send {
                let pkt = Packet {
                    src: self.node,
                    dst: self.dst,
                    pair: PairId(1),
                    tenant: TenantId(0),
                    size: self.pkt_size,
                    kind: PacketKind::Data(DataInfo {
                        seq: self.next_seq,
                        flow: FlowId(1),
                        payload: self.pkt_size - 40,
                        tag: 0,
                        retx: false,
                        msg_bytes: 0,
                        flow_start: 0,
                        reply_bytes: 0,
                    }),
                    route: self.route.clone().into(),
                    hop: 0,
                    max_util: 0.0,
                    sent_at: ctx.now,
                };
                self.next_seq += 1;
                self.inflight += 1;
                ctx.send(pkt);
            }
        }
    }

    impl EdgeAgent for WindowSender {
        fn on_start(&mut self, ctx: &mut EdgeCtx) {
            self.pump(ctx);
        }
        fn on_packet(&mut self, ctx: &mut EdgeCtx, pkt: Packet) {
            if let PacketKind::Ack(a) = pkt.kind {
                self.inflight -= 1;
                self.acked += 1;
                self.rtts.push(ctx.now - a.echo_ts);
                self.pump(ctx);
            }
        }
        fn on_timer(&mut self, _ctx: &mut EdgeCtx, _kind: u64) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Acks every data packet straight back.
    struct Sink {
        node: NodeId,
        route_back: Vec<PortNo>,
        received_bytes: u64,
        max_util_seen: f32,
    }

    impl EdgeAgent for Sink {
        fn on_start(&mut self, _ctx: &mut EdgeCtx) {}
        fn on_packet(&mut self, ctx: &mut EdgeCtx, pkt: Packet) {
            if let PacketKind::Data(d) = &pkt.kind {
                self.received_bytes += pkt.size as u64;
                self.max_util_seen = self.max_util_seen.max(pkt.max_util);
                let ack = Packet {
                    src: self.node,
                    dst: pkt.src,
                    pair: pkt.pair,
                    tenant: pkt.tenant,
                    size: 64,
                    kind: PacketKind::Ack(AckInfo {
                        seq: d.seq,
                        cum: d.seq + 1,
                        echo_ts: pkt.sent_at,
                        max_util: pkt.max_util,
                        grant_bps: 0.0,
                        payload: d.payload,
                    }),
                    route: self.route_back.clone().into(),
                    hop: 0,
                    max_util: 0.0,
                    sent_at: ctx.now,
                };
                ctx.send(ack);
            }
        }
        fn on_timer(&mut self, _ctx: &mut EdgeCtx, _kind: u64) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// h0 — s — h1 line; returns (sim, h0, h1, s).
    fn line(spec: LinkSpec, seed: u64) -> (Simulator, NodeId, NodeId, NodeId) {
        let mut b = NetworkBuilder::new();
        let h0 = b.add_host();
        let h1 = b.add_host();
        let s = b.add_switch();
        b.connect(h0, s, spec);
        b.connect(h1, s, spec);
        (Simulator::new(b.build(), seed), h0, h1, s)
    }

    fn sender(h0: NodeId, h1: NodeId, window: usize, count: u64) -> Box<WindowSender> {
        Box::new(WindowSender {
            node: h0,
            dst: h1,
            // h0 egress port 0 → s; s egress port 1 → h1.
            route: vec![PortNo(0), PortNo(1)],
            window,
            inflight: 0,
            next_seq: 0,
            to_send: count,
            acked: 0,
            rtts: Vec::new(),
            pkt_size: 1500,
        })
    }

    fn sink(h1: NodeId) -> Box<Sink> {
        Box::new(Sink {
            node: h1,
            // h1 egress port 0 → s; s egress port 0 → h0.
            route_back: vec![PortNo(0), PortNo(0)],
            received_bytes: 0,
            max_util_seen: 0.0,
        })
    }

    #[test]
    fn transfers_and_measures_rtt() {
        let (mut sim, h0, h1, _s) = line(LinkSpec::gbps(10, US), 7);
        sim.set_edge_agent(h0, sender(h0, h1, 4, 1000));
        sim.set_edge_agent(h1, sink(h1));
        sim.run_until(20 * crate::time::MS);
        let tx = sim.edge::<WindowSender>(h0);
        assert_eq!(tx.acked, 1000);
        // Base RTT: 2 hops out (1.2us ser + 1us prop each) + ack back
        // (ack ser ~0.05us): ≈ 6.5us; with window 4 there is queueing.
        let min_rtt = *tx.rtts.iter().min().unwrap();
        assert!(min_rtt >= 4 * US && min_rtt < 12 * US, "min rtt {min_rtt}");
        let rx = sim.edge::<Sink>(h1);
        assert_eq!(rx.received_bytes, 1000 * 1500);
    }

    #[test]
    fn saturates_bottleneck_at_line_rate() {
        let (mut sim, h0, h1, _s) = line(LinkSpec::gbps(10, US), 7);
        sim.set_edge_agent(h0, sender(h0, h1, 64, u64::MAX));
        sim.set_edge_agent(h1, sink(h1));
        sim.run_until(10 * crate::time::MS);
        let rx = sim.edge::<Sink>(h1).received_bytes;
        let rate = rx as f64 * 8.0 / 10e-3;
        assert!(rate > 9.5e9, "rate {rate}");
        // Stop the test from running forever: drop the sender's demand.
        sim.edge_mut::<WindowSender>(h0).to_send = 0;
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let (mut sim, h0, h1, _s) = line(LinkSpec::gbps(10, US), 42);
            sim.set_edge_agent(h0, sender(h0, h1, 8, 2000));
            sim.set_edge_agent(h1, sink(h1));
            sim.run_until(50 * crate::time::MS);
            (
                sim.edge::<WindowSender>(h0).acked,
                sim.edge::<Sink>(h1).received_bytes,
                sim.stats().events,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn util_stamping_reaches_receiver() {
        let (mut sim, h0, h1, _s) = line(LinkSpec::gbps(10, US), 9);
        sim.stamp_util = true;
        sim.set_edge_agent(h0, sender(h0, h1, 32, 2000));
        sim.set_edge_agent(h1, sink(h1));
        sim.run_until(10 * crate::time::MS);
        let u = sim.edge::<Sink>(h1).max_util_seen;
        assert!(u > 0.8, "stamped util {u}");
    }

    #[test]
    fn link_failure_stops_traffic_and_recovers() {
        let (mut sim, h0, h1, s) = line(LinkSpec::gbps(10, US), 5);
        sim.set_edge_agent(h0, sender(h0, h1, 4, u64::MAX));
        sim.set_edge_agent(h1, sink(h1));
        // Fail the s–h1 link between 2ms and 4ms.
        sim.apply_chaos(&FaultPlan::new(1).fault(FaultKind::LinkDown {
            node: s,
            port: PortNo(1),
            at: 2 * crate::time::MS,
            restore_at: Some(4 * crate::time::MS),
        }));
        sim.run_until(2 * crate::time::MS);
        let before = sim.edge::<Sink>(h1).received_bytes;
        sim.run_until(4 * crate::time::MS);
        let during = sim.edge::<Sink>(h1).received_bytes;
        // With a window of 4 and no retransmit, traffic stalls almost
        // immediately after the failure.
        assert!(during - before < 20 * 1500, "leak {}", during - before);
        assert!(sim.stats().drops > 0);
        sim.edge_mut::<WindowSender>(h0).to_send = 0;
    }

    /// `Time::MAX` is the "never" instant (`restore_at: Some(u64::MAX)`):
    /// an event parked there must neither overflow the queue's tier
    /// bounds nor wedge the run in front of it.
    #[test]
    fn link_event_at_time_max_does_not_wedge_the_run() {
        let (mut sim, h0, h1, s) = line(LinkSpec::gbps(10, US), 5);
        sim.set_edge_agent(h0, sender(h0, h1, 4, 100));
        sim.set_edge_agent(h1, sink(h1));
        sim.apply_chaos(&FaultPlan::new(1).fault(FaultKind::LinkDown {
            node: s,
            port: PortNo(1),
            at: Time::MAX,
            restore_at: None,
        }));
        sim.run_until(crate::time::MS);
        assert_eq!(sim.edge::<Sink>(h1).received_bytes, 100 * 1500);
        assert_eq!(sim.stats().drops, 0);
    }

    #[test]
    fn ecmp_fallback_routes_and_spreads() {
        // h0 - s0 - {s1, s2} - s3 - h1 diamond with ECMP at s0.
        let mut b = NetworkBuilder::new();
        let h0 = b.add_host();
        let h1 = b.add_host();
        let s0 = b.add_switch();
        let s1 = b.add_switch();
        let s2 = b.add_switch();
        let s3 = b.add_switch();
        let spec = LinkSpec::gbps(10, US);
        b.connect(h0, s0, spec); // h0:0, s0:0
        let (p01, _) = b.connect(s0, s1, spec); // s0:1
        let (p02, _) = b.connect(s0, s2, spec); // s0:2
        b.connect(s1, s3, spec); // s1:1, s3:0
        b.connect(s2, s3, spec); // s2:1, s3:1
        b.connect(s3, h1, spec); // s3:2, h1:0
        b.set_ecmp(s0, h1, vec![p01, p02]);
        b.set_ecmp(s1, h1, vec![PortNo(1)]);
        b.set_ecmp(s2, h1, vec![PortNo(1)]);
        b.set_ecmp(s3, h1, vec![PortNo(2)]);
        b.set_ecmp(s0, h0, vec![PortNo(0)]);
        b.set_ecmp(s1, h0, vec![PortNo(0)]);
        b.set_ecmp(s2, h0, vec![PortNo(0)]);
        b.set_ecmp(s3, h0, vec![PortNo(0), PortNo(1)]);
        let mut sim = Simulator::new(b.build(), 11);

        // Many flows with empty routes: ECMP should spread them.
        struct Spray {
            node: NodeId,
            dst: NodeId,
        }
        impl EdgeAgent for Spray {
            fn on_start(&mut self, ctx: &mut EdgeCtx) {
                for f in 0..64u64 {
                    ctx.send(Packet {
                        src: self.node,
                        dst: self.dst,
                        pair: PairId(f as u32),
                        tenant: TenantId(0),
                        size: 1500,
                        kind: PacketKind::Data(DataInfo {
                            seq: 0,
                            flow: FlowId(f),
                            payload: 1460,
                            tag: 0,
                            retx: false,
                            msg_bytes: 0,
                            flow_start: 0,
                            reply_bytes: 0,
                        }),
                        route: [PortNo(0)].into(), // only the host hop; rest ECMP
                        hop: 0,
                        max_util: 0.0,
                        sent_at: ctx.now,
                    });
                }
            }
            fn on_packet(&mut self, _ctx: &mut EdgeCtx, _pkt: Packet) {}
            fn on_timer(&mut self, _ctx: &mut EdgeCtx, _kind: u64) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        struct Count {
            got: u64,
        }
        impl EdgeAgent for Count {
            fn on_start(&mut self, _ctx: &mut EdgeCtx) {}
            fn on_packet(&mut self, _ctx: &mut EdgeCtx, _pkt: Packet) {
                self.got += 1;
            }
            fn on_timer(&mut self, _ctx: &mut EdgeCtx, _kind: u64) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        sim.set_edge_agent(h0, Box::new(Spray { node: h0, dst: h1 }));
        sim.set_edge_agent(h1, Box::new(Count { got: 0 }));
        sim.run_to_quiescence();
        assert_eq!(sim.edge::<Count>(h1).got, 64);
        // Both ECMP members saw traffic.
        assert!(sim.port(s0, p01).stats.tx_pkts > 5);
        assert!(sim.port(s0, p02).stats.tx_pkts > 5);
    }

    #[test]
    fn chaos_flap_flaps_and_ends_up() {
        let (mut sim, h0, h1, s) = line(LinkSpec::gbps(10, US), 5);
        sim.set_edge_agent(h0, sender(h0, h1, 4, u64::MAX));
        sim.set_edge_agent(h1, sink(h1));
        let ms = crate::time::MS;
        let plan = FaultPlan::new(1).fault(FaultKind::LinkFlap {
            node: s,
            port: PortNo(1),
            from: 2 * ms,
            until: 8 * ms,
            down_for: ms,
            up_for: ms,
        });
        sim.apply_chaos(&plan);
        sim.run_until(10 * ms);
        // 3 down/up cycles × 2 directions × 2 transitions = 12 LinkSets.
        assert_eq!(sim.stats().link_flaps, 12);
        assert!(sim.port(s, PortNo(1)).up, "link must end restored");
        assert!(sim.edge::<Sink>(h1).received_bytes > 0);
        sim.edge_mut::<WindowSender>(h0).to_send = 0;
    }

    #[test]
    fn chaos_degrade_slows_then_restores() {
        let ms = crate::time::MS;
        let (mut sim, h0, h1, s) = line(LinkSpec::gbps(10, US), 5);
        sim.set_edge_agent(h0, sender(h0, h1, 64, u64::MAX));
        sim.set_edge_agent(h1, sink(h1));
        let plan = FaultPlan::new(1).fault(FaultKind::Degrade {
            node: s,
            port: PortNo(1),
            from: 2 * ms,
            until: 4 * ms,
            cap_factor: 0.1,
            prop_factor: 2.0,
        });
        sim.apply_chaos(&plan);
        sim.run_until(2 * ms);
        let at2 = sim.edge::<Sink>(h1).received_bytes;
        sim.run_until(4 * ms);
        let at4 = sim.edge::<Sink>(h1).received_bytes;
        sim.run_until(6 * ms);
        let at6 = sim.edge::<Sink>(h1).received_bytes;
        let healthy = at2 as f64;
        let degraded = (at4 - at2) as f64;
        let restored = (at6 - at4) as f64;
        assert!(
            degraded < 0.25 * healthy,
            "degraded window moved {degraded} vs healthy {healthy}"
        );
        assert!(
            restored > 0.5 * healthy,
            "restore failed: {restored} vs healthy {healthy}"
        );
        assert_eq!(sim.chaos_stats().degrade_transitions, 2);
        assert_eq!(sim.port(s, PortNo(1)).cap_bps, 10_000_000_000);
        sim.edge_mut::<WindowSender>(h0).to_send = 0;
    }

    #[test]
    fn chaos_burst_loss_drops_and_is_deterministic() {
        let ms = crate::time::MS;
        let run = |seed: u64| {
            let (mut sim, h0, h1, _s) = line(LinkSpec::gbps(10, US), 7);
            sim.enable_det_hash();
            sim.set_edge_agent(h0, sender(h0, h1, 8, 3000));
            sim.set_edge_agent(h1, sink(h1));
            let plan = FaultPlan::new(seed).fault(FaultKind::BurstLoss {
                node: h0,
                port: PortNo(0),
                from: 0,
                until: 20 * ms,
                p_enter: 0.02,
                p_exit: 0.2,
                loss_good: 0.0,
                loss_bad: 0.7,
            });
            sim.apply_chaos(&plan);
            sim.run_until(20 * ms);
            (
                sim.chaos_stats().burst_drops,
                sim.stats().drops_chaos,
                sim.det_digest().unwrap(),
            )
        };
        let (drops_a, port_drops_a, dig_a) = run(9);
        assert!(drops_a > 0, "burst loss never fired");
        assert_eq!(drops_a, port_drops_a, "port counters must agree");
        // Same plan seed ⇒ byte-identical; different ⇒ diverges.
        assert_eq!(run(9), (drops_a, port_drops_a, dig_a));
        assert_ne!(run(10).2, dig_a, "plan seed must matter");
    }

    #[test]
    fn chaos_switch_fail_resets_agent_then_restores() {
        use std::sync::atomic::{AtomicU32, Ordering};
        struct ResetCounter {
            resets: Arc<AtomicU32>,
        }
        impl SwitchAgent for ResetCounter {
            fn on_egress(&mut self, _ctx: &mut SwitchCtx, _v: PortView, _p: &mut Packet) {}
            fn on_reset(&mut self, _ctx: &mut SwitchCtx) {
                self.resets.fetch_add(1, Ordering::Relaxed);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let ms = crate::time::MS;
        let (mut sim, h0, h1, s) = line(LinkSpec::gbps(10, US), 5);
        let resets = Arc::new(AtomicU32::new(0));
        sim.set_edge_agent(h0, sender(h0, h1, 4, u64::MAX));
        sim.set_edge_agent(h1, sink(h1));
        sim.set_switch_agent(
            s,
            Box::new(ResetCounter {
                resets: resets.clone(),
            }),
        );
        let plan = FaultPlan::new(1).fault(FaultKind::SwitchFail {
            node: s,
            at: 2 * ms,
            recover_at: Some(4 * ms),
        });
        sim.apply_chaos(&plan);
        sim.run_until(3 * ms);
        assert!(!sim.port(s, PortNo(0)).up);
        assert!(!sim.port(s, PortNo(1)).up);
        assert_eq!(
            resets.load(Ordering::Relaxed),
            0,
            "reset must not precede recovery"
        );
        sim.run_until(6 * ms);
        assert_eq!(resets.load(Ordering::Relaxed), 1);
        assert_eq!(sim.chaos_stats().switch_wipes, 1);
        assert!(sim.port(s, PortNo(0)).up && sim.port(s, PortNo(1)).up);
        sim.edge_mut::<WindowSender>(h0).to_send = 0;
    }

    #[test]
    fn chaos_edge_restart_invokes_hook() {
        use std::sync::atomic::{AtomicU32, Ordering};
        struct RestartCounter {
            restarts: Arc<AtomicU32>,
        }
        impl EdgeAgent for RestartCounter {
            fn on_start(&mut self, _ctx: &mut EdgeCtx) {}
            fn on_packet(&mut self, _ctx: &mut EdgeCtx, _pkt: Packet) {}
            fn on_timer(&mut self, _ctx: &mut EdgeCtx, _kind: u64) {}
            fn on_restart(&mut self, _ctx: &mut EdgeCtx) {
                self.restarts.fetch_add(1, Ordering::Relaxed);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let ms = crate::time::MS;
        let (mut sim, h0, _h1, _s) = line(LinkSpec::gbps(10, US), 5);
        let restarts = Arc::new(AtomicU32::new(0));
        sim.set_edge_agent(
            h0,
            Box::new(RestartCounter {
                restarts: restarts.clone(),
            }),
        );
        let plan = FaultPlan::new(1).fault(FaultKind::EdgeRestart { node: h0, at: ms });
        sim.apply_chaos(&plan);
        sim.run_until(2 * ms);
        assert_eq!(restarts.load(Ordering::Relaxed), 1);
        assert_eq!(sim.chaos_stats().edge_restarts, 1);
    }

    #[test]
    fn chaos_ctrl_loss_spares_data() {
        let ms = crate::time::MS;
        let (mut sim, h0, h1, _s) = line(LinkSpec::gbps(10, US), 7);
        sim.set_edge_agent(h0, sender(h0, h1, 4, 500));
        sim.set_edge_agent(h1, sink(h1));
        // Drop every ACK leaving h1 — data (h0→h1) must be untouched.
        let plan = FaultPlan::new(3).fault(FaultKind::CtrlLoss {
            node: h1,
            port: PortNo(0),
            from: 0,
            until: 10 * ms,
            prob: 1.0,
        });
        sim.apply_chaos(&plan);
        sim.run_until(10 * ms);
        let st = sim.chaos_stats();
        assert!(st.ctrl_drops > 0, "no control packets dropped");
        // The sender's window stalls (no ACKs) but data arrived intact.
        assert!(sim.edge::<Sink>(h1).received_bytes >= 4 * 1500);
        assert_eq!(sim.edge::<WindowSender>(h0).acked, 0);
    }

    #[test]
    #[should_panic(expected = "chaos link-down: no such port")]
    fn link_failure_rejects_out_of_range_port() {
        let (mut sim, _h0, _h1, s) = line(LinkSpec::gbps(10, US), 1);
        sim.apply_chaos(&FaultPlan::new(1).fault(FaultKind::LinkDown {
            node: s,
            port: PortNo(99),
            at: 0,
            restore_at: None,
        }));
    }

    #[test]
    #[should_panic(expected = "chaos link-down: unknown node")]
    fn link_event_rejects_unknown_node() {
        let (mut sim, _h0, _h1, _s) = line(LinkSpec::gbps(10, US), 1);
        sim.apply_chaos(&FaultPlan::new(1).fault(FaultKind::LinkDown {
            node: NodeId(1000),
            port: PortNo(0),
            at: 0,
            restore_at: None,
        }));
    }

    #[test]
    #[should_panic(expected = "chaos switch-fail")]
    fn chaos_rejects_switch_fail_on_host() {
        let (mut sim, h0, _h1, _s) = line(LinkSpec::gbps(10, US), 1);
        let plan = FaultPlan::new(1).fault(FaultKind::SwitchFail {
            node: h0,
            at: 0,
            recover_at: None,
        });
        sim.apply_chaos(&plan);
    }

    /// Each windowed fault rejects an empty window, a bad target (an
    /// out-of-range port, or a host for the switch-wide `IntCorrupt`)
    /// and an unknown node under its own label; `Degrade` also rejects
    /// a non-positive factor.
    #[test]
    fn windowed_faults_reject_bad_windows_and_targets() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let (_, h0, _, s) = line(LinkSpec::gbps(10, US), 1);
        let panic_of = |fault: FaultKind| -> String {
            let (mut sim, ..) = line(LinkSpec::gbps(10, US), 1);
            let plan = FaultPlan::new(1).fault(fault);
            let err = catch_unwind(AssertUnwindSafe(|| sim.apply_chaos(&plan)))
                .expect_err("a bad fault was accepted");
            err.downcast_ref::<String>().cloned().unwrap_or_default()
        };
        let window = |label: &str, node: NodeId, port: PortNo, from: Time, until: Time| match label
        {
            "chaos degrade" => FaultKind::Degrade {
                node,
                port,
                from,
                until,
                cap_factor: 0.5,
                prop_factor: 2.0,
            },
            "chaos burst-loss" => FaultKind::BurstLoss {
                node,
                port,
                from,
                until,
                p_enter: 0.1,
                p_exit: 0.5,
                loss_good: 0.0,
                loss_bad: 1.0,
            },
            "chaos ctrl-loss" => FaultKind::CtrlLoss {
                node,
                port,
                from,
                until,
                prob: 0.5,
            },
            _ => FaultKind::IntCorrupt {
                node,
                from,
                until,
                prob: 0.5,
            },
        };
        for label in [
            "chaos degrade",
            "chaos burst-loss",
            "chaos ctrl-loss",
            "chaos int-corrupt",
        ] {
            let bad_target = if label == "chaos int-corrupt" {
                (window(label, h0, PortNo(0), 0, 5), "is not a switch")
            } else {
                (
                    window(label, s, PortNo(99), 0, 5),
                    "no such port PortNo(99)",
                )
            };
            for (fault, why) in [
                (window(label, s, PortNo(0), 5, 5), "until 5 <= from 5"),
                bad_target,
                (window(label, NodeId(1000), PortNo(0), 0, 5), "unknown node"),
            ] {
                let msg = panic_of(fault);
                assert!(msg.starts_with(&format!("{label}: ")), "{msg}");
                assert!(msg.contains(why), "{label}: {msg}");
            }
        }
        for (cap_factor, prop_factor) in [(0.0, 1.0), (1.0, -1.0)] {
            let fault = FaultKind::Degrade {
                node: s,
                port: PortNo(0),
                from: 0,
                until: 5,
                cap_factor,
                prop_factor,
            };
            assert_eq!(panic_of(fault), "chaos degrade: factors must be positive");
        }
    }

    #[test]
    fn probe_overhead_accounting() {
        use telemetry::ProbeFrame;
        let (mut sim, h0, h1, _s) = line(LinkSpec::gbps(10, US), 1);
        struct OneProbe {
            node: NodeId,
            dst: NodeId,
        }
        impl EdgeAgent for OneProbe {
            fn on_start(&mut self, ctx: &mut EdgeCtx) {
                ctx.send(Packet {
                    src: self.node,
                    dst: self.dst,
                    pair: PairId(0),
                    tenant: TenantId(0),
                    size: 90,
                    kind: PacketKind::Probe(ProbeFrame::probe(0, 0, 1.0, 0.0, ctx.now)),
                    route: [PortNo(0), PortNo(1)].into(),
                    hop: 0,
                    max_util: 0.0,
                    sent_at: ctx.now,
                });
            }
            fn on_packet(&mut self, _ctx: &mut EdgeCtx, _pkt: Packet) {}
            fn on_timer(&mut self, _ctx: &mut EdgeCtx, _kind: u64) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        struct Null;
        impl EdgeAgent for Null {
            fn on_start(&mut self, _ctx: &mut EdgeCtx) {}
            fn on_packet(&mut self, _ctx: &mut EdgeCtx, _pkt: Packet) {}
            fn on_timer(&mut self, _ctx: &mut EdgeCtx, _kind: u64) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        sim.set_edge_agent(h0, Box::new(OneProbe { node: h0, dst: h1 }));
        sim.set_edge_agent(h1, Box::new(Null));
        sim.run_to_quiescence();
        let st = sim.stats();
        assert_eq!(st.probe_bytes_tx, 90);
        assert_eq!(st.host_bytes_tx, 90);
        let _ = NO_PAIR;
    }

    /// Two pods joined by one core: h0—t0—c—t1—h1 (nodes 0, 2, 4, 3, 1).
    fn two_pods(seed: u64) -> (Simulator, NodeId, NodeId) {
        let mut b = NetworkBuilder::new();
        let h0 = b.add_host();
        let h1 = b.add_host();
        let t0 = b.add_switch();
        let t1 = b.add_switch();
        let c = b.add_switch();
        let spec = LinkSpec::gbps(10, US);
        b.connect(h0, t0, spec); // h0:0 ↔ t0:0
        b.connect(h1, t1, spec); // h1:0 ↔ t1:0
        b.connect(t0, c, spec); // t0:1 ↔ c:0
        b.connect(t1, c, spec); // t1:1 ↔ c:1
        (Simulator::new(b.build(), seed), h0, h1)
    }

    fn pod_sender(h0: NodeId, h1: NodeId, window: usize, count: u64) -> Box<WindowSender> {
        Box::new(WindowSender {
            node: h0,
            dst: h1,
            // h0:0 → t0; t0:1 → c; c:1 → t1; t1:0 → h1.
            route: vec![PortNo(0), PortNo(1), PortNo(1), PortNo(0)],
            window,
            inflight: 0,
            next_seq: 0,
            to_send: count,
            acked: 0,
            rtts: Vec::new(),
            pkt_size: 1500,
        })
    }

    fn pod_sink(h1: NodeId) -> Box<Sink> {
        Box::new(Sink {
            node: h1,
            // h1:0 → t1; t1:1 → c; c:0 → t0; t0:0 → h0.
            route_back: vec![PortNo(0), PortNo(1), PortNo(0), PortNo(0)],
            received_bytes: 0,
            max_util_seen: 0.0,
        })
    }

    #[test]
    fn batching_is_digest_identical() {
        let run = |batch: bool| {
            let (mut sim, h0, h1) = two_pods(7);
            sim.enable_det_hash();
            sim.set_batch_delivery(batch);
            sim.set_edge_agent(h0, pod_sender(h0, h1, 8, 2000));
            sim.set_edge_agent(h1, pod_sink(h1));
            sim.run_until(50 * crate::time::MS);
            assert_eq!(sim.packets_in_flight(), sim.arena_stats().outstanding());
            (
                sim.det_digest().unwrap(),
                sim.edge::<WindowSender>(h0).acked,
                sim.edge::<Sink>(h1).received_bytes,
                sim.stats().events,
            )
        };
        let base = run(true);
        assert_eq!(base.1, 2000, "transfer must complete");
        assert_eq!(base.2, 2000 * 1500);
        assert_eq!(run(false), base);
    }

    #[test]
    fn chaos_switch_fail_on_the_only_path_is_digest_identical() {
        let ms = crate::time::MS;
        let run = || {
            let (mut sim, h0, h1) = two_pods(5);
            sim.enable_det_hash();
            sim.set_edge_agent(h0, pod_sender(h0, h1, 8, 4000));
            sim.set_edge_agent(h1, pod_sink(h1));
            // Failing the core severs the only path mid-run.
            let c = NodeId(4);
            let plan = FaultPlan::new(1).fault(FaultKind::SwitchFail {
                node: c,
                at: 2 * ms,
                recover_at: Some(4 * ms),
            });
            sim.apply_chaos(&plan);
            sim.run_until(20 * ms);
            assert_eq!(
                sim.packets_in_flight(),
                sim.arena_stats().outstanding(),
                "arena balance must survive a switch wipe"
            );
            (
                sim.det_digest().unwrap(),
                sim.edge::<Sink>(h1).received_bytes,
                sim.stats().drops,
                sim.chaos_stats().switch_wipes,
            )
        };
        let base = run();
        assert_eq!(base.3, 1, "switch must have wiped once");
        assert!(base.2 > 0, "switch fail must drop packets");
        assert_eq!(run(), base);
    }

    #[test]
    fn queue_stats_account_for_every_event() {
        let (mut sim, h0, h1) = two_pods(11);
        sim.set_edge_agent(h0, pod_sender(h0, h1, 4, 50));
        sim.set_edge_agent(h1, pod_sink(h1));
        sim.run_to_quiescence();
        let (qs, events) = (sim.queue_stats(), sim.stats().events);
        assert!(qs.rotations > qs.empty_rotations && qs.run_len_max > 0);
        assert!(qs.bufs_out_max > 0 && qs.buf_cap_max >= qs.run_len_max);
        // Drained: every entry ever pushed was popped as one event, and
        // reached a sorted run exactly once — through the ring (or the
        // far heap) on a cursor move, or by a same-bucket insert.
        assert_eq!(qs.run_len_sum + qs.same_bucket_inserts, events);
        assert_eq!(sim.edge::<WindowSender>(h0).acked, 50);
        assert_eq!(sim.packets_in_flight(), 0);
        assert_eq!(sim.arena_stats().outstanding(), 0);
    }
}
