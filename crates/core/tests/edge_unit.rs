//! Unit-level tests of the μFAB-E agent, driven through a standalone
//! `EdgeCtx` (no simulator): activation, probing, registration,
//! response handling, idle deregistration, retirement, retuning.

use metrics::recorder;
use netsim::agent::{EdgeAgent, EdgeCtx, Effects, NicView};
use netsim::packet::{Packet, PacketArena, PacketKind};
use netsim::{NodeId, TenantId, MS, US};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use telemetry::{HopInfo, ProbeKind};
use topology::{dumbbell, Topo};
use ufab::endpoint::AppMsg;
use ufab::{FabricSpec, UfabConfig, UfabEdge};

struct Harness {
    agent: UfabEdge,
    rng: SmallRng,
    /// Every packet the agent sends is in the network until a test hands
    /// it back with [`Harness::deliver`].
    arena: PacketArena,
    now: u64,
    host: NodeId,
    /// The incoming direction of the pair (this host is its destination).
    rev: netsim::PairId,
    /// The agent's tenant table: one tenant of 2 tokens per VM.
    fabric: Arc<FabricSpec>,
}

impl Harness {
    fn new() -> (Self, netsim::PairId) {
        let topo = dumbbell(1, 10, 10);
        let host = topo.hosts[0];
        let dst = topo.hosts[1];
        let mut fabric = FabricSpec::new(500e6);
        let t = fabric.add_tenant("t", 2.0);
        let a = fabric.add_vm(t, host);
        let b = fabric.add_vm(t, dst);
        let (pair, rev) = fabric.add_pair_bidir(a, b);
        let topo: Arc<Topo> = Arc::new(topo);
        let fabric = Arc::new(fabric);
        let agent = UfabEdge::new(
            UfabConfig::default(),
            Arc::clone(&topo),
            Arc::clone(&fabric),
            recorder::shared(MS),
            host,
        );
        (
            Self {
                agent,
                rng: SmallRng::seed_from_u64(1),
                arena: PacketArena::default(),
                now: 0,
                host,
                rev,
                fabric,
            },
            pair,
        )
    }

    fn with_ctx<R>(&mut self, f: impl FnOnce(&mut UfabEdge, &mut EdgeCtx) -> R) -> (R, Effects) {
        let mut fx = Effects::new();
        let nic = NicView {
            queue_pkts: 0,
            cap_bps: 10_000_000_000,
        };
        let r = {
            let mut ctx =
                EdgeCtx::standalone(self.now, nic, &mut self.rng, &mut fx, &mut self.arena);
            f(&mut self.agent, &mut ctx)
        };
        (r, fx)
    }

    /// Take the packets out of the network: each one is delivered (or
    /// dropped) somewhere, whatever a test then does with its copy.
    fn deliver(&mut self, mut fx: Effects) -> Vec<Packet> {
        let sends = fx.take_sends();
        let copies = sends.iter().map(|b| (**b).clone()).collect();
        sends.into_iter().for_each(|b| self.arena.recycle(b));
        copies
    }

    /// One control tick at `now += dt`; its packets are delivered.
    fn tick(&mut self, dt: u64) -> Vec<Packet> {
        self.now += dt;
        let (_, fx) = self.with_ctx(|a, ctx| a.on_timer(ctx, 1));
        self.deliver(fx)
    }
}

#[test]
fn activation_registers_and_sends_data() {
    let (mut h, pair) = Harness::new();
    let ((), fx) = h.with_ctx(|a, ctx| a.submit(ctx, AppMsg::oneway(1, pair, 100_000, 0)));
    let sends = fx.sends();
    // A registering probe plus up to two data packets (NIC budget).
    let probes: Vec<_> = sends
        .iter()
        .filter_map(|p| match &p.kind {
            PacketKind::Probe(f) => Some(f),
            _ => None,
        })
        .collect();
    assert_eq!(probes.len(), 1, "one registering probe on the single path");
    assert!(probes[0].registering);
    assert!(probes[0].epoch > 0);
    assert!(probes[0].phi > 0.0);
    let data = sends
        .iter()
        .filter(|p| matches!(p.kind, PacketKind::Data(_)))
        .count();
    assert!(data >= 1 && data <= 2, "data sends {data}");
    assert!(h.agent.window_of(pair).unwrap() > 0.0);
    assert_eq!(h.agent.is_active(pair), Some(true));
}

#[test]
fn response_updates_window_from_eqn3() {
    let (mut h, pair) = Harness::new();
    let (_, fx) = h.with_ctx(|a, ctx| a.submit(ctx, AppMsg::oneway(1, pair, 10_000_000, 0)));
    let probe_pkt = fx
        .sends()
        .iter()
        .find(|p| matches!(p.kind, PacketKind::Probe(_)))
        .unwrap()
        .clone();
    let PacketKind::Probe(frame) = &probe_pkt.kind else {
        unreachable!()
    };
    // Forge the response: an uncongested 10G link with only this pair.
    let mut resp = frame.clone().into_response(f64::INFINITY);
    resp.hops.push(HopInfo {
        node: 2,
        port: 0,
        w_total: frame.w,
        phi_total: frame.phi,
        tx_bps: 1e9,
        q_bytes: 0,
        cap_bps: 10_000_000_000,
    });
    assert_eq!(resp.kind, ProbeKind::Response);
    let before = h.agent.claim_of(pair).unwrap();
    h.now += 30 * US;
    let pkt = Packet {
        src: probe_pkt.dst,
        dst: probe_pkt.src,
        pair,
        tenant: probe_pkt.tenant,
        size: 90,
        kind: PacketKind::Response(resp),
        route: netsim::Route::new(),
        hop: 0,
        max_util: 0.0,
        sent_at: 0,
    };
    h.with_ctx(|a, ctx| a.on_packet(ctx, pkt));
    let after = h.agent.claim_of(pair).unwrap();
    // Idle link with a single occupant: the claim grows toward the cap.
    assert!(after > before, "claim should grow: {before} -> {after}");
}

#[test]
fn idle_pair_sends_finish_and_deactivates() {
    let (mut h, pair) = Harness::new();
    // A tiny message that is fully sent immediately.
    let (_, _fx) = h.with_ctx(|a, ctx| a.submit(ctx, AppMsg::oneway(1, pair, 500, 0)));
    // Pretend the single data packet got acked so the pair drains.
    let ack = ack_of_500_bytes(pair, h.host);
    h.now += 10 * US;
    h.with_ctx(|a, ctx| a.on_packet(ctx, ack));
    // Advance past the 1 ms `IDLE_FINISH` threshold and run control ticks.
    h.now += 2 * MS;
    let (_, fx) = h.with_ctx(|a, ctx| a.on_timer(ctx, 1));
    let finishes = fx
        .sends()
        .iter()
        .filter(|p| matches!(p.kind, PacketKind::Finish(_)))
        .count();
    assert_eq!(finishes, 1, "idle pair must deregister with a finish probe");
    assert_eq!(h.agent.is_active(pair), Some(false));
    // Resubmitting reactivates with a fresh registration epoch.
    let (_, fx) = h.with_ctx(|a, ctx| a.submit(ctx, AppMsg::oneway(2, pair, 1000, 0)));
    let reg = fx
        .sends()
        .iter()
        .filter_map(|p| match &p.kind {
            PacketKind::Probe(f) if f.registering => Some(f.epoch),
            _ => None,
        })
        .next()
        .expect("re-registration probe");
    assert!(reg >= 2, "epoch must advance on re-registration");
    assert_eq!(h.agent.is_active(pair), Some(true));
}

#[test]
fn received_probe_is_answered_with_admitted_tokens() {
    // The harness host also acts as a destination: a probe arriving for an
    // incoming pair must be answered with a Response carrying rx tokens.
    let (mut h, _pair) = Harness::new();
    let frame = telemetry::ProbeFrame::probe(h.rev.raw(), 0, 3.0, 10_000.0, 0);
    let pkt = Packet {
        src: NodeId(1),
        dst: h.host,
        pair: h.rev,
        tenant: netsim::TenantId(0),
        size: 90,
        kind: PacketKind::Probe(frame),
        route: [netsim::PortNo(0), netsim::PortNo(0)].into(),
        hop: 2,
        max_util: 0.0,
        sent_at: 0,
    };
    let (_, fx) = h.with_ctx(|a, ctx| a.on_packet(ctx, pkt));
    let resp = fx
        .sends()
        .iter()
        .find_map(|p| match &p.kind {
            PacketKind::Response(f) => Some(f.clone()),
            _ => None,
        })
        .expect("a response must go back");
    assert_eq!(resp.pair, h.rev.raw());
    assert!(resp.rx_phi.is_some());
}

#[test]
fn endpoint_slots_stay_valid_across_restart() {
    let (mut h, pair) = Harness::new();
    // Outgoing backlog plus incoming demand, so that both the pair table
    // and the receiver rows cache endpoint slots.
    h.with_ctx(|a, ctx| a.submit(ctx, AppMsg::oneway(1, pair, 1_000_000, 0)));
    let probe = |rev: netsim::PairId, host, seq| Packet {
        src: NodeId(1),
        dst: host,
        pair: rev,
        tenant: netsim::TenantId(0),
        size: 90,
        kind: PacketKind::Probe(telemetry::ProbeFrame::probe(rev.raw(), seq, 3.0, 1e4, 0)),
        route: [netsim::PortNo(0), netsim::PortNo(0)].into(),
        hop: 2,
        max_util: 0.0,
        sent_at: 0,
    };
    let pkt = probe(h.rev, h.host, 0);
    h.with_ctx(|a, ctx| a.on_packet(ctx, pkt));
    let inflight = h.agent.ep.inflight(pair);
    assert!(inflight > 0);
    h.agent.check_ready_set().unwrap();

    h.now += 50 * US;
    let (_, fx) = h.with_ctx(|a, ctx| a.on_restart(ctx));
    // The transport state is the same state (same slot), the rebuilt pair
    // table found it again, and the pump sends from it.
    assert_eq!(h.agent.edge_stats().restarts, 1);
    assert_eq!(h.agent.is_active(pair), Some(true));
    assert!(h.agent.ep.inflight(pair) >= inflight);
    assert!(h.agent.ep.sendable(pair));
    h.agent.check_ready_set().unwrap();
    let sends = fx.sends();
    assert!(sends
        .iter()
        .any(|p| matches!(&p.kind, PacketKind::Probe(f) if f.registering)));
    // A tick and another incoming probe after the restart index the
    // receiver rows by the surviving endpoint slots.
    h.now += 50 * US;
    h.with_ctx(|a, ctx| a.on_timer(ctx, 1));
    let pkt = probe(h.rev, h.host, 1);
    let (_, fx) = h.with_ctx(|a, ctx| a.on_packet(ctx, pkt));
    assert!(fx
        .sends()
        .iter()
        .any(|p| matches!(p.kind, PacketKind::Response(_))));
    h.agent.check_ready_set().unwrap();
}

#[test]
fn retired_pair_is_released_only_once_none_of_its_packets_is_left() {
    let (mut h, pair) = Harness::new();
    let (_, fx) = h.with_ctx(|a, ctx| a.submit(ctx, AppMsg::oneway(1, pair, 500, 0)));
    h.deliver(fx);
    h.now += 10 * US;
    let ack = ack_of_500_bytes(pair, h.host);
    let (_, fx) = h.with_ctx(|a, ctx| a.on_packet(ctx, ack));
    h.deliver(fx);
    // Idle: the pair deactivates and sends its finish; the echo comes
    // back acknowledged by every switch.
    let finish = h.tick(2 * MS);
    let mut echo = finish
        .into_iter()
        .find(|p| matches!(p.kind, PacketKind::Finish(_)))
        .expect("a finish probe");
    let PacketKind::Finish(mut frame) = echo.kind else {
        unreachable!()
    };
    (frame.forward, frame.acks) = (false, vec![true; 8]);
    (echo.kind, echo.src, echo.dst) = (PacketKind::FinishAck(frame), echo.dst, echo.src);
    let (_, fx) = h.with_ctx(|a, ctx| a.on_packet(ctx, echo));
    h.deliver(fx);
    assert_eq!(h.agent.is_active(pair), Some(false));

    // Retired with one of its packets still out there (a late duplicate,
    // say): every tick keeps the pair's state until the packet is gone.
    h.agent.retire(pair);
    let stray = h.arena.alloc(ack_of_500_bytes(pair, h.host));
    for _ in 0..3 {
        h.tick(MS);
        assert!(h.agent.holds(pair));
        assert_eq!(h.agent.is_active(pair), Some(false));
    }
    h.arena.recycle(stray);
    h.tick(MS);
    assert!(!h.agent.holds(pair));
    assert_eq!(h.agent.is_active(pair), None);
    assert_eq!(h.agent.slot_use(), [(0, 1), (0, 1)]);
    h.agent.check_ready_set().unwrap();
    // Its slots are the next pair's: the reverse pair, arriving fresh.
    let probe = Packet {
        src: NodeId(1),
        dst: h.host,
        pair: h.rev,
        tenant: netsim::TenantId(0),
        size: 90,
        kind: PacketKind::Probe(telemetry::ProbeFrame::probe(h.rev.raw(), 0, 3.0, 1e4, 0)),
        route: [netsim::PortNo(0), netsim::PortNo(0)].into(),
        hop: 2,
        max_util: 0.0,
        sent_at: 0,
    };
    let (_, fx) = h.with_ctx(|a, ctx| a.on_packet(ctx, probe));
    h.deliver(fx);
    assert_eq!(h.agent.slot_use(), [(0, 1), (1, 1)]);
}

/// A retune is in force within one 32 µs token period: the lone active
/// pair's sender token is the new hose, the receiver admits incoming
/// demand against it, and the tenant's WFQ class follows at once.
#[test]
fn retune_reaches_gp_within_one_token_period() {
    let (mut h, pair) = Harness::new();
    h.with_ctx(|a, ctx| a.submit(ctx, AppMsg::oneway(1, pair, 10_000_000, 0)));
    // Incoming demand of 10 tokens on the reverse pair; the answer to
    // each probe carries the token admitted at the last tick.
    let mut seq = 0;
    let mut admitted = |h: &mut Harness| {
        let frame = telemetry::ProbeFrame::probe(h.rev.raw(), seq, 10.0, 1e4, h.now);
        seq += 1;
        let probe = Packet {
            src: NodeId(1),
            dst: h.host,
            pair: h.rev,
            tenant: TenantId(0),
            size: 90,
            kind: PacketKind::Probe(frame),
            route: [netsim::PortNo(0), netsim::PortNo(0)].into(),
            hop: 2,
            max_util: 0.0,
            sent_at: h.now,
        };
        let (_, fx) = h.with_ctx(|a, ctx| a.on_packet(ctx, probe));
        let resp = h.deliver(fx).into_iter().find_map(|p| match p.kind {
            PacketKind::Response(f) => f.rx_phi,
            _ => None,
        });
        resp.expect("a response with the admitted token")
    };
    let tenant = TenantId(0);
    admitted(&mut h);
    h.tick(32 * US);
    assert_eq!(h.agent.tokens_of(pair), Some(2.0));
    assert_eq!(admitted(&mut h), 2.0);
    assert_eq!(h.agent.weight_of(tenant), Some(2.0));

    let mut spec = (*h.fabric).clone();
    spec.set_tokens(tenant, 8.0);
    h.agent.set_fabric(Arc::new(spec));
    assert_eq!(h.agent.weight_of(tenant), Some(8.0));
    h.tick(32 * US);
    assert_eq!(h.agent.tokens_of(pair), Some(8.0));
    assert_eq!(admitted(&mut h), 8.0);
}

/// The ack of `pair`'s first 500-byte segment, headed for `host`.
fn ack_of_500_bytes(pair: netsim::PairId, host: NodeId) -> Packet {
    Packet {
        src: NodeId(1),
        dst: host,
        pair,
        tenant: netsim::TenantId(0),
        size: 64,
        kind: PacketKind::Ack(netsim::packet::AckInfo {
            seq: 0,
            cum: 1,
            echo_ts: 0,
            max_util: 0.0,
            grant_bps: 0.0,
            payload: 500,
        }),
        route: netsim::Route::new(),
        hop: 0,
        max_util: 0.0,
        sent_at: 0,
    }
}
