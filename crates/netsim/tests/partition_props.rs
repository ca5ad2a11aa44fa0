//! A pod partition must be invisible in everything an agent or a
//! counter can observe: the windowed loop over two logical processes
//! and the plain event loop over the same network deliver the same
//! packets, drop the same packets, and leave nothing behind in a
//! cross-LP mailbox.

use netsim::builder::{LinkSpec, NetworkBuilder};
use netsim::{
    DataInfo, EdgeAgent, EdgeCtx, FaultKind, FaultPlan, FlowId, NodeId, Packet, PacketKind, PairId,
    PortNo, Simulator, TenantId, Time, MS, US,
};
use proptest::prelude::*;
use std::any::Any;

const TO_SEND: u64 = 400;
const WINDOW: u64 = 32;

/// Keeps `WINDOW` requests (tag 0) in flight to `dst` and echoes every
/// request it receives back as a reply (tag 1). Nothing is
/// retransmitted: a lost request or reply is a window slot gone for
/// good, so `sent - answered` is exactly the packets that vanished.
struct Peer {
    node: NodeId,
    dst: NodeId,
    route: Vec<PortNo>,
    sent: u64,
    answered: u64,
    received: u64,
}

impl Peer {
    fn pump(&mut self, ctx: &mut EdgeCtx) {
        while self.sent - self.answered < WINDOW && self.sent < TO_SEND {
            ctx.send(Packet {
                src: self.node,
                dst: self.dst,
                pair: PairId(self.node.raw()),
                tenant: TenantId(0),
                size: 1500,
                kind: PacketKind::Data(DataInfo {
                    seq: self.sent,
                    flow: FlowId(1),
                    payload: 1460,
                    tag: 0,
                    retx: false,
                    msg_bytes: 0,
                    flow_start: 0,
                    reply_bytes: 0,
                }),
                route: self.route.clone().into(),
                hop: 0,
                ecn: false,
                max_util: 0.0,
                sent_at: ctx.now,
            });
            self.sent += 1;
        }
    }
}

impl EdgeAgent for Peer {
    fn on_start(&mut self, ctx: &mut EdgeCtx) {
        self.pump(ctx);
    }
    fn on_packet(&mut self, ctx: &mut EdgeCtx, pkt: Packet) {
        match pkt.kind {
            PacketKind::Data(d) if d.tag == 0 => {
                self.received += 1;
                ctx.send(Packet {
                    src: self.node,
                    dst: self.dst,
                    // Small, so that serialization (0.5 µs on the
                    // boundary link) cannot hide a stale lookahead.
                    size: 64,
                    kind: PacketKind::Data(DataInfo { tag: 1, ..d }),
                    route: self.route.clone().into(),
                    hop: 0,
                    ..pkt
                });
            }
            PacketKind::Data(_) => {
                self.answered += 1;
                self.pump(ctx);
            }
            _ => {}
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

/// Two pods joined by one core, h0—t0—c—t1—h1, cut `[0, 1, 0, 1, 0]`
/// when `partitioned` (pod 0 and the core on LP 0, pod 1 on LP 1). The
/// one cross-LP link, t1—c, has `boundary_prop` ns of propagation, a
/// tenth of the other links' capacity and a buffer smaller than a
/// window, so it drops by overflow; the host uplinks drop at random.
/// Returns per-host `(sent, answered, received)`, drops, events.
fn run(
    seed: u64,
    boundary_prop: Time,
    degrade: bool,
    partitioned: bool,
) -> ([(u64, u64, u64); 2], u64, u64) {
    let mut b = NetworkBuilder::new();
    let (h0, h1) = (b.add_host(), b.add_host());
    let (t0, t1, c) = (b.add_switch(), b.add_switch(), b.add_switch());
    let edge = LinkSpec::gbps(10, US);
    b.connect_asym(h0, t0, edge.with_loss(0.005), edge); // h0:0 ↔ t0:0
    b.connect_asym(h1, t1, edge.with_loss(0.005), edge); // h1:0 ↔ t1:0
    b.connect(t0, c, edge); // t0:1 ↔ c:0
    b.connect(t1, c, LinkSpec::gbps(1, boundary_prop).with_buf(30_000)); // t1:1 ↔ c:1
    if partitioned {
        b.set_partition(vec![0, 1, 0, 1, 0]);
    }
    let mut sim = Simulator::new(b.build(), seed);
    for (node, dst, route) in [(h0, h1, [0, 1, 1, 0]), (h1, h0, [0, 1, 0, 0])] {
        let route = route.into_iter().map(PortNo).collect();
        let peer = Peer {
            node,
            dst,
            route,
            sent: 0,
            answered: 0,
            received: 0,
        };
        sim.set_edge_agent(node, Box::new(peer));
    }
    if degrade {
        // Shorten the boundary link mid-run (lengthen the 1 ns one: the
        // engine refuses a 0 ns cross-LP link).
        sim.apply_chaos(&FaultPlan::new(seed).fault(FaultKind::Degrade {
            node: t1,
            port: PortNo(1),
            from: MS,
            until: 3 * MS,
            cap_factor: 1.0,
            prop_factor: if boundary_prop > 1 { 0.5 } else { 2.0 },
        }));
    }
    // Stop once mid-transfer, so the loop also exits and re-enters with
    // packets in flight, then drain.
    sim.run_until(2 * MS);
    sim.run_to_quiescence();
    assert_eq!(sim.packets_in_flight(), 0);
    assert_eq!(sim.arena_stats().outstanding(), 0);
    let host = |h| {
        let p = sim.edge::<Peer>(h);
        (p.sent, p.answered, p.received)
    };
    ([host(h0), host(h1)], sim.stats().drops, sim.stats().events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The four `prop_ns` values sit on both sides of the 2 µs lookahead
    /// cap (1 ns: one timestamp per window; 5 µs: the cap binds).
    #[test]
    fn partitioned_run_matches_unpartitioned_run(
        seed in 0u64..10_000,
        boundary_prop in prop::sample::select(vec![1u64, 500, 2_000, 5_000]),
        degrade in any::<bool>(),
    ) {
        let serial = run(seed, boundary_prop, degrade, false);
        let windowed = run(seed, boundary_prop, degrade, true);
        prop_assert_eq!(&windowed, &serial);
        let (hosts, drops, _) = windowed;
        prop_assert!(drops > 0, "the bottleneck must drop something");
        prop_assert!(hosts.iter().all(|h| h.2 > 100), "traffic must reach the degrade window");
        // Every packet sent was delivered or dropped: had the window
        // loop exited with a message still in a mailbox, that packet
        // would be neither.
        let vanished: u64 = hosts.iter().map(|h| h.0 - h.1).sum();
        prop_assert_eq!(vanished, drops);
    }
}
