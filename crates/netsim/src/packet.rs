//! Packets and their payloads.

use crate::ids::{FlowId, NodeId, PairId, TenantId};
use crate::route::Route;
use crate::time::Time;
use telemetry::{FinishFrame, ProbeFrame};

/// Payload-bearing data segment metadata.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataInfo {
    /// Per-pair transport sequence number (one per packet).
    pub seq: u64,
    /// Application flow / message this segment belongs to.
    pub flow: FlowId,
    /// Payload bytes carried (wire size minus framing).
    pub payload: u32,
    /// Workload tag propagated to completions.
    pub tag: u32,
    /// True if this is a retransmission.
    pub retx: bool,
    /// Total size of the message this segment belongs to (lets the
    /// receiver detect completion without a separate control channel).
    pub msg_bytes: u64,
    /// When the message was submitted at the sender (for FCT accounting).
    pub flow_start: Time,
    /// If nonzero, the receiver should auto-reply with a message of this
    /// size on the reverse pair once the whole message arrives (RPC).
    pub reply_bytes: u64,
}

/// Acknowledgement metadata, piggybacking the feedback channels every
/// transport in the repo needs (Swift timestamps, utilisation echo for
/// Clove, PicNIC′ receiver grants).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AckInfo {
    /// Sequence number being acknowledged (selective).
    pub seq: u64,
    /// Cumulative ack: all sequence numbers `< cum` received.
    pub cum: u64,
    /// Sender timestamp echoed from the data packet (for RTT).
    pub echo_ts: Time,
    /// Maximum link utilisation stamped along the data packet's path.
    pub max_util: f32,
    /// Receiver-driven rate grant in bits/sec (0 = no grant).
    pub grant_bps: f64,
    /// Payload bytes credited by this ack.
    pub payload: u32,
}

/// What a packet is.
#[derive(Debug, Clone, PartialEq)]
pub enum PacketKind {
    /// Application payload.
    Data(DataInfo),
    /// Transport acknowledgement.
    Ack(AckInfo),
    /// μFAB probe travelling source → destination, accumulating INT.
    Probe(ProbeFrame),
    /// μFAB response travelling destination → source.
    Response(ProbeFrame),
    /// μFAB finish probe deregistering a pair at switches (§3.6).
    Finish(FinishFrame),
    /// Echo of a finish probe carrying the per-switch acknowledgements.
    FinishAck(FinishFrame),
}

impl PacketKind {
    /// Short label for traces.
    pub fn label(&self) -> &'static str {
        match self {
            PacketKind::Data(_) => "data",
            PacketKind::Ack(_) => "ack",
            PacketKind::Probe(_) => "probe",
            PacketKind::Response(_) => "resp",
            PacketKind::Finish(_) => "fin",
            PacketKind::FinishAck(_) => "finack",
        }
    }

    /// Convert a probe into its type-4 failure-notification form
    /// (Appendix G); other kinds pass through unchanged.
    pub(crate) fn into_failure(self) -> Self {
        match self {
            PacketKind::Probe(f) => PacketKind::Response(f.into_failure()),
            other => other,
        }
    }

    /// Cheap all-`Copy` placeholder, used to move a kind out of a
    /// packet that is being transformed in place (no heap touched).
    pub(crate) fn placeholder() -> Self {
        PacketKind::Ack(AckInfo {
            seq: 0,
            cum: 0,
            echo_ts: 0,
            max_util: 0.0,
            grant_bps: 0.0,
            payload: 0,
        })
    }

    /// True for probe-plane packets (counted as probing overhead, Fig 15b).
    pub(crate) fn is_probe_plane(&self) -> bool {
        matches!(
            self,
            PacketKind::Probe(_)
                | PacketKind::Response(_)
                | PacketKind::Finish(_)
                | PacketKind::FinishAck(_)
        )
    }
}

/// A simulated packet.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// VM-pair the packet belongs to (`PairId(u32::MAX)` = none).
    pub pair: PairId,
    /// Tenant / VF.
    pub tenant: TenantId,
    /// Total bytes on the wire.
    pub size: u32,
    /// Payload / role.
    pub kind: PacketKind,
    /// Source route: egress port to take at each node, starting with the
    /// sending host. Empty route falls back to per-node ECMP tables.
    /// Stored inline for ≤ `crate::MAX_INLINE_HOPS` hops (no per-packet
    /// allocation on FatTree-depth paths).
    pub route: Route,
    /// Next index into `route` to consume.
    pub hop: usize,
    /// Maximum link utilisation seen along the path (informative-lite
    /// stamping used by the Clove baseline).
    pub max_util: f32,
    /// Time the packet was (last) put on the wire by its source.
    pub sent_at: Time,
}

impl Packet {
    /// An inert placeholder left inside a recycled box shell after
    /// [`PacketArena::unbox`] moves the payload out. All-`Copy` fields:
    /// building (and later overwriting) it touches no heap.
    fn shell() -> Self {
        Packet {
            src: NodeId(0),
            dst: NodeId(0),
            pair: NO_PAIR,
            tenant: TenantId(0),
            size: 0,
            kind: PacketKind::placeholder(),
            route: Route::new(),
            hop: 0,
            max_util: 0.0,
            sent_at: 0,
        }
    }
}

/// A `PairId` meaning "not pair traffic".
pub(crate) const NO_PAIR: PairId = PairId(u32::MAX);

/// Counters exported by [`PacketArena`] for accounting and invariants.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Boxes handed out (fresh or reused).
    pub allocated: u64,
    /// Boxes returned to the free list.
    pub recycled: u64,
    /// Boxes that had to be heap-allocated (free list empty).
    pub fresh: u64,
    /// Boxes currently parked on the free list.
    pub free: u64,
}

impl ArenaStats {
    /// Boxes handed out and not yet returned — must equal the number of
    /// packets in flight (port queues + event queue) between events.
    pub fn outstanding(&self) -> u64 {
        self.allocated - self.recycled
    }
}

/// Free-list recycler for `Box<Packet>`.
///
/// The simulator moves packets by pointer from the moment an agent
/// sends one until it is delivered or dropped. Without recycling, every
/// packet costs one heap allocation at `send` and one free at
/// delivery/drop; at millions of events per second that malloc churn
/// dominates the hot loop. The arena keeps returned boxes on a plain
/// `Vec` free list, so the steady state allocates nothing: `alloc`
/// overwrites a parked box in place and `unbox`/`recycle` park it
/// again.
///
/// Accounting is part of the contract: `allocated - recycled` must
/// equal the packets in flight across port queues and the event queue
/// whenever the simulator is between events. The `PacketArenaBalance`
/// invariant (registered by the experiment harness) checks this
/// online, so a leaked or double-freed box is caught during the run
/// rather than as an unexplained slowdown. The same two points keep a
/// per-pair count of the packets out there ([`PacketArena::in_network`]):
/// an edge may forget a pair only when none of its packets is left.
#[derive(Debug, Default)]
pub struct PacketArena {
    // The free list *is* a stash of boxes — the whole point is to keep
    // the allocations alive for reuse.
    #[allow(clippy::vec_box)]
    free: Vec<Box<Packet>>,
    allocated: u64,
    recycled: u64,
    fresh: u64,
    /// Outstanding boxes per `PairId` (grown on demand).
    in_network: Vec<u32>,
}

impl PacketArena {
    /// Box `pkt`, reusing a parked shell when one is available.
    #[inline]
    pub fn alloc(&mut self, pkt: Packet) -> Box<Packet> {
        self.allocated += 1;
        let i = pkt.pair.idx();
        if i >= self.in_network.len() {
            self.in_network.resize(i + 1, 0);
        }
        self.in_network[i] += 1;
        match self.free.pop() {
            Some(mut b) => {
                *b = pkt;
                b
            }
            None => {
                self.fresh += 1;
                Box::new(pkt)
            }
        }
    }

    /// Return a box whose payload is no longer needed (drop paths).
    #[inline]
    pub fn recycle(&mut self, b: Box<Packet>) {
        self.recycled += 1;
        self.in_network[b.pair.idx()] -= 1;
        self.free.push(b);
    }

    /// Move the payload out of `b` and park the shell (delivery path:
    /// the agent receives the `Packet` by value, the box stays here).
    #[inline]
    pub(crate) fn unbox(&mut self, mut b: Box<Packet>) -> Packet {
        let pkt = std::mem::replace(&mut *b, Packet::shell());
        self.recycled += 1;
        self.in_network[pkt.pair.idx()] -= 1;
        self.free.push(b);
        pkt
    }

    /// Packets of `pair` handed out and not yet delivered or dropped.
    pub fn in_network(&self, pair: PairId) -> u32 {
        self.in_network.get(pair.idx()).copied().unwrap_or(0)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            allocated: self.allocated,
            recycled: self.recycled,
            fresh: self.fresh,
            free: self.free.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::PortNo;

    fn mk(kind: PacketKind) -> Packet {
        Packet {
            src: NodeId(0),
            dst: NodeId(1),
            pair: PairId(0),
            tenant: TenantId(0),
            size: 100,
            kind,
            route: [PortNo(0), PortNo(2)].into(),
            hop: 0,
            max_util: 0.0,
            sent_at: 0,
        }
    }

    #[test]
    fn probe_plane_classification() {
        let d = mk(PacketKind::Data(DataInfo {
            seq: 0,
            flow: FlowId(0),
            payload: 42,
            tag: 0,
            retx: false,
            msg_bytes: 0,
            flow_start: 0,
            reply_bytes: 0,
        }));
        assert!(!d.kind.is_probe_plane());
        assert_eq!(d.kind.label(), "data");
        let p = mk(PacketKind::Probe(ProbeFrame::probe(0, 0, 1.0, 0.0, 0)));
        assert!(p.kind.is_probe_plane());
        assert_eq!(p.kind.label(), "probe");
    }

    #[test]
    fn arena_recycles_and_balances() {
        let mut a = PacketArena::default();
        let b1 = a.alloc(mk(PacketKind::Probe(ProbeFrame::probe(0, 0, 1.0, 0.0, 0))));
        let b2 = a.alloc(mk(PacketKind::Probe(ProbeFrame::probe(1, 0, 1.0, 0.0, 0))));
        assert_eq!(a.stats().fresh, 2);
        assert_eq!(a.stats().outstanding(), 2);
        assert_eq!(a.in_network(PairId(0)), 2);
        // Delivery path: payload moves out, shell parks.
        let p = a.unbox(b1);
        assert!(matches!(p.kind, PacketKind::Probe(_)));
        assert_eq!(a.stats().outstanding(), 1);
        assert_eq!(a.in_network(PairId(0)), 1);
        // Drop path: payload parks with the shell.
        a.recycle(b2);
        assert_eq!(a.stats().outstanding(), 0);
        assert_eq!((a.in_network(PairId(0)), a.in_network(PairId(7))), (0, 0));
        assert_eq!(a.stats().free, 2);
        // Steady state: reuse, no fresh allocation.
        let b3 = a.alloc(mk(PacketKind::Data(DataInfo {
            seq: 9,
            flow: FlowId(0),
            payload: 1,
            tag: 0,
            retx: false,
            msg_bytes: 0,
            flow_start: 0,
            reply_bytes: 0,
        })));
        assert_eq!(a.stats().fresh, 2, "free list should satisfy realloc");
        assert!(matches!(b3.kind, PacketKind::Data(d) if d.seq == 9));
        a.recycle(b3);
        assert_eq!(a.stats().allocated, a.stats().recycled);
    }
}
