//! Egress ports: the sending side of a unidirectional channel.

use crate::builder::LinkSpec;
use crate::ids::{NodeId, PortNo};
use crate::packet::Packet;
use crate::time::{Time, US};
use std::collections::VecDeque;
use telemetry::RateEstimator;

/// Counters exported for experiment sampling.
#[derive(Debug, Clone, Copy, Default)]
pub struct PortStats {
    /// Packets fully serialized onto the wire.
    pub tx_pkts: u64,
    /// Packets dropped at enqueue (buffer overflow).
    pub drops_overflow: u64,
    /// Packets dropped because the link was down.
    pub drops_down: u64,
    /// Packets dropped by the chaos engine (burst or selective loss).
    pub drops_chaos: u64,
}

/// TX-rate meter time constant in nanoseconds, on every port (≈RTT
/// scale per §3.2's utilisation-gap argument).
const TX_METER_TAU: Time = 100 * US;

/// One egress port.
#[derive(Debug)]
pub struct Port {
    /// Receiving node of this channel.
    pub peer: NodeId,
    /// Port on the peer that faces back (for reverse-path construction).
    pub peer_port: PortNo,
    /// Link capacity in bits/sec.
    pub cap_bps: u64,
    /// Propagation delay in nanoseconds.
    pub prop_ns: Time,
    /// Drop-tail limit in bytes.
    pub buf_bytes: u64,
    /// Administrative / failure state.
    pub up: bool,
    /// Currently serializing a packet.
    pub busy: bool,
    /// The queue (boxed: packets move through the simulator by
    /// pointer, not by value — see `sim.rs`).
    pub queue: VecDeque<Box<Packet>>,
    /// Bytes currently queued.
    pub q_bytes: u64,
    /// TX rate estimator (`tx_l`).
    pub meter: RateEstimator,
    /// Counters.
    pub stats: PortStats,
}

/// Outcome of an enqueue attempt. Drop variants hand the box back so
/// the caller can return it to the packet arena instead of freeing it.
#[derive(Debug)]
pub(crate) enum EnqueueResult {
    /// Queued; `true` if the port was idle and transmission should
    /// start.
    Queued {
        /// Port had no packet in service.
        start_tx: bool,
    },
    /// Dropped: buffer full.
    DroppedOverflow(Box<Packet>),
    /// Dropped: link down.
    DroppedDown(Box<Packet>),
}

impl Port {
    /// Create the port of one channel towards `peer`.
    pub(crate) fn new(peer: NodeId, peer_port: PortNo, spec: LinkSpec) -> Self {
        assert!(spec.cap_bps > 0, "port capacity must be positive");
        Self {
            peer,
            peer_port,
            cap_bps: spec.cap_bps,
            prop_ns: spec.prop_ns,
            buf_bytes: spec.buf_bytes,
            up: true,
            busy: false,
            queue: VecDeque::new(),
            q_bytes: 0,
            meter: RateEstimator::new(TX_METER_TAU),
            stats: PortStats::default(),
        }
    }

    /// Attempt to enqueue `pkt` under drop-tail.
    pub(crate) fn enqueue(&mut self, pkt: Box<Packet>) -> EnqueueResult {
        if !self.up {
            self.stats.drops_down += 1;
            return EnqueueResult::DroppedDown(pkt);
        }
        if self.q_bytes + pkt.size as u64 > self.buf_bytes {
            self.stats.drops_overflow += 1;
            return EnqueueResult::DroppedOverflow(pkt);
        }
        self.q_bytes += pkt.size as u64;
        self.queue.push_back(pkt);
        EnqueueResult::Queued {
            start_tx: !self.busy,
        }
    }

    /// Pop the head-of-line packet for transmission, updating byte counts.
    pub(crate) fn dequeue(&mut self) -> Option<Box<Packet>> {
        let pkt = self.queue.pop_front()?;
        self.q_bytes -= pkt.size as u64;
        Some(pkt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FlowId, PairId, TenantId};
    use crate::packet::{DataInfo, PacketKind};
    use crate::route::Route;

    fn pkt(size: u32) -> Box<Packet> {
        Box::new(Packet {
            src: NodeId(0),
            dst: NodeId(1),
            pair: PairId(0),
            tenant: TenantId(0),
            size,
            kind: PacketKind::Data(DataInfo {
                seq: 0,
                flow: FlowId(0),
                payload: size,
                tag: 0,
                retx: false,
                msg_bytes: 0,
                flow_start: 0,
                reply_bytes: 0,
            }),
            route: Route::new(),
            hop: 0,
            max_util: 0.0,
            sent_at: 0,
        })
    }

    fn port(buf: u64) -> Port {
        Port::new(NodeId(1), PortNo(0), LinkSpec::gbps(10, 1000).with_buf(buf))
    }

    #[test]
    fn drop_tail_by_bytes() {
        let mut p = port(2500);
        assert!(matches!(
            p.enqueue(pkt(1500)),
            EnqueueResult::Queued { start_tx: true }
        ));
        p.busy = true;
        assert!(matches!(
            p.enqueue(pkt(1000)),
            EnqueueResult::Queued { start_tx: false }
        ));
        assert!(matches!(
            p.enqueue(pkt(1)),
            EnqueueResult::DroppedOverflow(_)
        ));
        assert_eq!(p.stats.drops_overflow, 1);
        assert_eq!(p.q_bytes, 2500);
    }

    #[test]
    fn down_port_drops() {
        let mut p = port(10_000);
        p.up = false;
        assert!(matches!(p.enqueue(pkt(100)), EnqueueResult::DroppedDown(_)));
        assert_eq!(p.stats.drops_down, 1);
    }

    #[test]
    fn dequeue_empty_is_none() {
        let mut p = port(10_000);
        assert!(p.dequeue().is_none());
    }
}
