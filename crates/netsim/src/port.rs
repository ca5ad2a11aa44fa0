//! Egress ports: the sending side of a unidirectional channel.

use crate::ids::{NodeId, PortNo};
use crate::packet::Packet;
use crate::time::Time;
use std::collections::VecDeque;
use telemetry::RateEstimator;

/// Counters exported for experiment sampling.
#[derive(Debug, Clone, Copy, Default)]
pub struct PortStats {
    /// Packets fully serialized onto the wire.
    pub tx_pkts: u64,
    /// Bytes fully serialized onto the wire.
    pub tx_bytes: u64,
    /// Packets dropped at enqueue (buffer overflow).
    pub drops_overflow: u64,
    /// Packets dropped because the link was down.
    pub drops_down: u64,
    /// Packets dropped by the random-loss fault injector.
    pub drops_random: u64,
    /// Packets dropped by the chaos engine (burst or selective loss).
    pub drops_chaos: u64,
    /// Packets that left with an ECN mark.
    pub ecn_marked: u64,
    /// High-water mark of the queue in bytes.
    pub max_q_bytes: u64,
}

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
    /// Optional ECN marking threshold in bytes (instantaneous).
    pub ecn_thresh: Option<u64>,
    /// Random loss probability per packet (fault injection).
    pub loss_prob: f64,
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
    /// Queued (possibly ECN-marked); `true` if the port was idle and
    /// transmission should start.
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
    /// Create a port. `meter_tau_ns` sets the TX-rate estimator time
    /// constant (≈RTT scale per §3.2's utilisation-gap argument).
    pub(crate) fn new(
        peer: NodeId,
        peer_port: PortNo,
        cap_bps: u64,
        prop_ns: Time,
        buf_bytes: u64,
        ecn_thresh: Option<u64>,
        loss_prob: f64,
        meter_tau_ns: Time,
    ) -> Self {
        assert!(cap_bps > 0, "port capacity must be positive");
        Self {
            peer,
            peer_port,
            cap_bps,
            prop_ns,
            buf_bytes,
            ecn_thresh,
            loss_prob,
            up: true,
            busy: false,
            queue: VecDeque::new(),
            q_bytes: 0,
            meter: RateEstimator::new(meter_tau_ns),
            stats: PortStats::default(),
        }
    }

    /// Attempt to enqueue `pkt`. Applies drop-tail and ECN marking.
    pub(crate) fn enqueue(&mut self, mut pkt: Box<Packet>) -> EnqueueResult {
        if !self.up {
            self.stats.drops_down += 1;
            return EnqueueResult::DroppedDown(pkt);
        }
        if self.q_bytes + pkt.size as u64 > self.buf_bytes {
            self.stats.drops_overflow += 1;
            return EnqueueResult::DroppedOverflow(pkt);
        }
        if let Some(th) = self.ecn_thresh {
            if self.q_bytes >= th {
                pkt.ecn = true;
            }
        }
        self.q_bytes += pkt.size as u64;
        self.stats.max_q_bytes = self.stats.max_q_bytes.max(self.q_bytes);
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
            ecn: false,
            max_util: 0.0,
            sent_at: 0,
        })
    }

    fn port(buf: u64, ecn: Option<u64>) -> Port {
        Port::new(
            NodeId(1),
            PortNo(0),
            10_000_000_000,
            1000,
            buf,
            ecn,
            0.0,
            100_000,
        )
    }

    #[test]
    fn drop_tail_by_bytes() {
        let mut p = port(2500, None);
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
        assert_eq!(p.stats.max_q_bytes, 2500);
    }

    #[test]
    fn ecn_marks_above_threshold() {
        let mut p = port(100_000, Some(1000));
        p.enqueue(pkt(999)); // below threshold: no mark
        p.enqueue(pkt(100)); // q_bytes=999 < 1000: no mark either
        p.enqueue(pkt(100)); // q_bytes=1099 >= 1000: marked
        let a = p.dequeue().unwrap();
        let b = p.dequeue().unwrap();
        let c = p.dequeue().unwrap();
        assert!(!a.ecn && !b.ecn && c.ecn);
        assert_eq!(p.q_bytes, 0);
    }

    #[test]
    fn down_port_drops() {
        let mut p = port(10_000, None);
        p.up = false;
        assert!(matches!(p.enqueue(pkt(100)), EnqueueResult::DroppedDown(_)));
        assert_eq!(p.stats.drops_down, 1);
    }

    #[test]
    fn dequeue_empty_is_none() {
        let mut p = port(10_000, None);
        assert!(p.dequeue().is_none());
    }
}
