//! The host transport engine shared by μFAB-E and every baseline.
//!
//! Each edge agent owns one [`Endpoint`]. It provides, per VM-pair:
//!
//! * FIFO-of-messages send queues with round-robin service across the
//!   pair's application flows (the §4.1 scheduler's innermost level);
//! * packetisation to the fabric MTU;
//! * selective-repeat reliability (per-packet ACKs, cumulative edge,
//!   timeout retransmission with Karn's rule for RTT samples);
//! * receiver-side reassembly, duplicate suppression, delivery and FCT
//!   recording into the shared [`metrics::Recorder`];
//! * request/response RPC: a data stream can demand an auto-reply, which
//!   the receiving endpoint submits on the reverse pair, inheriting the
//!   original submission timestamp so query completion times are
//!   end-to-end.
//!
//! Keeping this engine common means the evaluation measures *control
//! plane* differences (μFAB vs. PicNIC′+WCC+Clove vs. ES+Clove), never
//! accidental transport differences.
//!
//! ## Slots and the ready bit
//!
//! Send and receive state live in `Vec`s indexed by a per-endpoint
//! *slot*; one `PairId → slot` map is the only hash lookup. A slot is
//! handed out the first time a pair is named and stays the pair's until
//! [`Endpoint::release`] gives it back, which μFAB-E does only for a
//! retired pair that nothing can reach any more; a released slot goes
//! on a free list and the next pair named gets it with fresh state. So
//! the slot count follows the pairs live at once, and a caller may cache
//! a slot for as long as its pair lives (μFAB-E does, across its own
//! restarts). Every public method takes a `PairId` and is a one-line
//! wrapper over the crate-internal `*_at(slot)` method that the μFAB-E
//! per-packet path calls directly.
//!
//! Each slot carries a **ready bit**: `msgs` or `retx` is non-empty.
//! Clear means `peek_segment` is `None`; set promises nothing (queued
//! retransmissions may all have been acked since). A scheduler may skip
//! clear pairs without asking. Only `submit`, `next_segment`,
//! `check_timeouts` and `clear_backlog` touch those queues and each
//! re-derives the bit, so it cannot go stale; the `ReadySetSound`
//! invariant checks that on live runs.

use crate::fabric::FabricSpec;
use crate::put;
use metrics::recorder::{Completion, SharedRecorder};
use netsim::packet::{AckInfo, DataInfo, Packet, PacketKind};
use netsim::{FastMap, FlowId, NodeId, PairId, Time, DATA_OVERHEAD};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;
use telemetry::RateEstimator;

/// Flow-id bit marking an auto-generated RPC reply.
pub const REPLY_FLAG: u64 = 1 << 63;

/// Cap on the exponential RTO backoff: the effective RTO never exceeds
/// `base_rto << RTO_BACKOFF_CAP_EXP` (64×). Keeps a long-blackholed
/// pair probing often enough to notice repair quickly while bounding
/// its retransmit-storm contribution.
pub(crate) const RTO_BACKOFF_CAP_EXP: u32 = 6;

// `AppMsg` now lives in `netsim` (shared by every layer); re-exported
// here so existing `ufab::endpoint::AppMsg` imports keep working.
pub use netsim::AppMsg;

#[derive(Debug)]
struct PendingMsg {
    flow: FlowId,
    size: u64,
    sent: u64,
    start: Time,
    tag: u32,
    reply_size: u64,
}

#[derive(Debug, Clone)]
struct Outstanding {
    payload: u32,
    sent_at: Time,
    flow: FlowId,
    tag: u32,
    msg_bytes: u64,
    flow_start: Time,
    reply_bytes: u64,
    retx: bool,
    queued_retx: bool,
}

/// Sender-side per-pair transport state.
#[derive(Debug)]
pub(crate) struct SendState {
    msgs: VecDeque<PendingMsg>,
    next_seq: u64,
    outstanding: BTreeMap<u64, Outstanding>,
    inflight: u64,
    retx: VecDeque<u64>,
    backlog: u64,
    /// A message was submitted on this pair at some point (the slot is
    /// not receive-only).
    submitted: bool,
    /// Exponential RTO backoff exponent: grows by one per timeout
    /// round (capped at [`RTO_BACKOFF_CAP_EXP`]), reset by any valid
    /// ACK. Blackholed pairs thus retransmit at rto, 2·rto, 4·rto, …
    /// instead of a fixed-interval storm.
    backoff: u32,
    /// Cumulative acked payload bytes — monotone progress counter used
    /// by wedged-pair detection (unlike `last_activity`, it cannot be
    /// refreshed by fruitless retransmissions).
    acked_bytes: u64,
    /// Sent-payload rate (GP demand estimation).
    pub tx_meter: RateEstimator,
    /// Acked-payload rate (violation detection).
    pub acked_meter: RateEstimator,
    /// Last submit/send/ack activity.
    pub last_activity: Time,
}

impl SendState {
    fn new(meter_tau: Time) -> Self {
        Self {
            msgs: VecDeque::new(),
            next_seq: 0,
            outstanding: BTreeMap::new(),
            inflight: 0,
            retx: VecDeque::new(),
            backlog: 0,
            submitted: false,
            backoff: 0,
            acked_bytes: 0,
            tx_meter: RateEstimator::new(meter_tau),
            acked_meter: RateEstimator::new(meter_tau),
            last_activity: 0,
        }
    }

    /// The ready-bit definition: a queue `peek`/`pop_segment` reads from
    /// is non-empty. An over-approximation of "has a segment to send"
    /// (queued retransmissions may all have been acked meanwhile).
    fn sendable(&self) -> bool {
        !self.msgs.is_empty() || !self.retx.is_empty()
    }

    fn peek(&self, ppp: u32) -> Option<(u32, bool)> {
        for seq in &self.retx {
            if let Some(o) = self.outstanding.get(seq) {
                return Some((o.payload, true));
            }
        }
        let msg = self.msgs.front()?;
        Some(((msg.size - msg.sent).min(ppp as u64) as u32, false))
    }

    /// Retransmissions first, then fresh data served round-robin across
    /// the pair's messages.
    fn pop_segment(
        &mut self,
        now: Time,
        ppp: u32,
        recorder: &SharedRecorder,
    ) -> Option<(DataInfo, u32)> {
        while let Some(seq) = self.retx.pop_front() {
            if let Some(o) = self.outstanding.get_mut(&seq) {
                o.sent_at = now;
                o.retx = true;
                o.queued_retx = false;
                self.last_activity = now;
                let info = DataInfo {
                    seq,
                    flow: o.flow,
                    payload: o.payload,
                    tag: o.tag,
                    retx: true,
                    msg_bytes: o.msg_bytes,
                    flow_start: o.flow_start,
                    reply_bytes: o.reply_bytes,
                };
                recorder.lock().expect("recorder poisoned").retransmits += 1;
                return Some((info, o.payload + DATA_OVERHEAD));
            }
            // Acked while queued for retx: skip.
        }
        // Fresh data.
        let msg = self.msgs.front_mut()?;
        let remaining = msg.size - msg.sent;
        let payload = remaining.min(ppp as u64) as u32;
        let seq = self.next_seq;
        self.next_seq += 1;
        msg.sent += payload as u64;
        let info = DataInfo {
            seq,
            flow: msg.flow,
            payload,
            tag: msg.tag,
            retx: false,
            msg_bytes: msg.size,
            flow_start: msg.start,
            reply_bytes: msg.reply_size,
        };
        self.outstanding.insert(
            seq,
            Outstanding {
                payload,
                sent_at: now,
                flow: msg.flow,
                tag: msg.tag,
                msg_bytes: msg.size,
                flow_start: msg.start,
                reply_bytes: msg.reply_size,
                retx: false,
                queued_retx: false,
            },
        );
        self.inflight += payload as u64;
        self.backlog -= payload as u64;
        self.tx_meter.on_bytes(now, payload as u64);
        self.last_activity = now;
        let fully_sent = msg.sent >= msg.size;
        // Round-robin across the pair's messages: rotate unfinished
        // messages to the back, drop finished ones.
        let m = self.msgs.pop_front().expect("peeked above");
        if !fully_sent {
            self.msgs.push_back(m);
        }
        Some((info, payload + DATA_OVERHEAD))
    }
}

#[derive(Debug, Default)]
struct FlowRx {
    got: u64,
    size: u64,
    start: Time,
    tag: u32,
    reply: u64,
    done: bool,
}

#[derive(Debug, Default)]
struct RecvState {
    rcv_next: u64,
    /// Segments received above `rcv_next` (never contains `rcv_next`).
    ooo: BTreeSet<u64>,
    flows: FastMap<FlowId, FlowRx>,
}

/// Result of processing one ACK.
#[derive(Debug, Clone, Copy, Default)]
pub struct AckResult {
    /// Payload bytes newly freed from the inflight window.
    pub freed: u64,
    /// RTT sample (absent for retransmitted segments — Karn's rule).
    pub rtt: Option<Time>,
    /// Whether this ACK matched any outstanding segment.
    pub valid: bool,
}

/// The per-host transport engine.
pub struct Endpoint {
    /// Host this endpoint lives on.
    pub host: NodeId,
    fabric: Arc<FabricSpec>,
    recorder: SharedRecorder,
    payload_per_pkt: u32,
    meter_tau: Time,
    /// `PairId` → slot, lookup-only. A slot is created by the first
    /// `submit` or `on_data` that names the pair (or probe arrival, via
    /// `slot_or_insert`) and removed by `release`.
    index: FastMap<PairId, u32>,
    ids: Vec<PairId>,
    send: Vec<SendState>,
    recv: Vec<RecvState>,
    /// The ready bit of each slot, kept equal to `send[s].sendable()` by
    /// the four functions that mutate `msgs`/`retx`: `submit_at`,
    /// `next_segment_at`, `check_timeouts_at`, `clear_backlog`.
    sendable: Vec<bool>,
    /// Released slots, reused before the columns grow.
    free: Vec<u32>,
}

impl Endpoint {
    /// Create an endpoint for `host`. `mtu` is wire bytes per full data
    /// packet; `meter_tau` the demand-estimation time constant.
    pub fn new(
        host: NodeId,
        fabric: Arc<FabricSpec>,
        recorder: SharedRecorder,
        mtu: u32,
        meter_tau: Time,
    ) -> Self {
        assert!(mtu > DATA_OVERHEAD, "MTU smaller than framing");
        Self {
            host,
            fabric,
            recorder,
            payload_per_pkt: mtu - DATA_OVERHEAD,
            meter_tau,
            index: FastMap::default(),
            ids: Vec::new(),
            send: Vec::new(),
            recv: Vec::new(),
            sendable: Vec::new(),
            free: Vec::new(),
        }
    }

    /// The shared recorder.
    pub fn recorder(&self) -> &SharedRecorder {
        &self.recorder
    }

    /// The pair's slot, if the endpoint has state for it.
    #[inline]
    pub(crate) fn slot(&self, pair: PairId) -> Option<u32> {
        self.index.get(&pair).copied()
    }

    /// The pair's slot, created empty on first sight (a released one if
    /// there is one).
    pub(crate) fn slot_or_insert(&mut self, pair: PairId) -> u32 {
        if let Some(&s) = self.index.get(&pair) {
            return s;
        }
        let s = self.free.pop().unwrap_or(self.ids.len() as u32);
        let i = s as usize;
        put(&mut self.ids, i, pair);
        put(&mut self.send, i, SendState::new(self.meter_tau));
        put(&mut self.recv, i, RecvState::default());
        put(&mut self.sendable, i, false);
        self.index.insert(pair, s);
        s
    }

    /// No message, outstanding segment or retransmission is held for the
    /// pair in slot `s`: nothing it owns can send or be acked any more.
    pub(crate) fn idle_at(&self, s: u32) -> bool {
        let st = &self.send[s as usize];
        st.msgs.is_empty() && st.outstanding.is_empty() && st.retx.is_empty()
    }

    /// Drop the pair's state and put its slot on the free list. The
    /// caller guarantees nothing names the pair here again.
    pub(crate) fn release(&mut self, pair: PairId) {
        if let Some(s) = self.index.remove(&pair) {
            self.send[s as usize] = SendState::new(self.meter_tau);
            self.recv[s as usize] = RecvState::default();
            self.free.push(s);
        }
    }

    /// Slots holding a pair now, and the most ever held at once.
    pub(crate) fn slot_use(&self) -> (usize, usize) {
        (self.index.len(), self.ids.len())
    }

    /// The pair a slot belongs to.
    #[inline]
    pub(crate) fn pair_at(&self, s: u32) -> PairId {
        self.ids[s as usize]
    }

    /// Queue a message for transmission.
    ///
    /// # Panics
    /// Panics if a reply is requested but the reverse pair is not
    /// registered in the fabric.
    pub fn submit(&mut self, now: Time, msg: AppMsg) {
        if msg.reply_size > 0 {
            assert!(
                self.fabric.reverse_pair(msg.pair).is_some(),
                "RPC on {} without a registered reverse pair",
                msg.pair
            );
        }
        let s = self.slot_or_insert(msg.pair);
        self.submit_at(now, s, msg);
    }

    /// [`Endpoint::submit`] on an already-resolved slot of `msg.pair`.
    pub(crate) fn submit_at(&mut self, now: Time, s: u32, msg: AppMsg) {
        debug_assert_eq!(self.ids[s as usize], msg.pair);
        let st = &mut self.send[s as usize];
        st.submitted = true;
        st.backlog += msg.size;
        st.last_activity = now;
        st.msgs.push_back(PendingMsg {
            flow: msg.flow,
            size: msg.size,
            sent: 0,
            start: msg.start_at.unwrap_or(now),
            tag: msg.tag,
            reply_size: msg.reply_size,
        });
        self.sendable[s as usize] = true;
    }

    /// True if the pair has unsent bytes or pending retransmissions.
    pub fn has_backlog(&self, pair: PairId) -> bool {
        self.slot(pair).is_some_and(|s| self.has_backlog_at(s))
    }

    #[inline]
    pub(crate) fn has_backlog_at(&self, s: u32) -> bool {
        let st = &self.send[s as usize];
        st.backlog > 0 || !st.retx.is_empty()
    }

    /// Unsent payload bytes queued on the pair.
    pub fn backlog_bytes(&self, pair: PairId) -> u64 {
        self.slot(pair).map_or(0, |s| self.send[s as usize].backlog)
    }

    /// Outstanding (sent, unacked) payload bytes.
    pub fn inflight(&self, pair: PairId) -> u64 {
        self.slot(pair).map_or(0, |s| self.inflight_at(s))
    }

    #[inline]
    pub(crate) fn inflight_at(&self, s: u32) -> u64 {
        self.send[s as usize].inflight
    }

    /// Fault injection: add phantom inflight bytes that no ack will ever
    /// free. Exists so invariant-checker tests can corrupt edge
    /// accounting deliberately; never called on the production path.
    #[doc(hidden)]
    pub fn inject_inflight(&mut self, pair: PairId, bytes: u64) {
        if let Some(s) = self.slot(pair) {
            self.send[s as usize].inflight += bytes;
        }
    }

    /// Pairs with sender state (ever submitted), ascending.
    pub(crate) fn sending_pairs(&self) -> Vec<PairId> {
        let mut v: Vec<PairId> = (self.ids.iter().zip(&self.send))
            .filter(|(_, st)| st.submitted)
            .map(|(&p, _)| p)
            .collect();
        v.sort();
        v
    }

    /// Sent-payload rate estimate (GP demand), bits/sec.
    pub fn tx_rate_bps(&mut self, now: Time, pair: PairId) -> f64 {
        self.slot(pair).map_or(0.0, |s| self.tx_rate_bps_at(now, s))
    }

    pub(crate) fn tx_rate_bps_at(&mut self, now: Time, s: u32) -> f64 {
        self.send[s as usize].tx_meter.rate_bps(now)
    }

    pub(crate) fn delivered_rate_bps_at(&mut self, now: Time, s: u32) -> f64 {
        self.send[s as usize].acked_meter.rate_bps(now)
    }

    /// Time of the pair's last send/submit/ack activity.
    pub fn last_activity(&self, pair: PairId) -> Time {
        self.slot(pair).map_or(0, |s| self.last_activity_at(s))
    }

    pub(crate) fn last_activity_at(&self, s: u32) -> Time {
        self.send[s as usize].last_activity
    }

    /// Drop all queued (unsent) messages on a pair (workload teardown).
    pub fn clear_backlog(&mut self, pair: PairId) {
        if let Some(s) = self.slot(pair) {
            let st = &mut self.send[s as usize];
            st.msgs.clear();
            st.backlog = 0;
            self.sendable[s as usize] = st.sendable();
        }
    }

    /// The pair's ready bit: `false` guarantees
    /// [`Endpoint::peek_segment`] is `None`; `true` promises nothing.
    pub fn sendable(&self, pair: PairId) -> bool {
        self.slot(pair).is_some_and(|s| self.sendable_at(s))
    }

    #[inline]
    pub(crate) fn sendable_at(&self, s: u32) -> bool {
        self.sendable[s as usize]
    }

    /// The lowest pair whose ready bit is clear although it has a
    /// segment to send — the `ReadySetSound` invariant's endpoint half.
    /// (Lowest, not first by slot: slot order depends on reuse.)
    pub(crate) fn stale_ready_bit(&self) -> Option<PairId> {
        (0..self.ids.len() as u32)
            .filter(|&s| !self.sendable_at(s) && self.peek_segment_at(s).is_some())
            .map(|s| self.pair_at(s))
            .min()
    }

    /// Fault injection: clear a pair's ready bit behind the endpoint's
    /// back, so the `ReadySetSound` firing test has something to catch;
    /// never called on the production path.
    #[doc(hidden)]
    pub fn corrupt_ready_bit(&mut self, pair: PairId) {
        if let Some(s) = self.slot(pair) {
            self.sendable[s as usize] = false;
        }
    }

    /// Payload size of the segment `next_segment` would produce, without
    /// committing it, plus whether it is a retransmission (lets the WFQ
    /// scheduler test window eligibility — a retransmission's bytes are
    /// already counted in the inflight window and must not be double
    /// charged, or a single loss wedges a window-full pair forever).
    pub fn peek_segment(&self, pair: PairId) -> Option<(u32, bool)> {
        self.peek_segment_at(self.slot(pair)?)
    }

    #[inline]
    pub(crate) fn peek_segment_at(&self, s: u32) -> Option<(u32, bool)> {
        self.send[s as usize].peek(self.payload_per_pkt)
    }

    /// Produce the next data segment for `pair`, if any (retransmissions
    /// first, then fresh data served round-robin across the pair's
    /// messages). Returns the `DataInfo` plus the wire size; the caller
    /// wraps it in a routed [`Packet`].
    pub fn next_segment(&mut self, now: Time, pair: PairId) -> Option<(DataInfo, u32)> {
        self.next_segment_at(now, self.slot(pair)?)
    }

    pub(crate) fn next_segment_at(&mut self, now: Time, s: u32) -> Option<(DataInfo, u32)> {
        let st = &mut self.send[s as usize];
        let seg = st.pop_segment(now, self.payload_per_pkt, &self.recorder);
        self.sendable[s as usize] = st.sendable();
        seg
    }

    /// Process an ACK arriving on `pair`.
    pub fn on_ack(&mut self, now: Time, pair: PairId, ack: &AckInfo) -> AckResult {
        self.slot(pair)
            .map_or_else(AckResult::default, |s| self.on_ack_at(now, s, ack))
    }

    pub(crate) fn on_ack_at(&mut self, now: Time, s: u32, ack: &AckInfo) -> AckResult {
        let st = &mut self.send[s as usize];
        let mut freed = 0u64;
        let mut rtt = None;
        let mut valid = false;
        // Cumulative edge plus the selectively acked seq, popped off the
        // map's leading range in place (acks arrive once per data packet
        // — a scratch Vec here would be an allocation per ack).
        while let Some((&s, _)) = st.outstanding.range(..ack.cum).next() {
            let o = st.outstanding.remove(&s).expect("present");
            freed += o.payload as u64;
            valid = true;
            if s == ack.seq && !o.retx {
                rtt = Some(now.saturating_sub(ack.echo_ts));
            }
        }
        if ack.seq >= ack.cum {
            if let Some(o) = st.outstanding.remove(&ack.seq) {
                freed += o.payload as u64;
                valid = true;
                if !o.retx {
                    rtt = Some(now.saturating_sub(ack.echo_ts));
                }
            }
        }
        if valid {
            st.inflight = st.inflight.saturating_sub(freed);
            st.acked_meter.on_bytes(now, freed);
            st.acked_bytes += freed;
            st.last_activity = now;
            // Forward progress: the path works again, resume prompt
            // retransmission timing.
            st.backoff = 0;
        }
        AckResult { freed, rtt, valid }
    }

    /// Queue timed-out segments for retransmission, applying bounded
    /// exponential backoff: each timeout round doubles the effective
    /// RTO (up to `rto << RTO_BACKOFF_CAP_EXP`); any valid ACK resets
    /// it. Returns `true` if any segment is now waiting in the
    /// retransmit queue.
    pub fn check_timeouts(&mut self, now: Time, pair: PairId, rto: Time) -> bool {
        self.slot(pair)
            .is_some_and(|s| self.check_timeouts_at(now, s, rto))
    }

    pub(crate) fn check_timeouts_at(&mut self, now: Time, s: u32, rto: Time) -> bool {
        let st = &mut self.send[s as usize];
        let eff_rto = rto.saturating_mul(1u64 << st.backoff.min(RTO_BACKOFF_CAP_EXP));
        let mut fired = false;
        for (&seq, o) in st.outstanding.iter_mut() {
            if !o.queued_retx && now.saturating_sub(o.sent_at) >= eff_rto {
                o.queued_retx = true;
                st.retx.push_back(seq);
                fired = true;
            }
        }
        // One increment per timeout round, not per segment: segments
        // already queued keep the round open without growing it again.
        if fired && st.backoff < RTO_BACKOFF_CAP_EXP {
            st.backoff += 1;
        }
        if fired {
            self.sendable[s as usize] = true;
        }
        !st.retx.is_empty()
    }

    /// Current RTO backoff exponent for a pair (0 = no backoff).
    #[cfg(test)]
    fn rto_backoff(&self, pair: PairId) -> u32 {
        self.slot(pair).map_or(0, |s| self.send[s as usize].backoff)
    }

    /// Cumulative acked payload bytes on a pair — a monotone progress
    /// counter for wedged-pair detection.
    pub fn acked_bytes(&self, pair: PairId) -> u64 {
        self.slot(pair)
            .map_or(0, |s| self.send[s as usize].acked_bytes)
    }

    /// Read the fabric registry from `fabric` from now on.
    pub(crate) fn set_fabric(&mut self, fabric: Arc<FabricSpec>) {
        self.fabric = fabric;
    }

    /// Process an arriving data packet: update reassembly, record
    /// delivery and completions, and return the ACK to send plus an
    /// auto-reply to submit (if the packet completed an RPC request).
    pub fn on_data(&mut self, now: Time, pkt: &Packet) -> (AckInfo, Option<AppMsg>) {
        let PacketKind::Data(d) = &pkt.kind else {
            panic!("on_data called with {}", pkt.kind.label());
        };
        let tenant = self.fabric.pair_tenant(pkt.pair);
        let s = self.slot_or_insert(pkt.pair);
        let rx = &mut self.recv[s as usize];
        // In-order arrival (the common case) never touches `ooo` unless
        // it closes a gap.
        let duplicate = if d.seq == rx.rcv_next {
            rx.rcv_next += 1;
            if !rx.ooo.is_empty() {
                while rx.ooo.remove(&rx.rcv_next) {
                    rx.rcv_next += 1;
                }
            }
            false
        } else {
            d.seq < rx.rcv_next || !rx.ooo.insert(d.seq)
        };
        let mut reply = None;
        if !duplicate {
            let f = rx.flows.entry(d.flow).or_insert_with(|| FlowRx {
                got: 0,
                size: d.msg_bytes,
                start: d.flow_start,
                tag: d.tag,
                reply: d.reply_bytes,
                done: false,
            });
            f.got += d.payload as u64;
            let completed = !f.done && f.size > 0 && f.got >= f.size;
            if completed {
                f.done = true;
            }
            let (start, tag, size, want_reply) = (f.start, f.tag, f.size, f.reply);
            {
                let mut rec = self.recorder.lock().expect("recorder poisoned");
                rec.delivered(now, pkt.pair.raw(), tenant.raw(), d.payload as u64);
                if completed {
                    rec.complete(Completion {
                        flow: d.flow.raw(),
                        pair: pkt.pair.raw(),
                        bytes: size,
                        start,
                        end: now,
                        tag,
                    });
                }
            }
            if completed {
                rx.flows.remove(&d.flow);
                if want_reply > 0 {
                    let rev = self
                        .fabric
                        .reverse_pair(pkt.pair)
                        .expect("reply without reverse pair");
                    reply = Some(AppMsg {
                        flow: FlowId(d.flow.raw() | REPLY_FLAG),
                        pair: rev,
                        size: want_reply,
                        reply_size: 0,
                        tag,
                        start_at: Some(start),
                    });
                }
            }
        }
        let ack = AckInfo {
            seq: d.seq,
            cum: rx.rcv_next,
            echo_ts: pkt.sent_at,
            ecn: pkt.ecn,
            max_util: pkt.max_util,
            grant_bps: 0.0,
            payload: d.payload,
        };
        (ack, reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::recorder;
    use netsim::{PortNo, TenantId, US};
    use proptest::prelude::*;

    fn fabric() -> (Arc<FabricSpec>, PairId, PairId) {
        let mut f = FabricSpec::new(1e9);
        let t = f.add_tenant("t", 1.0);
        let a = f.add_vm(t, NodeId(0));
        let b = f.add_vm(t, NodeId(1));
        let (ab, ba) = f.add_pair_bidir(a, b);
        (Arc::new(f), ab, ba)
    }

    fn endpoint(host: NodeId, f: &Arc<FabricSpec>) -> Endpoint {
        Endpoint::new(
            host,
            Arc::clone(f),
            recorder::shared(metrics::MS),
            1500,
            100 * US,
        )
    }

    fn wrap(src: NodeId, dst: NodeId, pair: PairId, d: DataInfo, sent_at: Time) -> Packet {
        Packet {
            src,
            dst,
            pair,
            tenant: TenantId(0),
            size: d.payload + DATA_OVERHEAD,
            kind: PacketKind::Data(d),
            route: [PortNo(0)].into(),
            hop: 0,
            ecn: false,
            max_util: 0.0,
            sent_at,
        }
    }

    #[test]
    fn packetises_and_completes() {
        let (f, ab, _) = fabric();
        let mut tx = endpoint(NodeId(0), &f);
        let mut rx = endpoint(NodeId(1), &f);
        tx.submit(0, AppMsg::oneway(1, ab, 3000, 7));
        assert!(tx.has_backlog(ab));
        assert_eq!(tx.backlog_bytes(ab), 3000);
        let mut segs = Vec::new();
        while let Some((d, size)) = tx.next_segment(10, ab) {
            assert!(size <= 1500);
            segs.push(d);
        }
        // 3000 B at 1442 B payload per packet = 3 segments.
        assert_eq!(segs.len(), 3);
        assert_eq!(tx.inflight(ab), 3000);
        assert!(!tx.has_backlog(ab));
        let mut completions = Vec::new();
        for d in segs {
            let (ack, reply) = rx.on_data(100, &wrap(NodeId(0), NodeId(1), ab, d, 10));
            assert!(reply.is_none());
            let res = tx.on_ack(110, ab, &ack);
            assert!(res.valid);
            completions.extend(rx.recorder().lock().unwrap().drain_new_completions());
        }
        assert_eq!(tx.inflight(ab), 0);
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].bytes, 3000);
        assert_eq!(completions[0].tag, 7);
        assert_eq!(completions[0].start, 0);
        assert_eq!(completions[0].end, 100);
    }

    #[test]
    fn rpc_auto_reply_inherits_start() {
        let (f, ab, ba) = fabric();
        let mut tx = endpoint(NodeId(0), &f);
        let mut rx = endpoint(NodeId(1), &f);
        tx.submit(50, AppMsg::request(2, ab, 100, 4000, 9));
        let (d, _) = tx.next_segment(60, ab).unwrap();
        let (_, reply) = rx.on_data(200, &wrap(NodeId(0), NodeId(1), ab, d, 60));
        let reply = reply.expect("reply expected");
        assert_eq!(reply.pair, ba);
        assert_eq!(reply.size, 4000);
        assert_eq!(reply.flow.raw(), 2 | REPLY_FLAG);
        assert_eq!(reply.start_at, Some(50));
        assert_eq!(reply.tag, 9);
    }

    #[test]
    fn duplicate_data_not_double_counted() {
        let (f, ab, _) = fabric();
        let mut tx = endpoint(NodeId(0), &f);
        let mut rx = endpoint(NodeId(1), &f);
        tx.submit(0, AppMsg::oneway(3, ab, 1000, 0));
        let (d, _) = tx.next_segment(0, ab).unwrap();
        let p = wrap(NodeId(0), NodeId(1), ab, d, 0);
        let _ = rx.on_data(10, &p);
        let (ack2, _) = rx.on_data(20, &p); // duplicate
        assert_eq!(ack2.cum, 1);
        let rec = rx.recorder().lock().unwrap();
        assert_eq!(rec.completions.len(), 1);
        assert_eq!(rec.delivered_bytes, 1000);
    }

    #[test]
    fn out_of_order_reassembly() {
        let (f, ab, _) = fabric();
        let mut tx = endpoint(NodeId(0), &f);
        let mut rx = endpoint(NodeId(1), &f);
        tx.submit(0, AppMsg::oneway(4, ab, 4000, 0));
        let mut segs = Vec::new();
        while let Some((d, _)) = tx.next_segment(0, ab) {
            segs.push(d);
        }
        segs.reverse(); // deliver backwards
        let mut last_cum = 0;
        for d in &segs {
            let (ack, _) = rx.on_data(10, &wrap(NodeId(0), NodeId(1), ab, *d, 0));
            last_cum = ack.cum;
        }
        assert_eq!(last_cum, segs.len() as u64);
        assert_eq!(rx.recorder().lock().unwrap().completions.len(), 1);
    }

    #[test]
    fn timeout_retransmission_and_karn() {
        let (f, ab, _) = fabric();
        let mut tx = endpoint(NodeId(0), &f);
        let mut rx = endpoint(NodeId(1), &f);
        tx.submit(0, AppMsg::oneway(5, ab, 1000, 0));
        let (d0, _) = tx.next_segment(0, ab).unwrap();
        // Packet lost; RTO at 100us.
        assert!(!tx.check_timeouts(50 * US, ab, 100 * US));
        assert!(tx.check_timeouts(150 * US, ab, 100 * US));
        let (d1, _) = tx.next_segment(150 * US, ab).unwrap();
        assert!(d1.retx);
        assert_eq!(d1.seq, d0.seq);
        // Inflight unchanged by a retransmission.
        assert_eq!(tx.inflight(ab), 1000);
        let (ack, _) = rx.on_data(200 * US, &wrap(NodeId(0), NodeId(1), ab, d1, 150 * US));
        let res = tx.on_ack(210 * US, ab, &ack);
        assert!(res.valid);
        assert_eq!(res.freed, 1000);
        // Karn: no RTT sample from a retransmitted segment.
        assert!(res.rtt.is_none());
        // The retransmission was counted on the sender's recorder.
        assert_eq!(tx.recorder().lock().unwrap().retransmits, 1);
        assert_eq!(tx.inflight(ab), 0);
    }

    #[test]
    fn rto_backoff_schedule_is_exponential_capped_and_resets() {
        let (f, ab, _) = fabric();
        let mut tx = endpoint(NodeId(0), &f);
        let mut rx = endpoint(NodeId(1), &f);
        tx.submit(0, AppMsg::oneway(20, ab, 1000, 0));
        let rto = 100 * US;
        let _ = tx.next_segment(0, ab).unwrap();
        // Walk the blackhole schedule: retransmission k must fire
        // exactly after rto << min(k, CAP) since the previous send.
        let mut sent_at = 0u64;
        let mut last = None;
        for round in 0..10u32 {
            let exp = round.min(RTO_BACKOFF_CAP_EXP);
            let eff = rto << exp;
            // Just before the deadline: nothing fires.
            assert!(
                !tx.check_timeouts(sent_at + eff - 1, ab, rto),
                "round {round}: fired early"
            );
            assert_eq!(tx.rto_backoff(ab), round.min(RTO_BACKOFF_CAP_EXP));
            // At the deadline: the segment is queued for retransmit.
            assert!(
                tx.check_timeouts(sent_at + eff, ab, rto),
                "round {round}: did not fire at rto<<{exp}"
            );
            sent_at += eff;
            let (d, _) = tx.next_segment(sent_at, ab).unwrap();
            assert!(round == 0 || d.retx);
            last = Some(d);
        }
        // Exponent saturated at the cap, not beyond.
        assert_eq!(tx.rto_backoff(ab), RTO_BACKOFF_CAP_EXP);
        // Delivery: ACK resets the backoff and counts progress.
        let d = last.unwrap();
        let (ack, _) = rx.on_data(sent_at + 10, &wrap(NodeId(0), NodeId(1), ab, d, sent_at));
        let res = tx.on_ack(sent_at + 20, ab, &ack);
        assert!(res.valid);
        // Karn: the delivered copy was a retransmission — no RTT sample.
        assert!(res.rtt.is_none());
        assert_eq!(tx.rto_backoff(ab), 0);
        assert_eq!(tx.acked_bytes(ab), 1000);
        // Post-reset, the next timeout uses the base RTO again.
        tx.submit(sent_at + 20, AppMsg::oneway(21, ab, 500, 0));
        let (d2, _) = tx.next_segment(sent_at + 20, ab).unwrap();
        assert!(!d2.retx);
        assert!(tx.check_timeouts(sent_at + 20 + rto, ab, rto));
    }

    #[test]
    fn cumulative_ack_frees_backlog() {
        let (f, ab, _) = fabric();
        let mut tx = endpoint(NodeId(0), &f);
        tx.submit(0, AppMsg::oneway(6, ab, 5000, 0));
        let mut last = None;
        while let Some((d, _)) = tx.next_segment(0, ab) {
            last = Some(d);
        }
        let last = last.unwrap();
        // One ACK with cum = last.seq + 1 clears everything.
        let ack = AckInfo {
            seq: last.seq,
            cum: last.seq + 1,
            echo_ts: 0,
            ecn: false,
            max_util: 0.0,
            grant_bps: 0.0,
            payload: last.payload,
        };
        let res = tx.on_ack(100, ab, &ack);
        assert_eq!(res.freed, 5000);
        assert!(res.rtt.is_some());
        assert_eq!(tx.inflight(ab), 0);
    }

    #[test]
    fn flow_round_robin_interleaves_messages() {
        let (f, ab, _) = fabric();
        let mut tx = endpoint(NodeId(0), &f);
        tx.submit(0, AppMsg::oneway(10, ab, 5000, 0));
        tx.submit(0, AppMsg::oneway(11, ab, 5000, 0));
        let mut flows = Vec::new();
        for _ in 0..4 {
            let (d, _) = tx.next_segment(0, ab).unwrap();
            flows.push(d.flow.raw());
        }
        assert_eq!(flows, vec![10, 11, 10, 11]);
    }

    #[test]
    fn clear_backlog_stops_sending() {
        let (f, ab, _) = fabric();
        let mut tx = endpoint(NodeId(0), &f);
        tx.submit(0, AppMsg::oneway(12, ab, 1_000_000, 0));
        let _ = tx.next_segment(0, ab);
        tx.clear_backlog(ab);
        assert!(!tx.has_backlog(ab));
        assert!(tx.next_segment(0, ab).is_none());
        // Outstanding segment still tracked.
        assert!(tx.inflight(ab) > 0);
    }

    #[test]
    #[should_panic(expected = "reverse pair")]
    fn rpc_without_reverse_pair_rejected() {
        let mut f = FabricSpec::new(1e9);
        let t = f.add_tenant("t", 1.0);
        let a = f.add_vm(t, NodeId(0));
        let b = f.add_vm(t, NodeId(1));
        let ab = f.add_pair(a, b); // one direction only
        let f = Arc::new(f);
        let mut tx = endpoint(NodeId(0), &f);
        tx.submit(0, AppMsg::request(1, ab, 10, 10, 0));
    }

    /// Every public `PairId` method answers what its slot method does,
    /// and an unknown pair reads as an empty one.
    #[test]
    fn pair_methods_are_wrappers_over_slot_methods() {
        let (f, ab, ba) = fabric();
        let mut tx = endpoint(NodeId(0), &f);
        assert_eq!(tx.slot(ab), None);
        tx.submit(0, AppMsg::oneway(1, ab, 5000, 0));
        let (d, _) = tx.next_segment(10, ab).unwrap();
        let s = tx.slot(ab).unwrap();
        assert_eq!(tx.pair_at(s), ab);
        assert_eq!(tx.slot_or_insert(ab), s);
        assert_eq!(tx.ids.len(), 1);
        assert_eq!(tx.has_backlog(ab), tx.has_backlog_at(s));
        assert_eq!(tx.inflight(ab), tx.inflight_at(s));
        assert_eq!(tx.last_activity(ab), tx.last_activity_at(s));
        assert_eq!(tx.sendable(ab), tx.sendable_at(s));
        assert_eq!(tx.peek_segment(ab), tx.peek_segment_at(s));
        assert_eq!(tx.tx_rate_bps(20, ab), tx.tx_rate_bps_at(20, s));
        assert!((tx.inflight(ab), tx.backlog_bytes(ab)) == (1442, 3558));
        // Mutators: drive one endpoint by pair and a twin by slot.
        let mut twin = endpoint(NodeId(0), &f);
        let ts = twin.slot_or_insert(ab);
        twin.submit_at(0, ts, AppMsg::oneway(1, ab, 5000, 0));
        assert_eq!(twin.next_segment_at(10, ts).unwrap().0, d);
        assert_eq!(
            tx.check_timeouts(500 * US, ab, 100 * US),
            twin.check_timeouts_at(500 * US, ts, 100 * US)
        );
        assert_eq!(
            tx.next_segment(501 * US, ab),
            twin.next_segment_at(501 * US, ts)
        );
        let ack = AckInfo {
            seq: d.seq,
            cum: d.seq + 1,
            echo_ts: 10,
            ecn: false,
            max_util: 0.0,
            grant_bps: 0.0,
            payload: d.payload,
        };
        let (a, b) = (
            tx.on_ack(600 * US, ab, &ack),
            twin.on_ack_at(600 * US, ts, &ack),
        );
        assert_eq!((a.freed, a.rtt, a.valid), (b.freed, b.rtt, b.valid));
        assert_eq!(tx.inflight(ab), twin.inflight_at(ts));
        assert_eq!(tx.acked_bytes(ab), 1442);
        assert_eq!(tx.sending_pairs(), vec![ab]);
        // A pair never named reads as empty and gets no slot from reads.
        assert!(!tx.has_backlog(ba) && !tx.sendable(ba) && tx.peek_segment(ba).is_none());
        assert_eq!(
            (tx.inflight(ba), tx.last_activity(ba), tx.rto_backoff(ba)),
            (0, 0, 0)
        );
        assert_eq!(tx.tx_rate_bps(700 * US, ba), 0.0);
        assert!(!tx.on_ack(700 * US, ba, &ack).valid);
        assert!(!tx.check_timeouts(700 * US, ba, US));
        assert!(tx.next_segment(700 * US, ba).is_none());
        assert_eq!(tx.ids.len(), 1);
        // A receive-only slot is not a sending pair.
        let mut rx = endpoint(NodeId(1), &f);
        rx.on_data(20, &wrap(NodeId(0), NodeId(1), ab, d, 10));
        assert_eq!(rx.slot(ab), Some(0));
        assert!(rx.sending_pairs().is_empty());
    }

    proptest! {
        /// Random naming and releasing of pairs against a `BTreeMap`
        /// model: live slots are distinct, a released pair is not found,
        /// a reused slot starts empty whatever the pair before it left
        /// there, and the slot columns grow only past the most pairs
        /// ever live at once.
        #[test]
        fn release_and_reuse_keep_slots_exact(
            ops in prop::collection::vec((0u8..3, 0u32..12), 1..150),
        ) {
            let mut f = FabricSpec::new(1e9);
            let t = f.add_tenant("t", 1.0);
            let (a, b) = (f.add_vm(t, NodeId(0)), f.add_vm(t, NodeId(1)));
            let pairs: Vec<PairId> = (0..12).map(|_| f.add_pair(a, b)).collect();
            let f = Arc::new(f);
            let mut ep = endpoint(NodeId(0), &f);
            let mut model: BTreeMap<PairId, u32> = BTreeMap::new();
            let mut peak = 0;
            for (step, &(op, k)) in ops.iter().enumerate() {
                let pair = pairs[k as usize];
                let now = step as Time * US;
                match op {
                    0 | 1 => {
                        let fresh = !model.contains_key(&pair);
                        let s = if op == 0 {
                            ep.submit(now, AppMsg::oneway(step as u64, pair, 3000, 0));
                            ep.slot(pair).unwrap()
                        } else {
                            ep.slot_or_insert(pair)
                        };
                        if fresh && op == 1 {
                            prop_assert!(ep.idle_at(s) && !ep.sendable_at(s));
                            prop_assert_eq!((ep.inflight_at(s), ep.last_activity_at(s)), (0, 0));
                            prop_assert_eq!((ep.acked_bytes(pair), ep.backlog_bytes(pair)), (0, 0));
                            prop_assert!(ep.peek_segment_at(s).is_none());
                        }
                        // Leave state behind for whoever reuses the slot.
                        ep.next_segment_at(now, s);
                        model.insert(pair, s);
                    }
                    _ => {
                        ep.release(pair);
                        model.remove(&pair);
                        prop_assert_eq!(ep.slot(pair), None);
                        prop_assert_eq!(ep.inflight(pair), 0);
                    }
                }
                peak = peak.max(model.len());
                let slots: BTreeSet<u32> = model.values().copied().collect();
                prop_assert_eq!(slots.len(), model.len(), "step {}", step);
                for (&p, &s) in &model {
                    prop_assert_eq!((ep.slot(p), ep.pair_at(s)), (Some(s), p));
                }
                prop_assert_eq!(ep.slot_use(), (model.len(), ep.ids.len()));
                prop_assert!(ep.ids.len() <= peak);
                prop_assert_eq!(ep.stale_ready_bit(), None);
            }
        }

        /// The ready bit equals its definition after any interleaving of
        /// the functions that touch the send queues (and of acks, which
        /// must not): clear implies `peek_segment` is `None`.
        #[test]
        fn ready_bit_tracks_the_send_queues(
            ops in prop::collection::vec((0u8..6, 0u64..6000), 1..120),
        ) {
            let (f, ab, _) = fabric();
            let mut tx = endpoint(NodeId(0), &f);
            let mut now = 0;
            let mut sent: Vec<DataInfo> = Vec::new();
            prop_assert!(!tx.sendable(ab));
            for (step, &(op, x)) in ops.iter().enumerate() {
                now += 10 * US;
                match op {
                    0 => tx.submit(now, AppMsg::oneway(step as u64, ab, x, 0)),
                    1 | 2 => sent.extend(tx.next_segment(now, ab).map(|(d, _)| d)),
                    3 if !sent.is_empty() => {
                        let d = sent.swap_remove(x as usize % sent.len());
                        let cum = if x % 2 == 0 { d.seq + 1 } else { 0 };
                        let ack = AckInfo {
                            seq: d.seq,
                            cum,
                            echo_ts: 0,
                            ecn: false,
                            max_util: 0.0,
                            grant_bps: 0.0,
                            payload: d.payload,
                        };
                        tx.on_ack(now, ab, &ack);
                    }
                    4 => {
                        tx.check_timeouts(now, ab, (x % 8) * 10 * US);
                    }
                    5 => tx.clear_backlog(ab),
                    _ => {}
                }
                if let Some(s) = tx.slot(ab) {
                    prop_assert_eq!(tx.sendable_at(s), tx.send[s as usize].sendable(), "step {}", step);
                }
                prop_assert!(tx.sendable(ab) || tx.peek_segment(ab).is_none(), "step {}", step);
                prop_assert_eq!(tx.stale_ready_bit(), None);
            }
        }
    }
}
