//! Logical probe / response / finish frames (§3.2, §3.6).
//!
//! These are the values the INT machinery moves between μFAB-E and μFAB-C.
//! Simulator packets carry this logical form directly (exact `f64`/`u64`
//! values); the quantised on-the-wire representation lives in [`crate::wire`]
//! and is used for size accounting and encode/decode conformance tests.

/// What role a telemetry packet plays (Appendix G `type` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeKind {
    /// Forward probe emitted by the source edge (type = 1).
    Probe,
    /// Response returned by the destination edge (type = 2).
    Response,
    /// Failure notification (type = 4): returned when a probe hits a dead
    /// link and the switch bounces it back to the source.
    Failure,
}

/// Per-hop INT record stamped by μFAB-C at egress dequeue (§3.2's five
/// critical telemetry items).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HopInfo {
    /// Switch that stamped this record.
    pub node: u32,
    /// Egress port on that switch.
    pub port: u32,
    /// Total sending window of all active VM-pairs traversing the link
    /// (W_l, bytes).
    pub w_total: f64,
    /// Total bandwidth token of all active VM-pairs on the link (Φ_l).
    pub phi_total: f64,
    /// Actual TX rate of the link (tx_l, bits/sec).
    pub tx_bps: f64,
    /// Real-time queue size of the link (q_l, bytes).
    pub q_bytes: u64,
    /// Physical link capacity (C^max_l, bits/sec). The *target* capacity
    /// C_l = η·C^max_l is derived at the edge with the configured headroom.
    pub cap_bps: u64,
}

/// A probe or response frame.
///
/// The `*_delta` fields fill the paper's §3.6 specification gap: a switch
/// only has two registers plus a Bloom filter, so it cannot diff a pair's
/// current window against what it previously contributed. The edge, which
/// has the state, ships the delta; the switch adds it blindly. A Bloom
/// filter false positive makes the switch *skip* the registration of a new
/// pair — exactly the omission failure mode §3.6 analyses.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeFrame {
    /// Frame role.
    pub kind: ProbeKind,
    /// VM-pair identifier.
    pub pair: u32,
    /// Probe sequence number (for matching responses and loss detection).
    pub seq: u64,
    /// Sender-side bandwidth token φ_{a→b} currently assigned to the pair.
    pub phi: f64,
    /// Change in φ the switches should apply to Φ_l.
    pub phi_delta: f64,
    /// Current sending window w^l_{a→b} of the pair (bytes).
    pub w: f64,
    /// Change in w the switches should apply to W_l.
    pub w_delta: f64,
    /// Receiver-side admitted token, set by the destination edge in the
    /// response (source takes `min(phi, rx_phi)` per §3.2).
    pub rx_phi: Option<f64>,
    /// True on the first probe of a (pair, path) registration epoch: the
    /// switch should insert the pair into its Bloom filter and add the
    /// full φ/w values. A Bloom false positive makes the switch skip the
    /// addition — the §3.6 omission failure mode.
    pub registering: bool,
    /// Registration epoch: bumped by the edge on every (re)registration.
    /// A finish probe only clears state belonging to its own epoch, so a
    /// stale or retried finish can never wipe a newer registration that
    /// shares links with the old path.
    pub epoch: u64,
    /// Per-hop INT records, appended in path order by each μFAB-C.
    pub hops: Vec<HopInfo>,
    /// Maximum path utilisation echoed by the receiver (used by the
    /// Clove baseline's pilot packets; μFAB itself relies on `hops`).
    pub echo_util: f32,
    /// When the source emitted the probe (ns) — yields the probe RTT.
    pub issued_at: u64,
}

impl ProbeFrame {
    /// A fresh forward probe with no INT records yet.
    pub fn probe(pair: u32, seq: u64, phi: f64, w: f64, issued_at: u64) -> Self {
        Self {
            kind: ProbeKind::Probe,
            pair,
            seq,
            phi,
            phi_delta: 0.0,
            w,
            w_delta: 0.0,
            rx_phi: None,
            registering: false,
            epoch: 0,
            hops: Vec::new(),
            echo_util: 0.0,
            issued_at,
        }
    }

    /// Turn a received probe into the response the destination edge sends
    /// back, carrying the collected INT records plus the receiver token.
    pub fn into_response(mut self, rx_phi: f64) -> Self {
        self.kind = ProbeKind::Response;
        self.rx_phi = Some(rx_phi);
        self
    }

    /// Turn a probe into a failure notification (dead link on path).
    pub fn into_failure(mut self) -> Self {
        self.kind = ProbeKind::Failure;
        self
    }
}

/// A finish probe (§3.6): tells every switch on the path that the VM-pair
/// is going inactive (idle or migrating away) so Φ_l/W_l can be reduced.
///
/// Switches set their bit in `acks`; the destination echoes the frame back
/// and the source retries until every switch on the path has acknowledged.
#[derive(Debug, Clone, PartialEq)]
pub struct FinishFrame {
    /// VM-pair being deregistered.
    pub pair: u32,
    /// Sequence number for retry matching.
    pub seq: u64,
    /// Registration epoch being cleared (see [`ProbeFrame::epoch`]).
    pub epoch: u64,
    /// φ contribution the pair believes is registered (to subtract).
    pub phi: f64,
    /// w contribution the pair believes is registered (to subtract).
    pub w: f64,
    /// Whether this travels towards the destination (true) or is the echo.
    pub forward: bool,
    /// Per-hop acknowledgement bits, appended in path order.
    pub acks: Vec<bool>,
}

impl FinishFrame {
    /// Create a forward finish probe.
    pub fn new(pair: u32, seq: u64, phi: f64, w: f64) -> Self {
        Self {
            pair,
            seq,
            epoch: 0,
            phi,
            w,
            forward: true,
            acks: Vec::new(),
        }
    }

    /// True when every switch that saw the frame acknowledged removal.
    pub fn all_acked(&self, expected_hops: usize) -> bool {
        self.acks.len() >= expected_hops && self.acks.iter().all(|&a| a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_carries_rx_token() {
        let p = ProbeFrame::probe(3, 9, 2.0, 30_000.0, 123);
        assert_eq!(p.kind, ProbeKind::Probe);
        let r = p.into_response(1.5);
        assert_eq!(r.kind, ProbeKind::Response);
        assert_eq!(r.rx_phi, Some(1.5));
        assert_eq!(r.pair, 3);
        assert_eq!(r.seq, 9);
    }

    #[test]
    fn finish_ack_tracking() {
        let mut f = FinishFrame::new(1, 1, 1.0, 100.0);
        assert!(!f.all_acked(2));
        f.acks.push(true);
        assert!(!f.all_acked(2));
        f.acks.push(true);
        assert!(f.all_acked(2));
        f.acks[0] = false;
        assert!(!f.all_acked(2));
    }
}
