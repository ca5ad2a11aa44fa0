//! PicNIC′: receiver-driven admission (the bandwidth-envelope half of
//! PicNIC, per §2.2: "we only compare PicNIC's components for bandwidth
//! envelope, i.e., weighted fair queues and receiver-driven CC ... similar
//! to EyeQ").
//!
//! The receiver divides its NIC line rate across currently-active senders
//! proportionally to their guarantee tokens and piggybacks the grant on
//! every ACK; senders cap their windows at `grant × baseRTT`. This
//! protects the receiver edge from overload but — the paper's point — is
//! blind to fabric congestion.

use netsim::{PairId, Time};
use std::collections::HashMap;

/// Receiver-side grant calculator for one host NIC.
#[derive(Debug)]
pub(crate) struct ReceiverGrants {
    nic_bps: f64,
    headroom: f64,
    active_timeout: Time,
    senders: HashMap<PairId, SenderInfo>,
}

#[derive(Debug, Clone, Copy)]
struct SenderInfo {
    tokens: f64,
    last_seen: Time,
}

impl ReceiverGrants {
    /// `nic_bps` is the receiver line rate; `headroom` the admission
    /// target (e.g. 0.95); senders idle longer than `active_timeout` stop
    /// consuming grant share.
    pub(crate) fn new(nic_bps: f64, headroom: f64, active_timeout: Time) -> Self {
        Self {
            nic_bps,
            headroom,
            active_timeout,
            senders: HashMap::new(),
        }
    }

    /// Record that data from `pair` (with guarantee weight `tokens`)
    /// arrived at time `now`.
    pub(crate) fn on_data(&mut self, now: Time, pair: PairId, tokens: f64) {
        self.senders.insert(
            pair,
            SenderInfo {
                tokens: tokens.max(1e-9),
                last_seen: now,
            },
        );
    }

    /// The current grant for `pair` in bits/sec.
    pub(crate) fn grant(&mut self, now: Time, pair: PairId) -> f64 {
        self.senders
            .retain(|_, s| now.saturating_sub(s.last_seen) <= self.active_timeout);
        let total: f64 = self.senders.values().map(|s| s.tokens).sum();
        let Some(s) = self.senders.get(&pair) else {
            return self.nic_bps * self.headroom;
        };
        if total <= 0.0 {
            return self.nic_bps * self.headroom;
        }
        self.nic_bps * self.headroom * s.tokens / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::MS;

    #[test]
    fn single_sender_gets_line_rate() {
        let mut g = ReceiverGrants::new(10e9, 0.95, MS);
        g.on_data(0, PairId(1), 2.0);
        let grant = g.grant(10, PairId(1));
        assert!((grant - 9.5e9).abs() < 1.0);
    }

    #[test]
    fn grants_proportional_to_tokens() {
        let mut g = ReceiverGrants::new(10e9, 1.0, MS);
        g.on_data(0, PairId(1), 1.0);
        g.on_data(0, PairId(2), 4.0);
        assert!((g.grant(10, PairId(1)) - 2e9).abs() < 1.0);
        assert!((g.grant(10, PairId(2)) - 8e9).abs() < 1.0);
    }

    #[test]
    fn idle_senders_release_share() {
        let mut g = ReceiverGrants::new(10e9, 1.0, MS);
        g.on_data(0, PairId(1), 1.0);
        g.on_data(0, PairId(2), 1.0);
        assert!((g.grant(10, PairId(1)) - 5e9).abs() < 1.0);
        // Sender 2 goes quiet; after the timeout sender 1 gets it all.
        g.on_data(2 * MS, PairId(1), 1.0);
        let grant = g.grant(3 * MS, PairId(1));
        assert!((grant - 10e9).abs() < 1.0);
        assert_eq!(g.senders.len(), 1);
    }

    #[test]
    fn unknown_pair_unconstrained() {
        let mut g = ReceiverGrants::new(10e9, 0.95, MS);
        assert!((g.grant(0, PairId(9)) - 9.5e9).abs() < 1.0);
    }
}
