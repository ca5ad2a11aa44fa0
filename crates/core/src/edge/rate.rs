//! The bandwidth-allocation equations of §3.3–§3.4.
//!
//! All functions are pure so the control law is unit-testable without a
//! simulator. Units: rates in bits/sec, windows/queues in bytes, time in
//! seconds, tokens dimensionless.

use telemetry::HopInfo;

/// Eqn (1): the guaranteed proportional share of a pair with token `phi`
/// on a link, `r^l = (φ/Φ_l)·C_l` with `C_l = η·C^max`.
///
/// If the link reports no token mass yet (Φ_l < φ, e.g. the pair's own
/// registration has not landed), the pair's own token is used as the
/// floor so the share never exceeds the target capacity.
pub(crate) fn share_rate(phi: f64, hop: &HopInfo, eta: f64) -> f64 {
    let c_target = eta * hop.cap_bps as f64;
    let phi_total = hop.phi_total.max(phi).max(1e-9);
    (phi / phi_total) * c_target
}

/// Eqn (1) composed over a path: `r_{a→b} = min_l r^l`.
pub(crate) fn path_share_rate(phi: f64, hops: &[HopInfo], eta: f64) -> f64 {
    hops.iter()
        .map(|h| share_rate(phi, h, eta))
        .fold(f64::INFINITY, f64::min)
}

/// Eqn (3): the utilisation-based window on one link,
///
/// ```text
/// w^l = min{ (φ/Φ_l) · W_l · (C_l·T)/(tx_l·T + q_l),  C_l·T }
/// ```
///
/// with `T` the pair's baseRTT. Returns bytes. The denominator is floored
/// at one `mtu` worth of bits so an idle link (tx = q = 0) yields the cap
/// rather than a division blow-up.
pub(crate) fn window_eqn3(
    phi: f64,
    w_own: f64,
    hop: &HopInfo,
    base_rtt_s: f64,
    eta: f64,
    mtu: u32,
) -> f64 {
    let c_target = eta * hop.cap_bps as f64;
    let cap_window = c_target * base_rtt_s / 8.0; // bytes
    let phi_total = hop.phi_total.max(phi).max(1e-9);
    let w_total = hop.w_total.max(w_own).max(1.0);
    // One MTU of backlog is store-and-forward occupancy, not congestion;
    // counting it would shave ~q/C·T off steady-state utilisation.
    let q_excess = hop.q_bytes.saturating_sub(mtu as u64);
    let inflight_bits = hop.tx_bps * base_rtt_s + q_excess as f64 * 8.0;
    let inflight_bits = inflight_bits.max(mtu as f64 * 8.0);
    let w = (phi / phi_total) * w_total * (c_target * base_rtt_s) / inflight_bits;
    w.min(cap_window)
}

/// Eqn (3) composed over a path: `w_{a→b} = min_l w^l`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn path_window(
    phi: f64,
    w_own: f64,
    hops: &[HopInfo],
    base_rtt_s: f64,
    eta: f64,
    mtu: u32,
) -> f64 {
    hops.iter()
        .map(|h| window_eqn3(phi, w_own, h, base_rtt_s, eta, mtu))
        .fold(f64::INFINITY, f64::min)
}

/// Path qualification (§3.3/§3.5): a path can serve the pair's minimum
/// bandwidth iff every link satisfies `C_l ≥ (Φ_l + φ_add)·B_u`, where
/// `φ_add` is the pair's token if it is **not** yet counted in Φ_l (a
/// candidate path) and 0 if it is (the current path).
pub(crate) fn path_qualified(hops: &[HopInfo], phi_add: f64, bu_bps: f64, eta: f64) -> bool {
    hops.iter().all(|h| {
        let c_target = eta * h.cap_bps as f64;
        c_target >= (h.phi_total + phi_add) * bu_bps
    })
}

/// Bottleneck subscription ratio of a path: `max_l (Φ_l+φ_add)·B_u / C_l`.
/// Lower is better — the §3.5 selection prefers minimum subscription.
pub(crate) fn path_subscription(hops: &[HopInfo], phi_add: f64, bu_bps: f64, eta: f64) -> f64 {
    hops.iter()
        .map(|h| {
            let c_target = eta * h.cap_bps as f64;
            (h.phi_total + phi_add) * bu_bps / c_target.max(1.0)
        })
        .fold(0.0, f64::max)
}

/// Work-conservation upper bound estimate (Eqn 2 in window form): what
/// rate the pair could reach on this path — its proportional share of the
/// target capacity plus any idle headroom.
pub(crate) fn path_potential_rate(phi: f64, hops: &[HopInfo], eta: f64) -> f64 {
    hops.iter()
        .map(|h| {
            let c_target = eta * h.cap_bps as f64;
            let share = share_rate(phi, h, eta);
            let headroom = (c_target - h.tx_bps).max(0.0);
            (share + headroom).min(c_target)
        })
        .fold(f64::INFINITY, f64::min)
}

/// Scenario-1/2 bootstrap window (§3.4): guarantee (or current share) over
/// one baseRTT.
pub(crate) fn bootstrap_window(rate_bps: f64, base_rtt_s: f64) -> f64 {
    (rate_bps * base_rtt_s / 8.0).max(1.0)
}

/// Per-RTT additive increase of the bootstrap window:
/// `(φ/Φ_l)·C_l·T` on the bottleneck link (§3.4 Scenario-1).
pub(crate) fn bootstrap_increment(phi: f64, hops: &[HopInfo], base_rtt_s: f64, eta: f64) -> f64 {
    let r = path_share_rate(phi, hops, eta);
    (r * base_rtt_s / 8.0).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hop(phi_total: f64, w_total: f64, tx_gbps: f64, q_bytes: u64, cap_gbps: u64) -> HopInfo {
        HopInfo {
            node: 0,
            port: 0,
            w_total,
            phi_total,
            tx_bps: tx_gbps * 1e9,
            q_bytes,
            cap_bps: cap_gbps * 1_000_000_000,
        }
    }

    const ETA: f64 = 0.95;

    #[test]
    fn share_is_token_proportional() {
        let h = hop(10.0, 0.0, 0.0, 0, 10);
        // 2 of 10 tokens on a 9.5 G target → 1.9 G.
        assert!((share_rate(2.0, &h, ETA) - 1.9e9).abs() < 1.0);
        // Unregistered pair on an empty link: own-token floor → full target.
        let empty = hop(0.0, 0.0, 0.0, 0, 10);
        assert!((share_rate(2.0, &empty, ETA) - 9.5e9).abs() < 1.0);
    }

    #[test]
    fn path_share_takes_bottleneck() {
        let hops = vec![hop(2.0, 0.0, 0.0, 0, 10), hop(20.0, 0.0, 0.0, 0, 10)];
        let r = path_share_rate(2.0, &hops, ETA);
        assert!((r - 0.95e9).abs() < 1.0); // 2/20 of 9.5G
    }

    #[test]
    fn window_caps_at_bdp_on_idle_link() {
        // Idle link, own window only: grows straight to the C·T cap.
        let t = 24e-6;
        let h = hop(1.0, 1500.0, 0.0, 0, 10);
        let w = window_eqn3(1.0, 1500.0, &h, t, ETA, 1500);
        let cap = ETA * 10e9 * t / 8.0;
        assert!((w - cap).abs() < 1.0, "w={w} cap={cap}");
    }

    #[test]
    fn window_shrinks_with_queue() {
        let t = 24e-6;
        // Link fully utilised with a 3 BDP queue: window scales below the
        // proportional share.
        let bdp = 10e9 * t / 8.0;
        let busy = hop(2.0, 2.0 * bdp, 10.0, (3.0 * bdp) as u64, 10);
        let w = window_eqn3(1.0, bdp, &busy, t, ETA, 1500);
        // Fair share of W is bdp; multiplier = C·T/(tx·T+q) = 9.5/(10+24)≈0.28.
        assert!(w < 0.35 * bdp, "w={w} bdp={bdp}");
        // And the same link without queue gives a bigger window.
        let no_q = hop(2.0, 2.0 * bdp, 10.0, 0, 10);
        let w2 = window_eqn3(1.0, bdp, &no_q, t, ETA, 1500);
        assert!(w2 > w);
    }

    #[test]
    fn window_weighted_fair_split() {
        // Two pairs with tokens 1 and 3 share a saturated link: windows
        // proportional to tokens.
        let t = 24e-6;
        let bdp = 10e9 * t / 8.0;
        let h = hop(4.0, bdp, 9.5, 0, 10);
        let w1 = window_eqn3(1.0, 0.25 * bdp, &h, t, ETA, 1500);
        let w3 = window_eqn3(3.0, 0.75 * bdp, &h, t, ETA, 1500);
        assert!((w3 / w1 - 3.0).abs() < 1e-6, "ratio {}", w3 / w1);
    }

    #[test]
    fn qualification_boundary() {
        // 9.5 G target, B_u = 1 G: 9 tokens qualified, 10 not.
        let bu = 1e9;
        let h9 = vec![hop(8.0, 0.0, 0.0, 0, 10)];
        assert!(path_qualified(&h9, 1.0, bu, ETA)); // 8+1 = 9 ≤ 9.5
        let h10 = vec![hop(9.0, 0.0, 0.0, 0, 10)];
        assert!(!path_qualified(&h10, 1.0, bu, ETA)); // 9+1 = 10 > 9.5
                                                      // Current path (already counted): no φ added.
        assert!(path_qualified(&h10, 0.0, bu, ETA));
    }

    #[test]
    fn subscription_ranks_paths() {
        let light = vec![hop(2.0, 0.0, 0.0, 0, 10)];
        let heavy = vec![hop(8.0, 0.0, 0.0, 0, 10)];
        let s_light = path_subscription(&light, 1.0, 1e9, ETA);
        let s_heavy = path_subscription(&heavy, 1.0, 1e9, ETA);
        assert!(s_light < s_heavy);
        assert!((s_light - 3.0e9 / 9.5e9).abs() < 1e-9);
    }

    #[test]
    fn potential_rate_sees_idle_headroom() {
        // Congested path: only the proportional share.
        let busy = vec![hop(10.0, 0.0, 9.5, 0, 10)];
        let p_busy = path_potential_rate(1.0, &busy, ETA);
        assert!((p_busy - 0.95e9).abs() < 1e6);
        // Idle path: nearly the full target.
        let idle = vec![hop(10.0, 0.0, 0.5, 0, 10)];
        let p_idle = path_potential_rate(1.0, &idle, ETA);
        assert!(p_idle > 8e9);
    }

    #[test]
    fn bootstrap_window_is_guarantee_bdp() {
        // 1 Gbps guarantee over 24 us = 3 KB.
        let w = bootstrap_window(1e9, 24e-6);
        assert!((w - 3000.0).abs() < 1.0);
        assert_eq!(bootstrap_window(0.0, 24e-6), 1.0);
    }

    #[test]
    fn bootstrap_increment_tracks_share() {
        let hops = vec![hop(10.0, 0.0, 0.0, 0, 10)];
        // Share = 0.95 G; increment = share·T/8 = 2850 B at 24 us.
        let inc = bootstrap_increment(1.0, &hops, 24e-6, ETA);
        assert!((inc - 2850.0).abs() < 1.0);
    }
}
