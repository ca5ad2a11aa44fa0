//! Per-port TX-rate estimation (`tx_l` in §3.2).
//!
//! A programmable switch exposes byte counters; μFAB-C needs a smoothed
//! instantaneous rate to report. We use the standard exponentially-weighted
//! rate estimator: every byte batch decays the previous estimate by
//! `e^(−Δt/τ)` and contributes `bytes·8/τ` — the continuous-time analogue of
//! an EWMA whose time constant `τ` should sit at RTT scale so the edge's
//! control loop (Eqn 2/3) sees the utilisation gap of roughly the last RTT.

/// Exponentially-decayed rate estimator.
///
/// Bytes reported at the same timestamp accumulate; when time advances by
/// `Δt`, the estimate blends the interval's average rate with weight
/// `1 − e^(−Δt/τ)`, which is unbiased for batched constant-rate traffic
/// (an impulse formulation would over-estimate by ≈ Δt/2τ).
#[derive(Debug, Clone)]
pub struct RateEstimator {
    tau_ns: f64,
    rate_bps: f64,
    last_ns: u64,
    pending_bytes: u64,
}

impl RateEstimator {
    /// Create an estimator with time constant `tau_ns` (nanoseconds).
    ///
    /// # Panics
    /// Panics if `tau_ns == 0`.
    pub fn new(tau_ns: u64) -> Self {
        assert!(tau_ns > 0, "time constant must be positive");
        Self {
            tau_ns: tau_ns as f64,
            rate_bps: 0.0,
            last_ns: 0,
            pending_bytes: 0,
        }
    }

    /// Account `bytes` transmitted at time `now` (ns, monotone).
    pub fn on_bytes(&mut self, now: u64, bytes: u64) {
        self.advance_to(now);
        self.pending_bytes += bytes;
    }

    /// Current estimate at time `now` (applies decay since last event).
    pub fn rate_bps(&mut self, now: u64) -> f64 {
        self.advance_to(now);
        self.rate_bps
    }

    fn advance_to(&mut self, now: u64) {
        if now <= self.last_ns {
            return;
        }
        let dt = (now - self.last_ns) as f64;
        let alpha = (-dt / self.tau_ns).exp();
        let interval_rate = self.pending_bytes as f64 * 8.0 * 1e9 / dt;
        self.rate_bps = self.rate_bps * alpha + interval_rate * (1.0 - alpha);
        self.pending_bytes = 0;
        self.last_ns = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const US: u64 = 1_000;

    #[test]
    fn converges_to_steady_rate() {
        // 1 Gbps = 125 bytes/us; feed 1250 bytes every 10 us.
        let mut est = RateEstimator::new(100 * US);
        let mut now = 0;
        for _ in 0..1000 {
            now += 10 * US;
            est.on_bytes(now, 1250);
        }
        let r = est.rate_bps(now);
        assert!((r - 1e9).abs() / 1e9 < 0.07, "rate {r}");
    }

    #[test]
    fn decays_when_idle() {
        let mut est = RateEstimator::new(100 * US);
        let mut now = 0;
        for _ in 0..500 {
            now += 10 * US;
            est.on_bytes(now, 1250);
        }
        let busy = est.rate_bps(now);
        // After 3 time constants of silence the estimate drops an order of
        // magnitude (the final batch is amortised over the idle window, so
        // the decay is slightly softer than a pure e^-3).
        let idle = est.rate_bps(now + 300 * US);
        assert!(idle < busy / 10.0, "busy {busy} idle {idle}");
    }

    #[test]
    fn tracks_rate_change() {
        let mut est = RateEstimator::new(50 * US);
        let mut now = 0;
        for _ in 0..500 {
            now += 10 * US;
            est.on_bytes(now, 1250); // 1 Gbps
        }
        for _ in 0..500 {
            now += 10 * US;
            est.on_bytes(now, 2500); // 2 Gbps
        }
        let r = est.rate_bps(now);
        assert!((r - 2e9).abs() / 2e9 < 0.07, "rate {r}");
    }

    #[test]
    fn time_does_not_go_backwards() {
        let mut est = RateEstimator::new(100 * US);
        est.on_bytes(1000, 100);
        let r1 = est.rate_bps(1000);
        // Earlier query timestamp must not inflate the estimate.
        let r0 = est.rate_bps(500);
        assert_eq!(r0, r1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_tau_rejected() {
        RateEstimator::new(0);
    }
}
