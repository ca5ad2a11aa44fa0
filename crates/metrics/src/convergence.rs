//! Bandwidth-dissatisfaction accounting.
//!
//! **Bandwidth dissatisfaction ratio** (Fig 11d, Fig 17a): the amount of
//! minimum-bandwidth violation accumulated over time, normalised by the
//! total guaranteed volume over the same interval.

use crate::Nanos;

/// Integrates minimum-bandwidth violations over time.
///
/// Per sample interval `dt`, for each VF with demand, the violation is
/// `max(0, min(guarantee, demand) − rate) · dt` bytes; the dissatisfaction
/// ratio is total violated volume over total entitled volume. A VF with
/// insufficient demand is only entitled to its demand, matching the paper's
/// definition ("minimum bandwidth violation over the total traffic volume").
#[derive(Debug, Clone, Default)]
pub struct DissatisfactionMeter {
    violated_bytes: f64,
    entitled_bytes: f64,
}

impl DissatisfactionMeter {
    /// Create an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one interval. `vfs` holds `(rate_bps, guarantee_bps,
    /// demand_bps)` per VF active in this interval.
    pub fn observe(&mut self, dt: Nanos, vfs: &[(f64, f64, f64)]) {
        let dt_s = dt as f64 / 1e9;
        let mut violated = 0.0;
        let mut entitled = 0.0;
        for &(rate, guar, demand) in vfs {
            let entitlement = guar.min(demand);
            if entitlement <= 0.0 {
                continue;
            }
            entitled += entitlement * dt_s / 8.0;
            violated += (entitlement - rate).max(0.0) * dt_s / 8.0;
        }
        self.violated_bytes += violated;
        self.entitled_bytes += entitled;
    }

    /// Overall dissatisfaction ratio in `[0, 1]`.
    pub fn ratio(&self) -> f64 {
        if self.entitled_bytes <= 0.0 {
            0.0
        } else {
            self.violated_bytes / self.entitled_bytes
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MS;

    #[test]
    fn dissatisfaction_halves() {
        let mut m = DissatisfactionMeter::new();
        // One VF: guaranteed 1 Gbps, demand unlimited, gets 0.5 Gbps.
        m.observe(MS, &[(0.5e9, 1e9, f64::INFINITY)]);
        assert!((m.ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn insufficient_demand_not_a_violation() {
        let mut m = DissatisfactionMeter::new();
        // Guaranteed 1 Gbps but only wants 0.2 Gbps and gets it.
        m.observe(MS, &[(0.2e9, 1e9, 0.2e9)]);
        assert_eq!(m.ratio(), 0.0);
    }

    #[test]
    fn over_delivery_not_negative() {
        let mut m = DissatisfactionMeter::new();
        // Work conservation: got 3 Gbps with a 1 Gbps guarantee.
        m.observe(MS, &[(3e9, 1e9, f64::INFINITY)]);
        assert_eq!(m.ratio(), 0.0);
        assert!(m.violated_bytes == 0.0);
    }

    #[test]
    fn empty_meter_ratio_zero() {
        let m = DissatisfactionMeter::new();
        assert_eq!(m.ratio(), 0.0);
    }
}
