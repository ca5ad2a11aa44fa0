//! The Φ_l / W_l demand-summary registers (§3.6).
//!
//! Each μFAB-C egress port keeps two registers: the total bandwidth token of
//! all active VM-pairs on the link (Φ_l) and their total sending window
//! (W_l). Updates arrive as deltas from probes and as subtractions from
//! finish probes / idle cleanup; both clamp at zero because a switch
//! register cannot go negative and transient underflow (e.g. a finish probe
//! racing a cleanup) must not wedge the summary.

/// The pair of demand registers for one link.
#[derive(Debug, Clone, Copy, Default)]
pub struct DemandRegisters {
    phi_total: f64,
    w_total: f64,
}

impl DemandRegisters {
    /// Fresh zeroed registers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Apply a signed delta to Φ_l (clamped at 0).
    pub fn add_phi(&mut self, delta: f64) {
        self.phi_total = (self.phi_total + delta).max(0.0);
    }

    /// Apply a signed delta to W_l (clamped at 0).
    pub fn add_w(&mut self, delta: f64) {
        self.w_total = (self.w_total + delta).max(0.0);
    }

    /// Total active token Φ_l.
    pub fn phi_total(&self) -> f64 {
        self.phi_total
    }

    /// Total sending window W_l in bytes.
    pub fn w_total(&self) -> f64 {
        self.w_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_clamps() {
        let mut r = DemandRegisters::new();
        r.add_phi(3.0);
        r.add_phi(2.0);
        r.add_w(1000.0);
        assert_eq!(r.phi_total(), 5.0);
        assert_eq!(r.w_total(), 1000.0);
        r.add_phi(-10.0); // over-subtract clamps at zero
        assert_eq!(r.phi_total(), 0.0);
        r.add_w(-500.0);
        assert_eq!(r.w_total(), 500.0);
    }
}
