//! μFAB configuration knobs, with the paper's defaults.

use netsim::{Time, SEC};

/// The tunables of μFAB-E and μFAB-C that some run sets to a second
/// value.
///
/// The paper's fixed operating constants — target utilisation η = 0.95,
/// token update period 32 μs, probe spacing L_m = 4 KB, migration-
/// violation hold of 5 RTTs, probe-loss timeout of 8 baseRTTs,
/// better-path observation of 30 s (§5.1 and the implementation notes
/// of §3.5/§4.1) — are named consts beside the μFAB-E code that reads
/// them (`edge`), not fields. The defaults here reproduce the paper's
/// evaluation settings, with the freeze window drawn from [1, 10] RTTs
/// (the §5.6 sweet spot).
#[derive(Debug, Clone)]
pub struct UfabConfig {
    /// Fixed probe period in RTTs instead of self-clocking
    /// (None = self-clocked; `Some(n)` reproduces Fig 18c's lazy probing).
    pub probe_period_rtts: Option<u64>,
    /// Upper bound N of the random migration freeze window [1, N] RTTs
    /// (§3.5 / Fig 18: [1, 10]).
    pub freeze_rtts_max: u64,
    /// Enable the two-stage bounded-latency admission of §3.4.
    /// `false` gives the paper's μFAB′ ablation (Fig 12, Fig 16).
    pub bounded_latency: bool,
    /// Enable the reorder-free migration option of §3.5 (probe-only first
    /// RTT on the new path).
    pub reorder_free: bool,
    /// μFAB-C idle-pair cleanup period (10 s in the paper's deployment,
    /// §4.2; experiments shorten it).
    pub core_cleanup_period: Time,
    /// Counting-Bloom-filter memory per egress port (20 KB, §4.2).
    pub bloom_bytes: usize,
    /// Hash functions (register banks) of the per-port counting Bloom
    /// filter (2 in the paper's P4 pipeline, §4.2). The `bloom_bytes`
    /// budget is split evenly across the banks, so more hashes trade
    /// cells-per-bank for independent probes — the classic Bloom
    /// accuracy/ALU trade the `dse` sweep explores.
    pub bloom_hashes: u8,
    /// Width in bits of the Φ_l / W_l demand registers as *read out* at
    /// INT stamping time. The switch accumulates exactly (conservation
    /// is a pipeline property), but a probe can only carry what the
    /// register width encodes: stamped values saturate at
    /// `(2^width − 1)` wire units (1 token for Φ, 64 B for W — the
    /// Appendix-G quantisation steps). 32 bits never saturates at
    /// simulated scales and reproduces the historical behaviour.
    pub reg_width_bits: u8,
    /// Maximum INT hop records a probe may carry (hardware header
    /// budget). Switches beyond the depth forward the probe without
    /// stamping, hiding downstream bottlenecks from the edge. The
    /// Appendix-G layout caps nHop at 15; 8 covers every simulated
    /// topology (FatTree diameter ≤ 6), so the default never truncates.
    pub int_hop_depth: u8,
    /// Per-response smoothing gain of the Eqn-3 claim update (responses
    /// arrive every L_m bytes, i.e. many times per RTT; the claim should
    /// integrate roughly once per RTT — Appendix C).
    pub claim_gain: f64,
    /// Arm the per-tenant edge enforcement stage (policer, probe-budget
    /// throttle, unsolicited-drop attribution — DESIGN §10). Off by
    /// default: enforcement is a containment layer, not part of the
    /// paper's baseline protocol.
    pub enforce: bool,
}

impl Default for UfabConfig {
    fn default() -> Self {
        Self {
            probe_period_rtts: None,
            freeze_rtts_max: 10,
            bounded_latency: true,
            reorder_free: false,
            core_cleanup_period: 10 * SEC,
            bloom_bytes: 20 * 1024,
            bloom_hashes: 2,
            reg_width_bits: 32,
            int_hop_depth: 8,
            claim_gain: 0.3,
            enforce: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = UfabConfig::default();
        assert_eq!(c.freeze_rtts_max, 10);
        assert_eq!(c.bloom_bytes, 20 * 1024);
        // μFAB-C hardware knobs default to the paper's operating point
        // (2-bank filter) with widths that never saturate or truncate at
        // simulated scales — existing scenarios are bit-for-bit unchanged.
        assert_eq!(c.bloom_hashes, 2);
        assert_eq!(c.reg_width_bits, 32);
        assert_eq!(c.int_hop_depth, 8);
        assert!(c.bounded_latency);
        // Enforcement is a containment layer, not baseline protocol:
        // default-off so the paper's scenarios are bit-for-bit unchanged.
        assert!(!c.enforce);
    }
}
