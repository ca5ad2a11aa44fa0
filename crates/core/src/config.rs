//! μFAB configuration knobs, with the paper's defaults.

use netsim::{Time, MS, SEC, US};

/// Tunables of μFAB-E and μFAB-C.
///
/// Defaults reproduce the paper's evaluation settings (§5.1 and the
/// implementation notes of §3.5/§4.1):
/// target utilisation η = 0.95, token update period 32 μs, probe spacing
/// L_m = 4 KB, migration-violation hold of 5 RTTs, freeze window drawn
/// from [1, 10] RTTs (the §5.6 sweet spot), probe-loss timeout of
/// 8 baseRTTs, better-path observation of 30 s.
#[derive(Debug, Clone)]
pub struct UfabConfig {
    /// Target link utilisation η; C_l = η·C^max_l (95 % headroom absorbs
    /// transient bursts, §3.3 footnote).
    pub target_utilization: f64,
    /// Data bytes a pair transmits between probes (L_m, §4.1). The probe
    /// overhead bound is L_p/(L_p+L_m) — 1.28 % at 4 KB.
    pub probe_lm_bytes: u64,
    /// Fixed probe period in RTTs instead of self-clocking
    /// (None = self-clocked; `Some(n)` reproduces Fig 18c's lazy probing).
    pub probe_period_rtts: Option<u64>,
    /// GP token (re)assignment period (32 μs default, §5.1).
    pub token_update_period: Time,
    /// Consecutive RTT-scale violations of the minimum bandwidth before a
    /// migration is triggered (5 RTTs, §3.5).
    pub violation_rtts: u32,
    /// Upper bound N of the random migration freeze window [1, N] RTTs
    /// (§3.5 / Fig 18: [1, 10]).
    pub freeze_rtts_max: u64,
    /// How long a persistently better path must be observed before a
    /// work-conservation migration (30 s, §3.5).
    pub better_path_hold: Time,
    /// Probe-loss timeout in baseRTTs (8, §4.1).
    pub probe_timeout_rtts: u64,
    /// Enable the two-stage bounded-latency admission of §3.4.
    /// `false` gives the paper's μFAB′ ablation (Fig 12, Fig 16).
    pub bounded_latency: bool,
    /// Enable the reorder-free migration option of §3.5 (probe-only first
    /// RTT on the new path).
    pub reorder_free: bool,
    /// Number of candidate underlay paths a pair randomly samples (§3.5).
    pub candidate_paths: usize,
    /// Number of WFQ weight levels in the packet scheduler (8, §4.1).
    pub wfq_levels: u8,
    /// Floor for the admission window in MTUs. May be fractional:
    /// sub-MTU windows are enforced by pacing (one packet per
    /// window/baseRTT interval), as the FPGA packet scheduler does.
    pub min_window_mtus: f64,
    /// Retransmission timeout in baseRTTs.
    pub rto_rtts: u64,
    /// Idle time after which a pair deregisters with a finish probe.
    pub idle_finish: Time,
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
    /// How often to probe *alternative* candidate paths for the
    /// work-conservation trigger (kept slow to bound overhead).
    pub alt_probe_period: Time,
    /// Typical fabric RTT, used to scale rate-estimator time constants
    /// (the per-pair baseRTT is computed exactly from the topology).
    pub rtt_scale: Time,
    /// Cap on shortest-path enumeration when sampling candidates.
    pub path_enum_cap: usize,
    /// Per-response smoothing gain of the Eqn-3 claim update (responses
    /// arrive every L_m bytes, i.e. many times per RTT; the claim should
    /// integrate roughly once per RTT — Appendix C).
    pub claim_gain: f64,
    /// Arm the per-tenant edge enforcement stage (policer, probe-budget
    /// throttle, unsolicited-drop attribution — DESIGN §10). Off by
    /// default: enforcement is a containment layer, not part of the
    /// paper's baseline protocol.
    pub enforce: bool,
    /// Policer burst in RTTs of the tenant's per-host hose guarantee
    /// (floored at 2 MTUs).
    pub enforce_burst_rtts: f64,
    /// Enforcement observation window (ns): verdict events and the
    /// probe budget are accounted per window.
    pub enforce_window: Time,
    /// Probe-budget floor per observation window (keep-alives and
    /// candidate probing must never be throttled for honest tenants).
    pub enforce_probe_floor: u32,
    /// Probe-budget margin over the self-clocked rate implied by the
    /// hose (budget = floor + margin·hose·window/(8·L_m)).
    pub enforce_probe_margin: f64,
}

impl Default for UfabConfig {
    fn default() -> Self {
        Self {
            target_utilization: 0.95,
            probe_lm_bytes: 4096,
            probe_period_rtts: None,
            token_update_period: 32 * US,
            violation_rtts: 5,
            freeze_rtts_max: 10,
            better_path_hold: 30 * SEC,
            probe_timeout_rtts: 8,
            bounded_latency: true,
            reorder_free: false,
            candidate_paths: 4,
            wfq_levels: 8,
            min_window_mtus: 0.1,
            rto_rtts: 16,
            idle_finish: 1 * MS,
            core_cleanup_period: 10 * SEC,
            bloom_bytes: 20 * 1024,
            bloom_hashes: 2,
            reg_width_bits: 32,
            int_hop_depth: 8,
            alt_probe_period: 10 * MS,
            rtt_scale: 25 * US,
            path_enum_cap: 16,
            claim_gain: 0.3,
            enforce: false,
            enforce_burst_rtts: 1.0,
            enforce_window: 250 * US,
            enforce_probe_floor: 32,
            enforce_probe_margin: 2.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = UfabConfig::default();
        assert_eq!(c.target_utilization, 0.95);
        assert_eq!(c.probe_lm_bytes, 4096);
        assert_eq!(c.token_update_period, 32 * US);
        assert_eq!(c.violation_rtts, 5);
        assert_eq!(c.freeze_rtts_max, 10);
        assert_eq!(c.probe_timeout_rtts, 8);
        assert_eq!(c.better_path_hold, 30 * SEC);
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
