//! Bridge from a knob point to the Table 4 Tofino operating point.
//!
//! `ufab::resources::tofino_at_pairs` gives the paper's measured
//! resource shares at the §4.2 deployment (20 K pairs, 20 KB 2-bank
//! filter, 32-bit registers, full INT). This module perturbs those
//! shares with the knobs that consume each resource class, keeping the
//! baseline point exactly on Table 4. Modelling assumptions (stated,
//! not measured — the paper does not publish per-knob breakdowns):
//!
//! * [`STATE_SRAM_SHARE`] of the SRAM share is per-port demand state
//!   (Bloom cells + Φ/W registers) and scales linearly with its bit
//!   count; the rest is match/action overhead, pipeline-fixed.
//! * Hash distribution bits are consumed by the Bloom banks, linear in
//!   the bank count (2 banks = the Table 4 figure).
//! * Stateful-ALU accesses per probe = 2 registers + one per Bloom
//!   bank (4 at baseline = the Table 4 figure).
//! * [`INT_PHV_SHARE`] of the PHV share carries the hop-record vector,
//!   linear in the hop depth; the rest is fixed probe metadata.
//! * The cleanup period is control-plane timing: it costs **zero**
//!   data-plane resources (it only moves accuracy outcomes), which is
//!   exactly why it is interesting on a Pareto front.

use crate::knobs::baseline;
use ufab::resources::{tofino_at_pairs, TofinoUsage};
use ufab::CoreHwCfg;

/// Pair count the cost bridge is anchored at (Table 4's first row).
pub(crate) const COST_PAIRS: u64 = 20_000;

/// Fraction of the Table 4 SRAM share attributed to per-port demand
/// state (Bloom cells + registers) rather than fixed match/action
/// overhead.
pub(crate) const STATE_SRAM_SHARE: f64 = 0.40;

/// Fraction of the Table 4 PHV share attributed to the INT hop-record
/// vector rather than fixed probe metadata.
pub(crate) const INT_PHV_SHARE: f64 = 0.50;

/// Per-resource switch cost of one knob point, in Tofino
/// percent-of-chip shares on top of the Table 4 operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostBreakdown {
    /// SRAM share (Bloom cells + Φ/W registers + fixed overhead).
    pub sram_pct: f64,
    /// Hash distribution bits (one distribution per Bloom bank).
    pub hash_bits_pct: f64,
    /// Stateful ALUs (2 register updates + 1 per Bloom bank).
    pub stateful_alu_pct: f64,
    /// Packet header vector (INT hop records + fixed probe metadata).
    pub phv_pct: f64,
    /// Scalar cost: the sum of the four shares. Comparable across
    /// points of the same sweep; *not* a claim that the resource
    /// classes are fungible.
    pub cost_units: f64,
}

/// Bits of per-port demand state a knob point keeps in SRAM: 8-bit
/// Bloom cells plus the two (Φ, W) demand registers.
fn state_bits(p: &CoreHwCfg) -> f64 {
    (8 * p.bloom_bytes) as f64 + 2.0 * p.reg_width_bits as f64
}

/// Cost a knob point against the Table 4 anchor. The
/// [`baseline`] point reproduces the Table 4 row exactly
/// (its shortened cleanup period is cost-free by construction).
pub fn cost_of(p: &CoreHwCfg) -> CostBreakdown {
    let base: TofinoUsage = tofino_at_pairs(COST_PAIRS);
    let sram_pct = base.sram_pct * (1.0 - STATE_SRAM_SHARE)
        + base.sram_pct * STATE_SRAM_SHARE * (state_bits(p) / state_bits(&baseline()));
    let hash_bits_pct = base.hash_bits_pct * (p.bloom_hashes as f64 / 2.0);
    let stateful_alu_pct = base.stateful_alu_pct * ((2 + p.bloom_hashes as u32) as f64 / 4.0);
    let phv_pct = base.phv_pct * (1.0 - INT_PHV_SHARE)
        + base.phv_pct * INT_PHV_SHARE * (p.int_hop_depth as f64 / 8.0);
    CostBreakdown {
        sram_pct,
        hash_bits_pct,
        stateful_alu_pct,
        phv_pct,
        cost_units: sram_pct + hash_bits_pct + stateful_alu_pct + phv_pct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::MS;
    use ufab::resources::TOFINO_TABLE4;

    #[test]
    fn baseline_reproduces_table4_row() {
        let c = cost_of(&baseline());
        let t = TOFINO_TABLE4[0];
        assert!((c.sram_pct - t.sram_pct).abs() < 1e-9, "{}", c.sram_pct);
        assert!((c.hash_bits_pct - t.hash_bits_pct).abs() < 1e-9);
        assert!((c.stateful_alu_pct - t.stateful_alu_pct).abs() < 1e-9);
        assert!((c.phv_pct - t.phv_pct).abs() < 1e-9);
    }

    /// Cost must be strictly monotone in every resource-consuming knob,
    /// holding the others at baseline.
    #[test]
    fn cost_monotone_in_each_knob() {
        let base = baseline();
        let cost = |p: CoreHwCfg| cost_of(&p).cost_units;
        // Bloom bytes.
        let mut prev = f64::NEG_INFINITY;
        for b in [64usize, 256, 1024, 20 * 1024, 64 * 1024] {
            let c = cost(CoreHwCfg {
                bloom_bytes: b,
                ..base
            });
            assert!(c > prev, "bloom {b}: {c} !> {prev}");
            prev = c;
        }
        // Register width.
        prev = f64::NEG_INFINITY;
        for w in [6u8, 8, 12, 16, 32] {
            let c = cost(CoreHwCfg {
                reg_width_bits: w,
                ..base
            });
            assert!(c > prev, "width {w}: {c} !> {prev}");
            prev = c;
        }
        // Hash count.
        prev = f64::NEG_INFINITY;
        for h in [1u8, 2, 4, 8] {
            let c = cost(CoreHwCfg {
                bloom_hashes: h,
                ..base
            });
            assert!(c > prev, "hashes {h}: {c} !> {prev}");
            prev = c;
        }
        // Hop depth.
        prev = f64::NEG_INFINITY;
        for d in [1u8, 2, 4, 8] {
            let c = cost(CoreHwCfg {
                int_hop_depth: d,
                ..base
            });
            assert!(c > prev, "depth {d}: {c} !> {prev}");
            prev = c;
        }
    }

    #[test]
    fn cleanup_period_is_cost_free() {
        let base = baseline();
        for c in [1 * MS, 20 * MS, 10_000 * MS] {
            let p = CoreHwCfg {
                cleanup_period: c,
                ..base
            };
            assert_eq!(cost_of(&p), cost_of(&base));
        }
    }

    #[test]
    fn breakdown_sums_to_cost_units() {
        for p in crate::knobs::GridKind::Full.points() {
            let c = cost_of(&p);
            let sum = c.sram_pct + c.hash_bits_pct + c.stateful_alu_pct + c.phv_pct;
            assert!((c.cost_units - sum).abs() < 1e-12);
            assert!(c.cost_units > 0.0 && c.cost_units.is_finite());
        }
    }
}
