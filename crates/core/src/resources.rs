//! Analytic hardware resource models reproducing Tables 3 and 4.
//!
//! The paper reports static resource accounting of the two prototypes:
//! μFAB-E on a Xilinx Alveo U200 (Table 3) and μFAB-C on an Intel Barefoot
//! Tofino (Table 4). Without the hardware we model the same scaling laws —
//! per-pair state linear in pair count on top of fixed pipeline cost — and
//! calibrate the coefficients so the paper's operating points reproduce
//! its numbers exactly.

/// One row of Table 3: per-module FPGA resource shares (percent).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FpgaRow {
    /// Module name.
    pub module: &'static str,
    /// Lookup tables.
    pub lut_pct: f64,
    /// Flip-flop registers.
    pub reg_pct: f64,
    /// Block RAM.
    pub bram_pct: f64,
    /// UltraRAM.
    pub uram_pct: f64,
}

/// Table 3 at the paper's operating point (8 K VM-pairs, 1 K tenants).
pub const FPGA_TABLE3: [FpgaRow; 6] = [
    FpgaRow {
        module: "Packet Scheduler",
        lut_pct: 0.8,
        reg_pct: 1.1,
        bram_pct: 0.8,
        uram_pct: 5.7,
    },
    FpgaRow {
        module: "Context Tables",
        lut_pct: 0.2,
        reg_pct: 0.2,
        bram_pct: 4.6,
        uram_pct: 3.1,
    },
    FpgaRow {
        module: "Path Monitor",
        lut_pct: 0.9,
        reg_pct: 0.7,
        bram_pct: 4.8,
        uram_pct: 0.6,
    },
    FpgaRow {
        module: "TX/RX pipes",
        lut_pct: 0.3,
        reg_pct: 0.1,
        bram_pct: 1.2,
        uram_pct: 0.0,
    },
    FpgaRow {
        module: "Vendor Modules",
        lut_pct: 5.5,
        reg_pct: 3.6,
        bram_pct: 5.0,
        uram_pct: 0.0,
    },
    FpgaRow {
        module: "Total",
        lut_pct: 7.6,
        reg_pct: 5.8,
        bram_pct: 16.4,
        uram_pct: 9.5,
    },
];

/// Pair count Table 3 was measured at.
pub(crate) const FPGA_BASE_PAIRS: u64 = 8_192;

/// Scale the FPGA *memory* resources to a different supported pair count.
///
/// Per-pair state lives in Context Tables (BRAM/URAM) and the Packet
/// Scheduler's queues (URAM); logic (LUT/registers) is pipeline-fixed.
/// The paper's headline: "supports 8K VM-pairs and 1K tenants with up to
/// 10 % extra hardware resources".
pub fn fpga_at_pairs(pairs: u64) -> FpgaRow {
    let total = FPGA_TABLE3[5];
    let vendor = FPGA_TABLE3[4];
    let scale = pairs as f64 / FPGA_BASE_PAIRS as f64;
    // μFAB's own (non-vendor) share scales in memory, stays fixed in logic.
    FpgaRow {
        module: "Total",
        lut_pct: total.lut_pct,
        reg_pct: total.reg_pct,
        bram_pct: vendor.bram_pct + (total.bram_pct - vendor.bram_pct) * scale,
        uram_pct: vendor.uram_pct + (total.uram_pct - vendor.uram_pct) * scale,
    }
}

/// One row of Table 4: Tofino resource shares (percent) at a pair count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TofinoUsage {
    /// Distinct VM-pairs supported.
    pub pairs: u64,
    /// Match crossbar.
    pub match_crossbar_pct: f64,
    /// SRAM.
    pub sram_pct: f64,
    /// TCAM.
    pub tcam_pct: f64,
    /// VLIW action slots.
    pub vliw_pct: f64,
    /// Hash distribution bits.
    pub hash_bits_pct: f64,
    /// Stateful ALUs.
    pub stateful_alu_pct: f64,
    /// Packet header vector.
    pub phv_pct: f64,
}

/// Table 4 anchor points (20 K / 40 K / 80 K pairs).
pub const TOFINO_TABLE4: [TofinoUsage; 3] = [
    TofinoUsage {
        pairs: 20_000,
        match_crossbar_pct: 8.64,
        sram_pct: 17.29,
        tcam_pct: 6.25,
        vliw_pct: 18.23,
        hash_bits_pct: 17.03,
        stateful_alu_pct: 47.92,
        phv_pct: 20.05,
    },
    TofinoUsage {
        pairs: 40_000,
        match_crossbar_pct: 8.64,
        sram_pct: 17.71,
        tcam_pct: 6.25,
        vliw_pct: 18.23,
        hash_bits_pct: 17.05,
        stateful_alu_pct: 47.92,
        phv_pct: 20.05,
    },
    TofinoUsage {
        pairs: 80_000,
        match_crossbar_pct: 8.64,
        sram_pct: 18.75,
        tcam_pct: 6.25,
        vliw_pct: 18.23,
        hash_bits_pct: 17.07,
        stateful_alu_pct: 47.92,
        phv_pct: 20.05,
    },
];

/// Model Tofino usage at an arbitrary pair count.
///
/// Only SRAM (Bloom-filter banks + registers) and hash bits grow with the
/// pair count; the linear coefficients are fitted to the 20 K → 80 K span
/// of Table 4. Everything else is pipeline-fixed — the paper's point that
/// "with the increase in the scale of VM-pairs, the hardware resource
/// consumption only increases slightly".
pub fn tofino_at_pairs(pairs: u64) -> TofinoUsage {
    let lo = TOFINO_TABLE4[0];
    let hi = TOFINO_TABLE4[2];
    let span = (hi.pairs - lo.pairs) as f64;
    let sram_slope = (hi.sram_pct - lo.sram_pct) / span;
    let hash_slope = (hi.hash_bits_pct - lo.hash_bits_pct) / span;
    let d = pairs as f64 - lo.pairs as f64;
    TofinoUsage {
        pairs,
        sram_pct: (lo.sram_pct + sram_slope * d).max(0.0),
        hash_bits_pct: (lo.hash_bits_pct + hash_slope * d).max(0.0),
        ..lo
    }
}

/// Bloom-filter sizing from §4.2: bytes of filter memory needed so `pairs`
/// distinct VM-pairs stay under `fp_target` false positives with the
/// 2-bank filter (`fp = (1 − e^(−n/m))²`, m bits per bank).
pub fn bloom_bytes_for(pairs: u64, fp_target: f64) -> usize {
    assert!((0.0..1.0).contains(&fp_target) && fp_target > 0.0);
    // fp = p² with p = 1 − e^(−n/m)  ⇒  m = −n / ln(1 − √fp).
    let p = fp_target.sqrt();
    let m_bits = -(pairs as f64) / (1.0 - p).ln();
    // Two banks, 8 bits per byte.
    (2.0 * m_bits / 8.0).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fpga_reproduces_table3_at_base() {
        let r = fpga_at_pairs(FPGA_BASE_PAIRS);
        let t = FPGA_TABLE3[5];
        assert!((r.bram_pct - t.bram_pct).abs() < 1e-9);
        assert!((r.uram_pct - t.uram_pct).abs() < 1e-9);
        assert_eq!(r.lut_pct, t.lut_pct);
    }

    #[test]
    fn fpga_memory_scales_logic_fixed() {
        let big = fpga_at_pairs(2 * FPGA_BASE_PAIRS);
        let base = fpga_at_pairs(FPGA_BASE_PAIRS);
        assert!(big.bram_pct > base.bram_pct);
        assert!(big.uram_pct > base.uram_pct);
        assert_eq!(big.lut_pct, base.lut_pct);
        assert_eq!(big.reg_pct, base.reg_pct);
    }

    #[test]
    fn table3_totals_are_sums() {
        let modules = &FPGA_TABLE3[..5];
        let total = FPGA_TABLE3[5];
        let sum_lut: f64 = modules.iter().map(|m| m.lut_pct).sum();
        // Paper rounds per-module numbers; allow 0.3 pp slack.
        assert!((sum_lut - total.lut_pct).abs() < 0.31, "{sum_lut}");
        let sum_bram: f64 = modules.iter().map(|m| m.bram_pct).sum();
        assert!((sum_bram - total.bram_pct).abs() < 0.31, "{sum_bram}");
    }

    #[test]
    fn tofino_reproduces_anchor_points() {
        for anchor in TOFINO_TABLE4 {
            let m = tofino_at_pairs(anchor.pairs);
            assert!(
                (m.sram_pct - anchor.sram_pct).abs() < 0.25,
                "sram at {}: {} vs {}",
                anchor.pairs,
                m.sram_pct,
                anchor.sram_pct
            );
            assert_eq!(m.stateful_alu_pct, anchor.stateful_alu_pct);
            assert_eq!(m.phv_pct, anchor.phv_pct);
        }
    }

    #[test]
    fn tofino_growth_is_slight() {
        // 4x the pairs adds < 2 pp of SRAM — the paper's scalability claim.
        let lo = tofino_at_pairs(20_000);
        let hi = tofino_at_pairs(80_000);
        assert!(hi.sram_pct - lo.sram_pct < 2.0);
    }

    #[test]
    fn bloom_sizing_matches_paper_point() {
        // §4.2: 20 KB supports 20 K pairs at < 5 % FP.
        let bytes = bloom_bytes_for(20_000, 0.05);
        assert!(
            (15_000..25_000).contains(&bytes),
            "sized {bytes} bytes, paper deploys 20 KB"
        );
    }

    #[test]
    #[should_panic]
    fn bloom_sizing_rejects_bad_target() {
        bloom_bytes_for(100, 0.0);
    }

    /// The `dse` cost model anchors on `tofino_at_pairs(20_000)` — pin
    /// every field of the Table 4 operating point exactly so a silent
    /// recalibration cannot shift the whole Pareto front.
    #[test]
    fn table4_operating_point_pinned_exactly() {
        let r = TOFINO_TABLE4[0];
        assert_eq!(r.pairs, 20_000);
        assert_eq!(r.match_crossbar_pct, 8.64);
        assert_eq!(r.sram_pct, 17.29);
        assert_eq!(r.tcam_pct, 6.25);
        assert_eq!(r.vliw_pct, 18.23);
        assert_eq!(r.hash_bits_pct, 17.03);
        assert_eq!(r.stateful_alu_pct, 47.92);
        assert_eq!(r.phv_pct, 20.05);
        // The model must reproduce the anchor row bit-for-bit, not just
        // within tolerance: d = 0 makes the interpolation exact.
        let m = tofino_at_pairs(20_000);
        assert_eq!(m.sram_pct, r.sram_pct);
        assert_eq!(m.hash_bits_pct, r.hash_bits_pct);
    }

    /// Table 3 operating point (8 K pairs / 1 K tenants) pinned exactly:
    /// the FPGA totals the paper reports for the deployed prototype.
    #[test]
    fn table3_operating_point_pinned_exactly() {
        let t = FPGA_TABLE3[5];
        assert_eq!(t.module, "Total");
        assert_eq!(t.lut_pct, 7.6);
        assert_eq!(t.reg_pct, 5.8);
        assert_eq!(t.bram_pct, 16.4);
        assert_eq!(t.uram_pct, 9.5);
        assert_eq!(FPGA_BASE_PAIRS, 8_192);
    }

    /// Cost must be monotone non-decreasing in pair count — the `dse`
    /// subsystem depends on "more state never gets cheaper" to make its
    /// Pareto fronts meaningful.
    #[test]
    fn tofino_cost_monotone_in_pairs() {
        let mut prev = tofino_at_pairs(1_000);
        for pairs in [5_000u64, 20_000, 40_000, 80_000, 160_000, 640_000] {
            let cur = tofino_at_pairs(pairs);
            assert!(
                cur.sram_pct >= prev.sram_pct,
                "sram not monotone at {pairs} pairs"
            );
            assert!(
                cur.hash_bits_pct >= prev.hash_bits_pct,
                "hash bits not monotone at {pairs} pairs"
            );
            prev = cur;
        }
    }

    #[test]
    fn fpga_cost_monotone_in_pairs() {
        let mut prev = fpga_at_pairs(1_024);
        for pairs in [4_096u64, 8_192, 16_384, 65_536] {
            let cur = fpga_at_pairs(pairs);
            assert!(cur.bram_pct >= prev.bram_pct);
            assert!(cur.uram_pct >= prev.uram_pct);
            prev = cur;
        }
    }

    #[test]
    fn bloom_sizing_monotone() {
        // More pairs need more filter memory at a fixed FP target…
        let mut prev = 0usize;
        for pairs in [1_000u64, 10_000, 20_000, 100_000] {
            let bytes = bloom_bytes_for(pairs, 0.05);
            assert!(bytes > prev, "{pairs} pairs sized {bytes} B <= {prev} B");
            prev = bytes;
        }
        // …and a stricter FP target needs more memory at fixed pairs.
        assert!(bloom_bytes_for(20_000, 0.01) > bloom_bytes_for(20_000, 0.05));
    }
}
