//! The μFAB-C hardware knob space and the sweep grids.
//!
//! A point of the space is a [`CoreHwCfg`], the one type that carries
//! the five knobs into every simulated switch, so each knob changes what
//! the switch *does*, not just what the analytic cost model reports:
//!
//! | knob             | mechanism (crates/core)                          |
//! |------------------|--------------------------------------------------|
//! | `reg_width_bits` | Φ/W INT read-outs saturate at `2^w − 1` wire units |
//! | `bloom_bytes`    | real §3.6 false-positive omissions               |
//! | `bloom_hashes`   | banks split the byte budget (accuracy/ALU trade) |
//! | `int_hop_depth`  | probes past the depth are forwarded unstamped    |
//! | `cleanup_period` | stale-entry lifetime after lost finish probes    |

use netsim::{Time, MS};
use ufab::{CoreHwCfg, UfabConfig};

/// The sweep's reference point: the paper's §4.2 deployment (20 KB /
/// 2-bank filter, 32-bit registers, depth-8 INT) with the churn
/// scenario's shortened 5 ms cleanup so idle-sweep behaviour is
/// observable inside a simulated cell.
pub fn baseline() -> CoreHwCfg {
    CoreHwCfg {
        reg_width_bits: 32,
        bloom_bytes: 20 * 1024,
        bloom_hashes: 2,
        int_hop_depth: 8,
        cleanup_period: 5 * MS,
    }
}

/// Stable human/CSV label of a point, e.g. `w32:b20480:h2:d8:c5000`
/// (cleanup period in µs). Doubles as the dedup key when grids are
/// assembled.
pub fn label(p: &CoreHwCfg) -> String {
    format!(
        "w{}:b{}:h{}:d{}:c{}",
        p.reg_width_bits,
        p.bloom_bytes,
        p.bloom_hashes,
        p.int_hop_depth,
        p.cleanup_period / 1_000
    )
}

/// Thread a point into a [`UfabConfig`], the inverse of
/// `CoreHwCfg::from(&UfabConfig)`: the harness builds every μFAB-C of
/// the run from the config, so each adopts the knobs.
pub fn apply(p: &CoreHwCfg, cfg: &mut UfabConfig) {
    cfg.reg_width_bits = p.reg_width_bits;
    cfg.bloom_bytes = p.bloom_bytes;
    cfg.bloom_hashes = p.bloom_hashes;
    cfg.int_hop_depth = p.int_hop_depth;
    cfg.core_cleanup_period = p.cleanup_period;
}

/// Which sweep grid to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridKind {
    /// One-at-a-time star around the baseline (~12 points) — CI-sized.
    Quick,
    /// Denser star plus a small Bloom-size × hash-count lattice
    /// (~29 points).
    Full,
}

impl GridKind {
    /// Parse a `--grid` argument; `None` for unknown names.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "quick" => Some(Self::Quick),
            "full" => Some(Self::Full),
            _ => None,
        }
    }

    /// CLI help string of the accepted names.
    pub const NAMES: &'static str = "quick|full";

    /// Materialise the grid. Points are deduplicated and returned in a
    /// fixed order (baseline first, then each knob's star arm), so the
    /// grid itself is part of the determinism contract.
    pub fn points(&self) -> Vec<CoreHwCfg> {
        let base = baseline();
        let mut pts = vec![base];
        let push = |p: CoreHwCfg, pts: &mut Vec<CoreHwCfg>| {
            if !pts.contains(&p) {
                pts.push(p);
            }
        };
        let (widths, blooms, hashes, depths, cleanups): (&[u8], &[usize], &[u8], &[u8], &[Time]) =
            match self {
                Self::Quick => (
                    &[8, 12],
                    &[64, 256, 1024],
                    &[1, 4],
                    &[2, 4],
                    &[1 * MS, 20 * MS],
                ),
                Self::Full => (
                    &[6, 8, 10, 12, 16],
                    &[64, 128, 256, 512, 1024, 4096],
                    &[1, 3, 4, 8],
                    &[1, 2, 3, 4, 6],
                    &[1 * MS, 2 * MS, 10 * MS, 20 * MS],
                ),
            };
        for &w in widths {
            push(
                CoreHwCfg {
                    reg_width_bits: w,
                    ..base
                },
                &mut pts,
            );
        }
        for &b in blooms {
            push(
                CoreHwCfg {
                    bloom_bytes: b,
                    ..base
                },
                &mut pts,
            );
        }
        for &h in hashes {
            push(
                CoreHwCfg {
                    bloom_hashes: h,
                    ..base
                },
                &mut pts,
            );
        }
        for &d in depths {
            push(
                CoreHwCfg {
                    int_hop_depth: d,
                    ..base
                },
                &mut pts,
            );
        }
        for &c in cleanups {
            push(
                CoreHwCfg {
                    cleanup_period: c,
                    ..base
                },
                &mut pts,
            );
        }
        if let Self::Full = self {
            // Starved-filter lattice: Bloom size × hash count interact
            // (cells-per-bank halves as banks double), so sweep the
            // corner jointly.
            for &b in &[64usize, 256] {
                for &h in &[1u8, 2, 4] {
                    push(
                        CoreHwCfg {
                            bloom_bytes: b,
                            bloom_hashes: h,
                            ..base
                        },
                        &mut pts,
                    );
                }
            }
        }
        pts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_label_stable() {
        assert_eq!(label(&baseline()), "w32:b20480:h2:d8:c5000");
    }

    #[test]
    fn apply_threads_every_knob() {
        let p = CoreHwCfg {
            reg_width_bits: 8,
            bloom_bytes: 64,
            bloom_hashes: 4,
            int_hop_depth: 2,
            cleanup_period: 20 * MS,
        };
        let mut cfg = UfabConfig::default();
        apply(&p, &mut cfg);
        assert_eq!(cfg.reg_width_bits, 8);
        assert_eq!(cfg.bloom_bytes, 64);
        assert_eq!(cfg.bloom_hashes, 4);
        assert_eq!(cfg.int_hop_depth, 2);
        assert_eq!(cfg.core_cleanup_period, 20 * MS);
    }

    #[test]
    fn grids_sized_and_unique() {
        for (kind, min, max) in [(GridKind::Quick, 10, 16), (GridKind::Full, 24, 40)] {
            let pts = kind.points();
            assert!(
                (min..=max).contains(&pts.len()),
                "{kind:?}: {} points",
                pts.len()
            );
            let mut labels: Vec<_> = pts.iter().map(label).collect();
            labels.sort();
            labels.dedup();
            assert_eq!(labels.len(), pts.len(), "{kind:?} has duplicate labels");
            assert_eq!(pts[0], baseline(), "baseline leads the grid");
        }
    }

    #[test]
    fn quick_grid_is_prefix_closed_subset_of_full_intent() {
        // Every quick point's knob values appear within the full ranges
        // (quick is the CI-sized projection of the same design space).
        let quick = GridKind::Quick.points();
        assert!(quick.iter().any(|p| p.bloom_bytes == 64));
        assert!(quick.iter().any(|p| p.reg_width_bits == 8));
        assert!(quick.iter().any(|p| p.int_hop_depth == 2));
        assert!(quick.iter().any(|p| p.bloom_hashes == 1));
        assert!(quick.iter().any(|p| p.cleanup_period == 20 * MS));
    }

    #[test]
    fn grid_parse_accepts_known_rejects_unknown() {
        assert_eq!(GridKind::parse("quick"), Some(GridKind::Quick));
        assert_eq!(GridKind::parse("full"), Some(GridKind::Full));
        assert_eq!(GridKind::parse("huge"), None);
        assert_eq!(GridKind::parse(""), None);
    }
}
