//! Adversarial tenant generators (DESIGN §10).
//!
//! Three abuse classes, matching the edge enforcement stage's
//! [`HostileKind`] models:
//!
//! * **guarantee-exceeding sender** — offers `intensity ×` its hose in
//!   steady demand *and* bypasses the μFAB admission window edge-side;
//! * **probe flooder** — keeps honest data demand but emits
//!   `intensity` raw probes per pair per token tick;
//! * **UDP blaster** — keeps honest demand and blasts connectionless
//!   datagrams at unregistered destinations (structurally dropped at
//!   the source NIC; the enforcement stage attributes the attempt).
//!
//! Hostile-tenant *selection* is a pure function of `(seed, tenant
//! index)` via a splitmix64 mix — no RNG stream is consumed, so the
//! same tenants turn hostile at any `--jobs` and the honest
//! tenants' traffic programs are bit-identical to the enforcement-off
//! run.

use crate::churn::PairDemand;
use ufab::edge::enforce::{HostileKind, HostileProfile};

/// splitmix64 finalizer: a high-quality 64-bit mix.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Deterministically mark ≈`pct`% of `n_tenants` hostile. Entry `i` is
/// `Some(profile)` iff tenant `i` (plan order) is hostile; the abuse
/// class rotates through the three kinds by a second hash so a cell
/// sees all of them. Pure in `(seed, i, pct, intensity)`.
pub fn select_hostiles(
    seed: u64,
    n_tenants: usize,
    pct: u32,
    intensity: u32,
) -> Vec<Option<HostileProfile>> {
    assert!(pct <= 100, "hostile percentage over 100");
    (0..n_tenants)
        .map(|i| {
            let h = splitmix64(seed ^ splitmix64(i as u64));
            if (h % 100) as u32 >= pct {
                return None;
            }
            let kind = match splitmix64(h) % 3 {
                0 => HostileKind::OverGuar,
                1 => HostileKind::ProbeFlood,
                _ => HostileKind::UdpBlast,
            };
            Some(HostileProfile {
                kind,
                intensity: intensity.max(1),
            })
        })
        .collect()
}

/// The demand program of one hostile pair. A guarantee-exceeding
/// sender offers `intensity ×` its hose share; the control-plane
/// abusers (flood, blast) keep an honest steady stream at the hose so
/// their pairs stay active while the edge-side generator does the
/// abusing.
pub fn hostile_demand(kind: HostileKind, hose_bps: f64, intensity: u32) -> PairDemand {
    let bps = match kind {
        HostileKind::OverGuar => hose_bps * intensity.max(1) as f64,
        HostileKind::ProbeFlood | HostileKind::UdpBlast => hose_bps,
    };
    PairDemand::Steady { bps }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_is_deterministic_and_index_stable() {
        let a = select_hostiles(42, 500, 10, 4);
        let b = select_hostiles(42, 500, 10, 4);
        assert_eq!(a.len(), 500);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.is_some(), y.is_some());
        }
        // Index-stable: a longer roster keeps the same prefix verdicts
        // (tenant i's fate never depends on how many others exist).
        let c = select_hostiles(42, 800, 10, 4);
        for (i, x) in a.iter().enumerate() {
            assert_eq!(x.is_some(), c[i].is_some(), "tenant {i}");
        }
    }

    #[test]
    fn selection_fraction_tracks_pct() {
        for pct in [0u32, 10, 50, 90] {
            let v = select_hostiles(7, 4000, pct, 1);
            let frac = v.iter().filter(|h| h.is_some()).count() as f64 / 4000.0;
            assert!(
                (frac - pct as f64 / 100.0).abs() < 0.03,
                "pct {pct}: got {frac}"
            );
        }
        assert!(select_hostiles(7, 1000, 0, 1).iter().all(|h| h.is_none()));
    }

    #[test]
    fn all_three_abuse_classes_appear() {
        let v = select_hostiles(3, 2000, 30, 4);
        let kinds: Vec<HostileKind> = v.iter().flatten().map(|h| h.kind).collect();
        assert!(kinds.contains(&HostileKind::OverGuar));
        assert!(kinds.contains(&HostileKind::ProbeFlood));
        assert!(kinds.contains(&HostileKind::UdpBlast));
        assert!(v.iter().flatten().all(|h| h.intensity == 4));
    }

    #[test]
    fn overguar_demand_scales_with_intensity() {
        let d = hostile_demand(HostileKind::OverGuar, 1e9, 8);
        let PairDemand::Steady { bps } = d else {
            panic!("expected steady");
        };
        assert_eq!(bps, 8e9);
        // Control-plane abusers stay at the hose.
        let d = hostile_demand(HostileKind::ProbeFlood, 1e9, 8);
        let PairDemand::Steady { bps } = d else {
            panic!("expected steady");
        };
        assert_eq!(bps, 1e9);
    }
}
