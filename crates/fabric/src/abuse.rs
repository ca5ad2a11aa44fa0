//! Misbehavior scoring and the quarantine lifecycle (DESIGN §10).
//!
//! The edge enforcement stage (ufab-edge) reports per-tenant counter
//! deltas — policed packets, throttled probes, unsolicited drops — to
//! the control plane. This module turns each tick's deltas into a
//! decayed *misbehavior score* per tenant; `fabricd::FabricService`
//! reads the scores to walk the quarantine ladder layered on the
//! admission lifecycle:
//!
//! ```text
//! Guaranteed → Suspected → Quarantined → Reinstated → Guaranteed
//!      ↑__________|              ↑______________|
//! ```
//!
//! Hysteresis is structural, not a tuning accident: entering
//! `Suspected` needs the score above [`ENTER_SCORE`], leaving
//! it needs decay below the *lower* [`EXIT_SCORE`], and
//! `Quarantined` additionally requires the score to stay above the
//! enter threshold for [`SUSTAIN_TICKS`] consecutive
//! observation ticks. A bursty-but-honest tenant that trips the policer
//! in isolated windows oscillates below the enter threshold and never
//! leaves `Guaranteed`; only *sustained* abuse walks the whole ladder.

use netsim::Time;

/// Score weight of a policed (token-bucket) window.
const W_POLICED: f64 = 1.0;
/// Score weight of a probe-throttle window.
const W_PROBE: f64 = 1.0;
/// Score weight of an unsolicited-traffic drop window.
const W_UNSOL: f64 = 1.0;
/// Multiplicative score decay applied every observation tick.
const DECAY: f64 = 0.5;
/// Score at or above which `Guaranteed → Suspected` fires.
pub const ENTER_SCORE: f64 = 1.5;
/// Score at or below which `Suspected → Guaranteed` fires (below
/// [`ENTER_SCORE`]: the hysteresis band).
pub const EXIT_SCORE: f64 = 0.5;
/// Consecutive suspect ticks with the score at or above
/// [`ENTER_SCORE`] before `Suspected → Quarantined`.
pub const SUSTAIN_TICKS: u32 = 8;
/// Rate clamp applied at the edge while quarantined, as a fraction of
/// the (released) hose guarantee.
pub const PENALTY_FRACTION: f64 = 0.1;
/// Minimum residency in `Quarantined` before reinstatement (ns).
pub const QUARANTINE_HOLD: Time = 5 * netsim::MS;
/// Probation length in `Reinstated` before full `Guaranteed` (ns).
pub const PROBATION: Time = 5 * netsim::MS;

/// Clamp directive produced by `fabricd::FabricService::abuse_tick`:
/// the caller pushes it to the offending tenant's edges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClampAction {
    /// The service's tenant id.
    pub tenant: u32,
    /// `Some(fraction)` clamps the tenant's edge policer to
    /// `fraction × hose`; `None` lifts the clamp.
    pub clamp: Option<f64>,
}

/// Per-tenant misbehavior bookkeeping (one row per managed tenant).
/// When a quarantine or a probation started is not kept here: the
/// service reads both off the tenant's guarantee spans.
#[derive(Debug, Clone, Default)]
struct MisRow {
    /// Decayed misbehavior score.
    score: f64,
    /// Consecutive ticks spent at or above the enter threshold while
    /// `Suspected`.
    suspect_ticks: u32,
}

/// The misbehavior ledger: the score and sustain count of every
/// managed tenant, indexed by the service's tenant id.
#[derive(Debug, Clone)]
pub struct MisbehaviorLedger {
    rows: Vec<MisRow>,
}

impl MisbehaviorLedger {
    /// A ledger over `n_tenants`, every row clean.
    pub fn new(n_tenants: usize) -> Self {
        Self {
            rows: vec![MisRow::default(); n_tenants],
        }
    }

    /// Number of tenant rows tracked.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the ledger tracks no tenants yet.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Grow the ledger to cover `n` tenants (new rows start clean).
    /// Shrinking is not supported: rows are indexed like the caller's
    /// tenant table, which only accretes.
    pub fn ensure_rows(&mut self, n: usize) {
        if n > self.rows.len() {
            self.rows.resize(n, MisRow::default());
        }
    }

    /// Decay-and-integrate one observation tick for tenant `i`, given
    /// the tick's enforcement deltas `[policed, throttled probes,
    /// unsolicited]`, returning the updated score. Each abuse class
    /// contributes at most its weight per tick (the counters are
    /// window-rate signals, not byte counts), so one tick can raise the
    /// score by at most `W_POLICED + W_PROBE + W_UNSOL` — the bound the
    /// hysteresis thresholds are calibrated against.
    pub fn integrate(&mut self, i: usize, [policed, probes, unsol]: [u64; 3]) -> f64 {
        let row = &mut self.rows[i];
        let inc = W_POLICED * (policed > 0) as u64 as f64
            + W_PROBE * (probes > 0) as u64 as f64
            + W_UNSOL * (unsol > 0) as u64 as f64;
        row.score = row.score * DECAY + inc;
        row.score
    }

    /// Current misbehavior score of tenant `i`.
    pub fn score(&self, i: usize) -> f64 {
        self.rows[i].score
    }

    /// Tenant `i`'s consecutive-suspect-tick count.
    pub fn suspect_ticks(&self, i: usize) -> u32 {
        self.rows[i].suspect_ticks
    }

    /// Set tenant `i`'s consecutive-suspect-tick count.
    pub fn set_suspect_ticks(&mut self, i: usize, n: u32) {
        self.rows[i].suspect_ticks = n;
    }

    /// Increment tenant `i`'s suspect-tick count, returning the new
    /// value.
    pub fn bump_suspect_ticks(&mut self, i: usize) -> u32 {
        self.rows[i].suspect_ticks += 1;
        self.rows[i].suspect_ticks
    }

    /// Append the next tenant's row, restored from a snapshot: its
    /// [`score`] and [`suspect_ticks`].
    ///
    /// [`score`]: MisbehaviorLedger::score
    /// [`suspect_ticks`]: MisbehaviorLedger::suspect_ticks
    pub fn push_row(&mut self, score: f64, suspect_ticks: u32) {
        self.rows.push(MisRow {
            score,
            suspect_ticks,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolated_windows_never_cross_enter_threshold() {
        // A bursty-but-honest tenant: policed in every *other* window.
        let mut l = MisbehaviorLedger::new(1);
        let mut peak: f64 = 0.0;
        for tick in 0..64 {
            let policed = (tick % 2 == 0) as u64;
            peak = peak.max(l.integrate(0, [policed, 0, 0]));
        }
        // Geometric steady state: 1/(1 − d²) = 4/3 < enter (1.5).
        assert!(peak < ENTER_SCORE, "peak {peak}");
    }

    #[test]
    fn sustained_abuse_converges_above_enter_threshold() {
        let mut l = MisbehaviorLedger::new(1);
        for _ in 0..32 {
            l.integrate(0, [1, 0, 0]);
        }
        // Steady state 1/(1 − d) = 2 ≥ enter (1.5).
        assert!(l.score(0) >= ENTER_SCORE);
        // And decays back below exit once the abuse stops.
        for _ in 0..8 {
            l.integrate(0, [0; 3]);
        }
        assert!(l.score(0) <= EXIT_SCORE);
    }

    #[test]
    fn class_contributions_are_bounded_per_tick() {
        let mut l = MisbehaviorLedger::new(1);
        // A flood of 10⁶ events in one tick scores exactly like one.
        let s = l.integrate(0, [1_000_000; 3]);
        assert_eq!(s, 3.0);
    }

    #[test]
    fn pushed_rows_round_trip() {
        let mut l = MisbehaviorLedger::new(2);
        l.integrate(1, [1, 1, 0]);
        l.set_suspect_ticks(1, 3);
        let mut m = MisbehaviorLedger::new(0);
        for i in 0..l.len() {
            m.push_row(l.score(i), l.suspect_ticks(i));
        }
        assert_eq!(m.len(), 2);
        assert_eq!(m.score(1).to_bits(), l.score(1).to_bits());
        assert_eq!(m.suspect_ticks(1), 3);
        assert_eq!((m.score(0), m.suspect_ticks(0)), (0.0, 0));
    }

    #[test]
    fn ensure_rows_grows_but_never_shrinks() {
        let mut l = MisbehaviorLedger::new(1);
        let s = l.integrate(0, [1, 0, 0]);
        l.ensure_rows(3);
        assert_eq!(l.len(), 3);
        assert_eq!(l.score(0), s, "existing rows untouched");
        assert_eq!(l.score(2), 0.0, "new rows start clean");
        l.ensure_rows(2);
        assert_eq!(l.len(), 3, "shrinking is a no-op");
    }
}
