//! Misbehavior scoring and the quarantine lifecycle (DESIGN §10).
//!
//! The edge enforcement stage (ufab-edge) reports per-tenant counter
//! deltas — policed windows, throttled probes, unsolicited drops — to
//! the control plane. This module turns those raw deltas into a
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
#[derive(Debug, Clone, Default)]
struct MisRow {
    /// Decayed misbehavior score.
    pub score: f64,
    /// Enforcement deltas accumulated since the last tick:
    /// `[policed windows, probe throttles, unsolicited drops]`.
    pub pending: [u64; 3],
    /// Consecutive ticks spent at or above the enter threshold while
    /// `Suspected`.
    pub suspect_ticks: u32,
    /// When the current quarantine started (ns).
    pub quarantined_at: Option<Time>,
    /// When the current probation started (ns).
    pub reinstated_at: Option<Time>,
    /// Total times the tenant entered `Quarantined`.
    pub quarantines: u32,
    /// Instant of the first quarantine entry (ns).
    pub first_quarantine_at: Option<Time>,
}

/// The misbehavior ledger: scores and quarantine bookkeeping for every
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

    /// Accumulate enforcement-counter deltas for tenant `i`.
    pub fn note(&mut self, i: usize, policed: u64, probes: u64, unsol: u64) {
        let p = &mut self.rows[i].pending;
        p[0] += policed;
        p[1] += probes;
        p[2] += unsol;
    }

    /// Drop tenant `i`'s pending deltas without integrating them
    /// (e.g. enforcement counted during teardown must not bias a later
    /// state).
    pub fn clear_pending(&mut self, i: usize) {
        self.rows[i].pending = [0; 3];
    }

    /// Decay-and-integrate one observation tick for tenant `i`,
    /// returning the updated score. Each abuse class contributes at
    /// most its weight per tick (the counters are window-rate signals,
    /// not byte counts), so one tick can raise the score by at most
    /// `W_POLICED + W_PROBE + W_UNSOL` — the bound the hysteresis
    /// thresholds are calibrated against.
    pub fn integrate(&mut self, i: usize) -> f64 {
        let row = &mut self.rows[i];
        let [policed, probes, unsol] = row.pending;
        row.pending = [0; 3];
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

    /// Times tenant `i` entered `Quarantined`.
    pub fn quarantines(&self, i: usize) -> u32 {
        self.rows[i].quarantines
    }

    /// When tenant `i`'s current quarantine started, while quarantined.
    pub fn quarantined_at(&self, i: usize) -> Option<Time> {
        self.rows[i].quarantined_at
    }

    /// When tenant `i`'s current probation started, while reinstated.
    pub fn reinstated_at(&self, i: usize) -> Option<Time> {
        self.rows[i].reinstated_at
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

    /// Record quarantine-entry bookkeeping for tenant `i` at `now`: the
    /// caller performs the state transition and capacity release; this
    /// updates the scorer's row.
    pub fn begin_quarantine(&mut self, i: usize, now: Time) {
        let row = &mut self.rows[i];
        row.quarantined_at = Some(now);
        row.reinstated_at = None;
        row.suspect_ticks = 0;
        row.quarantines += 1;
        if row.first_quarantine_at.is_none() {
            row.first_quarantine_at = Some(now);
        }
    }

    /// Record reinstatement bookkeeping for tenant `i` at `now`.
    pub fn begin_probation(&mut self, i: usize, now: Time) {
        let row = &mut self.rows[i];
        row.quarantined_at = None;
        row.reinstated_at = Some(now);
    }

    /// Probation served: clear the probation marker for tenant `i`.
    pub fn end_probation(&mut self, i: usize) {
        self.rows[i].reinstated_at = None;
    }

    /// Instant of tenant `i`'s first quarantine entry (ns).
    pub fn first_quarantine_at(&self, i: usize) -> Option<Time> {
        self.rows[i].first_quarantine_at
    }

    /// Snapshot one tenant's scorer state as raw words
    /// (`score_bits, suspect_ticks, quarantined_at+1, reinstated_at+1,
    /// quarantines, first_quarantine_at+1, pending×3`) for the fabricd
    /// snapshot; `+1` encodes `None` as 0. Including the pending deltas
    /// makes the dump lossless even mid observation tick.
    pub fn dump_row(&self, i: usize) -> [u64; 9] {
        let r = &self.rows[i];
        [
            r.score.to_bits(),
            r.suspect_ticks as u64,
            r.quarantined_at.map(|t| t + 1).unwrap_or(0),
            r.reinstated_at.map(|t| t + 1).unwrap_or(0),
            r.quarantines as u64,
            r.first_quarantine_at.map(|t| t + 1).unwrap_or(0),
            r.pending[0],
            r.pending[1],
            r.pending[2],
        ]
    }

    /// Restore one tenant's scorer state captured by
    /// [`MisbehaviorLedger::dump_row`].
    pub fn restore_row(&mut self, i: usize, w: [u64; 9]) {
        let r = &mut self.rows[i];
        r.score = f64::from_bits(w[0]);
        r.suspect_ticks = w[1] as u32;
        r.quarantined_at = (w[2] > 0).then(|| w[2] - 1);
        r.reinstated_at = (w[3] > 0).then(|| w[3] - 1);
        r.quarantines = w[4] as u32;
        r.first_quarantine_at = (w[5] > 0).then(|| w[5] - 1);
        r.pending = [w[6], w[7], w[8]];
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
            if tick % 2 == 0 {
                l.note(0, 1, 0, 0);
            }
            peak = peak.max(l.integrate(0));
        }
        // Geometric steady state: 1/(1 − d²) = 4/3 < enter (1.5).
        assert!(peak < ENTER_SCORE, "peak {peak}");
    }

    #[test]
    fn sustained_abuse_converges_above_enter_threshold() {
        let mut l = MisbehaviorLedger::new(1);
        for _ in 0..32 {
            l.note(0, 1, 0, 0);
            l.integrate(0);
        }
        // Steady state 1/(1 − d) = 2 ≥ enter (1.5).
        assert!(l.score(0) >= ENTER_SCORE);
        // And decays back below exit once the abuse stops.
        for _ in 0..8 {
            l.integrate(0);
        }
        assert!(l.score(0) <= EXIT_SCORE);
    }

    #[test]
    fn class_contributions_are_bounded_per_tick() {
        let mut l = MisbehaviorLedger::new(1);
        // A flood of 10⁶ events in one tick scores exactly like one.
        l.note(0, 1_000_000, 1_000_000, 1_000_000);
        let s = l.integrate(0);
        assert_eq!(s, 3.0);
    }

    #[test]
    fn dump_restore_round_trips() {
        let mut l = MisbehaviorLedger::new(2);
        l.note(1, 1, 1, 0);
        l.integrate(1);
        l.rows[1].suspect_ticks = 3;
        l.rows[1].quarantined_at = Some(0); // t = 0 must survive
        l.rows[1].quarantines = 2;
        l.rows[1].first_quarantine_at = Some(777);
        l.note(1, 4, 0, 5); // un-integrated deltas must survive too
        let w = l.dump_row(1);
        let mut m = MisbehaviorLedger::new(2);
        m.restore_row(1, w);
        assert_eq!(m.score(1).to_bits(), l.score(1).to_bits());
        assert_eq!(m.rows[1].suspect_ticks, 3);
        assert_eq!(m.rows[1].quarantined_at, Some(0));
        assert_eq!(m.quarantines(1), 2);
        assert_eq!(m.first_quarantine_at(1), Some(777));
        assert_eq!(m.rows[1].reinstated_at, None);
        assert_eq!(m.rows[1].pending, [4, 0, 5]);
    }

    #[test]
    fn ensure_rows_grows_but_never_shrinks() {
        let mut l = MisbehaviorLedger::new(1);
        l.note(0, 1, 0, 0);
        l.integrate(0);
        let s = l.score(0);
        l.ensure_rows(3);
        assert_eq!(l.len(), 3);
        assert_eq!(l.score(0), s, "existing rows untouched");
        assert_eq!(l.score(2), 0.0, "new rows start clean");
        l.ensure_rows(2);
        assert_eq!(l.len(), 3, "shrinking is a no-op");
    }
}
