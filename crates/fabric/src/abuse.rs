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
//! `Suspected` needs the score above [`AbuseCfg::enter_score`], leaving
//! it needs decay below the *lower* [`AbuseCfg::exit_score`], and
//! `Quarantined` additionally requires the score to stay above the
//! enter threshold for [`AbuseCfg::sustain_ticks`] consecutive
//! observation ticks. A bursty-but-honest tenant that trips the policer
//! in isolated windows oscillates below the enter threshold and never
//! leaves `Guaranteed`; only *sustained* abuse walks the whole ladder.

use netsim::Time;

/// Configuration of the misbehavior scorer and quarantine machine.
#[derive(Debug, Clone, Copy)]
pub struct AbuseCfg {
    /// Score weight of a policed (token-bucket) window.
    pub w_policed: f64,
    /// Score weight of a probe-throttle window.
    pub w_probe: f64,
    /// Score weight of an unsolicited-traffic drop window.
    pub w_unsol: f64,
    /// Multiplicative score decay applied every observation tick.
    pub decay: f64,
    /// Score at or above which `Guaranteed → Suspected` fires.
    pub enter_score: f64,
    /// Score at or below which `Suspected → Guaranteed` fires (must be
    /// `< enter_score`: the hysteresis band).
    pub exit_score: f64,
    /// Consecutive suspect ticks with the score at or above
    /// `enter_score` before `Suspected → Quarantined`.
    pub sustain_ticks: u32,
    /// Rate clamp applied at the edge while quarantined, as a fraction
    /// of the (released) hose guarantee.
    pub penalty_fraction: f64,
    /// Minimum residency in `Quarantined` before reinstatement (ns).
    pub quarantine_hold: Time,
    /// Probation length in `Reinstated` before full `Guaranteed` (ns).
    pub probation: Time,
}

impl Default for AbuseCfg {
    fn default() -> Self {
        Self {
            w_policed: 1.0,
            w_probe: 1.0,
            w_unsol: 1.0,
            decay: 0.5,
            enter_score: 1.5,
            exit_score: 0.5,
            sustain_ticks: 8,
            penalty_fraction: 0.1,
            quarantine_hold: 5 * netsim::MS,
            probation: 5 * netsim::MS,
        }
    }
}

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
    cfg: AbuseCfg,
    rows: Vec<MisRow>,
}

impl MisbehaviorLedger {
    /// A ledger over `n_tenants` with the given thresholds; panics where
    /// [`MisbehaviorLedger::try_new`] returns `Err`.
    pub fn new(cfg: AbuseCfg, n_tenants: usize) -> Self {
        Self::try_new(cfg, n_tenants).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`MisbehaviorLedger::new`] for thresholds read from outside input
    /// (a snapshot): an out-of-range one is an `Err` naming it.
    pub fn try_new(cfg: AbuseCfg, n_tenants: usize) -> Result<Self, &'static str> {
        if cfg.exit_score.partial_cmp(&cfg.enter_score) != Some(std::cmp::Ordering::Less) {
            return Err("hysteresis needs exit_score < enter_score");
        }
        if !(0.0..1.0).contains(&cfg.decay) {
            return Err("decay must be in [0, 1)");
        }
        if !(cfg.penalty_fraction > 0.0 && cfg.penalty_fraction < 1.0) {
            return Err("penalty fraction must be in (0, 1)");
        }
        Ok(Self {
            cfg,
            rows: vec![MisRow::default(); n_tenants],
        })
    }

    /// The configured thresholds.
    pub fn cfg(&self) -> &AbuseCfg {
        &self.cfg
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
    /// `w_policed + w_probe + w_unsol` — the bound the hysteresis
    /// thresholds are calibrated against.
    pub fn integrate(&mut self, i: usize) -> f64 {
        let cfg = self.cfg;
        let row = &mut self.rows[i];
        let [policed, probes, unsol] = row.pending;
        row.pending = [0; 3];
        let inc = cfg.w_policed * (policed > 0) as u64 as f64
            + cfg.w_probe * (probes > 0) as u64 as f64
            + cfg.w_unsol * (unsol > 0) as u64 as f64;
        row.score = row.score * cfg.decay + inc;
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
        let mut l = MisbehaviorLedger::new(AbuseCfg::default(), 1);
        let mut peak: f64 = 0.0;
        for tick in 0..64 {
            if tick % 2 == 0 {
                l.note(0, 1, 0, 0);
            }
            peak = peak.max(l.integrate(0));
        }
        // Geometric steady state: 1/(1 − d²) = 4/3 < enter (1.5).
        assert!(peak < l.cfg().enter_score, "peak {peak}");
    }

    #[test]
    fn sustained_abuse_converges_above_enter_threshold() {
        let mut l = MisbehaviorLedger::new(AbuseCfg::default(), 1);
        for _ in 0..32 {
            l.note(0, 1, 0, 0);
            l.integrate(0);
        }
        // Steady state 1/(1 − d) = 2 ≥ enter (1.5).
        assert!(l.score(0) >= l.cfg().enter_score);
        // And decays back below exit once the abuse stops.
        for _ in 0..8 {
            l.integrate(0);
        }
        assert!(l.score(0) <= l.cfg().exit_score);
    }

    #[test]
    fn class_contributions_are_bounded_per_tick() {
        let mut l = MisbehaviorLedger::new(AbuseCfg::default(), 1);
        // A flood of 10⁶ events in one tick scores exactly like one.
        l.note(0, 1_000_000, 1_000_000, 1_000_000);
        let s = l.integrate(0);
        assert_eq!(s, 3.0);
    }

    #[test]
    fn dump_restore_round_trips() {
        let mut l = MisbehaviorLedger::new(AbuseCfg::default(), 2);
        l.note(1, 1, 1, 0);
        l.integrate(1);
        l.rows[1].suspect_ticks = 3;
        l.rows[1].quarantined_at = Some(0); // t = 0 must survive
        l.rows[1].quarantines = 2;
        l.rows[1].first_quarantine_at = Some(777);
        l.note(1, 4, 0, 5); // un-integrated deltas must survive too
        let w = l.dump_row(1);
        let mut m = MisbehaviorLedger::new(AbuseCfg::default(), 2);
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
        let mut l = MisbehaviorLedger::new(AbuseCfg::default(), 1);
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
