//! Online invariant framework.
//!
//! Checkers are generic over a context type `Ctx` (the simulator in
//! practice) so this crate never depends on simulator types; concrete
//! checkers live next to the state they inspect and are registered
//! with an [`InvariantSuite`] driven from the harness event loop.

use crate::event::{Category, Event};
use crate::recorder::{ObsHandle, Recorded};

/// One online invariant over context `Ctx`.
pub trait Invariant<Ctx> {
    /// Stable checker name (shows up in reports and recorder events).
    fn name(&self) -> &'static str;

    /// Evaluate against `ctx` at simulated time `t_ns`. `Ok(())` means
    /// the invariant holds; `Err(detail)` describes the violation with
    /// enough context to debug it (expected vs. actual values).
    fn check(&mut self, ctx: &Ctx, t_ns: u64) -> Result<(), String>;
}

/// A context that can serialize its full state and validate a restore.
/// Implemented by stateful services (the fabric control plane) so the
/// generic [`SnapshotRoundTrip`] invariant can exercise their
/// snapshot path online without this crate depending on them.
pub trait Snapshottable {
    /// Serialize the complete state to a self-describing string.
    fn snapshot(&self) -> String;

    /// Verify that restoring `snap` reproduces this exact state
    /// (typically: restore into a fresh instance, re-snapshot, compare
    /// byte-for-byte, and run any domain audit). `Err` describes the
    /// first divergence.
    fn verify_restore(&self, snap: &str) -> Result<(), String>;
}

/// Online snapshot→restore round-trip check: every evaluation takes a
/// snapshot of the context and asserts that restoring it reproduces
/// the context byte-exactly.
pub struct SnapshotRoundTrip;

impl<Ctx: Snapshottable> Invariant<Ctx> for SnapshotRoundTrip {
    fn name(&self) -> &'static str {
        "snapshot_round_trip"
    }

    fn check(&mut self, ctx: &Ctx, _t_ns: u64) -> Result<(), String> {
        let snap = ctx.snapshot();
        ctx.verify_restore(&snap)
    }
}

/// A context-rich invariant failure report.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Checker that fired.
    pub invariant: &'static str,
    /// Simulated time of the failing evaluation.
    pub t_ns: u64,
    /// Checker-provided detail (expected vs. actual).
    pub detail: String,
    /// The newest flight-recorder events at the time of failure
    /// (empty when tracing is off).
    pub recent: Vec<Recorded>,
}

impl Violation {
    /// Multi-line human-readable report.
    pub(crate) fn report(&self) -> String {
        let mut s = format!(
            "INVARIANT VIOLATION [{}] at t={} ns\n  {}\n",
            self.invariant, self.t_ns, self.detail
        );
        if self.recent.is_empty() {
            s.push_str("  (no flight-recorder context; run with tracing enabled)\n");
        } else {
            s.push_str(&format!("  last {} recorder events:\n", self.recent.len()));
            for r in &self.recent {
                s.push_str(&format!("    {}\n", r.to_json()));
            }
        }
        s
    }
}

/// A timer-driven set of invariant checkers plus accumulated
/// violations.
pub struct InvariantSuite<Ctx> {
    checks: Vec<Box<dyn Invariant<Ctx>>>,
    violations: Vec<Violation>,
    period_ns: u64,
    next_due: u64,
    evaluations: u64,
    /// Recorder events captured per violation.
    pub tail: usize,
}

impl<Ctx> InvariantSuite<Ctx> {
    /// A suite evaluated every `period_ns` of simulated time.
    pub fn new(period_ns: u64) -> Self {
        Self {
            checks: Vec::new(),
            violations: Vec::new(),
            period_ns: period_ns.max(1),
            next_due: 0,
            evaluations: 0,
            tail: 32,
        }
    }

    /// Register a checker.
    pub fn register(&mut self, inv: Box<dyn Invariant<Ctx>>) {
        self.checks.push(inv);
    }

    /// Total timer evaluations performed.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Should the suite run at simulated time `now`?
    pub fn due(&self, now: u64) -> bool {
        !self.checks.is_empty() && now >= self.next_due
    }

    /// Evaluate every checker against `ctx`, recording verdicts into
    /// `obs` and capturing recorder context for failures. Returns the
    /// number of new violations.
    pub fn run(&mut self, ctx: &Ctx, now: u64, obs: &ObsHandle) -> usize {
        self.evaluations += 1;
        self.next_due = now + self.period_ns;
        let mut new = 0;
        for c in &mut self.checks {
            let verdict = c.check(ctx, now);
            let name = c.name();
            let ok = verdict.is_ok();
            obs.rec(Category::Invariant, now, || Event::Invariant { name, ok });
            if let Err(detail) = verdict {
                self.violations.push(Violation {
                    invariant: name,
                    t_ns: now,
                    detail,
                    recent: obs.last(self.tail),
                });
                new += 1;
            }
        }
        new
    }

    /// All accumulated violations.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Concatenated reports for every violation (empty string when
    /// clean).
    pub fn report(&self) -> String {
        self.violations.iter().map(|v| v.report()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Threshold {
        limit: i64,
    }

    impl Invariant<i64> for Threshold {
        fn name(&self) -> &'static str {
            "threshold"
        }
        fn check(&mut self, ctx: &i64, _t: u64) -> Result<(), String> {
            if *ctx <= self.limit {
                Ok(())
            } else {
                Err(format!("value {ctx} exceeds limit {}", self.limit))
            }
        }
    }

    #[test]
    fn timer_gating_and_violation_capture() {
        let mut suite: InvariantSuite<i64> = InvariantSuite::new(100);
        assert!(!suite.due(0), "empty suite is never due");
        suite.register(Box::new(Threshold { limit: 10 }));
        assert!(suite.due(0));

        let obs = ObsHandle::recording(16);
        obs.rec(Category::Custom, 1, || Event::Custom {
            label: "pre",
            a: 1,
            b: 2,
        });

        assert_eq!(suite.run(&5, 0, &obs), 0);
        assert!(!suite.due(50), "not due again until period elapses");
        assert!(suite.due(100));

        assert_eq!(suite.run(&42, 100, &obs), 1);
        let v = &suite.violations()[0];
        assert_eq!(v.invariant, "threshold");
        assert_eq!(v.t_ns, 100);
        assert!(v.detail.contains("42"));
        // Context window includes the pre-existing event and the pass
        // verdict from the first run.
        assert!(v
            .recent
            .iter()
            .any(|r| matches!(r.ev, Event::Custom { label: "pre", .. })));
        assert!(suite.report().contains("INVARIANT VIOLATION [threshold]"));
        assert_eq!(suite.evaluations(), 2);
    }

    #[test]
    fn verdicts_recorded_even_when_passing() {
        let mut suite: InvariantSuite<i64> = InvariantSuite::new(10);
        suite.register(Box::new(Threshold { limit: 100 }));
        let obs = ObsHandle::recording(8);
        suite.run(&1, 0, &obs);
        let evs = obs.last(8);
        assert!(evs
            .iter()
            .any(|r| matches!(r.ev, Event::Invariant { ok: true, .. })));
    }
}
