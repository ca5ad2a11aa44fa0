//! Online invariants over the tenant lifecycle.
//!
//! Both implement [`obs::Invariant`] with the [`FabricService`] as
//! context, so a scenario drives them from an
//! [`obs::InvariantSuite<FabricService>`] alongside the simulator-level
//! suite.

use crate::service::FabricService;
use netsim::Time;
use obs::Invariant;

/// Σ committed B_min per link ≤ η·cap, and the live ledger matches a
/// rebuild from tenant states — the ledger never leaks or overbooks.
#[derive(Debug, Default)]
pub struct LedgerConservation;

impl Invariant<FabricService> for LedgerConservation {
    fn name(&self) -> &'static str {
        "fabric_ledger_conservation"
    }

    fn check(&mut self, svc: &FabricService, _t_ns: u64) -> Result<(), String> {
        svc.audit()
    }
}

/// No tenant sits in `Qualifying` longer than the stagger bound —
/// qualification must converge (or chaos recovery re-qualify) within
/// bounded time.
#[derive(Debug)]
pub struct QualifyingStagger {
    bound_ns: Time,
}

impl QualifyingStagger {
    /// Flag tenants qualifying for longer than `bound_ns`.
    pub fn new(bound_ns: Time) -> Self {
        Self { bound_ns }
    }
}

impl Invariant<FabricService> for QualifyingStagger {
    fn name(&self) -> &'static str {
        "fabric_qualifying_stagger"
    }

    fn check(&mut self, svc: &FabricService, t_ns: u64) -> Result<(), String> {
        let stuck: Vec<String> = svc
            .qualifying()
            .into_iter()
            .filter(|&(_, since)| t_ns.saturating_sub(since) > self.bound_ns)
            .map(|(id, since)| {
                format!(
                    "{} ({} µs)",
                    svc.tenants()[id as usize].name,
                    (t_ns - since) / 1_000
                )
            })
            .collect();
        if stuck.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "tenants stuck in Qualifying > {} µs: {}",
                self.bound_ns / 1_000,
                stuck.join(", ")
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::FabricOp;
    use fabric::AdmissionCfg;
    use netsim::builder::LinkSpec;
    use netsim::{MS, US};
    use std::sync::Arc;
    use topology::leaf_spine;

    /// One 2-VM tenant "a" admitted at t = 0 with a 10 ms lifetime.
    fn setup() -> FabricService {
        let t = leaf_spine(
            2,
            2,
            2,
            LinkSpec::gbps(10, 1000),
            LinkSpec::gbps(10, 1000),
            1500,
        );
        let mut s = FabricService::new(Arc::new(t), AdmissionCfg::default());
        s.submit(
            0,
            FabricOp::Admit {
                name: "a".into(),
                n_vms: 2,
                tokens_per_vm: 2.0,
                lifetime: 10 * MS,
            },
        );
        s
    }

    #[test]
    fn conservation_holds_through_lifecycle() {
        let mut s = setup();
        let mut inv = LedgerConservation;
        assert!(inv.check(&s, 0).is_ok());
        s.advance(0);
        assert!(inv.check(&s, 0).is_ok());
        s.advance(20 * MS);
        assert!(inv.check(&s, 20 * MS).is_ok());
    }

    #[test]
    fn stagger_flags_stuck_tenants() {
        let mut s = setup();
        s.advance(0);
        let mut inv = QualifyingStagger::new(5 * MS);
        assert!(inv.check(&s, 4 * MS).is_ok());
        let err = inv.check(&s, 6 * MS).unwrap_err();
        assert!(err.contains("a ("), "{err}");
        s.note_qualified(0, 6 * MS + US);
        assert!(inv.check(&s, 9 * MS).is_ok());
    }
}
