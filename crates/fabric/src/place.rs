//! VM placement over hosts, gated by the capacity ledger.
//!
//! Placement is all-or-nothing per tenant: either every requested VM
//! gets a host slot whose ledger commitment is admissible, or nothing
//! is committed and the tenant is rejected with a reason. Within one
//! tenant the placer enforces anti-affinity — at most one VM per host —
//! so a tenant's ring pairs always cross the fabric and exercise the
//! qualification machinery.
//!
//! A host's committed hose is an integer bps sum, like the ledger's
//! totals, so the placer's state too is a function of the live
//! placements alone: re-placing the live tenants on their hosts with
//! [`Placer::place_fixed`] gives an equal placer in any order.

use crate::ledger::Ledger;
use netsim::NodeId;

/// Placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Scan hosts in id order, take the first that fits.
    FirstFit,
    /// Take the host with the least committed hose bandwidth
    /// (ties: fewest VMs, then lowest id).
    LoadSpread,
}

impl Policy {
    /// Short label for tables and logs.
    pub fn label(self) -> &'static str {
        match self {
            Policy::FirstFit => "first_fit",
            Policy::LoadSpread => "load_spread",
        }
    }
}

/// Why a placement request was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// Every host is at its VM-slot cap (or anti-affinity exhausted hosts).
    NoSlots,
    /// Slots exist but some VM's hose does not fit under η·cap.
    NoCapacity,
}

impl RejectReason {
    /// Short label for tables and logs.
    pub fn label(self) -> &'static str {
        match self {
            RejectReason::NoSlots => "no_slots",
            RejectReason::NoCapacity => "no_capacity",
        }
    }
}

/// The placement engine: per-host slot occupancy plus committed hose
/// tallies, always consulted together with the [`Ledger`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placer {
    hosts: Vec<NodeId>,
    policy: Policy,
    max_vms_per_host: usize,
    /// VM count per host (indexed like `hosts`).
    vms: Vec<usize>,
    /// Committed hose bps per host (indexed like `hosts`).
    hose: Vec<u64>,
    /// Cordoned hosts take no new placements (existing VMs stay until
    /// drained); indexed like `hosts`.
    cordoned: Vec<bool>,
    /// Node id → index into `hosts`; `u32::MAX` (out of bounds) for a switch.
    host_idx: Vec<u32>,
}

impl Placer {
    /// A placer over `hosts` with the given policy and per-host slot cap.
    pub fn new(hosts: &[NodeId], policy: Policy, max_vms_per_host: usize) -> Self {
        assert!(max_vms_per_host >= 1, "need at least one VM slot per host");
        let mut host_idx = vec![u32::MAX; hosts.iter().map(|h| h.idx() + 1).max().unwrap_or(0)];
        for (i, h) in hosts.iter().enumerate() {
            host_idx[h.idx()] = i as u32;
        }
        Self {
            hosts: hosts.to_vec(),
            policy,
            max_vms_per_host,
            vms: vec![0; hosts.len()],
            hose: vec![0; hosts.len()],
            cordoned: vec![false; hosts.len()],
            host_idx,
        }
    }

    /// Total VMs currently placed.
    #[cfg(test)]
    fn total_vms(&self) -> usize {
        self.vms.iter().sum()
    }

    /// `host`'s index into the per-host tables, if it is a placer host.
    fn slot(&self, host: NodeId) -> Option<usize> {
        let i = *self.host_idx.get(host.idx())?;
        (i != u32::MAX).then_some(i as usize)
    }

    /// VMs currently on `host`.
    pub fn vms_on(&self, host: NodeId) -> usize {
        self.vms[self.host_idx[host.idx()] as usize]
    }

    /// Committed hose bps currently on `host`.
    #[cfg(test)]
    fn hose_on(&self, host: NodeId) -> u64 {
        self.hose[self.host_idx[host.idx()] as usize]
    }

    /// Mark `host` cordoned (`true`): it takes no new placements until
    /// uncordoned. Existing VMs are untouched — draining them is the
    /// manager's job.
    ///
    /// # Panics
    /// Panics if `host` is unknown to the placer.
    pub fn set_cordoned(&mut self, host: NodeId, cordoned: bool) {
        let i = self
            .slot(host)
            .unwrap_or_else(|| panic!("cordon target {host} is not a placer host"));
        self.cordoned[i] = cordoned;
    }

    /// Is `host` cordoned?
    pub fn is_cordoned(&self, host: NodeId) -> bool {
        self.cordoned[self.host_idx[host.idx()] as usize]
    }

    fn pick(&self, ledger: &Ledger, hose_bps: u64, used: &[NodeId]) -> Result<usize, RejectReason> {
        let mut best: Option<usize> = None;
        let mut saw_slot = false;
        for i in 0..self.hosts.len() {
            if self.vms[i] >= self.max_vms_per_host
                || self.cordoned[i]
                || used.contains(&self.hosts[i])
            {
                continue;
            }
            saw_slot = true;
            if !ledger.admissible(self.hosts[i], hose_bps) {
                continue;
            }
            match self.policy {
                Policy::FirstFit => return Ok(i),
                Policy::LoadSpread => {
                    let better = match best {
                        None => true,
                        Some(b) => (self.hose[i], self.vms[i], i) < (self.hose[b], self.vms[b], b),
                    };
                    if better {
                        best = Some(i);
                    }
                }
            }
        }
        best.ok_or(if saw_slot {
            RejectReason::NoCapacity
        } else {
            RejectReason::NoSlots
        })
    }

    /// Place `n_vms` VMs of `hose_bps` each, committing the ledger for
    /// every VM, or roll everything back and return the reason.
    pub fn place(
        &mut self,
        ledger: &mut Ledger,
        n_vms: usize,
        hose_bps: u64,
    ) -> Result<Vec<NodeId>, RejectReason> {
        // Anti-affinity caps a tenant at one VM per host.
        let mut placed: Vec<NodeId> = Vec::with_capacity(n_vms.min(self.hosts.len()));
        for _ in 0..n_vms {
            match self.pick(ledger, hose_bps, &placed) {
                Ok(i) => {
                    let h = self.hosts[i];
                    ledger.commit(h, hose_bps);
                    self.vms[i] += 1;
                    self.hose[i] += hose_bps;
                    placed.push(h);
                }
                Err(reason) => {
                    // All-or-nothing: unwind the partial placement.
                    for &h in &placed {
                        let j = self.host_idx[h.idx()] as usize;
                        ledger.release(h, hose_bps);
                        self.vms[j] -= 1;
                        self.hose[j] -= hose_bps;
                    }
                    return Err(reason);
                }
            }
        }
        Ok(placed)
    }

    /// Place a tenant on hosts decided earlier — by [`crate::plan`], or
    /// the hosts a tenant record holds — without re-running policy.
    /// Each VM is admission-checked: a host that is unknown, at its slot
    /// cap, or whose hose no longer fits a link is an `Err` naming it,
    /// with the VMs before it released again, so placer and ledger are
    /// as they were.
    pub fn place_fixed(
        &mut self,
        ledger: &mut Ledger,
        hosts: &[NodeId],
        hose_bps: u64,
    ) -> Result<(), String> {
        for (k, &h) in hosts.iter().enumerate() {
            let fits = match self.slot(h) {
                None => Err(format!("host {h} is not a placer host")),
                Some(i) if self.vms[i] >= self.max_vms_per_host => {
                    let cap = self.max_vms_per_host;
                    Err(format!("host {h} exceeds the slot cap {cap}"))
                }
                Some(i) => match ledger.first_blocking_link(h, hose_bps) {
                    Some(l) => {
                        let link = l.describe();
                        Err(format!("hose {hose_bps} bps no longer fits on link {link}"))
                    }
                    None => Ok(i),
                },
            };
            let i = match fits {
                Ok(i) => i,
                Err(e) => {
                    self.release(ledger, &hosts[..k], hose_bps);
                    return Err(e);
                }
            };
            ledger.commit(h, hose_bps);
            self.vms[i] += 1;
            self.hose[i] += hose_bps;
        }
        Ok(())
    }

    /// Release a departed tenant's VMs.
    pub fn release(&mut self, ledger: &mut Ledger, hosts: &[NodeId], hose_bps: u64) {
        for &h in hosts {
            let i = self.host_idx[h.idx()] as usize;
            assert!(self.vms[i] > 0, "releasing VM on empty host {h}");
            ledger.release(h, hose_bps);
            self.vms[i] -= 1;
            self.hose[i] -= hose_bps;
        }
    }

    /// Place exactly one VM of `hose_bps`, avoiding the hosts in
    /// `avoid` (the tenant's surviving placements — anti-affinity) on
    /// top of the usual slot-cap and cordon filters. Commits the ledger
    /// on success. This is the drain-migration primitive: the caller
    /// releases the VM's old host separately and rolls back on failure.
    pub fn place_one_avoiding(
        &mut self,
        ledger: &mut Ledger,
        hose_bps: u64,
        avoid: &[NodeId],
    ) -> Result<NodeId, RejectReason> {
        let i = self.pick(ledger, hose_bps, avoid)?;
        let h = self.hosts[i];
        ledger.commit(h, hose_bps);
        self.vms[i] += 1;
        self.hose[i] += hose_bps;
        Ok(h)
    }

    /// Replace one VM's `old` hose on `host` with `new` without
    /// changing its VM count — the placer half of an in-place tenant
    /// resize (the ledger delta is committed/released by the caller,
    /// which owns the all-or-nothing check across the tenant's hosts).
    pub fn resize_hose(&mut self, host: NodeId, old: u64, new: u64) {
        let i = self.host_idx[host.idx()] as usize;
        self.hose[i] = self.hose[i] - old + new;
    }

    /// Is `host` one of the placer's hosts? One index lookup, no scan.
    pub fn has_host(&self, host: NodeId) -> bool {
        self.slot(host).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::builder::LinkSpec;
    use topology::{leaf_spine, Topo};

    /// 1 Gb/s.
    const G: u64 = 1_000_000_000;

    fn topo() -> Topo {
        // 2 leaves × 4 hosts, 10G everywhere.
        leaf_spine(
            2,
            2,
            4,
            LinkSpec::gbps(10, 1000),
            LinkSpec::gbps(10, 1000),
            1500,
        )
    }

    #[test]
    fn first_fit_packs_in_host_order_with_anti_affinity() {
        let t = topo();
        let mut ledger = Ledger::new(&t, 0.9);
        let mut p = Placer::new(&t.hosts, Policy::FirstFit, 4);
        let placed = p.place(&mut ledger, 3, G).unwrap();
        assert_eq!(placed, vec![t.hosts[0], t.hosts[1], t.hosts[2]]);
        // Second tenant starts over from host 0 — anti-affinity is
        // per-tenant, not global.
        let placed2 = p.place(&mut ledger, 2, G).unwrap();
        assert_eq!(placed2, vec![t.hosts[0], t.hosts[1]]);
        assert_eq!(p.total_vms(), 5);
    }

    #[test]
    fn load_spread_balances_vm_counts() {
        let t = topo();
        let mut ledger = Ledger::new(&t, 0.9);
        let mut p = Placer::new(&t.hosts, Policy::LoadSpread, 4);
        for _ in 0..4 {
            p.place(&mut ledger, 2, G).unwrap();
        }
        // 8 VMs over 8 hosts: exactly one each.
        for &h in &t.hosts {
            assert_eq!(p.vms_on(h), 1, "host {h}");
        }
    }

    #[test]
    fn rollback_on_partial_failure_is_clean() {
        let t = topo();
        let mut ledger = Ledger::new(&t, 0.9);
        let mut p = Placer::new(&t.hosts, Policy::FirstFit, 1);
        // 9 VMs > 8 hosts with anti-affinity → NoSlots, nothing committed.
        let err = p.place(&mut ledger, 9, G).unwrap_err();
        assert_eq!(err, RejectReason::NoSlots);
        assert_eq!(p.total_vms(), 0);
        assert!(ledger.utilization().abs() < 1e-12);
        // The fabric is untouched: a feasible tenant still fits.
        assert!(p.place(&mut ledger, 8, G).is_ok());
    }

    #[test]
    fn huge_vm_counts_are_refused_without_allocating_them() {
        let t = topo();
        let mut ledger = Ledger::new(&t, 0.9);
        let mut p = Placer::new(&t.hosts, Policy::FirstFit, 4);
        for n in [100_000_000_000_000_000, usize::MAX] {
            assert_eq!(p.place(&mut ledger, n, G / 10), Err(RejectReason::NoSlots));
            assert_eq!(p.total_vms(), 0);
        }
        assert!(ledger.utilization().abs() < 1e-12);
    }

    #[test]
    fn capacity_exhaustion_reports_no_capacity() {
        // Fat 40G uplinks so the host access links (10G × 0.9 = 9G
        // admissible) are the binding constraint.
        let t = leaf_spine(
            2,
            2,
            4,
            LinkSpec::gbps(10, 1000),
            LinkSpec::gbps(40, 1000),
            1500,
        );
        let mut ledger = Ledger::new(&t, 0.9);
        let mut p = Placer::new(&t.hosts, Policy::FirstFit, 8);
        for _ in 0..8 {
            p.place(&mut ledger, 1, 85 * G / 10).unwrap();
        }
        let err = p.place(&mut ledger, 1, 85 * G / 10).unwrap_err();
        assert_eq!(err, RejectReason::NoCapacity);
    }

    #[test]
    fn release_makes_room_again() {
        let t = topo();
        let mut ledger = Ledger::new(&t, 0.9);
        let mut p = Placer::new(&t.hosts, Policy::FirstFit, 1);
        let a = p.place(&mut ledger, 8, G).unwrap();
        assert!(p.place(&mut ledger, 1, G).is_err());
        p.release(&mut ledger, &a, G);
        assert_eq!(p.total_vms(), 0);
        assert!(p.place(&mut ledger, 8, G).is_ok());
    }

    #[test]
    fn cordoned_hosts_take_no_new_placements() {
        let t = topo();
        let mut ledger = Ledger::new(&t, 0.9);
        let mut p = Placer::new(&t.hosts, Policy::FirstFit, 4);
        p.set_cordoned(t.hosts[0], true);
        assert!(p.is_cordoned(t.hosts[0]));
        let placed = p.place(&mut ledger, 2, G).unwrap();
        assert_eq!(placed, vec![t.hosts[1], t.hosts[2]]);
        p.set_cordoned(t.hosts[0], false);
        let placed2 = p.place(&mut ledger, 1, G).unwrap();
        assert_eq!(placed2, vec![t.hosts[0]]);
    }

    #[test]
    fn place_one_avoiding_respects_avoid_list_and_cordon() {
        let t = topo();
        let mut ledger = Ledger::new(&t, 0.9);
        let mut p = Placer::new(&t.hosts, Policy::FirstFit, 4);
        p.set_cordoned(t.hosts[1], true);
        let h = p.place_one_avoiding(&mut ledger, G, &[t.hosts[0]]).unwrap();
        // Host 0 avoided, host 1 cordoned → host 2.
        assert_eq!(h, t.hosts[2]);
        assert_eq!(p.vms_on(t.hosts[2]), 1);
        assert!(ledger.conservation().is_ok());
        // Avoiding everything reports NoSlots and commits nothing.
        let all: Vec<_> = t.hosts.clone();
        let err = p.place_one_avoiding(&mut ledger, G, &all).unwrap_err();
        assert_eq!(err, RejectReason::NoSlots);
        assert_eq!(p.total_vms(), 1);
    }

    #[test]
    fn resize_hose_moves_tallies_without_vm_counts() {
        let t = topo();
        let mut ledger = Ledger::new(&t, 0.9);
        let mut p = Placer::new(&t.hosts, Policy::LoadSpread, 4);
        p.place(&mut ledger, 1, 2 * G).unwrap();
        let h = t.hosts[0];
        assert_eq!(p.hose_on(h), 2 * G);
        p.resize_hose(h, 2 * G, 3 * G);
        assert_eq!(p.hose_on(h), 3 * G);
        assert_eq!(p.vms_on(h), 1);
        p.resize_hose(h, 3 * G, 0);
        assert_eq!(p.hose_on(h), 0);
    }

    #[test]
    fn fixed_placement_of_the_live_tenants_rebuilds_the_placer_exactly() {
        let t = topo();
        let mut ledger = Ledger::new(&t, 0.9);
        let mut p = Placer::new(&t.hosts, Policy::LoadSpread, 4);
        let a = p.place(&mut ledger, 3, 15 * G / 10 + 1).unwrap();
        let b = p.place(&mut ledger, 2, 7 * G / 10 + 3).unwrap();
        let c = p.place(&mut ledger, 4, G / 3).unwrap();
        p.release(&mut ledger, &b, 7 * G / 10 + 3);
        // Only `a` and `c` are live: replaying them, `c` first, gives
        // the same placer and ledger.
        let mut ledger2 = Ledger::new(&t, 0.9);
        let mut q = Placer::new(&t.hosts, Policy::LoadSpread, 4);
        q.place_fixed(&mut ledger2, &c, G / 3).unwrap();
        q.place_fixed(&mut ledger2, &a, 15 * G / 10 + 1).unwrap();
        assert_eq!(q, p);
        assert_eq!(ledger2, ledger);
        // What does not fit is an `Err` naming why, never a panic.
        let mut r = Placer::new(&t.hosts, Policy::LoadSpread, 1);
        let mut ledger3 = Ledger::new(&t, 0.9);
        let e = r.place_fixed(&mut ledger3, &a, 10 * G).unwrap_err();
        assert!(e.contains("no longer fits on link"), "{e}");
        r.place_fixed(&mut ledger3, &a[..1], G).unwrap();
        let e = r.place_fixed(&mut ledger3, &a[..1], G).unwrap_err();
        assert!(e.contains("exceeds the slot cap 1"), "{e}");
        let e = r.place_fixed(&mut ledger3, &[t.tors[0]], G).unwrap_err();
        assert!(e.contains("not a placer host"), "{e}");
        // A VM that does not fit unwinds the ones placed before it.
        let (before, ledger_before) = (r.clone(), ledger3.clone());
        let e = r.place_fixed(&mut ledger3, &[a[1], a[0]], G).unwrap_err();
        assert!(e.contains("exceeds the slot cap 1"), "{e}");
        assert_eq!(r, before);
        assert_eq!(ledger3, ledger_before);
    }

    #[test]
    fn place_fixed_replays_exactly() {
        let t = topo();
        let mut ledger = Ledger::new(&t, 0.9);
        let mut p = Placer::new(&t.hosts, Policy::LoadSpread, 4);
        let hosts = vec![t.hosts[3], t.hosts[5]];
        p.place_fixed(&mut ledger, &hosts, 2 * G).unwrap();
        assert_eq!(p.vms_on(t.hosts[3]), 1);
        assert_eq!(p.vms_on(t.hosts[5]), 1);
        assert!(ledger.conservation().is_ok());
    }
}
