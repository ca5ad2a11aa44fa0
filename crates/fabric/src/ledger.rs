//! The hose-model capacity ledger.
//!
//! The manager's admission decision is a per-link accounting question:
//! how much guaranteed bandwidth (hose B_min = tokens × B_u per VM) is
//! already committed on every link a new VM's traffic can touch, and
//! does the new hose still fit under the provisioning headroom η?
//!
//! A VM's hose is committed *fractionally* along the tiered up-walk
//! from its host, matching how ECMP spreads the hose in expectation:
//!
//! * the access link carries the full hose (fraction 1);
//! * each of the k ToR uplinks carries hose/k;
//! * each of the m core uplinks of an agg reached via a ToR uplink
//!   carries (1/k)·(1/m) of the hose.
//!
//! Summed over a tier, the fractions total 1.0 — the ledger never loses
//! or double-counts capacity (see [`Ledger::conservation`]). On graphs
//! without tier tags only the access link is accounted, which is the
//! conservative edge-only hose model.

use netsim::{NodeId, PortNo};
use std::collections::BTreeSet;
use topology::Topo;

/// Node-tier codes used for the up-walk.
const T_HOST: u8 = 0;
const T_TOR: u8 = 1;
const T_AGG: u8 = 2;
const T_CORE: u8 = 3;
const T_OTHER: u8 = 4;

/// One undirected link with its running committed-B_min total.
#[derive(Debug, Clone, Copy)]
pub struct Link {
    /// Canonical endpoint (the lower node id).
    pub node: NodeId,
    /// Egress port at the canonical endpoint.
    pub port: PortNo,
    /// The other endpoint.
    pub peer: NodeId,
    /// Link capacity in bits/sec.
    pub cap_bps: f64,
    /// Guaranteed bandwidth currently committed on this link (bits/sec).
    pub committed_bps: f64,
    /// Whether one endpoint is a host (the access tier).
    pub access: bool,
}

impl Link {
    /// Admissible committed ceiling under headroom `eta`.
    fn limit(&self, eta: f64) -> f64 {
        eta * self.cap_bps
    }

    /// `node:port (node ↔ peer)` — the canonical way a ledger link is
    /// named in error strings, so a churn-scale failure localizes to one
    /// physical link instead of an anonymous "a touched link".
    pub fn describe(&self) -> String {
        format!(
            "{}:{} ({} ↔ {})",
            self.node, self.port, self.node, self.peer
        )
    }
}

/// Per-link committed-B_min accounting with an admissibility check.
#[derive(Debug, Clone)]
pub struct Ledger {
    links: Vec<Link>,
    /// Every host's `(link, fraction)` spread, back to back in host order.
    spread: Vec<(usize, f64)>,
    /// Node id → `(start, end)` of its spread, `(u32::MAX, 0)` if not a host.
    span: Vec<(u32, u32)>,
    headroom: f64,
}

impl Ledger {
    /// Build an empty ledger over `topo` with provisioning headroom
    /// `headroom` (η): a link admits new hose while committed ≤ η·cap.
    ///
    /// # Panics
    /// Panics unless `0 < headroom ≤ 1`.
    pub fn new(topo: &Topo, headroom: f64) -> Self {
        Self::new_excluding(topo, headroom, &BTreeSet::new())
    }

    /// Like [`Ledger::new`], but the fractional up-walk skips any
    /// aggregation/core switch whose raw node id is in `cordoned`,
    /// renormalizing the remaining fractions so each tier still sums to
    /// 1.0 — the spread-table rebuild behind an agg/core cordon.
    /// Cordoning a host or ToR does not change the spread (their links
    /// are only used by their own placements, which a drain migrates
    /// away); cordoning an agg or core moves its share of every hose
    /// onto the surviving uplinks. All links stay enumerated (a cordoned
    /// switch's links simply carry no fresh commitment).
    ///
    /// # Panics
    /// Panics unless `0 < headroom ≤ 1`.
    pub fn new_excluding(topo: &Topo, headroom: f64, cordoned: &BTreeSet<u32>) -> Self {
        assert!(
            headroom > 0.0 && headroom <= 1.0,
            "ledger headroom must be in (0, 1], got {headroom}"
        );
        let mut tier = vec![T_OTHER; topo.n_nodes()];
        let tiers = [
            (&topo.hosts, T_HOST),
            (&topo.tors, T_TOR),
            (&topo.aggs, T_AGG),
            (&topo.cores, T_CORE),
        ];
        for (ids, t) in tiers {
            for &n in ids {
                tier[n.idx()] = t;
            }
        }

        // Enumerate undirected links once, in node-id order (the ledger
        // must be identical however the topology was assembled).
        // `link_at[port_base[n] + port]` is the link behind `(n, port)`,
        // for both directions of every link (a node's ports number its
        // adjacency, `0..degree`).
        let mut port_base = vec![0];
        for n in 0..topo.n_nodes() {
            port_base.push(port_base[n] + topo.neighbors(NodeId(n as u32)).len());
        }
        let mut link_at = vec![usize::MAX; port_base[topo.n_nodes()]];
        let mut links = Vec::new();
        for n in 0..topo.n_nodes() {
            let node = NodeId(n as u32);
            for a in topo.neighbors(node) {
                if a.peer.idx() < n {
                    continue; // recorded from the other side
                }
                link_at[port_base[n] + a.port.0 as usize] = links.len();
                link_at[port_base[a.peer.idx()] + a.peer_port.0 as usize] = links.len();
                links.push(Link {
                    node,
                    port: a.port,
                    peer: a.peer,
                    cap_bps: a.cap_bps as f64,
                    committed_bps: 0.0,
                    access: tier[n] == T_HOST || tier[a.peer.idx()] == T_HOST,
                });
            }
        }
        let link = |n: NodeId, p: PortNo| link_at[port_base[n.idx()] + p.0 as usize];

        // Each node's uplinks that take a share of a hose — a ToR's to
        // aggs and cores, an agg's to cores, none to a cordoned switch —
        // as `(link, far end)`: node `n`'s are `ups[up_at[n]..up_at[n + 1]]`.
        let (mut ups, mut up_at) = (Vec::new(), vec![0]);
        for n in 0..topo.n_nodes() {
            for a in topo.neighbors(NodeId(n as u32)) {
                let t = tier[a.peer.idx()];
                if t != T_OTHER && t > tier[n] && !cordoned.contains(&a.peer.raw()) {
                    ups.push((link(NodeId(n as u32), a.port), a.peer));
                }
            }
            up_at.push(ups.len());
        }
        let ups_of = |n: NodeId| &ups[up_at[n.idx()]..up_at[n.idx() + 1]];

        // Per-host fractional spread along the tiered up-walk, each
        // fraction computed exactly as `f0`, `f0 / k`, `(f0 / k) / m`.
        let mut spread = Vec::new();
        let mut span = vec![(u32::MAX, 0); topo.n_nodes()];
        let mut frac: Vec<(usize, f64)> = Vec::new();
        for &h in &topo.hosts {
            frac.clear();
            let nics = topo.neighbors(h);
            let f0 = 1.0 / nics.len() as f64;
            for nic in nics {
                frac.push((link(h, nic.port), f0));
                let (tor, tor_ups) = (nic.peer, ups_of(nic.peer));
                if tier[tor.idx()] != T_TOR || tor_ups.is_empty() {
                    continue; // untiered graph: access-only accounting
                }
                let f1 = f0 / tor_ups.len() as f64;
                for &(l, agg) in tor_ups {
                    frac.push((l, f1));
                    let agg_ups = ups_of(agg);
                    if tier[agg.idx()] != T_AGG || agg_ups.is_empty() {
                        continue; // ToR wired straight into the core tier
                    }
                    let f2 = f1 / agg_ups.len() as f64;
                    frac.extend(agg_ups.iter().map(|&(l, _)| (l, f2)));
                }
            }
            // Fold duplicate links (e.g. two ToR uplinks reaching the
            // same agg) into one entry each, summed in push order.
            frac.sort_by_key(|&(i, _)| i);
            frac.dedup_by(|b, a| {
                if a.0 == b.0 {
                    a.1 += b.1;
                    true
                } else {
                    false
                }
            });
            spread.extend_from_slice(&frac);
            span[h.idx()] = ((spread.len() - frac.len()) as u32, spread.len() as u32);
        }

        Self {
            links,
            spread,
            span,
            headroom,
        }
    }

    /// Number of undirected links tracked.
    pub fn n_links(&self) -> usize {
        self.links.len()
    }

    /// The tracked links (committed totals included).
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The fractional spread a host's hose commits along.
    ///
    /// # Panics
    /// Panics if `host` is not a host of the ledger's topology.
    pub fn spread_of(&self, host: NodeId) -> &[(usize, f64)] {
        &self.spread[self.span_of(host)]
    }

    /// Where `host`'s spread sits in the flat table.
    fn span_of(&self, host: NodeId) -> std::ops::Range<usize> {
        match self.span.get(host.idx()) {
            Some(&(start, end)) if start != u32::MAX => start as usize..end as usize,
            _ => panic!("node {host} is not a host of this ledger"),
        }
    }

    /// Float slack: commitments are sums of exact products, but admission
    /// near the ceiling must not flip on rounding dust.
    fn eps(cap_bps: f64) -> f64 {
        1.0 + cap_bps * 1e-9
    }

    /// Would committing a `hose_bps` VM on `host` keep every touched
    /// link at or under η·cap?
    pub(crate) fn admissible(&self, host: NodeId, hose_bps: f64) -> bool {
        self.first_blocking_link(host, hose_bps).is_none()
    }

    /// The first touched link (in ledger order) that a `hose_bps`
    /// commitment on `host` would push past η·cap, if any — the link an
    /// admission rejection or overbook panic should name.
    pub fn first_blocking_link(&self, host: NodeId, hose_bps: f64) -> Option<&Link> {
        self.spread_of(host)
            .iter()
            .map(|&(i, f)| (&self.links[i], f))
            .find(|(l, f)| {
                l.committed_bps + f * hose_bps > l.limit(self.headroom) + Self::eps(l.cap_bps)
            })
            .map(|(l, _)| l)
    }

    /// Commit a `hose_bps` VM on `host`.
    ///
    /// # Panics
    /// Panics if the commitment is not admissible — the manager must
    /// check `Ledger::admissible` first (reject, don't overbook).
    pub fn commit(&mut self, host: NodeId, hose_bps: f64) {
        if let Some(l) = self.first_blocking_link(host, hose_bps) {
            panic!(
                "ledger overbook: committing {hose_bps} bps on host {host} exceeds \
                 η·cap = {:.0} bps on link {} (committed {:.0} bps)",
                l.limit(self.headroom),
                l.describe(),
                l.committed_bps
            );
        }
        self.replay_commit(host, hose_bps);
    }

    /// Commit without the admissibility assert. Only for replays that
    /// rebuild known-good state — the conservation audit's shadow ledger
    /// and the snapshot/restore path — where the original commitment was
    /// already admission-checked.
    pub fn replay_commit(&mut self, host: NodeId, hose_bps: f64) {
        for &(i, f) in &self.spread[self.span_of(host)] {
            self.links[i].committed_bps += f * hose_bps;
        }
    }

    /// Release a previously committed `hose_bps` VM on `host`.
    ///
    /// # Panics
    /// Panics if the release would drive a link's committed total
    /// negative (a double release).
    pub fn release(&mut self, host: NodeId, hose_bps: f64) {
        for &(i, f) in &self.spread[self.span_of(host)] {
            let l = &mut self.links[i];
            l.committed_bps -= f * hose_bps;
            assert!(
                l.committed_bps >= -Self::eps(l.cap_bps),
                "ledger double release: link {} committed {} bps after \
                 releasing {hose_bps} bps on host {host}",
                l.describe(),
                l.committed_bps
            );
            if l.committed_bps < 0.0 {
                l.committed_bps = 0.0; // absorb float dust
            }
        }
    }

    /// Σ committed ≤ η·cap (and ≥ 0, and finite) on every link — the
    /// conservation half of the ledger invariant.
    pub fn conservation(&self) -> Result<(), String> {
        for l in &self.links {
            let eps = Self::eps(l.cap_bps);
            if !l.committed_bps.is_finite() || l.committed_bps > l.limit(self.headroom) + eps {
                return Err(format!(
                    "link {} committed {:.0} bps exceeds η·cap = {:.0} bps",
                    l.describe(),
                    l.committed_bps,
                    l.limit(self.headroom)
                ));
            }
            if l.committed_bps < -eps {
                return Err(format!(
                    "link {} committed {:.0} bps is negative",
                    l.describe(),
                    l.committed_bps
                ));
            }
        }
        Ok(())
    }

    /// Compare this ledger's committed totals link-by-link against a
    /// shadow rebuild, naming the first drifting link. Both ledgers must
    /// come from the same topology (same link enumeration).
    pub fn diff(&self, rebuilt: &Ledger) -> Result<(), String> {
        assert_eq!(
            self.links.len(),
            rebuilt.links.len(),
            "ledger diff across different topologies"
        );
        for (live, want) in self.links.iter().zip(&rebuilt.links) {
            // NaN on either side (or ∞ on both) makes the gap NaN.
            let gap = (live.committed_bps - want.committed_bps).abs();
            if gap.is_nan() || gap > Self::eps(live.cap_bps) {
                return Err(format!(
                    "ledger drift on link {} — live {:.0} bps vs rebuilt {:.0} bps",
                    live.describe(),
                    live.committed_bps,
                    want.committed_bps
                ));
            }
        }
        Ok(())
    }

    /// Exact per-link committed totals as IEEE-754 bit patterns, in link
    /// order — the snapshot serialization of ledger state. Bits (not
    /// decimal) so a restored ledger is byte-identical to the live one:
    /// replaying commitments in a different order would accumulate float
    /// dust, and restore must not perturb later admission decisions.
    pub fn committed_bits(&self) -> Vec<u64> {
        self.links
            .iter()
            .map(|l| l.committed_bps.to_bits())
            .collect()
    }

    /// Restore per-link committed totals captured by
    /// [`Ledger::committed_bits`]. The caller must re-run the
    /// conservation audit afterwards — this trusts the snapshot.
    ///
    /// # Panics
    /// Panics if `bits` does not have one entry per link.
    pub fn set_committed_bits(&mut self, bits: &[u64]) {
        assert_eq!(
            bits.len(),
            self.links.len(),
            "ledger snapshot has {} links, topology has {}",
            bits.len(),
            self.links.len()
        );
        for (l, &b) in self.links.iter_mut().zip(bits) {
            l.committed_bps = f64::from_bits(b);
        }
    }

    /// Mean committed fraction of the admissible (η·cap) budget over the
    /// access tier — how subscribed the host edge is.
    pub fn utilization(&self) -> f64 {
        let (mut c, mut cap) = (0.0, 0.0);
        for l in self.links.iter().filter(|l| l.access) {
            c += l.committed_bps;
            cap += l.limit(self.headroom);
        }
        if cap == 0.0 {
            0.0
        } else {
            c / cap
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::builder::LinkSpec;
    use std::collections::HashMap;
    use topology::{leaf_spine, three_tier, ThreeTierCfg, Tier};

    fn small_leaf_spine() -> Topo {
        leaf_spine(
            2,
            2,
            2,
            LinkSpec::gbps(10, 1000),
            LinkSpec::gbps(10, 1000),
            1500,
        )
    }

    #[test]
    fn spread_fractions_sum_to_one_per_tier() {
        let t = three_tier(ThreeTierCfg::default());
        let l = Ledger::new(&t, 0.9);
        for &h in &t.hosts {
            let spread = l.spread_of(h);
            let (mut access, mut torup, mut coreup) = (0.0, 0.0, 0.0);
            for &(i, f) in spread {
                let link = &l.links()[i];
                if link.access {
                    access += f;
                } else if t.tors.contains(&link.node) || t.tors.contains(&link.peer) {
                    torup += f;
                } else {
                    coreup += f;
                }
            }
            assert!((access - 1.0).abs() < 1e-9, "access {access}");
            assert!((torup - 1.0).abs() < 1e-9, "torup {torup}");
            assert!((coreup - 1.0).abs() < 1e-9, "coreup {coreup}");
        }
    }

    #[test]
    fn commit_release_roundtrip_conserves() {
        let t = small_leaf_spine();
        let mut l = Ledger::new(&t, 0.9);
        let h = t.hosts[0];
        l.commit(h, 2e9);
        l.commit(h, 1e9);
        assert!(l.utilization() > 0.0);
        assert!(l.conservation().is_ok());
        l.release(h, 1e9);
        l.release(h, 2e9);
        assert!(l.conservation().is_ok());
        assert!(l.utilization().abs() < 1e-12);
        for link in l.links() {
            assert!(link.committed_bps.abs() < 1e-6);
        }
    }

    #[test]
    fn admission_respects_access_headroom() {
        let t = small_leaf_spine();
        let mut l = Ledger::new(&t, 0.9);
        let h = t.hosts[0];
        // 10G access, η = 0.9 → 9G admissible.
        assert!(l.admissible(h, 8e9));
        assert!(!l.admissible(h, 9.5e9));
        l.commit(h, 8e9);
        assert!(!l.admissible(h, 2e9));
        // A different host still has room.
        assert!(l.admissible(t.hosts[1], 8e9));
    }

    #[test]
    fn fabric_tier_fills_before_access_on_oversubscribed_core() {
        // leaf_spine with skinny uplinks: 2 hosts × 10G behind 2 × 2G
        // spines — the ToR uplink pool binds long before access links.
        let t = leaf_spine(
            2,
            2,
            2,
            LinkSpec::gbps(10, 1000),
            LinkSpec::gbps(2, 1000),
            1500,
        );
        let mut l = Ledger::new(&t, 1.0);
        let h = t.hosts[0];
        // Uplink pool per leaf = 2 × 2G = 4G; each VM spreads hose/2 on
        // each uplink, so 4G of hose saturates the pool.
        assert!(l.admissible(h, 4e9));
        l.commit(h, 4e9);
        assert!(!l.admissible(h, 1e9), "uplink pool must be full");
        assert!(l.conservation().is_ok());
    }

    #[test]
    #[should_panic(expected = "ledger overbook")]
    fn overbooking_commit_panics() {
        let t = small_leaf_spine();
        let mut l = Ledger::new(&t, 0.9);
        l.commit(t.hosts[0], 20e9);
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_panics() {
        let t = small_leaf_spine();
        let mut l = Ledger::new(&t, 0.9);
        l.commit(t.hosts[0], 2e9);
        l.release(t.hosts[0], 2e9);
        l.release(t.hosts[0], 2e9);
    }

    #[test]
    #[should_panic(expected = "not a host")]
    fn non_host_rejected() {
        let t = small_leaf_spine();
        let l = Ledger::new(&t, 0.9);
        l.spread_of(t.tors[0]);
    }

    #[test]
    fn excluding_a_core_renormalizes_the_spread() {
        let t = three_tier(ThreeTierCfg::default());
        let dead = t.cores[0].raw();
        let cordoned: BTreeSet<u32> = [dead].into_iter().collect();
        let l = Ledger::new_excluding(&t, 0.9, &cordoned);
        // Same link universe, but no host's hose touches the cordoned
        // core, and each tier still sums to 1.0.
        assert_eq!(l.n_links(), Ledger::new(&t, 0.9).n_links());
        for &h in &t.hosts {
            let (mut access, mut fabric) = (0.0, 0.0);
            for &(i, f) in l.spread_of(h) {
                let link = &l.links()[i];
                assert!(
                    link.node.raw() != dead && link.peer.raw() != dead,
                    "spread touches cordoned core on {}",
                    link.describe()
                );
                if link.access {
                    access += f;
                } else {
                    fabric += f;
                }
            }
            assert!((access - 1.0).abs() < 1e-9);
            // ToR-uplink tier + core-uplink tier = 2.0 total.
            assert!((fabric - 2.0).abs() < 1e-9, "fabric {fabric}");
        }
    }

    #[test]
    fn diff_names_the_drifting_link() {
        let t = small_leaf_spine();
        let mut live = Ledger::new(&t, 0.9);
        let shadow = live.clone();
        live.commit(t.hosts[0], 1e9);
        let err = live.diff(&shadow).unwrap_err();
        assert!(err.contains("ledger drift on link"), "{err}");
        assert!(err.contains("↔"), "must name both endpoints: {err}");
    }

    #[test]
    fn committed_bits_roundtrip_is_exact() {
        let t = small_leaf_spine();
        let mut l = Ledger::new(&t, 0.9);
        l.commit(t.hosts[0], 1.1e9);
        l.commit(t.hosts[1], 0.3e9);
        let bits = l.committed_bits();
        let mut fresh = Ledger::new(&t, 0.9);
        fresh.set_committed_bits(&bits);
        for (a, b) in l.links().iter().zip(fresh.links()) {
            assert_eq!(a.committed_bps.to_bits(), b.committed_bps.to_bits());
        }
        assert!(fresh.diff(&l).is_ok());
    }

    #[test]
    #[should_panic(expected = "on link")]
    fn overbook_panic_names_the_link() {
        let t = small_leaf_spine();
        let mut l = Ledger::new(&t, 0.9);
        l.commit(t.hosts[0], 20e9);
    }

    #[test]
    fn non_finite_totals_fail_conservation_and_diff() {
        let t = small_leaf_spine();
        let clean = Ledger::new(&t, 0.9);
        let mut l = clean.clone();
        l.replay_commit(t.hosts[0], f64::NAN);
        let err = l.conservation().unwrap_err();
        assert!(err.contains("committed NaN bps"), "{err}");
        assert!(l.diff(&clean).is_err());
        assert!(clean.diff(&l).is_err());
        assert!(l.diff(&l.clone()).is_err(), "NaN never matches itself");
        let mut inf = clean.clone();
        inf.replay_commit(t.hosts[0], f64::INFINITY);
        assert!(inf.conservation().is_err());
        assert!(inf.diff(&inf.clone()).is_err());
    }

    /// The build as it stood with hashed `(node, port)` and per-host
    /// lookups: the oracle the flat tables must match bit for bit.
    fn hashed_build(
        topo: &Topo,
        cordoned: &BTreeSet<u32>,
    ) -> (Vec<Link>, HashMap<u32, Vec<(usize, f64)>>) {
        let mut tier = vec![T_OTHER; topo.n_nodes()];
        for (ids, t) in [
            (&topo.hosts, T_HOST),
            (&topo.tors, T_TOR),
            (&topo.aggs, T_AGG),
            (&topo.cores, T_CORE),
        ] {
            for &n in ids {
                tier[n.idx()] = t;
            }
        }
        let mut links = Vec::new();
        let mut by_port = HashMap::new();
        for n in 0..topo.n_nodes() {
            let node = NodeId(n as u32);
            for a in topo.neighbors(node) {
                if a.peer.idx() < n {
                    continue;
                }
                let idx = links.len();
                links.push(Link {
                    node,
                    port: a.port,
                    peer: a.peer,
                    cap_bps: a.cap_bps as f64,
                    committed_bps: 0.0,
                    access: tier[n] == T_HOST || tier[a.peer.idx()] == T_HOST,
                });
                by_port.insert((node.raw(), a.port.0), idx);
                by_port.insert((a.peer.raw(), a.peer_port.0), idx);
            }
        }
        let mut spread = HashMap::new();
        for &h in &topo.hosts {
            let mut frac: Vec<(usize, f64)> = Vec::new();
            let nics = topo.neighbors(h);
            let f0 = 1.0 / nics.len() as f64;
            for nic in nics {
                frac.push((by_port[&(h.raw(), nic.port.0)], f0));
                let tor = nic.peer;
                if tier[tor.idx()] != T_TOR {
                    continue;
                }
                let ups: Vec<_> = topo
                    .neighbors(tor)
                    .iter()
                    .filter(|a| {
                        tier[a.peer.idx()] > T_TOR
                            && tier[a.peer.idx()] != T_OTHER
                            && !cordoned.contains(&a.peer.raw())
                    })
                    .collect();
                if ups.is_empty() {
                    continue;
                }
                let f1 = f0 / ups.len() as f64;
                for up in ups {
                    frac.push((by_port[&(tor.raw(), up.port.0)], f1));
                    let agg = up.peer;
                    if tier[agg.idx()] != T_AGG {
                        continue;
                    }
                    let cores: Vec<_> = topo
                        .neighbors(agg)
                        .iter()
                        .filter(|a| {
                            tier[a.peer.idx()] == T_CORE && !cordoned.contains(&a.peer.raw())
                        })
                        .collect();
                    if cores.is_empty() {
                        continue;
                    }
                    let f2 = f1 / cores.len() as f64;
                    for c in cores {
                        frac.push((by_port[&(agg.raw(), c.port.0)], f2));
                    }
                }
            }
            frac.sort_by_key(|&(i, _)| i);
            frac.dedup_by(|b, a| {
                if a.0 == b.0 {
                    a.1 += b.1;
                    true
                } else {
                    false
                }
            });
            spread.insert(h.raw(), frac);
        }
        (links, spread)
    }

    /// A host homed on three ToRs with 1, 2 and 4 uplinks, all reaching
    /// one agg with a single core uplink: that link collects 1/3 + 1/6 +
    /// 1/12, whose last bit depends on the order the dedup sums them in.
    fn multi_homed() -> Topo {
        let mut t = Topo::new(1500);
        let spec = LinkSpec::gbps(10, 1000);
        let (h0, h1) = (t.add_host(), t.add_host());
        let tors: Vec<_> = (0..3).map(|_| t.add_switch(Tier::Tor)).collect();
        let aggs: Vec<_> = (0..4).map(|_| t.add_switch(Tier::Agg)).collect();
        let cores: Vec<_> = (0..2).map(|_| t.add_switch(Tier::Core)).collect();
        for &tor in &tors {
            t.connect(h0, tor, spec);
        }
        t.connect(h1, tors[0], spec);
        for (tor, n) in tors.iter().zip([1, 2, 4]) {
            for &agg in &aggs[..n] {
                t.connect(*tor, agg, spec);
            }
        }
        for (agg, cs) in aggs.iter().zip([0..1, 0..2, 1..2, 1..2]) {
            for &core in &cores[cs] {
                t.connect(*agg, core, spec);
            }
        }
        t
    }

    #[test]
    fn flat_tables_match_the_hashed_build_bit_for_bit() {
        // The 64-, 128- and 512-server shapes the experiments build.
        let shapes = [
            ThreeTierCfg {
                pods: 2,
                tors_per_pod: 4,
                hosts_per_tor: 8,
                aggs_per_pod: 4,
                cores: 8,
                ..ThreeTierCfg::default()
            },
            ThreeTierCfg {
                pods: 4,
                tors_per_pod: 4,
                hosts_per_tor: 8,
                aggs_per_pod: 4,
                cores: 8,
                ..ThreeTierCfg::default()
            },
            ThreeTierCfg::paper_512(16),
        ];
        let topos = shapes.into_iter().map(three_tier).chain([multi_homed()]);
        for t in topos {
            for cordoned in [vec![], vec![t.aggs[1].raw()], vec![t.cores[1].raw()]] {
                let cordoned: BTreeSet<u32> = cordoned.into_iter().collect();
                let l = Ledger::new_excluding(&t, 0.9, &cordoned);
                let (links, spread) = hashed_build(&t, &cordoned);
                let ends = |l: &Link| (l.node, l.port, l.peer, l.cap_bps.to_bits(), l.access);
                assert!(l.links().iter().map(ends).eq(links.iter().map(ends)));
                for &h in &t.hosts {
                    let bits = |s: &[(usize, f64)]| {
                        s.iter().map(|&(i, f)| (i, f.to_bits())).collect::<Vec<_>>()
                    };
                    assert_eq!(
                        bits(l.spread_of(h)),
                        bits(&spread[&h.raw()]),
                        "host {h}, cordoned {cordoned:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn ledger_is_deterministic() {
        let t1 = three_tier(ThreeTierCfg::default());
        let t2 = three_tier(ThreeTierCfg::default());
        let l1 = Ledger::new(&t1, 0.9);
        let l2 = Ledger::new(&t2, 0.9);
        assert_eq!(l1.n_links(), l2.n_links());
        for &h in &t1.hosts {
            assert_eq!(l1.spread_of(h), l2.spread_of(h));
        }
    }
}
