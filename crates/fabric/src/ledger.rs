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
//! Summed over a tier, the fractions total 1 — the ledger never loses
//! or double-counts capacity (see [`Ledger::conservation`]). On graphs
//! without tier tags only the access link is accounted, which is the
//! conservative edge-only hose model.
//!
//! The arithmetic is exact. A hose is an integer bps
//! (`AdmissionCfg::hose`), and each link counts in units of 1/`den` bps,
//! where `den` is the LCM of the fractions' denominators that land on
//! it: 1 on an access link, k on a ToR uplink, k·m on an agg–core link.
//! A spread entry is then an integer numerator, committed totals and
//! the η·cap ceiling are `u64`, and a link's total is a function of the
//! live commitments alone, never of the order they came and went in —
//! so a ledger rebuilt from the live tenants equals the live one.

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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Link {
    /// Canonical endpoint (the lower node id).
    pub node: NodeId,
    /// Egress port at the canonical endpoint.
    pub port: PortNo,
    /// The other endpoint.
    pub peer: NodeId,
    /// Link capacity in bits/sec.
    pub cap_bps: u64,
    /// Whether one endpoint is a host (the access tier).
    pub access: bool,
    /// The unit of `committed` and `limit` is 1/`den` bps.
    den: u64,
    /// Admissible ceiling: round(η·cap)·`den`.
    limit: u64,
    /// Guaranteed bandwidth currently committed on this link.
    committed: u64,
}

impl Link {
    /// `units` of this link (1/`den` bps each) in bps, for messages and
    /// utilization.
    fn bps(&self, units: u64) -> f64 {
        units as f64 / self.den as f64
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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ledger {
    links: Vec<Link>,
    /// Every host's `(link, numerator)` spread, back to back in host
    /// order: the host's fraction of a hose on the link is
    /// numerator / `den`.
    spread: Vec<(usize, u64)>,
    /// Node id → `(start, end)` of its spread, `(u32::MAX, 0)` if not a host.
    span: Vec<(u32, u32)>,
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
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
    /// 1 — the spread-table rebuild behind an agg/core cordon.
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
                    cap_bps: a.cap_bps,
                    access: tier[n] == T_HOST || tier[a.peer.idx()] == T_HOST,
                    den: 1,
                    limit: (headroom * a.cap_bps as f64).round() as u64,
                    committed: 0,
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

        // Per-host up-walk, each share as `(link, d)` for the fraction
        // 1/d: d = nics on the access link, ·k on a ToR uplink, ·m on
        // an agg's core uplink. Every link's `den` becomes the LCM of
        // the d that land on it.
        let mut spread = Vec::new();
        let mut span = vec![(u32::MAX, 0); topo.n_nodes()];
        for &h in &topo.hosts {
            let start = spread.len() as u32;
            let nics = topo.neighbors(h);
            let d0 = nics.len() as u64;
            for nic in nics {
                spread.push((link(h, nic.port), d0));
                let (tor, tor_ups) = (nic.peer, ups_of(nic.peer));
                if tier[tor.idx()] != T_TOR || tor_ups.is_empty() {
                    continue; // untiered graph: access-only accounting
                }
                let d1 = d0 * tor_ups.len() as u64;
                for &(l, agg) in tor_ups {
                    spread.push((l, d1));
                    let agg_ups = ups_of(agg);
                    if tier[agg.idx()] != T_AGG || agg_ups.is_empty() {
                        continue; // ToR wired straight into the core tier
                    }
                    let d2 = d1 * agg_ups.len() as u64;
                    spread.extend(agg_ups.iter().map(|&(l, _)| (l, d2)));
                }
            }
            span[h.idx()] = (start, spread.len() as u32);
        }
        for &(l, d) in &spread {
            let den = links[l].den;
            links[l].den = (den / gcd(den, d))
                .checked_mul(d)
                .expect("ledger link denominator overflows u64");
        }
        for l in &mut links {
            l.limit = l.limit.saturating_mul(l.den);
        }

        // Turn each share into its numerator over the link's `den`, and
        // fold a host's duplicate links (e.g. two ToR uplinks reaching
        // the same agg) into one entry each, compacting in place.
        let mut w = 0;
        for &h in &topo.hosts {
            let (start, end) = span[h.idx()];
            let own = &mut spread[start as usize..end as usize];
            for e in own.iter_mut() {
                e.1 = links[e.0].den / e.1;
            }
            own.sort_unstable_by_key(|&(l, _)| l);
            let first = w;
            for k in start as usize..end as usize {
                let (l, num) = spread[k];
                if w > first && spread[w - 1].0 == l {
                    spread[w - 1].1 += num;
                } else {
                    spread[w] = (l, num);
                    w += 1;
                }
            }
            span[h.idx()] = (first as u32, w as u32);
        }
        spread.truncate(w);

        Self {
            links,
            spread,
            span,
        }
    }

    /// The tracked links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// The fractional spread a host's hose commits along, as
    /// `(link, numerator)`: the fraction on link `l` is numerator over
    /// that link's denominator.
    ///
    /// # Panics
    /// Panics if `host` is not a host of the ledger's topology.
    pub fn spread_of(&self, host: NodeId) -> &[(usize, u64)] {
        &self.spread[self.span_of(host)]
    }

    /// Where `host`'s spread sits in the flat table.
    fn span_of(&self, host: NodeId) -> std::ops::Range<usize> {
        match self.span.get(host.idx()) {
            Some(&(start, end)) if start != u32::MAX => start as usize..end as usize,
            _ => panic!("node {host} is not a host of this ledger"),
        }
    }

    /// Would committing a `hose_bps` VM on `host` keep every touched
    /// link at or under η·cap?
    pub(crate) fn admissible(&self, host: NodeId, hose_bps: u64) -> bool {
        self.first_blocking_link(host, hose_bps).is_none()
    }

    /// The first touched link (in ledger order) that a `hose_bps`
    /// commitment on `host` would push past η·cap, if any — the link an
    /// admission rejection or overbook panic should name. A total past
    /// `u64` blocks like any other overbook.
    pub fn first_blocking_link(&self, host: NodeId, hose_bps: u64) -> Option<&Link> {
        self.spread_of(host)
            .iter()
            .map(|&(i, num)| (&self.links[i], num))
            .find(|(l, num)| {
                hose_bps
                    .checked_mul(*num)
                    .and_then(|x| x.checked_add(l.committed))
                    .is_none_or(|total| total > l.limit)
            })
            .map(|(l, _)| l)
    }

    /// Commit a `hose_bps` VM on `host`.
    ///
    /// # Panics
    /// Panics if the commitment is not admissible — the manager must
    /// check `Ledger::admissible` first (reject, don't overbook).
    pub fn commit(&mut self, host: NodeId, hose_bps: u64) {
        if let Some(l) = self.first_blocking_link(host, hose_bps) {
            panic!(
                "ledger overbook: committing {hose_bps} bps on host {host} exceeds \
                 η·cap = {:.0} bps on link {} (committed {:.0} bps)",
                l.bps(l.limit),
                l.describe(),
                l.bps(l.committed)
            );
        }
        for &(i, num) in &self.spread[self.span_of(host)] {
            self.links[i].committed += hose_bps * num;
        }
    }

    /// Release a previously committed `hose_bps` VM on `host`.
    ///
    /// # Panics
    /// Panics if the release would drive a link's committed total
    /// negative (a double release).
    pub fn release(&mut self, host: NodeId, hose_bps: u64) {
        for &(i, num) in &self.spread[self.span_of(host)] {
            let l = &mut self.links[i];
            let Some(left) = hose_bps
                .checked_mul(num)
                .and_then(|x| l.committed.checked_sub(x))
            else {
                panic!(
                    "ledger double release: link {} holds {:.0} bps, less than \
                     the {hose_bps} bps released on host {host}",
                    l.describe(),
                    l.bps(l.committed)
                );
            };
            l.committed = left;
        }
    }

    /// Σ committed ≤ η·cap on every link — the conservation half of the
    /// ledger invariant.
    pub fn conservation(&self) -> Result<(), String> {
        match self.links.iter().find(|l| l.committed > l.limit) {
            Some(l) => Err(format!(
                "link {} committed {:.0} bps exceeds η·cap = {:.0} bps",
                l.describe(),
                l.bps(l.committed),
                l.bps(l.limit)
            )),
            None => Ok(()),
        }
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
        match self
            .links
            .iter()
            .zip(&rebuilt.links)
            .find(|(live, want)| live.committed != want.committed)
        {
            Some((live, want)) => Err(format!(
                "ledger drift on link {} — live {:.0} bps vs rebuilt {:.0} bps",
                live.describe(),
                live.bps(live.committed),
                want.bps(want.committed)
            )),
            None => Ok(()),
        }
    }

    /// Mean committed fraction of the admissible (η·cap) budget over the
    /// access tier — how subscribed the host edge is.
    pub fn utilization(&self) -> f64 {
        let (mut c, mut cap) = (0.0, 0.0);
        for l in self.links.iter().filter(|l| l.access) {
            c += l.bps(l.committed);
            cap += l.bps(l.limit);
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

    /// `a/b + c/d` in lowest terms.
    fn add(a: (u64, u64), c: (u64, u64)) -> (u64, u64) {
        let (n, d) = (a.0 * c.1 + c.0 * a.1, a.1 * c.1);
        let g = gcd(n, d);
        (n / g, d / g)
    }

    /// `l`'s spread entry `num` as a fraction in lowest terms.
    fn frac(l: &Link, num: u64) -> (u64, u64) {
        add((0, 1), (num, l.den))
    }

    #[test]
    fn spread_fractions_sum_to_one_per_tier() {
        let t = three_tier(ThreeTierCfg::default());
        let l = Ledger::new(&t, 0.9);
        for &h in &t.hosts {
            let (mut access, mut torup, mut coreup) = ((0, 1), (0, 1), (0, 1));
            for &(i, num) in l.spread_of(h) {
                let link = &l.links()[i];
                let f = frac(link, num);
                if link.access {
                    access = add(access, f);
                } else if t.tors.contains(&link.node) || t.tors.contains(&link.peer) {
                    torup = add(torup, f);
                } else {
                    coreup = add(coreup, f);
                }
            }
            assert_eq!(
                (access, torup, coreup),
                ((1, 1), (1, 1), (1, 1)),
                "host {h}"
            );
        }
    }

    #[test]
    fn commit_release_roundtrip_conserves() {
        let t = small_leaf_spine();
        let empty = Ledger::new(&t, 0.9);
        let mut l = empty.clone();
        let h = t.hosts[0];
        l.commit(h, 2_000_000_000);
        l.commit(h, 1_000_000_000);
        assert!(l.utilization() > 0.0);
        assert!(l.conservation().is_ok());
        l.release(h, 1_000_000_000);
        l.release(h, 2_000_000_000);
        assert!(l.conservation().is_ok());
        assert_eq!(l.utilization(), 0.0);
        assert_eq!(l, empty);
    }

    #[test]
    fn admission_respects_access_headroom() {
        let t = small_leaf_spine();
        let mut l = Ledger::new(&t, 0.9);
        let h = t.hosts[0];
        // 10G access, η = 0.9 → 9G admissible, to the bit.
        assert!(l.admissible(h, 8_000_000_000));
        assert!(l.admissible(h, 9_000_000_000));
        assert!(!l.admissible(h, 9_000_000_001));
        l.commit(h, 8_000_000_000);
        assert!(!l.admissible(h, 2_000_000_000));
        // A different host still has room.
        assert!(l.admissible(t.hosts[1], 8_000_000_000));
        // A hose past u64 blocks instead of wrapping.
        assert!(!l.admissible(t.hosts[1], u64::MAX));
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
        assert!(l.admissible(h, 4_000_000_000));
        l.commit(h, 4_000_000_000);
        assert!(!l.admissible(h, 1), "uplink pool must be full");
        assert!(l.conservation().is_ok());
    }

    #[test]
    #[should_panic(expected = "ledger overbook")]
    fn overbooking_commit_panics() {
        let t = small_leaf_spine();
        let mut l = Ledger::new(&t, 0.9);
        l.commit(t.hosts[0], 20_000_000_000);
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_panics() {
        let t = small_leaf_spine();
        let mut l = Ledger::new(&t, 0.9);
        l.commit(t.hosts[0], 2_000_000_000);
        l.release(t.hosts[0], 2_000_000_000);
        l.release(t.hosts[0], 2_000_000_000);
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
        // core, and each tier still sums to 1.
        assert_eq!(l.links().len(), Ledger::new(&t, 0.9).links().len());
        for &h in &t.hosts {
            let (mut access, mut fabric) = ((0, 1), (0, 1));
            for &(i, num) in l.spread_of(h) {
                let link = &l.links()[i];
                assert!(
                    link.node.raw() != dead && link.peer.raw() != dead,
                    "spread touches cordoned core on {}",
                    link.describe()
                );
                if link.access {
                    access = add(access, frac(link, num));
                } else {
                    fabric = add(fabric, frac(link, num));
                }
            }
            // ToR-uplink tier + core-uplink tier = 2 in total.
            assert_eq!((access, fabric), ((1, 1), (2, 1)));
        }
    }

    #[test]
    fn diff_names_the_drifting_link() {
        let t = small_leaf_spine();
        let mut live = Ledger::new(&t, 0.9);
        let shadow = live.clone();
        live.commit(t.hosts[0], 1);
        let err = live.diff(&shadow).unwrap_err();
        assert!(err.contains("ledger drift on link"), "{err}");
        assert!(err.contains("↔"), "must name both endpoints: {err}");
    }

    #[test]
    fn rebuild_from_the_live_commitments_is_exact() {
        // Hoses that split into thirds, halves and odd bps on the
        // multi-homed host, committed, grown and released in one order:
        // re-committing only what is left, in another order, gives the
        // same ledger, link for link.
        let t = multi_homed();
        let (h0, h1) = (t.hosts[0], t.hosts[1]);
        let mut live = Ledger::new(&t, 0.9);
        live.commit(h0, 1_100_000_001);
        live.commit(h1, 300_000_007);
        live.commit(h0, 700_000_000);
        live.commit(h0, 123_456_789);
        live.release(h0, 700_000_000);
        live.commit(h1, 33);
        live.release(h0, 123_456_789);
        live.commit(h0, 5);
        let mut rebuilt = Ledger::new(&t, 0.9);
        for (h, hose) in [(h0, 5), (h1, 33), (h1, 300_000_007), (h0, 1_100_000_001)] {
            rebuilt.commit(h, hose);
        }
        assert_eq!(live, rebuilt);
        assert!(live.diff(&rebuilt).is_ok());
    }

    #[test]
    #[should_panic(expected = "on link")]
    fn overbook_panic_names_the_link() {
        let t = small_leaf_spine();
        let mut l = Ledger::new(&t, 0.9);
        l.commit(t.hosts[0], 20_000_000_000);
    }

    #[test]
    fn overbooked_totals_fail_conservation_and_diff() {
        // `commit` refuses an overbook, so forge one: one unit over the
        // ceiling of a fabric link.
        let t = small_leaf_spine();
        let clean = Ledger::new(&t, 0.9);
        let mut l = clean.clone();
        let link = l.links.iter_mut().find(|l| !l.access).unwrap();
        link.committed = link.limit + 1;
        let err = l.conservation().unwrap_err();
        assert!(err.contains("exceeds η·cap"), "{err}");
        assert!(l.diff(&clean).is_err());
        assert!(clean.diff(&l).is_err());
    }

    /// Exact fractions `(link, num, den)` in lowest terms, in link order.
    type Shares = Vec<(usize, (u64, u64))>;

    /// The build as it stood with hashed `(node, port)` and per-host
    /// lookups, with each share an exact fraction: the oracle the flat
    /// tables must match.
    fn hashed_build(topo: &Topo, cordoned: &BTreeSet<u32>) -> (Vec<Link>, HashMap<u32, Shares>) {
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
                    cap_bps: a.cap_bps,
                    access: tier[n] == T_HOST || tier[a.peer.idx()] == T_HOST,
                    den: 0,
                    limit: 0,
                    committed: 0,
                });
                by_port.insert((node.raw(), a.port.0), idx);
                by_port.insert((a.peer.raw(), a.peer_port.0), idx);
            }
        }
        let mut spread = HashMap::new();
        for &h in &topo.hosts {
            let mut shares: Vec<(usize, (u64, u64))> = Vec::new();
            let nics = topo.neighbors(h);
            let f0 = (1, nics.len() as u64);
            for nic in nics {
                shares.push((by_port[&(h.raw(), nic.port.0)], f0));
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
                let f1 = (1, f0.1 * ups.len() as u64);
                for up in ups {
                    shares.push((by_port[&(tor.raw(), up.port.0)], f1));
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
                    let f2 = (1, f1.1 * cores.len() as u64);
                    for c in cores {
                        shares.push((by_port[&(agg.raw(), c.port.0)], f2));
                    }
                }
            }
            shares.sort_by_key(|&(i, _)| i);
            shares.dedup_by(|b, a| {
                if a.0 == b.0 {
                    a.1 = add(a.1, b.1);
                    true
                } else {
                    false
                }
            });
            spread.insert(h.raw(), shares);
        }
        (links, spread)
    }

    /// A host homed on three ToRs with 1, 2 and 4 uplinks, all reaching
    /// one agg with a single core uplink: that link collects 1/3 + 1/6 +
    /// 1/12 = 7/12 of the host's hose.
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
    fn flat_tables_match_the_hashed_build_exactly() {
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
        let mut seven_twelfths = 0;
        for t in topos {
            for cordoned in [vec![], vec![t.aggs[1].raw()], vec![t.cores[1].raw()]] {
                let cordoned: BTreeSet<u32> = cordoned.into_iter().collect();
                let l = Ledger::new_excluding(&t, 0.9, &cordoned);
                let (links, spread) = hashed_build(&t, &cordoned);
                let ends = |l: &Link| (l.node, l.port, l.peer, l.cap_bps, l.access);
                assert!(l.links().iter().map(ends).eq(links.iter().map(ends)));
                for &h in &t.hosts {
                    let exact: Shares = l
                        .spread_of(h)
                        .iter()
                        .map(|&(i, num)| (i, frac(&l.links()[i], num)))
                        .collect();
                    assert_eq!(exact, spread[&h.raw()], "host {h}, cordoned {cordoned:?}");
                    seven_twelfths += exact.iter().filter(|e| e.1 == (7, 12)).count();
                }
            }
        }
        // The multi-homed host's shared core uplink, with nothing and
        // with core 1 cordoned (agg 1's cordon makes it 1/3 + 1/3 + 1/9).
        assert!(seven_twelfths >= 2, "{seven_twelfths}");
    }

    #[test]
    fn ledger_is_deterministic() {
        let t1 = three_tier(ThreeTierCfg::default());
        let t2 = three_tier(ThreeTierCfg::default());
        assert_eq!(Ledger::new(&t1, 0.9), Ledger::new(&t2, 0.9));
    }
}
