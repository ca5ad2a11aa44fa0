//! Named topologies used by the paper's experiments.

use crate::graph::{Tier, Topo};
use netsim::builder::LinkSpec;
use netsim::Time;

/// Configuration for the Fig-10 testbed (and its 100GE variant, §5.4).
#[derive(Debug, Clone, Copy)]
pub struct TestbedCfg {
    /// Link speed in Gbit/s (10 for the SoC testbed, 100 for the FPGA one).
    pub link_gbps: u64,
    /// Per-link propagation delay (ns). The default reproduces the paper's
    /// max baseRTT of ≈24 μs on the 10 G testbed.
    pub prop_ns: Time,
    /// Per-port buffer (bytes).
    pub buf_bytes: u64,
    /// MTU on this fabric (bytes on the wire).
    pub mtu: u32,
}

impl Default for TestbedCfg {
    fn default() -> Self {
        Self {
            link_gbps: 10,
            prop_ns: 1_300,
            buf_bytes: 4 * 1024 * 1024,
            mtu: 1500,
        }
    }
}

impl TestbedCfg {
    /// The 100GE FPGA testbed variant (§5.4) with a 4 KB MTU.
    pub fn hundred_gig() -> Self {
        Self {
            link_gbps: 100,
            mtu: 4096,
            ..Self::default()
        }
    }

    fn spec(&self) -> LinkSpec {
        LinkSpec::gbps(self.link_gbps, self.prop_ns).with_buf(self.buf_bytes)
    }
}

/// The paper's testbed (Fig 10): 3-tier, 2 pods, 8 servers, 10 switches.
///
/// Per pod: 2 ToRs × 2 hosts, 2 Aggs, full ToR↔Agg mesh; 2 Cores connected
/// to every Agg. Hosts are ordered `S1..S8` with S1–S4 in pod 1.
pub fn testbed(cfg: TestbedCfg) -> Topo {
    let mut t = Topo::new(cfg.mtu);
    let spec = cfg.spec();
    let cores: Vec<_> = (0..2).map(|_| t.add_switch(Tier::Core)).collect();
    for _pod in 0..2 {
        let tors: Vec<_> = (0..2).map(|_| t.add_switch(Tier::Tor)).collect();
        let aggs: Vec<_> = (0..2).map(|_| t.add_switch(Tier::Agg)).collect();
        for &tor in &tors {
            for _ in 0..2 {
                let h = t.add_host();
                t.connect(h, tor, spec);
            }
            for &agg in &aggs {
                t.connect(tor, agg, spec);
            }
        }
        for &agg in &aggs {
            for &core in &cores {
                t.connect(agg, core, spec);
            }
        }
    }
    t
}

/// The §2.2 Case-2 graph (Fig 5): ToR1 and ToR2 joined by three Aggs,
/// giving exactly three equivalent inter-rack paths P1 (via Agg1), P2
/// (via Agg2), P3 (via Agg3). Four hosts per ToR (H1–H4, H5–H8).
pub fn case2(link_gbps: u64) -> Topo {
    let mut t = Topo::new(1500);
    let spec = LinkSpec::gbps(link_gbps, 1_300);
    let tor1 = t.add_switch(Tier::Tor);
    let tor2 = t.add_switch(Tier::Tor);
    let aggs: Vec<_> = (0..3).map(|_| t.add_switch(Tier::Agg)).collect();
    for _ in 0..4 {
        let h = t.add_host();
        t.connect(h, tor1, spec);
    }
    for _ in 0..4 {
        let h = t.add_host();
        t.connect(h, tor2, spec);
    }
    for &a in &aggs {
        t.connect(tor1, a, spec);
        t.connect(tor2, a, spec);
    }
    t
}

/// Parametric 3-tier fabric for the large-scale simulations (§5.5).
#[derive(Debug, Clone, Copy)]
pub struct ThreeTierCfg {
    /// Number of pods.
    pub pods: usize,
    /// ToR switches per pod.
    pub tors_per_pod: usize,
    /// Hosts per ToR.
    pub hosts_per_tor: usize,
    /// Aggregation switches per pod (every ToR connects to all of them).
    pub aggs_per_pod: usize,
    /// Core switches; must be a multiple of `aggs_per_pod`. Agg *j* of a
    /// pod connects to cores `[j·c/a, (j+1)·c/a)` — vary `cores` to set
    /// the core oversubscription (paper: 16 → 1:2, 32 → 1:1).
    pub cores: usize,
    /// Host link speed (Gbit/s).
    pub host_gbps: u64,
    /// Fabric link speed (Gbit/s).
    pub fabric_gbps: u64,
    /// Propagation delay per link (ns); paper's NS3 runs use 1 μs.
    pub prop_ns: Time,
    /// Per-port buffer bytes.
    pub buf_bytes: u64,
    /// MTU (bytes).
    pub mtu: u32,
}

impl Default for ThreeTierCfg {
    fn default() -> Self {
        Self {
            pods: 4,
            tors_per_pod: 4,
            hosts_per_tor: 8,
            aggs_per_pod: 4,
            cores: 16,
            host_gbps: 100,
            fabric_gbps: 100,
            prop_ns: 1_000,
            buf_bytes: 16 * 1024 * 1024,
            mtu: 4096,
        }
    }
}

impl ThreeTierCfg {
    /// The paper's 512-server FatTree at the given core count (16 or 32).
    pub fn paper_512(cores: usize) -> Self {
        Self {
            pods: 8,
            tors_per_pod: 8,
            hosts_per_tor: 8,
            aggs_per_pod: 8,
            cores,
            ..Self::default()
        }
    }
}

/// Build a [`ThreeTierCfg`] fabric.
///
/// # Panics
/// Panics if `cores` is not a positive multiple of `aggs_per_pod`.
pub fn three_tier(cfg: ThreeTierCfg) -> Topo {
    assert!(
        cfg.cores > 0 && cfg.cores % cfg.aggs_per_pod == 0,
        "cores ({}) must be a positive multiple of aggs_per_pod ({})",
        cfg.cores,
        cfg.aggs_per_pod
    );
    let cpa = cfg.cores / cfg.aggs_per_pod;
    let host_spec = LinkSpec::gbps(cfg.host_gbps, cfg.prop_ns).with_buf(cfg.buf_bytes);
    let fab_spec = LinkSpec::gbps(cfg.fabric_gbps, cfg.prop_ns).with_buf(cfg.buf_bytes);
    let mut t = Topo::new(cfg.mtu);
    let cores: Vec<_> = (0..cfg.cores).map(|_| t.add_switch(Tier::Core)).collect();
    for _pod in 0..cfg.pods {
        let tors: Vec<_> = (0..cfg.tors_per_pod)
            .map(|_| t.add_switch(Tier::Tor))
            .collect();
        let aggs: Vec<_> = (0..cfg.aggs_per_pod)
            .map(|_| t.add_switch(Tier::Agg))
            .collect();
        for &tor in &tors {
            for _ in 0..cfg.hosts_per_tor {
                let h = t.add_host();
                t.connect(h, tor, host_spec);
            }
            for &agg in &aggs {
                t.connect(tor, agg, fab_spec);
            }
        }
        for (j, &agg) in aggs.iter().enumerate() {
            for &core in &cores[j * cpa..(j + 1) * cpa] {
                t.connect(agg, core, fab_spec);
            }
        }
    }
    t
}

/// A two-tier leaf-spine fabric.
pub fn leaf_spine(
    leaves: usize,
    spines: usize,
    hosts_per_leaf: usize,
    host_spec: LinkSpec,
    fabric_spec: LinkSpec,
    mtu: u32,
) -> Topo {
    let mut t = Topo::new(mtu);
    let spine_ids: Vec<_> = (0..spines).map(|_| t.add_switch(Tier::Core)).collect();
    for _ in 0..leaves {
        let leaf = t.add_switch(Tier::Tor);
        for _ in 0..hosts_per_leaf {
            let h = t.add_host();
            t.connect(h, leaf, host_spec);
        }
        for &s in &spine_ids {
            t.connect(leaf, s, fabric_spec);
        }
    }
    t
}

/// `n` hosts each side of a single bottleneck link (S1—S2).
pub fn dumbbell(n: usize, host_gbps: u64, bottleneck_gbps: u64) -> Topo {
    let mut t = Topo::new(1500);
    let s1 = t.add_switch(Tier::Tor);
    let s2 = t.add_switch(Tier::Tor);
    let hspec = LinkSpec::gbps(host_gbps, 1_000);
    for _ in 0..n {
        let h = t.add_host();
        t.connect(h, s1, hspec);
    }
    for _ in 0..n {
        let h = t.add_host();
        t.connect(h, s2, hspec);
    }
    t.connect(s1, s2, LinkSpec::gbps(bottleneck_gbps, 1_000));
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::US;

    #[test]
    fn testbed_shape_matches_fig10() {
        let t = testbed(TestbedCfg::default());
        assert_eq!(t.hosts.len(), 8);
        assert_eq!(t.tors.len() + t.aggs.len() + t.cores.len(), 10);
        assert_eq!(t.cores.len(), 2);
        // Cross-pod hosts have 8 equivalent paths
        // (2 src aggs × 2 cores × 2 dst aggs).
        let ps = t.paths(t.hosts[0], t.hosts[7], 16);
        assert_eq!(ps.len(), 8);
        assert_eq!(ps[0].n_links(), 6);
        // Same-rack: single 2-link path.
        let same = t.paths(t.hosts[0], t.hosts[1], 16);
        assert_eq!(same.len(), 1);
        assert_eq!(same[0].n_links(), 2);
    }

    #[test]
    fn testbed_base_rtt_near_24us() {
        let t = testbed(TestbedCfg::default());
        let rtt = t.max_base_rtt();
        assert!(
            (20 * US..28 * US).contains(&rtt),
            "max baseRTT {} ≈ paper's 24us",
            rtt
        );
    }

    #[test]
    fn case2_has_three_paths() {
        let t = case2(10);
        assert_eq!(t.hosts.len(), 8);
        assert_eq!(t.aggs.len(), 3);
        let ps = t.paths(t.hosts[0], t.hosts[4], 16);
        assert_eq!(ps.len(), 3);
        for p in &ps {
            assert_eq!(p.n_links(), 4); // h-tor-agg-tor-h
        }
        // The three paths differ exactly in the agg they traverse.
        let mut aggs_seen: Vec<_> = ps.iter().map(|p| p.nodes[2]).collect();
        aggs_seen.sort();
        aggs_seen.dedup();
        assert_eq!(aggs_seen.len(), 3);
    }

    #[test]
    fn three_tier_counts() {
        let cfg = ThreeTierCfg::default();
        let t = three_tier(cfg);
        assert_eq!(
            t.hosts.len(),
            cfg.pods * cfg.tors_per_pod * cfg.hosts_per_tor
        );
        assert_eq!(t.cores.len(), cfg.cores);
        assert_eq!(t.aggs.len(), cfg.pods * cfg.aggs_per_pod);
        // Cross-pod path count = aggs_per_pod × cores_per_agg = cores.
        let ps = t.paths(t.hosts[0], *t.hosts.last().unwrap(), 64);
        assert_eq!(ps.len(), cfg.cores);
    }

    #[test]
    fn paper_512_configs() {
        let c16 = ThreeTierCfg::paper_512(16);
        assert_eq!(c16.pods * c16.tors_per_pod * c16.hosts_per_tor, 512);
        let t = three_tier(ThreeTierCfg {
            pods: 2,
            tors_per_pod: 2,
            hosts_per_tor: 2,
            aggs_per_pod: 2,
            cores: 4,
            ..ThreeTierCfg::default()
        });
        assert_eq!(t.hosts.len(), 8);
    }

    #[test]
    #[should_panic(expected = "multiple of aggs_per_pod")]
    fn bad_core_count_rejected() {
        three_tier(ThreeTierCfg {
            cores: 3,
            ..ThreeTierCfg::default()
        });
    }

    #[test]
    fn dumbbell_bottleneck() {
        let t = dumbbell(3, 10, 10);
        assert_eq!(t.hosts.len(), 6);
        let ps = t.paths(t.hosts[0], t.hosts[3], 4);
        assert_eq!(ps.len(), 1);
        assert_eq!(ps[0].n_links(), 3);
    }

    #[test]
    fn leaf_spine_paths() {
        let t = leaf_spine(
            2,
            4,
            3,
            LinkSpec::gbps(10, 1000),
            LinkSpec::gbps(40, 1000),
            1500,
        );
        assert_eq!(t.hosts.len(), 6);
        let ps = t.paths(t.hosts[0], t.hosts[3], 16);
        assert_eq!(ps.len(), 4); // one per spine
    }

    #[test]
    fn ecmp_installation_covers_testbed() {
        let mut t = testbed(TestbedCfg::default());
        t.install_ecmp();
        let h0 = t.hosts[0];
        let h7 = t.hosts[7];
        let net = t.take_network();
        // Every switch must know both sample destinations.
        for node in &net.nodes {
            if matches!(node.kind, netsim::builder::NodeKind::Switch) {
                assert!(node.ecmp(h0).is_some());
                assert!(node.ecmp(h7).is_some());
            }
        }
    }
}
