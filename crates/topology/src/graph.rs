//! The annotated topology graph: adjacency, paths, ECMP, baseRTT.

use netsim::builder::{LinkSpec, Network, NetworkBuilder};
use netsim::{NodeId, PortNo, Time, ACK_SIZE};

/// One adjacency record: an egress port and where it leads.
#[derive(Debug, Clone, Copy)]
pub struct Adj {
    /// Local egress port.
    pub port: PortNo,
    /// Node at the far end.
    pub peer: NodeId,
    /// The far end's port facing back.
    pub peer_port: PortNo,
    /// Channel capacity (bits/sec).
    pub cap_bps: u64,
    /// Propagation delay (ns).
    pub prop_ns: Time,
}

/// A source-routed path: node sequence plus the egress port taken at every
/// node except the destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Path {
    /// `nodes[0]` = source host, `nodes.last()` = destination host.
    pub nodes: Vec<NodeId>,
    /// `ports[i]` is the egress port consumed at `nodes[i]`;
    /// `ports.len() == nodes.len() - 1`.
    pub ports: Vec<PortNo>,
}

impl Path {
    /// The route vector a packet carries.
    pub fn route(&self) -> Vec<PortNo> {
        self.ports.clone()
    }

    /// Number of links traversed.
    pub fn n_links(&self) -> usize {
        self.ports.len()
    }

    /// The links as `(node, port)` pairs — the unit μFAB-C keeps state per.
    pub(crate) fn links(&self) -> impl Iterator<Item = (NodeId, PortNo)> + '_ {
        self.nodes.iter().copied().zip(self.ports.iter().copied())
    }
}

/// An annotated topology.
#[derive(Debug)]
pub struct Topo {
    builder: Option<NetworkBuilder>,
    /// All host node ids.
    pub hosts: Vec<NodeId>,
    /// Top-of-rack switches (may be empty for generic graphs).
    pub tors: Vec<NodeId>,
    /// Aggregation switches.
    pub aggs: Vec<NodeId>,
    /// Core switches.
    pub cores: Vec<NodeId>,
    adj: Vec<Vec<Adj>>,
    /// MTU the experiments should use on this fabric (bytes on wire).
    pub mtu: u32,
}

impl Topo {
    /// Start an empty annotated topology with the given MTU.
    pub fn new(mtu: u32) -> Self {
        Self {
            builder: Some(NetworkBuilder::new()),
            hosts: Vec::new(),
            tors: Vec::new(),
            aggs: Vec::new(),
            cores: Vec::new(),
            adj: Vec::new(),
            mtu,
        }
    }

    fn builder(&mut self) -> &mut NetworkBuilder {
        self.builder.as_mut().expect("network already taken")
    }

    /// Add a host.
    pub fn add_host(&mut self) -> NodeId {
        let id = self.builder().add_host();
        self.hosts.push(id);
        self.adj.push(Vec::new());
        id
    }

    /// Add a switch, tagging its tier for convenience.
    pub fn add_switch(&mut self, tier: Tier) -> NodeId {
        let id = self.builder().add_switch();
        match tier {
            Tier::Tor => self.tors.push(id),
            Tier::Agg => self.aggs.push(id),
            Tier::Core => self.cores.push(id),
            Tier::Other => {}
        }
        self.adj.push(Vec::new());
        id
    }

    /// Connect two nodes symmetrically, recording adjacency both ways.
    pub fn connect(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> (PortNo, PortNo) {
        let (pa, pb) = self.builder().connect(a, b, spec);
        self.adj[a.idx()].push(Adj {
            port: pa,
            peer: b,
            peer_port: pb,
            cap_bps: spec.cap_bps,
            prop_ns: spec.prop_ns,
        });
        self.adj[b.idx()].push(Adj {
            port: pb,
            peer: a,
            peer_port: pa,
            cap_bps: spec.cap_bps,
            prop_ns: spec.prop_ns,
        });
        (pa, pb)
    }

    /// Adjacency list of `node`.
    pub fn neighbors(&self, node: NodeId) -> &[Adj] {
        &self.adj[node.idx()]
    }

    /// Total number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Hop distances (#links) from every node to `dst` (BFS).
    /// Unreachable nodes get `usize::MAX`.
    pub(crate) fn dist_to(&self, dst: NodeId) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.adj.len()];
        let mut q = std::collections::VecDeque::new();
        dist[dst.idx()] = 0;
        q.push_back(dst);
        while let Some(u) = q.pop_front() {
            for a in &self.adj[u.idx()] {
                if dist[a.peer.idx()] == usize::MAX {
                    dist[a.peer.idx()] = dist[u.idx()] + 1;
                    q.push_back(a.peer);
                }
            }
        }
        dist
    }

    /// Enumerate all minimum-hop paths from `src` to `dst`, capped at
    /// `max_paths`. Paths only ever traverse switches internally (a host
    /// cannot forward), matching real DCN routing.
    pub fn paths(&self, src: NodeId, dst: NodeId, max_paths: usize) -> Vec<Path> {
        if src == dst || max_paths == 0 {
            return Vec::new();
        }
        let dist = self.dist_to(dst);
        if dist[src.idx()] == usize::MAX {
            return Vec::new();
        }
        let is_host = |n: NodeId| self.hosts.contains(&n);
        let mut out = Vec::new();
        let mut nodes = vec![src];
        let mut ports: Vec<PortNo> = Vec::new();
        self.dfs_paths(
            src, dst, &dist, &is_host, &mut nodes, &mut ports, &mut out, max_paths,
        );
        out
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs_paths<F: Fn(NodeId) -> bool>(
        &self,
        u: NodeId,
        dst: NodeId,
        dist: &[usize],
        is_host: &F,
        nodes: &mut Vec<NodeId>,
        ports: &mut Vec<PortNo>,
        out: &mut Vec<Path>,
        max_paths: usize,
    ) {
        if out.len() >= max_paths {
            return;
        }
        if u == dst {
            out.push(Path {
                nodes: nodes.clone(),
                ports: ports.clone(),
            });
            return;
        }
        for a in &self.adj[u.idx()] {
            // Only follow strictly-decreasing distance (all shortest paths),
            // and never forward *through* a host.
            if dist[a.peer.idx()] + 1 != dist[u.idx()] {
                continue;
            }
            if a.peer != dst && is_host(a.peer) {
                continue;
            }
            nodes.push(a.peer);
            ports.push(a.port);
            self.dfs_paths(a.peer, dst, dist, is_host, nodes, ports, out, max_paths);
            nodes.pop();
            ports.pop();
        }
    }

    /// Follow a source route from `src`, returning the node sequence it
    /// visits (including `src` and the final node).
    ///
    /// # Panics
    /// Panics if the route names a port that does not exist.
    pub fn walk_route(&self, src: NodeId, route: &[PortNo]) -> Vec<NodeId> {
        let mut nodes = vec![src];
        let mut cur = src;
        for &p in route {
            let adj = self.adj[cur.idx()]
                .iter()
                .find(|a| a.port == p)
                .unwrap_or_else(|| panic!("route uses unknown port {p} at {cur}"));
            cur = adj.peer;
            nodes.push(cur);
        }
        nodes
    }

    /// Build the reverse source route of a forward route from `src`: a
    /// reply following it retraces the packet's own (proven-alive) path.
    pub fn reverse_route(&self, src: NodeId, route: &[PortNo]) -> Vec<PortNo> {
        let nodes = self.walk_route(src, route);
        let mut rev = Vec::with_capacity(route.len());
        for i in (0..route.len()).rev() {
            let u = nodes[i];
            let p = route[i];
            let adj = self.adj[u.idx()]
                .iter()
                .find(|a| a.port == p)
                .expect("validated by walk_route");
            rev.push(adj.peer_port);
        }
        rev
    }

    /// Reverse a path (the route a response takes back).
    pub(crate) fn reverse(&self, path: &Path) -> Path {
        let mut nodes: Vec<NodeId> = path.nodes.clone();
        nodes.reverse();
        let mut ports = Vec::with_capacity(path.ports.len());
        // Walking the original links backwards: link i goes nodes[i] →
        // nodes[i+1] via ports[i]; in reverse we leave nodes[i+1] through
        // the peer port of that link.
        for i in (0..path.ports.len()).rev() {
            let u = path.nodes[i];
            let p = path.ports[i];
            let adj = self.adj[u.idx()]
                .iter()
                .find(|a| a.port == p)
                .expect("path uses unknown port");
            ports.push(adj.peer_port);
        }
        Path { nodes, ports }
    }

    /// One-way latency of `path` for a packet of `bytes` (serialization at
    /// every hop — store-and-forward — plus propagation).
    pub(crate) fn one_way_ns(&self, path: &Path, bytes: u32) -> Time {
        path.links()
            .map(|(n, p)| {
                let a = self.adj[n.idx()]
                    .iter()
                    .find(|a| a.port == p)
                    .expect("bad link");
                netsim::time::tx_time(bytes, a.cap_bps) + a.prop_ns
            })
            .sum()
    }

    /// Base RTT between two hosts over a given path: an MTU-sized data
    /// packet forward plus a minimum ACK back, with empty queues.
    pub fn base_rtt_path(&self, path: &Path) -> Time {
        let back = self.reverse(path);
        self.one_way_ns(path, self.mtu) + self.one_way_ns(&back, ACK_SIZE)
    }

    /// Base RTT over the best (first-enumerated shortest) path.
    pub fn base_rtt(&self, src: NodeId, dst: NodeId) -> Time {
        let ps = self.paths(src, dst, 1);
        ps.first()
            .map(|p| self.base_rtt_path(p))
            .expect("no path between hosts")
    }

    /// Maximum base RTT over all host pairs (the fabric "diameter" T_max
    /// used by the §3.4 inflight bound).
    pub fn max_base_rtt(&self) -> Time {
        let mut max = 0;
        for (i, &a) in self.hosts.iter().enumerate() {
            for &b in self.hosts.iter().skip(i + 1) {
                max = max.max(self.base_rtt(a, b));
            }
        }
        max
    }

    /// Every switch: the ToRs, then the aggs, then the cores.
    pub fn switches(&self) -> Vec<NodeId> {
        let tiers = [&self.tors, &self.aggs, &self.cores];
        tiers.into_iter().flatten().copied().collect()
    }

    /// Install ECMP tables on every switch for every host destination
    /// (all ports on some shortest path).
    pub fn install_ecmp(&mut self) {
        let hosts = self.hosts.clone();
        for dst in hosts {
            let dist = self.dist_to(dst);
            for sw in self.switches() {
                let mut ports = Vec::new();
                for a in &self.adj[sw.idx()] {
                    if dist[a.peer.idx()] != usize::MAX
                        && dist[sw.idx()] != usize::MAX
                        && dist[a.peer.idx()] + 1 == dist[sw.idx()]
                    {
                        ports.push(a.port);
                    }
                }
                if !ports.is_empty() {
                    self.builder().set_ecmp(sw, dst, ports);
                }
            }
        }
    }

    /// Hand the built network to the simulator. Callable once.
    ///
    /// # Panics
    /// Panics on the second call.
    pub fn take_network(&mut self) -> Network {
        self.builder.take().expect("network already taken").build()
    }

    /// Does nothing: a simulation is one event queue. Until ROADMAP 1(f).
    #[doc(hidden)]
    pub fn enable_pod_partition(&mut self) {}
}

/// Switch tier tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Top-of-rack.
    Tor,
    /// Aggregation.
    Agg,
    /// Core.
    Core,
    /// Untagged.
    Other,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// h0 - t0 - {a0, a1} - t1 - h1 (two parallel paths).
    fn diamond() -> Topo {
        let mut t = Topo::new(1500);
        let h0 = t.add_host();
        let h1 = t.add_host();
        let t0 = t.add_switch(Tier::Tor);
        let t1 = t.add_switch(Tier::Tor);
        let a0 = t.add_switch(Tier::Agg);
        let a1 = t.add_switch(Tier::Agg);
        let spec = LinkSpec::gbps(10, 1000);
        t.connect(h0, t0, spec);
        t.connect(h1, t1, spec);
        t.connect(t0, a0, spec);
        t.connect(t0, a1, spec);
        t.connect(t1, a0, spec);
        t.connect(t1, a1, spec);
        t
    }

    /// The ECMP tables `install_ecmp` hands to the simulator equal, for
    /// every (switch, host), the group recomputed the way the tables
    /// were built before groups were interned: every port whose peer is
    /// one hop nearer to the host, in adjacency order. Runs on the
    /// 64-, 128- and 512-server fabrics at both core counts.
    #[test]
    fn installed_ecmp_groups_equal_the_shortest_hop_ports() {
        use crate::shapes::{three_tier, ThreeTierCfg};
        let small = |pods, cores| ThreeTierCfg {
            pods,
            tors_per_pod: 4,
            hosts_per_tor: 8,
            aggs_per_pod: 4,
            cores,
            ..ThreeTierCfg::default()
        };
        for cfg in [
            small(2, 8),
            small(2, 16),
            small(4, 8),
            small(4, 16),
            ThreeTierCfg::paper_512(16),
            ThreeTierCfg::paper_512(32),
        ] {
            let mut t = three_tier(cfg);
            t.install_ecmp();
            let switches = t.switches();
            let oracle: Vec<Vec<Vec<PortNo>>> = t
                .hosts
                .iter()
                .map(|&h| {
                    let dist = t.dist_to(h);
                    switches
                        .iter()
                        .map(|sw| {
                            t.neighbors(*sw)
                                .iter()
                                .filter(|a| {
                                    dist[a.peer.idx()] != usize::MAX
                                        && dist[sw.idx()] != usize::MAX
                                        && dist[a.peer.idx()] + 1 == dist[sw.idx()]
                                })
                                .map(|a| a.port)
                                .collect()
                        })
                        .collect()
                })
                .collect();
            let net = t.take_network();
            let mut most = 0;
            for (s, sw) in switches.iter().enumerate() {
                let node = &net.nodes[sw.idx()];
                let mut distinct = std::collections::HashSet::new();
                for (h, &host) in t.hosts.iter().enumerate() {
                    let want = &oracle[h][s];
                    let got = node.ecmp(host);
                    assert_eq!(
                        got,
                        (!want.is_empty()).then_some(want.as_slice()),
                        "{sw} → {host}"
                    );
                    distinct.extend(got);
                }
                assert!(
                    distinct.len() <= node.ports.len() + 1,
                    "{sw}: {} groups",
                    distinct.len()
                );
                most = most.max(distinct.len());
            }
            eprintln!(
                "{} servers, {} cores: at most {most} distinct ECMP groups per switch",
                t.hosts.len(),
                cfg.cores
            );
        }
    }

    #[test]
    fn enumerates_all_shortest_paths() {
        let t = diamond();
        let ps = t.paths(NodeId(0), NodeId(1), 10);
        assert_eq!(ps.len(), 2);
        for p in &ps {
            assert_eq!(p.n_links(), 4);
            assert_eq!(p.nodes[0], NodeId(0));
            assert_eq!(*p.nodes.last().unwrap(), NodeId(1));
        }
        // Cap respected.
        assert_eq!(t.paths(NodeId(0), NodeId(1), 1).len(), 1);
        // No path to self.
        assert!(t.paths(NodeId(0), NodeId(0), 10).is_empty());
    }

    #[test]
    fn reverse_path_is_consistent() {
        let t = diamond();
        let p = &t.paths(NodeId(0), NodeId(1), 10)[0];
        let r = t.reverse(p);
        assert_eq!(r.nodes.first(), p.nodes.last());
        assert_eq!(r.nodes.last(), p.nodes.first());
        assert_eq!(r.n_links(), p.n_links());
        // Reversing twice gives the original.
        let rr = t.reverse(&r);
        assert_eq!(&rr, p);
    }

    #[test]
    fn base_rtt_matches_hand_computation() {
        let t = diamond();
        // Forward: 4 links × (1.2us MTU ser + 1us prop) = 8.8us.
        // Back: 4 links × (51.2ns ack ser + 1us prop) ≈ 4.205us.
        let rtt = t.base_rtt(NodeId(0), NodeId(1));
        let fwd = 4 * (1200 + 1000);
        let back = 4 * (52 + 1000);
        assert!(
            (rtt as i64 - (fwd + back) as i64).abs() < 50,
            "rtt {rtt} expected ~{}",
            fwd + back
        );
    }

    #[test]
    fn max_base_rtt_is_max() {
        let t = diamond();
        assert_eq!(t.max_base_rtt(), t.base_rtt(NodeId(0), NodeId(1)));
    }

    #[test]
    fn paths_never_transit_hosts() {
        // h0 and h1 both attach to t0 and t1 (multihomed): shortest path
        // h0→h1 must not run "through" another host.
        let mut t = Topo::new(1500);
        let h0 = t.add_host();
        let h1 = t.add_host();
        let h2 = t.add_host();
        let s0 = t.add_switch(Tier::Tor);
        let s1 = t.add_switch(Tier::Tor);
        let spec = LinkSpec::gbps(10, 1000);
        t.connect(h0, s0, spec);
        t.connect(h1, s1, spec);
        t.connect(h2, s0, spec);
        t.connect(h2, s1, spec); // h2 multihomed — a tempting shortcut
        t.connect(s0, s1, spec);
        let ps = t.paths(h0, h1, 10);
        assert!(!ps.is_empty());
        for p in &ps {
            for n in &p.nodes[1..p.nodes.len() - 1] {
                assert!(!t.hosts.contains(n), "path transits host {n}");
            }
        }
    }

    #[test]
    fn dist_unreachable() {
        let mut t = Topo::new(1500);
        let h0 = t.add_host();
        let h1 = t.add_host(); // never connected
        let s = t.add_switch(Tier::Other);
        t.connect(h0, s, LinkSpec::default());
        let d = t.dist_to(h1);
        assert_eq!(d[h0.idx()], usize::MAX);
        assert!(t.paths(h0, h1, 5).is_empty());
    }

    #[test]
    #[should_panic(expected = "already taken")]
    fn network_taken_once() {
        let mut t = diamond();
        let _ = t.take_network();
        let _ = t.take_network();
    }
}
