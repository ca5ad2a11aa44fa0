//! Network construction.

use crate::ids::{NodeId, PortNo};
use crate::port::Port;
use crate::time::{Time, US};
use std::collections::HashMap;

/// Parameters of one unidirectional channel (one egress port).
#[derive(Debug, Clone, Copy)]
pub struct LinkSpec {
    /// Capacity in bits/sec.
    pub cap_bps: u64,
    /// Propagation delay in nanoseconds.
    pub prop_ns: Time,
    /// Drop-tail buffer in bytes.
    pub buf_bytes: u64,
    /// ECN marking threshold in bytes (None = no marking).
    pub ecn_thresh: Option<u64>,
    /// Random per-packet loss probability.
    pub loss_prob: f64,
    /// TX-rate meter time constant in nanoseconds.
    pub meter_tau_ns: Time,
}

impl Default for LinkSpec {
    fn default() -> Self {
        Self {
            cap_bps: 10_000_000_000,
            prop_ns: US,
            buf_bytes: 4 * 1024 * 1024,
            ecn_thresh: None,
            loss_prob: 0.0,
            meter_tau_ns: 100 * US,
        }
    }
}

impl LinkSpec {
    /// A `cap_gbps` Gbit/s link with the given propagation delay.
    pub fn gbps(cap_gbps: u64, prop_ns: Time) -> Self {
        Self {
            cap_bps: cap_gbps * 1_000_000_000,
            prop_ns,
            ..Self::default()
        }
    }

    /// Set the ECN threshold.
    #[cfg(test)]
    pub(crate) fn with_ecn(mut self, thresh_bytes: u64) -> Self {
        self.ecn_thresh = Some(thresh_bytes);
        self
    }

    /// Set the random loss probability.
    pub fn with_loss(mut self, p: f64) -> Self {
        self.loss_prob = p;
        self
    }

    /// Set the buffer size.
    pub fn with_buf(mut self, bytes: u64) -> Self {
        self.buf_bytes = bytes;
        self
    }
}

/// Node role.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// End host carrying an edge agent.
    Host,
    /// Switch (optionally carrying a switch agent).
    Switch,
}

/// A constructed node.
#[derive(Debug)]
pub struct Node {
    /// Role.
    pub kind: NodeKind,
    /// Egress ports.
    pub ports: Vec<Port>,
    /// ECMP table: destination host → candidate egress ports.
    pub ecmp: HashMap<NodeId, Vec<PortNo>>,
}

/// The finished network handed to [`crate::Simulator`].
#[derive(Debug)]
pub struct Network {
    /// All nodes, indexed by `NodeId`.
    pub nodes: Vec<Node>,
}

/// Incremental network builder.
#[derive(Debug, Default)]
pub struct NetworkBuilder {
    nodes: Vec<Node>,
}

impl NetworkBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn add_node(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            kind,
            ports: Vec::new(),
            ecmp: HashMap::new(),
        });
        id
    }

    /// Add a host.
    pub fn add_host(&mut self) -> NodeId {
        self.add_node(NodeKind::Host)
    }

    /// Add a switch.
    pub fn add_switch(&mut self) -> NodeId {
        self.add_node(NodeKind::Switch)
    }

    /// Connect `a` and `b` with a symmetric bidirectional link; returns
    /// `(port on a, port on b)`.
    ///
    /// # Panics
    /// Panics if `a == b` or either id is out of range.
    pub fn connect(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> (PortNo, PortNo) {
        self.connect_asym(a, b, spec, spec)
    }

    /// Connect with distinct per-direction specs (`ab` = a→b direction).
    pub(crate) fn connect_asym(
        &mut self,
        a: NodeId,
        b: NodeId,
        ab: LinkSpec,
        ba: LinkSpec,
    ) -> (PortNo, PortNo) {
        assert_ne!(a, b, "self-loop link");
        let pa = PortNo(self.nodes[a.idx()].ports.len() as u16);
        let pb = PortNo(self.nodes[b.idx()].ports.len() as u16);
        self.nodes[a.idx()].ports.push(Port::new(
            b,
            pb,
            ab.cap_bps,
            ab.prop_ns,
            ab.buf_bytes,
            ab.ecn_thresh,
            ab.loss_prob,
            ab.meter_tau_ns,
        ));
        self.nodes[b.idx()].ports.push(Port::new(
            a,
            pa,
            ba.cap_bps,
            ba.prop_ns,
            ba.buf_bytes,
            ba.ecn_thresh,
            ba.loss_prob,
            ba.meter_tau_ns,
        ));
        (pa, pb)
    }

    /// Install an ECMP entry: at `node`, traffic for destination host
    /// `dst` may leave through any of `ports`.
    pub fn set_ecmp(&mut self, node: NodeId, dst: NodeId, ports: Vec<PortNo>) {
        assert!(!ports.is_empty(), "empty ECMP group");
        self.nodes[node.idx()].ecmp.insert(dst, ports);
    }

    /// Finish construction.
    pub fn build(self) -> Network {
        Network { nodes: self.nodes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_creates_paired_ports() {
        let mut b = NetworkBuilder::new();
        let h = b.add_host();
        let s = b.add_switch();
        let (ph, ps) = b.connect(h, s, LinkSpec::gbps(10, 500));
        let net = b.build();
        assert_eq!(ph, PortNo(0));
        assert_eq!(ps, PortNo(0));
        assert_eq!(net.nodes[h.idx()].ports[ph.idx()].peer, s);
        assert_eq!(net.nodes[s.idx()].ports[ps.idx()].peer, h);
        assert_eq!(net.nodes[h.idx()].ports[ph.idx()].peer_port, ps);
        assert_eq!(net.nodes[h.idx()].ports[0].cap_bps, 10_000_000_000);
    }

    #[test]
    fn multiple_links_get_distinct_ports() {
        let mut b = NetworkBuilder::new();
        let s1 = b.add_switch();
        let s2 = b.add_switch();
        let s3 = b.add_switch();
        let (p12, _) = b.connect(s1, s2, LinkSpec::default());
        let (p13, _) = b.connect(s1, s3, LinkSpec::default());
        assert_eq!(p12, PortNo(0));
        assert_eq!(p13, PortNo(1));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let mut b = NetworkBuilder::new();
        let h = b.add_host();
        b.connect(h, h, LinkSpec::default());
    }

    #[test]
    fn spec_builders() {
        let s = LinkSpec::gbps(100, 1000)
            .with_ecn(65_000)
            .with_loss(0.01)
            .with_buf(1 << 20);
        assert_eq!(s.cap_bps, 100_000_000_000);
        assert_eq!(s.ecn_thresh, Some(65_000));
        assert_eq!(s.loss_prob, 0.01);
        assert_eq!(s.buf_bytes, 1 << 20);
    }
}
