//! Network construction.

use crate::ids::{NodeId, PortNo};
use crate::port::Port;
use crate::time::{Time, US};
use crate::FastMap;

/// Parameters of one unidirectional channel (one egress port).
#[derive(Debug, Clone, Copy)]
pub struct LinkSpec {
    /// Capacity in bits/sec.
    pub cap_bps: u64,
    /// Propagation delay in nanoseconds.
    pub prop_ns: Time,
    /// Drop-tail buffer in bytes.
    pub buf_bytes: u64,
}

impl Default for LinkSpec {
    fn default() -> Self {
        Self {
            cap_bps: 10_000_000_000,
            prop_ns: US,
            buf_bytes: 4 * 1024 * 1024,
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
    /// Distinct ECMP groups (candidate egress ports in installed order),
    /// each held once however many destinations share it.
    groups: Vec<Box<[PortNo]>>,
    /// Destination node index → its group in `groups`, or [`NO_GROUP`].
    group_of: Vec<u16>,
}

/// `Node::group_of` entry of a destination with no ECMP group.
const NO_GROUP: u16 = u16::MAX;

impl Node {
    /// The ECMP group for destination `dst`: the candidate egress ports,
    /// or `None` if no entry was installed.
    pub fn ecmp(&self, dst: NodeId) -> Option<&[PortNo]> {
        let g = *self.group_of.get(dst.idx())?;
        (g != NO_GROUP).then(|| &*self.groups[g as usize])
    }
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
    /// `(node, port list)` → that node's group index, for interning.
    interned: FastMap<(NodeId, Vec<PortNo>), u16>,
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
            groups: Vec::new(),
            group_of: Vec::new(),
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
        assert_ne!(a, b, "self-loop link");
        let pa = PortNo(self.nodes[a.idx()].ports.len() as u16);
        let pb = PortNo(self.nodes[b.idx()].ports.len() as u16);
        self.nodes[a.idx()].ports.push(Port::new(b, pb, spec));
        self.nodes[b.idx()].ports.push(Port::new(a, pa, spec));
        (pa, pb)
    }

    /// Install an ECMP entry: at `node`, traffic for destination host
    /// `dst` may leave through any of `ports`, replacing an earlier entry.
    /// A list equal to one `node` holds, in the same order, shares its group.
    ///
    /// # Panics
    /// Panics on an empty list, a port `node` lacks, or more distinct
    /// groups at `node` than a `u16` indexes.
    pub fn set_ecmp(&mut self, node: NodeId, dst: NodeId, ports: Vec<PortNo>) {
        assert!(!ports.is_empty(), "empty ECMP group");
        let n_dsts = self.nodes.len().max(dst.idx() + 1);
        let n = &mut self.nodes[node.idx()];
        let n_ports = n.ports.len();
        if let Some(p) = ports.iter().find(|p| p.idx() >= n_ports) {
            panic!("ECMP port {p} out of range at {node} ({n_ports} ports)");
        }
        let g = *self
            .interned
            .entry((node, ports))
            .or_insert_with_key(|(_, ports)| {
                let g = n.groups.len() as u16;
                assert!(g != NO_GROUP, "more than {NO_GROUP} ECMP groups at {node}");
                n.groups.push(ports.as_slice().into());
                g
            });
        n.group_of.resize(n.group_of.len().max(n_dsts), NO_GROUP);
        n.group_of[dst.idx()] = g;
    }

    /// Finish construction.
    pub fn build(self) -> Network {
        Network { nodes: self.nodes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

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
    #[should_panic(expected = "ECMP port PortNo(2) out of range at NodeId(1) (2 ports)")]
    fn ecmp_port_beyond_the_node_rejected() {
        let mut b = NetworkBuilder::new();
        let h = b.add_host();
        let s = b.add_switch();
        b.connect(h, s, LinkSpec::default());
        b.connect(h, s, LinkSpec::default());
        b.set_ecmp(s, h, vec![PortNo(1), PortNo(2)]);
    }

    #[test]
    #[should_panic(expected = "more than 65535 ECMP groups at NodeId(1)")]
    fn ecmp_groups_beyond_the_u16_index_rejected() {
        let mut b = NetworkBuilder::new();
        let h = b.add_host();
        let s = b.add_switch();
        for _ in 0..256 {
            b.connect(h, s, LinkSpec::default());
        }
        // 256 × 256 distinct two-port lists: the last has no index left.
        for i in 0..256 {
            for j in 0..256 {
                b.set_ecmp(s, h, vec![PortNo(i), PortNo(j)]);
            }
        }
    }

    proptest! {
        /// Random `set_ecmp` sequences, with repeated lists and repeated
        /// (node, dst) entries, against a `HashMap` model of the table
        /// the interned groups replace: every node answers every
        /// destination index as the model does, and holds each distinct
        /// list at most once.
        #[test]
        fn interned_groups_answer_as_a_per_destination_map(
            ops in prop::collection::vec(
                (0u32..4, 0u32..6, prop::collection::vec(0u16..3, 1..4)),
                1..120,
            ),
        ) {
            let mut b = NetworkBuilder::new();
            let ids: Vec<NodeId> = (0..4).map(|_| b.add_switch()).collect();
            for (i, &x) in ids.iter().enumerate() {
                for &y in &ids[i + 1..] {
                    b.connect(x, y, LinkSpec::default());
                }
            }
            let mut model: HashMap<(NodeId, NodeId), Vec<PortNo>> = HashMap::new();
            for (node, dst, ports) in ops {
                let ports: Vec<PortNo> = ports.into_iter().map(PortNo).collect();
                b.set_ecmp(NodeId(node), NodeId(dst), ports.clone());
                model.insert((NodeId(node), NodeId(dst)), ports);
            }
            let net = b.build();
            for (i, n) in net.nodes.iter().enumerate() {
                let node = NodeId(i as u32);
                for dst in (0..8).map(NodeId) {
                    prop_assert_eq!(n.ecmp(dst), model.get(&(node, dst)).map(Vec::as_slice));
                }
                let mut held = n.groups.clone();
                held.sort();
                held.dedup();
                prop_assert_eq!(held.len(), n.groups.len());
            }
        }
    }

    #[test]
    fn spec_builders() {
        let s = LinkSpec::gbps(100, 1000).with_buf(1 << 20);
        assert_eq!(s.cap_bps, 100_000_000_000);
        assert_eq!(s.buf_bytes, 1 << 20);
    }
}
