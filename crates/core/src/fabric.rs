//! The virtual-fabric specification: tenants, VMs, VM-pairs, guarantees.
//!
//! μFAB's service model is the **hose model** (§3.1): every VM of a VF can
//! send/receive at its minimum bandwidth, expressed as a number of
//! *bandwidth tokens* φ^a, each worth `B_u` bits/sec. VM-to-VM guarantees
//! are carved out of the hose dynamically by Guarantee Partitioning
//! ([`crate::tokens`]); this module is the registry those dynamics run
//! over. It is the one tenant table of a run: a control plane that
//! resizes a tenant or moves a VM edits a copy and hands it to every
//! edge. Records are append-only, so every id handed out keeps its
//! meaning: a moved VM is a new VM record with new pairs.

use netsim::{FastMap, NodeId, PairId, TenantId, VmId};

/// A VM placement.
#[derive(Debug, Clone, Copy)]
pub struct VmSpec {
    /// Physical host the VM lives on.
    pub host: NodeId,
    /// Owning tenant.
    pub tenant: TenantId,
}

/// A directional VM-to-VM pair.
#[derive(Debug, Clone, Copy)]
pub struct PairSpec {
    /// Sending VM.
    pub src: VmId,
    /// Receiving VM.
    pub dst: VmId,
}

/// The fabric registry shared (via `Arc`) by every agent in a simulation.
#[derive(Debug, Clone)]
pub struct FabricSpec {
    /// Bits/sec one token guarantees (B_u).
    pub bu_bps: f64,
    /// Hose tokens per VM (φ^a) of each tenant, by tenant id.
    tenant_tokens: Vec<f64>,
    vms: Vec<VmSpec>,
    pairs: Vec<PairSpec>,
    reverse: FastMap<(VmId, VmId), PairId>,
}

impl FabricSpec {
    /// Create an empty fabric with the given token value B_u (bits/sec).
    ///
    /// # Panics
    /// Panics if `bu_bps` is not positive.
    pub fn new(bu_bps: f64) -> Self {
        assert!(bu_bps > 0.0, "B_u must be positive");
        Self {
            bu_bps,
            tenant_tokens: Vec::new(),
            vms: Vec::new(),
            pairs: Vec::new(),
            reverse: FastMap::default(),
        }
    }

    /// Register a tenant whose every VM holds `tokens_per_vm` hose tokens.
    /// The name labels the call site only; the registry keeps ids.
    pub fn add_tenant(&mut self, _name: &str, tokens_per_vm: f64) -> TenantId {
        assert!(tokens_per_vm >= 0.0);
        let id = TenantId(self.tenant_tokens.len() as u32);
        self.tenant_tokens.push(tokens_per_vm);
        id
    }

    /// Put `tokens_per_vm` hose tokens in force for every VM of `tenant`.
    pub fn set_tokens(&mut self, tenant: TenantId, tokens_per_vm: f64) {
        assert!(tokens_per_vm >= 0.0);
        self.tenant_tokens[tenant.idx()] = tokens_per_vm;
    }

    /// Place a VM of `tenant` on `host`.
    pub fn add_vm(&mut self, tenant: TenantId, host: NodeId) -> VmId {
        assert!(tenant.idx() < self.tenant_tokens.len(), "unknown tenant");
        let id = VmId(self.vms.len() as u32);
        self.vms.push(VmSpec { host, tenant });
        id
    }

    /// Move `vm` to `host`: a new VM record of its tenant there takes
    /// `vm`'s place in each `(source host, pair)` of `pairs` with `vm` at
    /// an end, through a new pair written over the old one. Returns the
    /// `(old, new)` of each. The old record keeps its host, so the old
    /// pairs still resolve while they retire.
    pub fn rehost(
        &mut self,
        vm: VmId,
        host: NodeId,
        pairs: &mut [(NodeId, PairId)],
    ) -> Vec<((NodeId, PairId), (NodeId, PairId))> {
        let new = self.add_vm(self.vm(vm).tenant, host);
        let swap = |v: VmId| if v == vm { new } else { v };
        let mut moved = Vec::new();
        for slot in pairs.iter_mut() {
            let PairSpec { src, dst } = self.pairs[slot.1.idx()];
            if src == vm || dst == vm {
                let q = self.add_pair(swap(src), swap(dst));
                let next = (self.pair_src_host(q), q);
                moved.push((std::mem::replace(slot, next), next));
            }
        }
        moved
    }

    /// Register a directional VM-pair (idempotent: returns the existing id
    /// if `src → dst` is already registered).
    pub fn add_pair(&mut self, src: VmId, dst: VmId) -> PairId {
        if let Some(&p) = self.reverse.get(&(src, dst)) {
            return p;
        }
        assert!(src.idx() < self.vms.len() && dst.idx() < self.vms.len());
        // Cross-tenant pairs are allowed (e.g. the EBS tasks of Fig 14,
        // where SA/BA/GC are separate "tenants" that exchange traffic):
        // the pair is accounted to the *sender's* VF for scheduling, and
        // its guarantee is the min of the two VM hoses as usual.
        let id = PairId(self.pairs.len() as u32);
        self.pairs.push(PairSpec { src, dst });
        self.reverse.insert((src, dst), id);
        id
    }

    /// A one-pair VF: a tenant of `tokens_per_vm`, one VM on `src` and one
    /// on `dst`, and the pair between them.
    pub fn add_vf(&mut self, tokens_per_vm: f64, src: NodeId, dst: NodeId) -> PairId {
        let t = self.add_tenant("", tokens_per_vm);
        let (a, b) = (self.add_vm(t, src), self.add_vm(t, dst));
        self.add_pair(a, b)
    }

    /// Register both directions; returns `(src→dst, dst→src)`.
    pub fn add_pair_bidir(&mut self, a: VmId, b: VmId) -> (PairId, PairId) {
        (self.add_pair(a, b), self.add_pair(b, a))
    }

    /// Register `k` parallel *stripes* between the same VMs (Appendix F:
    /// a VM-pair may spread over multiple underlay paths; here each
    /// stripe is an independently path-managed fabric pair, and
    /// Guarantee Partitioning splits the hose across the active stripes
    /// exactly as Algorithm 2 splits a pair's token across paths).
    ///
    /// The first stripe is the canonical pair (`reverse_pair` resolves to
    /// it); additional stripes bypass the dedup map.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn add_striped_pairs(&mut self, src: VmId, dst: VmId, k: usize) -> Vec<PairId> {
        assert!(k >= 1, "at least one stripe");
        let mut out = vec![self.add_pair(src, dst)];
        for _ in 1..k {
            let id = PairId(self.pairs.len() as u32);
            self.pairs.push(PairSpec { src, dst });
            out.push(id);
        }
        out
    }

    /// VM record.
    pub fn vm(&self, v: VmId) -> &VmSpec {
        &self.vms[v.idx()]
    }

    /// Pair record.
    pub fn pair(&self, p: PairId) -> &PairSpec {
        &self.pairs[p.idx()]
    }

    /// Tenant that owns a pair.
    pub fn pair_tenant(&self, p: PairId) -> TenantId {
        self.vms[self.pairs[p.idx()].src.idx()].tenant
    }

    /// Source host of a pair.
    pub fn pair_src_host(&self, p: PairId) -> NodeId {
        self.vms[self.pairs[p.idx()].src.idx()].host
    }

    /// Destination host of a pair.
    pub fn pair_dst_host(&self, p: PairId) -> NodeId {
        self.vms[self.pairs[p.idx()].dst.idx()].host
    }

    /// The opposite-direction pair, if registered (needed for RPC
    /// auto-replies).
    pub(crate) fn reverse_pair(&self, p: PairId) -> Option<PairId> {
        let s = self.pairs[p.idx()];
        self.reverse.get(&(s.dst, s.src)).copied()
    }

    /// Hose tokens of a VM (φ^a).
    pub fn vm_tokens(&self, v: VmId) -> f64 {
        self.tenant_tokens[self.vms[v.idx()].tenant.idx()]
    }

    /// The *static* worst-case guarantee of a pair in bits/sec:
    /// `min(src hose, dst hose)·B_u`. At runtime GP divides hoses across
    /// active pairs, so the live guarantee is ≤ this.
    pub fn pair_guarantee_bps(&self, p: PairId) -> f64 {
        let s = self.pairs[p.idx()];
        self.vm_tokens(s.src).min(self.vm_tokens(s.dst)) * self.bu_bps
    }

    /// All VMs placed on `host`.
    pub(crate) fn vms_on_host(&self, host: NodeId) -> Vec<VmId> {
        (0..self.vms.len())
            .filter(|&i| self.vms[i].host == host)
            .map(|i| VmId(i as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guarantee_is_min_of_hoses() {
        let mut f = FabricSpec::new(500e6);
        let big = f.add_tenant("big", 4.0);
        let v0 = f.add_vm(big, NodeId(0));
        let v1 = f.add_vm(big, NodeId(1));
        let p = f.add_pair(v0, v1);
        assert_eq!(f.pair_guarantee_bps(p), 2e9);
        assert_eq!(f.pair_tenant(p), big);
        assert_eq!(f.pair_src_host(p), NodeId(0));
        assert_eq!(f.pair_dst_host(p), NodeId(1));
    }

    #[test]
    fn add_vf_is_a_tenant_two_vms_and_their_pair() {
        let mut f = FabricSpec::new(500e6);
        f.add_vf(1.0, NodeId(0), NodeId(1));
        let p = f.add_vf(4.0, NodeId(2), NodeId(3));
        assert_eq!(
            (f.tenant_tokens.len(), f.vms.len(), f.pairs.len()),
            (2, 4, 2)
        );
        assert_eq!(f.pair_tenant(p), TenantId(1));
        assert_eq!(
            (f.pair_src_host(p), f.pair_dst_host(p)),
            (NodeId(2), NodeId(3))
        );
        assert_eq!(f.pair_guarantee_bps(p), 2e9);
    }

    #[test]
    fn add_pair_idempotent_and_reverse() {
        let mut f = FabricSpec::new(1e9);
        let t = f.add_tenant("t", 1.0);
        let a = f.add_vm(t, NodeId(0));
        let b = f.add_vm(t, NodeId(1));
        let (ab, ba) = f.add_pair_bidir(a, b);
        assert_ne!(ab, ba);
        assert_eq!(f.add_pair(a, b), ab);
        assert_eq!(f.reverse_pair(ab), Some(ba));
        assert_eq!(f.reverse_pair(ba), Some(ab));
        assert_eq!(f.pairs.len(), 2);
    }

    #[test]
    fn reverse_pair_missing() {
        let mut f = FabricSpec::new(1e9);
        let t = f.add_tenant("t", 1.0);
        let a = f.add_vm(t, NodeId(0));
        let b = f.add_vm(t, NodeId(1));
        let ab = f.add_pair(a, b);
        assert_eq!(f.reverse_pair(ab), None);
    }

    #[test]
    fn host_and_vm_lookups() {
        let mut f = FabricSpec::new(1e9);
        let t1 = f.add_tenant("t1", 1.0);
        let t2 = f.add_tenant("t2", 2.0);
        let a = f.add_vm(t1, NodeId(5));
        f.add_vm(t1, NodeId(6));
        let c = f.add_vm(t2, NodeId(5));
        assert_eq!(f.vms_on_host(NodeId(5)), vec![a, c]);
        assert_eq!((f.tenant_tokens.len(), f.vms.len()), (2, 3));
    }

    /// Rehosting VM 0 of a three-VM ring replaces the two ring pairs it
    /// ends, in place, with pairs of a new VM on the new host; the third
    /// pair and every old record stay as they were.
    #[test]
    fn rehost_replaces_the_pairs_the_vm_ends() {
        let mut f = FabricSpec::new(1e9);
        let t = f.add_tenant("t", 2.0);
        let v: Vec<_> = (0..3).map(|h| f.add_vm(t, NodeId(h))).collect();
        let mut ring: Vec<_> = (0..3)
            .map(|i| (NodeId(i as u32), f.add_pair(v[i], v[(i + 1) % 3])))
            .collect();
        let old = ring.clone();
        let moved = f.rehost(v[0], NodeId(9), &mut ring);
        assert_eq!(moved.len(), 2);
        assert_eq!((moved[0].0, moved[1].0), (old[0], old[2]));
        assert_eq!(ring[1], old[1]);
        let ends = |p| (f.pair_src_host(p), f.pair_dst_host(p));
        assert_eq!(ends(ring[0].1), (NodeId(9), NodeId(1)));
        assert_eq!(ends(ring[2].1), (NodeId(2), NodeId(9)));
        assert_eq!((ring[0].0, ring[2].0), (NodeId(9), NodeId(2)));
        assert_eq!(ends(old[0].1), (NodeId(0), NodeId(1)));
        assert_eq!(f.vm(v[0]).host, NodeId(0));
        assert_eq!(f.pair_tenant(ring[0].1), t);
    }

    #[test]
    fn cross_tenant_pair_allowed_and_sender_accounted() {
        let mut f = FabricSpec::new(1e9);
        let t1 = f.add_tenant("t1", 2.0);
        let t2 = f.add_tenant("t2", 6.0);
        let a = f.add_vm(t1, NodeId(0));
        let b = f.add_vm(t2, NodeId(1));
        let p = f.add_pair(a, b);
        assert_eq!(f.pair_tenant(p), t1); // sender's VF
        assert_eq!(f.pair_guarantee_bps(p), 2e9); // min of hoses
    }
}
