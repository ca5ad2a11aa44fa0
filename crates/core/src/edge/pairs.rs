//! Struct-of-arrays storage for per-pair control state.
//!
//! The μFAB-E control tick walks every pair once per token update period
//! and touches only a handful of scalars per pair (timeouts, probe
//! clocks, windows); the pump touches fewer still, once per scheduled
//! packet. Keeping those scalars in dense parallel columns — instead of
//! scattered across one large heap struct per pair — turns both into
//! indexed loads over a few cache lines.
//!
//! Layout:
//!
//! * `index` maps `PairId` → slot and is **lookup-only**: a callback
//!   resolves the pair it was handed at most once (an arriving response,
//!   a submit) and everything downstream — scheduler queues, helper
//!   functions, the tick — passes the slot. A slot is the pair's from
//!   insert until [`PairTable::remove`] (a retired pair released, see
//!   `UfabEdge::retire`) or a restart clears the whole table; a removed
//!   slot goes on a free list and the next insert overwrites every
//!   column of it, so the columns are as long as the most pairs ever
//!   held at once.
//! * `order` keeps the live slots sorted by `PairId` and `vm_order` by
//!   `(source VM, PairId)`, both maintained incrementally on insert and
//!   remove. Every walk iterates one of them, which preserves the
//!   sorted-iteration determinism contract without a per-tick collect +
//!   sort or a per-tick group-by-VM map, and never visits a free slot.
//! * `ep_slot` and `enf_row` cache where the pair's transport state and
//!   its tenant's enforcement row live (the [`Endpoint`] slot space and
//!   the [`EnforceState`] rows). Both outlive the row: a pair's endpoint
//!   slot is released with it, and a tenant's enforcement row only after
//!   its last pair here.
//! * hot fields live in one `Vec` per field; everything bulky or rarely
//!   touched (candidate paths, telemetry snapshots, pending finishes)
//!   stays in the cold [`PairCold`] row.
//!
//! [`Endpoint`]: crate::endpoint::Endpoint
//! [`EnforceState`]: super::enforce::EnforceState

use crate::put;
use netsim::{FastMap, NodeId, PairId, PortNo, TenantId, Time, VmId};
use telemetry::HopInfo;

/// Telemetry snapshot for one candidate path.
#[derive(Debug, Clone, Default)]
pub(super) struct PathTelem {
    pub(super) hops: Vec<HopInfo>,
    pub(super) at: Time,
}

/// A candidate underlay path.
#[derive(Debug, Clone)]
pub(super) struct PathInfo {
    pub(super) route: Vec<PortNo>,
    pub(super) base_rtt: Time,
    pub(super) n_switch_hops: usize,
}

#[derive(Debug, Clone, Copy)]
pub(super) struct Registration {
    pub(super) path: usize,
    pub(super) phi: f64,
    pub(super) w: f64,
}

#[derive(Debug, Clone, Copy)]
pub(super) struct ProbeOut {
    pub(super) seq: u64,
    pub(super) path: usize,
    pub(super) sent_at: Time,
}

#[derive(Debug)]
pub(super) struct PendingFinish {
    pub(super) route: Vec<PortNo>,
    pub(super) n_switch_hops: usize,
    pub(super) phi: f64,
    pub(super) w: f64,
    pub(super) seq: u64,
    pub(super) epoch: u64,
    pub(super) retries: u32,
    pub(super) next_retry: Time,
}

/// Cold per-pair state: bulky, touched on control events (responses,
/// migrations), not on every tick.
#[derive(Debug, Default)]
pub(super) struct PairCold {
    pub(super) tenant: TenantId,
    pub(super) src_vm: VmId,
    pub(super) dst_host: NodeId,
    pub(super) candidates: Vec<PathInfo>,
    pub(super) telem: Vec<PathTelem>,
    pub(super) cur: usize,
    pub(super) registered: Option<Registration>,
    pub(super) reg_epoch: u64,
    pub(super) probe_seq: u64,
    pub(super) cand_probes: FastMap<u64, ProbeOut>,
    pub(super) better_since: Option<Time>,
    pub(super) pending_finish: Vec<PendingFinish>,
}

/// The SoA pair table. Hot fields are public columns indexed by slot;
/// resolve a slot once with [`PairTable::slot`] and index directly.
#[derive(Debug, Default)]
pub(super) struct PairTable {
    index: FastMap<PairId, u32>,
    ids: Vec<PairId>,
    /// Removed slots, reused before the columns grow.
    free: Vec<u32>,
    /// Live slots sorted by `PairId` (the deterministic walk order).
    order: Vec<u32>,
    /// `(source VM, slot)` sorted by `(VM, PairId)`: the GP sender tick
    /// reads each VM's pairs as one contiguous ascending run.
    pub(super) vm_order: Vec<(VmId, u32)>,
    /// The pair's slot in the edge's `Endpoint`.
    pub(super) ep_slot: Vec<u32>,
    /// The pair's tenant's row in the edge's `EnforceState`.
    pub(super) enf_row: Vec<u32>,
    // ---- hot columns (all Copy, one cache-dense Vec per field) ----
    pub(super) active: Vec<bool>,
    /// Sender-assigned token φ_s (GP).
    pub(super) phi_s: Vec<f64>,
    /// Receiver-admitted token φ_p (∞ until constrained).
    pub(super) phi_r: Vec<f64>,
    /// Admission window in payload bytes (what the scheduler enforces).
    pub(super) window: Vec<f64>,
    /// Claimed window from Eqn 3 (what probes register at switches).
    pub(super) w_claim: Vec<f64>,
    /// Two-stage bootstrap window w′ (None = steady state).
    pub(super) boot: Vec<Option<f64>>,
    pub(super) outstanding: Vec<Option<ProbeOut>>,
    pub(super) bytes_since_probe: Vec<u64>,
    pub(super) last_probe_sent: Vec<Time>,
    pub(super) probe_losses: Vec<u32>,
    pub(super) violations: Vec<u32>,
    pub(super) unqualified: Vec<u32>,
    pub(super) freeze_until: Vec<Time>,
    pub(super) data_paused_until: Vec<Time>,
    /// Pacing gate for sub-MTU windows: no data before this instant.
    pub(super) next_send_at: Vec<Time>,
    /// Smoothed probe RTT.
    pub(super) srtt: Vec<Time>,
    pub(super) last_alt_probe: Vec<Time>,
    /// Cache of `candidates[cur].base_rtt` — the tick reads it for every
    /// pair; refreshed by [`PairTable::set_cur`] on migration.
    pub(super) cur_base_rtt: Vec<Time>,
    pub(super) cold: Vec<PairCold>,
}

impl PairTable {
    /// Pairs held now.
    pub(super) fn len(&self) -> usize {
        self.order.len()
    }

    /// Pairs held now, and the most ever held at once.
    pub(super) fn slot_use(&self) -> (usize, usize) {
        (self.order.len(), self.ids.len())
    }

    /// Resolve a pair to its slot.
    #[inline]
    pub(super) fn slot(&self, pair: PairId) -> Option<usize> {
        self.index.get(&pair).map(|&s| s as usize)
    }

    #[inline]
    pub(super) fn id(&self, slot: usize) -> PairId {
        self.ids[slot]
    }

    /// The k-th slot in PairId order.
    #[inline]
    pub(super) fn slot_at(&self, k: usize) -> usize {
        self.order[k] as usize
    }

    /// Slots in ascending `PairId` order (the deterministic walk).
    pub(super) fn slots_sorted(&self) -> impl Iterator<Item = usize> + '_ {
        self.order.iter().map(|&s| s as usize)
    }

    /// Pair ids in ascending order, allocation-free.
    pub(super) fn ids_sorted(&self) -> impl Iterator<Item = PairId> + '_ {
        self.order.iter().map(|&s| self.ids[s as usize])
    }

    /// Effective (min of sender/receiver) token.
    #[inline]
    pub(super) fn phi_eff(&self, slot: usize) -> f64 {
        self.phi_s[slot].min(self.phi_r[slot]).max(0.0)
    }

    #[inline]
    pub(super) fn cur_path(&self, slot: usize) -> &PathInfo {
        let c = &self.cold[slot];
        &c.candidates[c.cur]
    }

    /// Switch the current candidate, keeping the baseRTT cache fresh.
    pub(super) fn set_cur(&mut self, slot: usize, idx: usize) {
        self.cold[slot].cur = idx;
        self.cur_base_rtt[slot] = self.cold[slot].candidates[idx].base_rtt;
    }

    /// Insert a fresh pair (must not exist) into a free slot, or a new
    /// one. Every column is written: hot fields start at their activation
    /// defaults. Returns the slot.
    pub(super) fn insert(
        &mut self,
        pair: PairId,
        cold: PairCold,
        ep_slot: u32,
        enf_row: u32,
        phi_s: f64,
        window: f64,
        boot: Option<f64>,
        now: Time,
    ) -> usize {
        debug_assert!(!self.index.contains_key(&pair), "duplicate pair insert");
        let slot = self.free.pop().unwrap_or(self.ids.len() as u32);
        let s = slot as usize;
        self.index.insert(pair, slot);
        put(&mut self.ids, s, pair);
        let pos = self.order.partition_point(|&s| self.ids[s as usize] < pair);
        self.order.insert(pos, slot);
        let key = (cold.src_vm, pair);
        let pos = (self.vm_order).partition_point(|&(vm, s)| (vm, self.ids[s as usize]) < key);
        self.vm_order.insert(pos, (cold.src_vm, slot));
        put(&mut self.ep_slot, s, ep_slot);
        put(&mut self.enf_row, s, enf_row);
        let base_rtt = cold.candidates[cold.cur].base_rtt;
        put(&mut self.cur_base_rtt, s, base_rtt);
        put(&mut self.cold, s, cold);
        put(&mut self.active, s, true);
        put(&mut self.phi_s, s, phi_s);
        put(&mut self.phi_r, s, f64::INFINITY);
        put(&mut self.window, s, window);
        put(&mut self.w_claim, s, window);
        put(&mut self.boot, s, boot);
        put(&mut self.outstanding, s, None);
        put(&mut self.bytes_since_probe, s, 0);
        put(&mut self.last_probe_sent, s, 0);
        put(&mut self.probe_losses, s, 0);
        put(&mut self.violations, s, 0);
        put(&mut self.unqualified, s, 0);
        put(&mut self.freeze_until, s, 0);
        put(&mut self.data_paused_until, s, 0);
        put(&mut self.next_send_at, s, 0);
        put(&mut self.srtt, s, 0);
        put(&mut self.last_alt_probe, s, now);
        s
    }

    /// Remove a pair: it leaves the index and both walks, its cold row is
    /// dropped, and its slot goes on the free list.
    pub(super) fn remove(&mut self, pair: PairId) {
        let Some(slot) = self.index.remove(&pair) else {
            return;
        };
        let pos = self.order.partition_point(|&s| self.ids[s as usize] < pair);
        debug_assert_eq!(self.order[pos], slot);
        self.order.remove(pos);
        let key = (self.cold[slot as usize].src_vm, pair);
        let pos = (self.vm_order).partition_point(|&(vm, s)| (vm, self.ids[s as usize]) < key);
        debug_assert_eq!(self.vm_order[pos].1, slot);
        self.vm_order.remove(pos);
        self.cold[slot as usize] = PairCold::default();
        self.free.push(slot);
    }

    /// Wipe the table (agent restart: volatile SmartNIC state is gone).
    pub(super) fn clear(&mut self) {
        self.index.clear();
        self.ids.clear();
        self.free.clear();
        self.order.clear();
        self.vm_order.clear();
        self.ep_slot.clear();
        self.enf_row.clear();
        self.active.clear();
        self.phi_s.clear();
        self.phi_r.clear();
        self.window.clear();
        self.w_claim.clear();
        self.boot.clear();
        self.outstanding.clear();
        self.bytes_since_probe.clear();
        self.last_probe_sent.clear();
        self.probe_losses.clear();
        self.violations.clear();
        self.unqualified.clear();
        self.freeze_until.clear();
        self.data_paused_until.clear();
        self.next_send_at.clear();
        self.srtt.clear();
        self.last_alt_probe.clear();
        self.cur_base_rtt.clear();
        self.cold.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn cold(dst: u32) -> PairCold {
        PairCold {
            tenant: TenantId(0),
            src_vm: VmId((dst < 5) as u32),
            dst_host: NodeId(dst),
            candidates: vec![PathInfo {
                route: vec![PortNo(0)],
                base_rtt: 1000 + dst as Time,
                n_switch_hops: 1,
            }],
            telem: vec![PathTelem::default()],
            cur: 0,
            registered: None,
            reg_epoch: 0,
            probe_seq: 0,
            cand_probes: FastMap::default(),
            better_since: None,
            pending_finish: Vec::new(),
        }
    }

    #[test]
    fn insert_keeps_sorted_order_and_columns_aligned() {
        let mut t = PairTable::default();
        for raw in [5u32, 2, 9, 4] {
            t.insert(
                PairId(raw),
                cold(raw),
                10 + raw,
                20 + raw,
                1.0,
                100.0,
                None,
                42,
            );
        }
        let ids: Vec<u32> = t.ids_sorted().map(|p| p.raw()).collect();
        assert_eq!(ids, vec![2, 4, 5, 9]);
        assert_eq!(t.len(), 4);
        // Grouped by source VM, ascending PairId inside each group.
        let by_vm: Vec<(u32, u32)> = (t.vm_order.iter())
            .map(|&(vm, s)| (vm.raw(), t.id(s as usize).raw()))
            .collect();
        assert_eq!(by_vm, vec![(0, 5), (0, 9), (1, 2), (1, 4)]);
        for k in 0..t.len() {
            let s = t.slot_at(k);
            assert_eq!(t.slot(t.id(s)), Some(s));
            assert_eq!(t.ep_slot[s], 10 + t.id(s).raw());
            assert_eq!(t.enf_row[s], 20 + t.id(s).raw());
            assert_eq!(t.cur_base_rtt[s], t.cur_path(s).base_rtt);
            assert!(t.active[s]);
            assert_eq!(t.last_alt_probe[s], 42);
            assert!(t.phi_r[s].is_infinite());
        }
        t.clear();
        assert_eq!(t.len(), 0);
        assert_eq!(t.slot(PairId(5)), None);
    }

    proptest! {
        /// Random inserts and removes against a `BTreeMap` model: after
        /// every step both walks list exactly the live pairs in order,
        /// live slots are distinct, a removed pair is not found, and a
        /// reused slot starts from the insert defaults whatever the pair
        /// before it left there.
        #[test]
        fn insert_and_remove_keep_walks_and_slots_exact(
            ops in prop::collection::vec((any::<bool>(), 0u32..24), 1..200),
        ) {
            let mut t = PairTable::default();
            let mut model: BTreeMap<PairId, usize> = BTreeMap::new();
            let mut peak = 0;
            for (step, &(insert, raw)) in ops.iter().enumerate() {
                let pair = PairId(raw);
                if insert && !model.contains_key(&pair) {
                    let s = t.insert(pair, cold(raw), raw, 2 * raw, 1.5, 100.0, None, step as Time);
                    prop_assert_eq!((t.ep_slot[s], t.enf_row[s]), (raw, 2 * raw));
                    prop_assert!(t.active[s] && t.phi_r[s].is_infinite());
                    prop_assert_eq!((t.window[s], t.w_claim[s], t.boot[s]), (100.0, 100.0, None));
                    prop_assert!(t.outstanding[s].is_none());
                    prop_assert_eq!((t.violations[s], t.srtt[s], t.freeze_until[s]), (0, 0, 0));
                    prop_assert_eq!(t.last_alt_probe[s], step as Time);
                    prop_assert!(t.cold[s].pending_finish.is_empty());
                    // Dirty the row, as a pair's life would.
                    t.active[s] = false;
                    t.window[s] = 9e9;
                    t.violations[s] = 7;
                    t.srtt[s] = 5;
                    t.outstanding[s] = Some(ProbeOut { seq: 1, path: 0, sent_at: 1 });
                    t.cold[s].cand_probes.insert(3, ProbeOut { seq: 3, path: 0, sent_at: 1 });
                    model.insert(pair, s);
                } else if !insert {
                    t.remove(pair);
                    model.remove(&pair);
                }
                peak = peak.max(model.len());
                prop_assert!(t.ids_sorted().eq(model.keys().copied()), "step {}", step);
                let by_vm: BTreeSet<(VmId, PairId)> =
                    model.keys().map(|&p| (cold(p.raw()).src_vm, p)).collect();
                let walk = t.vm_order.iter().map(|&(vm, s)| (vm, t.id(s as usize)));
                prop_assert!(walk.eq(by_vm.iter().copied()), "step {}", step);
                let slots: BTreeSet<usize> = model.values().copied().collect();
                prop_assert_eq!(slots.len(), model.len());
                for (&p, &s) in &model {
                    prop_assert_eq!(t.slot(p), Some(s));
                }
                prop_assert!(insert || t.slot(pair).is_none());
                prop_assert_eq!(t.slot_use(), (model.len(), t.ids.len()));
                prop_assert!(t.ids.len() <= peak);
            }
        }
    }
}
