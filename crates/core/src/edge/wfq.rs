//! The hierarchical packet scheduler of §4.1.
//!
//! μFAB-E enforces a three-level hierarchy: weighted fair queuing across
//! tenants (VFs), round-robin across a tenant's VM-pairs, round-robin
//! across a pair's application flows (the last level lives in
//! [`crate::endpoint`]). The FPGA implementation constrains the WFQ engine
//! to **8 weighted queues with distinct weight levels** — tenants are
//! binned to the nearest power-of-two weight — trading a little
//! differentiation precision for scalability.
//!
//! We implement the weighted sharing with start-time fair queuing over the
//! binned weights: each tenant carries a virtual time advanced by
//! `bytes/weight` per scheduled packet; the eligible tenant with the
//! smallest virtual time sends next. This yields the same weighted
//! scheduling results as the banked hardware engine.
//!
//! Like that engine, a pick only looks at queues with something in them:
//! the caller passes a *ready* predicate (μFAB-E: the endpoint's ready
//! bit, one indexed load) next to the full eligibility test, and pairs or
//! whole tenants that fail it are passed over without being asked. A pick
//! changes nothing until a pair is found eligible, so the skip cannot be
//! observed (DESIGN §4.3; a differential property test against the old
//! scan-everything pick pins it).

use netsim::{FastMap, PairId, TenantId};

/// Quantise a tenant's token count to one of `levels` power-of-two weight
/// classes: 1, 2, 4, …, 2^(levels−1).
pub fn weight_class(tokens: f64, levels: u8) -> f64 {
    assert!(levels >= 1);
    let max = 1u64 << (levels - 1);
    if tokens <= 1.0 {
        return 1.0;
    }
    let exp = tokens.log2().round().max(0.0) as u32;
    ((1u64 << exp.min(levels as u32 - 1)).min(max)) as f64
}

#[derive(Debug)]
struct TenantQueue<K> {
    id: TenantId,
    weight: f64,
    vtime: f64,
    pairs: Vec<K>,
    rr: usize,
}

/// The tenant-level weighted fair scheduler.
///
/// `K` is whatever the owner names a pair by: the baselines queue
/// `PairId`s, μFAB-E queues its pair-table slots so that a pick resolves
/// nothing. Tenant queues live in a dense slot `Vec` behind a lookup-only
/// index used by `set_tenant`/`add_pair`/`remove_pair`/`remove_tenant`
/// (no walk depends on slot order: picks sort by `(vtime, id)`); the
/// pick path, called once per
/// scheduled packet *and* on every NIC-idle poll, sorts a reused scratch
/// of tenant slots and neither allocates nor hashes.
#[derive(Debug, Default)]
pub struct WfqScheduler<K = PairId> {
    index: FastMap<TenantId, u32>,
    slots: Vec<TenantQueue<K>>,
    /// Reused pick-order scratch (slot indices, sorted by (vtime, id)).
    order: Vec<u32>,
    min_vtime: f64,
}

impl<K: Copy + PartialEq + Default> WfqScheduler<K> {
    /// Empty scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or re-weight) a tenant with an already-binned weight.
    pub fn set_tenant(&mut self, tenant: TenantId, weight: f64) {
        assert!(weight > 0.0);
        match self.index.get(&tenant) {
            Some(&s) => self.slots[s as usize].weight = weight,
            None => {
                self.index.insert(tenant, self.slots.len() as u32);
                self.slots.push(TenantQueue {
                    id: tenant,
                    weight,
                    vtime: self.min_vtime,
                    pairs: Vec::new(),
                    rr: 0,
                });
            }
        }
    }

    /// Add a pair under its tenant (idempotent). The tenant must be
    /// registered first.
    pub fn add_pair(&mut self, tenant: TenantId, pair: K) {
        let s = *self.index.get(&tenant).expect("tenant not registered");
        let t = &mut self.slots[s as usize];
        if !t.pairs.contains(&pair) {
            t.pairs.push(pair);
        }
    }

    /// Remove a pair (e.g. deactivated).
    pub fn remove_pair(&mut self, tenant: TenantId, pair: K) {
        if let Some(&s) = self.index.get(&tenant) {
            let t = &mut self.slots[s as usize];
            t.pairs.retain(|&p| p != pair);
            if t.rr >= t.pairs.len() {
                t.rr = 0;
            }
        }
    }

    /// Forget a tenant whose queue is empty for good (an empty queue
    /// enters no pick and no floor). A tenant that may send again keeps
    /// its queue: `set_tenant` would restart its vtime at the floor.
    pub(crate) fn remove_tenant(&mut self, tenant: TenantId) {
        let Some(s) = self.index.remove(&tenant) else {
            return;
        };
        debug_assert!(self.slots[s as usize].pairs.is_empty());
        self.slots.swap_remove(s as usize);
        if let Some(moved) = self.slots.get(s as usize) {
            self.index.insert(moved.id, s);
        }
    }

    /// Number of schedulable pairs.
    #[cfg(test)]
    fn n_pairs(&self) -> usize {
        self.slots.iter().map(|t| t.pairs.len()).sum()
    }

    /// Every queued `(tenant, pair)`, in slot then queue order (audits).
    pub(crate) fn queued(&self) -> impl Iterator<Item = (TenantId, K)> + '_ {
        self.slots
            .iter()
            .flat_map(|t| t.pairs.iter().map(move |&k| (t.id, k)))
    }

    /// `WfqScheduler::pick_ready` with every pair ready.
    pub fn pick<F: FnMut(K) -> Option<u32>>(&mut self, eligible: F) -> Option<(K, u32)> {
        self.pick_ready(|_| true, eligible)
    }

    /// Pick the next pair to send from. `eligible(pair)` returns the wire
    /// size of the packet the pair would send, or `None` if the pair
    /// cannot send right now (no backlog / window full / paused).
    /// `ready(pair)` is a cheap necessary condition (`false` must imply
    /// `eligible` would return `None`, and must have no side effects):
    /// pairs that fail it are skipped without asking, and tenants none of
    /// whose pairs pass it never enter the sort. Neither skip is
    /// observable — a pick only changes state once `eligible` says yes.
    ///
    /// Charges the chosen tenant's virtual time and advances its pair
    /// round-robin pointer. Returns `(pair, size)`.
    pub(crate) fn pick_ready<R, F>(&mut self, ready: R, mut eligible: F) -> Option<(K, u32)>
    where
        R: Fn(K) -> bool,
        F: FnMut(K) -> Option<u32>,
    {
        // Tenants in ascending virtual-time order (stable by id for
        // determinism).
        let mut order = std::mem::take(&mut self.order);
        order.clear();
        order.extend(
            self.slots
                .iter()
                .enumerate()
                .filter(|(_, t)| t.pairs.iter().any(|&k| ready(k)))
                .map(|(s, _)| s as u32),
        );
        let slots = &self.slots;
        order.sort_unstable_by(|&a, &b| {
            let ta = &slots[a as usize];
            let tb = &slots[b as usize];
            ta.vtime
                .partial_cmp(&tb.vtime)
                .expect("NaN vtime")
                .then(ta.id.cmp(&tb.id))
        });
        let mut picked = None;
        'outer: for &s in &order {
            let t = &mut self.slots[s as usize];
            let n = t.pairs.len();
            // Round-robin from `rr`, wrapping (`rr < n` whenever `n > 0`).
            for idx in (t.rr..n).chain(0..t.rr) {
                let pair = t.pairs[idx];
                if !ready(pair) {
                    continue;
                }
                if let Some(size) = eligible(pair) {
                    t.rr = (idx + 1) % n;
                    t.vtime += size as f64 / t.weight;
                    // The floor a late joiner starts from: over tenants
                    // with any *registered* pair, ready or not.
                    let floor = self
                        .slots
                        .iter()
                        .filter(|t| !t.pairs.is_empty())
                        .map(|t| t.vtime)
                        .fold(f64::INFINITY, f64::min);
                    if floor.is_finite() {
                        self.min_vtime = floor;
                    }
                    picked = Some((pair, size));
                    break 'outer;
                }
            }
        }
        self.order = order;
        picked
    }

    /// The scan-everything pick this scheduler used before the ready
    /// bit, kept as the reference the differential test compares with.
    #[cfg(test)]
    fn pick_reference<F: FnMut(K) -> Option<u32>>(&mut self, mut eligible: F) -> Option<(K, u32)> {
        let mut order: Vec<u32> = (self.slots.iter().enumerate())
            .filter(|(_, t)| !t.pairs.is_empty())
            .map(|(s, _)| s as u32)
            .collect();
        let slots = &self.slots;
        order.sort_by(|&a, &b| {
            let ta = &slots[a as usize];
            let tb = &slots[b as usize];
            ta.vtime
                .partial_cmp(&tb.vtime)
                .expect("NaN vtime")
                .then(ta.id.cmp(&tb.id))
        });
        for &s in &order {
            let t = &mut self.slots[s as usize];
            let n = t.pairs.len();
            for k in 0..n {
                let idx = (t.rr + k) % n;
                let pair = t.pairs[idx];
                if let Some(size) = eligible(pair) {
                    t.rr = (idx + 1) % n;
                    t.vtime += size as f64 / t.weight;
                    let floor = self
                        .slots
                        .iter()
                        .filter(|t| !t.pairs.is_empty())
                        .map(|t| t.vtime)
                        .fold(f64::INFINITY, f64::min);
                    if floor.is_finite() {
                        self.min_vtime = floor;
                    }
                    return Some((pair, size));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn weight_class_bins_to_powers_of_two() {
        assert_eq!(weight_class(0.5, 8), 1.0);
        assert_eq!(weight_class(1.0, 8), 1.0);
        assert_eq!(weight_class(2.0, 8), 2.0);
        assert_eq!(weight_class(3.0, 8), 4.0); // log2(3)≈1.58 rounds to 2
        assert_eq!(weight_class(5.0, 8), 4.0);
        assert_eq!(weight_class(10.0, 8), 8.0);
        assert_eq!(weight_class(1e9, 8), 128.0); // clamped to 2^7
        assert_eq!(weight_class(1e9, 4), 8.0);
    }

    #[test]
    fn shares_proportional_to_weights() {
        let mut s = WfqScheduler::new();
        let t1 = TenantId(1);
        let t5 = TenantId(5);
        s.set_tenant(t1, 1.0);
        s.set_tenant(t5, 4.0);
        s.add_pair(t1, PairId(10));
        s.add_pair(t5, PairId(50));
        let mut counts = HashMap::new();
        for _ in 0..500 {
            let (p, _) = s.pick(|_| Some(1500)).unwrap();
            *counts.entry(p).or_insert(0u32) += 1;
        }
        let c1 = counts[&PairId(10)] as f64;
        let c5 = counts[&PairId(50)] as f64;
        let ratio = c5 / c1;
        assert!((ratio - 4.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn round_robin_within_tenant() {
        let mut s = WfqScheduler::new();
        let t = TenantId(0);
        s.set_tenant(t, 1.0);
        s.add_pair(t, PairId(1));
        s.add_pair(t, PairId(2));
        s.add_pair(t, PairId(3));
        let picks: Vec<u32> = (0..6)
            .map(|_| s.pick(|_| Some(100)).unwrap().0.raw())
            .collect();
        assert_eq!(picks, vec![1, 2, 3, 1, 2, 3]);
    }

    #[test]
    fn ineligible_pairs_skipped_without_charge() {
        let mut s = WfqScheduler::new();
        let ta = TenantId(0);
        let tb = TenantId(1);
        s.set_tenant(ta, 1.0);
        s.set_tenant(tb, 1.0);
        s.add_pair(ta, PairId(1));
        s.add_pair(tb, PairId(2));
        // Pair 1 never eligible: all service goes to pair 2.
        for _ in 0..10 {
            let (p, _) = s
                .pick(|p| if p == PairId(1) { None } else { Some(100) })
                .unwrap();
            assert_eq!(p, PairId(2));
        }
        // Once pair 1 wakes up, it is immediately preferred (lower vtime).
        let (p, _) = s.pick(|_| Some(100)).unwrap();
        assert_eq!(p, PairId(1));
    }

    #[test]
    fn nothing_eligible_returns_none() {
        let mut s = WfqScheduler::new();
        s.set_tenant(TenantId(0), 1.0);
        s.add_pair(TenantId(0), PairId(1));
        assert!(s.pick(|_| None).is_none());
        assert!(WfqScheduler::<PairId>::new().pick(|_| Some(1)).is_none());
    }

    #[test]
    fn late_joiner_not_starved_and_cannot_hog() {
        let mut s = WfqScheduler::new();
        let ta = TenantId(0);
        s.set_tenant(ta, 1.0);
        s.add_pair(ta, PairId(1));
        for _ in 0..100 {
            s.pick(|_| Some(1500)).unwrap();
        }
        // New tenant joins at the current floor, not at zero: it must not
        // monopolise to "catch up".
        let tb = TenantId(1);
        s.set_tenant(tb, 1.0);
        s.add_pair(tb, PairId(2));
        let mut first = Vec::new();
        for _ in 0..10 {
            first.push(s.pick(|_| Some(1500)).unwrap().0.raw());
        }
        let b_share = first.iter().filter(|&&p| p == 2).count();
        assert!(b_share <= 6, "late joiner hogged: {first:?}");
        assert!(b_share >= 4, "late joiner starved: {first:?}");
    }

    #[test]
    fn remove_pair_stops_service() {
        let mut s = WfqScheduler::new();
        let t = TenantId(0);
        s.set_tenant(t, 1.0);
        s.add_pair(t, PairId(1));
        s.add_pair(t, PairId(2));
        s.remove_pair(t, PairId(1));
        for _ in 0..5 {
            assert_eq!(s.pick(|_| Some(10)).unwrap().0, PairId(2));
        }
        assert_eq!(s.n_pairs(), 1);
    }

    #[test]
    fn unready_pairs_and_tenants_are_never_asked() {
        let mut s = WfqScheduler::<u32>::new();
        for t in 0..3 {
            s.set_tenant(TenantId(t), 1.0);
            s.add_pair(TenantId(t), 10 * t);
            s.add_pair(TenantId(t), 10 * t + 1);
        }
        // Only pair 11 is ready: it is the only one asked, whatever the
        // tenants' virtual times say.
        let mut asked = Vec::new();
        let got = s.pick_ready(
            |k| k == 11,
            |k| {
                asked.push(k);
                Some(100)
            },
        );
        assert_eq!((got, asked), (Some((11, 100)), vec![11]));
        assert_eq!(s.pick_ready(|_| false, |_| panic!("asked")), None);
        // The late-joiner floor still spans tenants with registered but
        // unready pairs (vtime 0 here), not only the one that sent.
        assert_eq!(s.min_vtime, 0.0);
        let all: Vec<(TenantId, u32)> = s.queued().collect();
        assert_eq!(all.len(), 6);
        assert_eq!(all[2], (TenantId(1), 10));
    }

    #[test]
    fn removing_an_empty_tenant_changes_no_pick() {
        let run = |drop_idle: bool| {
            let mut s = WfqScheduler::new();
            for t in 0..4 {
                s.set_tenant(TenantId(t), (1 + t) as f64);
                s.add_pair(TenantId(t), PairId(t));
            }
            let mut picks = Vec::new();
            for i in 0..40u32 {
                if i == 10 {
                    s.remove_pair(TenantId(1), PairId(1));
                    if drop_idle {
                        s.remove_tenant(TenantId(1));
                    }
                }
                picks.push(s.pick(|p| Some(100 + 10 * p.raw())).unwrap());
            }
            (picks, s.min_vtime.to_bits(), s.queued().count())
        };
        assert_eq!(run(true), run(false));
    }

    const N_PAIRS: u32 = 12;
    const N_TENANTS: u32 = 4;

    fn snapshot(s: &WfqScheduler<u32>) -> Vec<(u32, u64, u64, usize, Vec<u32>)> {
        let mut v: Vec<_> = (s.slots.iter())
            .map(|t| {
                (
                    t.id.raw(),
                    t.weight.to_bits(),
                    t.vtime.to_bits(),
                    t.rr,
                    t.pairs.clone(),
                )
            })
            .collect();
        v.push((u32::MAX, s.min_vtime.to_bits(), 0, 0, Vec::new()));
        v
    }

    proptest! {
        /// Differential test: the ready-bit pick against the
        /// scan-everything reference, under random tenant/pair churn,
        /// ready-bit flips and eligibility answers. Picked pair, every
        /// `rr`, every `vtime` and `min_vtime` must agree after each
        /// step, bit for bit.
        #[test]
        fn pick_ready_equals_scan_everything_reference(
            ops in prop::collection::vec((0u8..8, 0u32..N_PAIRS, any::<u32>()), 1..200),
        ) {
            let mut new = WfqScheduler::<u32>::new();
            let mut old = WfqScheduler::<u32>::new();
            let mut ready = [false; N_PAIRS as usize];
            for (step, &(op, pair, bits)) in ops.iter().enumerate() {
                let tenant = TenantId(pair % N_TENANTS);
                match op {
                    0 => {
                        let w = (1u32 << (bits % 4)) as f64;
                        new.set_tenant(tenant, w);
                        old.set_tenant(tenant, w);
                    }
                    1 if new.index.contains_key(&tenant) => {
                        new.add_pair(tenant, pair);
                        old.add_pair(tenant, pair);
                    }
                    2 => {
                        new.remove_pair(tenant, pair);
                        old.remove_pair(tenant, pair);
                    }
                    3 => ready[pair as usize] ^= true,
                    4.. => {
                        let size = |k: u32| 64 + 100 * k;
                        let willing = |k: u32| bits >> k & 1 == 1;
                        let got = new.pick_ready(
                            |k| ready[k as usize],
                            |k| {
                                assert!(ready[k as usize], "asked unready pair {k}");
                                willing(k).then(|| size(k))
                            },
                        );
                        let want = old.pick_reference(|k| {
                            (ready[k as usize] && willing(k)).then(|| size(k))
                        });
                        prop_assert_eq!(got, want, "step {}", step);
                    }
                    _ => {}
                }
                prop_assert_eq!(snapshot(&new), snapshot(&old), "step {}", step);
            }
        }
    }
}
