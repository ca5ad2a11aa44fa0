//! Per-tenant edge enforcement stage (DESIGN §10).
//!
//! Three verdicts, all evaluated where the SmartNIC sees the traffic:
//!
//! * **Policer** — a token bucket clocked at the tenant's per-host hose
//!   share (burst = one RTT of guarantee, floored at 2 MTUs). μFAB's own
//!   admission window already bounds honest tenants to their fair share,
//!   so the bucket gates only (a) traffic that *bypassed* the window (a
//!   guarantee-exceeding sender) and (b) everything while a quarantine
//!   clamp is active. In-window traffic still *charges* the bucket, so
//!   an over-guarantee sender cannot collect its window share *plus* a
//!   full hose of overflow. Policing is deferral, not drop: the bytes
//!   stay in the pair's backlog (byte conservation holds) and the WFQ
//!   simply skips the pair until the bucket refills.
//! * **Probe budget** — per observation window, `floor +
//!   margin·hose·window/(8·L_m)` probes; registering probes are exempt
//!   (they carry switch state) but still counted. Honest self-clocked
//!   probing sits far below the budget; a flooder is throttled at the
//!   source.
//! * **Unsolicited-traffic attribution** — connectionless blasts are
//!   structurally dropped at the source NIC (the simulated SmartNIC
//!   only forwards admitted-pair traffic); the enforcement stage adds
//!   the *counter* that attributes the attempt to its tenant so the
//!   quarantine machine can act.
//!
//! Verdicts are deduplicated to **one event per (tenant, observation
//! window)** — the flight-recorder stream stays bounded regardless of
//! abuse intensity, and windows are aligned to the absolute clock grid
//! so event streams are identical at any `--jobs`.
//!
//! Enforcement state is modeled as control-plane-programmed NIC tables:
//! it survives `on_restart` (a rebooting edge program re-reads them),
//! which also means a quarantine clamp cannot be shed by crashing.

use crate::put;
use netsim::{TenantId, Time};
use std::collections::BTreeMap;

/// A byte-clocked token bucket.
#[derive(Debug, Clone)]
pub(crate) struct TokenBucket {
    rate_bps: f64,
    burst_bytes: f64,
    level: f64,
    last: Time,
}

impl TokenBucket {
    /// A full bucket at `now`.
    pub(crate) fn new(rate_bps: f64, burst_bytes: f64, now: Time) -> Self {
        Self {
            rate_bps,
            burst_bytes,
            level: burst_bytes,
            last: now,
        }
    }

    fn refill(&mut self, now: Time) {
        let dt = now.saturating_sub(self.last) as f64 / 1e9;
        self.last = now;
        self.level = (self.level + self.rate_bps * dt / 8.0).min(self.burst_bytes);
    }

    /// Would a `bytes`-sized packet fit right now? Refills but does not
    /// deduct — call [`TokenBucket::charge`] once the packet actually
    /// goes out. One byte of slack absorbs ns-granular pacing rounding,
    /// so a sender paced *exactly* at the bucket rate is never policed.
    pub(crate) fn admit(&mut self, now: Time, bytes: u64) -> bool {
        self.refill(now);
        self.level + 1.0 >= bytes as f64
    }

    /// Deduct a sent packet. Saturating at empty: the bucket gates, it
    /// does not carry debt across regimes (an honest work-conserving
    /// burst above the hose must not be punished retroactively if a
    /// clamp lands later).
    pub(crate) fn charge(&mut self, now: Time, bytes: u64) {
        self.refill(now);
        self.level = (self.level - bytes as f64).max(0.0);
    }

    /// Re-clock the bucket to a new rate (quarantine clamp landing or
    /// lifting), preserving the current level.
    pub(crate) fn set_rate(&mut self, now: Time, rate_bps: f64) {
        self.refill(now);
        self.rate_bps = rate_bps;
    }

    /// Empty the bucket (a clamp starts strict).
    pub(crate) fn drain(&mut self) {
        self.level = 0.0;
    }
}

/// Cumulative enforcement counters for one tenant on one edge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EnfCounters {
    /// Observation windows in which the policer deferred ≥1 packet.
    pub policed_windows: u64,
    /// Total packets deferred by the policer.
    pub policed_pkts: u64,
    /// Observation windows in which the probe budget throttled ≥1 probe.
    pub probe_throttle_windows: u64,
    /// Total probes throttled.
    pub throttled_probes: u64,
    /// Observation windows with ≥1 unsolicited-traffic drop.
    pub unsol_windows: u64,
    /// Total unsolicited packets dropped (at the source NIC).
    pub unsol_pkts: u64,
}

/// Abuse classes an adversarial tenant can exhibit (the `workloads`
/// generators drive these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostileKind {
    /// Guarantee-exceeding sender: ignores the μFAB admission window
    /// and pushes as fast as the scheduler lets it.
    OverGuar,
    /// Probe flooder: emits raw probes far beyond the self-clocked
    /// budget (control-plane DoS on the switches).
    ProbeFlood,
    /// Connectionless blaster: datagrams at unregistered destinations.
    UdpBlast,
}

/// A tenant's hostile behavior model, attached edge-side.
#[derive(Debug, Clone, Copy)]
pub struct HostileProfile {
    /// Which abuse class.
    pub kind: HostileKind,
    /// Intensity multiplier (≥1; generator-specific units).
    pub intensity: u32,
}

/// Flood probes draw sequence numbers from a dedicated space so their
/// responses never collide with honest control state: the source's
/// outstanding/candidate lookups miss and the response is dropped as
/// stale.
const FLOOD_SEQ_BASE: u64 = u64::MAX / 2;

/// Per-tenant enforcement row.
#[derive(Debug, Clone)]
struct TenantEnf {
    tenant: TenantId,
    /// Per-host hose share: Σ tokens of the tenant's VMs on this host
    /// × B_u (bps). 0 until the first pair activation fills it in.
    hose_bps: f64,
    bucket: TokenBucket,
    /// Quarantine clamp (fraction of hose) pushed by the manager.
    clamp: Option<f64>,
    probe_budget: u32,
    probes_this_window: u32,
    window_start: Time,
    policed_this_window: bool,
    throttled_this_window: bool,
    unsol_this_window: bool,
    flood_seq: u64,
    counters: EnfCounters,
    hostile: Option<HostileProfile>,
}

impl TenantEnf {
    fn placeholder(tenant: TenantId, now: Time) -> Self {
        Self {
            tenant,
            hose_bps: 0.0,
            bucket: TokenBucket::new(0.0, 0.0, now),
            clamp: None,
            probe_budget: u32::MAX,
            probes_this_window: 0,
            window_start: 0,
            policed_this_window: false,
            throttled_this_window: false,
            unsol_this_window: false,
            flood_seq: FLOOD_SEQ_BASE,
            counters: EnfCounters::default(),
            hostile: None,
        }
    }
}

/// The whole enforcement stage of one edge.
///
/// Rows live in a `Vec`, and a row number stays valid until its tenant
/// is removed (across `on_restart` too): the pair table caches it per
/// pair and the per-packet gates index directly. Only a retired tenant
/// whose last pair on the edge is released is removed, so no pair can
/// still name its row; the number goes on a free list. The
/// control-plane entry points take a `TenantId` and go through the
/// `BTreeMap` index, whose key order also gives every tenant walk a
/// sorted, deterministic order.
#[derive(Debug, Default)]
pub(crate) struct EnforceState {
    /// Master switch (mirrors `UfabConfig::enforce`). Off ⇒ every gate
    /// admits and no counter moves: zero behavior change.
    pub enabled: bool,
    /// Observation window length (ns).
    pub window: Time,
    index: BTreeMap<TenantId, u32>,
    rows: Vec<TenantEnf>,
    /// Rows of removed tenants, reused before `rows` grows.
    free: Vec<u32>,
    /// Verdicts awaiting the obs flush: (tenant, class, aux).
    pending: Vec<(TenantId, &'static str, u64)>,
    /// A policer gate deferred a packet (or a clamp was re-clocked)
    /// since the last [`EnforceState::take_deferred`]: the edge must
    /// keep pumping on its tick clock, because a fully-gated pair has
    /// no ack arrivals to pull the scheduler. Never set on the clean
    /// path, so honest-only edges pay no extra pump work.
    deferred: bool,
}

impl EnforceState {
    /// An empty stage with the given master switch and window length.
    pub(crate) fn new(enabled: bool, window: Time) -> Self {
        Self {
            enabled,
            window,
            ..Self::default()
        }
    }

    /// Roll `e` onto the absolute-clock-aligned window containing `now`.
    fn roll(e: &mut TenantEnf, window: Time, now: Time) {
        if window == 0 {
            return;
        }
        let ws = (now / window) * window;
        if ws != e.window_start {
            e.window_start = ws;
            e.probes_this_window = 0;
            e.policed_this_window = false;
            e.throttled_this_window = false;
            e.unsol_this_window = false;
        }
    }

    /// The tenant's row, created as a placeholder on first sight.
    fn row_or_insert(&mut self, tenant: TenantId, now: Time) -> &mut TenantEnf {
        let r = match self.index.get(&tenant) {
            Some(&r) => r as usize,
            None => {
                let r = self.free.pop().map_or(self.rows.len(), |r| r as usize);
                put(&mut self.rows, r, TenantEnf::placeholder(tenant, now));
                self.index.insert(tenant, r as u32);
                r
            }
        };
        &mut self.rows[r]
    }

    /// Remove a tenant none of whose pairs is left on this edge. Its
    /// counters stop moving once its pairs are gone, so dropping them
    /// is not observable — except for a hostile tenant, whose generator
    /// goes on attributing blasts to its row: that row stays.
    pub(crate) fn remove(&mut self, tenant: TenantId) {
        let Some(&r) = self.index.get(&tenant) else {
            return;
        };
        if self.rows[r as usize].hostile.is_none() {
            self.index.remove(&tenant);
            self.free.push(r);
        }
    }

    /// The tenant's row number, if registered.
    pub(crate) fn row(&self, tenant: TenantId) -> Option<u32> {
        self.index.get(&tenant).copied()
    }

    /// Register `tenant` with its per-host hose parameters (idempotent;
    /// a placeholder created by [`EnforceState::set_hostile`] is filled
    /// in on first call, and a changed hose re-clocks the policer).
    pub(crate) fn ensure(
        &mut self,
        tenant: TenantId,
        hose_bps: f64,
        burst_bytes: f64,
        probe_budget: u32,
        now: Time,
    ) {
        let e = self.row_or_insert(tenant, now);
        if hose_bps > 0.0 && e.hose_bps != hose_bps {
            e.hose_bps = hose_bps;
            let rate = hose_bps * e.clamp.unwrap_or(1.0);
            e.bucket = TokenBucket::new(rate, burst_bytes, now);
            e.probe_budget = probe_budget;
        }
    }

    /// Registered *and* carrying real hose parameters (a
    /// [`EnforceState::set_hostile`] placeholder is not yet
    /// provisioned).
    pub(crate) fn is_provisioned(&self, tenant: TenantId) -> bool {
        self.row(tenant)
            .is_some_and(|r| self.rows[r as usize].hose_bps > 0.0)
    }

    /// Send-time policer gate for one prospective data packet of the
    /// tenant in `row`. `over_window` marks traffic that bypassed the
    /// μFAB admission window (a guarantee-exceeding sender); in-window
    /// traffic is gated only while a quarantine clamp is active.
    pub(crate) fn data_admit(
        &mut self,
        row: u32,
        now: Time,
        bytes: u64,
        over_window: bool,
    ) -> bool {
        if !self.enabled {
            return true;
        }
        let e = &mut self.rows[row as usize];
        Self::roll(e, self.window, now);
        if e.clamp.is_none() && !over_window {
            return true;
        }
        if e.bucket.admit(now, bytes) {
            return true;
        }
        e.counters.policed_pkts += 1;
        if !e.policed_this_window {
            e.policed_this_window = true;
            e.counters.policed_windows += 1;
            self.pending
                .push((e.tenant, "policed", e.counters.policed_pkts));
        }
        self.deferred = true;
        false
    }

    /// Whether any gate deferred traffic since the last call (clearing
    /// the flag). The edge tick re-pumps while this keeps re-arming.
    pub(crate) fn take_deferred(&mut self) -> bool {
        std::mem::take(&mut self.deferred)
    }

    /// Charge an actually-sent data packet against the bucket of the
    /// tenant in `row`. All traffic charges (so over-window overflow
    /// competes with the in-window share for the same hose), only gated
    /// traffic defers.
    pub(crate) fn data_charge(&mut self, row: u32, now: Time, bytes: u64) {
        if self.enabled {
            self.rows[row as usize].bucket.charge(now, bytes);
        }
    }

    /// Probe-budget gate. Registering probes are exempt (they carry
    /// switch registration state) but still count against the window.
    pub(crate) fn probe_admit(&mut self, row: u32, now: Time, registering: bool) -> bool {
        if !self.enabled {
            return true;
        }
        let e = &mut self.rows[row as usize];
        Self::roll(e, self.window, now);
        e.probes_this_window += 1;
        if registering || e.probes_this_window <= e.probe_budget {
            return true;
        }
        e.counters.throttled_probes += 1;
        if !e.throttled_this_window {
            e.throttled_this_window = true;
            e.counters.probe_throttle_windows += 1;
            self.pending
                .push((e.tenant, "probe_throttle", e.probes_this_window as u64));
        }
        false
    }

    /// Attribute `pkts` unsolicited packets (dropped at the source NIC)
    /// to the tenant in `row`.
    pub(crate) fn note_unsolicited(&mut self, row: u32, now: Time, pkts: u64) {
        if !self.enabled || pkts == 0 {
            return;
        }
        let e = &mut self.rows[row as usize];
        Self::roll(e, self.window, now);
        e.counters.unsol_pkts += pkts;
        if !e.unsol_this_window {
            e.unsol_this_window = true;
            e.counters.unsol_windows += 1;
            self.pending.push((e.tenant, "unsolicited", pkts));
        }
    }

    /// Apply or lift a quarantine clamp: the bucket is re-clocked to
    /// `fraction × hose` and drained (the clamp starts strict), and
    /// *all* the tenant's traffic is gated until the clamp lifts.
    pub(crate) fn set_clamp(&mut self, tenant: TenantId, now: Time, clamp: Option<f64>) {
        let e = self.row_or_insert(tenant, now);
        e.clamp = clamp;
        match clamp {
            Some(f) => {
                e.bucket.set_rate(now, e.hose_bps * f);
                e.bucket.drain();
            }
            None => e.bucket.set_rate(now, e.hose_bps),
        }
        // Either direction needs a pump: a fresh clamp must start
        // deferring queued traffic, a lifted one must release it.
        self.deferred = true;
    }

    /// Attach a hostile behavior model to a tenant (workload setup).
    pub(crate) fn set_hostile(&mut self, tenant: TenantId, profile: HostileProfile, now: Time) {
        self.row_or_insert(tenant, now).hostile = Some(profile);
    }

    /// Does the tenant in `row` bypass the admission window (OverGuar
    /// model)?
    pub(crate) fn is_overguar(&self, row: u32) -> bool {
        self.rows[row as usize]
            .hostile
            .is_some_and(|h| h.kind == HostileKind::OverGuar)
    }

    /// The rows of all hostile tenants, ascending tenant id.
    pub(crate) fn hostile_rows(&self) -> Vec<(u32, HostileProfile)> {
        self.index
            .values()
            .filter_map(|&r| self.rows[r as usize].hostile.map(|h| (r, h)))
            .collect()
    }

    /// Next flood-probe sequence number for the hostile tenant in `row`.
    pub(crate) fn next_flood_seq(&mut self, row: u32) -> u64 {
        let e = &mut self.rows[row as usize];
        let s = e.flood_seq;
        e.flood_seq += 1;
        s
    }

    /// Cumulative counters of one tenant.
    pub(crate) fn counters(&self, tenant: TenantId) -> Option<EnfCounters> {
        self.row(tenant).map(|r| self.rows[r as usize].counters)
    }

    /// Registered tenants in ascending id order.
    pub(crate) fn tenant_ids(&self) -> Vec<TenantId> {
        self.index.keys().copied().collect()
    }

    /// Drain the verdict events awaiting the obs flush.
    pub(crate) fn take_pending(&mut self) -> Vec<(TenantId, &'static str, u64)> {
        std::mem::take(&mut self.pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MTU: u64 = 1500;

    #[test]
    fn exact_rate_sender_is_never_policed() {
        // 1 Gbps bucket, 2-MTU burst; MTU packets paced at exactly the
        // bucket rate (12 µs apart) must all be admitted forever.
        let mut b = TokenBucket::new(1e9, 2.0 * MTU as f64, 0);
        let gap = MTU * 8; // ns per packet at 1 Gbps
        let mut now = 0;
        for _ in 0..10_000 {
            assert!(b.admit(now, MTU), "policed at {now}");
            b.charge(now, MTU);
            now += gap;
        }
    }

    #[test]
    fn burst_beyond_rate_is_policed_then_recovers() {
        let mut b = TokenBucket::new(1e9, 2.0 * MTU as f64, 0);
        // Burst absorbs two MTUs back-to-back, then the gate closes.
        assert!(b.admit(0, MTU));
        b.charge(0, MTU);
        assert!(b.admit(0, MTU));
        b.charge(0, MTU);
        assert!(!b.admit(0, MTU));
        // One packet-time later exactly one more fits.
        let gap = MTU * 8;
        assert!(b.admit(gap, MTU));
        b.charge(gap, MTU);
        assert!(!b.admit(gap, MTU));
    }

    /// An armed stage with one provisioned tenant, and that tenant's row.
    fn armed(window: Time) -> (EnforceState, u32) {
        let mut e = EnforceState::new(true, window);
        e.ensure(TenantId(7), 1e9, 2.0 * MTU as f64, 4, 0);
        let row = e.row(TenantId(7)).unwrap();
        (e, row)
    }

    #[test]
    fn disabled_stage_admits_everything_and_counts_nothing() {
        let (mut e, r) = armed(250_000);
        e.enabled = false;
        for _ in 0..100 {
            assert!(e.data_admit(r, 0, MTU, true));
            assert!(e.probe_admit(r, 0, false));
        }
        e.note_unsolicited(r, 0, 64);
        assert_eq!(e.counters(TenantId(7)).unwrap(), EnfCounters::default());
        assert!(e.take_pending().is_empty());
    }

    #[test]
    fn in_window_traffic_passes_but_still_charges() {
        let (mut e, r) = armed(250_000);
        // Unclamped, in-window: always admitted even with an empty
        // bucket...
        for _ in 0..10 {
            assert!(e.data_admit(r, 0, MTU, false));
            e.data_charge(r, 0, MTU);
        }
        // ...but the charges drained the hose, so over-window overflow
        // is policed immediately.
        assert!(!e.data_admit(r, 0, MTU, true));
        assert_eq!(e.counters(TenantId(7)).unwrap().policed_windows, 1);
    }

    #[test]
    fn verdict_events_dedupe_to_one_per_window() {
        let (mut e, r) = armed(250_000);
        // Drain the burst, then hammer within one window.
        e.data_charge(r, 0, 2 * MTU);
        for _ in 0..50 {
            assert!(!e.data_admit(r, 10, MTU, true));
        }
        let c = e.counters(TenantId(7)).unwrap();
        assert_eq!(c.policed_windows, 1);
        assert_eq!(c.policed_pkts, 50);
        assert_eq!(e.take_pending().len(), 1);
        // Next window: one more event.
        assert!(!e.data_admit(r, 250_000 + 10, 100 * MTU, true));
        assert_eq!(e.counters(TenantId(7)).unwrap().policed_windows, 2);
        assert_eq!(e.take_pending(), vec![(TenantId(7), "policed", 51)]);
    }

    #[test]
    fn clamp_gates_in_window_traffic_at_penalty_rate() {
        let (mut e, r) = armed(250_000);
        e.set_clamp(TenantId(7), 0, Some(0.1));
        // Clamp starts drained: nothing passes at t=0.
        assert!(!e.data_admit(r, 0, MTU, false));
        // At 100 Mbps, one MTU refills in 120 µs.
        assert!(e.data_admit(r, 120_000, MTU, false));
        e.data_charge(r, 120_000, MTU);
        assert!(!e.data_admit(r, 120_001, MTU, false));
        // Lifting the clamp restores the full hose clock.
        e.set_clamp(TenantId(7), 120_001, None);
        assert!(e.data_admit(r, 120_001 + MTU * 8, MTU, true));
    }

    #[test]
    fn probe_budget_throttles_floods_but_exempts_registering() {
        let (mut e, r) = armed(250_000);
        for _ in 0..4 {
            assert!(e.probe_admit(r, 0, false));
        }
        assert!(!e.probe_admit(r, 0, false));
        // Registering probes pass even over budget.
        assert!(e.probe_admit(r, 0, true));
        let c = e.counters(TenantId(7)).unwrap();
        assert_eq!(c.probe_throttle_windows, 1);
        assert_eq!(c.throttled_probes, 1);
        // Budget resets with the window.
        assert!(e.probe_admit(r, 250_000, false));
    }

    #[test]
    fn flood_seqs_live_in_their_own_space() {
        let (mut e, r) = armed(250_000);
        let a = e.next_flood_seq(r);
        let b = e.next_flood_seq(r);
        assert_eq!(a, FLOOD_SEQ_BASE);
        assert_eq!(b, FLOOD_SEQ_BASE + 1);
    }
}
