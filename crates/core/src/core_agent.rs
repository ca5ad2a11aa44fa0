//! μFAB-C: the informative core (§3.6, §4.2).
//!
//! One [`UfabCore`] runs per programmable switch. For every egress port it
//! keeps the two demand registers (Φ_l — total bandwidth token, W_l —
//! total sending window) plus a counting Bloom filter that recognises
//! active VM-pairs. At egress dequeue (exactly where a P4 pipeline runs)
//! it:
//!
//! * reads a probe's demand and updates the port summary — a *registering*
//!   probe (first on a pair/path epoch) inserts the pair and adds its full
//!   values, unless the Bloom filter already claims the pair (a false
//!   positive), in which case the contribution is **omitted** — the §3.6
//!   failure mode whose impact the paper argues is digested by capacity
//!   headroom and migration; subsequent probes carry edge-computed deltas
//!   that are applied unconditionally (the paper leaves the update
//!   mechanics unspecified; see DESIGN.md §1);
//! * stamps the probe with this link's telemetry: W_l, Φ_l, tx_l, q_l,
//!   C_l (§3.2's five critical items);
//! * processes finish probes: subtracts the pair's registered values,
//!   removes it from the filter, and appends an acknowledgement bit;
//! * periodically sweeps silently-inactive pairs (no probe within the
//!   cleanup period) out of the registers — §4.2's "handling silently
//!   inactive VM-pairs".
//!
//! A deliberate modelling note: the switch keeps a per-pair shadow map
//! `(φ, w, last_seen)` to drive the idle sweep. On Tofino this is realised
//! with hashed register banks at the granularity the Bloom filter permits;
//! the shadow map models the same accounting without the hash-collision
//! noise (whose headline effect — omissions — is already modelled by the
//! Bloom filter itself).

use crate::config::UfabConfig;
use netsim::agent::{PortView, SwitchAgent, SwitchCtx};
use netsim::packet::{Packet, PacketKind};
use netsim::{FastMap, Time};
use obs::{Category, Event as ObsEvent, ObsHandle};
use std::any::Any;
use telemetry::{wire, CountingBloom, DemandRegisters, HopInfo};

/// Timer kind used for the periodic idle cleanup.
const CLEANUP_TIMER: u64 = 0xC1EA;

/// Hardware shape of one μFAB-C switch — the knobs the `dse` design-space
/// sweep varies, bundled so the construction site names them once.
///
/// Every field maps to a mechanism, not just a cost entry:
/// `bloom_bytes`/`bloom_hashes` size the per-port counting filter whose
/// false positives *omit* registrations (§3.6); `reg_width_bits`
/// saturates the Φ_l/W_l values stamped into probes; `int_hop_depth`
/// truncates telemetry past the header budget; `cleanup_period` bounds
/// stale-registration lifetime (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreHwCfg {
    /// Counting-Bloom memory per egress port (paper: 20 KB).
    pub bloom_bytes: usize,
    /// Bloom hash functions / register banks (paper: 2).
    pub bloom_hashes: u8,
    /// Idle-pair cleanup period (paper deployment: 10 s).
    pub cleanup_period: Time,
    /// Demand-register read-out width in bits (32 never saturates).
    pub reg_width_bits: u8,
    /// Max INT hop records per probe (8 never truncates in-sim).
    pub int_hop_depth: u8,
}

impl From<&UfabConfig> for CoreHwCfg {
    fn from(cfg: &UfabConfig) -> Self {
        Self {
            bloom_bytes: cfg.bloom_bytes,
            bloom_hashes: cfg.bloom_hashes,
            cleanup_period: cfg.core_cleanup_period,
            reg_width_bits: cfg.reg_width_bits,
            int_hop_depth: cfg.int_hop_depth,
        }
    }
}

/// Largest value a `bits`-wide register encodes, in wire units.
fn reg_cap_units(bits: u8) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

#[derive(Debug, Clone, Copy)]
struct PairReg {
    phi: f64,
    w: f64,
    last_seen: Time,
    epoch: u64,
}

/// Per-egress-port summary state.
#[derive(Debug)]
pub struct PortSummary {
    /// The Φ_l / W_l registers.
    pub registers: DemandRegisters,
    bloom: CountingBloom,
    pairs: FastMap<u32, PairReg>,
}

impl PortSummary {
    fn new(bloom_bytes: usize, bloom_hashes: u8) -> Self {
        Self {
            registers: DemandRegisters::new(),
            bloom: CountingBloom::with_hashes(bloom_bytes, bloom_hashes),
            pairs: FastMap::default(),
        }
    }

    /// Number of tracked (registered) pairs.
    pub(crate) fn n_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Sum of the per-pair shadow contributions: (Σφ, Σw). The §3.6
    /// conservation invariant says these equal the port's Φ_l / W_l
    /// registers (up to float accumulation error).
    pub(crate) fn pair_sums(&self) -> (f64, f64) {
        self.pairs
            .values()
            .fold((0.0, 0.0), |(p, w), pr| (p + pr.phi, w + pr.w))
    }

    /// Registrations not refreshed since `cutoff`. The idle sweep
    /// (§4.2) must reclaim these; the `StaleRegistrationSweep`
    /// invariant uses this to bound leak lifetime under faults.
    pub fn stale_pairs(&self, cutoff: Time) -> usize {
        self.pairs
            .values()
            .filter(|pr| pr.last_seen < cutoff)
            .count()
    }
}

/// Counters exported for tests and the resource accounting harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreStats {
    /// Probes processed.
    pub probes: u64,
    /// Registrations accepted.
    pub registrations: u64,
    /// Registrations omitted due to Bloom-filter false positives.
    pub fp_omissions: u64,
    /// Finish probes processed.
    pub finishes: u64,
    /// Pairs swept by the idle cleanup.
    pub swept: u64,
    /// Full state wipes (chaos switch reboot).
    pub wipes: u64,
    /// Probes whose stamped Φ_l or W_l saturated the register width.
    pub reg_clamps: u64,
    /// Probes forwarded unstamped because the INT header budget
    /// (`int_hop_depth`) was already exhausted.
    pub int_truncations: u64,
}

/// The μFAB-C switch agent.
pub struct UfabCore {
    ports: FastMap<u16, PortSummary>,
    hw: CoreHwCfg,
    /// Stamped-value saturation points derived from `hw.reg_width_bits`
    /// (Φ in tokens, W in bytes — the Appendix-G wire units).
    phi_cap: f64,
    w_cap: f64,
    /// Counters.
    pub stats: CoreStats,
    obs: ObsHandle,
}

impl UfabCore {
    /// Create a core agent with the paper's hardware shape except for
    /// the two historically-configurable knobs: `bloom_bytes` is the
    /// per-port filter size (paper: 20 KB); `cleanup_period` the idle
    /// sweep interval (paper: 10 s — experiments often shorten it to
    /// keep runs brief).
    pub fn new(bloom_bytes: usize, cleanup_period: Time) -> Self {
        Self::with_hw(CoreHwCfg {
            bloom_bytes,
            cleanup_period,
            ..CoreHwCfg::from(&UfabConfig::default())
        })
    }

    /// Create a core agent with an explicit hardware shape (the `dse`
    /// sweep's construction path).
    pub fn with_hw(hw: CoreHwCfg) -> Self {
        let cap = reg_cap_units(hw.reg_width_bits);
        Self {
            ports: FastMap::default(),
            hw,
            phi_cap: cap as f64,
            w_cap: (cap as f64) * wire::W_UNIT_BYTES as f64,
            stats: CoreStats::default(),
            obs: ObsHandle::disabled(),
        }
    }

    /// Attach a flight-recorder handle (shared with the simulator's) so
    /// register mutations leave a trace.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// Summary for a port, if any probe has touched it.
    #[cfg(test)]
    fn port_summary(&self, port: u16) -> Option<&PortSummary> {
        self.ports.get(&port)
    }

    /// All touched ports and their summaries (invariant checkers).
    pub fn port_summaries(&self) -> impl Iterator<Item = (u16, &PortSummary)> {
        self.ports.iter().map(|(&p, s)| (p, s))
    }

    /// Fault injection: mutable summary access so invariant-checker
    /// tests can desynchronise the Φ_l/W_l registers from the per-pair
    /// shadow state. Never called on the production path.
    #[doc(hidden)]
    pub fn port_summary_mut(&mut self, port: u16) -> Option<&mut PortSummary> {
        self.ports.get_mut(&port)
    }

    /// Φ_l of a port (0 if untouched).
    #[cfg(test)]
    fn phi_total(&self, port: u16) -> f64 {
        self.ports
            .get(&port)
            .map(|p| p.registers.phi_total())
            .unwrap_or(0.0)
    }

    /// W_l of a port (0 if untouched).
    #[cfg(test)]
    fn w_total(&self, port: u16) -> f64 {
        self.ports
            .get(&port)
            .map(|p| p.registers.w_total())
            .unwrap_or(0.0)
    }
}

impl SwitchAgent for UfabCore {
    fn on_start(&mut self, ctx: &mut SwitchCtx) {
        ctx.set_timer(self.hw.cleanup_period, CLEANUP_TIMER);
    }

    fn on_egress(&mut self, ctx: &mut SwitchCtx, view: PortView, pkt: &mut Packet) {
        let now = ctx.now;
        let node = ctx.node.raw();
        match &mut pkt.kind {
            PacketKind::Probe(frame) => {
                self.stats.probes += 1;
                let hw = self.hw;
                let stats = &mut self.stats;
                let obs = &self.obs;
                let st = self
                    .ports
                    .entry(view.port.raw())
                    .or_insert_with(|| PortSummary::new(hw.bloom_bytes, hw.bloom_hashes));
                let key = frame.pair as u64;
                if frame.registering {
                    let seen = st.bloom.insert(key);
                    if seen && !st.pairs.contains_key(&frame.pair) {
                        // Bloom false positive: the pair looks already
                        // registered, so its contribution is omitted.
                        stats.fp_omissions += 1;
                        // The counting filter took an insert; undo it so
                        // a later finish of the colliding pair still
                        // clears correctly.
                        st.bloom.remove(key);
                    } else {
                        let (mut d_phi, mut d_w) = (frame.phi, frame.w);
                        if let Some(prev) = st.pairs.get(&frame.pair).copied() {
                            // Re-registration (e.g. probe retry): replace.
                            st.registers.add_phi(-prev.phi);
                            st.registers.add_w(-prev.w);
                            st.bloom.remove(key);
                            d_phi -= prev.phi;
                            d_w -= prev.w;
                        }
                        st.registers.add_phi(frame.phi);
                        st.registers.add_w(frame.w);
                        st.pairs.insert(
                            frame.pair,
                            PairReg {
                                phi: frame.phi,
                                w: frame.w,
                                last_seen: now,
                                epoch: frame.epoch,
                            },
                        );
                        stats.registrations += 1;
                        let n_pairs = st.pairs.len() as u32;
                        obs.rec(Category::Register, now, || ObsEvent::Register {
                            switch: node,
                            port: view.port.raw(),
                            pair: frame.pair,
                            d_phi,
                            d_w,
                            n_pairs,
                        });
                    }
                } else if frame.phi_delta != 0.0 || frame.w_delta != 0.0 {
                    // Apply the *effective* delta (after the shadow map's
                    // floor at zero) to the registers too, so Φ_l / W_l
                    // stay exactly the sum of live registrations (§3.6
                    // conservation).
                    let (d_phi, d_w) = match st.pairs.get_mut(&frame.pair) {
                        Some(pr) => {
                            let new_phi = (pr.phi + frame.phi_delta).max(0.0);
                            let new_w = (pr.w + frame.w_delta).max(0.0);
                            let d = (new_phi - pr.phi, new_w - pr.w);
                            pr.phi = new_phi;
                            pr.w = new_w;
                            pr.last_seen = now;
                            d
                        }
                        None => {
                            // Deltas for an unknown pair (registration was
                            // omitted or swept): start tracking what we see.
                            let phi0 = frame.phi_delta.max(0.0);
                            let w0 = frame.w_delta.max(0.0);
                            st.pairs.insert(
                                frame.pair,
                                PairReg {
                                    phi: phi0,
                                    w: w0,
                                    last_seen: now,
                                    epoch: frame.epoch,
                                },
                            );
                            st.bloom.insert(key);
                            (phi0, w0)
                        }
                    };
                    st.registers.add_phi(d_phi);
                    st.registers.add_w(d_w);
                    let n_pairs = st.pairs.len() as u32;
                    obs.rec(Category::Register, now, || ObsEvent::Register {
                        switch: node,
                        port: view.port.raw(),
                        pair: frame.pair,
                        d_phi,
                        d_w,
                        n_pairs,
                    });
                } else if let Some(pr) = st.pairs.get_mut(&frame.pair) {
                    // Pure telemetry read (candidate-path probe carries no
                    // deltas) still refreshes liveness for registered pairs.
                    pr.last_seen = now;
                }
                // Stamp this link's telemetry (§3.2) — if the INT header
                // budget allows one more record. A switch past the depth
                // forwards the probe unstamped, so the edge's Eqn-1/3
                // minima simply never see this (possibly bottleneck)
                // link. Stamped Φ_l/W_l saturate at the register
                // read-out width: accumulation stays exact (the §3.6
                // conservation invariant compares *internal* registers),
                // but a narrow register cannot tell the edge how
                // subscribed the port really is.
                if frame.hops.len() < self.hw.int_hop_depth as usize {
                    let phi = st.registers.phi_total();
                    let w = st.registers.w_total();
                    if phi > self.phi_cap || w > self.w_cap {
                        self.stats.reg_clamps += 1;
                    }
                    frame.hops.push(HopInfo {
                        node,
                        port: view.port.raw() as u32,
                        w_total: w.min(self.w_cap),
                        phi_total: phi.min(self.phi_cap),
                        tx_bps: view.tx_bps,
                        q_bytes: view.q_bytes,
                        cap_bps: view.cap_bps,
                    });
                } else {
                    self.stats.int_truncations += 1;
                }
            }
            PacketKind::Finish(frame) if frame.forward => {
                self.stats.finishes += 1;
                let hw = self.hw;
                let st = self
                    .ports
                    .entry(view.port.raw())
                    .or_insert_with(|| PortSummary::new(hw.bloom_bytes, hw.bloom_hashes));
                // Only clear the epoch this finish belongs to: a newer
                // registration sharing this link must survive a stale or
                // retried finish.
                let matches = st
                    .pairs
                    .get(&frame.pair)
                    .map(|pr| pr.epoch == frame.epoch)
                    .unwrap_or(false);
                if matches {
                    if let Some(pr) = st.pairs.remove(&frame.pair) {
                        st.registers.add_phi(-pr.phi);
                        st.registers.add_w(-pr.w);
                        st.bloom.remove(frame.pair as u64);
                        let n_pairs = st.pairs.len() as u32;
                        self.obs
                            .rec(Category::Register, now, || ObsEvent::Register {
                                switch: node,
                                port: view.port.raw(),
                                pair: frame.pair,
                                d_phi: -pr.phi,
                                d_w: -pr.w,
                                n_pairs,
                            });
                    }
                }
                // Acknowledge (idempotent for unknown/stale epochs).
                frame.acks.push(true);
            }
            // Responses, finish echoes, data and ACKs pass untouched.
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut SwitchCtx, kind: u64) {
        if kind != CLEANUP_TIMER {
            return;
        }
        let cutoff = ctx.now.saturating_sub(self.hw.cleanup_period);
        let node = ctx.node.raw();
        let obs = &self.obs;
        // Sorted walks: the maps are lookup-only, so the order registers
        // are decremented (and events recorded) in never depends on
        // hash state.
        let mut ports: Vec<u16> = self.ports.keys().copied().collect();
        ports.sort_unstable();
        for portno in ports {
            let st = self.ports.get_mut(&portno).expect("listed above");
            let mut stale: Vec<u32> = st
                .pairs
                .iter()
                .filter(|(_, pr)| pr.last_seen < cutoff)
                .map(|(&p, _)| p)
                .collect();
            stale.sort_unstable();
            for p in stale {
                if let Some(pr) = st.pairs.remove(&p) {
                    st.registers.add_phi(-pr.phi);
                    st.registers.add_w(-pr.w);
                    st.bloom.remove(p as u64);
                    self.stats.swept += 1;
                    let n_pairs = st.pairs.len() as u32;
                    obs.rec(Category::Register, ctx.now, || ObsEvent::Register {
                        switch: node,
                        port: portno,
                        pair: p,
                        d_phi: -pr.phi,
                        d_w: -pr.w,
                        n_pairs,
                    });
                }
            }
        }
        ctx.set_timer(self.hw.cleanup_period, CLEANUP_TIMER);
    }

    fn on_reset(&mut self, _ctx: &mut SwitchCtx) {
        // Switch reboot: registers, Bloom filters and the shadow map
        // are one memory — they vanish together, so the §3.6
        // conservation invariant holds across the wipe (0 == Σ∅).
        // Edges re-register through normal probing; registrations the
        // dead switch still "owes" other paths are reclaimed by their
        // own idle sweeps. The cleanup timer armed at start keeps
        // firing — a reboot does not disable garbage collection.
        self.ports.clear();
        self.stats.wipes += 1;
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::agent::Effects;
    use netsim::{NodeId, PairId, PortNo, TenantId, MS};
    use telemetry::{FinishFrame, ProbeFrame};

    fn view(port: u16) -> PortView {
        PortView {
            port: PortNo(port),
            q_bytes: 3000,
            tx_bps: 5e9,
            cap_bps: 10_000_000_000,
        }
    }

    fn probe_pkt(pair: u32, phi: f64, w: f64, registering: bool) -> Packet {
        let mut frame = ProbeFrame::probe(pair, 0, phi, w, 0);
        frame.registering = registering;
        Packet {
            src: NodeId(0),
            dst: NodeId(1),
            pair: PairId(pair),
            tenant: TenantId(0),
            size: 90,
            kind: PacketKind::Probe(frame),
            route: netsim::Route::new(),
            hop: 0,
            max_util: 0.0,
            sent_at: 0,
        }
    }

    fn run_egress(core: &mut UfabCore, now: Time, port: u16, pkt: &mut Packet) {
        let mut fx = Effects::new();
        let mut ctx = SwitchCtx::standalone(now, NodeId(9), &mut fx);
        core.on_egress(&mut ctx, view(port), pkt);
    }

    #[test]
    fn registration_accumulates_and_stamps() {
        let mut core = UfabCore::new(4096, MS);
        let mut p1 = probe_pkt(1, 2.0, 30_000.0, true);
        run_egress(&mut core, 10, 0, &mut p1);
        let mut p2 = probe_pkt(2, 3.0, 10_000.0, true);
        run_egress(&mut core, 20, 0, &mut p2);
        assert_eq!(core.phi_total(0), 5.0);
        assert_eq!(core.w_total(0), 40_000.0);
        assert_eq!(core.port_summary(0).unwrap().n_pairs(), 2);
        // INT stamped on the probe.
        let PacketKind::Probe(f) = &p2.kind else {
            panic!()
        };
        assert_eq!(f.hops.len(), 1);
        let h = &f.hops[0];
        assert_eq!(h.phi_total, 5.0);
        assert_eq!(h.q_bytes, 3000);
        assert_eq!(h.cap_bps, 10_000_000_000);
        assert_eq!(h.node, 9);
    }

    #[test]
    fn deltas_update_registers() {
        let mut core = UfabCore::new(4096, MS);
        let mut reg = probe_pkt(1, 2.0, 30_000.0, true);
        run_egress(&mut core, 0, 0, &mut reg);
        let mut upd = probe_pkt(1, 2.5, 40_000.0, false);
        if let PacketKind::Probe(f) = &mut upd.kind {
            f.phi_delta = 0.5;
            f.w_delta = 10_000.0;
        }
        run_egress(&mut core, 10, 0, &mut upd);
        assert_eq!(core.phi_total(0), 2.5);
        assert_eq!(core.w_total(0), 40_000.0);
        assert_eq!(core.port_summary(0).unwrap().n_pairs(), 1);
    }

    #[test]
    fn per_port_isolation() {
        let mut core = UfabCore::new(4096, MS);
        run_egress(&mut core, 0, 0, &mut probe_pkt(1, 1.0, 100.0, true));
        run_egress(&mut core, 0, 3, &mut probe_pkt(2, 4.0, 200.0, true));
        assert_eq!(core.phi_total(0), 1.0);
        assert_eq!(core.phi_total(3), 4.0);
        assert_eq!(core.phi_total(7), 0.0);
    }

    #[test]
    fn finish_removes_and_acks() {
        let mut core = UfabCore::new(4096, MS);
        run_egress(&mut core, 0, 0, &mut probe_pkt(1, 2.0, 30_000.0, true));
        let mut fin = Packet {
            kind: PacketKind::Finish(FinishFrame::new(1, 0, 2.0, 30_000.0)),
            ..probe_pkt(1, 0.0, 0.0, false)
        };
        run_egress(&mut core, 50, 0, &mut fin);
        assert_eq!(core.phi_total(0), 0.0);
        assert_eq!(core.w_total(0), 0.0);
        let PacketKind::Finish(f) = &fin.kind else {
            panic!()
        };
        assert_eq!(f.acks, vec![true]);
        // Finishing an unknown pair still acks (idempotent).
        let mut fin2 = Packet {
            kind: PacketKind::Finish(FinishFrame::new(42, 0, 1.0, 1.0)),
            ..probe_pkt(42, 0.0, 0.0, false)
        };
        run_egress(&mut core, 60, 0, &mut fin2);
        assert_eq!(core.phi_total(0), 0.0);
    }

    #[test]
    fn reregistration_replaces_not_double_counts() {
        let mut core = UfabCore::new(4096, MS);
        run_egress(&mut core, 0, 0, &mut probe_pkt(1, 2.0, 100.0, true));
        // The edge retries registration (lost response).
        run_egress(&mut core, 10, 0, &mut probe_pkt(1, 3.0, 150.0, true));
        assert_eq!(core.phi_total(0), 3.0);
        assert_eq!(core.w_total(0), 150.0);
        assert_eq!(core.port_summary(0).unwrap().n_pairs(), 1);
    }

    #[test]
    fn idle_cleanup_sweeps_silent_pairs() {
        let mut core = UfabCore::new(4096, MS);
        run_egress(&mut core, 0, 0, &mut probe_pkt(1, 2.0, 100.0, true));
        run_egress(&mut core, 0, 0, &mut probe_pkt(2, 1.0, 50.0, true));
        // Pair 2 stays alive via a delta probe at t = 1.5 ms.
        let mut upd = probe_pkt(2, 1.0, 50.0, false);
        if let PacketKind::Probe(f) = &mut upd.kind {
            f.w_delta = 1.0;
        }
        run_egress(&mut core, 1_500_000, 0, &mut upd);
        // Cleanup at t = 2 ms sweeps pair 1 (idle > 1 ms).
        let mut fx = Effects::new();
        let mut ctx = SwitchCtx::standalone(2 * MS, NodeId(9), &mut fx);
        core.on_timer(&mut ctx, super::CLEANUP_TIMER);
        assert_eq!(core.stats.swept, 1);
        assert_eq!(core.phi_total(0), 1.0);
        assert_eq!(core.port_summary(0).unwrap().n_pairs(), 1);
    }

    fn hw(reg_width_bits: u8, int_hop_depth: u8) -> CoreHwCfg {
        CoreHwCfg {
            bloom_bytes: 4096,
            bloom_hashes: 2,
            cleanup_period: MS,
            reg_width_bits,
            int_hop_depth,
        }
    }

    #[test]
    fn narrow_register_saturates_stamped_values_only() {
        // 8-bit read-out: Φ caps at 255 tokens, W at 255 × 64 B =
        // 16 320 B. The *internal* registers keep the exact sums (the
        // §3.6 conservation invariant compares those), only the stamped
        // INT values saturate.
        let mut core = UfabCore::with_hw(hw(8, 8));
        let mut p1 = probe_pkt(1, 300.0, 100_000.0, true);
        run_egress(&mut core, 10, 0, &mut p1);
        assert_eq!(core.phi_total(0), 300.0);
        assert_eq!(core.w_total(0), 100_000.0);
        let PacketKind::Probe(f) = &p1.kind else {
            panic!()
        };
        assert_eq!(f.hops[0].phi_total, 255.0);
        assert_eq!(f.hops[0].w_total, 255.0 * 64.0);
        assert_eq!(core.stats.reg_clamps, 1);
        // Under the cap nothing clamps.
        let mut core2 = UfabCore::with_hw(hw(8, 8));
        let mut p2 = probe_pkt(1, 200.0, 10_000.0, true);
        run_egress(&mut core2, 10, 0, &mut p2);
        let PacketKind::Probe(f2) = &p2.kind else {
            panic!()
        };
        assert_eq!(f2.hops[0].phi_total, 200.0);
        assert_eq!(f2.hops[0].w_total, 10_000.0);
        assert_eq!(core2.stats.reg_clamps, 0);
    }

    #[test]
    fn default_width_never_saturates() {
        // The 32-bit default caps at 4.29e9 tokens / 274 GB — far above
        // anything a simulated port accumulates, so defaults reproduce
        // the historical stamping bit-for-bit.
        let mut core = UfabCore::new(4096, MS);
        let mut p = probe_pkt(1, 1e6, 1e9, true);
        run_egress(&mut core, 10, 0, &mut p);
        let PacketKind::Probe(f) = &p.kind else {
            panic!()
        };
        assert_eq!(f.hops[0].phi_total, 1e6);
        assert_eq!(f.hops[0].w_total, 1e9);
        assert_eq!(core.stats.reg_clamps, 0);
    }

    #[test]
    fn hop_depth_truncates_int_stamping() {
        // A probe arriving with a full header (depth 2, two hops already
        // stamped) passes through registration/accounting but leaves
        // unstamped — downstream bottlenecks go dark past the budget.
        let mut core = UfabCore::with_hw(hw(32, 2));
        let mut p = probe_pkt(1, 2.0, 30_000.0, true);
        if let PacketKind::Probe(f) = &mut p.kind {
            for i in 0..2u32 {
                f.hops.push(HopInfo {
                    node: i,
                    port: 0,
                    w_total: 0.0,
                    phi_total: 0.0,
                    tx_bps: 0.0,
                    q_bytes: 0,
                    cap_bps: 10_000_000_000,
                });
            }
        }
        run_egress(&mut core, 10, 0, &mut p);
        // Registration still happened (the pipeline always accounts)…
        assert_eq!(core.phi_total(0), 2.0);
        // …but no third hop record was appended.
        let PacketKind::Probe(f) = &p.kind else {
            panic!()
        };
        assert_eq!(f.hops.len(), 2);
        assert_eq!(core.stats.int_truncations, 1);
    }

    #[test]
    fn small_bloom_omits_colliding_registrations() {
        // A 4-byte two-bank filter has 2 cells per bank: distinct pairs
        // must collide almost immediately, and each collision is a §3.6
        // omission (the registration contributes nothing).
        let mut core = UfabCore::with_hw(CoreHwCfg {
            bloom_bytes: 4,
            ..hw(32, 8)
        });
        for pair in 0..16u32 {
            let mut p = probe_pkt(pair, 1.0, 100.0, true);
            run_egress(&mut core, 10 + pair as Time, 0, &mut p);
        }
        assert!(
            core.stats.fp_omissions > 0,
            "16 registrations through a 2-cell-per-bank filter must collide"
        );
        assert_eq!(
            core.stats.registrations + core.stats.fp_omissions,
            16,
            "every registering probe either lands or is omitted"
        );
        // Conservation: registers equal the sum of accepted pairs only.
        let (phi_sum, _) = core.port_summary(0).unwrap().pair_sums();
        assert_eq!(core.phi_total(0), phi_sum);
    }

    #[test]
    fn responses_pass_untouched() {
        let mut core = UfabCore::new(4096, MS);
        let frame = ProbeFrame::probe(1, 0, 1.0, 0.0, 0).into_response(2.0);
        let mut pkt = Packet {
            kind: PacketKind::Response(frame),
            ..probe_pkt(1, 0.0, 0.0, false)
        };
        run_egress(&mut core, 0, 0, &mut pkt);
        let PacketKind::Response(f) = &pkt.kind else {
            panic!()
        };
        assert!(f.hops.is_empty());
        assert_eq!(core.phi_total(0), 0.0);
    }
}
