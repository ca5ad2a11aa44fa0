//! Deterministic fault injection (the chaos engine).
//!
//! A [`FaultPlan`] is a declarative, composable list of faults — link
//! cuts and flaps, partial degradation, Gilbert–Elliott burst loss,
//! control-plane-selective loss, INT-stamp corruption, whole-switch
//! failure and edge-agent restarts — that is expanded into ordinary
//! simulator events by [`crate::Simulator::apply_chaos`], the one way
//! to inject a fault. Each windowed fault (`Degrade`, `BurstLoss`,
//! `CtrlLoss`, `IntCorrupt`) becomes one event that installs its seeded
//! `Effect` and one that clears it (`ModKind::On`/`Off`).
//!
//! Determinism contract: every stochastic fault draws from its **own**
//! RNG, seeded from `(plan seed, fault index)` via a splitmix64
//! finalizer. Fault randomness therefore never perturbs the per-node
//! RNG streams, adding or removing one fault never shifts the draws of
//! another, and identical seeds produce byte-identical runs regardless
//! of how many experiment runner threads (`--jobs N`) execute
//! concurrently (each simulation is single-threaded either way).

use crate::ids::{NodeId, PortNo};
use crate::packet::{Packet, PacketKind};
use crate::port::Port;
use crate::time::Time;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// One fault in a [`FaultPlan`]. All times are absolute simulation
/// times in nanoseconds.
#[derive(Debug, Clone)]
pub enum FaultKind {
    /// Hard link cut: both directions of `node`:`port` go down at
    /// `at`, and come back at `restore_at` (if given).
    LinkDown {
        /// Node owning the egress port.
        node: NodeId,
        /// Egress port identifying the link.
        port: PortNo,
        /// Failure instant.
        at: Time,
        /// Optional repair instant.
        restore_at: Option<Time>,
    },
    /// Periodic flapping: the link cycles down for `down_for` then up
    /// for `up_for`, starting at `from`; it is guaranteed back up at
    /// `until`.
    LinkFlap {
        /// Node owning the egress port.
        node: NodeId,
        /// Egress port identifying the link.
        port: PortNo,
        /// First down transition.
        from: Time,
        /// End of the flapping window (link is restored here).
        until: Time,
        /// Down-phase duration per cycle.
        down_for: Time,
        /// Up-phase duration per cycle.
        up_for: Time,
    },
    /// Gray failure: multiply capacity and propagation delay of the
    /// `node`:`port` egress during `[from, until)`. `cap_factor < 1`
    /// slows the link; `prop_factor > 1` lengthens it.
    Degrade {
        /// Node owning the egress port.
        node: NodeId,
        /// Degraded egress port.
        port: PortNo,
        /// Degradation start.
        from: Time,
        /// Degradation end (original parameters restored).
        until: Time,
        /// Multiplier on link capacity (clamped to ≥ 1 bps).
        cap_factor: f64,
        /// Multiplier on propagation delay.
        prop_factor: f64,
    },
    /// Gilbert–Elliott two-state burst loss on the `node`:`port`
    /// egress during `[from, until)`: per transmitted packet the chain
    /// moves good→bad with `p_enter` and bad→good with `p_exit`, and
    /// the packet is lost with `loss_good` / `loss_bad` respectively.
    BurstLoss {
        /// Node owning the egress port.
        node: NodeId,
        /// Lossy egress port.
        port: PortNo,
        /// Loss window start.
        from: Time,
        /// Loss window end.
        until: Time,
        /// P(good → bad) per packet.
        p_enter: f64,
        /// P(bad → good) per packet.
        p_exit: f64,
        /// Loss probability in the good state.
        loss_good: f64,
        /// Loss probability in the bad state.
        loss_bad: f64,
    },
    /// Control-plane-selective loss: during `[from, until)` drop
    /// non-data packets (probes, responses, finishes, finish-acks and
    /// ACKs) leaving `node`:`port` with probability `prob`, while data
    /// packets pass untouched.
    CtrlLoss {
        /// Node owning the egress port.
        node: NodeId,
        /// Affected egress port.
        port: PortNo,
        /// Loss window start.
        from: Time,
        /// Loss window end.
        until: Time,
        /// Drop probability per control packet.
        prob: f64,
    },
    /// Misinformative data plane: during `[from, until)` each probe or
    /// response leaving switch `node` has one random bit of one
    /// already-stamped hop record (Φ_l, W_l or q_l) flipped with
    /// probability `prob`.
    IntCorrupt {
        /// The corrupting switch.
        node: NodeId,
        /// Corruption window start.
        from: Time,
        /// Corruption window end.
        until: Time,
        /// Corruption probability per eligible packet.
        prob: f64,
    },
    /// Whole-switch failure: every port of switch `node` (both
    /// directions) goes down at `at`. On `recover_at` the switch agent
    /// is reset first — registers, Bloom filter and shadow state are
    /// wiped together, modelling a reboot — and then the links return.
    SwitchFail {
        /// The failing switch.
        node: NodeId,
        /// Failure instant.
        at: Time,
        /// Optional reboot instant.
        recover_at: Option<Time>,
    },
    /// Edge-agent restart: at `at` the agent on host `node` gets
    /// [`crate::EdgeAgent::on_restart`] — volatile control state is
    /// lost and must be rebuilt from probing.
    EdgeRestart {
        /// The restarting host.
        node: NodeId,
        /// Restart instant.
        at: Time,
    },
}

/// A composable, seed-deterministic schedule of faults.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Drives all fault randomness.
    pub(crate) seed: u64,
    /// The faults, in insertion order.
    pub(crate) faults: Vec<FaultKind>,
}

impl FaultPlan {
    /// Empty plan. `seed` drives all fault randomness (independently
    /// of the simulator's own seed).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            faults: Vec::new(),
        }
    }

    /// Append a fault; returns `self` for chaining.
    pub fn fault(mut self, kind: FaultKind) -> Self {
        self.faults.push(kind);
        self
    }

    /// Append a fault in place.
    pub fn push(&mut self, kind: FaultKind) {
        self.faults.push(kind);
    }
}

/// Derive the RNG seed for fault number `idx` of a plan (splitmix64
/// finalizer — decorrelates consecutive indices completely).
pub(crate) fn derive_seed(master: u64, idx: u64) -> u64 {
    let mut x = master ^ (idx.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The runtime effect of a windowed fault (`Degrade`, `BurstLoss`,
/// `CtrlLoss`, `IntCorrupt`), built and seeded by `apply_chaos` and
/// installed by its `On` event.
#[derive(Debug)]
pub(crate) enum Effect {
    Degrade { cap_factor: f64, prop_factor: f64 },
    Burst(GeLoss),
    Ctrl(RngProb),
    Corrupt(RngProb),
}

/// Which windowed fault an `Off` event clears. The order fixes the
/// determinism digest's codes: `2 × kind` for `On`, `+ 1` for `Off`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum EffectKind {
    Degrade,
    Burst,
    Ctrl,
    Corrupt,
}

impl Effect {
    pub(crate) fn kind(&self) -> EffectKind {
        match self {
            Effect::Degrade { .. } => EffectKind::Degrade,
            Effect::Burst(_) => EffectKind::Burst,
            Effect::Ctrl(_) => EffectKind::Ctrl,
            Effect::Corrupt(_) => EffectKind::Corrupt,
        }
    }
}

/// Payload of a chaos event: a windowed fault's effect switching on at
/// the window's start or off at its end. `apply_chaos` schedules both;
/// the event loop applies them, so they are ordered and det-hashed like
/// everything else.
#[derive(Debug)]
pub(crate) enum ModKind {
    On(Effect),
    Off(EffectKind),
}

impl ModKind {
    /// Stable discriminant for the determinism digest.
    pub(crate) fn det_code(&self) -> u64 {
        match self {
            ModKind::On(e) => 2 * e.kind() as u64,
            ModKind::Off(k) => 2 * *k as u64 + 1,
        }
    }
}

/// Gilbert–Elliott loss channel state.
#[derive(Debug)]
pub(crate) struct GeLoss {
    bad: bool,
    p_enter: f64,
    p_exit: f64,
    loss_good: f64,
    loss_bad: f64,
    rng: SmallRng,
}

impl GeLoss {
    pub(crate) fn new(p_enter: f64, p_exit: f64, loss_good: f64, loss_bad: f64, seed: u64) -> Self {
        Self {
            bad: false,
            p_enter,
            p_exit,
            loss_good,
            loss_bad,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Advance the chain one packet; `true` if that packet is lost.
    pub(crate) fn sample(&mut self) -> bool {
        if self.bad {
            if self.rng.gen::<f64>() < self.p_exit {
                self.bad = false;
            }
        } else if self.rng.gen::<f64>() < self.p_enter {
            self.bad = true;
        }
        let p = if self.bad {
            self.loss_bad
        } else {
            self.loss_good
        };
        p > 0.0 && self.rng.gen::<f64>() < p
    }
}

/// A Bernoulli trial with its own RNG stream.
#[derive(Debug)]
pub(crate) struct RngProb {
    prob: f64,
    rng: SmallRng,
}

impl RngProb {
    pub(crate) fn new(prob: f64, seed: u64) -> Self {
        Self {
            prob,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    pub(crate) fn hit(&mut self) -> bool {
        self.prob > 0.0 && self.rng.gen::<f64>() < self.prob
    }
}

/// Per-port chaos state.
#[derive(Debug, Default)]
struct PortChaos {
    ge: Option<GeLoss>,
    ctrl: Option<RngProb>,
    /// Pre-degradation capacity and propagation delay, saved so the
    /// degrade window's end restores them.
    base: Option<(u64, Time)>,
}

/// Counters the chaos engine keeps while active.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaosStats {
    /// Packets dropped by Gilbert–Elliott burst loss.
    pub burst_drops: u64,
    /// Control-plane packets dropped by selective loss.
    pub ctrl_drops: u64,
    /// INT hop records corrupted.
    pub int_corruptions: u64,
    /// Switch agents reset (state wiped).
    pub switch_wipes: u64,
    /// Edge agents restarted.
    pub edge_restarts: u64,
    /// Degradation on/off transitions applied.
    pub degrade_transitions: u64,
}

/// Live chaos state hanging off the simulator. `None` on the
/// `Simulator` when no plan was ever applied, so the disabled engine
/// costs a single branch in the hot path.
#[derive(Debug, Default)]
pub(crate) struct ChaosRuntime {
    /// Keyed by `(node, port)` raw ids.
    ports: HashMap<(u32, u16), PortChaos>,
    /// INT corruption per switch node.
    corrupt: HashMap<u32, RngProb>,
    pub(crate) stats: ChaosStats,
}

impl ChaosRuntime {
    /// Install (`On`) or clear (`Off`) a windowed fault's effect on
    /// `node`:`portno`, whose port is `port`. `IntCorrupt` is
    /// switch-wide and ignores the port. An `Off` always follows its
    /// `On` (same or later instant, later seq), so its entry exists.
    pub(crate) fn set(&mut self, node: NodeId, portno: PortNo, port: &mut Port, m: ModKind) {
        let key = (node.raw(), portno.raw());
        match m {
            ModKind::On(Effect::Degrade {
                cap_factor,
                prop_factor,
            }) => {
                let pc = self.ports.entry(key).or_default();
                let (cap, prop) = *pc.base.get_or_insert((port.cap_bps, port.prop_ns));
                port.cap_bps = ((cap as f64 * cap_factor) as u64).max(1);
                port.prop_ns = (prop as f64 * prop_factor) as Time;
                self.stats.degrade_transitions += 1;
            }
            ModKind::Off(EffectKind::Degrade) => {
                if let Some((cap, prop)) = self.ports.entry(key).or_default().base.take() {
                    port.cap_bps = cap;
                    port.prop_ns = prop;
                }
                self.stats.degrade_transitions += 1;
            }
            ModKind::On(Effect::Burst(ge)) => self.ports.entry(key).or_default().ge = Some(ge),
            ModKind::Off(EffectKind::Burst) => self.ports.entry(key).or_default().ge = None,
            ModKind::On(Effect::Ctrl(c)) => self.ports.entry(key).or_default().ctrl = Some(c),
            ModKind::Off(EffectKind::Ctrl) => self.ports.entry(key).or_default().ctrl = None,
            ModKind::On(Effect::Corrupt(c)) => {
                self.corrupt.insert(node.raw(), c);
            }
            ModKind::Off(EffectKind::Corrupt) => {
                self.corrupt.remove(&node.raw());
            }
        }
    }

    /// Apply the installed effects to `pkt` leaving `node`:`port`:
    /// selective loss (control packets only), then burst loss, then
    /// INT corruption at a switch. Returns the drop reason, if dropped.
    /// Armed but idle, this is two hash probes that miss.
    #[inline]
    pub(crate) fn on_tx(
        &mut self,
        node: NodeId,
        port: PortNo,
        is_switch: bool,
        pkt: &mut Packet,
    ) -> Option<&'static str> {
        if let Some(pc) = self.ports.get_mut(&(node.raw(), port.raw())) {
            if let Some(sl) = &mut pc.ctrl {
                if !matches!(pkt.kind, PacketKind::Data(_)) && sl.hit() {
                    self.stats.ctrl_drops += 1;
                    return Some("chaos-ctrl");
                }
            }
            if let Some(ge) = &mut pc.ge {
                if ge.sample() {
                    self.stats.burst_drops += 1;
                    return Some("chaos-burst");
                }
            }
        }
        if is_switch {
            if let Some(c) = self.corrupt.get_mut(&node.raw()) {
                if corrupt_packet(pkt, c) {
                    self.stats.int_corruptions += 1;
                }
            }
        }
        None
    }
}

/// Flip one random bit of one stamped hop record of a probe/response.
/// Returns `true` if a corruption was applied. Only packets that have
/// at least one hop stamped are eligible (a real corrupting switch
/// mangles its own or an upstream stamp).
pub(crate) fn corrupt_packet(pkt: &mut Packet, c: &mut RngProb) -> bool {
    let frame = match &mut pkt.kind {
        PacketKind::Probe(f) | PacketKind::Response(f) => f,
        _ => return false,
    };
    if frame.hops.is_empty() || !c.hit() {
        return false;
    }
    let hi = c.rng.gen_range(0..frame.hops.len());
    let bit = c.rng.gen_range(0..64u32);
    let field = c.rng.gen_range(0..3u32);
    let h = &mut frame.hops[hi];
    match field {
        0 => h.phi_total = f64::from_bits(h.phi_total.to_bits() ^ (1u64 << bit)),
        1 => h.w_total = f64::from_bits(h.w_total.to_bits() ^ (1u64 << bit)),
        _ => h.q_bytes ^= 1u64 << bit,
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_distinct_and_stable() {
        let a = derive_seed(42, 0);
        let b = derive_seed(42, 1);
        let c = derive_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Stability: the digest contract depends on this mapping.
        assert_eq!(a, derive_seed(42, 0));
    }

    #[test]
    fn gilbert_elliott_bursts() {
        // p_enter small, p_exit moderate, lossless good state, lossy
        // bad state: losses should appear and arrive in runs.
        let mut ge = GeLoss::new(0.05, 0.3, 0.0, 0.9, 7);
        let outcomes: Vec<bool> = (0..5000).map(|_| ge.sample()).collect();
        let losses = outcomes.iter().filter(|&&l| l).count();
        assert!(losses > 100, "too few losses: {losses}");
        assert!(losses < 2500, "too many losses: {losses}");
        // Burstiness: consecutive-loss pairs must be far more common
        // than independent losses of the same marginal rate would give.
        let pairs = outcomes.windows(2).filter(|w| w[0] && w[1]).count();
        let p = losses as f64 / outcomes.len() as f64;
        let indep = (outcomes.len() as f64) * p * p;
        assert!(
            (pairs as f64) > 2.0 * indep,
            "not bursty: {pairs} pairs vs {indep:.1} expected under independence"
        );
    }

    #[test]
    fn plan_builder_collects_faults() {
        let plan = FaultPlan::new(1)
            .fault(FaultKind::LinkDown {
                node: NodeId(0),
                port: PortNo(0),
                at: 10,
                restore_at: Some(20),
            })
            .fault(FaultKind::EdgeRestart {
                node: NodeId(1),
                at: 30,
            });
        assert_eq!(plan.faults.len(), 2);
        assert_eq!(plan.seed, 1);
    }

    #[test]
    fn corruption_flips_exactly_one_field() {
        use crate::ids::{PairId, TenantId};
        use crate::route::Route;
        use telemetry::{HopInfo, ProbeFrame};
        let mut frame = ProbeFrame::probe(0, 0, 1.0, 0.0, 0);
        frame.hops.push(HopInfo {
            node: 2,
            port: 1,
            w_total: 1e6,
            phi_total: 3.0,
            tx_bps: 5e9,
            q_bytes: 1000,
            cap_bps: 10_000_000_000,
        });
        let clean = frame.hops[0];
        let mut pkt = Packet {
            src: NodeId(0),
            dst: NodeId(1),
            pair: PairId(0),
            tenant: TenantId(0),
            size: 90,
            kind: PacketKind::Response(frame),
            route: Route::new(),
            hop: 0,
            max_util: 0.0,
            sent_at: 0,
        };
        let mut c = RngProb::new(1.0, 99);
        assert!(corrupt_packet(&mut pkt, &mut c));
        let PacketKind::Response(f) = &pkt.kind else {
            unreachable!()
        };
        let h = f.hops[0];
        let changed = [
            h.phi_total.to_bits() != clean.phi_total.to_bits(),
            h.w_total.to_bits() != clean.w_total.to_bits(),
            h.q_bytes != clean.q_bytes,
        ]
        .iter()
        .filter(|&&x| x)
        .count();
        assert_eq!(changed, 1, "exactly one telemetry field must change");
    }

    #[test]
    fn data_packets_are_never_corrupted() {
        use crate::ids::{FlowId, PairId, TenantId};
        use crate::packet::DataInfo;
        use crate::route::Route;
        let mut pkt = Packet {
            src: NodeId(0),
            dst: NodeId(1),
            pair: PairId(0),
            tenant: TenantId(0),
            size: 1500,
            kind: PacketKind::Data(DataInfo {
                seq: 0,
                flow: FlowId(0),
                payload: 1460,
                tag: 0,
                retx: false,
                msg_bytes: 0,
                flow_start: 0,
                reply_bytes: 0,
            }),
            route: Route::new(),
            hop: 0,
            max_util: 0.0,
            sent_at: 0,
        };
        let mut c = RngProb::new(1.0, 5);
        assert!(!corrupt_packet(&mut pkt, &mut c));
    }
}
