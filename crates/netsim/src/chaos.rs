//! Deterministic fault injection (the chaos engine).
//!
//! A [`FaultPlan`] is a declarative, composable list of faults — link
//! cuts and flaps, partial degradation, Gilbert–Elliott burst loss,
//! control-plane-selective loss, INT-stamp corruption, whole-switch
//! failure and edge-agent restarts — that is expanded into ordinary
//! simulator events by [`crate::Simulator::apply_chaos`].
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
    seed: u64,
    faults: Vec<FaultKind>,
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

    /// The plan's RNG seed.
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled faults, in insertion order.
    pub(crate) fn faults(&self) -> &[FaultKind] {
        &self.faults
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

/// Payload of a chaos reconfiguration event (scheduled by
/// `apply_chaos`, applied in the event loop so it is ordered and
/// det-hashed like everything else).
#[derive(Debug, Clone)]
pub(crate) enum ModKind {
    DegradeOn {
        cap_factor: f64,
        prop_factor: f64,
    },
    DegradeOff,
    BurstOn {
        p_enter: f64,
        p_exit: f64,
        loss_good: f64,
        loss_bad: f64,
        seed: u64,
    },
    BurstOff,
    CtrlOn {
        prob: f64,
        seed: u64,
    },
    CtrlOff,
    CorruptOn {
        prob: f64,
        seed: u64,
    },
    CorruptOff,
}

impl ModKind {
    /// Stable discriminant for the determinism digest.
    pub(crate) fn det_code(&self) -> u64 {
        match self {
            ModKind::DegradeOn { .. } => 0,
            ModKind::DegradeOff => 1,
            ModKind::BurstOn { .. } => 2,
            ModKind::BurstOff => 3,
            ModKind::CtrlOn { .. } => 4,
            ModKind::CtrlOff => 5,
            ModKind::CorruptOn { .. } => 6,
            ModKind::CorruptOff => 7,
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
    pub(crate) prob: f64,
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

    pub(crate) fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }
}

/// Per-port chaos state.
#[derive(Debug, Default)]
pub(crate) struct PortChaos {
    pub(crate) ge: Option<GeLoss>,
    pub(crate) ctrl: Option<RngProb>,
    /// Pre-degradation capacity, saved so `DegradeOff` restores it.
    pub(crate) base_cap: Option<u64>,
    /// Pre-degradation propagation delay.
    pub(crate) base_prop: Option<Time>,
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
    pub(crate) ports: HashMap<(u32, u16), PortChaos>,
    /// INT corruption per switch node.
    pub(crate) corrupt: HashMap<u32, RngProb>,
    pub(crate) stats: ChaosStats,
}

/// Is this packet control-plane for the purpose of selective loss?
/// Everything that is not payload data: probes, responses, finishes,
/// finish-acks and ACKs.
pub(crate) fn is_ctrl(kind: &PacketKind) -> bool {
    !matches!(kind, PacketKind::Data(_))
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
    let hi = c.rng().gen_range(0..frame.hops.len());
    let bit = c.rng().gen_range(0..64u32);
    let field = c.rng().gen_range(0..3u32);
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
        assert_eq!(plan.faults().len(), 2);
        assert_eq!(plan.seed(), 1);
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
