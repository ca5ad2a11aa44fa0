//! Online invariant checkers for μFAB runs.
//!
//! Concrete [`obs::Invariant`] implementations with the simulator as
//! context, registered into an [`obs::InvariantSuite`] by the
//! experiment harness and evaluated on a timer. Each maps to a paper
//! property:
//!
//! * [`RegisterConservation`] — §3.6: a port's Φ_l / W_l registers are
//!   the sum of its live per-pair registrations.
//! * [`EdgeAccounting`] — §3.4: an edge never *grows* a pair's inflight
//!   beyond the admitted window (plus an MTU of pacing slack and a
//!   retransmission credit).
//! * [`ReadySetSound`] — DESIGN §4.3: a clear ready bit means the pair
//!   has nothing to send, and the scheduler, pair-table and endpoint
//!   slot spaces name the same pairs.
//! * [`BoundedQueueWatchdog`] — DESIGN §3: with two-stage admission,
//!   switch queues stay around/below ~3 BDP.
//! * [`StaleRegistrationSweep`] — §4.2: registrations orphaned by a fault
//!   (edge restart, lost finish) are reclaimed by the idle sweep within a
//!   bounded number of cleanup periods — leaks never grow unboundedly.
//! * [`WedgedPairWatchdog`] — recovery liveness: a pair with pending work
//!   must make ack-level progress within the stall bound; faults may
//!   pause a pair, never wedge it permanently.
//! * [`PacketArenaBalance`] — packet-recycler accounting: every box the
//!   arena handed out is either in a port queue, travelling as an event,
//!   or back on the free list; a mismatch means a leaked or
//!   double-recycled packet.

use crate::core_agent::UfabCore;
use crate::edge::UfabEdge;
use netsim::time::bdp_bytes;
use netsim::{FastMap, NodeId, PairId, Simulator, Time};
use obs::Invariant;

/// §3.6 register conservation: for every switch port,
/// `Φ_l == Σ φ(pair)` and `W_l == Σ w(pair)` over live registrations,
/// up to float accumulation error.
pub struct RegisterConservation {
    /// Relative tolerance on the comparison (absolute floor of the same
    /// magnitude is applied for near-zero sums).
    pub rel_tol: f64,
}

impl Default for RegisterConservation {
    fn default() -> Self {
        // f64 accumulation over thousands of ± updates: 1e-6 relative
        // is ~9 orders of magnitude above the error, ~6 below a real
        // leak (one lost registration).
        Self { rel_tol: 1e-6 }
    }
}

impl Invariant<Simulator> for RegisterConservation {
    fn name(&self) -> &'static str {
        "register-conservation"
    }

    fn check(&mut self, sim: &Simulator, _t: u64) -> Result<(), String> {
        for i in 0..sim.n_nodes() {
            let node = NodeId(i as u32);
            let Some(core) = sim.try_switch_agent::<UfabCore>(node) else {
                continue;
            };
            for (port, st) in core.port_summaries() {
                let (phi_sum, w_sum) = st.pair_sums();
                let phi_reg = st.registers.phi_total();
                let w_reg = st.registers.w_total();
                let tol = |sum: f64| self.rel_tol * sum.abs().max(1.0);
                if (phi_reg - phi_sum).abs() > tol(phi_sum) {
                    return Err(format!(
                        "switch {node} port {port}: Φ_l register {phi_reg:.9} != \
                         Σφ over {} live pairs {phi_sum:.9} (Δ={:.3e})",
                        st.n_pairs(),
                        phi_reg - phi_sum
                    ));
                }
                if (w_reg - w_sum).abs() > tol(w_sum) {
                    return Err(format!(
                        "switch {node} port {port}: W_l register {w_reg:.9} != \
                         Σw over {} live pairs {w_sum:.9} (Δ={:.3e})",
                        st.n_pairs(),
                        w_reg - w_sum
                    ));
                }
            }
        }
        Ok(())
    }
}

/// §3.4 edge accounting: a pair's inflight bytes must not *grow* while
/// above its admitted allowance. Inflight legitimately exceeds a window
/// that just shrank (migration bootstrap, stage-2 clamp) — those bytes
/// drain; the violation is continuing to send. We therefore flag a pair
/// only when inflight exceeds the allowance plus slack *and* rose since
/// the previous evaluation. The allowance is the larger of the admission
/// window and the Eqn-3 *claim* the pair registered at the switches
/// (bounded at 8× the window): a fresh burst bootstraps at the
/// guarantee by design, and its bytes — admitted under the bootstrap
/// window, accounted under the claim — may outlive the window's
/// convergence back down while they drain through a busy NIC.
#[derive(Default)]
pub struct EdgeAccounting {
    prev: FastMap<(u32, PairId), u64>,
}

impl Invariant<Simulator> for EdgeAccounting {
    fn name(&self) -> &'static str {
        "edge-window-accounting"
    }

    fn check(&mut self, sim: &Simulator, _t: u64) -> Result<(), String> {
        let mut verdict = Ok(());
        for i in 0..sim.n_nodes() {
            let node = NodeId(i as u32);
            let Some(edge) = sim.try_edge::<UfabEdge>(node) else {
                continue;
            };
            // One MTU of pacing slack (the paced path admits a final
            // packet below the window line) plus one window of
            // retransmission credit: retransmits re-enter the NIC while
            // their lost originals still count as inflight until the
            // timeout/ack machinery reconciles them.
            let mtu = edge.mtu() as u64;
            for pair in edge.pair_iter() {
                let window = edge.window_of(pair).unwrap_or(0.0);
                let claim = edge.claim_of(pair).unwrap_or(0.0);
                let inflight = edge.ep.inflight(pair);
                let allowed = 2.0 * window.max(claim) + (2 * mtu) as f64;
                let grew = self
                    .prev
                    .get(&(node.raw(), pair))
                    .is_none_or(|&p| inflight > p);
                if inflight as f64 > allowed && grew && verdict.is_ok() {
                    verdict = Err(format!(
                        "edge {node} pair {pair}: inflight {inflight} B grew past \
                         admitted window {window:.1} B / claim {claim:.1} B \
                         (+slack => {allowed:.1} B)"
                    ));
                }
                self.prev.insert((node.raw(), pair), inflight);
            }
        }
        verdict
    }
}

/// DESIGN §4.3 ready-set soundness: the μFAB-E pump skips every pair
/// whose ready bit is clear without asking the endpoint, and reaches all
/// per-pair state through cached slots. Both shortcuts are only correct
/// while, on every edge, "bit clear ⇒ `peek_segment` is `None`" holds and
/// the scheduler's queues, the pair table's columns and the endpoint's
/// slots agree on which pair is which ([`UfabEdge::check_ready_set`]).
#[derive(Default)]
pub struct ReadySetSound;

impl Invariant<Simulator> for ReadySetSound {
    fn name(&self) -> &'static str {
        "ready-set-sound"
    }

    fn check(&mut self, sim: &Simulator, _t: u64) -> Result<(), String> {
        for i in 0..sim.n_nodes() {
            let node = NodeId(i as u32);
            if let Some(edge) = sim.try_edge::<UfabEdge>(node) {
                edge.check_ready_set()
                    .map_err(|e| format!("edge {node}: {e}"))?;
            }
        }
        Ok(())
    }
}

/// DESIGN §3 bounded queues: every port's instantaneous queue stays
/// below `factor × BDP` (default 3 BDP with a 2× detection margin).
pub struct BoundedQueueWatchdog {
    /// Fabric round-trip used to size the BDP.
    pub rtt_ns: Time,
    /// Multiples of BDP tolerated before firing.
    pub factor: f64,
}

impl BoundedQueueWatchdog {
    /// Watchdog for a fabric with base RTT `rtt_ns`, firing above
    /// `factor` BDPs (the paper's steady-state bound is ~3; use a
    /// margin above that to separate "bounded" from "runaway").
    pub fn new(rtt_ns: Time, factor: f64) -> Self {
        Self { rtt_ns, factor }
    }
}

impl Invariant<Simulator> for BoundedQueueWatchdog {
    fn name(&self) -> &'static str {
        "bounded-queue-watchdog"
    }

    fn check(&mut self, sim: &Simulator, _t: u64) -> Result<(), String> {
        for i in 0..sim.n_nodes() {
            let node = NodeId(i as u32);
            for p in 0..sim.n_ports(node) {
                let port = sim.port(node, netsim::PortNo(p as u16));
                if !port.up {
                    // A downed link drains nothing by definition; its
                    // backlog is the fault's fault, not admission's.
                    continue;
                }
                let bdp = bdp_bytes(port.cap_bps, self.rtt_ns).max(1);
                let limit = (self.factor * bdp as f64) as u64;
                if port.q_bytes > limit {
                    return Err(format!(
                        "node {node} port {p}: queue {} B exceeds {}×BDP = {} B \
                         (cap {} bps, rtt {} ns)",
                        port.q_bytes, self.factor, limit, port.cap_bps, self.rtt_ns
                    ));
                }
            }
        }
        Ok(())
    }
}

/// §4.2 reclamation under faults: per-pair registrations whose liveness
/// refresh stopped (edge restarted, finish lost, path abandoned) must be
/// swept by the idle cleanup within `grace` cleanup periods. A healthy
/// sweep needs at most two periods (one to cross the idle threshold, one
/// for the timer to come round); anything older than the grace bound is
/// a leak that conservation alone cannot see — the registers *agree*
/// with the leaked pair, they are just both wrong forever.
pub struct StaleRegistrationSweep {
    /// The switch cleanup period (`UfabConfig::core_cleanup_period`).
    pub cleanup_period: Time,
    /// Staleness tolerated, in cleanup periods (fault-aware default 2.5).
    pub grace: f64,
}

impl StaleRegistrationSweep {
    /// Watchdog for switches sweeping every `cleanup_period` ns.
    pub fn new(cleanup_period: Time) -> Self {
        Self {
            cleanup_period,
            grace: 2.5,
        }
    }
}

impl Invariant<Simulator> for StaleRegistrationSweep {
    fn name(&self) -> &'static str {
        "stale-registration-sweep"
    }

    fn check(&mut self, sim: &Simulator, t: u64) -> Result<(), String> {
        let bound = (self.grace * self.cleanup_period as f64) as Time;
        let Some(cutoff) = t.checked_sub(bound) else {
            return Ok(()); // too early for anything to be overdue
        };
        for i in 0..sim.n_nodes() {
            let node = NodeId(i as u32);
            let Some(core) = sim.try_switch_agent::<UfabCore>(node) else {
                continue;
            };
            for (port, st) in core.port_summaries() {
                let stale = st.stale_pairs(cutoff);
                if stale > 0 {
                    return Err(format!(
                        "switch {node} port {port}: {stale} registration(s) idle \
                         longer than {:.1}×cleanup-period ({} ns) — sweep is not \
                         reclaiming leaked state",
                        self.grace, bound
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Recovery liveness: every pair with pending work must grow its
/// cumulative acked-byte counter within `stall_ns`. The counter is
/// monotone and only moves on *delivered* data — unlike last-activity
/// clocks it cannot be refreshed by fruitless retransmissions, so a
/// black-holed pair is caught even while its RTO machinery spins.
/// `stall_ns` is the fault-aware tolerance: set it above the longest
/// injected outage plus the capped RTO backoff, so faults pause pairs
/// without firing and only a genuine wedge (lost pair state, dead route
/// never re-qualified) trips it.
pub struct WedgedPairWatchdog {
    /// Max time a pair with work may go without acking new bytes.
    pub stall_ns: Time,
    /// Last observed (acked_bytes, time-of-last-progress) per pair.
    prev: FastMap<(u32, PairId), (u64, Time)>,
}

impl WedgedPairWatchdog {
    /// Watchdog firing after `stall_ns` without ack progress.
    pub fn new(stall_ns: Time) -> Self {
        Self {
            stall_ns,
            prev: FastMap::default(),
        }
    }
}

/// Packet-arena conservation: between events, the number of boxes the
/// arena has handed out and not yet taken back (`allocated − recycled`)
/// must equal the number of packets actually in flight — queued at some
/// port or travelling as an `Arrive` event. A deficit means a packet was
/// recycled while still reachable (the recycler would then hand the same
/// box to two packets); a surplus means a drop path leaked a box past
/// the free list. Every fault path (switch-fail queue wipes, down-port
/// drops, overflow) must keep this exact, so the checker runs in the
/// chaos suite too.
#[derive(Default)]
pub struct PacketArenaBalance;

impl Invariant<Simulator> for PacketArenaBalance {
    fn name(&self) -> &'static str {
        "packet-arena-balance"
    }

    fn check(&mut self, sim: &Simulator, _t: u64) -> Result<(), String> {
        let stats = sim.arena_stats();
        let outstanding = stats.outstanding();
        let in_flight = sim.packets_in_flight();
        if outstanding != in_flight {
            return Err(format!(
                "arena outstanding {outstanding} (allocated {} − recycled {}) \
                 != packets in flight {in_flight} — a packet box was \
                 {}",
                stats.allocated,
                stats.recycled,
                if outstanding > in_flight {
                    "leaked past the free list"
                } else {
                    "recycled while still in flight"
                }
            ));
        }
        Ok(())
    }
}

impl Invariant<Simulator> for WedgedPairWatchdog {
    fn name(&self) -> &'static str {
        "wedged-pair-watchdog"
    }

    fn check(&mut self, sim: &Simulator, t: u64) -> Result<(), String> {
        let mut verdict = Ok(());
        for i in 0..sim.n_nodes() {
            let node = NodeId(i as u32);
            let Some(edge) = sim.try_edge::<UfabEdge>(node) else {
                continue;
            };
            for pair in edge.ep.sending_pairs() {
                let has_work = edge.ep.has_backlog(pair) || edge.ep.inflight(pair) > 0;
                if !has_work {
                    self.prev.remove(&(node.raw(), pair));
                    continue;
                }
                let acked = edge.ep.acked_bytes(pair);
                let entry = self.prev.entry((node.raw(), pair)).or_insert((acked, t));
                if acked > entry.0 {
                    *entry = (acked, t);
                } else if t.saturating_sub(entry.1) > self.stall_ns && verdict.is_ok() {
                    verdict = Err(format!(
                        "edge {node} pair {pair}: no ack progress for {} ns \
                         (> {} ns) with work pending — pair is wedged",
                        t.saturating_sub(entry.1),
                        self.stall_ns
                    ));
                }
            }
        }
        verdict
    }
}
