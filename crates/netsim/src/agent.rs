//! Agent traits: the plug points for transports and switch dataplanes.

use crate::ids::{NodeId, PairId, PortNo};
use crate::msg::Inject;
use crate::packet::{Packet, PacketArena};
use crate::time::Time;
use rand::rngs::SmallRng;
use std::any::Any;

/// Snapshot of a host NIC's egress state, given to edge agents so they can
/// implement pull-based scheduling (keep the NIC queue shallow and pick the
/// next packet by WFQ only when the NIC can take it, §4.1).
#[derive(Debug, Clone, Copy)]
pub struct NicView {
    /// Packets currently queued at the NIC.
    pub queue_pkts: usize,
    /// NIC line rate in bits/sec.
    pub cap_bps: u64,
}

/// Deferred side effects an agent produces while handling an event.
#[derive(Debug, Default)]
pub struct Effects {
    // Boxed on purpose: a sent packet moves by pointer through the
    // forward path into port queues and event-queue entries, which keeps
    // those entries pointer-sized and avoids a re-box at every hop.
    #[allow(clippy::vec_box)]
    pub(crate) sends: Vec<Box<Packet>>,
    pub(crate) timers: Vec<(Time, u64)>,
}

impl Effects {
    /// Fresh empty effect buffer (for driving agents outside a simulator,
    /// e.g. in unit tests).
    pub fn new() -> Self {
        Self::default()
    }

    /// Packets emitted so far (boxed: the simulator moves packets by
    /// pointer from the moment they are sent).
    pub fn sends(&self) -> &[Box<Packet>] {
        &self.sends
    }

    /// Take the emitted packets.
    pub fn take_sends(&mut self) -> Vec<Box<Packet>> {
        std::mem::take(&mut self.sends)
    }

    /// Take the requested timers.
    pub fn take_timers(&mut self) -> Vec<(Time, u64)> {
        std::mem::take(&mut self.timers)
    }
}

/// Context handed to edge-agent callbacks.
pub struct EdgeCtx<'a> {
    /// Current simulation time.
    pub now: Time,
    /// View of the host's NIC (port 0).
    pub nic: NicView,
    /// Deterministic per-node randomness.
    pub rng: &'a mut SmallRng,
    pub(crate) effects: &'a mut Effects,
    /// Box recycler: `send` reuses a parked shell instead of
    /// allocating, so the steady state is malloc-free per packet.
    pub(crate) arena: &'a mut PacketArena,
}

impl EdgeCtx<'_> {
    /// Emit a packet. `pkt.route` must name this host's egress port at
    /// index `pkt.hop` (hosts have a single NIC: `PortNo(0)`).
    pub fn send(&mut self, pkt: Packet) {
        self.effects.sends.push(self.arena.alloc(pkt));
    }

    /// Packets of `pair` in the network right now, in either direction:
    /// sent (this callback's sends included) and not yet delivered or
    /// dropped.
    pub fn in_network(&self, pair: PairId) -> u32 {
        self.arena.in_network(pair)
    }

    /// Schedule `on_timer(kind)` at absolute time `at` (clamped to now).
    #[cfg(test)]
    fn set_timer_at(&mut self, at: Time, kind: u64) {
        self.effects.timers.push((at.max(self.now), kind));
    }

    /// Schedule `on_timer(kind)` after `delay` nanoseconds.
    pub fn set_timer(&mut self, delay: Time, kind: u64) {
        self.effects.timers.push((self.now + delay, kind));
    }
}

impl<'a> EdgeCtx<'a> {
    /// Build a context outside a simulator (unit-testing edge agents).
    pub fn standalone(
        now: Time,
        nic: NicView,
        rng: &'a mut SmallRng,
        effects: &'a mut Effects,
        arena: &'a mut PacketArena,
    ) -> Self {
        Self {
            now,
            nic,
            rng,
            effects,
            arena,
        }
    }
}

/// A transport/edge implementation living on one host.
///
/// One agent handles **all** VMs, VM-pairs, and tenants colocated on its
/// host — mirroring μFAB-E, which is one SmartNIC program per server.
///
/// `Send` so a whole [`crate::Simulator`] can be handed to another
/// thread (the `--jobs` executor runs each simulation on a pool
/// thread); one thread runs a simulation, so no `Sync` is required.
pub trait EdgeAgent: Any + Send {
    /// Called once when the simulation starts.
    fn on_start(&mut self, ctx: &mut EdgeCtx);

    /// A packet addressed to this host arrived.
    fn on_packet(&mut self, ctx: &mut EdgeCtx, pkt: Packet);

    /// A previously-set timer fired.
    fn on_timer(&mut self, ctx: &mut EdgeCtx, kind: u64);

    /// The NIC finished serializing a packet (pull-scheduling hook).
    fn on_nic_idle(&mut self, _ctx: &mut EdgeCtx) {}

    /// A workload driver injected a message (e.g. an `AppMsg`).
    fn on_inject(&mut self, _ctx: &mut EdgeCtx, _msg: Inject) {}

    /// The agent process restarted (fault injection): volatile control
    /// state is gone and must be rebuilt — μFAB-E rebuilds path state
    /// from probing. Durable transport state (host memory) survives.
    /// Default: no-op, for transports with no state worth modelling.
    fn on_restart(&mut self, _ctx: &mut EdgeCtx) {}

    /// Downcast support for experiment introspection.
    fn as_any(&self) -> &dyn Any;
    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Immutable snapshot of the egress port a packet is departing from,
/// captured at dequeue time — the values a P4 egress pipeline would see.
#[derive(Debug, Clone, Copy)]
pub struct PortView {
    /// Egress port number.
    pub port: PortNo,
    /// Queue backlog in bytes *behind* the departing packet.
    pub q_bytes: u64,
    /// Smoothed TX rate in bits/sec (includes the departing packet).
    pub tx_bps: f64,
    /// Physical capacity in bits/sec.
    pub cap_bps: u64,
}

/// Context handed to switch-agent callbacks.
pub struct SwitchCtx<'a> {
    /// Current simulation time.
    pub now: Time,
    /// The switch this agent runs on.
    pub node: NodeId,
    pub(crate) effects: &'a mut Effects,
}

impl<'a> SwitchCtx<'a> {
    /// Schedule `on_timer(kind)` after `delay` nanoseconds.
    pub fn set_timer(&mut self, delay: Time, kind: u64) {
        self.effects.timers.push((self.now + delay, kind));
    }

    /// Build a context outside a simulator (unit-testing switch agents).
    pub fn standalone(now: Time, node: NodeId, effects: &'a mut Effects) -> Self {
        Self { now, node, effects }
    }
}

/// A programmable-switch dataplane program (μFAB-C or nothing).
///
/// `Send` for the same reason as [`EdgeAgent`].
pub trait SwitchAgent: Any + Send {
    /// Called once when the simulation starts (schedule cleanup timers).
    fn on_start(&mut self, _ctx: &mut SwitchCtx) {}

    /// A packet is departing through `view.port`: read/modify it (stamp
    /// INT, update registers). This runs at dequeue, like a P4 egress
    /// pipeline.
    fn on_egress(&mut self, ctx: &mut SwitchCtx, view: PortView, pkt: &mut Packet);

    /// A previously-set timer fired (e.g. §4.2 idle cleanup).
    fn on_timer(&mut self, _ctx: &mut SwitchCtx, _kind: u64) {}

    /// The switch rebooted (fault injection): wipe all dataplane state
    /// — registers, Bloom filter and shadow structures together, so
    /// conservation invariants hold across the wipe. Pending timers
    /// keep firing. Default: no-op for stateless dataplanes.
    fn on_reset(&mut self, _ctx: &mut SwitchCtx) {}

    /// Downcast support.
    fn as_any(&self) -> &dyn Any;
    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn ctx_collects_effects() {
        let mut fx = Effects::default();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut arena = PacketArena::default();
        let mut ctx = EdgeCtx {
            now: 100,
            nic: NicView {
                queue_pkts: 0,
                cap_bps: 10_000_000_000,
            },
            rng: &mut rng,
            effects: &mut fx,
            arena: &mut arena,
        };
        ctx.set_timer(50, 7);
        ctx.set_timer_at(20, 8); // in the past: clamped to now
        assert_eq!(fx.timers, vec![(150, 7), (100, 8)]);
    }
}
