//! Application messages and the concrete injection channel.
//!
//! Workload drivers hand edge agents work through
//! [`Simulator::inject`](crate::Simulator::inject). This used to be a
//! `Box<dyn Any>` per injection — one allocation plus a vtable-guided
//! downcast on the hot path, and no way for the determinism digest to
//! see *what* was injected. [`Inject`] is the closed set of things that
//! can be injected; [`AppMsg`] (historically defined by the μFAB edge
//! crate, now shared here so every layer speaks the same type) is the
//! only payload today, and new variants are a one-line addition.

use crate::ids::{FlowId, PairId};
use crate::time::Time;

/// An application message to transmit on a pair.
#[derive(Debug, Clone)]
pub struct AppMsg {
    /// Flow identifier (unique per message).
    pub flow: FlowId,
    /// Pair to send on.
    pub pair: PairId,
    /// Payload size in bytes.
    pub size: u64,
    /// If nonzero, the receiver auto-replies with this many bytes on the
    /// reverse pair (which must be registered in the fabric).
    pub reply_size: u64,
    /// Workload tag carried through to completions.
    pub tag: u32,
    /// Submission timestamp override (replies inherit the request's) —
    /// `None` uses the time of `submit`.
    pub start_at: Option<Time>,
}

impl AppMsg {
    /// A one-way message.
    pub fn oneway(flow: u64, pair: PairId, size: u64, tag: u32) -> Self {
        Self {
            flow: FlowId(flow),
            pair,
            size,
            reply_size: 0,
            tag,
            start_at: None,
        }
    }

    /// A request expecting a `reply_size`-byte response.
    pub fn request(flow: u64, pair: PairId, size: u64, reply_size: u64, tag: u32) -> Self {
        Self {
            flow: FlowId(flow),
            pair,
            size,
            reply_size,
            tag,
            start_at: None,
        }
    }
}

/// A concrete value delivered to an edge agent's `on_inject`.
#[derive(Debug, Clone)]
pub enum Inject {
    /// A workload message submitted to the host's transport endpoint.
    App(AppMsg),
}

impl From<AppMsg> for Inject {
    fn from(m: AppMsg) -> Self {
        Inject::App(m)
    }
}

impl Inject {
    /// `(discriminant, payload)` summary folded into the determinism
    /// digest — enough to distinguish divergent injection schedules.
    pub(crate) fn det_aux(&self) -> u64 {
        match self {
            Inject::App(m) => ((m.pair.raw() as u64) << 32) | (m.size & 0xFFFF_FFFF),
        }
    }
}
