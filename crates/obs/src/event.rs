//! Structured recorder events and the category enable mask.

use std::fmt::Write as _;

/// Event families, each individually maskable on the recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Category {
    /// Packet accepted into an egress queue.
    Enqueue = 0,
    /// Packet leaving an egress queue onto the wire.
    Dequeue = 1,
    /// Packet lost (overflow, link down, chaos loss).
    Drop = 2,
    /// Link state flips.
    Link = 3,
    /// Edge admission-window recomputation.
    Window = 4,
    /// Core switch demand-register mutation.
    Register = 5,
    /// Edge path migration.
    Migration = 6,
    /// Invariant checker verdicts.
    Invariant = 7,
    /// Anything else (harness milestones, debug marks).
    Custom = 8,
    /// Fabric-manager tenant lifecycle transitions.
    Tenant = 9,
    /// Control-plane operator commands (resize, drain, snapshot, ...).
    Ops = 10,
    /// Per-tenant edge enforcement verdicts (policer, probe throttle,
    /// unsolicited drop) and quarantine-machine actions.
    Enforcement = 11,
}

impl Category {
    /// The category's bit in a [`CategoryMask`].
    pub(crate) fn bit(self) -> u32 {
        1 << (self as u8)
    }

    /// Stable lowercase name (used in JSONL output).
    pub(crate) fn name(self) -> &'static str {
        match self {
            Category::Enqueue => "enqueue",
            Category::Dequeue => "dequeue",
            Category::Drop => "drop",
            Category::Link => "link",
            Category::Window => "window",
            Category::Register => "register",
            Category::Migration => "migration",
            Category::Invariant => "invariant",
            Category::Custom => "custom",
            Category::Tenant => "tenant",
            Category::Ops => "ops",
            Category::Enforcement => "enforcement",
        }
    }
}

/// Bitmask of enabled [`Category`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CategoryMask(u32);

impl CategoryMask {
    /// Everything enabled.
    pub(crate) const ALL: CategoryMask = CategoryMask(u32::MAX);

    /// Mask with exactly the given categories.
    pub fn of(cats: &[Category]) -> Self {
        CategoryMask(cats.iter().fold(0, |m, c| m | c.bit()))
    }

    /// Is `cat` enabled?
    pub(crate) fn contains(self, cat: Category) -> bool {
        self.0 & cat.bit() != 0
    }
}

impl Default for CategoryMask {
    fn default() -> Self {
        CategoryMask::ALL
    }
}

/// One structured recorder event. Fields are raw ids (`NodeId::raw()`
/// and friends) so this crate stays a dependency-free leaf.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Packet accepted into `node`'s egress queue on `port`.
    Enqueue {
        /// Node holding the queue.
        node: u32,
        /// Egress port.
        port: u16,
        /// Pair id (`u32::MAX` when not pair-addressed).
        pair: u32,
        /// Packet kind label (`"data"`, `"probe"`, ...).
        kind: &'static str,
        /// Packet size.
        bytes: u32,
        /// Queue depth after the enqueue.
        q_bytes: u64,
    },
    /// Packet pulled off `node`'s queue onto the wire.
    Dequeue {
        /// Node holding the queue.
        node: u32,
        /// Egress port.
        port: u16,
        /// Pair id (`u32::MAX` when not pair-addressed).
        pair: u32,
        /// Packet kind label.
        kind: &'static str,
        /// Packet size.
        bytes: u32,
    },
    /// Packet lost.
    Drop {
        /// Node where the loss happened.
        node: u32,
        /// Egress port.
        port: u16,
        /// Pair id (`u32::MAX` when not pair-addressed).
        pair: u32,
        /// Packet kind label.
        kind: &'static str,
        /// Packet size.
        bytes: u32,
        /// Loss reason (`"overflow"`, `"down"`, `"chaos-ctrl"`,
        /// `"chaos-burst"`).
        reason: &'static str,
    },
    /// Link state flip on `node`/`port`.
    Link {
        /// Affected node.
        node: u32,
        /// Affected port.
        port: u16,
        /// New state.
        up: bool,
    },
    /// Edge recomputed a pair's admission window (paper Eqn. 3).
    Window {
        /// Edge host node.
        edge: u32,
        /// Pair id.
        pair: u32,
        /// New window (bytes).
        window: f64,
        /// Guaranteed-share term Φ_s.
        phi_s: f64,
        /// Receiver-share term Φ_r.
        phi_r: f64,
    },
    /// Core switch mutated a port's demand registers (paper §3.6).
    Register {
        /// Switch node.
        switch: u32,
        /// Switch port.
        port: u16,
        /// Pair id.
        pair: u32,
        /// Change to the Φ register.
        d_phi: f64,
        /// Change to the W register.
        d_w: f64,
        /// Live registrations on the port after the update.
        n_pairs: u32,
    },
    /// Edge migrated a pair to a different path (paper §3.5).
    Migration {
        /// Edge host node.
        edge: u32,
        /// Pair id.
        pair: u32,
        /// Previous path index.
        from: u8,
        /// New path index.
        to: u8,
    },
    /// An invariant checker produced a verdict.
    Invariant {
        /// Checker name.
        name: &'static str,
        /// Whether the check passed.
        ok: bool,
    },
    /// Free-form milestone.
    Custom {
        /// Short label.
        label: &'static str,
        /// First payload word.
        a: u64,
        /// Second payload word.
        b: u64,
    },
    /// Fabric-manager tenant lifecycle transition.
    Tenant {
        /// Fabric tenant id (`TenantId::raw()`).
        tenant: u32,
        /// New lifecycle state label.
        state: &'static str,
        /// State-specific payload (e.g. latency ns, reject reason code).
        aux: u64,
    },
    /// Control-plane operator command applied by the fabric service.
    Op {
        /// Operation label (`"resize"`, `"drain"`, `"snapshot"`, ...).
        kind: &'static str,
        /// Subject id (tenant id or node id, kind-dependent).
        subject: u32,
        /// Op-specific payload (latency ns, moved-VM count, byte size).
        aux: u64,
    },
    /// Per-tenant enforcement verdict at an edge, or a quarantine-machine
    /// action in the fabric manager (`edge == u32::MAX`).
    Enforcement {
        /// Edge host node (`u32::MAX` for manager-side actions).
        edge: u32,
        /// Fabric tenant id (`TenantId::raw()`).
        tenant: u32,
        /// Abuse class / action label (`"policed"`, `"probe_throttle"`,
        /// `"unsolicited"`, `"clamp"`, `"unclamp"`).
        class: &'static str,
        /// Class-specific payload (policed windows, dropped probes,
        /// dropped bytes, clamp permille).
        aux: u64,
    },
}

impl Event {
    /// The category this event belongs to.
    pub(crate) fn category(&self) -> Category {
        match self {
            Event::Enqueue { .. } => Category::Enqueue,
            Event::Dequeue { .. } => Category::Dequeue,
            Event::Drop { .. } => Category::Drop,
            Event::Link { .. } => Category::Link,
            Event::Window { .. } => Category::Window,
            Event::Register { .. } => Category::Register,
            Event::Migration { .. } => Category::Migration,
            Event::Invariant { .. } => Category::Invariant,
            Event::Custom { .. } => Category::Custom,
            Event::Tenant { .. } => Category::Tenant,
            Event::Op { .. } => Category::Ops,
            Event::Enforcement { .. } => Category::Enforcement,
        }
    }

    /// Append this event's fields as JSON object members (no braces).
    ///
    /// Labels are `&'static str` chosen by instrumentation code and
    /// never contain characters needing escapes, so plain quoting is
    /// safe.
    pub(crate) fn write_json_fields(&self, out: &mut String) {
        let _ = match self {
            Event::Enqueue {
                node,
                port,
                pair,
                kind,
                bytes,
                q_bytes,
            } => write!(
                out,
                "\"node\":{node},\"port\":{port},\"pair\":{pair},\
                 \"kind\":\"{kind}\",\"bytes\":{bytes},\"q_bytes\":{q_bytes}"
            ),
            Event::Dequeue {
                node,
                port,
                pair,
                kind,
                bytes,
            } => write!(
                out,
                "\"node\":{node},\"port\":{port},\"pair\":{pair},\
                 \"kind\":\"{kind}\",\"bytes\":{bytes}"
            ),
            Event::Drop {
                node,
                port,
                pair,
                kind,
                bytes,
                reason,
            } => write!(
                out,
                "\"node\":{node},\"port\":{port},\"pair\":{pair},\
                 \"kind\":\"{kind}\",\"bytes\":{bytes},\"reason\":\"{reason}\""
            ),
            Event::Link { node, port, up } => {
                write!(out, "\"node\":{node},\"port\":{port},\"up\":{up}")
            }
            Event::Window {
                edge,
                pair,
                window,
                phi_s,
                phi_r,
            } => write!(
                out,
                "\"edge\":{edge},\"pair\":{pair},\"window\":{window:.3},\
                 \"phi_s\":{phi_s:.6},\"phi_r\":{phi_r:.6}"
            ),
            Event::Register {
                switch,
                port,
                pair,
                d_phi,
                d_w,
                n_pairs,
            } => write!(
                out,
                "\"switch\":{switch},\"port\":{port},\"pair\":{pair},\
                 \"d_phi\":{d_phi:.6},\"d_w\":{d_w:.6},\"n_pairs\":{n_pairs}"
            ),
            Event::Migration {
                edge,
                pair,
                from,
                to,
            } => write!(
                out,
                "\"edge\":{edge},\"pair\":{pair},\"from\":{from},\"to\":{to}"
            ),
            Event::Invariant { name, ok } => {
                write!(out, "\"name\":\"{name}\",\"ok\":{ok}")
            }
            Event::Custom { label, a, b } => {
                write!(out, "\"label\":\"{label}\",\"a\":{a},\"b\":{b}")
            }
            Event::Tenant { tenant, state, aux } => {
                write!(
                    out,
                    "\"tenant\":{tenant},\"state\":\"{state}\",\"aux\":{aux}"
                )
            }
            Event::Op { kind, subject, aux } => {
                write!(
                    out,
                    "\"kind\":\"{kind}\",\"subject\":{subject},\"aux\":{aux}"
                )
            }
            Event::Enforcement {
                edge,
                tenant,
                class,
                aux,
            } => write!(
                out,
                "\"edge\":{edge},\"tenant\":{tenant},\
                 \"class\":\"{class}\",\"aux\":{aux}"
            ),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_holds_exactly_its_categories() {
        let m = CategoryMask::of(&[Category::Drop, Category::Window]);
        assert!(m.contains(Category::Drop));
        assert!(m.contains(Category::Window));
        assert!(!m.contains(Category::Enqueue));
        assert_eq!(m, CategoryMask::of(&[Category::Window, Category::Drop]));
        assert!(CategoryMask::ALL.contains(Category::Enforcement));
    }

    #[test]
    fn categories_match_variants() {
        let ev = Event::Drop {
            node: 1,
            port: 2,
            pair: 3,
            kind: "data",
            bytes: 1500,
            reason: "overflow",
        };
        assert_eq!(ev.category(), Category::Drop);
        let mut s = String::new();
        ev.write_json_fields(&mut s);
        assert!(s.contains("\"reason\":\"overflow\""), "{s}");
    }

    #[test]
    fn tenant_events_serialize() {
        let ev = Event::Tenant {
            tenant: 7,
            state: "guaranteed",
            aux: 123,
        };
        assert_eq!(ev.category(), Category::Tenant);
        let mut s = String::new();
        ev.write_json_fields(&mut s);
        assert_eq!(s, "\"tenant\":7,\"state\":\"guaranteed\",\"aux\":123");
    }

    #[test]
    fn enforcement_events_serialize() {
        let ev = Event::Enforcement {
            edge: 3,
            tenant: 12,
            class: "policed",
            aux: 2,
        };
        assert_eq!(ev.category(), Category::Enforcement);
        let mut s = String::new();
        ev.write_json_fields(&mut s);
        assert_eq!(
            s,
            "\"edge\":3,\"tenant\":12,\"class\":\"policed\",\"aux\":2"
        );
    }

    #[test]
    fn op_events_serialize() {
        let ev = Event::Op {
            kind: "resize",
            subject: 4,
            aux: 9,
        };
        assert_eq!(ev.category(), Category::Ops);
        let mut s = String::new();
        ev.write_json_fields(&mut s);
        assert_eq!(s, "\"kind\":\"resize\",\"subject\":4,\"aux\":9");
    }
}
