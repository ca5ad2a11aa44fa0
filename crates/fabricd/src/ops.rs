//! The typed management API: commands and replies, each with a
//! canonical single-line wire form.
//!
//! The wire form is the determinism contract: the service folds the
//! encoded bytes of every applied op and its reply into its digest, so
//! two runs that process the same op stream are byte-comparable in
//! O(1). Op encoding is canonical — `decode(encode(x)) == x` and
//! `encode(decode(s)) == s` for any valid `s` — which the snapshot
//! format relies on to round-trip the pending queue exactly. Replies
//! are only written, never parsed.
//!
//! Floats (hose tokens) travel as shortest-round-trip decimal (Rust's
//! `f64` `Display`), which is canonical and exact.

use fabric::RejectReason;
use std::fmt;

/// A state-mutating operator command.
#[derive(Debug, Clone, PartialEq)]
pub enum FabricOp {
    /// Request admission of a new tenant.
    Admit {
        /// Tenant name. Must be a non-empty single token (no
        /// whitespace) — the service rejects anything else with
        /// [`FabricReply::Error`], since names embed verbatim in the
        /// wire form and the snapshot tenant records.
        name: String,
        /// VM count.
        n_vms: usize,
        /// Hose tokens per VM (B_min = tokens × B_u).
        tokens_per_vm: f64,
        /// Lifetime from the admission decision (ns); the service
        /// departs the tenant automatically when it expires.
        lifetime: u64,
    },
    /// Depart tenant `tenant` now (ahead of its lifetime).
    Depart {
        /// Service tenant id.
        tenant: u32,
    },
    /// Resize an admitted tenant's hose guarantee in place.
    Resize {
        /// Service tenant id.
        tenant: u32,
        /// New hose tokens per VM.
        new_tokens_per_vm: f64,
    },
    /// Cordon a node: no new placements touch it (an agg/core cordon
    /// also rebuilds the spread table around it).
    Cordon {
        /// Raw node id.
        node: u32,
    },
    /// Reverse a cordon.
    Uncordon {
        /// Raw node id.
        node: u32,
    },
    /// Cordon a node and migrate every placement off it,
    /// all-or-nothing.
    Drain {
        /// Raw node id.
        node: u32,
    },
}

impl FabricOp {
    /// Stable lowercase label (obs events, tables).
    pub(crate) fn label(&self) -> &'static str {
        match self {
            FabricOp::Admit { .. } => "admit",
            FabricOp::Depart { .. } => "depart",
            FabricOp::Resize { .. } => "resize",
            FabricOp::Cordon { .. } => "cordon",
            FabricOp::Uncordon { .. } => "uncordon",
            FabricOp::Drain { .. } => "drain",
        }
    }

    /// Canonical wire form (the [`fmt::Display`] output).
    pub fn encode(&self) -> String {
        self.to_string()
    }

    /// Parse a wire line produced by [`FabricOp::encode`].
    pub fn decode(s: &str) -> Result<FabricOp, String> {
        let mut it = s.split_whitespace();
        let verb = it.next().ok_or("empty op line")?;
        let op = match verb {
            "admit" => FabricOp::Admit {
                name: {
                    let n = it.next().ok_or("admit: missing name")?;
                    n.to_string()
                },
                n_vms: field(&mut it, "admit", "n_vms")?,
                tokens_per_vm: field(&mut it, "admit", "tokens_per_vm")?,
                lifetime: field(&mut it, "admit", "lifetime")?,
            },
            "depart" => FabricOp::Depart {
                tenant: field(&mut it, "depart", "tenant")?,
            },
            "resize" => FabricOp::Resize {
                tenant: field(&mut it, "resize", "tenant")?,
                new_tokens_per_vm: field(&mut it, "resize", "new_tokens_per_vm")?,
            },
            "cordon" => FabricOp::Cordon {
                node: field(&mut it, "cordon", "node")?,
            },
            "uncordon" => FabricOp::Uncordon {
                node: field(&mut it, "uncordon", "node")?,
            },
            "drain" => FabricOp::Drain {
                node: field(&mut it, "drain", "node")?,
            },
            other => return Err(format!("unknown op verb {other:?}")),
        };
        match it.next() {
            None => Ok(op),
            Some(extra) => Err(format!("trailing token {extra:?} after {verb} op")),
        }
    }
}

/// The canonical wire form: what `encode` returns and the digest folds.
impl fmt::Display for FabricOp {
    fn fmt(&self, f: &mut fmt::Formatter) -> fmt::Result {
        match self {
            FabricOp::Admit {
                name,
                n_vms,
                tokens_per_vm,
                lifetime,
            } => write!(f, "admit {name} {n_vms} {tokens_per_vm} {lifetime}"),
            FabricOp::Depart { tenant } => write!(f, "depart {tenant}"),
            FabricOp::Resize {
                tenant,
                new_tokens_per_vm,
            } => write!(f, "resize {tenant} {new_tokens_per_vm}"),
            FabricOp::Cordon { node } => write!(f, "cordon {node}"),
            FabricOp::Uncordon { node } => write!(f, "uncordon {node}"),
            FabricOp::Drain { node } => write!(f, "drain {node}"),
        }
    }
}

/// One migrated VM: `(tenant, vm index, from host raw, to host raw)`.
pub(crate) type Moved = (u32, u32, u32, u32);

/// The service's answer to an op.
#[derive(Debug, Clone, PartialEq)]
pub enum FabricReply {
    /// Admission succeeded; `hosts[i]` holds VM *i*.
    Admitted {
        /// Assigned service tenant id.
        tenant: u32,
        /// Raw host ids, one per VM.
        hosts: Vec<u32>,
    },
    /// Admission refused.
    Rejected {
        /// Why.
        reason: RejectReason,
    },
    /// Tenant departed; capacity freed.
    Departed {
        /// Service tenant id.
        tenant: u32,
    },
    /// In-place resize committed.
    Resized {
        /// Service tenant id.
        tenant: u32,
        /// Hose tokens per VM before.
        old_tokens: f64,
        /// Hose tokens per VM after.
        new_tokens: f64,
    },
    /// Resize refused; the old guarantee stands untouched.
    ResizeDenied {
        /// Service tenant id.
        tenant: u32,
        /// First blocking condition.
        detail: String,
    },
    /// Node cordoned (spread rebuilt when it is an agg/core).
    Cordoned {
        /// Raw node id.
        node: u32,
    },
    /// Cordon reversed.
    Uncordoned {
        /// Raw node id.
        node: u32,
    },
    /// Drain completed: the node is cordoned and empty.
    Drained {
        /// Raw node id.
        node: u32,
        /// Every migrated VM.
        moved: Vec<Moved>,
    },
    /// Drain refused; every partial migration was rolled back and the
    /// cordon reverted.
    DrainFailed {
        /// Raw node id.
        node: u32,
        /// First blocking condition.
        detail: String,
    },
    /// The op referenced a tenant/node the service does not know, or
    /// one in the wrong state.
    Error {
        /// What was wrong.
        detail: String,
    },
}

impl FabricReply {
    /// Canonical wire form (the [`fmt::Display`] output).
    pub fn encode(&self) -> String {
        self.to_string()
    }
}

/// The canonical wire form: what `encode` returns and the digest folds.
impl fmt::Display for FabricReply {
    fn fmt(&self, f: &mut fmt::Formatter) -> fmt::Result {
        match self {
            FabricReply::Admitted { tenant, hosts } => {
                write!(f, "admitted {tenant} ")?;
                write_list(f, hosts, ',', |f, h| write!(f, "{h}"))
            }
            FabricReply::Rejected { reason } => write!(f, "rejected {}", reason.label()),
            FabricReply::Departed { tenant } => write!(f, "departed {tenant}"),
            FabricReply::Resized {
                tenant,
                old_tokens,
                new_tokens,
            } => write!(f, "resized {tenant} {old_tokens} {new_tokens}"),
            FabricReply::ResizeDenied { tenant, detail } => {
                write!(f, "resize-denied {tenant} {detail}")
            }
            FabricReply::Cordoned { node } => write!(f, "cordoned {node}"),
            FabricReply::Uncordoned { node } => write!(f, "uncordoned {node}"),
            FabricReply::Drained { node, moved } => {
                write!(f, "drained {node} ")?;
                write_list(f, moved, ',', |f, (t, v, a, b)| {
                    write!(f, "{t}:{v}:{a}:{b}")
                })
            }
            FabricReply::DrainFailed { node, detail } => write!(f, "drain-failed {node} {detail}"),
            FabricReply::Error { detail } => write!(f, "err {detail}"),
        }
    }
}

/// Write `items` separated by `sep`, or `-` when there are none — the
/// list form of the wire and snapshot records, with no per-item strings.
pub(crate) fn write_list<W: fmt::Write, T>(
    w: &mut W,
    items: impl IntoIterator<Item = T>,
    sep: char,
    mut item: impl FnMut(&mut W, T) -> fmt::Result,
) -> fmt::Result {
    let mut empty = true;
    for x in items {
        if !std::mem::take(&mut empty) {
            w.write_char(sep)?;
        }
        item(w, x)?;
    }
    if empty {
        w.write_char('-')?;
    }
    Ok(())
}

pub(crate) fn field<T: std::str::FromStr>(
    it: &mut std::str::SplitWhitespace,
    verb: &str,
    name: &str,
) -> Result<T, String> {
    let tok = it.next().ok_or_else(|| format!("{verb}: missing {name}"))?;
    tok.parse()
        .map_err(|_| format!("{verb}: bad {name} {tok:?}"))
}

pub(crate) fn num<T: std::str::FromStr>(tok: &str, what: &str) -> Result<T, String> {
    tok.parse().map_err(|_| format!("bad {what} {tok:?}"))
}

/// Parse a `,`-separated list written by [`write_list`].
pub(crate) fn split_list<T: std::str::FromStr>(s: &str) -> Result<Vec<T>, String> {
    if s == "-" {
        return Ok(Vec::new());
    }
    s.split(',').map(|x| num(x, "list entry")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_wire_round_trips() {
        let ops = vec![
            FabricOp::Admit {
                name: "t0".into(),
                n_vms: 4,
                tokens_per_vm: 2.5,
                lifetime: 5_000_000,
            },
            FabricOp::Depart { tenant: 3 },
            FabricOp::Resize {
                tenant: 1,
                new_tokens_per_vm: 0.125,
            },
            FabricOp::Cordon { node: 17 },
            FabricOp::Uncordon { node: 17 },
            FabricOp::Drain { node: 9 },
        ];
        for op in ops {
            let wire = op.encode();
            let back = FabricOp::decode(&wire).unwrap();
            assert_eq!(back, op, "{wire}");
            assert_eq!(back.encode(), wire, "encoding must be canonical");
        }
    }

    #[test]
    fn encode_is_the_display_form_of_every_variant() {
        let ops = [
            "admit t0 4 2.5 5000000",
            "depart 3",
            "resize 1 0.125",
            "cordon 17",
            "uncordon 17",
            "drain 9",
        ];
        for line in ops {
            let op = FabricOp::decode(line).unwrap();
            assert_eq!(
                (op.encode(), format!("{op}")),
                (line.to_string(), line.to_string())
            );
        }
        // Replies are only ever written: the digest folds these bytes.
        let replies = [
            (
                FabricReply::Admitted {
                    tenant: 0,
                    hosts: vec![4, 9, 12],
                },
                "admitted 0 4,9,12",
            ),
            (
                FabricReply::Admitted {
                    tenant: 1,
                    hosts: vec![],
                },
                "admitted 1 -",
            ),
            (
                FabricReply::Rejected {
                    reason: RejectReason::NoSlots,
                },
                "rejected no_slots",
            ),
            (
                FabricReply::Rejected {
                    reason: RejectReason::NoCapacity,
                },
                "rejected no_capacity",
            ),
            (FabricReply::Departed { tenant: 7 }, "departed 7"),
            (
                FabricReply::Resized {
                    tenant: 7,
                    old_tokens: 2.0,
                    new_tokens: 3.5,
                },
                "resized 7 2 3.5",
            ),
            (
                FabricReply::ResizeDenied {
                    tenant: 7,
                    detail: "blocked on link 4:1 (4 ↔ 5)".into(),
                },
                "resize-denied 7 blocked on link 4:1 (4 ↔ 5)",
            ),
            (FabricReply::Cordoned { node: 3 }, "cordoned 3"),
            (FabricReply::Uncordoned { node: 3 }, "uncordoned 3"),
            (
                FabricReply::Drained {
                    node: 3,
                    moved: vec![(0, 1, 3, 8), (2, 0, 3, 9)],
                },
                "drained 3 0:1:3:8,2:0:3:9",
            ),
            (
                FabricReply::Drained {
                    node: 4,
                    moved: vec![],
                },
                "drained 4 -",
            ),
            (
                FabricReply::DrainFailed {
                    node: 3,
                    detail: "no admissible host for tenant 2".into(),
                },
                "drain-failed 3 no admissible host for tenant 2",
            ),
            (
                FabricReply::Error {
                    detail: "tenant 99 unknown".into(),
                },
                "err tenant 99 unknown",
            ),
        ];
        for (r, line) in replies {
            assert_eq!(
                (r.encode(), format!("{r}")),
                (line.to_string(), line.to_string())
            );
        }
    }

    #[test]
    fn decode_rejects_malformed_lines() {
        assert!(FabricOp::decode("").is_err());
        assert!(FabricOp::decode("warp 1").is_err());
        assert!(FabricOp::decode("depart").is_err());
        assert!(FabricOp::decode("depart x").is_err());
        assert!(FabricOp::decode("depart 1 2").is_err());
    }
}
