//! Versioned snapshot serialization for [`FabricService`].
//!
//! Format (line-oriented text, one `\n`-terminated record per line):
//!
//! ```text
//! ufab-fabricd-snapshot v5
//! cfg <bu_bits> <headroom_bits> <max_vms> <policy>
//! clock <clock> <last_submit> <next_slot> <next_seq> <digest>
//! rejected <n_rejected>
//! cordon <raw,...|->
//! tenant <name> <tokens_bits> <state> <admitted> <depart> <guaranteed|->
//!        hosts <raw,...> spans <a:b,...|->          (one line per tenant)
//! queue <submitted> <seq> <op wire form>            (one line per pending op)
//! abuse                                             (only when the scorer is on)
//! abuserow <id> <score_bits> <sustain>              (one line per scorer row)
//! end
//! ```
//!
//! The `abuse` marker and `abuserow` records carry the quarantine
//! machine (DESIGN §10): each tenant's misbehavior score and sustain
//! count, so a service restored mid-quarantine keeps both (the marker
//! alone stands for a scorer with no rows yet). With the scorer off
//! both are absent. When the hold and the probation started is not
//! written: a quarantine starts where its tenant's last guarantee span
//! closed, a probation where the open one opened.
//!
//! Every `f64` travels as its IEEE-754 bit pattern in fixed-width hex.
//! The admission-queue ops reuse the canonical wire form, and the
//! digest state rides along so the restored service continues the
//! original reply stream. Rendering is canonical: `render(restore(s))
//! == s`, which is what the `SnapshotRoundTrip` invariant asserts
//! online.
//!
//! What is *not* serialized: the topology (the restore caller provides
//! an identically-built one — it is static config, not state), the
//! ledger and placer (the ledger's integer arithmetic makes both a
//! function of the active tenants, so `restore` re-commits each on its
//! recorded hosts, [`FabricService::rebuilt`]), the departure/reclaim
//! heaps (rebuilt from each tenant's `depart`, which is the instant it
//! departed once it has), what a tenant's guarantee spans determine
//! (its time-to-guarantee, since when it has been qualifying, and when
//! its quarantine or probation started), and
//! the obs handle (re-attach with [`FabricService::set_obs`]). A
//! snapshot's size therefore follows its tenant records, cordons and
//! queued ops, not the link count.

use crate::ops::{field, num, split_list, write_list, FabricOp};
use crate::service::{FabricService, SvcTenant, RECLAIM_GRACE};
use fabric::{AdmissionCfg, Ledger, MisbehaviorLedger, Placer, Policy, TenantState, SUSTAIN_TICKS};
use netsim::Time;
use obs::{DetHash, ObsHandle};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use std::fmt::Write as _;
use std::sync::Arc;
use topology::Topo;

/// First line of every snapshot; bump the suffix on format changes.
pub(crate) const HEADER: &str = "ufab-fabricd-snapshot v5";

/// Serialize the complete service state, every record written straight
/// into one buffer sized for it.
pub(crate) fn render(s: &FabricService) -> String {
    let rows = s.abuse.as_ref().map_or(0, |ab| ab.len());
    let mut buf = String::with_capacity(400 + 160 * (s.tenants.len() + s.queue.len()) + 40 * rows);
    let out = &mut buf;
    let _ = writeln!(out, "{HEADER}");
    let c = &s.cfg;
    let _ = writeln!(
        out,
        "cfg {:016x} {:016x} {} {}",
        c.bu_bps.to_bits(),
        c.headroom.to_bits(),
        c.max_vms_per_host,
        c.policy.label(),
    );
    let _ = writeln!(
        out,
        "clock {} {} {} {} {:016x}",
        s.clock,
        s.last_submit,
        s.next_slot,
        s.next_seq,
        s.digest.digest()
    );
    let _ = writeln!(out, "rejected {}", s.n_rejected);
    out.push_str("cordon ");
    let _ = write_list(out, &s.cordoned, ',', |o, x| write!(o, "{x}"));
    out.push('\n');
    for t in &s.tenants {
        let _ = write!(
            out,
            "tenant {} {:016x} {} {} {} ",
            t.name,
            t.tokens_per_vm.to_bits(),
            t.state.label(),
            t.admitted_at,
            t.depart_at,
        );
        // An `Option` is a list of at most one: `-` when it is `None`.
        let _ = write_list(out, t.guaranteed_at, ' ', |o, x| write!(o, "{x}"));
        out.push_str(" hosts ");
        let _ = write_list(out, &t.hosts, ',', |o, h| write!(o, "{}", h.raw()));
        out.push_str(" spans ");
        let _ = write_list(out, &t.guaranteed_spans, ',', |o, (a, b)| {
            write!(o, "{a}:{b}")
        });
        out.push('\n');
    }
    for (t, seq, op) in &s.queue {
        let _ = writeln!(out, "queue {t} {seq} {op}");
    }
    if let Some(ab) = &s.abuse {
        out.push_str("abuse\n");
        for i in 0..ab.len() {
            let (score, sustain) = (ab.score(i).to_bits(), ab.suspect_ticks(i));
            let _ = writeln!(out, "abuserow {i} {score:016x} {sustain}");
        }
    }
    out.push_str("end\n");
    buf
}

impl FabricService {
    /// Serialize the complete service state (versioned; see the module
    /// docs for the format). Also emitted as an `Ops` trace event.
    pub fn snapshot(&self) -> String {
        let snap = render(self);
        let bytes = snap.len() as u64;
        self.obs
            .rec(obs::Category::Ops, self.clock, || obs::Event::Op {
                kind: "snapshot",
                subject: 0,
                aux: bytes,
            });
        snap
    }

    /// Rebuild a service from a snapshot over an identically-built
    /// `topo`: parse the records and place every active tenant on its
    /// recorded hosts (`FabricService::rebuilt`, the conservation
    /// audit's own shadow, so the result passes the audit by
    /// construction). A snapshot whose tenants overbook a link or a
    /// host's slots is an `Err` naming the tenant. The restored service
    /// re-snapshots byte-identically.
    pub fn restore(topo: Arc<Topo>, snap: &str) -> Result<Self, String> {
        let mut lines = snap.lines();
        let header = lines.next().unwrap_or("");
        if header != HEADER {
            return Err(format!(
                "snapshot header mismatch (want {HEADER:?}, got {header:?})"
            ));
        }

        let cfg_line = expect(&mut lines, "cfg")?;
        let mut f = cfg_line.split_whitespace();
        let cfg = AdmissionCfg {
            bu_bps: f64::from_bits(hex(&mut f, "cfg bu_bps")?),
            headroom: f64::from_bits(hex(&mut f, "cfg headroom")?),
            max_vms_per_host: field(&mut f, "cfg", "max_vms_per_host")?,
            policy: match f.next().ok_or("cfg: missing policy")? {
                "first_fit" => Policy::FirstFit,
                "load_spread" => Policy::LoadSpread,
                p => return Err(format!("unknown placement policy {p:?}")),
            },
        };
        if !(cfg.headroom > 0.0 && cfg.headroom <= 1.0) || cfg.max_vms_per_host == 0 {
            let (h, m) = (cfg.headroom, cfg.max_vms_per_host);
            return Err(format!(
                "cfg needs 0 < headroom ≤ 1 and max_vms ≥ 1, got {h} and {m}"
            ));
        }

        let clock_line = expect(&mut lines, "clock")?;
        let mut f = clock_line.split_whitespace();
        let clock: Time = field(&mut f, "clock", "clock")?;
        let last_submit: Time = field(&mut f, "clock", "last_submit")?;
        let next_slot: Time = field(&mut f, "clock", "next_slot")?;
        let next_seq: u64 = field(&mut f, "clock", "next_seq")?;
        let digest = DetHash::resume(hex(&mut f, "clock digest")?);

        let rejected_line = expect(&mut lines, "rejected")?;
        let n_rejected = field(&mut rejected_line.split_whitespace(), "rejected", "count")?;

        let cordon_line = expect(&mut lines, "cordon")?;
        let cordoned: BTreeSet<u32> = split_list(cordon_line.trim())?.into_iter().collect();

        // Variable-count sections: tenants, queued ops, the scorer, end.
        let mut tenants: Vec<SvcTenant> = Vec::new();
        let mut queue: VecDeque<(Time, u64, FabricOp)> = VecDeque::new();
        let mut abuse: Option<MisbehaviorLedger> = None;
        let mut saw_end = false;
        for line in lines {
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            match tag {
                "tenant" => tenants.push(parse_tenant(rest)?),
                "queue" => {
                    let mut f = rest.splitn(3, ' ');
                    let t: Time = num(f.next().ok_or("queue: missing time")?, "queue time")?;
                    let seq: u64 = num(f.next().ok_or("queue: missing seq")?, "queue seq")?;
                    let op = FabricOp::decode(f.next().ok_or("queue: missing op")?)?;
                    queue.push_back((t, seq, op));
                }
                "abuse" if rest.is_empty() => abuse = Some(MisbehaviorLedger::new(0)),
                "abuserow" => {
                    let ab = abuse.as_mut().ok_or("abuserow before the abuse record")?;
                    let mut f = rest.split_whitespace();
                    let i: usize = field(&mut f, "abuserow", "id")?;
                    if i >= tenants.len() {
                        return Err(format!("abuserow {i} has no matching tenant"));
                    }
                    // Rows come in id order from 0 (a duplicate or a gap
                    // would not re-render as it was read).
                    if i != ab.len() {
                        return Err(format!(
                            "abuserow {i} out of order: expected row {}",
                            ab.len()
                        ));
                    }
                    let score = f64::from_bits(hex(&mut f, "abuserow score")?);
                    let sustain: u32 = field(&mut f, "abuserow", "sustain")?;
                    if let Some(extra) = f.next() {
                        return Err(format!("abuserow {i}: trailing token {extra:?}"));
                    }
                    // A count that reached the bound quarantined and
                    // restarted at 0; past it, the next tick overflows.
                    if sustain >= SUSTAIN_TICKS {
                        return Err(format!(
                            "abuserow {i}: sustain {sustain} not below {SUSTAIN_TICKS}"
                        ));
                    }
                    // The scorer grows its rows lazily, so it may have
                    // fewer than there are tenants: restore as many.
                    ab.push_row(score, sustain);
                }
                "end" => {
                    saw_end = true;
                    break;
                }
                other => return Err(format!("unexpected snapshot record {other:?}")),
            }
        }
        if !saw_end {
            return Err("snapshot truncated: missing end record".into());
        }

        // The ledger and placer are filled in from the tenants below.
        let baseline = Ledger::new_excluding(&topo, cfg.headroom, &cordoned);
        let placer = Placer::new(&topo.hosts, cfg.policy, cfg.max_vms_per_host);

        let mut departs: BinaryHeap<Reverse<(Time, u32)>> = BinaryHeap::new();
        let mut reclaims: BinaryHeap<Reverse<(Time, u32)>> = BinaryHeap::new();
        for (i, t) in tenants.iter().enumerate() {
            if t.is_live() {
                // The rebuild below (and a later reinstatement) commits
                // on these hosts; the ledger panics on a node it has no
                // spread for.
                if let Some(h) = t.hosts.iter().find(|&&h| !placer.has_host(h)) {
                    return Err(format!(
                        "tenant {i} ({}) is placed on {h}, not a host of this topology \
                         — wrong topology?",
                        t.name
                    ));
                }
                departs.push(Reverse((t.depart_at, i as u32)));
            } else if t.state == TenantState::Departing {
                let due = t.depart_at.saturating_add(RECLAIM_GRACE);
                reclaims.push(Reverse((due, i as u32)));
            }
        }

        let mut svc = Self {
            cfg,
            topo,
            ledger: baseline.clone(),
            baseline,
            placer,
            tenants,
            cordoned,
            queue,
            next_seq,
            last_submit,
            next_slot,
            clock,
            n_rejected,
            digest,
            departs,
            reclaims,
            abuse,
            obs: ObsHandle::disabled(),
        };
        (svc.ledger, svc.placer) = svc
            .rebuilt(&svc.baseline)
            .map_err(|e| format!("restored state fails conservation audit: {e}"))?;
        Ok(svc)
    }
}

fn parse_tenant(rest: &str) -> Result<SvcTenant, String> {
    let mut f = rest.split_whitespace();
    let name = f.next().ok_or("tenant: missing name")?.to_string();
    let tokens_per_vm = f64::from_bits(hex(&mut f, "tenant tokens")?);
    let state = match f.next().ok_or("tenant: missing state")? {
        "requested" => TenantState::Requested,
        "admitted" => TenantState::Admitted,
        "qualifying" => TenantState::Qualifying,
        "guaranteed" => TenantState::Guaranteed,
        "suspected" => TenantState::Suspected,
        "quarantined" => TenantState::Quarantined,
        "reinstated" => TenantState::Reinstated,
        "departing" => TenantState::Departing,
        "reclaimed" => TenantState::Reclaimed,
        s => return Err(format!("unknown tenant state {s:?}")),
    };
    let admitted_at = field(&mut f, "tenant", "admitted_at")?;
    let depart_at = field(&mut f, "tenant", "depart_at")?;
    let guaranteed_at = match f.next().ok_or("tenant: missing guaranteed_at")? {
        "-" => None,
        tok => Some(num(tok, "tenant guaranteed_at")?),
    };
    if f.next() != Some("hosts") {
        return Err("tenant: missing hosts marker".into());
    }
    let hosts = split_list(f.next().ok_or("tenant: missing hosts")?)?
        .into_iter()
        .map(netsim::NodeId)
        .collect();
    if f.next() != Some("spans") {
        return Err("tenant: missing spans marker".into());
    }
    let spans_tok = f.next().ok_or("tenant: missing spans")?;
    let mut guaranteed_spans = Vec::new();
    if spans_tok != "-" {
        for s in spans_tok.split(',') {
            let (a, b) = s.split_once(':').ok_or_else(|| format!("bad span {s:?}"))?;
            guaranteed_spans.push((num(a, "span start")?, num(b, "span end")?));
        }
    }
    if let Some(extra) = f.next() {
        return Err(format!("tenant: trailing token {extra:?}"));
    }
    // Only the guarantee-holding states have an open span to close,
    // and a quarantine closed one: its end is when the hold started.
    use TenantState::{Guaranteed, Quarantined, Reinstated, Suspected};
    if guaranteed_at.is_some() != matches!(state, Guaranteed | Suspected | Reinstated) {
        let (st, open) = (state.label(), guaranteed_at);
        return Err(format!("tenant {name}: {st} with open span {open:?}"));
    }
    if state == Quarantined && guaranteed_spans.is_empty() {
        return Err(format!("tenant {name}: quarantined with no closed span"));
    }
    Ok(SvcTenant {
        name,
        tokens_per_vm,
        state,
        hosts,
        admitted_at,
        depart_at,
        guaranteed_at,
        guaranteed_spans,
    })
}

fn expect<'a>(lines: &mut std::str::Lines<'a>, tag: &str) -> Result<&'a str, String> {
    let line = lines
        .next()
        .ok_or_else(|| format!("snapshot truncated before {tag} record"))?;
    line.strip_prefix(tag)
        .map(str::trim_start)
        .ok_or_else(|| format!("expected {tag} record, got {line:?}"))
}

fn hex(f: &mut std::str::SplitWhitespace, what: &str) -> Result<u64, String> {
    let tok = f.next().ok_or_else(|| format!("missing {what}"))?;
    u64::from_str_radix(tok, 16).map_err(|_| format!("bad {what} {tok:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric::{PROBATION, QUARANTINE_HOLD};
    use netsim::builder::LinkSpec;
    use netsim::{MS, US};
    use obs::Snapshottable;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use topology::leaf_spine;

    fn topo() -> Arc<Topo> {
        Arc::new(leaf_spine(
            2,
            2,
            4,
            LinkSpec::gbps(10, 1000),
            LinkSpec::gbps(10, 1000),
            1500,
        ))
    }

    fn admit(name: &str, n_vms: usize, tokens: f64, lifetime: Time) -> FabricOp {
        FabricOp::Admit {
            name: name.into(),
            n_vms,
            tokens_per_vm: tokens,
            lifetime,
        }
    }

    /// A service mid-flight: mixed tenant states, one resize applied,
    /// one departure fired, and one op still pending in the queue.
    fn busy_service() -> FabricService {
        let t = topo();
        let mut s = FabricService::new(t, AdmissionCfg::default());
        s.submit(0, admit("a", 3, 2.0, 5 * MS));
        s.submit(10 * US, admit("b", 2, 4.0, 800 * US));
        s.submit(20 * US, admit("c", 2, 1.5, 5 * MS));
        s.advance(100 * US);
        s.note_qualified(0, 150 * US);
        s.submit(
            200 * US,
            FabricOp::Resize {
                tenant: 2,
                new_tokens_per_vm: 3.0,
            },
        );
        s.advance(900 * US); // resize applies; "b" departs at 810 µs
                             // Leave one op pending beyond the current clock.
        s.submit(2 * MS, admit("late", 1, 1.0, MS));
        s
    }

    #[test]
    fn restore_re_renders_byte_identically() {
        // The cordoned service admitted a tenant after the scorer's last
        // tick, so it has one more tenant than scorer rows.
        for s in [busy_service(), quarantined_service().0, cordoned_service()] {
            let snap = s.snapshot();
            let r = FabricService::restore(s.topo.clone(), &snap).unwrap();
            assert_eq!(render(&r), snap);
            // The trait-level check (what the invariant runs online).
            s.verify_restore(&snap).unwrap();
        }
    }

    #[test]
    fn restored_service_continues_the_digest_stream() {
        let mut live = busy_service();
        let snap = live.snapshot();
        let mut back = FabricService::restore(live.topo.clone(), &snap).unwrap();
        assert_eq!(live.digest(), back.digest());

        // Apply an identical tail of ops to both; the pending "late"
        // admit and the new ops must produce identical replies and an
        // identical final digest.
        for s in [&mut live, &mut back] {
            s.submit(3 * MS, admit("d", 2, 2.0, 4 * MS));
            s.submit(3 * MS + 10 * US, FabricOp::Depart { tenant: 0 });
        }
        let (a, b) = (live.advance(4 * MS), back.advance(4 * MS));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.reply.encode(), y.reply.encode());
            assert_eq!(x.applied, y.applied);
        }
        assert_eq!(live.digest(), back.digest());
        assert_eq!(render(&live), render(&back));
        back.audit().unwrap();
    }

    /// A service with the scorer on and tenant 0 held in `Quarantined`
    /// (its capacity released, the hold clock running).
    fn quarantined_service() -> (FabricService, Time) {
        let mut s = busy_service();
        s.enable_abuse();
        let mut now = 900 * US;
        let abuse = BTreeMap::from([(0, [3, 1, 0])]);
        loop {
            let actions = s.abuse_tick(now, &abuse);
            now += 50 * US;
            if !actions.is_empty() {
                break;
            }
            assert!(now < 10 * MS, "never quarantined");
        }
        assert_eq!(s.tenants()[0].state, TenantState::Quarantined);
        (s, now)
    }

    /// `quarantined_service` past its pending admit, with a host, a
    /// ToR and a core cordoned and one more op left in the queue.
    fn cordoned_service() -> FabricService {
        let (mut s, _) = quarantined_service();
        let t = s.topo.clone();
        for node in [t.hosts[5], t.tors[1], t.cores[1]] {
            s.submit(2 * MS, FabricOp::Cordon { node: node.raw() });
        }
        let out = s.advance(2 * MS + 200 * US);
        assert_eq!(out.len(), 4);
        for a in &out[1..] {
            assert!(
                matches!(a.reply, crate::ops::FabricReply::Cordoned { .. }),
                "{:?}",
                a.reply
            );
        }
        s.submit(5 * MS, FabricOp::Depart { tenant: 2 });
        s
    }

    proptest! {
        /// The ledger and placer are a function of the active tenants:
        /// restoring the busy, quarantined, cordoned snapshot gives the
        /// live pair, and so does committing its tenant records in any
        /// order (ids are positional, so only the commit order moves).
        #[test]
        fn restore_in_any_tenant_order_gives_the_live_ledger_and_placer(
            keys in prop::collection::vec(any::<u64>(), 4..=4)
        ) {
            let s = cordoned_service();
            assert_eq!(s.tenants.len(), keys.len());
            let mut order: Vec<usize> = (0..keys.len()).collect();
            order.sort_by_key(|&i| keys[i]);
            let r = FabricService::restore(s.topo.clone(), &render(&s)).unwrap();
            let mut ledger = Ledger::new_excluding(&s.topo, s.cfg.headroom, &s.cordoned);
            let mut placer = Placer::new(&s.topo.hosts, s.cfg.policy, s.cfg.max_vms_per_host);
            crate::service::apply_host_cordons(&s.topo, &s.cordoned, &mut placer);
            for &i in &order {
                let t = &s.tenants[i];
                if t.is_active() {
                    let hose = s.cfg.hose(t.tokens_per_vm);
                    placer.place_fixed(&mut ledger, &t.hosts, hose).unwrap();
                }
            }
            prop_assert!(r.ledger == s.ledger && r.placer == s.placer);
            prop_assert!(ledger == s.ledger && placer == s.placer);
        }
    }

    /// What the v4 renderer wrote for `cordoned_service()`, which then
    /// also left one enforcement delta pending. v5 keeps every record
    /// but `abuserow`, which loses the quarantine and probation starts
    /// (the guarantee spans give both), the quarantine count and first
    /// instant (only the abuse scenario read them) and the pending
    /// deltas (`abuse_tick` takes them).
    const V4: &str = "ufab-fabricd-snapshot v4
cfg 41bdcd6500000000 3feccccccccccccd 8 first_fit
clock 2200000 5000000 2080000 9 7064b15c27d638e3
rejected 0
cordon 1,7,9
tenant a 4000000000000000 quarantined 0 5000000 - hosts 3,4,5 spans 150000:1250000
tenant b 4010000000000000 reclaimed 20000 820000 - hosts 3,4 spans -
tenant c 4008000000000000 qualifying 40000 5040000 - hosts 3,4 spans -
tenant late 3ff0000000000000 qualifying 2000000 3000000 - hosts 3 spans -
queue 5000000 8 depart 2
abuse
abuserow 0 400fe00000000000 0 1250001 0 1 1250001 1 0 0
abuserow 1 0000000000000000 0 0 0 0 0 0 0 0
abuserow 2 0000000000000000 0 0 0 0 0 0 0 0
end
";

    #[test]
    fn render_of_a_fixed_service_is_pinned() {
        // The same service and op stream as the v4 pin (`V4`); its
        // `clock` digest now folds each op's and reply's fields, where
        // `V4`'s folded their wire text.
        let s = cordoned_service();
        let snap = render(&s);
        let mut h = DetHash::new();
        h.fold_bytes(snap.as_bytes());
        assert_eq!(
            (h.digest(), snap.len()),
            (0x009e_1bd6_c426_fc22, 570),
            "{snap}"
        );
        assert_eq!(V4.len(), 624);
        let e = FabricService::restore(s.topo.clone(), V4).err().unwrap();
        assert_eq!(
            e,
            format!("snapshot header mismatch (want {HEADER:?}, got \"ufab-fabricd-snapshot v4\")")
        );
        // Nor does the v4 layout parse under the v5 header.
        let relabelled = V4.replacen(" v4\n", " v5\n", 1);
        let e = FabricService::restore(s.topo.clone(), &relabelled)
            .err()
            .unwrap();
        assert_eq!(e, "abuserow 0: trailing token \"1250001\"");
    }

    /// A v5 tenant record one token short, or one token long, wherever
    /// the token goes, is an `Err`.
    #[test]
    fn tenant_record_a_token_short_or_long_is_refused() {
        let s = cordoned_service();
        let snap = render(&s);
        let mut edits = 0;
        for line in snap.lines().filter(|l| l.starts_with("tenant ")) {
            let toks: Vec<&str> = line.split(' ').collect();
            for k in 0..toks.len() {
                let (mut short, mut long) = (toks.clone(), toks.clone());
                short.remove(k);
                long.insert(k, toks[k]);
                for bad in [short, long] {
                    let bad = snap.replacen(line, &bad.join(" "), 1);
                    let r = FabricService::restore(s.topo.clone(), &bad);
                    assert!(r.is_err(), "restored {bad}");
                    edits += 1;
                }
            }
        }
        assert_eq!(edits, 2 * 4 * 11);
    }

    /// Every snapshot that restores is driven through the quarantine
    /// hold and the probation and then advanced, so a record the
    /// service cannot run on is refused at restore, not left to panic
    /// on a later tick.
    #[test]
    fn restore_never_panics_on_a_mangled_token() {
        // Every whitespace-separated token of a busy, quarantined,
        // cordoned snapshot, replaced one at a time with each of these.
        const VALUES: [&str; 13] = [
            "0",
            "1",
            "-1",
            "-",
            "NaN",
            "-inf",
            "4294967295",
            "18446744073709551615",
            "ffffffffffffffff",
            "7ff8000000000000",
            "fff0000000000000",
            "7fefffffffffffff",
            "x:y,z",
        ];
        let s = cordoned_service();
        let snap = render(&s);
        let lines: Vec<&str> = snap.lines().collect();
        let mut panicked = Vec::new();
        let (mut restores, mut driven) = (0, 0);
        for (l, line) in lines.iter().enumerate() {
            let toks: Vec<&str> = line.split(' ').collect();
            for k in 0..toks.len() {
                for v in VALUES {
                    let mut edited = toks.clone();
                    edited[k] = v;
                    let mut bad: Vec<String> = lines.iter().map(|x| x.to_string()).collect();
                    bad[l] = edited.join(" ");
                    let bad = bad.join("\n") + "\n";
                    let topo = s.topo.clone();
                    restores += 1;
                    let r = std::panic::catch_unwind(|| {
                        let Ok(mut r) = FabricService::restore(topo, &bad) else {
                            return false;
                        };
                        let mut now = r.clock;
                        for _ in 0..=(QUARANTINE_HOLD + PROBATION) / (50 * US) {
                            r.abuse_tick(now, &BTreeMap::new());
                            now = now.saturating_add(50 * US);
                        }
                        r.advance(now);
                        true
                    });
                    match r {
                        Err(_) => panicked.push(format!("line {} token {k} := {v}", l + 1)),
                        Ok(restored) => driven += restored as usize,
                    }
                }
            }
        }
        assert!(restores > 1000 && driven > 100, "{restores} {driven}");
        assert!(panicked.is_empty(), "restore panicked on: {panicked:#?}");
    }

    #[test]
    fn abuse_state_round_trips_mid_quarantine() {
        let (s, _) = quarantined_service();
        let snap = s.snapshot();
        assert!(snap.starts_with(HEADER), "{snap}");
        assert!(snap.contains("\nabuse\n"), "{snap}");
        let r = FabricService::restore(s.topo.clone(), &snap).unwrap();
        assert_eq!(render(&r), snap);
        s.verify_restore(&snap).unwrap();
        let (a, b) = (s.abuse.as_ref().unwrap(), r.abuse.as_ref().unwrap());
        assert_eq!(a.score(0).to_bits(), b.score(0).to_bits());
        assert_eq!(a.suspect_ticks(0), b.suspect_ticks(0));
        assert_eq!(r.tenants()[0].state, TenantState::Quarantined);
        // The hold runs from the instant the quarantine closed the span.
        let since = r.tenants()[0].unguaranteed_since();
        assert_eq!(since, s.tenants()[0].guaranteed_spans[0].1);
    }

    #[test]
    fn restored_service_continues_mid_quarantine_digest_stream() {
        let (mut live, now) = quarantined_service();
        let snap = live.snapshot();
        let mut back = FabricService::restore(live.topo.clone(), &snap).unwrap();
        assert_eq!(live.digest(), back.digest());

        // Drive both through the rest of the ladder — reinstatement,
        // probation, back to Guaranteed — plus an identical op tail.
        // Every transition and reply must land at the same instant.
        for s in [&mut live, &mut back] {
            s.submit(3 * MS, admit("d", 1, 1.0, 4 * MS));
            s.submit(3 * MS + 10 * US, FabricOp::Depart { tenant: 0 });
        }
        let ticks = (QUARANTINE_HOLD + PROBATION) / (50 * US) + 20;
        for k in 0..ticks {
            let t = now + k * 50 * US;
            let quiet = BTreeMap::new();
            let (a, b) = (live.abuse_tick(t, &quiet), back.abuse_tick(t, &quiet));
            assert_eq!(a, b, "clamp actions diverged at {t} ns");
            assert_eq!(live.tenants()[0].state, back.tenants()[0].state);
        }
        // The ladder completed identically (reinstated, then the depart
        // op landed) and un-clamped exactly once on each side.
        let (a, b) = (live.advance(4 * MS), back.advance(4 * MS));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.reply.encode(), y.reply.encode());
            assert_eq!(x.applied, y.applied);
        }
        assert_eq!(live.digest(), back.digest());
        assert_eq!(render(&live), render(&back));
        back.audit().unwrap();
    }

    #[test]
    fn bad_snapshots_are_rejected_with_reasons() {
        let s = busy_service();
        let snap = s.snapshot();

        let e = FabricService::restore(s.topo.clone(), "bogus v9\n")
            .err()
            .unwrap();
        assert!(e.contains("header"), "{e}");

        let truncated: String = snap.lines().take(4).map(|l| format!("{l}\n")).collect();
        let e = FabricService::restore(s.topo.clone(), &truncated)
            .err()
            .unwrap();
        assert!(e.contains("truncated") || e.contains("missing"), "{e}");

        // A topology of a different shape lacks the tenants' hosts.
        let small = Arc::new(leaf_spine(
            1,
            1,
            2,
            LinkSpec::gbps(10, 1000),
            LinkSpec::gbps(10, 1000),
            1500,
        ));
        let e = FabricService::restore(small, &snap).err().unwrap();
        assert!(e.contains("wrong topology"), "{e}");

        // Nothing ever wrote a v1 snapshot, v2 stored the ledger and
        // placer that v3 rebuilds, and v3 and v4 stored what v4 and v5
        // derive from the guarantee spans: each header is just a mismatch.
        for old in ["v1", "v2", "v3", "v4"] {
            let v = snap.replacen("snapshot v5", &format!("snapshot {old}"), 1);
            assert_ne!(v, snap);
            let e = FabricService::restore(s.topo.clone(), &v).err().unwrap();
            assert!(e.contains("header mismatch") && e.contains(old), "{e}");
        }

        // Tenants the placer or the ledger cannot hold: each is an `Err`
        // naming what overflows, never a panic.
        let restore_edited = |tag: &str, edit: &dyn Fn(&str) -> String| {
            let bad: String = snap
                .lines()
                .map(|l| {
                    if l.starts_with(tag) {
                        edit(l) + "\n"
                    } else {
                        format!("{l}\n")
                    }
                })
                .collect();
            assert_ne!(bad, snap, "no {tag} record was edited");
            FabricService::restore(s.topo.clone(), &bad).err().unwrap()
        };
        // Tenant "a" (3 VMs) at 19 tokens: a 9.5 G hose on a 9 G access
        // ceiling.
        let e = restore_edited("tenant a ", &|l| {
            l.replacen(
                &format!("{:016x}", 2.0f64.to_bits()),
                &format!("{:016x}", 19.0f64.to_bits()),
                1,
            )
        });
        assert!(
            e.contains("fails conservation audit: tenant 0 (a) hose 9500000000 bps")
                && e.contains("no longer fits on link"),
            "{e}"
        );
        // One VM slot per host, but "a" and "c" share first-fit hosts.
        let e = restore_edited("cfg ", &|l| l.replacen(" 8 first_fit", " 1 first_fit", 1));
        assert!(
            e.contains("tenant 2 (c)") && e.contains("exceeds the slot cap 1"),
            "{e}"
        );
        let e = restore_edited("end", &|_| "abuserow 0 0 0\nend".into());
        assert!(e.contains("abuserow before the abuse record"), "{e}");
        let e = restore_edited("end", &|_| "abuse\nabuserow 1 0 0\nend".into());
        assert_eq!(e, "abuserow 1 out of order: expected row 0");
        // A sustain count at the bound would have quarantined.
        let e = restore_edited("end", &|_| "abuse\nabuserow 0 0 8\nend".into());
        assert_eq!(e, "abuserow 0: sustain 8 not below 8");
        // Tenant "a" is still active; put its first VM on a switch.
        let tor = s.topo.tors[0].raw();
        let e = restore_edited("tenant a ", &|l| {
            let (head, tail) = l.split_once(" hosts ").unwrap();
            let (_first, rest) = tail.split_once(',').unwrap();
            format!("{head} hosts {tor},{rest}")
        });
        assert!(
            e.contains("tenant 0 (a)") && e.contains("not a host"),
            "{e}"
        );
        // A guarantee-holding tenant with no open span, and a qualifying
        // one with an open span.
        let e = restore_edited("tenant a ", &|l| l.replacen(" 150000 hosts", " - hosts", 1));
        assert_eq!(e, "tenant a: guaranteed with open span None");
        let e = restore_edited("tenant c ", &|l| l.replacen(" - hosts", " 90000 hosts", 1));
        assert_eq!(e, "tenant c: qualifying with open span Some(90000)");
        // A quarantined tenant whose hold has no start: no span closed.
        let e = restore_edited("tenant c ", &|l| l.replacen("qualifying", "quarantined", 1));
        assert!(snap.contains(" hosts 3,4 spans -\nqueue "), "{snap}");
        assert_eq!(e, "tenant c: quarantined with no closed span");
        // A refused request never becomes a tenant record, so no state
        // is called "rejected".
        let e = restore_edited("tenant a ", &|l| {
            let mut f: Vec<&str> = l.split(' ').collect();
            f[3] = "rejected";
            f.join(" ")
        });
        assert!(e.contains("unknown tenant state \"rejected\""), "{e}");
    }
}
