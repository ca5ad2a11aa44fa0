//! Versioned snapshot serialization for [`FabricService`].
//!
//! Format (line-oriented text, one `\n`-terminated record per line):
//!
//! ```text
//! ufab-fabricd-snapshot v2
//! cfg <bu_bits> <headroom_bits> <decision_gap> <max_vms> <policy> <reclaim_grace>
//! clock <clock> <last_submit> <next_slot> <next_seq> <digest>
//! counters <n_rejected> <n_resized> <n_resize_denied> <n_drained_vms>
//! cordon <raw,...|->
//! tenant <name> <tokens_bits> <state> <admitted> <depart> <departed|->
//!        <qsince> <guaranteed|-> <ttg|-> <resizes> <migrations>
//!        hosts <raw,...> spans <a:b,...|->          (one line per tenant)
//! queue <submitted> <seq> <op wire form>            (one line per pending op)
//! ledger <bits> <bits> ...                          (one entry per link)
//! placer <raw:vms:bits> ...|-
//! abusecfg <wp> <wpr> <wu> <decay> <enter> <exit> <sustain> <penalty>
//!          <hold> <probation>                       (only when the scorer is on)
//! abuserow <id> <w0> .. <w8>                        (one line per scorer row)
//! end
//! ```
//!
//! The `abusecfg`/`abuserow` records carry the quarantine machine
//! (DESIGN §10): the misbehavior scorer's thresholds and the per-tenant
//! row words from [`fabric::MisbehaviorLedger::dump_row`] — so a service
//! restored mid-quarantine keeps every score, sustain count, and
//! hold/probation deadline. With the scorer off both are absent.
//!
//! Every `f64` travels as its IEEE-754 bit pattern in fixed-width hex,
//! so a restored ledger/placer is **byte-exact** — replaying
//! commitments in tenant order would accumulate different float dust
//! than the chronological live sums and could flip a later admission
//! decision near the headroom ceiling. The admission-queue ops reuse
//! the canonical wire form, and the digest state rides along so the
//! restored service continues the original reply stream. Rendering is
//! canonical: `render(restore(s)) == s`, which is what the
//! `SnapshotRoundTrip` invariant asserts online.
//!
//! What is *not* serialized: the topology (the restore caller provides
//! an identically-built one — it is static config, not state), the
//! departure/reclaim heaps (rebuilt from tenant records), and the obs
//! handle (re-attach with [`FabricService::set_obs`]).

use crate::ops::{num, split_list, write_list, FabricOp};
use crate::service::{apply_host_cordons, FabricService, SvcTenant};
use fabric::{AbuseCfg, AdmissionCfg, Ledger, MisbehaviorLedger, Placer, Policy, TenantState};
use netsim::Time;
use obs::{DetHash, ObsHandle};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use std::fmt::Write as _;
use std::sync::Arc;
use topology::Topo;

/// First line of every snapshot; bump the suffix on format changes.
pub(crate) const HEADER: &str = "ufab-fabricd-snapshot v2";

/// Serialize the complete service state, every record written straight
/// into one buffer sized for it.
pub(crate) fn render(s: &FabricService) -> String {
    let rows = s.placer.dump_state();
    let mut buf = String::with_capacity(
        400 + 17 * s.ledger.n_links() + 30 * rows.len() + 160 * (s.tenants.len() + s.queue.len()),
    );
    let out = &mut buf;
    let _ = writeln!(out, "{HEADER}");
    let c = &s.cfg;
    let _ = writeln!(
        out,
        "cfg {:016x} {:016x} {} {} {} {}",
        c.bu_bps.to_bits(),
        c.headroom.to_bits(),
        c.decision_gap,
        c.max_vms_per_host,
        c.policy.label(),
        c.reclaim_grace
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
    let _ = writeln!(
        out,
        "counters {} {} {} {}",
        s.n_rejected, s.n_resized, s.n_resize_denied, s.n_drained_vms
    );
    out.push_str("cordon ");
    let _ = write_list(out, &s.cordoned, ',', |o, x| write!(o, "{x}"));
    out.push('\n');
    // An `Option` is a list of at most one: `-` when it is `None`.
    let one = |o: &mut String, x| write!(o, "{x}");
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
        let _ = write_list(out, t.departed_at, ' ', one);
        let _ = write!(out, " {} ", t.qualifying_since);
        let _ = write_list(out, t.guaranteed_at, ' ', one);
        out.push(' ');
        let _ = write_list(out, t.ttg_ns, ' ', one);
        let _ = write!(out, " {} {} hosts ", t.resizes, t.migrations);
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
    out.push_str("ledger ");
    for (i, l) in s.ledger.links().iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        let _ = write!(out, "{:016x}", l.committed_bps.to_bits());
    }
    out.push_str("\nplacer ");
    let _ = write_list(out, rows, ' ', |o, (raw, vms, bits)| {
        write!(o, "{raw}:{vms}:{bits:016x}")
    });
    out.push('\n');
    if let Some(ab) = &s.abuse {
        let c = ab.cfg();
        let _ = writeln!(
            out,
            "abusecfg {:016x} {:016x} {:016x} {:016x} {:016x} {:016x} {} {:016x} {} {}",
            c.w_policed.to_bits(),
            c.w_probe.to_bits(),
            c.w_unsol.to_bits(),
            c.decay.to_bits(),
            c.enter_score.to_bits(),
            c.exit_score.to_bits(),
            c.sustain_ticks,
            c.penalty_fraction.to_bits(),
            c.quarantine_hold,
            c.probation
        );
        for i in 0..ab.len() {
            let w = ab.dump_row(i);
            let _ = writeln!(
                out,
                "abuserow {i} {:016x} {} {} {} {} {} {} {} {}",
                w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7], w[8]
            );
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
    /// `topo`. The restored instance passes the conservation audit
    /// before it is returned, and re-snapshots byte-identically.
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
            decision_gap: int(&mut f, "cfg decision_gap")?,
            max_vms_per_host: int(&mut f, "cfg max_vms_per_host")?,
            policy: match f.next().ok_or("cfg: missing policy")? {
                "first_fit" => Policy::FirstFit,
                "load_spread" => Policy::LoadSpread,
                p => return Err(format!("unknown placement policy {p:?}")),
            },
            reclaim_grace: int(&mut f, "cfg reclaim_grace")?,
        };
        if !(cfg.headroom > 0.0 && cfg.headroom <= 1.0) || cfg.max_vms_per_host == 0 {
            let (h, m) = (cfg.headroom, cfg.max_vms_per_host);
            return Err(format!(
                "cfg needs 0 < headroom ≤ 1 and max_vms ≥ 1, got {h} and {m}"
            ));
        }

        let clock_line = expect(&mut lines, "clock")?;
        let mut f = clock_line.split_whitespace();
        let clock: Time = int(&mut f, "clock")?;
        let last_submit: Time = int(&mut f, "clock last_submit")?;
        let next_slot: Time = int(&mut f, "clock next_slot")?;
        let next_seq: u64 = int(&mut f, "clock next_seq")?;
        let digest = DetHash::resume(hex(&mut f, "clock digest")?);

        let counters_line = expect(&mut lines, "counters")?;
        let mut f = counters_line.split_whitespace();
        let n_rejected = int(&mut f, "counters n_rejected")?;
        let n_resized = int(&mut f, "counters n_resized")?;
        let n_resize_denied = int(&mut f, "counters n_resize_denied")?;
        let n_drained_vms = int(&mut f, "counters n_drained_vms")?;

        let cordon_line = expect(&mut lines, "cordon")?;
        let cordoned: BTreeSet<u32> = split_list(cordon_line.trim())?.into_iter().collect();

        // Variable-count sections: tenants, then queued ops, then the
        // fixed tail (ledger, placer, end).
        let mut tenants: Vec<SvcTenant> = Vec::new();
        let mut queue: VecDeque<(Time, u64, FabricOp)> = VecDeque::new();
        let mut ledger_bits: Option<Vec<u64>> = None;
        let mut placer_rows: Option<Vec<(u32, usize, u64)>> = None;
        let mut abuse_cfg: Option<AbuseCfg> = None;
        let mut abuse_rows: Vec<(usize, [u64; 9])> = Vec::new();
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
                "ledger" => {
                    ledger_bits = Some(
                        rest.split_whitespace()
                            .map(|b| {
                                u64::from_str_radix(b, 16)
                                    .map_err(|_| format!("bad ledger bits {b:?}"))
                            })
                            .collect::<Result<_, String>>()?,
                    );
                }
                "placer" => {
                    let mut rows = Vec::new();
                    if rest.trim() != "-" {
                        for tok in rest.split_whitespace() {
                            let p: Vec<&str> = tok.split(':').collect();
                            if p.len() != 3 {
                                return Err(format!("bad placer row {tok:?}"));
                            }
                            rows.push((
                                num(p[0], "placer host")?,
                                num(p[1], "placer vms")?,
                                u64::from_str_radix(p[2], 16)
                                    .map_err(|_| format!("bad placer bits {:?}", p[2]))?,
                            ));
                        }
                    }
                    placer_rows = Some(rows);
                }
                "abusecfg" => {
                    let mut f = rest.split_whitespace();
                    abuse_cfg = Some(AbuseCfg {
                        w_policed: f64::from_bits(hex(&mut f, "abusecfg w_policed")?),
                        w_probe: f64::from_bits(hex(&mut f, "abusecfg w_probe")?),
                        w_unsol: f64::from_bits(hex(&mut f, "abusecfg w_unsol")?),
                        decay: f64::from_bits(hex(&mut f, "abusecfg decay")?),
                        enter_score: f64::from_bits(hex(&mut f, "abusecfg enter")?),
                        exit_score: f64::from_bits(hex(&mut f, "abusecfg exit")?),
                        sustain_ticks: int(&mut f, "abusecfg sustain")?,
                        penalty_fraction: f64::from_bits(hex(&mut f, "abusecfg penalty")?),
                        quarantine_hold: int(&mut f, "abusecfg hold")?,
                        probation: int(&mut f, "abusecfg probation")?,
                    });
                }
                "abuserow" => {
                    let mut f = rest.split_whitespace();
                    let i: usize = int(&mut f, "abuserow id")?;
                    let mut w = [0u64; 9];
                    w[0] = hex(&mut f, "abuserow score")?;
                    for slot in w.iter_mut().skip(1) {
                        *slot = int(&mut f, "abuserow word")?;
                    }
                    abuse_rows.push((i, w));
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
        let ledger_bits = ledger_bits.ok_or("snapshot missing ledger record")?;
        let placer_rows = placer_rows.ok_or("snapshot missing placer record")?;
        let abuse = match abuse_cfg {
            Some(c) => {
                let mut ab = MisbehaviorLedger::try_new(c, tenants.len())
                    .map_err(|e| format!("abusecfg: {e}"))?;
                for &(i, w) in &abuse_rows {
                    if i >= tenants.len() {
                        return Err(format!("abuserow {i} has no matching tenant"));
                    }
                    ab.restore_row(i, w);
                }
                Some(ab)
            }
            None if abuse_rows.is_empty() => None,
            None => return Err("abuserow records without an abusecfg record".into()),
        };

        let baseline = Ledger::new_excluding(&topo, cfg.headroom, &cordoned);
        if ledger_bits.len() != baseline.n_links() {
            return Err(format!(
                "snapshot ledger has {} links, topology has {} — wrong topology?",
                ledger_bits.len(),
                baseline.n_links()
            ));
        }
        let mut ledger = baseline.clone();
        ledger.set_committed_bits(&ledger_bits);
        let mut placer = Placer::new(&topo.hosts, cfg.policy, cfg.max_vms_per_host);
        placer.restore_state(&placer_rows)?;
        apply_host_cordons(&topo, &cordoned, &mut placer);

        let mut departs: BinaryHeap<Reverse<(Time, u32)>> = BinaryHeap::new();
        let mut reclaims: BinaryHeap<Reverse<(Time, u32)>> = BinaryHeap::new();
        for (i, t) in tenants.iter().enumerate() {
            if t.is_live() {
                // The audit below (and a later reinstatement) commits on
                // these hosts; the ledger panics on a node it has no
                // spread for.
                if let Some(h) = t.hosts.iter().find(|&&h| !placer.has_host(h)) {
                    return Err(format!(
                        "tenant {i} ({}) is placed on {h}, not a host of this topology",
                        t.name
                    ));
                }
                departs.push(Reverse((t.depart_at, i as u32)));
            } else if t.state == TenantState::Departing {
                let dep = t
                    .departed_at
                    .ok_or_else(|| format!("departing tenant {i} has no departed_at"))?;
                reclaims.push(Reverse((dep + cfg.reclaim_grace, i as u32)));
            }
        }

        let svc = Self {
            cfg,
            topo,
            ledger,
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
            n_resized,
            n_resize_denied,
            n_drained_vms,
            digest,
            departs,
            reclaims,
            abuse,
            obs: ObsHandle::disabled(),
        };
        svc.audit()
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
        "rejected" => TenantState::Rejected,
        s => return Err(format!("unknown tenant state {s:?}")),
    };
    let admitted_at = int(&mut f, "tenant admitted_at")?;
    let depart_at = int(&mut f, "tenant depart_at")?;
    let departed_at = opt_int(&mut f, "tenant departed_at")?;
    let qualifying_since = int(&mut f, "tenant qualifying_since")?;
    let guaranteed_at = opt_int(&mut f, "tenant guaranteed_at")?;
    let ttg_ns = opt_int(&mut f, "tenant ttg")?;
    let resizes = int(&mut f, "tenant resizes")?;
    let migrations = int(&mut f, "tenant migrations")?;
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
    Ok(SvcTenant {
        name,
        tokens_per_vm,
        state,
        hosts,
        admitted_at,
        depart_at,
        departed_at,
        qualifying_since,
        guaranteed_at,
        ttg_ns,
        guaranteed_spans,
        resizes,
        migrations,
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

fn int<T: std::str::FromStr>(f: &mut std::str::SplitWhitespace, what: &str) -> Result<T, String> {
    num(f.next().ok_or_else(|| format!("missing {what}"))?, what)
}

fn opt_int<T: std::str::FromStr>(
    f: &mut std::str::SplitWhitespace,
    what: &str,
) -> Result<Option<T>, String> {
    let tok = f.next().ok_or_else(|| format!("missing {what}"))?;
    if tok == "-" {
        Ok(None)
    } else {
        num(tok, what).map(Some)
    }
}

fn hex(f: &mut std::str::SplitWhitespace, what: &str) -> Result<u64, String> {
    let tok = f.next().ok_or_else(|| format!("missing {what}"))?;
    u64::from_str_radix(tok, 16).map_err(|_| format!("bad {what} {tok:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::builder::LinkSpec;
    use netsim::{MS, US};
    use obs::Snapshottable;
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
        let s = busy_service();
        let snap = s.snapshot();
        let r = FabricService::restore(s.topo.clone(), &snap).unwrap();
        assert_eq!(render(&r), snap);
        // The trait-level check (what the invariant runs online).
        s.verify_restore(&snap).unwrap();
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
    /// (its capacity released, the hold clock running), plus a pending
    /// enforcement delta that has not been integrated yet.
    fn quarantined_service() -> (FabricService, Time) {
        let mut s = busy_service();
        s.enable_abuse(fabric::AbuseCfg {
            sustain_ticks: 2,
            quarantine_hold: 500 * US,
            probation: 500 * US,
            ..fabric::AbuseCfg::default()
        });
        let mut now = 900 * US;
        loop {
            s.note_enforcement(0, 3, 1, 0);
            let actions = s.abuse_tick(now);
            now += 50 * US;
            if !actions.is_empty() {
                break;
            }
            assert!(now < 10 * MS, "never quarantined");
        }
        assert_eq!(s.tenants()[0].state, TenantState::Quarantined);
        // Leave an un-integrated delta pending so the snapshot must
        // carry it (the next tick after restore integrates it).
        s.note_enforcement(0, 1, 0, 0);
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

    #[test]
    fn render_of_a_fixed_service_is_pinned() {
        // Taken from the `format!`-and-`join` renderer this one replaced:
        // every record byte, and (through the `clock` digest) every
        // op and reply the service folded, must stay as it was.
        let snap = render(&cordoned_service());
        let mut h = DetHash::new();
        h.fold_bytes(snap.as_bytes());
        assert_eq!(
            (h.digest(), snap.len()),
            (0xe429_e402_b2cb_7fd9, 1189),
            "{snap}"
        );
    }

    #[test]
    fn restore_never_panics_on_a_mangled_token() {
        // Every whitespace-separated token of a busy, quarantined,
        // cordoned snapshot, replaced one at a time with each of these.
        const VALUES: [&str; 12] = [
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
            "x:y,z",
        ];
        let s = cordoned_service();
        let snap = render(&s);
        let lines: Vec<&str> = snap.lines().collect();
        let mut panicked = Vec::new();
        let mut restores = 0;
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
                    let r = std::panic::catch_unwind(|| FabricService::restore(topo, &bad).is_ok());
                    if r.is_err() {
                        panicked.push(format!("line {} token {k} := {v}", l + 1));
                    }
                }
            }
        }
        assert!(restores > 1000, "{restores}");
        assert!(panicked.is_empty(), "restore panicked on: {panicked:#?}");
    }

    #[test]
    fn abuse_state_round_trips_mid_quarantine() {
        let (s, _) = quarantined_service();
        let snap = s.snapshot();
        assert!(snap.starts_with(HEADER), "{snap}");
        assert!(snap.contains("abusecfg "), "{snap}");
        let r = FabricService::restore(s.topo.clone(), &snap).unwrap();
        assert_eq!(render(&r), snap);
        s.verify_restore(&snap).unwrap();
        let (a, b) = (s.abuse().unwrap(), r.abuse().unwrap());
        assert_eq!(a.quarantines(0), 1);
        assert_eq!(b.quarantines(0), 1);
        assert_eq!(a.score(0).to_bits(), b.score(0).to_bits());
        assert_eq!(a.quarantined_at(0), b.quarantined_at(0));
        assert_eq!(r.tenants()[0].state, TenantState::Quarantined);
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
        for k in 0..60u64 {
            let t = now + k * 50 * US;
            let (a, b) = (live.abuse_tick(t), back.abuse_tick(t));
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

        // A topology of a different shape has a different link count.
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

        // Nothing ever wrote a v1 snapshot: its header is just a mismatch.
        let v1 = snap.replacen("snapshot v2", "snapshot v1", 1);
        assert_ne!(v1, snap);
        let e = FabricService::restore(s.topo.clone(), &v1).err().unwrap();
        assert!(e.contains("header mismatch") && e.contains("v1"), "{e}");

        // Records the placer or the ledger cannot hold: each is an `Err`
        // naming the offending record, never a panic.
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
        let e = restore_edited("placer ", &|l| format!("{l} 9999:1:0000000000000000"));
        assert!(
            e.contains("placer row 9999:1") && e.contains("unknown host"),
            "{e}"
        );
        let e = restore_edited("placer ", &|l| {
            let (head, bits) = l.rsplit_once(':').unwrap();
            let (head, _vms) = head.rsplit_once(':').unwrap();
            format!("{head}:99:{bits}")
        });
        assert!(e.contains(":99 exceeds the slot cap"), "{e}");
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
    }
}
