//! The long-running control-plane service.
//!
//! [`FabricService`] wraps the `fabric` crate's ledger/placement
//! machinery behind the [`FabricOp`]/[`FabricReply`] API. Determinism
//! rules:
//!
//! * Ops are queued with a submission timestamp and applied strictly in
//!   `(timestamp, seq)` order, paced one per
//!   [`fabric::DECISION_GAP`] exactly like the batch planner —
//!   so the reply stream is a pure function of the op stream, never of
//!   wall-clock or caller interleaving.
//! * Scheduled departures and grace-expiry reclaims interleave with
//!   ops in timestamp order; at one instant departures fire first
//!   (freeing capacity, matching [`fabric::plan`]), then ops, then
//!   reclaims — so every tenant-state transition lands at its due time
//!   regardless of how the caller slices `advance()`.
//! * Every applied op folds its encoded bytes, its reply's bytes, and
//!   its decision time into an FNV digest ([`FabricService::digest`]).
//!   The digest state rides inside snapshots, so a restored service
//!   continues the original stream — byte-identity with an
//!   uninterrupted run is an O(1) comparison.
//! * An admission the [`fabric::plan`] pre-pass already decided enters
//!   through [`FabricService::admit_planned`] instead of the op queue:
//!   same clock, same departure-first tie order, the plan's hosts
//!   committed verbatim — the plan paced it, so the service does not
//!   pace or digest it again.
//! * No hash-map iteration anywhere: tenants are scanned by id,
//!   the cordon set is a `BTreeSet`, heap keys are unique.

use crate::ops::{FabricOp, FabricReply, Moved};
use fabric::{
    AdmissionCfg, ClampAction, Ledger, MisbehaviorLedger, Placer, PlannedTenant, TenantState,
    DECISION_GAP, ENTER_SCORE, EXIT_SCORE, PENALTY_FRACTION, PROBATION, QUARANTINE_HOLD,
    SUSTAIN_TICKS,
};
use netsim::{NodeId, Time};
use obs::{Category, DetHash, Event, ObsHandle, Snapshottable};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::fmt::Write as _;
use std::sync::Arc;
use topology::Topo;

/// Time a departed tenant lingers in `Departing` before `Reclaimed`
/// (models control-plane teardown; capacity is freed at departure).
pub const RECLAIM_GRACE: Time = netsim::MS;

/// One tenant as the service sees it.
#[derive(Debug, Clone)]
pub struct SvcTenant {
    /// Tenant name from the admit op.
    pub name: String,
    /// Hose tokens per VM currently in force (resize updates this).
    pub tokens_per_vm: f64,
    /// Lifecycle state.
    pub state: TenantState,
    /// Host of VM *i* (drain migrations update entries in place).
    pub hosts: Vec<NodeId>,
    /// Admission decision instant (ns).
    pub admitted_at: Time,
    /// Scheduled departure (`admitted_at + lifetime`) until the tenant
    /// departs, and the instant it departed from then on.
    pub depart_at: Time,
    /// Open guarantee span start, while `Guaranteed`.
    pub guaranteed_at: Option<Time>,
    /// Closed `[enter, exit)` guarantee windows.
    pub guaranteed_spans: Vec<(Time, Time)>,
}

impl SvcTenant {
    /// Time-to-guarantee: the start of the first guarantee span, closed
    /// or open, minus the admission instant (ns); `None` until the
    /// tenant first qualifies.
    pub fn ttg_ns(&self) -> Option<u64> {
        let first = (self.guaranteed_spans.first()).map_or(self.guaranteed_at, |s| Some(s.0))?;
        Some(first.saturating_sub(self.admitted_at))
    }

    /// Since when the tenant has held no guarantee: the end of its last
    /// closed guarantee span, or its admission if it has held none.
    /// Only a requalify or a quarantine closes a span and leaves the
    /// tenant unguaranteed, so for a `Qualifying` tenant this is when it
    /// began to qualify and for a `Quarantined` one when its quarantine
    /// started.
    pub(crate) fn unguaranteed_since(&self) -> Time {
        self.guaranteed_spans
            .last()
            .map_or(self.admitted_at, |s| s.1)
    }

    /// Is the tenant holding capacity right now? `Suspected` and
    /// `Reinstated` tenants still hold their guarantee; `Quarantined`
    /// capacity was released back to the ledger.
    pub fn is_active(&self) -> bool {
        matches!(
            self.state,
            TenantState::Admitted
                | TenantState::Qualifying
                | TenantState::Guaranteed
                | TenantState::Suspected
                | TenantState::Reinstated
        )
    }

    /// Is the tenant's lifecycle still running? A `Quarantined` tenant
    /// holds no capacity but its scheduled departure must still fire,
    /// and an operator may depart it early.
    pub(crate) fn is_live(&self) -> bool {
        self.is_active() || self.state == TenantState::Quarantined
    }
}

/// One op application: when it was decided and what the service said.
#[derive(Debug, Clone)]
pub struct Applied {
    /// Submission timestamp of the op.
    pub submitted: Time,
    /// Decision instant (submission plus queue pacing).
    pub applied: Time,
    /// The op itself.
    pub op: FabricOp,
    /// The service's reply.
    pub reply: FabricReply,
}

/// The control-plane service. See the module docs for the determinism
/// contract; see `crate::snapshot` for the serialization format.
pub struct FabricService {
    pub(crate) cfg: AdmissionCfg,
    pub(crate) topo: Arc<Topo>,
    pub(crate) ledger: Ledger,
    /// Zero-commitment ledger over the current topology and cordon set,
    /// cloned for audit shadow rebuilds.
    pub(crate) baseline: Ledger,
    pub(crate) placer: Placer,
    pub(crate) tenants: Vec<SvcTenant>,
    /// Raw ids of cordoned nodes (hosts, ToRs, aggs, cores).
    pub(crate) cordoned: BTreeSet<u32>,
    /// Pending ops: `(submitted, seq, op)` in submission order.
    pub(crate) queue: VecDeque<(Time, u64, FabricOp)>,
    pub(crate) next_seq: u64,
    pub(crate) last_submit: Time,
    /// Earliest instant the next op may be decided (pacing).
    pub(crate) next_slot: Time,
    pub(crate) clock: Time,
    pub(crate) n_rejected: u32,
    pub(crate) digest: DetHash,
    /// `(depart_at, tenant)` — entries go stale when a tenant departs
    /// early; [`FabricService::peek_departure`] skips them lazily.
    pub(crate) departs: BinaryHeap<Reverse<(Time, u32)>>,
    /// `(depart_at + RECLAIM_GRACE, tenant)` of each departed tenant.
    pub(crate) reclaims: BinaryHeap<Reverse<(Time, u32)>>,
    /// Misbehavior scorer / quarantine machine (DESIGN §10), when the
    /// operator has enabled it. Rows are indexed by tenant id.
    pub(crate) abuse: Option<MisbehaviorLedger>,
    pub(crate) obs: ObsHandle,
}

impl FabricService {
    /// A fresh service over `topo`.
    pub fn new(topo: Arc<Topo>, cfg: AdmissionCfg) -> Self {
        let baseline = Ledger::new(&topo, cfg.headroom);
        let ledger = baseline.clone();
        let placer = Placer::new(&topo.hosts, cfg.policy, cfg.max_vms_per_host);
        Self {
            cfg,
            topo,
            ledger,
            baseline,
            placer,
            tenants: Vec::new(),
            cordoned: BTreeSet::new(),
            queue: VecDeque::new(),
            next_seq: 0,
            last_submit: 0,
            next_slot: 0,
            clock: 0,
            n_rejected: 0,
            digest: DetHash::new(),
            departs: BinaryHeap::new(),
            reclaims: BinaryHeap::new(),
            abuse: None,
            obs: ObsHandle::disabled(),
        }
    }

    /// Attach a flight-recorder handle for op and tenant events.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// The live ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// The live placer.
    pub fn placer(&self) -> &Placer {
        &self.placer
    }

    /// The topology the service manages.
    pub fn topo(&self) -> &Topo {
        &self.topo
    }

    /// All tenant records, id order (id = index).
    pub fn tenants(&self) -> &[SvcTenant] {
        &self.tenants
    }

    /// Admissions refused so far.
    pub fn n_rejected(&self) -> u32 {
        self.n_rejected
    }

    /// Running determinism digest over every applied op and reply.
    pub fn digest(&self) -> u64 {
        self.digest.digest()
    }

    /// Count of tenants currently in `state`.
    pub fn count(&self, state: TenantState) -> usize {
        self.tenants.iter().filter(|t| t.state == state).count()
    }

    /// Ids of the tenants in `Qualifying`, each with the instant it
    /// entered ([`SvcTenant::unguaranteed_since`]).
    pub fn qualifying(&self) -> Vec<(u32, Time)> {
        self.tenants
            .iter()
            .enumerate()
            .filter(|(_, t)| t.state == TenantState::Qualifying)
            .map(|(i, t)| (i as u32, t.unguaranteed_since()))
            .collect()
    }

    /// Enqueue `op`, submitted at `now`. Returns its sequence number.
    /// Submissions must be in nondecreasing time order.
    pub fn submit(&mut self, now: Time, op: FabricOp) -> u64 {
        assert!(
            now >= self.last_submit,
            "op submitted at {now} ns after one at {} ns",
            self.last_submit
        );
        self.last_submit = now;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push_back((now, seq, op));
        seq
    }

    /// Advance the service clock to `now`: apply every due op,
    /// scheduled departure, and grace-expiry reclaim merged in
    /// timestamp order. Returns the ops applied, in decision order.
    pub fn advance(&mut self, now: Time) -> Vec<Applied> {
        assert!(now >= self.clock, "service clock went backwards");
        self.clock = now;
        let mut out = Vec::new();
        loop {
            let op_t = self
                .queue
                .front()
                .map(|&(t, _, _)| t.max(self.next_slot))
                .filter(|&t| t <= now);
            let dep_t = self.peek_departure().filter(|&t| t <= now);
            let rec_t = self
                .reclaims
                .peek()
                .map(|&Reverse((t, _))| t)
                .filter(|&t| t <= now);
            if op_t.is_none() && dep_t.is_none() && rec_t.is_none() {
                break;
            }
            let a = op_t.unwrap_or(Time::MAX);
            let d = dep_t.unwrap_or(Time::MAX);
            let r = rec_t.unwrap_or(Time::MAX);
            // Tie order at one instant: departure (frees capacity the
            // op may use), then op (an op decided exactly at a
            // reclaim's due time still sees `departing`), then reclaim.
            if d <= a && d <= r {
                self.fire_departure();
            } else if a <= r {
                out.push(self.fire_op(a));
            } else {
                self.fire_reclaim();
            }
        }
        out
    }

    /// μFAB-E reports tenant `id` fully qualified at `now`.
    ///
    /// # Panics
    /// Panics unless the tenant is in `Qualifying`.
    pub fn note_qualified(&mut self, id: u32, now: Time) {
        let i = id as usize;
        let ttg = now.saturating_sub(self.tenants[i].admitted_at);
        self.set_state(id, TenantState::Guaranteed, now, ttg);
        self.tenants[i].guaranteed_at = Some(now);
    }

    /// Tenant `id`'s qualified paths were invalidated (a chaos fault on
    /// its route, a drain migration): close the open guarantee span and
    /// send it back to `Qualifying`. No-op unless it is `Guaranteed`.
    pub fn requalify(&mut self, id: u32, now: Time) {
        let t = &mut self.tenants[id as usize];
        if t.state != TenantState::Guaranteed {
            return;
        }
        let enter = t.guaranteed_at.take().expect("open span");
        t.guaranteed_spans.push((enter, now));
        self.set_state(id, TenantState::Qualifying, now, 1);
    }

    /// Commit an admission that [`fabric::plan`] already decided: advance
    /// the clock to `p.decision` (departures due by then free their
    /// capacity first, exactly as the plan released them), commit
    /// `p.hosts` verbatim and schedule the departure at `p.depart`.
    /// Returns the tenant id. Not queued, not paced, not digested — the
    /// plan did the pacing. The hosts are pinned rather than re-placed
    /// because the plan decided them before the run: the data plane, the
    /// hostile selection and the benchmark twin are built from the plan,
    /// and a live placement could pick other hosts.
    ///
    /// # Panics
    /// Panics if a queued op is due by `p.decision` (planned admissions
    /// and the paced op queue are not mixed), or if the plan's hosts do
    /// not fit the live ledger.
    pub fn admit_planned(&mut self, p: &PlannedTenant) -> u32 {
        let due = self.advance(p.decision);
        assert!(due.is_empty(), "admit_planned with queued ops due");
        let hose = self.cfg.hose(p.tokens_per_vm);
        self.placer
            .place_fixed(&mut self.ledger, &p.hosts, hose)
            .unwrap_or_else(|e| panic!("planned tenant {}: {e}", p.name));
        self.push_tenant(
            &p.name,
            p.tokens_per_vm,
            p.hosts.clone(),
            p.decision,
            p.depart,
            p.decision - p.arrival,
        )
    }

    /// Turn on the misbehavior scorer and quarantine machine
    /// (DESIGN §10). Idempotent only in the sense that calling it again
    /// resets every score; the snapshot carries the ledger, so a
    /// restored service does *not* need this re-applied.
    pub fn enable_abuse(&mut self) {
        self.abuse = Some(MisbehaviorLedger::new(self.tenants.len()));
    }

    fn enter_quarantine(
        &mut self,
        id: u32,
        now: Time,
        ab: &mut MisbehaviorLedger,
        actions: &mut Vec<ClampAction>,
    ) {
        let i = id as usize;
        if let Some(enter) = self.tenants[i].guaranteed_at.take() {
            self.tenants[i].guaranteed_spans.push((enter, now));
        }
        let hose = self.cfg.hose(self.tenants[i].tokens_per_vm);
        self.placer
            .release(&mut self.ledger, &self.tenants[i].hosts, hose);
        let permille = (PENALTY_FRACTION * 1000.0).round() as u64;
        self.set_state(id, TenantState::Quarantined, now, permille);
        ab.set_suspect_ticks(i, 0);
        self.obs
            .rec(Category::Enforcement, now, || Event::Enforcement {
                edge: u32::MAX,
                tenant: id,
                class: "clamp",
                aux: permille,
            });
        actions.push(ClampAction {
            tenant: id,
            clamp: Some(PENALTY_FRACTION),
        });
    }

    /// One observation tick of the quarantine machine: decay every live
    /// tenant's misbehavior score, integrate the tick's edge
    /// enforcement-counter `deltas` (`[policed, throttled probes,
    /// unsolicited]` by tenant id; a tenant with none reads as silent),
    /// and walk the hysteresis ladder. Quarantine entry releases the
    /// tenant's hose back to the ledger; reinstatement re-commits it on
    /// the same hosts, once it fits there again. Returns the clamp
    /// directives the caller must push to the offenders' edges.
    /// Iteration is in tenant-id order, so the emitted transitions and
    /// actions are deterministic.
    pub fn abuse_tick(&mut self, now: Time, deltas: &BTreeMap<u32, [u64; 3]>) -> Vec<ClampAction> {
        let Some(mut ab) = self.abuse.take() else {
            return Vec::new();
        };
        ab.ensure_rows(self.tenants.len());
        let mut actions = Vec::new();
        for id in 0..self.tenants.len() as u32 {
            use TenantState::*;
            let i = id as usize;
            let st = self.tenants[i].state;
            if !matches!(st, Guaranteed | Suspected | Quarantined | Reinstated) {
                // Not under the scorer's jurisdiction: its deltas (e.g.
                // counted during teardown) are dropped, so they cannot
                // bias a later state.
                continue;
            }
            let delta = deltas.get(&id).copied().unwrap_or_default();
            let score = ab.integrate(i, delta);
            match st {
                Guaranteed => {
                    if score >= ENTER_SCORE {
                        self.set_state(id, Suspected, now, (score * 1000.0) as u64);
                        ab.set_suspect_ticks(i, 1);
                    }
                }
                Suspected => {
                    if score <= EXIT_SCORE {
                        // Decayed out: bursty-but-honest, back to good
                        // standing without ever touching the ledger.
                        self.set_state(id, Guaranteed, now, 0);
                        ab.set_suspect_ticks(i, 0);
                    } else if score >= ENTER_SCORE {
                        let ticks = ab.bump_suspect_ticks(i);
                        if ticks >= SUSTAIN_TICKS {
                            self.enter_quarantine(id, now, &mut ab, &mut actions);
                        }
                    }
                    // Between exit and enter: hold (the hysteresis band
                    // neither advances nor resets the sustain count).
                }
                Quarantined => {
                    let since = self.tenants[i].unguaranteed_since();
                    if now.saturating_sub(since) >= QUARANTINE_HOLD && score <= EXIT_SCORE {
                        // Reinstate on probation: re-commit the hose the
                        // quarantine released on the tenant's own hosts
                        // and lift the edge clamp. An admission may have
                        // taken that capacity meanwhile: then the tenant
                        // stays quarantined and a later tick retries.
                        let hose = self.cfg.hose(self.tenants[i].tokens_per_vm);
                        let hosts = &self.tenants[i].hosts;
                        let placed = self.placer.place_fixed(&mut self.ledger, hosts, hose);
                        if placed.is_err() {
                            continue;
                        }
                        // The probation starts with the reopened span.
                        self.set_state(id, Reinstated, now, 0);
                        self.tenants[i].guaranteed_at = Some(now);
                        self.obs
                            .rec(Category::Enforcement, now, || Event::Enforcement {
                                edge: u32::MAX,
                                tenant: id,
                                class: "unclamp",
                                aux: 0,
                            });
                        actions.push(ClampAction {
                            tenant: id,
                            clamp: None,
                        });
                    }
                }
                Reinstated => {
                    if score >= ENTER_SCORE {
                        // Re-offended during probation.
                        self.enter_quarantine(id, now, &mut ab, &mut actions);
                    } else if self.tenants[i]
                        .guaranteed_at
                        .is_some_and(|since| now.saturating_sub(since) >= PROBATION)
                    {
                        self.set_state(id, Guaranteed, now, 0);
                    }
                }
                _ => unreachable!("filtered above"),
            }
        }
        self.abuse = Some(ab);
        actions
    }

    /// Conservation audit: the live ledger must satisfy per-link bounds,
    /// and the live ledger and placer must equal a rebuild from tenant
    /// state.
    pub fn audit(&self) -> Result<(), String> {
        self.ledger.conservation()?;
        let (ledger, placer) = self.rebuilt(&self.baseline)?;
        self.ledger.diff(&ledger)?;
        if self.placer != placer {
            return Err("placer drift: live host tallies differ from the rebuilt ones".into());
        }
        Ok(())
    }

    /// The ledger and placer the tenant records alone determine: every
    /// active tenant placed on its recorded hosts over `baseline` (a
    /// zero-commitment ledger for the cordon set) and a placer carrying
    /// the cordon flags, admission-checked VM by VM. The arithmetic is
    /// exact, so this equals the live pair however the tenants were
    /// admitted, resized, migrated and released, and whether it is `Ok`
    /// does not depend on the tenant order: the audit's shadow, the
    /// agg/core cordon reseat, and what `restore` installs. `Err` names
    /// the first tenant, in id order, that overbooks a link or a host's
    /// slots.
    pub(crate) fn rebuilt(&self, baseline: &Ledger) -> Result<(Ledger, Placer), String> {
        let mut ledger = baseline.clone();
        let mut placer = Placer::new(&self.topo.hosts, self.cfg.policy, self.cfg.max_vms_per_host);
        apply_host_cordons(&self.topo, &self.cordoned, &mut placer);
        for (i, t) in self.tenants.iter().enumerate() {
            if t.is_active() {
                let hose = self.cfg.hose(t.tokens_per_vm);
                placer
                    .place_fixed(&mut ledger, &t.hosts, hose)
                    .map_err(|e| format!("tenant {i} ({}) {e}", t.name))?;
            }
        }
        Ok((ledger, placer))
    }

    fn set_state(&mut self, id: u32, next: TenantState, now: Time, aux: u64) {
        let t = &mut self.tenants[id as usize];
        assert!(
            t.state.can_go(next),
            "tenant {} illegal transition {} -> {} at {now} ns",
            t.name,
            t.state.label(),
            next.label()
        );
        t.state = next;
        let state = next.label();
        self.obs.rec(Category::Tenant, now, || Event::Tenant {
            tenant: id,
            state,
            aux,
        });
    }

    /// Next valid scheduled departure, discarding stale heap entries
    /// (tenants that already departed early).
    fn peek_departure(&mut self) -> Option<Time> {
        while let Some(&Reverse((t, id))) = self.departs.peek() {
            let tn = &self.tenants[id as usize];
            if tn.is_live() && tn.depart_at == t {
                return Some(t);
            }
            self.departs.pop();
        }
        None
    }

    fn fire_departure(&mut self) {
        let Reverse((t, id)) = self.departs.pop().expect("peeked departure");
        self.depart_tenant(id, t);
    }

    fn fire_reclaim(&mut self) {
        let Reverse((t, id)) = self.reclaims.pop().expect("peeked reclaim");
        if self.tenants[id as usize].state == TenantState::Departing {
            self.set_state(id, TenantState::Reclaimed, t, 0);
        }
    }

    fn depart_tenant(&mut self, id: u32, t: Time) {
        let i = id as usize;
        // The guarantee span stays open through `Suspected`, so take
        // whatever span is open rather than matching on `Guaranteed`.
        if let Some(enter) = self.tenants[i].guaranteed_at.take() {
            self.tenants[i].guaranteed_spans.push((enter, t));
        }
        // A quarantined tenant's capacity was already released on
        // quarantine entry; releasing again would corrupt the ledger.
        if self.tenants[i].state != TenantState::Quarantined {
            let hose = self.cfg.hose(self.tenants[i].tokens_per_vm);
            self.placer
                .release(&mut self.ledger, &self.tenants[i].hosts, hose);
        }
        self.set_state(id, TenantState::Departing, t, 0);
        self.tenants[i].depart_at = t;
        self.reclaims.push(Reverse((t + RECLAIM_GRACE, id)));
    }

    fn fire_op(&mut self, at: Time) -> Applied {
        let (submitted, seq, op) = self.queue.pop_front().expect("peeked op");
        self.next_slot = at + DECISION_GAP;
        let reply = self.apply(&op, at);
        self.digest.fold_u64(at);
        self.digest.fold_u64(seq);
        let _ = write!(self.digest, "{op}");
        let _ = write!(self.digest, "{reply}");
        let kind = op.label();
        let subject = match &op {
            FabricOp::Admit { .. } => match &reply {
                FabricReply::Admitted { tenant, .. } => *tenant,
                _ => u32::MAX,
            },
            FabricOp::Depart { tenant } | FabricOp::Resize { tenant, .. } => *tenant,
            FabricOp::Cordon { node } | FabricOp::Uncordon { node } | FabricOp::Drain { node } => {
                *node
            }
        };
        let latency = at - submitted;
        self.obs.rec(Category::Ops, at, || Event::Op {
            kind,
            subject,
            aux: latency,
        });
        Applied {
            submitted,
            applied: at,
            op,
            reply,
        }
    }

    fn apply(&mut self, op: &FabricOp, t: Time) -> FabricReply {
        match op {
            FabricOp::Admit {
                name,
                n_vms,
                tokens_per_vm,
                lifetime,
            } => self.apply_admit(name, *n_vms, *tokens_per_vm, *lifetime, t),
            FabricOp::Depart { tenant } => self.apply_depart(*tenant, t),
            FabricOp::Resize {
                tenant,
                new_tokens_per_vm,
            } => self.apply_resize(*tenant, *new_tokens_per_vm),
            FabricOp::Cordon { node } => self.apply_cordon(*node, true),
            FabricOp::Uncordon { node } => self.apply_cordon(*node, false),
            FabricOp::Drain { node } => self.apply_drain(*node, t),
        }
    }

    fn apply_admit(
        &mut self,
        name: &str,
        n_vms: usize,
        tokens: f64,
        lifetime: u64,
        t: Time,
    ) -> FabricReply {
        if name.is_empty() || name.contains(char::is_whitespace) {
            // Names embed verbatim in the wire form and the
            // whitespace-delimited snapshot tenant records, so this
            // must hold in release builds, not just under debug_assert.
            return FabricReply::Error {
                detail: format!("admit: tenant name {name:?} must be a non-empty single token"),
            };
        }
        if n_vms == 0 || tokens <= 0.0 || lifetime == 0 {
            return FabricReply::Error {
                detail: format!("admit {name}: need n_vms > 0, tokens > 0, lifetime > 0"),
            };
        }
        if !tokens.is_finite() {
            return FabricReply::Error {
                detail: format!("admit {name}: tokens {tokens} must be finite"),
            };
        }
        let hose = self.cfg.hose(tokens);
        match self.placer.place(&mut self.ledger, n_vms, hose) {
            Ok(hosts) => {
                let raw = hosts.iter().map(|h| h.raw()).collect();
                let tenant = self.push_tenant(name, tokens, hosts, t, t + lifetime, 0);
                FabricReply::Admitted { tenant, hosts: raw }
            }
            Err(reason) => {
                self.n_rejected += 1;
                FabricReply::Rejected { reason }
            }
        }
    }

    /// Record a tenant whose `hosts` were just committed at `t`, schedule
    /// its departure, and walk it `Requested → Admitted → Qualifying`
    /// (`queued_ns` is the `Admitted` event's aux: decision − arrival
    /// where the caller knows it).
    fn push_tenant(
        &mut self,
        name: &str,
        tokens: f64,
        hosts: Vec<NodeId>,
        t: Time,
        depart_at: Time,
        queued_ns: u64,
    ) -> u32 {
        let id = self.tenants.len() as u32;
        self.tenants.push(SvcTenant {
            name: name.to_string(),
            tokens_per_vm: tokens,
            state: TenantState::Requested,
            hosts,
            admitted_at: t,
            depart_at,
            guaranteed_at: None,
            guaranteed_spans: Vec::new(),
        });
        self.departs.push(Reverse((depart_at, id)));
        self.set_state(id, TenantState::Admitted, t, queued_ns);
        self.set_state(id, TenantState::Qualifying, t, 0);
        id
    }

    fn apply_depart(&mut self, id: u32, t: Time) -> FabricReply {
        match self.tenants.get(id as usize) {
            Some(tn) if tn.is_live() => {
                self.depart_tenant(id, t);
                FabricReply::Departed { tenant: id }
            }
            Some(tn) => FabricReply::Error {
                detail: format!("tenant {id} is {} — nothing to depart", tn.state.label()),
            },
            None => FabricReply::Error {
                detail: format!("tenant {id} unknown"),
            },
        }
    }

    fn apply_resize(&mut self, id: u32, new_tokens: f64) -> FabricReply {
        let i = id as usize;
        match self.tenants.get(i) {
            Some(tn) if tn.is_active() => {}
            Some(tn) => {
                return FabricReply::Error {
                    detail: format!("tenant {id} is {} — cannot resize", tn.state.label()),
                }
            }
            None => {
                return FabricReply::Error {
                    detail: format!("tenant {id} unknown"),
                }
            }
        }
        if new_tokens <= 0.0 {
            return FabricReply::Error {
                detail: format!("resize to {new_tokens} tokens — must be positive"),
            };
        }
        if !new_tokens.is_finite() {
            return FabricReply::Error {
                detail: format!("resize to {new_tokens} tokens — must be finite"),
            };
        }
        let old = self.tenants[i].tokens_per_vm;
        let (was, hose) = (self.cfg.hose(old), self.cfg.hose(new_tokens));
        let hosts = &self.tenants[i].hosts;
        if hose > was {
            // Grow: admissibility-checked commit per host, all-or-nothing.
            let delta = hose - was;
            for (k, &h) in hosts.iter().enumerate() {
                let blocked = self
                    .ledger
                    .first_blocking_link(h, delta)
                    .map(|l| l.describe());
                if let Some(link) = blocked {
                    for &g in &hosts[..k] {
                        self.ledger.release(g, delta);
                    }
                    return FabricReply::ResizeDenied {
                        tenant: id,
                        detail: format!("grow to {new_tokens} tokens blocked on link {link}"),
                    };
                }
                self.ledger.commit(h, delta);
            }
            for &h in hosts {
                self.placer.resize_hose(h, was, hose);
            }
        } else if hose < was {
            // Shrink never fails: it only returns capacity.
            for &h in hosts {
                self.ledger.release(h, was - hose);
                self.placer.resize_hose(h, was, hose);
            }
        }
        self.tenants[i].tokens_per_vm = new_tokens;
        FabricReply::Resized {
            tenant: id,
            old_tokens: old,
            new_tokens,
        }
    }

    /// Re-derive every per-host placer cordon flag from the cordon
    /// set. Cordons can overlap (a host cordoned directly *and* via
    /// its ToR), so incremental flag toggling on uncordon or drain
    /// rollback would desync the placer from `self.cordoned` — and
    /// from what a restore re-derives. Every mutation of the set goes
    /// through a full reset-then-apply instead.
    fn sync_host_cordons(&mut self) {
        for &h in &self.topo.hosts {
            self.placer.set_cordoned(h, false);
        }
        apply_host_cordons(&self.topo, &self.cordoned, &mut self.placer);
    }

    /// What tier is raw node `node`?
    fn classify(&self, node: u32) -> Option<&'static str> {
        let n = NodeId(node);
        if self.topo.hosts.contains(&n) {
            Some("host")
        } else if self.topo.tors.contains(&n) {
            Some("tor")
        } else if self.topo.aggs.contains(&n) {
            Some("agg")
        } else if self.topo.cores.contains(&n) {
            Some("core")
        } else {
            None
        }
    }

    /// Hosts whose placements live behind `node`: the node itself for a
    /// host, its attached hosts for a ToR, none for agg/core (their
    /// share moves via the spread rebuild, not by migration).
    fn hosts_behind(&self, node: u32, kind: &str) -> Vec<NodeId> {
        match kind {
            "host" => vec![NodeId(node)],
            "tor" => self
                .topo
                .neighbors(NodeId(node))
                .iter()
                .map(|a| a.peer)
                .filter(|p| self.topo.hosts.contains(p))
                .collect(),
            _ => Vec::new(),
        }
    }

    fn apply_cordon(&mut self, node: u32, on: bool) -> FabricReply {
        let Some(kind) = self.classify(node) else {
            return FabricReply::Error {
                detail: format!("node {node} is not in the topology"),
            };
        };
        if on == self.cordoned.contains(&node) {
            return FabricReply::Error {
                detail: format!(
                    "node {node} is {} cordoned",
                    if on { "already" } else { "not" }
                ),
            };
        }
        match kind {
            "host" | "tor" => {
                if on {
                    self.cordoned.insert(node);
                } else {
                    self.cordoned.remove(&node);
                }
                self.sync_host_cordons();
            }
            _ => {
                // Agg/core: the cordon changes every host's spread, so
                // rebuild the ledger and re-commit — all-or-nothing.
                if on {
                    self.cordoned.insert(node);
                } else {
                    self.cordoned.remove(&node);
                }
                let baseline = Ledger::new_excluding(&self.topo, self.cfg.headroom, &self.cordoned);
                match self.rebuilt(&baseline) {
                    Ok((live, _)) => {
                        self.baseline = baseline;
                        self.ledger = live;
                    }
                    Err(e) => {
                        if on {
                            self.cordoned.remove(&node);
                        } else {
                            self.cordoned.insert(node);
                        }
                        return FabricReply::Error {
                            detail: format!("cordon of {kind} {node} rejected: {e}"),
                        };
                    }
                }
            }
        }
        if on {
            FabricReply::Cordoned { node }
        } else {
            FabricReply::Uncordoned { node }
        }
    }

    fn apply_drain(&mut self, node: u32, t: Time) -> FabricReply {
        let Some(kind) = self.classify(node) else {
            return FabricReply::Error {
                detail: format!("node {node} is not in the topology"),
            };
        };
        if self.cordoned.contains(&node) {
            return FabricReply::Error {
                detail: format!("node {node} is already cordoned"),
            };
        }
        if kind == "agg" || kind == "core" {
            // Nothing is placed *on* a fabric switch; draining it is the
            // spread rebuild that a cordon already performs.
            return match self.apply_cordon(node, true) {
                FabricReply::Cordoned { node } => FabricReply::Drained {
                    node,
                    moved: Vec::new(),
                },
                FabricReply::Error { detail } => FabricReply::DrainFailed { node, detail },
                other => other,
            };
        }
        let drained_hosts = self.hosts_behind(node, kind);
        self.cordoned.insert(node);
        self.sync_host_cordons();
        // Migrate every VM off the drained hosts, tenant id then VM
        // index order, make-before-break (commit the new slot before
        // releasing the old).
        let mut moved: Vec<Moved> = Vec::new();
        let mut failure: Option<String> = None;
        'scan: for i in 0..self.tenants.len() {
            if !self.tenants[i].is_active() {
                // Departed/reclaimed tenants hold nothing; a quarantined
                // tenant's capacity is released, so its VMs stay put and
                // reinstate in place.
                continue;
            }
            let hose = self.cfg.hose(self.tenants[i].tokens_per_vm);
            for v in 0..self.tenants[i].hosts.len() {
                let from = self.tenants[i].hosts[v];
                if !drained_hosts.contains(&from) {
                    continue;
                }
                let avoid = self.tenants[i].hosts.clone();
                match self
                    .placer
                    .place_one_avoiding(&mut self.ledger, hose, &avoid)
                {
                    Ok(to) => {
                        self.placer.release(&mut self.ledger, &[from], hose);
                        self.tenants[i].hosts[v] = to;
                        moved.push((i as u32, v as u32, from.raw(), to.raw()));
                    }
                    Err(r) => {
                        failure = Some(format!(
                            "{} migrating tenant {i} vm {v} off host {from}",
                            r.label()
                        ));
                        break 'scan;
                    }
                }
            }
        }
        if let Some(detail) = failure {
            // All-or-nothing: unwind every move and the cordon.
            for &(ti, vi, from, to) in moved.iter().rev() {
                let hose = self.cfg.hose(self.tenants[ti as usize].tokens_per_vm);
                self.placer.release(&mut self.ledger, &[NodeId(to)], hose);
                self.placer
                    .place_fixed(&mut self.ledger, &[NodeId(from)], hose)
                    .expect("a rolled-back VM fits the host it just left");
                self.tenants[ti as usize].hosts[vi as usize] = NodeId(from);
            }
            self.cordoned.remove(&node);
            self.sync_host_cordons();
            return FabricReply::DrainFailed { node, detail };
        }
        // A migrated tenant's new paths must requalify before its
        // guarantee is back in force.
        let mut touched: Vec<u32> = moved.iter().map(|m| m.0).collect();
        touched.dedup();
        for &ti in &touched {
            self.requalify(ti, t);
        }
        FabricReply::Drained { node, moved }
    }
}

impl Snapshottable for FabricService {
    fn snapshot(&self) -> String {
        crate::snapshot::render(self)
    }

    fn verify_restore(&self, snap: &str) -> Result<(), String> {
        let restored = FabricService::restore(self.topo.clone(), snap)
            .map_err(|e| format!("restore failed: {e}"))?;
        let again = crate::snapshot::render(&restored);
        if again != snap {
            let at = again
                .lines()
                .zip(snap.lines())
                .position(|(a, b)| a != b)
                .map(|l| format!("line {}", l + 1))
                .unwrap_or_else(|| "length".to_string());
            return Err(format!("restored snapshot diverges at {at}"));
        }
        // The text carries no ledger or placer: the rebuilt ones must
        // equal the live pair.
        if restored.ledger != self.ledger || restored.placer != self.placer {
            return Err("restored ledger or placer differs from the live one".into());
        }
        Ok(())
    }
}

/// Re-derive per-host placer cordon flags from the cordon set: hosts
/// cordoned directly, plus every host behind a cordoned ToR.
pub(crate) fn apply_host_cordons(topo: &Topo, cordoned: &BTreeSet<u32>, placer: &mut Placer) {
    for &raw in cordoned {
        let n = NodeId(raw);
        if topo.hosts.contains(&n) {
            placer.set_cordoned(n, true);
        } else if topo.tors.contains(&n) {
            for a in topo.neighbors(n) {
                if topo.hosts.contains(&a.peer) {
                    placer.set_cordoned(a.peer, true);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{FabricOp, FabricReply};
    use fabric::{plan, RejectReason, TenantReq};
    use netsim::builder::LinkSpec;
    use netsim::{MS, US};
    use topology::{leaf_spine, three_tier, ThreeTierCfg};

    fn topo() -> Arc<Topo> {
        // 2 leaves × 4 hosts, 10G everywhere; η = 0.9 admits 9G per access.
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

    #[test]
    fn admit_resize_depart_lifecycle() {
        let mut s = FabricService::new(topo(), AdmissionCfg::default());
        s.submit(0, admit("a", 2, 2.0, 5 * MS));
        s.submit(0, admit("b", 2, 1.0, 5 * MS));
        let out = s.advance(100 * US);
        assert_eq!(out.len(), 2);
        assert!(matches!(
            out[0].reply,
            FabricReply::Admitted { tenant: 0, .. }
        ));
        // Pacing: second decision one gap after the first.
        assert_eq!(out[1].applied - out[0].applied, DECISION_GAP);
        assert_eq!(s.count(TenantState::Qualifying), 2);
        s.audit().unwrap();

        s.note_qualified(0, 200 * US);
        assert_eq!(s.count(TenantState::Guaranteed), 1);

        // Grow tenant 0 in place: 2.0 → 4.0 tokens (1 G → 2 G hose).
        s.submit(
            300 * US,
            FabricOp::Resize {
                tenant: 0,
                new_tokens_per_vm: 4.0,
            },
        );
        let out = s.advance(400 * US);
        assert!(matches!(
            out[0].reply,
            FabricReply::Resized { tenant: 0, .. }
        ));
        assert_eq!(s.tenants()[0].tokens_per_vm, 4.0);
        assert_eq!(s.tenants()[0].state, TenantState::Guaranteed);
        s.audit().unwrap();

        // Shrink back below the original.
        s.submit(
            500 * US,
            FabricOp::Resize {
                tenant: 0,
                new_tokens_per_vm: 1.0,
            },
        );
        let out = s.advance(600 * US);
        assert!(matches!(
            out[0].reply,
            FabricReply::Resized { tenant: 0, .. }
        ));
        assert_eq!(s.tenants()[0].tokens_per_vm, 1.0);
        s.audit().unwrap();

        // Lifetimes expire; capacity drains to zero and tenants reclaim.
        s.advance(10 * MS);
        assert_eq!(s.count(TenantState::Reclaimed), 2);
        assert!(s.ledger().utilization().abs() < 1e-12);
        s.audit().unwrap();
        let active = s.tenants().iter().filter(|t| t.is_active()).count();
        assert_eq!((active, s.tenants().len()), (0, 2));
    }

    /// Submit each wire line at `t`, advance past them, and return the
    /// replies' wire forms.
    fn drive(s: &mut FabricService, t: Time, lines: &[&str]) -> Vec<String> {
        for l in lines {
            s.submit(t, FabricOp::decode(l).unwrap());
        }
        let out = s.advance(t + MS);
        out.iter().map(|a| a.reply.to_string()).collect()
    }

    #[test]
    fn non_finite_tokens_never_reach_the_ledger() {
        let mut s = FabricService::new(topo(), AdmissionCfg::default());
        let replies = drive(
            &mut s,
            0,
            &[
                "admit evil 2 NaN 5000000",
                // A 50 Gb/s hose on 10 Gb/s access links.
                "admit big 2 100 5000000",
                "admit up 1 inf 5000000",
                "admit down 1 -inf 5000000",
            ],
        );
        assert_eq!(
            replies,
            [
                "err admit evil: tokens NaN must be finite",
                "rejected no_capacity",
                "err admit up: tokens inf must be finite",
                "err admit down: need n_vms > 0, tokens > 0, lifetime > 0",
            ]
        );
        s.audit().unwrap();

        let replies = drive(
            &mut s,
            2 * MS,
            &[
                "admit a 2 1 5000000",
                "resize 0 NaN",
                "resize 0 inf",
                "resize 0 -inf",
            ],
        );
        assert_eq!(
            replies[0].split(' ').take(2).collect::<Vec<_>>(),
            ["admitted", "0"]
        );
        assert_eq!(
            replies[1..],
            [
                "err resize to NaN tokens — must be finite",
                "err resize to inf tokens — must be finite",
                "err resize to -inf tokens — must be positive",
            ]
        );
        // The scheduled departure releases exactly what was committed.
        s.advance(20 * MS);
        assert_eq!(s.count(TenantState::Reclaimed), 1);
        assert!(s.ledger().utilization().abs() < 1e-12);
        s.audit().unwrap();
    }

    #[test]
    fn finite_tokens_past_u64_are_refused_not_wrapped() {
        // Hoses of 5e308 bps and f64::MAX × B_u saturate to u64::MAX:
        // the admit finds no capacity and the grow blocks on the first
        // link of the tenant's first host, with nothing committed by
        // either.
        let mut s = FabricService::new(topo(), AdmissionCfg::default());
        let replies = drive(
            &mut s,
            0,
            &[
                "admit huge 2 1e300 5000000",
                &format!("admit max 1 {} 5000000", f64::MAX),
                "admit a 2 1 5000000",
            ],
        );
        assert_eq!(
            replies,
            [
                "rejected no_capacity",
                "rejected no_capacity",
                "admitted 0 3,4"
            ]
        );
        let ledger = s.ledger().clone();
        let replies = drive(&mut s, 2 * MS, &[&format!("resize 0 {}", f64::MAX)]);
        let link = "NodeId(0):PortNo(0) (NodeId(0) ↔ NodeId(2))";
        assert_eq!(
            replies,
            [format!(
                "resize-denied 0 grow to {} tokens blocked on link {link}",
                f64::MAX
            )]
        );
        assert!(*s.ledger() == ledger);
        assert_eq!(s.tenants()[0].tokens_per_vm, 1.0);
        s.audit().unwrap();
    }

    #[test]
    fn huge_vm_counts_are_refused_for_want_of_slots() {
        let mut s = FabricService::new(topo(), AdmissionCfg::default());
        let replies = drive(
            &mut s,
            0,
            &[
                "admit big 100000000000000000 0.1 5000000",
                "admit max 18446744073709551615 0.1 5000000",
                "admit some 1000 0.1 5000000",
            ],
        );
        assert_eq!(replies, ["rejected no_slots"; 3]);
        assert!(s.tenants().is_empty());
        s.audit().unwrap();
    }

    #[test]
    fn oversized_admit_is_rejected() {
        let mut s = FabricService::new(topo(), AdmissionCfg::default());
        // 20 tokens × 500M = 10G > 9G admissible on a 10G access link.
        s.submit(0, admit("over", 1, 20.0, MS));
        let out = s.advance(MS);
        assert!(matches!(
            out[0].reply,
            FabricReply::Rejected {
                reason: RejectReason::NoCapacity
            }
        ));
        assert_eq!(s.n_rejected(), 1);
        assert!(s.tenants().is_empty());
        s.audit().unwrap();
    }

    #[test]
    fn resize_grow_denied_rolls_back() {
        let mut s = FabricService::new(topo(), AdmissionCfg::default());
        // 16 tokens = 8G hose on one VM; growing to 19 tokens (9.5G)
        // must block on the 9G access ceiling and change nothing.
        s.submit(0, admit("big", 1, 16.0, 10 * MS));
        s.advance(100 * US);
        let before = s.ledger().clone();
        s.submit(
            200 * US,
            FabricOp::Resize {
                tenant: 0,
                new_tokens_per_vm: 19.0,
            },
        );
        let out = s.advance(300 * US);
        match &out[0].reply {
            FabricReply::ResizeDenied { tenant: 0, detail } => {
                assert!(detail.contains("blocked on link"), "{detail}");
            }
            other => panic!("expected denial, got {other:?}"),
        }
        assert_eq!(s.tenants()[0].tokens_per_vm, 16.0);
        assert!(*s.ledger() == before, "rollback must be exact");
        s.audit().unwrap();
    }

    #[test]
    fn drain_host_migrates_and_requalifies() {
        let mut s = FabricService::new(topo(), AdmissionCfg::default());
        s.submit(0, admit("a", 2, 2.0, 20 * MS));
        s.submit(0, admit("b", 2, 2.0, 20 * MS));
        let out = s.advance(100 * US);
        let first_host = match &out[0].reply {
            FabricReply::Admitted { hosts, .. } => hosts[0],
            other => panic!("{other:?}"),
        };
        s.note_qualified(0, 200 * US);
        s.note_qualified(1, 200 * US);

        // Both tenants have a VM on the first-fit host; drain it.
        s.submit(300 * US, FabricOp::Drain { node: first_host });
        let out = s.advance(400 * US);
        match &out[0].reply {
            FabricReply::Drained { node, moved } => {
                assert_eq!(*node, first_host);
                let tenants: Vec<u32> = moved.iter().map(|m| m.0).collect();
                assert_eq!(tenants, [0, 1], "one VM per tenant lived there");
                for &(_, _, from, to) in moved {
                    assert_eq!(from, first_host);
                    assert_ne!(to, first_host);
                }
            }
            other => panic!("expected drain, got {other:?}"),
        }
        // The drained host is empty, cordoned, and both tenants must
        // requalify their migrated paths.
        assert_eq!(s.placer.vms_on(NodeId(first_host)), 0);
        assert!(s.cordoned.contains(&first_host));
        assert_eq!(s.count(TenantState::Qualifying), 2);
        assert_eq!(s.tenants()[0].guaranteed_spans.len(), 1);
        s.audit().unwrap();

        // New admissions avoid the cordoned host; uncordon re-opens it.
        s.submit(500 * US, admit("c", 1, 1.0, 20 * MS));
        let out = s.advance(600 * US);
        match &out[0].reply {
            FabricReply::Admitted { hosts, .. } => assert_ne!(hosts[0], first_host),
            other => panic!("{other:?}"),
        }
        s.submit(700 * US, FabricOp::Uncordon { node: first_host });
        let out = s.advance(800 * US);
        assert!(matches!(out[0].reply, FabricReply::Uncordoned { .. }));
        assert!(!s.cordoned.contains(&first_host));
        s.audit().unwrap();
    }

    #[test]
    fn impossible_drain_rolls_everything_back() {
        let cfg = AdmissionCfg {
            max_vms_per_host: 1,
            ..AdmissionCfg::default()
        };
        let mut s = FabricService::new(topo(), cfg);
        // One VM per host: 8 VMs fill all 8 hosts, so a drained VM has
        // nowhere to go — every other host already carries the same
        // tenant (avoid list) and the slot cap forbids doubling up.
        s.submit(0, admit("wall", 8, 2.0, 20 * MS));
        let out = s.advance(100 * US);
        let h0 = match &out[0].reply {
            FabricReply::Admitted { hosts, .. } => hosts[0],
            other => panic!("{other:?}"),
        };
        let ledger = s.ledger().clone();
        s.submit(200 * US, FabricOp::Drain { node: h0 });
        let out = s.advance(300 * US);
        assert!(
            matches!(out[0].reply, FabricReply::DrainFailed { .. }),
            "{:?}",
            out[0].reply
        );
        // Untouched: same placement, same ledger, no cordon.
        assert_eq!(s.tenants()[0].hosts[0].raw(), h0);
        assert!(*s.ledger() == ledger);
        assert!(!s.cordoned.contains(&h0));
        assert!(!s.placer.is_cordoned(NodeId(h0)));
        s.audit().unwrap();
    }

    #[test]
    fn cordon_core_rebuilds_spread_all_or_nothing() {
        let t = Arc::new(three_tier(ThreeTierCfg::default()));
        let core = t.cores[0].raw();
        let mut s = FabricService::new(t.clone(), AdmissionCfg::default());
        s.submit(0, admit("a", 4, 2.0, 50 * MS));
        s.advance(100 * US);
        s.audit().unwrap();

        s.submit(200 * US, FabricOp::Cordon { node: core });
        let out = s.advance(300 * US);
        assert!(matches!(out[0].reply, FabricReply::Cordoned { .. }));
        // No host's hose touches the cordoned core any more.
        for &h in &t.hosts {
            for &(i, _) in s.ledger().spread_of(h) {
                let l = &s.ledger().links()[i];
                assert!(l.node.raw() != core && l.peer.raw() != core);
            }
        }
        s.audit().unwrap();

        s.submit(400 * US, FabricOp::Uncordon { node: core });
        let out = s.advance(500 * US);
        assert!(matches!(out[0].reply, FabricReply::Uncordoned { .. }));
        s.audit().unwrap();
    }

    #[test]
    fn cordon_core_that_strands_a_hose_rolls_back() {
        // 7 G hoses take a host each and two hosts per leaf, so each of a
        // leaf's two spine uplinks carries 7 G of its 9 G ceiling. With
        // one spine cordoned the other uplink would need 14 G.
        let mut s = FabricService::new(topo(), AdmissionCfg::default());
        s.submit(0, admit("wide", 4, 14.0, 50 * MS));
        let out = s.advance(100 * US);
        assert!(
            matches!(out[0].reply, FabricReply::Admitted { .. }),
            "{:?}",
            out[0].reply
        );
        let spine = s.topo().cores[0].raw();
        // The `clock` record holds the op's own decision time, sequence
        // number and digest; every other record is service state.
        let state = |s: &FabricService| {
            crate::snapshot::render(s)
                .lines()
                .filter(|l| !l.starts_with("clock "))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let before = (
            s.cordoned.clone(),
            s.ledger().clone(),
            s.placer.clone(),
            state(&s),
        );

        s.submit(200 * US, FabricOp::Cordon { node: spine });
        let out = s.advance(300 * US);
        match &out[0].reply {
            FabricReply::Error { detail } => assert!(
                detail.starts_with(&format!("cordon of core {spine} rejected: ")),
                "{detail}"
            ),
            other => panic!("expected a rejected cordon, got {other:?}"),
        }
        let after = (
            s.cordoned.clone(),
            s.ledger().clone(),
            s.placer.clone(),
            state(&s),
        );
        assert!(after == before);
        s.audit().unwrap();
    }

    #[test]
    fn admit_rejects_invalid_names() {
        let mut s = FabricService::new(topo(), AdmissionCfg::default());
        s.submit(0, admit("bad name", 1, 1.0, MS));
        s.submit(0, admit("", 1, 1.0, MS));
        let out = s.advance(MS);
        assert_eq!(out.len(), 2);
        for a in &out {
            match &a.reply {
                FabricReply::Error { detail } => {
                    assert!(detail.contains("single token"), "{detail}")
                }
                other => panic!("expected error, got {other:?}"),
            }
        }
        assert!(s.tenants().is_empty());
        s.audit().unwrap();
    }

    #[test]
    fn overlapping_cordons_stay_in_sync() {
        let t = topo();
        let tor = t.tors[0];
        let behind: Vec<NodeId> = t
            .neighbors(tor)
            .iter()
            .map(|a| a.peer)
            .filter(|p| t.hosts.contains(p))
            .collect();
        let h = behind[0];
        let mut s = FabricService::new(t.clone(), AdmissionCfg::default());
        s.submit(0, FabricOp::Cordon { node: h.raw() });
        s.submit(0, FabricOp::Cordon { node: tor.raw() });
        s.submit(0, FabricOp::Uncordon { node: tor.raw() });
        let out = s.advance(MS);
        assert!(matches!(out[2].reply, FabricReply::Uncordoned { .. }));
        // Host h was cordoned independently of its ToR: lifting the
        // ToR cordon must not free it, only its siblings.
        assert!(s.cordoned.contains(&h.raw()));
        assert!(s.placer.is_cordoned(h));
        for &o in &behind[1..] {
            assert!(!s.placer.is_cordoned(o));
        }
        // A fabric-filling admission (7 VMs, distinct hosts) lands on
        // every host except the still-cordoned h.
        s.submit(2 * MS, admit("a", 7, 1.0, 20 * MS));
        let out = s.advance(3 * MS);
        match &out[0].reply {
            FabricReply::Admitted { hosts, .. } => assert!(!hosts.contains(&h.raw())),
            other => panic!("{other:?}"),
        }
        // A restored service re-derives the same flags from the set.
        let snap = Snapshottable::snapshot(&s);
        s.verify_restore(&snap).unwrap();
        let r = FabricService::restore(t, &snap).unwrap();
        assert!(r.placer.is_cordoned(h));
        for &o in &behind[1..] {
            assert!(!r.placer.is_cordoned(o));
        }
    }

    #[test]
    fn failed_drain_rollback_preserves_independent_cordons() {
        let cfg = AdmissionCfg {
            max_vms_per_host: 1,
            ..AdmissionCfg::default()
        };
        let mut s = FabricService::new(topo(), cfg);
        // Cordon the last host, fill the remaining 7, then drain one of
        // them: the only free host is cordoned, so the drain must fail
        // and the rollback must leave the independent cordon standing.
        let x = s.topo().hosts[7];
        s.submit(0, FabricOp::Cordon { node: x.raw() });
        s.submit(0, admit("wall", 7, 2.0, 20 * MS));
        let out = s.advance(100 * US);
        let h0 = match &out[1].reply {
            FabricReply::Admitted { hosts, .. } => hosts[0],
            other => panic!("{other:?}"),
        };
        s.submit(200 * US, FabricOp::Drain { node: h0 });
        let out = s.advance(300 * US);
        assert!(
            matches!(out[0].reply, FabricReply::DrainFailed { .. }),
            "{:?}",
            out[0].reply
        );
        assert!(s.cordoned.contains(&x.raw()));
        assert!(
            s.placer.is_cordoned(x),
            "rollback cleared independent cordon"
        );
        assert!(!s.cordoned.contains(&h0));
        assert!(!s.placer.is_cordoned(NodeId(h0)));
        s.audit().unwrap();
    }

    /// Drive tenant `id` into `Quarantined` by reporting sustained
    /// enforcement every 50 µs from `from`; returns the time just after
    /// the clamp fired.
    fn drive_to_quarantine(s: &mut FabricService, id: u32, from: Time) -> Time {
        let mut now = from;
        let abuse = BTreeMap::from([(id, [3, 1, 0])]);
        loop {
            let actions = s.abuse_tick(now, &abuse);
            now += 50 * US;
            if let Some(a) = actions.first() {
                assert_eq!(a.tenant, id);
                assert_eq!(a.clamp, Some(PENALTY_FRACTION));
                return now;
            }
            assert!(now < from + 10 * MS, "never quarantined");
        }
    }

    #[test]
    fn quarantine_ladder_moves_capacity_and_reinstates() {
        let mut s = FabricService::new(topo(), AdmissionCfg::default());
        s.submit(0, admit("hostile", 2, 2.0, 50 * MS));
        s.submit(10 * US, admit("honest", 2, 2.0, 50 * MS));
        s.advance(100 * US);
        s.note_qualified(0, 150 * US);
        s.note_qualified(1, 150 * US);
        let full = s.ledger().utilization();
        s.enable_abuse();

        let mut now = drive_to_quarantine(&mut s, 0, 200 * US);
        assert_eq!(s.tenants()[0].state, TenantState::Quarantined);
        assert_eq!(s.tenants()[0].guaranteed_spans.len(), 1, "span closed");
        assert!(
            s.ledger().utilization() < full,
            "quarantine released capacity"
        );
        s.audit().unwrap(); // shadow excludes the quarantined tenant

        // Stop abusing: the score decays, the hold expires, and the
        // tenant reinstates with its exact capacity re-committed.
        let mut lifted = None;
        while lifted.is_none() {
            lifted = s.abuse_tick(now, &BTreeMap::new()).first().copied();
            now += 50 * US;
            assert!(now < 20 * MS, "never reinstated");
        }
        assert_eq!(lifted.unwrap().clamp, None);
        assert_eq!(s.tenants()[0].state, TenantState::Reinstated);
        assert!((s.ledger().utilization() - full).abs() < 1e-9);
        s.audit().unwrap();

        // Probation expires back to full Guaranteed standing, with no
        // second clamp on the way.
        while s.tenants()[0].state != TenantState::Guaranteed {
            assert!(s.abuse_tick(now, &BTreeMap::new()).is_empty());
            now += 50 * US;
            assert!(now < 20 * MS, "probation never ended");
        }
        s.audit().unwrap();
    }

    /// The facts the tenant records determine, as restore must rebuild
    /// them: each tenant's time-to-guarantee, the `qualifying()` list,
    /// the pending reclaims in due order, and each tenant's ladder
    /// instants.
    type Facts = (
        Vec<Option<u64>>,
        Vec<(u32, Time)>,
        Vec<(Time, u32)>,
        Vec<Ladder>,
    );

    /// A tenant's quarantine start while `Quarantined` and probation
    /// start while `Reinstated`.
    type Ladder = (Option<Time>, Option<Time>);

    const CALM: Ladder = (None, None);

    fn ladder(s: &FabricService) -> Vec<Ladder> {
        (s.tenants().iter())
            .map(|t| match t.state {
                TenantState::Quarantined => (Some(t.unguaranteed_since()), None),
                TenantState::Reinstated => (None, t.guaranteed_at),
                _ => CALM,
            })
            .collect()
    }

    fn facts(s: &FabricService) -> Facts {
        let ttg = s.tenants().iter().map(|t| t.ttg_ns()).collect();
        let mut reclaims: Vec<(Time, u32)> = s.reclaims.iter().map(|r| r.0).collect();
        reclaims.sort();
        (ttg, s.qualifying(), reclaims, ladder(s))
    }

    /// Tenant "a" walks admit → `Guaranteed` → requalify → `Guaranteed`
    /// → `Suspected` → `Quarantined` → `Reinstated` → `Guaranteed` → an
    /// early depart op; tenant "b" is drained while still `Qualifying`.
    /// Time-to-guarantee, qualifying-since, the reclaim instant and the
    /// quarantine and probation starts hold at every rung, and services
    /// restored mid-quarantine and mid-teardown go on to the same values.
    #[test]
    fn ladder_keeps_ttg_qualifying_since_and_the_reclaim_instant() {
        let mut s = FabricService::new(topo(), AdmissionCfg::default());
        s.submit(0, admit("a", 2, 2.0, 50 * MS));
        // Three VMs on distinct hosts: at least one host holds no VM of "a".
        s.submit(0, admit("b", 3, 2.0, 50 * MS));
        s.advance(100 * US);
        let b_at = DECISION_GAP;
        assert_eq!(
            facts(&s),
            (
                vec![None, None],
                vec![(0, 0), (1, b_at)],
                vec![],
                vec![CALM; 2]
            )
        );

        s.note_qualified(0, 200 * US);
        s.requalify(0, 300 * US);
        assert_eq!(s.qualifying(), [(0, 300 * US), (1, b_at)]);
        s.note_qualified(0, 400 * US);
        let ttg = vec![Some(200 * US), None];
        let calm = || (ttg.clone(), vec![(1, b_at)], vec![], vec![CALM; 2]);
        assert_eq!(facts(&s), calm());

        let a_hosts = s.tenants()[0].hosts.clone();
        let b_only = *(s.tenants()[1].hosts.iter())
            .find(|h| !a_hosts.contains(h))
            .expect("a host of b's alone");
        s.submit(500 * US, FabricOp::Drain { node: b_only.raw() });
        match &s.advance(600 * US)[0].reply {
            FabricReply::Drained { moved, .. } => {
                assert!(moved.len() == 1 && moved[0].0 == 1, "{moved:?}")
            }
            other => panic!("expected a drain, got {other:?}"),
        }
        // "b" never held a guarantee: it qualifies since its admission.
        assert_eq!(facts(&s), calm());

        s.enable_abuse();
        let mut now = drive_to_quarantine(&mut s, 0, 700 * US);
        let quarantined = now - 50 * US;
        assert_eq!(s.tenants()[0].state, TenantState::Quarantined);
        assert_eq!(
            s.tenants()[0].guaranteed_spans,
            [(200 * US, 300 * US), (400 * US, quarantined)]
        );
        let held = (Some(quarantined), None);
        let (t, q, r, _) = calm();
        assert_eq!(facts(&s), (t, q, r, vec![held, CALM]));

        let snap = Snapshottable::snapshot(&s);
        let back = FabricService::restore(s.topo.clone(), &snap).unwrap();
        assert_eq!(facts(&back), facts(&s));
        let mut pair = [s, back];
        let mut reinstated = None;
        while pair[0].tenants()[0].state != TenantState::Guaranteed {
            for s in &mut pair {
                s.abuse_tick(now, &BTreeMap::new());
            }
            let state = pair[0].tenants()[0].state;
            let rung = match state {
                TenantState::Quarantined => held,
                TenantState::Reinstated => (None, Some(*reinstated.get_or_insert(now))),
                _ => CALM,
            };
            for s in &pair {
                assert_eq!(s.tenants()[0].state, state);
                assert_eq!(ladder(s), [rung, CALM]);
            }
            now += 50 * US;
            assert!(now < 30 * MS, "never back to Guaranteed");
        }
        let reinstated = reinstated.expect("the ladder passed through Reinstated");
        assert!(reinstated >= quarantined + QUARANTINE_HOLD);
        assert!(now - 50 * US >= reinstated + PROBATION);
        let depart = now + 100 * US;
        for s in &mut pair {
            assert_eq!(facts(s), calm());
            s.submit(depart, FabricOp::Depart { tenant: 0 });
            s.advance(depart);
            assert_eq!(s.tenants()[0].state, TenantState::Departing);
            let (t, q, _, l) = calm();
            assert_eq!(facts(s), (t, q, vec![(depart + RECLAIM_GRACE, 0)], l));
        }
        let snap = Snapshottable::snapshot(&pair[0]);
        let back = FabricService::restore(pair[0].topo.clone(), &snap).unwrap();
        assert_eq!(facts(&back), facts(&pair[0]));
        for mut s in pair.into_iter().chain([back]) {
            s.advance(depart + RECLAIM_GRACE - 1);
            assert_eq!(s.tenants()[0].state, TenantState::Departing);
            s.advance(depart + RECLAIM_GRACE);
            assert_eq!(s.tenants()[0].state, TenantState::Reclaimed);
            assert_eq!(facts(&s), calm());
            s.audit().unwrap();
        }
    }

    #[test]
    fn quarantined_tenant_departs_on_schedule_without_double_release() {
        let mut s = FabricService::new(topo(), AdmissionCfg::default());
        s.submit(0, admit("hostile", 2, 2.0, 5 * MS));
        s.submit(10 * US, admit("honest", 2, 2.0, 50 * MS));
        s.advance(100 * US);
        s.note_qualified(0, 150 * US);
        s.note_qualified(1, 150 * US);
        s.enable_abuse();
        drive_to_quarantine(&mut s, 0, 200 * US);

        // Keep the tenant quarantined through its scheduled departure
        // (no further ticks, so no reinstatement): the departure must
        // fire at 5 ms without releasing capacity a second time.
        let honest_only = {
            let mut shadow = FabricService::new(topo(), AdmissionCfg::default());
            shadow.submit(0, admit("honest", 2, 2.0, 50 * MS));
            shadow.advance(100 * US);
            shadow.ledger().utilization()
        };
        s.advance(10 * MS);
        assert_eq!(s.count(TenantState::Reclaimed), 1);
        assert!((s.ledger().utilization() - honest_only).abs() < 1e-9);
        s.audit().unwrap();
    }

    /// Quarantine hands the tenant's hose back to the ledger, and an
    /// admission may take it. A reinstatement that no longer fits waits:
    /// the tenant stays `Quarantined`, its edge stays clamped, and a
    /// later tick reinstates it once its host frees.
    #[test]
    fn reinstatement_waits_while_its_host_is_taken() {
        let mut s = FabricService::new(topo(), AdmissionCfg::default());
        // 16 tokens = an 8 G hose: one per 9 G access link.
        s.submit(0, admit("hostile", 1, 16.0, 50 * MS));
        s.advance(100 * US);
        s.note_qualified(0, 150 * US);
        s.enable_abuse();
        let mut now = drive_to_quarantine(&mut s, 0, 200 * US);
        s.submit(now, admit("taker", 1, 16.0, 8 * MS));
        now += 100 * US;
        s.advance(now);
        assert_eq!(s.tenants()[1].hosts, s.tenants()[0].hosts);
        let taker_departs = s.tenants()[1].depart_at;
        assert!(taker_departs > now + QUARANTINE_HOLD);
        let mut lifted = None;
        while lifted.is_none() {
            s.advance(now);
            let taken = s.tenants()[1].is_active();
            lifted = s.abuse_tick(now, &BTreeMap::new()).first().copied();
            s.audit().unwrap();
            let state = s.tenants()[0].state;
            if taken {
                assert!(lifted.is_none(), "reinstated onto a taken host");
                assert_eq!(state, TenantState::Quarantined);
            }
            now += 50 * US;
            assert!(now < 20 * MS, "never reinstated");
        }
        assert!(now > taker_departs);
        assert_eq!(lifted.unwrap().clamp, None);
        assert_eq!(s.tenants()[0].state, TenantState::Reinstated);
        s.advance(60 * MS);
        assert_eq!(
            s.count(TenantState::Reclaimed),
            2,
            "both depart on schedule"
        );
        s.audit().unwrap();
    }

    fn req(name: &str, n_vms: usize, tokens: f64, arrival: Time, lifetime: Time) -> TenantReq {
        TenantReq {
            name: name.into(),
            n_vms,
            tokens_per_vm: tokens,
            arrival,
            lifetime,
        }
    }

    #[test]
    fn planned_admissions_walk_the_full_lifecycle() {
        let t = topo();
        let c = AdmissionCfg::default();
        let p = plan(
            &t,
            &c,
            &[
                req("a", 2, 2.0, 0, 2 * MS),
                req("b", 2, 2.0, 100 * US, 2 * MS),
            ],
        );
        let mut s = FabricService::new(t, c);
        assert_eq!(s.admit_planned(&p.admitted[0]), 0);
        assert_eq!(s.admit_planned(&p.admitted[1]), 1);
        assert_eq!(s.count(TenantState::Qualifying), 2);
        assert_eq!(s.tenants()[1].hosts, p.admitted[1].hosts);
        assert_eq!(s.digest(), DetHash::new().digest(), "not digested");
        s.audit().unwrap();

        s.note_qualified(0, 300 * US);
        s.note_qualified(1, 400 * US);
        assert_eq!(s.count(TenantState::Guaranteed), 2);
        assert_eq!(s.tenants()[0].ttg_ns(), Some(300 * US));

        // Chaos sends tenant 0 back: the open span closes at the fault,
        // and the second guarantee keeps the first TTG.
        s.requalify(0, 500 * US);
        assert_eq!(s.qualifying(), vec![(0, 500 * US)]);
        assert_eq!(s.tenants()[0].guaranteed_spans, vec![(300 * US, 500 * US)]);
        s.requalify(0, 600 * US); // not Guaranteed: no-op
        assert_eq!(s.tenants()[0].guaranteed_spans.len(), 1);
        s.note_qualified(0, 700 * US);
        assert_eq!(s.tenants()[0].ttg_ns(), Some(300 * US));

        // Departure closes spans and frees capacity; reclaim follows
        // only after the teardown grace (1 ms) has elapsed.
        s.advance(2500 * US);
        assert_eq!(s.count(TenantState::Departing), 2);
        assert!(s.ledger().utilization().abs() < 1e-12);
        s.audit().unwrap();
        s.advance(2500 * US + RECLAIM_GRACE + 1);
        assert_eq!(s.count(TenantState::Reclaimed), 2);
        assert_eq!(
            s.tenants()[0].guaranteed_spans,
            vec![(300 * US, 500 * US), (700 * US, 2 * MS)]
        );
        s.audit().unwrap();
    }

    #[test]
    fn admit_planned_frees_departures_due_at_the_decision_instant() {
        let t = topo();
        let c = AdmissionCfg {
            max_vms_per_host: 2,
            ..AdmissionCfg::default()
        };
        // "big" (one 4.5G VM on every host) saturates both leaves' uplink
        // pools and departs at exactly the instant "late" is decided:
        // "late" only fits — in the plan and in the replay — if the
        // departure fires first.
        let p = plan(
            &t,
            &c,
            &[req("big", 8, 9.0, 0, MS), req("late", 2, 9.0, MS, MS)],
        );
        assert_eq!(p.admitted.len(), 2, "{:?}", p.rejected);
        let mut s = FabricService::new(t, c);
        s.admit_planned(&p.admitted[0]);
        s.admit_planned(&p.admitted[1]);
        assert_eq!(s.tenants()[0].state, TenantState::Departing);
        assert_eq!(s.tenants()[1].state, TenantState::Qualifying);
        s.audit().unwrap();
    }

    #[test]
    #[should_panic(expected = "illegal transition")]
    fn illegal_transition_panics() {
        let mut s = FabricService::new(topo(), AdmissionCfg::default());
        s.submit(0, admit("a", 1, 1.0, MS));
        s.advance(0);
        s.note_qualified(0, 10 * US);
        // Guaranteed → Guaranteed is not an edge of the state machine.
        s.note_qualified(0, 20 * US);
    }

    #[test]
    fn queued_admit_exists_only_once_advance_decides_it() {
        let mut s = FabricService::new(topo(), AdmissionCfg::default());
        s.submit(0, admit("a", 1, 1.0, MS));
        assert!(s.tenants().is_empty() && s.qualifying().is_empty());
        s.advance(0);
        assert_eq!(s.count(TenantState::Qualifying), 1);
        s.note_qualified(0, 10 * US);
        assert_eq!(s.count(TenantState::Guaranteed), 1);
    }

    #[test]
    fn bursty_honest_tenant_never_suspected() {
        let mut s = FabricService::new(topo(), AdmissionCfg::default());
        s.submit(0, admit("bursty", 1, 1.0, 20 * MS));
        s.advance(0);
        s.note_qualified(0, 100 * US);
        s.enable_abuse();
        // Policed in every *other* observation window: the decayed
        // score peaks at 1/(1 − d²) = 4/3 < enter (1.5), so the
        // hysteresis keeps the tenant in Guaranteed forever.
        let mut now = 200 * US;
        for tick in 0..128 {
            let deltas = BTreeMap::from([(0, [(tick % 2 == 0) as u64, 0, 0])]);
            assert!(s.abuse_tick(now, &deltas).is_empty());
            assert_eq!(s.tenants()[0].state, TenantState::Guaranteed);
            now += 50 * US;
        }
    }

    #[test]
    fn reclaim_timing_is_independent_of_advance_granularity() {
        let drive = |steps: &[Time]| {
            let mut s = FabricService::new(topo(), AdmissionCfg::default());
            // Departs at 1 ms, reclaims at 2 ms (1 ms default grace);
            // the late depart op must see `reclaimed` whether or not
            // the caller stepped the clock past 2 ms beforehand.
            s.submit(0, admit("a", 1, 1.0, MS));
            s.submit(10 * MS, FabricOp::Depart { tenant: 0 });
            let mut replies = Vec::new();
            for &t in steps {
                for a in s.advance(t) {
                    replies.push(a.reply.encode());
                }
            }
            (s.digest(), replies, s.count(TenantState::Reclaimed))
        };
        let coarse = drive(&[20 * MS]);
        let fine_steps: Vec<Time> = (1..=80).map(|k| k * 250 * US).collect();
        let fine = drive(&fine_steps);
        assert_eq!(coarse, fine);
        assert_eq!(coarse.2, 1);
        assert!(
            coarse.1[1].contains("reclaimed"),
            "late depart saw {:?}",
            coarse.1[1]
        );
    }

    #[test]
    fn identical_op_streams_produce_identical_digests() {
        let drive = || {
            let mut s = FabricService::new(topo(), AdmissionCfg::default());
            s.submit(0, admit("a", 2, 2.0, 5 * MS));
            s.submit(50 * US, admit("b", 3, 1.0, 5 * MS));
            s.submit(
                100 * US,
                FabricOp::Resize {
                    tenant: 0,
                    new_tokens_per_vm: 3.0,
                },
            );
            s.submit(
                150 * US,
                FabricOp::Drain {
                    node: s.topo().hosts[0].raw(),
                },
            );
            let mut replies = Vec::new();
            for step in 1..=40u64 {
                for a in s.advance(step * 250 * US) {
                    replies.push(a.reply.encode());
                }
            }
            (s.digest(), replies)
        };
        let (d1, r1) = drive();
        let (d2, r2) = drive();
        assert_eq!(r1, r2);
        assert_eq!(d1, d2);
        assert!(!r1.is_empty());
    }
}
