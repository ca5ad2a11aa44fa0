//! μFAB-E: the active edge (§3.3–§3.5, §4.1).
//!
//! One [`UfabEdge`] runs per host (the SmartNIC program). It owns:
//!
//! * the [`Endpoint`] transport engine (per-pair message queues,
//!   reliability, delivery tracking);
//! * the hierarchical [`wfq`] packet scheduler — WFQ across tenants,
//!   round-robin across a tenant's pairs — pulled by NIC-idle events so
//!   the NIC queue stays shallow and scheduling decisions stay live;
//! * per-pair control state: candidate underlay paths, the two-stage
//!   admission window (§3.4), registration state at the switches, probe
//!   self-clocking (§4.1), violation counters, and migration freeze
//!   windows (§3.5) — stored struct-of-arrays in [`pairs`] so the
//!   per-tick control walk is a linear scan over dense columns. A
//!   callback resolves the `PairId` it was handed to a slot once; the
//!   pump, the tick and every helper below take slots (DESIGN §4.3 has
//!   the slot-space diagram);
//! * the GP token loops (Appendix E) run every token update period for
//!   both directions (sender assignment, receiver admission);
//! * retirement: a pair the control plane has retired for good
//!   ([`UfabEdge::retire`]) is released — pair-table row, endpoint slot
//!   and receiver row freed for reuse — at the first tick that finds
//!   nothing left that could touch it (DESIGN §4.3, *Retirement*).
//!
//! The control loop per pair: a **probe** carries the pair's (φ, w) along
//! its underlay path; each μFAB-C adds its link's Φ_l/W_l/tx_l/q_l/C_l;
//! the destination returns a **response** with its admitted token; on
//! response the source recomputes the admission window (Eqn 3), checks the
//! guarantee, and — after 5 consecutive violated RTTs outside the freeze
//! window — migrates to a qualified candidate path.

pub mod enforce;
mod pairs;
pub(crate) mod rate;
pub mod wfq;

use crate::config::UfabConfig;
use crate::endpoint::{AppMsg, Endpoint};
use crate::fabric::FabricSpec;
use crate::tokens::{token_admission, token_assignment, PairTokens};
use enforce::{EnfCounters, EnforceState, HostileKind, HostileProfile};
use metrics::recorder::SharedRecorder;
use netsim::agent::{EdgeAgent, EdgeCtx};
use netsim::packet::{Packet, PacketKind};
use netsim::{
    FastMap, Inject, NodeId, PairId, PortNo, Route, TenantId, Time, VmId, ACK_SIZE, DATA_OVERHEAD,
    MS, SEC, US,
};
use obs::{Category as ObsCategory, Event as ObsEvent, ObsHandle};
use pairs::{PairCold, PairTable, PathInfo, PathTelem, PendingFinish, ProbeOut, Registration};
use rand::Rng;
use std::any::Any;
use std::sync::Arc;
use telemetry::{wire, FinishFrame, ProbeFrame};
use topology::Topo;
use wfq::{weight_class, WfqScheduler};

/// Timer kind: the periodic control tick (GP, timeouts, probing upkeep).
const TICK: u64 = 1;

// The paper's μFAB-E operating constants (§3.3–§3.5, §4.1, §5.1). They
// are design parameters, not operator settings: no run varies them, so
// each is named here rather than carried in `UfabConfig`.

/// Target link utilisation η; C_l = η·C^max_l (95 % headroom absorbs
/// transient bursts, §3.3 footnote).
const TARGET_UTILIZATION: f64 = 0.95;
/// Data bytes a pair transmits between probes (L_m, §4.1). The probe
/// overhead bound is L_p/(L_p+L_m) — 1.28 % at 4 KB.
const PROBE_LM_BYTES: u64 = 4096;
/// GP token (re)assignment period (32 μs, §5.1).
const TOKEN_UPDATE_PERIOD: Time = 32 * US;
/// Consecutive RTT-scale violations of the minimum bandwidth before a
/// migration is triggered (5 RTTs, §3.5).
const VIOLATION_RTTS: u32 = 5;
/// How long a persistently better path must be observed before a
/// work-conservation migration (30 s, §3.5).
const BETTER_PATH_HOLD: Time = 30 * SEC;
/// Probe-loss timeout in baseRTTs (8, §4.1).
const PROBE_TIMEOUT_RTTS: u64 = 8;
/// Number of candidate underlay paths a pair randomly samples (§3.5).
const CANDIDATE_PATHS: usize = 4;
/// Number of WFQ weight levels in the packet scheduler (8, §4.1).
const WFQ_LEVELS: u8 = 8;
/// Floor for the admission window in MTUs. May be fractional:
/// sub-MTU windows are enforced by pacing (one packet per
/// window/baseRTT interval), as the FPGA packet scheduler does.
const MIN_WINDOW_MTUS: f64 = 0.1;
/// Retransmission timeout in baseRTTs.
const RTO_RTTS: u64 = 16;
/// Idle time after which a pair deregisters with a finish probe.
const IDLE_FINISH: Time = MS;
/// How often to probe *alternative* candidate paths for the
/// work-conservation trigger (kept slow to bound overhead).
const ALT_PROBE_PERIOD: Time = 10 * MS;
/// Typical fabric RTT, used to scale rate-estimator time constants
/// (the per-pair baseRTT is computed exactly from the topology).
const RTT_SCALE: Time = 25 * US;
/// Cap on shortest-path enumeration when sampling candidates.
const PATH_ENUM_CAP: usize = 16;
/// Policer burst in RTTs of the tenant's per-host hose guarantee
/// (floored at 2 MTUs).
const ENFORCE_BURST_RTTS: f64 = 1.0;
/// Enforcement observation window (ns): verdict events and the
/// probe budget are accounted per window.
const ENFORCE_WINDOW: Time = 250 * US;
/// Probe-budget floor per observation window (keep-alives and
/// candidate probing must never be throttled for honest tenants).
const ENFORCE_PROBE_FLOOR: u32 = 32;
/// Probe-budget margin over the self-clocked rate implied by the
/// hose (budget = floor + margin·hose·window/(8·L_m)).
const ENFORCE_PROBE_MARGIN: f64 = 2.0;

/// Counters exported for experiments and tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct EdgeStats {
    /// Probes sent (all kinds).
    pub probes_sent: u64,
    /// Responses received.
    pub responses: u64,
    /// Path migrations performed.
    pub migrations: u64,
    /// Probe losses detected by timeout.
    pub probe_timeouts: u64,
    /// Finish probes sent.
    pub finishes: u64,
    /// Agent restarts (fault injection): volatile control state rebuilt.
    pub restarts: u64,
    /// Responses discarded because their INT stamps failed sanity checks.
    pub corrupt_responses: u64,
}

/// Receiver-side GP state of one incoming pair (one row per endpoint
/// slot).
#[derive(Debug, Clone, Copy)]
struct RxRow {
    /// Sender demand φ_s carried by the pair's latest probe, and when.
    phi_s: f64,
    at: Time,
    /// Token admitted at the last tick (∞ = unconstrained).
    admitted: f64,
    /// Listed in `rx_live` (demand seen and not yet stale).
    live: bool,
}

const RX_IDLE: RxRow = RxRow {
    phi_s: 0.0,
    at: 0,
    admitted: f64::INFINITY,
    live: false,
};

/// Reused `try_migrate` candidate lists.
#[derive(Default)]
struct MigrateScratch {
    /// (idx, subscription, potential) of fresh qualified candidates.
    qualified: Vec<(usize, f64, f64)>,
    /// (idx, subscription) of fresh candidates.
    fresh: Vec<(usize, f64)>,
}

/// The μFAB-E edge agent.
pub struct UfabEdge {
    cfg: UfabConfig,
    topo: Arc<Topo>,
    fabric: Arc<FabricSpec>,
    /// The transport engine.
    pub ep: Endpoint,
    host: NodeId,
    mtu: u32,
    pairs: PairTable,
    /// Receiver side, indexed by endpoint slot (grown on demand).
    rx: Vec<RxRow>,
    /// The live rows of `rx` as `(destination VM, pair, endpoint slot)`,
    /// kept ascending: the GP receiver tick reads each VM's incoming
    /// pairs as one contiguous run in `PairId` order.
    rx_live: Vec<(VmId, PairId, u32)>,
    /// Queues hold pair-table slots.
    wfq: WfqScheduler<u32>,
    routes_back: FastMap<NodeId, Route>,
    reverse_cache: FastMap<(NodeId, Route), Route>,
    /// Round-robin cursor for the budgeted demand-less keep-alive probes.
    keepalive_cursor: u64,
    /// Reused buffer for the keep-alive candidate scan (no per-tick alloc).
    keepalive_scratch: Vec<u32>,
    /// Reused GP-tick buffers: one VM's pair slots, token views, demands.
    gp_slots: Vec<u32>,
    gp_views: Vec<PairTokens>,
    gp_demands: Vec<f64>,
    migrate_scratch: MigrateScratch,
    /// Counters.
    pub stats: EdgeStats,
    /// Per-tenant enforcement stage (DESIGN §10). Modeled as
    /// control-plane-programmed NIC tables: survives `on_restart`.
    enforce: EnforceState,
    /// Retired pairs whose state here is not released yet. Programmed
    /// by the control plane, so it survives `on_restart`.
    retired: Vec<PairId>,
    /// Pairs released here, kept by debug builds only, for the
    /// assertion that nothing of them ever arrives again.
    released: Vec<PairId>,
    obs: ObsHandle,
}

impl UfabEdge {
    /// Create the agent for `host`.
    pub fn new(
        cfg: UfabConfig,
        topo: Arc<Topo>,
        fabric: Arc<FabricSpec>,
        recorder: SharedRecorder,
        host: NodeId,
    ) -> Self {
        let mtu = topo.mtu;
        let ep = Endpoint::new(host, Arc::clone(&fabric), recorder, mtu, 4 * RTT_SCALE);
        let enforce = EnforceState::new(cfg.enforce, ENFORCE_WINDOW);
        Self {
            cfg,
            topo,
            fabric,
            ep,
            host,
            mtu,
            pairs: PairTable::default(),
            rx: Vec::new(),
            rx_live: Vec::new(),
            wfq: WfqScheduler::new(),
            routes_back: FastMap::default(),
            reverse_cache: FastMap::default(),
            keepalive_cursor: 0,
            keepalive_scratch: Vec::new(),
            gp_slots: Vec::new(),
            gp_views: Vec::new(),
            gp_demands: Vec::new(),
            migrate_scratch: MigrateScratch::default(),
            stats: EdgeStats::default(),
            enforce,
            retired: Vec::new(),
            released: Vec::new(),
            obs: ObsHandle::disabled(),
        }
    }

    /// Attach a flight-recorder handle (shared with the simulator's) so
    /// window updates and migrations leave a trace.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// Read the tenant table from `fabric` from now on: GP re-reads each
    /// VM's hose at its next tick, and the WFQ class and enforcement
    /// hose of every tenant with a pair here follow now. An unchanged
    /// table changes nothing.
    pub fn set_fabric(&mut self, fabric: Arc<FabricSpec>) {
        self.ep.set_fabric(Arc::clone(&fabric));
        self.fabric = fabric;
        let mut held: Vec<_> = (self.pairs.slots_sorted())
            .map(|s| (self.pairs.cold[s].tenant, self.pairs.cold[s].src_vm))
            .collect();
        held.sort_unstable();
        held.dedup_by_key(|&mut (t, _)| t);
        for (tenant, vm) in held {
            let class = weight_class(self.fabric.vm_tokens(vm), WFQ_LEVELS);
            self.wfq.set_tenant(tenant, class);
            if self.enforce.is_provisioned(tenant) {
                self.enforce_provision(tenant);
            }
        }
    }

    /// Submit a message directly (tests / drivers with agent access).
    /// Inside a simulation prefer `sim.inject(host, msg)`.
    pub fn submit(&mut self, ctx: &mut EdgeCtx, msg: AppMsg) {
        let pair = msg.pair;
        self.ep.submit(ctx.now, msg);
        self.activate_pair(ctx, pair);
        self.pump(ctx);
    }

    /// The `ReadySetSound` audit (see [`crate::invariants`]): a clear
    /// ready bit means nothing to send, and the three slot spaces agree
    /// — every scheduler entry is an active pair-table slot of the
    /// queue's tenant, and every pair-table row caches the endpoint slot
    /// and enforcement row of its own pair and tenant.
    pub fn check_ready_set(&self) -> Result<(), String> {
        if let Some(pair) = self.ep.stale_ready_bit() {
            return Err(format!("{pair}: ready bit clear with a segment to send"));
        }
        for (tenant, s) in self.wfq.queued() {
            let s = s as usize;
            if self.pairs.active.get(s) != Some(&true) {
                return Err(format!("scheduler queues slot {s}: no active pair there"));
            }
            if self.pairs.cold[s].tenant != tenant {
                return Err(format!(
                    "scheduler queues slot {s} under {tenant}: wrong tenant"
                ));
            }
        }
        for s in self.pairs.slots_sorted() {
            let (pair, tenant) = (self.pairs.id(s), self.pairs.cold[s].tenant);
            if self.ep.slot(pair) != Some(self.pairs.ep_slot[s]) {
                return Err(format!("{pair}: cached endpoint slot is another pair's"));
            }
            if self.enforce.row(tenant) != Some(self.pairs.enf_row[s]) {
                return Err(format!("{pair}: cached enforcement row is not {tenant}'s"));
            }
        }
        Ok(())
    }

    /// Current admission window of a pair in bytes (tests/experiments).
    pub fn window_of(&self, pair: PairId) -> Option<f64> {
        self.pairs.slot(pair).map(|s| self.pairs.window[s])
    }

    /// Every pair this edge manages, in ascending id order, without
    /// allocating — the form the periodic invariant audits walk.
    pub(crate) fn pair_iter(&self) -> impl Iterator<Item = PairId> + '_ {
        self.pairs.ids_sorted()
    }

    /// Link MTU this edge segments messages at.
    pub(crate) fn mtu(&self) -> u32 {
        self.mtu
    }

    /// The pair's current route (tests/experiments).
    pub fn route_of(&self, pair: PairId) -> Option<Vec<PortNo>> {
        self.pairs
            .slot(pair)
            .map(|s| self.pairs.cur_path(s).route.clone())
    }

    /// Sender-assigned GP token φ_s of a pair (tests/experiments).
    pub fn tokens_of(&self, pair: PairId) -> Option<f64> {
        self.pairs.slot(pair).map(|s| self.pairs.phi_s[s])
    }

    /// WFQ weight of a tenant with a pair here (tests/experiments).
    pub fn weight_of(&self, tenant: TenantId) -> Option<f64> {
        self.wfq.weight(tenant)
    }

    /// Claimed (Eqn 3) window of a pair (tests/experiments).
    pub fn claim_of(&self, pair: PairId) -> Option<f64> {
        self.pairs.slot(pair).map(|s| self.pairs.w_claim[s])
    }

    /// §3.3 qualification signal for the fabric manager: `Some(true)`
    /// when the freshest telemetry for the pair's current path shows
    /// every hop qualified under the target utilization, `Some(false)`
    /// when it does not, `None` before any telemetry has arrived.
    pub fn pair_qualified(&self, pair: PairId) -> Option<bool> {
        let s = self.pairs.slot(pair)?;
        let c = &self.pairs.cold[s];
        let t = &c.telem[c.cur];
        if t.hops.is_empty() {
            return None;
        }
        Some(rate::path_qualified(
            &t.hops,
            0.0,
            self.fabric.bu_bps,
            TARGET_UTILIZATION,
        ))
    }

    /// Whether a pair is active (tests/experiments).
    pub fn is_active(&self, pair: PairId) -> Option<bool> {
        self.pairs.slot(pair).map(|s| self.pairs.active[s])
    }

    /// Probe/response/migration counters snapshot.
    pub fn edge_stats(&self) -> EdgeStats {
        self.stats
    }

    /// Retire `pair` here (nothing will be submitted on it again); its
    /// state is released at the first tick that finds it idle and none of
    /// its packets in the network. Tell a destination edge only once the
    /// source no longer [`holds`](UfabEdge::holds) the pair: until then
    /// the source may retransmit into it.
    pub fn retire(&mut self, pair: PairId) {
        self.retired.push(pair);
    }

    /// Whether this edge holds any state of `pair`.
    pub fn holds(&self, pair: PairId) -> bool {
        self.pairs.slot(pair).is_some() || self.ep.slot(pair).is_some()
    }

    /// Pair-table rows and endpoint slots: `(held now, most ever held at
    /// once)` of each.
    pub fn slot_use(&self) -> [(usize, usize); 2] {
        [self.pairs.slot_use(), self.ep.slot_use()]
    }

    /// Release every retired pair nothing can reach any more: the tick
    /// is a no-op for it, none of its packets is in flight, and nothing
    /// will submit on it, so freeing it cannot be observed.
    fn release_retired(&mut self, ctx: &EdgeCtx) {
        let mut retired = std::mem::take(&mut self.retired);
        retired.retain(|&pair| !self.try_release(ctx, pair));
        self.retired = retired;
    }

    fn try_release(&mut self, ctx: &EdgeCtx, pair: PairId) -> bool {
        let s = self.pairs.slot(pair);
        let e = self.ep.slot(pair);
        let busy_row = s.is_some_and(|s| {
            let c = &self.pairs.cold[s];
            self.pairs.active[s]
                || self.pairs.outstanding[s].is_some()
                || !c.cand_probes.is_empty()
                || !c.pending_finish.is_empty()
        });
        let busy_slot = e.is_some_and(|e| {
            !self.ep.idle_at(e) || self.rx.get(e as usize).is_some_and(|r| r.live)
        });
        if busy_row || busy_slot || ctx.in_network(pair) > 0 {
            return false;
        }
        if let Some(s) = s {
            let tenant = self.pairs.cold[s].tenant;
            self.pairs.remove(pair);
            let pairs = &self.pairs;
            if !pairs.slots_sorted().any(|s| pairs.cold[s].tenant == tenant) {
                self.wfq.remove_tenant(tenant);
                self.enforce.remove(tenant);
            }
        }
        if let Some(e) = e {
            self.ep.release(pair);
            if let Some(row) = self.rx.get_mut(e as usize) {
                *row = RX_IDLE;
            }
        }
        if cfg!(debug_assertions) {
            self.released.push(pair);
        }
        true
    }

    /// Attach a hostile behavior model to one of this host's tenants
    /// (scenario setup; effective whether or not enforcement is armed —
    /// the abuse happens, enforcement decides if it is contained).
    pub fn set_hostile(&mut self, tenant: TenantId, kind: HostileKind, intensity: u32) {
        self.enforce.set_hostile(
            tenant,
            HostileProfile {
                kind,
                intensity: intensity.max(1),
            },
            0,
        );
    }

    /// Apply (`Some(fraction)`) or lift (`None`) a quarantine clamp on
    /// a tenant — the manager's [`enforce`] directive.
    pub fn set_enforce_clamp(&mut self, tenant: TenantId, clamp: Option<f64>, now: Time) {
        self.enforce.set_clamp(tenant, now, clamp);
    }

    /// Cumulative enforcement counters of one tenant on this edge.
    pub fn enforcement_counters(&self, tenant: TenantId) -> Option<EnfCounters> {
        self.enforce.counters(tenant)
    }

    /// Tenants with enforcement rows on this edge, ascending id order.
    pub fn enforced_tenants(&self) -> Vec<TenantId> {
        self.enforce.tenant_ids()
    }

    /// Register `tenant` with the enforcement stage: its policer is
    /// clocked at the per-host hose share (Σ tokens of its VMs on this
    /// host × B_u), burst one RTT of guarantee floored at 2 MTUs, and
    /// its probe budget scales with the hose-implied self-clocked rate.
    /// Returns the tenant's enforcement row.
    fn enforce_ensure(&mut self, tenant: TenantId) -> u32 {
        if !self.enforce.is_provisioned(tenant) {
            self.enforce_provision(tenant);
        }
        self.enforce.row(tenant).expect("provisioned above")
    }

    fn enforce_provision(&mut self, tenant: TenantId) {
        let hose: f64 = self
            .fabric
            .vms_on_host(self.host)
            .iter()
            .filter(|&&v| self.fabric.vm(v).tenant == tenant)
            .map(|&v| self.fabric.vm_tokens(v))
            .sum::<f64>()
            * self.fabric.bu_bps;
        let burst =
            (ENFORCE_BURST_RTTS * hose * (RTT_SCALE as f64 / 1e9) / 8.0).max(2.0 * self.mtu as f64);
        let budget = ENFORCE_PROBE_FLOOR
            + (ENFORCE_PROBE_MARGIN * hose * (ENFORCE_WINDOW as f64 / 1e9)
                / (8.0 * PROBE_LM_BYTES as f64)) as u32;
        self.enforce.ensure(tenant, hose, burst, budget, 0);
    }

    fn min_window(&self) -> f64 {
        MIN_WINDOW_MTUS * (self.mtu - DATA_OVERHEAD) as f64
    }

    /// Route for a reply to `pkt`: retrace the packet's own source route
    /// (it provably works — the packet just arrived on it); fall back to
    /// a shortest path for unrouted (ECMP) packets. Returns the inline
    /// [`Route`] directly — the hit path is a memcpy, no allocation.
    fn reply_route(&mut self, src: NodeId, route: &Route) -> Route {
        if route.is_empty() {
            return self.route_back(src);
        }
        let key = (src, route.clone());
        if let Some(r) = self.reverse_cache.get(&key) {
            return r.clone();
        }
        let rev: Route = self.topo.reverse_route(src, route).into();
        if self.reverse_cache.len() > 4096 {
            self.reverse_cache.clear();
        }
        self.reverse_cache.insert(key, rev.clone());
        rev
    }

    fn route_back(&mut self, dst: NodeId) -> Route {
        if let Some(r) = self.routes_back.get(&dst) {
            return r.clone();
        }
        let paths = self.topo.paths(self.host, dst, 1);
        let route: Route = paths
            .first()
            .unwrap_or_else(|| panic!("no path from {} to {}", self.host, dst))
            .route()
            .into();
        self.routes_back.insert(dst, route.clone());
        route
    }

    fn activate_pair(&mut self, ctx: &mut EdgeCtx, pair: PairId) {
        let floor = self.min_window();
        let eta = TARGET_UTILIZATION;
        let bu = self.fabric.bu_bps;
        if let Some(s) = self.pairs.slot(pair) {
            // (The tenant's enforcement row was provisioned when the
            // pair was inserted; `set_fabric` re-clocks it.)
            if !self.pairs.active[s] {
                self.pairs.active[s] = true;
                // §3.4 Scenario-2 re-entry: bootstrap from the pair's
                // *current share* r·T (Eqn 1 over the freshest telemetry),
                // never below the guarantee BDP.
                let t_s = self.pairs.cur_base_rtt[s] as f64 / 1e9;
                let phi = self.pairs.phi_eff(s);
                let guar = phi * bu;
                let r = {
                    let c = &self.pairs.cold[s];
                    if c.telem[c.cur].hops.is_empty() {
                        guar
                    } else {
                        rate::path_share_rate(phi, &c.telem[c.cur].hops, eta).max(guar)
                    }
                };
                if self.cfg.bounded_latency {
                    let b = rate::bootstrap_window(r, t_s).max(floor);
                    self.pairs.boot[s] = Some(b);
                    self.pairs.window[s] = b;
                }
                self.pairs.w_claim[s] =
                    self.pairs.window[s].max(self.pairs.w_claim[s].min(8.0 * self.pairs.window[s]));
                self.wfq.add_pair(self.pairs.cold[s].tenant, s as u32);
                self.register_on_current(ctx, s);
            }
            return;
        }
        // Fresh pair: build candidates.
        let spec = self.fabric.pair(pair);
        let src_vm = spec.src;
        let tenant = self.fabric.pair_tenant(pair);
        let dst_host = self.fabric.pair_dst_host(pair);
        assert_eq!(self.fabric.pair_src_host(pair), self.host, "pair not ours");
        assert_ne!(dst_host, self.host, "same-host VM pairs need no fabric");
        let all = self.topo.paths(self.host, dst_host, PATH_ENUM_CAP);
        assert!(!all.is_empty(), "no path {} -> {}", self.host, dst_host);
        // Randomly sample k candidates (§3.5).
        let mut idxs: Vec<usize> = (0..all.len()).collect();
        for i in (1..idxs.len()).rev() {
            let j = ctx.rng.gen_range(0..=i);
            idxs.swap(i, j);
        }
        idxs.truncate(CANDIDATE_PATHS);
        let candidates: Vec<PathInfo> = idxs
            .iter()
            .map(|&i| {
                let p = &all[i];
                PathInfo {
                    route: p.route(),
                    base_rtt: self.topo.base_rtt_path(p),
                    n_switch_hops: p.n_links().saturating_sub(1),
                }
            })
            .collect();
        let cur = ctx.rng.gen_range(0..candidates.len());
        let n_cand = candidates.len();
        // Initial sender token: quick split of the VM hose across its
        // currently-active pairs (refined by the GP tick).
        let vm_tokens = self.fabric.vm_tokens(src_vm);
        let n_active = 1 + self
            .pairs
            .cold
            .iter()
            .zip(self.pairs.active.iter())
            .filter(|(c, &a)| c.src_vm == src_vm && a)
            .count();
        let phi_s = vm_tokens / n_active as f64;
        let t_s = candidates[cur].base_rtt as f64 / 1e9;
        let guar = phi_s * self.fabric.bu_bps;
        let boot = if self.cfg.bounded_latency {
            Some(rate::bootstrap_window(guar, t_s).max(self.min_window()))
        } else {
            None
        };
        let window = boot
            .unwrap_or_else(|| {
                // μFAB′ starts from one BDP of the guarantee as well, but
                // immediately tracks Eqn 3 afterwards.
                rate::bootstrap_window(guar, t_s).max(self.min_window())
            })
            .max(self.min_window());
        let cold = PairCold {
            tenant,
            src_vm,
            dst_host,
            candidates,
            telem: vec![PathTelem::default(); n_cand],
            cur,
            registered: None,
            reg_epoch: 0,
            probe_seq: 0,
            cand_probes: FastMap::default(),
            better_since: None,
            pending_finish: Vec::new(),
        };
        let ep_slot = self.ep.slot_or_insert(pair);
        let enf_row = self.enforce_ensure(tenant);
        let s = self
            .pairs
            .insert(pair, cold, ep_slot, enf_row, phi_s, window, boot, ctx.now);
        self.wfq
            .set_tenant(tenant, weight_class(vm_tokens, WFQ_LEVELS));
        self.wfq.add_pair(tenant, s as u32);
        self.register_on_current(ctx, s);
        self.probe_candidates(ctx, s);
    }

    /// Send the registering probe on the current path.
    fn register_on_current(&mut self, ctx: &mut EdgeCtx, s: usize) {
        let phi = self.pairs.phi_eff(s);
        let w = self.pairs.w_claim[s];
        let cur = self.pairs.cold[s].cur;
        self.pairs.cold[s].registered = Some(Registration { path: cur, phi, w });
        self.send_probe(ctx, s, cur, true);
    }

    /// Probe every non-current candidate read-only (registration-free).
    fn probe_candidates(&mut self, ctx: &mut EdgeCtx, s: usize) {
        let n = self.pairs.cold[s].candidates.len();
        for i in 0..n {
            if self.pairs.cold[s].cur != i {
                self.send_probe(ctx, s, i, false);
            }
        }
        self.pairs.last_alt_probe[s] = ctx.now;
    }

    /// Emit one probe on candidate `path_idx`. `registering` sends full
    /// values for switch registration; otherwise the probe carries deltas
    /// on the current path and nothing (pure read) on candidates.
    fn send_probe(&mut self, ctx: &mut EdgeCtx, s: usize, path_idx: usize, registering: bool) {
        // Probe-budget throttle: a throttled probe is simply not sent —
        // no sequence number is burned and no bookkeeping moves, so the
        // self-clock / keep-alive machinery retries on its own schedule.
        if !self
            .enforce
            .probe_admit(self.pairs.enf_row[s], ctx.now, registering)
        {
            return;
        }
        let pair = self.pairs.id(s);
        let seq = self.pairs.cold[s].probe_seq;
        self.pairs.cold[s].probe_seq += 1;
        let phi = self.pairs.phi_eff(s);
        let w = self.pairs.w_claim[s];
        let mut frame = ProbeFrame::probe(pair.raw(), seq, phi, w, ctx.now);
        let is_cur = path_idx == self.pairs.cold[s].cur;
        if registering {
            frame.registering = true;
            self.pairs.cold[s].reg_epoch += 1;
            frame.epoch = self.pairs.cold[s].reg_epoch;
            self.pairs.cold[s].registered = Some(Registration {
                path: path_idx,
                phi,
                w,
            });
        } else if is_cur {
            frame.epoch = self.pairs.cold[s].reg_epoch;
            if let Some(reg) = &mut self.pairs.cold[s].registered {
                frame.phi_delta = phi - reg.phi;
                frame.w_delta = w - reg.w;
                reg.phi = phi;
                reg.w = w;
            }
        }
        let out = ProbeOut {
            seq,
            path: path_idx,
            sent_at: ctx.now,
        };
        if is_cur {
            self.pairs.outstanding[s] = Some(out);
            self.pairs.bytes_since_probe[s] = 0;
            self.pairs.last_probe_sent[s] = ctx.now;
        } else {
            self.pairs.cold[s].cand_probes.insert(seq, out);
        }
        let c = &self.pairs.cold[s];
        let info = &c.candidates[path_idx];
        let size = wire::probe_packet_bytes(info.n_switch_hops, info.route.len()) as u32;
        let pkt = Packet {
            src: self.host,
            dst: c.dst_host,
            pair,
            tenant: c.tenant,
            size,
            kind: PacketKind::Probe(frame),
            route: Route::from(info.route.as_slice()),
            hop: 0,
            ecn: false,
            max_util: 0.0,
            sent_at: ctx.now,
        };
        self.stats.probes_sent += 1;
        ctx.send(pkt);
    }

    /// Self-clocked probing (§4.1): after a response, the next probe goes
    /// out once L_m data bytes have been sent.
    fn maybe_probe(&mut self, ctx: &mut EdgeCtx, s: usize) {
        if !self.pairs.active[s] || self.pairs.outstanding[s].is_some() {
            return;
        }
        match self.cfg.probe_period_rtts {
            None => {
                if self.pairs.bytes_since_probe[s] >= PROBE_LM_BYTES {
                    let cur = self.pairs.cold[s].cur;
                    self.send_probe(ctx, s, cur, false);
                }
            }
            Some(n) => {
                let period = n * self.pairs.cur_base_rtt[s];
                if ctx.now.saturating_sub(self.pairs.last_probe_sent[s]) >= period {
                    let cur = self.pairs.cold[s].cur;
                    self.send_probe(ctx, s, cur, false);
                }
            }
        }
    }

    /// Bounds check on INT stamps before they are allowed to drive rate
    /// control. A bit-flipped register read (chaos `IntCorrupt`, or a real
    /// ASIC mis-read) can put NaN/∞/absurd magnitudes into a hop; Eqn 3
    /// would then collapse or explode the window. Out-of-band values are
    /// rejected wholesale — small in-band perturbations are left to the
    /// per-hop smoothing, which absorbs them like meter noise.
    fn hops_sane(hops: &[telemetry::HopInfo]) -> bool {
        hops.iter().all(|h| {
            h.phi_total.is_finite()
                && (0.0..1e9).contains(&h.phi_total)
                && h.w_total.is_finite()
                && (0.0..1e15).contains(&h.w_total)
                && h.tx_bps.is_finite()
                && h.tx_bps >= 0.0
                && h.cap_bps > 0
                && h.cap_bps < 1_000_000_000_000_000
                && h.tx_bps <= 16.0 * h.cap_bps as f64
                && h.q_bytes < (1 << 40)
        })
    }

    fn handle_response(&mut self, ctx: &mut EdgeCtx, frame: ProbeFrame) {
        let pair = PairId(frame.pair);
        let Some(s) = self.pairs.slot(pair) else {
            return;
        };
        self.stats.responses += 1;
        if let Some(rx_phi) = frame.rx_phi {
            self.pairs.phi_r[s] = rx_phi;
        }
        // Which path does this telemetry describe?
        let path_idx = if self.pairs.outstanding[s].map(|o| o.seq) == Some(frame.seq) {
            let o = self.pairs.outstanding[s].take().expect("checked");
            self.pairs.probe_losses[s] = 0;
            let sample = ctx.now.saturating_sub(o.sent_at);
            self.pairs.srtt[s] = if self.pairs.srtt[s] == 0 {
                sample
            } else {
                (3 * self.pairs.srtt[s] + sample) / 4
            };
            o.path
        } else if let Some(o) = self.pairs.cold[s].cand_probes.remove(&frame.seq) {
            o.path
        } else {
            return; // stale / duplicate
        };
        // Corrupt telemetry never reaches rate control (the srtt update
        // above is kept: probe *timing* is genuine even when stamps are
        // not). The next self-clocked probe re-samples the path.
        if frame.kind != telemetry::ProbeKind::Failure && !Self::hops_sane(&frame.hops) {
            self.stats.corrupt_responses += 1;
            return;
        }
        // Blend the volatile per-hop signals (tx rate, queue) into the
        // previous snapshot: Eqn 3 takes a min across hops, and a min of
        // independently-noisy terms is biased low — smoothing each hop
        // before the min removes most of that bias (the register-backed
        // Φ_l/W_l are low-noise and taken fresh).
        let prev = std::mem::take(&mut self.pairs.cold[s].telem[path_idx]);
        let mut hops = frame.hops;
        if prev.hops.len() == hops.len() {
            for (h, p) in hops.iter_mut().zip(prev.hops.iter()) {
                if h.node == p.node && h.port == p.port {
                    h.tx_bps = 0.5 * h.tx_bps + 0.5 * p.tx_bps;
                    h.q_bytes = ((h.q_bytes + p.q_bytes) / 2).min(h.q_bytes.max(p.q_bytes));
                }
            }
        }
        // A type-4 failure notification (Appendix G): the probe hit a dead
        // link. Mark the path's telemetry stale and migrate right away —
        // no need to wait out the probe-loss timeout.
        if frame.kind == telemetry::ProbeKind::Failure {
            self.pairs.cold[s].telem[path_idx] = PathTelem::default();
            if path_idx == self.pairs.cold[s].cur {
                self.pairs.violations[s] = VIOLATION_RTTS;
                self.stats.probe_timeouts += 1;
                self.probe_candidates(ctx, s);
                self.try_migrate(ctx, s, false, true);
            }
            return;
        }
        self.pairs.cold[s].telem[path_idx] = PathTelem { hops, at: ctx.now };
        if path_idx != self.pairs.cold[s].cur {
            return;
        }
        // ---- Rate control on the current path (Eqn 3 + two-stage) ----
        let eta = TARGET_UTILIZATION;
        let t_s = self.pairs.cur_base_rtt[s] as f64 / 1e9;
        let phi = self.pairs.phi_eff(s);
        let w3 = rate::path_window(
            phi,
            self.pairs.w_claim[s],
            &self.pairs.cold[s].telem[path_idx].hops,
            t_s,
            eta,
            self.mtu,
        );
        let floor = MIN_WINDOW_MTUS * (self.mtu - DATA_OVERHEAD) as f64;
        // The *claim* tracks Eqn 3: an under-demanded pair keeps claiming
        // its proportional share so W_l stays honest and the
        // C_l·T/(tx_l·T+q_l) multiplier can drive work conservation. The
        // update is smoothed (gain per response) because responses arrive
        // every L_m bytes — far more often than once per RTT — and an
        // unsmoothed multiplicative update under bursty-meter noise
        // equilibrates below target utilisation (Appendix C's stability
        // argument: adaptation must be scaled to the RTT).
        let gain = self.cfg.claim_gain;
        self.pairs.w_claim[s] =
            (self.pairs.w_claim[s] + gain * (w3 - self.pairs.w_claim[s])).max(floor);
        let r_share = rate::path_share_rate(phi, &self.pairs.cold[s].telem[path_idx].hops, eta);
        let e = self.pairs.ep_slot[s];
        let measured_tx = self.ep.tx_rate_bps_at(ctx.now, e);
        let window_limited = self.ep.has_backlog_at(e);
        if self.cfg.bounded_latency {
            match self.pairs.boot[s] {
                Some(boot) => {
                    if window_limited {
                        // Stage-1 additive increase, one share-BDP per RTT.
                        let next = boot
                            + rate::bootstrap_increment(
                                phi,
                                &self.pairs.cold[s].telem[path_idx].hops,
                                t_s,
                                eta,
                            );
                        if next >= self.pairs.w_claim[s] {
                            self.pairs.boot[s] = None;
                        } else {
                            self.pairs.boot[s] = Some(next);
                        }
                    }
                    // Under-demanded pairs hold at their bootstrap level.
                }
                None => {
                    // §3.4 Scenario-2: a pair sending below its share must
                    // not keep an armed full-size window — re-enter the
                    // ramp from r·T so a sudden burst stays bounded.
                    if !window_limited && measured_tx < 0.9 * r_share {
                        self.pairs.boot[s] = Some(rate::bootstrap_window(r_share, t_s).max(floor));
                    }
                }
            }
            self.pairs.window[s] = self.pairs.boot[s]
                .unwrap_or(self.pairs.w_claim[s])
                .min(self.pairs.w_claim[s])
                .max(floor);
        } else {
            self.pairs.window[s] = self.pairs.w_claim[s];
        }
        // Eqn 1 is a *lower bound*: the pair may always keep r·T inflight
        // on a qualified path, whatever the claim dynamics say.
        if rate::path_qualified(
            &self.pairs.cold[s].telem[path_idx].hops,
            0.0,
            self.fabric.bu_bps,
            eta,
        ) {
            let r_window = rate::bootstrap_window(r_share, t_s);
            self.pairs.window[s] = self.pairs.window[s].max(r_window);
            self.pairs.w_claim[s] = self.pairs.w_claim[s].max(r_window);
        }
        {
            let (window, phi_r) = (self.pairs.window[s], self.pairs.phi_r[s]);
            let edge = self.host.raw();
            self.obs
                .rec(ObsCategory::Window, ctx.now, || ObsEvent::Window {
                    edge,
                    pair: pair.raw(),
                    window,
                    phi_s: phi,
                    phi_r,
                });
        }
        // ---- Guarantee violation bookkeeping (§3.5 trigger i) ----
        let bu = self.fabric.bu_bps;
        let guar = phi * bu;
        let unqualified =
            !rate::path_qualified(&self.pairs.cold[s].telem[path_idx].hops, 0.0, bu, eta);
        let has_demand = self.ep.has_backlog_at(e) || self.ep.inflight_at(e) > 0;
        let measured = self.ep.delivered_rate_bps_at(ctx.now, e);
        if has_demand && guar > 0.0 && (measured < 0.85 * guar || unqualified) {
            self.pairs.violations[s] += 1;
        } else {
            self.pairs.violations[s] = 0;
        }
        // An explicitly-unqualified path (C_l < Φ_l·B_u) provably cannot
        // serve anyone's guarantee (§3.3) — two consecutive sightings are
        // enough to act, while measured-rate violations keep the cautious
        // 5-RTT hold of §3.5.
        if unqualified {
            self.pairs.unqualified[s] += 1;
        } else {
            self.pairs.unqualified[s] = 0;
        }
        // Disqualification alone is not actionable (the placement may be
        // hose-infeasible and everyone still gets a proportional share);
        // it only accelerates an actual measured violation.
        let migrate_violation = (self.pairs.violations[s] >= VIOLATION_RTTS
            || (self.pairs.unqualified[s] >= 2 && self.pairs.violations[s] >= 2))
            && ctx.now >= self.pairs.freeze_until[s];
        let sustained = self.pairs.violations[s] >= VIOLATION_RTTS;
        // ---- Work-conservation trigger (ii): persistently better path --
        let cur_potential =
            rate::path_potential_rate(phi, &self.pairs.cold[s].telem[path_idx].hops, eta);
        let fresh_limit = 20 * self.pairs.cur_base_rtt[s];
        let mut best_alt: Option<(usize, f64)> = None;
        {
            let c = &self.pairs.cold[s];
            for (i, t) in c.telem.iter().enumerate() {
                if i == c.cur || t.hops.is_empty() {
                    continue;
                }
                if ctx.now.saturating_sub(t.at) > fresh_limit {
                    continue;
                }
                if !rate::path_qualified(&t.hops, phi, bu, eta) {
                    continue;
                }
                let p = rate::path_potential_rate(phi, &t.hops, eta);
                if best_alt.map(|(_, bp)| p > bp).unwrap_or(true) {
                    best_alt = Some((i, p));
                }
            }
        }
        let mut migrate_wc = false;
        if let Some((_, alt_p)) = best_alt {
            if alt_p > 1.25 * cur_potential && has_demand {
                let since = *self.pairs.cold[s].better_since.get_or_insert(ctx.now);
                if ctx.now.saturating_sub(since) >= BETTER_PATH_HOLD
                    && ctx.now >= self.pairs.freeze_until[s]
                {
                    migrate_wc = true;
                }
            } else {
                self.pairs.cold[s].better_since = None;
            }
        } else {
            self.pairs.cold[s].better_since = None;
        }
        if migrate_violation || migrate_wc {
            self.try_migrate(ctx, s, migrate_wc && !migrate_violation, sustained);
        }
        self.pump(ctx);
    }

    /// Pick a qualified candidate and migrate (§3.5). For the
    /// work-conservation trigger only the best-R path is considered; for
    /// violations we prefer minimum subscription with some randomness.
    fn try_migrate(
        &mut self,
        ctx: &mut EdgeCtx,
        s: usize,
        work_conservation: bool,
        sustained: bool,
    ) {
        let mut scratch = std::mem::take(&mut self.migrate_scratch);
        scratch.qualified.clear();
        scratch.fresh.clear();
        self.try_migrate_with(ctx, s, work_conservation, sustained, &mut scratch);
        self.migrate_scratch = scratch;
    }

    fn try_migrate_with(
        &mut self,
        ctx: &mut EdgeCtx,
        s: usize,
        work_conservation: bool,
        sustained: bool,
        MigrateScratch { qualified, fresh }: &mut MigrateScratch,
    ) {
        let eta = TARGET_UTILIZATION;
        let bu = self.fabric.bu_bps;
        let phi = self.pairs.phi_eff(s);
        let fresh_limit = 20 * self.pairs.cur_base_rtt[s];
        let cur_sub = {
            let c = &self.pairs.cold[s];
            for (i, t) in c.telem.iter().enumerate() {
                if i == c.cur || t.hops.is_empty() {
                    continue;
                }
                if ctx.now.saturating_sub(t.at) > fresh_limit {
                    continue;
                }
                let sub = rate::path_subscription(&t.hops, phi, bu, eta);
                fresh.push((i, sub));
                if rate::path_qualified(&t.hops, phi, bu, eta) {
                    qualified.push((i, sub, rate::path_potential_rate(phi, &t.hops, eta)));
                }
            }
            if c.telem[c.cur].hops.is_empty() {
                f64::INFINITY
            } else {
                rate::path_subscription(&c.telem[c.cur].hops, 0.0, bu, eta)
            }
        };
        if qualified.is_empty() {
            // No qualified candidate. §3.6: over-subscribed placements are
            // "digested by the headroom and migration due to bandwidth
            // dissatisfaction" — when the current path is itself
            // disqualified, descending to a clearly less-subscribed path
            // improves the global placement even if that path is not yet
            // qualified (another pair will move off it next).
            if !work_conservation && sustained && cur_sub > 1.05 {
                if let Some(&(best, best_sub)) = fresh
                    .iter()
                    .min_by(|a, b| a.1.partial_cmp(&b.1).expect("NaN"))
                {
                    if best_sub < 0.85 * cur_sub {
                        self.do_migrate(ctx, s, best);
                        // Descents between over-subscribed paths are prone
                        // to ping-pong; hold them back much longer.
                        let hold = self.pairs.freeze_until[s].saturating_sub(ctx.now);
                        self.pairs.freeze_until[s] = ctx.now + 4 * hold.max(1);
                        return;
                    }
                }
            }
            // Otherwise: widen the search — replace one random non-current
            // candidate with a fresh path sample, then re-probe.
            self.resample_candidate(ctx, s);
            self.probe_candidates(ctx, s);
            return;
        }
        let new_idx = if work_conservation {
            qualified
                .iter()
                .max_by(|a, b| a.2.partial_cmp(&b.2).expect("NaN"))
                .expect("non-empty")
                .0
        } else {
            // Random with preference to minimum subscription (§3.5).
            let min = qualified
                .iter()
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("NaN"))
                .expect("non-empty")
                .0;
            if ctx.rng.gen_bool(0.75) {
                min
            } else {
                qualified[ctx.rng.gen_range(0..qualified.len())].0
            }
        };
        self.do_migrate(ctx, s, new_idx);
    }

    /// Swap one random non-current candidate for a path not currently in
    /// the candidate set (keeps the §3.5 random-subset search moving when
    /// every sampled candidate is disqualified).
    fn resample_candidate(&mut self, ctx: &mut EdgeCtx, s: usize) {
        let dst_host = self.pairs.cold[s].dst_host;
        let all = self.topo.paths(self.host, dst_host, PATH_ENUM_CAP);
        if all.len() <= self.pairs.cold[s].candidates.len() {
            return; // nothing new to draw from
        }
        let (n_cand, cur, fresh_idx) = {
            let c = &self.pairs.cold[s];
            let existing: Vec<Vec<PortNo>> =
                c.candidates.iter().map(|cand| cand.route.clone()).collect();
            let fresh_idx: Vec<usize> = (0..all.len())
                .filter(|&i| !existing.contains(&all[i].route()))
                .collect();
            (c.candidates.len(), c.cur, fresh_idx)
        };
        if fresh_idx.is_empty() || n_cand < 2 {
            return;
        }
        let new_path = &all[fresh_idx[ctx.rng.gen_range(0..fresh_idx.len())]];
        // Replace a random candidate that is not the current one.
        let mut victim = ctx.rng.gen_range(0..n_cand);
        if victim == cur {
            victim = (victim + 1) % n_cand;
        }
        let info = PathInfo {
            route: new_path.route(),
            base_rtt: self.topo.base_rtt_path(new_path),
            n_switch_hops: new_path.n_links().saturating_sub(1),
        };
        let c = &mut self.pairs.cold[s];
        c.candidates[victim] = info;
        c.telem[victim] = PathTelem::default();
    }

    fn do_migrate(&mut self, ctx: &mut EdgeCtx, s: usize, new_idx: usize) {
        let floor = self.min_window();
        let eta = TARGET_UTILIZATION;
        let bu = self.fabric.bu_bps;
        let pair = self.pairs.id(s);
        if new_idx == self.pairs.cold[s].cur {
            return;
        }
        self.stats.migrations += 1;
        self.ep.recorder().lock().unwrap().path_migrations += 1;
        {
            let (from, to) = (self.pairs.cold[s].cur as u8, new_idx as u8);
            let edge = self.host.raw();
            self.obs
                .rec(ObsCategory::Migration, ctx.now, || ObsEvent::Migration {
                    edge,
                    pair: pair.raw(),
                    from,
                    to,
                });
        }
        // Deregister from the old path.
        if let Some(reg) = self.pairs.cold[s].registered.take() {
            let c = &mut self.pairs.cold[s];
            let old = &c.candidates[reg.path];
            let pf = PendingFinish {
                route: old.route.clone(),
                n_switch_hops: old.n_switch_hops,
                phi: reg.phi,
                w: reg.w,
                seq: c.probe_seq,
                epoch: c.reg_epoch,
                retries: 0,
                next_retry: ctx.now,
            };
            c.pending_finish.push(pf);
            c.probe_seq += 1;
        }
        self.pairs.set_cur(s, new_idx);
        self.pairs.violations[s] = 0;
        self.pairs.unqualified[s] = 0;
        self.pairs.outstanding[s] = None;
        self.pairs.cold[s].better_since = None;
        let base = self.pairs.cur_base_rtt[s];
        let n = ctx.rng.gen_range(1..=self.cfg.freeze_rtts_max.max(1));
        self.pairs.freeze_until[s] = ctx.now + n * base;
        if self.cfg.reorder_free {
            self.pairs.data_paused_until[s] = ctx.now + base;
        }
        // Scenario-2 bootstrap on the new path: start from the
        // proportional share the new path's telemetry promises.
        let t_s = base as f64 / 1e9;
        let phi = self.pairs.phi_eff(s);
        let r = {
            let hops = &self.pairs.cold[s].telem[new_idx].hops;
            if hops.is_empty() {
                phi * bu
            } else {
                rate::path_share_rate(phi, hops, eta)
            }
        };
        let w0 = rate::bootstrap_window(r, t_s).max(floor);
        if self.cfg.bounded_latency {
            self.pairs.boot[s] = Some(w0);
        }
        self.pairs.window[s] = w0;
        self.pairs.w_claim[s] = w0;
        self.register_on_current(ctx, s);
        self.flush_finish(ctx, s);
    }

    fn flush_finish(&mut self, ctx: &mut EdgeCtx, s: usize) {
        if self.pairs.cold[s].pending_finish.is_empty() {
            return;
        }
        let pair = self.pairs.id(s);
        let retry_after = 4 * self.pairs.cur_base_rtt[s];
        let c = &mut self.pairs.cold[s];
        // Drop finishes that exhausted their retries (dead path; the
        // switch idle-cleanup reclaims those registrations).
        c.pending_finish.retain(|pf| pf.retries <= 10);
        let mut to_send = Vec::new();
        for pf in c.pending_finish.iter_mut() {
            if ctx.now < pf.next_retry {
                continue;
            }
            pf.retries += 1;
            pf.next_retry = ctx.now + retry_after;
            let mut frame = FinishFrame::new(pair.raw(), pf.seq, pf.phi, pf.w);
            frame.epoch = pf.epoch;
            frame.forward = true;
            let size = wire::probe_packet_bytes(pf.n_switch_hops, pf.route.len()) as u32;
            to_send.push((frame, size, Route::from(pf.route.as_slice())));
        }
        let dst = c.dst_host;
        let tenant = c.tenant;
        for (frame, size, route) in to_send {
            self.stats.finishes += 1;
            ctx.send(Packet {
                src: self.host,
                dst,
                pair,
                tenant,
                size,
                kind: PacketKind::Finish(frame),
                route,
                hop: 0,
                ecn: false,
                max_util: 0.0,
                sent_at: ctx.now,
            });
        }
    }

    /// GP sender side: split each local VM's hose across its active pairs.
    fn gp_sender_tick(&mut self, now: Time) {
        let mut slots = std::mem::take(&mut self.gp_slots);
        let mut views = std::mem::take(&mut self.gp_views);
        let pairs = &mut self.pairs;
        // One VM's pairs are one run of `vm_order`, ascending PairId.
        for run in pairs.vm_order.chunk_by(|a, b| a.0 == b.0) {
            slots.clear();
            views.clear();
            for &(_, s) in run {
                if pairs.active[s as usize] {
                    let tx = self.ep.tx_rate_bps_at(now, pairs.ep_slot[s as usize]);
                    slots.push(s);
                    views.push(PairTokens::new(tx, pairs.phi_r[s as usize]));
                }
            }
            let vm = run[0].0;
            token_assignment(self.fabric.vm_tokens(vm), self.fabric.bu_bps, &mut views);
            for (&s, v) in slots.iter().zip(&views) {
                pairs.phi_s[s as usize] = v.phi_s;
            }
        }
        self.gp_slots = slots;
        self.gp_views = views;
    }

    /// Record the sender demand a probe carried for the incoming pair in
    /// endpoint slot `e`; returns the token currently admitted for it.
    fn note_rx_demand(&mut self, e: u32, pair: PairId, phi_s: f64, now: Time) -> f64 {
        if self.rx.len() <= e as usize {
            self.rx.resize(e as usize + 1, RX_IDLE);
        }
        let row = &mut self.rx[e as usize];
        (row.phi_s, row.at) = (phi_s, now);
        if !row.live {
            row.live = true;
            let key = (self.fabric.pair(pair).dst, pair, e);
            let pos = self.rx_live.partition_point(|&k| k < key);
            self.rx_live.insert(pos, key);
        }
        row.admitted
    }

    /// GP receiver side: admit incoming demands per destination VM.
    fn gp_receiver_tick(&mut self, now: Time) {
        let stale = 8 * TOKEN_UPDATE_PERIOD;
        let rx = &mut self.rx;
        self.rx_live.retain(|&(_, _, e)| {
            let row = &mut rx[e as usize];
            row.live = now.saturating_sub(row.at) <= stale;
            if !row.live {
                row.admitted = f64::INFINITY;
            }
            row.live
        });
        let mut demands = std::mem::take(&mut self.gp_demands);
        // One VM's incoming pairs are one run, ascending PairId.
        for run in self.rx_live.chunk_by(|a, b| a.0 == b.0) {
            demands.clear();
            demands.extend(run.iter().map(|&(_, _, e)| rx[e as usize].phi_s));
            let admitted = token_admission(self.fabric.vm_tokens(run[0].0), &demands);
            for (&(_, _, e), adm) in run.iter().zip(admitted) {
                rx[e as usize].admitted = adm;
            }
        }
        self.gp_demands = demands;
    }

    /// The periodic control tick.
    fn tick(&mut self, ctx: &mut EdgeCtx) {
        let now = ctx.now;
        self.gp_sender_tick(now);
        self.gp_receiver_tick(now);
        // The walk follows the table's sorted order (ascending PairId) so
        // probe/timeout/migration processing order is independent of hash
        // state — keeps same-seed runs byte-identical across processes
        // (checked by the determinism digest). Slots are stable: nothing
        // in the loop body inserts or removes pairs.
        let n_pairs = self.pairs.len();
        let mut need_pump = false;
        for k in 0..n_pairs {
            let s = self.pairs.slot_at(k);
            let e = self.pairs.ep_slot[s];
            // Probe-loss detection (8 baseRTT timeout, §4.1).
            let base = self.pairs.cur_base_rtt[s];
            let active = self.pairs.active[s];
            let timeout = (PROBE_TIMEOUT_RTTS * base).max(3 * self.pairs.srtt[s]);
            let timed_out = self.pairs.outstanding[s]
                .map(|o| now.saturating_sub(o.sent_at) > timeout)
                .unwrap_or(false);
            let idle_since = self.ep.last_activity_at(e);
            let rto_due = self.ep.inflight_at(e) > 0;
            let alt_due =
                active && now.saturating_sub(self.pairs.last_alt_probe[s]) >= ALT_PROBE_PERIOD;
            let period_probe = active
                && self.cfg.probe_period_rtts.is_some()
                && self.pairs.outstanding[s].is_none();
            if timed_out {
                self.stats.probe_timeouts += 1;
                self.pairs.outstanding[s] = None;
                self.pairs.probe_losses[s] += 1;
                if self.pairs.probe_losses[s] >= 2 && now >= self.pairs.freeze_until[s] {
                    // Path considered failed: mark telemetry stale and
                    // migrate anywhere qualified.
                    let cur = self.pairs.cold[s].cur;
                    self.pairs.cold[s].telem[cur] = PathTelem::default();
                    self.pairs.violations[s] = VIOLATION_RTTS;
                    self.probe_candidates(ctx, s);
                    self.try_migrate(ctx, s, false, true);
                } else {
                    let cur = self.pairs.cold[s].cur;
                    let registered = self.pairs.cold[s].registered.is_some();
                    self.send_probe(ctx, s, cur, !registered);
                }
            }
            if rto_due {
                let rto = RTO_RTTS * base;
                if self.ep.check_timeouts_at(now, e, rto) {
                    need_pump = true;
                }
            }
            if active {
                if period_probe {
                    self.maybe_probe(ctx, s);
                }
                if alt_due {
                    self.probe_candidates(ctx, s);
                }
                // Idle detection → finish probes (§3.6).
                let has_work = self.ep.has_backlog_at(e) || self.ep.inflight_at(e) > 0;
                if !has_work && now.saturating_sub(idle_since) >= IDLE_FINISH {
                    self.deactivate_pair(ctx, s);
                }
            }
            self.flush_finish(ctx, s);
        }
        // Budgeted keep-alives: beyond the L_m-self-clocked probes that
        // ride with data (§4.1 — the probes that give the 1.28 % bound),
        // every active pair occasionally needs a probe even when its data
        // clock ticks slowly — under-demanded pairs must keep their Eqn-3
        // claims fresh and window-limited pairs must keep the control
        // loop alive. These extra probes rotate across pairs under a
        // fixed per-host budget (≤2 per token tick), so their aggregate
        // bandwidth is bounded regardless of the pair count.
        let mut idle_candidates = std::mem::take(&mut self.keepalive_scratch);
        idle_candidates.clear();
        for s in self.pairs.slots_sorted() {
            if self.pairs.active[s]
                && self.pairs.outstanding[s].is_none()
                && now.saturating_sub(self.pairs.last_probe_sent[s])
                    >= 4 * self.pairs.cur_base_rtt[s]
            {
                idle_candidates.push(s as u32);
            }
        }
        let budget = 2usize.min(idle_candidates.len());
        for k in 0..budget {
            let idx = (self.keepalive_cursor as usize + k) % idle_candidates.len();
            let s = idle_candidates[idx] as usize;
            let cur = self.pairs.cold[s].cur;
            let registered = self.pairs.cold[s].registered.is_some();
            self.send_probe(ctx, s, cur, !registered);
        }
        self.keepalive_cursor = self.keepalive_cursor.wrapping_add(budget as u64);
        self.keepalive_scratch = idle_candidates;
        self.hostile_tick(ctx);
        // Enforcement deferral has no ack clock: a policed pair with
        // nothing inflight would never be re-pumped by acks or NIC-idle
        // events, so the periodic tick doubles as its retry timer. The
        // deferred flag re-arms on every gated attempt, so the chain
        // holds exactly while something is gated — edges that never
        // police (the clean path) never pay the extra pump.
        if need_pump || self.enforce.take_deferred() {
            self.pump(ctx);
        }
        self.flush_enforcement_events(ctx.now);
        self.release_retired(ctx);
        ctx.set_timer(TOKEN_UPDATE_PERIOD, TICK);
    }

    /// Drive this host's hostile tenants for one tick (the adversarial
    /// generators' edge-side half). Walks tenants and pairs in sorted
    /// order — abuse itself is deterministic.
    fn hostile_tick(&mut self, ctx: &mut EdgeCtx) {
        for (row, h) in self.enforce.hostile_rows() {
            match h.kind {
                // Acts in the pump's window bypass, nothing periodic.
                HostileKind::OverGuar => {}
                HostileKind::ProbeFlood => {
                    // `intensity` raw probes per active pair per tick on
                    // dedicated flood sequence numbers: the responses
                    // miss the outstanding/candidate lookups and are
                    // dropped as stale, so honest control state is
                    // never touched.
                    for k in 0..self.pairs.len() {
                        let s = self.pairs.slot_at(k);
                        if self.pairs.active[s] && self.pairs.enf_row[s] == row {
                            for _ in 0..h.intensity {
                                self.send_flood_probe(ctx, s);
                            }
                        }
                    }
                }
                HostileKind::UdpBlast => {
                    // Connectionless blast at unregistered destinations:
                    // structurally dropped at the source NIC (only
                    // admitted-pair traffic is ever forwarded), so the
                    // blast consumes no fabric capacity in any config —
                    // the enforcement stage adds the *attribution* that
                    // lets the quarantine machine punish the attempt.
                    self.enforce
                        .note_unsolicited(row, ctx.now, 4 * h.intensity as u64);
                }
            }
        }
    }

    /// Emit one flood probe (subject to the probe-budget throttle).
    fn send_flood_probe(&mut self, ctx: &mut EdgeCtx, s: usize) {
        let row = self.pairs.enf_row[s];
        if !self.enforce.probe_admit(row, ctx.now, false) {
            return;
        }
        let pair = self.pairs.id(s);
        let seq = self.enforce.next_flood_seq(row);
        let phi = self.pairs.phi_eff(s);
        let w = self.pairs.w_claim[s];
        let frame = ProbeFrame::probe(pair.raw(), seq, phi, w, ctx.now);
        let c = &self.pairs.cold[s];
        let info = &c.candidates[c.cur];
        let size = wire::probe_packet_bytes(info.n_switch_hops, info.route.len()) as u32;
        let pkt = Packet {
            src: self.host,
            dst: c.dst_host,
            pair,
            tenant: c.tenant,
            size,
            kind: PacketKind::Probe(frame),
            route: Route::from(info.route.as_slice()),
            hop: 0,
            ecn: false,
            max_util: 0.0,
            sent_at: ctx.now,
        };
        self.stats.probes_sent += 1;
        ctx.send(pkt);
    }

    /// Flush the enforcement stage's pending verdicts to the flight
    /// recorder (once per tick, in verdict order — bounded to one event
    /// per tenant × class × observation window).
    fn flush_enforcement_events(&mut self, now: Time) {
        let pending = self.enforce.take_pending();
        if pending.is_empty() {
            return;
        }
        let edge = self.host.raw();
        for (tenant, class, aux) in pending {
            self.obs
                .rec(ObsCategory::Enforcement, now, || ObsEvent::Enforcement {
                    edge,
                    tenant: tenant.raw(),
                    class,
                    aux,
                });
        }
    }

    fn deactivate_pair(&mut self, ctx: &mut EdgeCtx, s: usize) {
        if !self.pairs.active[s] {
            return;
        }
        self.pairs.active[s] = false;
        self.pairs.outstanding[s] = None;
        if let Some(reg) = self.pairs.cold[s].registered.take() {
            let c = &mut self.pairs.cold[s];
            let old = &c.candidates[reg.path];
            let pf = PendingFinish {
                route: old.route.clone(),
                n_switch_hops: old.n_switch_hops,
                phi: reg.phi,
                w: reg.w,
                seq: c.probe_seq,
                epoch: c.reg_epoch,
                retries: 0,
                next_retry: ctx.now,
            };
            c.pending_finish.push(pf);
            c.probe_seq += 1;
        }
        let tenant = self.pairs.cold[s].tenant;
        self.wfq.remove_pair(tenant, s as u32);
        self.flush_finish(ctx, s);
    }

    /// Pull-based data pump: fill the NIC up to two packets, picking pairs
    /// via the hierarchical WFQ under their admission windows. Everything
    /// here is slot-indexed: the scheduler hands back a pair-table slot,
    /// whose columns name the endpoint slot and the enforcement row.
    fn pump(&mut self, ctx: &mut EdgeCtx) {
        let mut budget = 2usize.saturating_sub(ctx.nic.queue_pkts);
        let now = ctx.now;
        while budget > 0 {
            let (pairs, ep, enf) = (&self.pairs, &self.ep, &mut self.enforce);
            let picked = self.wfq.pick_ready(
                |s| ep.sendable_at(pairs.ep_slot[s as usize]),
                |s| {
                    let s = s as usize;
                    if !pairs.active[s] || now < pairs.data_paused_until[s] {
                        return None;
                    }
                    let e = pairs.ep_slot[s];
                    let (payload, is_retx) = ep.peek_segment_at(e)?;
                    let inflight = ep.inflight_at(e);
                    let window_ok =
                        if is_retx || inflight + payload as u64 <= pairs.window[s] as u64 {
                            true
                        } else {
                            // Fractional window credit (including sub-MTU
                            // windows): a packet may start whenever inflight <
                            // window, with the overshoot paced so the average
                            // rate stays window/baseRTT (the FPGA scheduler's
                            // per-pair pacing, §4.1). Without this, a window of
                            // 1.7 packets quantises down to 1 packet/RTT and
                            // token-proportional sharing breaks.
                            (inflight as f64) < pairs.window[s] && now >= pairs.next_send_at[s]
                        };
                    let row = pairs.enf_row[s];
                    // A guarantee-exceeding sender ignores the admission
                    // window; the enforcement policer is what contains it.
                    if !window_ok && !enf.is_overguar(row) {
                        return None;
                    }
                    let size = payload + DATA_OVERHEAD;
                    if !enf.data_admit(row, now, size as u64, !window_ok) {
                        // Policed: a deferral, not a drop — the bytes stay
                        // in the backlog and the periodic tick re-pumps.
                        return None;
                    }
                    Some(size)
                },
            );
            let Some((s, _size)) = picked else {
                break;
            };
            let s = s as usize;
            let e = self.pairs.ep_slot[s];
            let Some((info, wire_size)) = self.ep.next_segment_at(now, e) else {
                break;
            };
            if self.ep.inflight_at(e) > self.pairs.window[s] as u64 {
                // This send overshot the window (fractional credit): pace
                // the next one so the average rate stays window/baseRTT.
                let rate_bps =
                    self.pairs.window[s].max(1.0) * 8.0 / (self.pairs.cur_base_rtt[s] as f64 / 1e9);
                let gap = (info.payload as f64 * 8.0 / rate_bps * 1e9) as Time;
                self.pairs.next_send_at[s] = now + gap;
            }
            let c = &self.pairs.cold[s];
            let pkt = Packet {
                src: self.host,
                dst: c.dst_host,
                pair: self.pairs.id(s),
                tenant: c.tenant,
                size: wire_size,
                kind: PacketKind::Data(info),
                route: Route::from(c.candidates[c.cur].route.as_slice()),
                hop: 0,
                ecn: false,
                max_util: 0.0,
                sent_at: now,
            };
            self.pairs.bytes_since_probe[s] += info.payload as u64;
            ctx.send(pkt);
            // Charge the actual wire size against the tenant's hose
            // bucket (admit only peeked).
            self.enforce
                .data_charge(self.pairs.enf_row[s], now, wire_size as u64);
            budget -= 1;
            self.maybe_probe(ctx, s);
        }
    }
}

impl EdgeAgent for UfabEdge {
    fn on_start(&mut self, ctx: &mut EdgeCtx) {
        ctx.set_timer(TOKEN_UPDATE_PERIOD, TICK);
    }

    fn on_packet(&mut self, ctx: &mut EdgeCtx, pkt: Packet) {
        debug_assert!(
            !self.released.contains(&pkt.pair),
            "{} arrived at {} after its release",
            pkt.pair,
            self.host
        );
        // `pkt` is ours: frames and their hop vectors move through.
        match pkt.kind {
            PacketKind::Data(_) => {
                let (ack, reply) = self.ep.on_data(ctx.now, &pkt);
                let route = self.reply_route(pkt.src, &pkt.route);
                ctx.send(Packet {
                    src: self.host,
                    dst: pkt.src,
                    pair: pkt.pair,
                    tenant: pkt.tenant,
                    size: ACK_SIZE,
                    kind: PacketKind::Ack(ack),
                    route,
                    hop: 0,
                    ecn: false,
                    max_util: 0.0,
                    sent_at: ctx.now,
                });
                if let Some(msg) = reply {
                    let p = msg.pair;
                    self.ep.submit(ctx.now, msg);
                    self.activate_pair(ctx, p);
                    self.pump(ctx);
                }
            }
            PacketKind::Ack(ack) => {
                let Some(e) = self.ep.slot(pkt.pair) else {
                    return;
                };
                let res = self.ep.on_ack_at(ctx.now, e, &ack);
                if let Some(rtt) = res.rtt {
                    self.ep.recorder().lock().unwrap().rtt(rtt);
                }
                if res.valid {
                    self.pump(ctx);
                }
            }
            PacketKind::Probe(frame) => {
                // We are the destination: record demand, respond.
                let e = self.ep.slot_or_insert(pkt.pair);
                let admitted = self.note_rx_demand(e, pkt.pair, frame.phi, ctx.now);
                let resp = frame.into_response(admitted);
                let route = self.reply_route(pkt.src, &pkt.route);
                let size = wire::probe_packet_bytes(resp.hops.len(), route.len()) as u32;
                ctx.send(Packet {
                    src: self.host,
                    dst: pkt.src,
                    pair: pkt.pair,
                    tenant: pkt.tenant,
                    size,
                    kind: PacketKind::Response(resp),
                    route,
                    hop: 0,
                    ecn: false,
                    max_util: 0.0,
                    sent_at: ctx.now,
                });
            }
            PacketKind::Response(frame) => self.handle_response(ctx, frame),
            PacketKind::Finish(mut echo) => {
                // Destination: echo the acknowledgements back.
                echo.forward = false;
                let route = self.reply_route(pkt.src, &pkt.route);
                ctx.send(Packet {
                    src: self.host,
                    dst: pkt.src,
                    pair: pkt.pair,
                    tenant: pkt.tenant,
                    size: pkt.size,
                    kind: PacketKind::FinishAck(echo),
                    route,
                    hop: 0,
                    ecn: false,
                    max_util: 0.0,
                    sent_at: ctx.now,
                });
            }
            PacketKind::FinishAck(frame) => {
                if let Some(s) = self.pairs.slot(pkt.pair) {
                    self.pairs.cold[s]
                        .pending_finish
                        .retain(|pf| !(frame.seq == pf.seq && frame.all_acked(pf.n_switch_hops)));
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut EdgeCtx, kind: u64) {
        if kind == TICK {
            self.tick(ctx);
        }
    }

    fn on_nic_idle(&mut self, ctx: &mut EdgeCtx) {
        self.pump(ctx);
    }

    fn on_inject(&mut self, ctx: &mut EdgeCtx, msg: Inject) {
        let Inject::App(msg) = msg;
        self.submit(ctx, msg);
    }

    fn on_restart(&mut self, ctx: &mut EdgeCtx) {
        // μFAB-E process restart: everything the SmartNIC program keeps in
        // its own memory — path candidates, telemetry, registrations,
        // receiver tokens, schedulers, route caches — is gone. The
        // transport endpoint survives (host memory: application queues and
        // inflight accounting), exactly the paper's split between the edge
        // *program* and the host stack it serves, and so do its slots
        // (only a released pair gives one back), so the endpoint slots
        // that re-activated pairs cache (and that `rx` is indexed by) are
        // the same ones as before. The retired list survives too.
        self.pairs.clear();
        self.rx.clear();
        self.rx_live.clear();
        self.wfq = WfqScheduler::new();
        self.routes_back.clear();
        self.reverse_cache.clear();
        self.keepalive_cursor = 0;
        self.stats.restarts += 1;
        // `self.enforce` is deliberately NOT cleared: enforcement tables
        // are control-plane-programmed NIC state, so a quarantine clamp
        // (or a tenant's misbehavior attribution) cannot be shed by
        // crashing the edge program.
        // Rebuild from probing: every pair that still has work re-enters
        // through the §3.4 bootstrap (fresh candidates, registering probe,
        // candidate probes), as a newly-started edge would.
        for pair in self.ep.sending_pairs() {
            if self.ep.has_backlog(pair) || self.ep.inflight(pair) > 0 {
                self.activate_pair(ctx, pair);
            }
        }
        self.pump(ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
