//! The tenant-churn workload model: Poisson arrivals, lognormal
//! lifetimes, and a paper-CDF demand mix.
//!
//! [`gen_trace`] produces the request trace the fabric manager plans
//! over (arrival time, VM count, hose tokens, lifetime, demand kind);
//! [`ChurnDriver`] then emits each *admitted* tenant's traffic during
//! its lifetime — steady paced streams for bulk/whale tenants, Poisson
//! flows with empirical sizes for web-search and key-value tenants.

use crate::dists::{exp_interarrival, lognormal, lognormal_mu_for_mean, Empirical};
use crate::driver::{Driver, FlowIds, WorkloadPort};
use metrics::recorder::Completion;
use netsim::{NodeId, PairId, Time};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use ufab::endpoint::AppMsg;

/// Churn-trace generator configuration.
#[derive(Debug, Clone)]
pub struct ChurnCfg {
    /// RNG seed: the whole trace is a pure function of the config.
    pub seed: u64,
    /// Tenant arrival rate (Poisson, tenants/sec).
    pub arrivals_per_sec: f64,
    /// First arrival instant (ns).
    pub first_arrival: Time,
    /// No arrivals after this instant (ns).
    pub last_arrival: Time,
    /// Mean tenant lifetime (ns) of the lognormal.
    pub mean_lifetime_ns: f64,
    /// Lognormal shape σ of the lifetime distribution.
    pub sigma_lifetime: f64,
    /// Lifetimes are clamped below this (ns).
    pub min_lifetime: Time,
    /// Lifetimes are clamped above this (ns).
    pub max_lifetime: Time,
}

/// The tenant demand classes of the churn mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DemandKind {
    /// Steady bulk stream at the hose guarantee (the predictability
    /// probe: its achieved rate is checked against B_min).
    Bulk,
    /// Poisson web-search flows (heavy-tailed sizes).
    WebFlows,
    /// Poisson key-value lookups (small objects, high rate).
    KvFlows,
    /// Few VMs with a very large hose — stresses the fabric tier.
    Whale,
    /// Hose larger than any access link admits — must be rejected.
    Overclaim,
}

/// One tenant arrival in the generated trace.
#[derive(Debug, Clone)]
pub struct TenantArrival {
    /// Arrival instant (ns), non-decreasing across the trace.
    pub arrival: Time,
    /// VMs requested.
    pub n_vms: usize,
    /// Hose tokens per VM (B_min = tokens × B_u).
    pub tokens_per_vm: f64,
    /// Lifetime from the admission decision (ns).
    pub lifetime: Time,
    /// Demand class.
    pub kind: DemandKind,
}

/// Generate the churn trace: Poisson arrivals between `first_arrival`
/// and `last_arrival`, lognormal lifetimes, and the demand mix
/// (2 % overclaim, 8 % whale, 45 % bulk, 25 % web, 20 % kv).
pub fn gen_trace(cfg: &ChurnCfg) -> Vec<TenantArrival> {
    assert!(cfg.arrivals_per_sec > 0.0);
    assert!(cfg.first_arrival <= cfg.last_arrival);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mean_gap = 1e9 / cfg.arrivals_per_sec;
    let mu = lognormal_mu_for_mean(cfg.mean_lifetime_ns, cfg.sigma_lifetime);
    let mut out = Vec::new();
    let mut t = cfg.first_arrival;
    while t <= cfg.last_arrival {
        let life = lognormal(&mut rng, mu, cfg.sigma_lifetime) as Time;
        let lifetime = life.clamp(cfg.min_lifetime, cfg.max_lifetime);
        let u: f64 = rng.gen();
        let (kind, n_vms, tokens_per_vm) = if u < 0.02 {
            // 224 tokens × 500 Mbps = 112 Gbps hose > any access link.
            (DemandKind::Overclaim, 1 + rng.gen_range(0..2usize), 224.0)
        } else if u < 0.10 {
            // 96 tokens = 48 Gbps: admissible on the access link but a
            // heavy bite out of the shared fabric tier.
            (DemandKind::Whale, 2 + rng.gen_range(0..3usize), 96.0)
        } else if u < 0.55 {
            (
                DemandKind::Bulk,
                2 + rng.gen_range(0..5usize),
                rng.gen_range(2..=8u32) as f64,
            )
        } else if u < 0.80 {
            (
                DemandKind::WebFlows,
                2 + rng.gen_range(0..5usize),
                rng.gen_range(2..=8u32) as f64,
            )
        } else {
            (
                DemandKind::KvFlows,
                2 + rng.gen_range(0..7usize),
                rng.gen_range(1..=4u32) as f64,
            )
        };
        out.push(TenantArrival {
            arrival: t,
            n_vms,
            tokens_per_vm,
            lifetime,
            kind,
        });
        t += exp_interarrival(&mut rng, mean_gap);
    }
    out
}

/// How one fabric pair of an active tenant generates demand.
#[derive(Debug, Clone)]
pub enum PairDemand {
    /// Paced stream targeting `bps` (chunked top-up).
    Steady {
        /// Target rate (bits/sec).
        bps: f64,
    },
    /// Poisson flows with empirical sizes.
    Flows {
        /// Mean inter-arrival gap (ns).
        mean_gap_ns: f64,
        /// Flow-size distribution.
        sizes: Empirical,
    },
}

/// One admitted tenant's traffic program.
#[derive(Debug, Clone)]
pub struct TenantTraffic {
    /// Completion tag (the fabric tenant id) stamped on every message.
    pub tag: u32,
    /// Traffic begins here (the admission decision instant).
    pub start: Time,
    /// Traffic stops (and backlogs are cleared) here.
    pub stop: Time,
    /// The tenant's sending pairs: (source host, pair, demand).
    pub pairs: Vec<(NodeId, PairId, PairDemand)>,
}

struct ActivePair {
    host: NodeId,
    pair: PairId,
    demand: PairDemand,
    tag: u32,
    stop: Time,
    /// Next paced-chunk or flow-arrival instant.
    next_emit: Time,
}

/// Drives the traffic of every admitted tenant through its lifetime:
/// activates programs at `start`, clears their backlog at `stop`.
pub struct ChurnDriver {
    programs: Vec<TenantTraffic>,
    next_program: usize,
    active: Vec<ActivePair>,
    flows: FlowIds,
    rng: SmallRng,
    /// Steady pairs are re-topped-up at this period (ns).
    topup_period: Time,
    /// Flows injected so far (all tenants).
    pub flows_injected: u64,
}

impl ChurnDriver {
    /// Build from per-tenant programs (sorted internally by start time).
    pub fn new(mut programs: Vec<TenantTraffic>, seed: u64, flow_base: u64) -> Self {
        programs.sort_by_key(|p| p.start);
        Self {
            programs,
            next_program: 0,
            active: Vec::new(),
            flows: FlowIds::new(flow_base),
            rng: SmallRng::seed_from_u64(seed),
            topup_period: 250_000,
            flows_injected: 0,
        }
    }

    /// Move the demand of the started pair `old` to `new`, sent from
    /// `host`: the pair that replaces it once its VM moved host.
    pub fn repoint(&mut self, old: PairId, host: NodeId, new: PairId) {
        for a in self.active.iter_mut().filter(|a| a.pair == old) {
            (a.host, a.pair) = (host, new);
        }
    }

    fn steady_chunk(bps: f64, period: Time) -> u64 {
        ((bps * period as f64 / 8e9) as u64).max(16_384)
    }
}

impl Driver for ChurnDriver {
    fn poll(&mut self, port: &mut dyn WorkloadPort, _completions: &[Completion]) {
        let now = port.now();
        // Retire tenants whose lifetime ended: withdraw their demand.
        let mut i = 0;
        while i < self.active.len() {
            if self.active[i].stop <= now {
                let a = self.active.swap_remove(i);
                port.clear_backlog(a.host, a.pair);
            } else {
                i += 1;
            }
        }
        // Activate tenants whose admission decision has fired.
        while self.next_program < self.programs.len()
            && self.programs[self.next_program].start <= now
        {
            let p = &self.programs[self.next_program];
            self.next_program += 1;
            if p.stop <= now {
                continue; // lifetime already over (coarse poll)
            }
            for (host, pair, demand) in &p.pairs {
                self.active.push(ActivePair {
                    host: *host,
                    pair: *pair,
                    demand: demand.clone(),
                    tag: p.tag,
                    stop: p.stop,
                    next_emit: p.start,
                });
            }
        }
        // Emit demand for every active pair.
        for a in &mut self.active {
            match &a.demand {
                PairDemand::Steady { bps } => {
                    if a.next_emit > now {
                        continue;
                    }
                    // One period's worth of bytes per period caps the
                    // offered rate at the target; the half-chunk floor
                    // keeps a small cushion against pacing jitter.
                    let chunk = Self::steady_chunk(*bps, self.topup_period);
                    if port.backlog(a.host, a.pair) < chunk / 2 {
                        let flow = self.flows.next();
                        port.inject(a.host, AppMsg::oneway(flow, a.pair, chunk, a.tag));
                        self.flows_injected += 1;
                    }
                    a.next_emit = now + self.topup_period;
                }
                PairDemand::Flows { mean_gap_ns, sizes } => {
                    while a.next_emit <= now {
                        let size = sizes.sample(&mut self.rng).max(64.0) as u64;
                        let flow = self.flows.next();
                        port.inject(a.host, AppMsg::oneway(flow, a.pair, size, a.tag));
                        self.flows_injected += 1;
                        a.next_emit += exp_interarrival(&mut self.rng, *mean_gap_ns);
                    }
                }
            }
        }
    }

    fn next_wake(&self) -> Time {
        let mut wake = self
            .programs
            .get(self.next_program)
            .map(|p| p.start)
            .unwrap_or(Time::MAX);
        for a in &self.active {
            wake = wake.min(a.stop).min(a.next_emit);
        }
        wake
    }

    fn done(&self) -> bool {
        self.next_program >= self.programs.len() && self.active.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dists::kv_object_sizes;
    use crate::driver::MockPort;
    use netsim::{MS, US};

    fn cfg() -> ChurnCfg {
        ChurnCfg {
            seed: 1,
            arrivals_per_sec: 10_000.0,
            first_arrival: MS,
            last_arrival: 50 * MS,
            mean_lifetime_ns: 5e6,
            sigma_lifetime: 0.8,
            min_lifetime: 600 * US,
            max_lifetime: 20 * MS,
        }
    }

    #[test]
    fn trace_is_deterministic_and_sorted() {
        let a = gen_trace(&cfg());
        let b = gen_trace(&cfg());
        assert_eq!(a.len(), b.len());
        assert!(a.len() > 300, "expected ~500 arrivals, got {}", a.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrival, y.arrival);
            assert_eq!(x.n_vms, y.n_vms);
            assert_eq!(x.kind, y.kind);
        }
        for w in a.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
    }

    #[test]
    fn trace_mix_and_lifetimes_match_the_model() {
        let tr = gen_trace(&cfg());
        let n = tr.len() as f64;
        let count = |k: DemandKind| tr.iter().filter(|t| t.kind == k).count() as f64 / n;
        assert!((count(DemandKind::Bulk) - 0.45).abs() < 0.08);
        assert!((count(DemandKind::WebFlows) - 0.25).abs() < 0.08);
        assert!((count(DemandKind::KvFlows) - 0.20).abs() < 0.08);
        assert!(count(DemandKind::Overclaim) > 0.0);
        assert!(count(DemandKind::Whale) > 0.02);
        for t in &tr {
            assert!((600 * US..=20 * MS).contains(&t.lifetime));
            if t.kind == DemandKind::Overclaim {
                assert!(t.tokens_per_vm * 500e6 > 100e9);
            }
        }
    }

    #[test]
    fn driver_respects_start_and_stop() {
        let h = NodeId(1);
        let p = PairId(7);
        let programs = vec![TenantTraffic {
            tag: 3,
            start: 10 * US,
            stop: 40 * US,
            pairs: vec![(h, p, PairDemand::Steady { bps: 1e9 })],
        }];
        let mut d = ChurnDriver::new(programs, 1, 0);
        let mut port = MockPort::default();

        port.now = 0;
        d.poll(&mut port, &[]);
        assert!(port.injected.is_empty(), "no traffic before start");
        assert_eq!(d.next_wake(), 10 * US);

        port.now = 10 * US;
        d.poll(&mut port, &[]);
        assert_eq!(port.injected.len(), 1);
        assert_eq!(port.injected[0].1.tag, 3);
        assert!(!d.done());

        port.now = 50 * US;
        d.poll(&mut port, &[]);
        assert_eq!(port.cleared, vec![(h, p)], "backlog cleared at stop");
        assert!(d.done());
    }

    #[test]
    fn flow_pairs_emit_poisson_flows() {
        let h = NodeId(2);
        let p = PairId(9);
        let programs = vec![TenantTraffic {
            tag: 1,
            start: 0,
            stop: 10 * MS,
            pairs: vec![(
                h,
                p,
                PairDemand::Flows {
                    mean_gap_ns: 100_000.0,
                    sizes: kv_object_sizes(),
                },
            )],
        }];
        let mut d = ChurnDriver::new(programs, 2, 0);
        let mut port = MockPort::default();
        port.now = 5 * MS;
        d.poll(&mut port, &[]);
        // ~5 ms / 100 µs ≈ 50 flows.
        assert!(
            (20..=100).contains(&port.injected.len()),
            "{} flows",
            port.injected.len()
        );
        assert!(port.injected.iter().all(|(_, m)| m.size >= 64));
    }

    #[test]
    fn steady_pairs_top_up_only_when_drained() {
        let h = NodeId(3);
        let p = PairId(4);
        let programs = vec![TenantTraffic {
            tag: 2,
            start: 0,
            stop: 10 * MS,
            pairs: vec![(h, p, PairDemand::Steady { bps: 8e9 })],
        }];
        let mut d = ChurnDriver::new(programs, 3, 0);
        let mut port = MockPort::default();
        port.now = 0;
        d.poll(&mut port, &[]);
        assert_eq!(port.injected.len(), 1);
        // Deep backlog scripted → no further injection at the next tick.
        port.backlogs.insert((h, p), 10_000_000);
        port.now = 300 * US;
        d.poll(&mut port, &[]);
        assert_eq!(port.injected.len(), 1, "backlog full, no top-up");
        port.backlogs.insert((h, p), 0);
        port.now = 600 * US;
        d.poll(&mut port, &[]);
        assert_eq!(port.injected.len(), 2, "drained pair topped up");
    }

    /// A repointed pair's demand goes on from the new host on the new
    /// pair, and it is the new pair whose backlog the stop clears.
    #[test]
    fn repointed_demand_moves_to_the_new_pair() {
        let (h, p, h2, q) = (NodeId(3), PairId(4), NodeId(5), PairId(6));
        let programs = vec![TenantTraffic {
            tag: 2,
            start: 0,
            stop: MS,
            pairs: vec![(h, p, PairDemand::Steady { bps: 8e9 })],
        }];
        let mut d = ChurnDriver::new(programs, 3, 0);
        let mut port = MockPort::default();
        d.poll(&mut port, &[]);
        d.repoint(p, h2, q);
        port.now = 300 * US;
        d.poll(&mut port, &[]);
        port.now = MS;
        d.poll(&mut port, &[]);
        let sent: Vec<_> = port.injected.iter().map(|(h, m)| (*h, m.pair)).collect();
        assert_eq!(sent, [(h, p), (h2, q)]);
        assert_eq!(port.cleared, [(h2, q)]);
    }
}
