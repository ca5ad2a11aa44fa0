//! Benchmark-owned twins of the simulator cells.
//!
//! The `*_bench` hooks are opaque: one call in, one event count out. To
//! say which layer the time went to, a twin rebuilds the same cell from
//! the public pieces the hook is made of — topology, trace, admission
//! plan, `FabricSpec`, `Runner`, driver, fault plan — with a span around
//! each call, and (when tracing) every agent re-installed inside a
//! [`crate::timed`] adapter. A twin drops what cannot change the
//! simulation: the `FabricManager` replay, the qualification poll and
//! the table building. That a twin still *is* the hook's cell is checked
//! on every traced run and in the unit tests: events and determinism
//! digest must be equal.
//!
//! `timeline`, `churn_cfg` and `demand_for` are `pub(crate)` in
//! `experiments::scenarios::churn`; the copies below are pinned to them
//! by that equality.

use crate::spans::SpanLog;
use crate::timed::{Tally, TimedDriver, TimedEdge, TimedSwitch};
use baselines::edge::{BaselineCfg, BaselineEdge};
use experiments::executor;
use experiments::harness::{Runner, SystemKind, SLICE};
use experiments::scenarios::common::det_shuffle;
use experiments::scenarios::fig17::build_topo;
use netsim::packet::ArenaStats;
use netsim::sim::GlobalStats;
use netsim::{FaultKind, FaultPlan, NodeId, PairId, Time, MS, US};
use std::sync::Arc;
use topology::TestbedCfg;
use ufab::{CoreHwCfg, FabricSpec, UfabConfig, UfabCore, UfabEdge};
use workloads::churn::{gen_trace, ChurnCfg, ChurnDriver, DemandKind, PairDemand, TenantTraffic};
use workloads::dists::{kv_object_sizes, websearch_flow_sizes};
use workloads::driver::Driver;
use workloads::patterns::BulkDriver;

/// Which cell to rebuild.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Twin {
    /// `fig11::run_with_stats` in quick mode: three systems, one after
    /// the other, on the 8-server testbed.
    Fig11,
    /// `churn::bench_cell_at(seed, servers)` under `set_shards(shards)`;
    /// `enforce` arms the edge enforcement stage as `abuse::bench_cell`
    /// does (used for that cell's set-up replay only).
    Churn {
        servers: usize,
        shards: usize,
        enforce: bool,
    },
}

/// Span names, shared with the per-layer report.
pub const SPAN_CELL: &str = "experiments.cell";
pub const SPAN_TOPO: &str = "topology.build";
pub const SPAN_TRACE: &str = "workloads.gen_trace";
pub const SPAN_PLAN: &str = "fabric.plan";
pub const SPAN_ASSEMBLE: &str = "experiments.harness.assemble";
pub const SPAN_RUN: &str = "netsim.sim.run";
pub const SPAN_MERGE: &str = "metrics.recorder.merge";

pub struct TwinOut {
    pub events: u64,
    /// Determinism digest, empty where the hook keeps none (fig11).
    pub digest: String,
    pub stats: GlobalStats,
    pub arena: ArenaStats,
    /// Callback tallies of the runs under μFAB (with driver polls) and
    /// under the two baselines. All zero when not traced.
    pub ufab: Tally,
    pub baseline: Tally,
    /// Admission decisions the plan took (0 for fig11).
    pub decisions: u64,
    /// Threads `Runner::run` had: the shard workers.
    pub threads: usize,
    pub spans: SpanLog,
}

impl TwinOut {
    fn new() -> Self {
        Self {
            events: 0,
            digest: String::new(),
            stats: GlobalStats::default(),
            arena: ArenaStats {
                allocated: 0,
                recycled: 0,
                fresh: 0,
                free: 0,
            },
            ufab: Tally::default(),
            baseline: Tally::default(),
            decisions: 0,
            threads: 1,
            spans: SpanLog::new(),
        }
    }

    fn absorb_sim(&mut self, r: &Runner) {
        let s = r.sim.stats();
        self.events += s.events;
        self.stats.events += s.events;
        self.stats.drops += s.drops;
        self.stats.retx_pkts += s.retx_pkts;
        self.stats.ecn_marked += s.ecn_marked;
        let a = r.sim.arena_stats();
        self.arena.allocated += a.allocated;
        self.arena.recycled += a.recycled;
        self.arena.fresh += a.fresh;
        self.arena.free += a.free;
    }
}

/// Build and run the twin. With `traced`, agents and drivers are timed.
pub fn run(twin: Twin, seed: u64, traced: bool) -> TwinOut {
    let mut out = TwinOut::new();
    let mut log = SpanLog::new();
    log.span(SPAN_CELL, |log| match twin {
        Twin::Fig11 => {
            for system in SystemKind::headline() {
                let (mut r, mut driver, until) = fig11_setup(log, system, seed);
                let tally = traced.then(|| wrap_agents(&mut r, system, &UfabConfig::default()));
                run_steps(log, &mut r, &mut driver, &[until], tally.as_deref());
                log.span(SPAN_MERGE, |_| drop(r.merged_recorder()));
                out.absorb_sim(&r);
                if let Some(t) = tally {
                    let into = if system.is_ufab() {
                        &out.ufab
                    } else {
                        &out.baseline
                    };
                    t.iter().for_each(|t| into.absorb(t));
                }
            }
        }
        Twin::Churn { shards, .. } => {
            executor::set_shards(shards);
            out.threads = shards;
            let cell = churn_setup(log, twin, seed);
            let (mut r, mut driver) = (cell.runner, cell.driver);
            out.decisions = cell.decisions;
            let tally = traced.then(|| wrap_agents(&mut r, SystemKind::Ufab, &cell.ucfg));
            // The hook advances its control loop every STEP; each step
            // is one `Runner::run` call with its own start-up poll.
            let mut steps = Vec::new();
            let mut now = 0;
            while now < cell.horizon {
                now = (now + CHURN_STEP).min(cell.horizon);
                steps.push(now);
            }
            run_steps(log, &mut r, &mut driver, &steps, tally.as_deref());
            log.span(SPAN_MERGE, |_| drop(r.merged_recorder()));
            out.absorb_sim(&r);
            out.digest = r
                .sim
                .det_digest()
                .map(|d| format!("{d:016x}"))
                .unwrap_or_default();
            if let Some(t) = tally {
                t.iter().for_each(|t| out.ufab.absorb(t));
            }
        }
    });
    out.spans = log;
    out
}

/// The cell's set-up calls alone, in order — what `setup_s` replays.
pub fn setup_only(twin: Twin, seed: u64) {
    let mut log = SpanLog::new();
    match twin {
        Twin::Fig11 => {
            for system in SystemKind::headline() {
                drop(fig11_setup(&mut log, system, seed));
            }
        }
        Twin::Churn { shards, .. } => {
            executor::set_shards(shards);
            drop(churn_setup(&mut log, twin, seed).runner);
        }
    }
}

/// One `Runner::run` span per target time; driver polls tallied when
/// tracing (into LP 0's tally: polls run on the calling thread).
fn run_steps(
    log: &mut SpanLog,
    r: &mut Runner,
    driver: &mut dyn Driver,
    targets: &[Time],
    tally: Option<&[Arc<Tally>]>,
) {
    for &until in targets {
        log.span(SPAN_RUN, |_| match tally {
            Some(t) => {
                let mut timed = TimedDriver {
                    inner: driver,
                    tally: &t[0],
                };
                r.run(until, SLICE, &mut [&mut timed]);
            }
            None => r.run(until, SLICE, &mut [driver]),
        });
    }
}

/// Replace every agent `Runner::new` installed by an identical one
/// inside a timing adapter. One tally per logical process.
fn wrap_agents(r: &mut Runner, system: SystemKind, cfg: &UfabConfig) -> Vec<Arc<Tally>> {
    let tallies: Vec<Arc<Tally>> = (0..r.sim.n_lps())
        .map(|_| Arc::new(Tally::default()))
        .collect();
    let topo = Arc::clone(&r.topo);
    for &h in &topo.hosts {
        let lp = r.sim.owner_of(h) as usize;
        let rec = Arc::clone(&r.recs[lp]);
        let (topo, fabric) = (Arc::clone(&topo), Arc::clone(&r.fabric));
        let inner: Box<dyn netsim::EdgeAgent> = match system {
            SystemKind::Ufab | SystemKind::UfabPrime => {
                Box::new(UfabEdge::new(cfg.clone(), topo, fabric, rec, h))
            }
            SystemKind::Pwc | SystemKind::EsClove => {
                let bcfg = if system == SystemKind::Pwc {
                    BaselineCfg::pwc()
                } else {
                    BaselineCfg::es_clove()
                };
                let nic = topo.neighbors(h)[0].cap_bps;
                Box::new(BaselineEdge::new(bcfg, topo, fabric, rec, h, nic))
            }
        };
        r.sim
            .set_edge_agent(h, Box::new(TimedEdge::new(inner, Arc::clone(&tallies[lp]))));
    }
    if system.is_ufab() {
        for &s in topo.tors.iter().chain(&topo.aggs).chain(&topo.cores) {
            let lp = r.sim.owner_of(s) as usize;
            let inner = Box::new(UfabCore::with_hw(CoreHwCfg::from(cfg)));
            r.sim.set_switch_agent(
                s,
                Box::new(TimedSwitch::new(inner, Arc::clone(&tallies[lp]))),
            );
        }
    }
    tallies
}

// ---------------------------------------------------------------- fig11

/// `fig11::setup` + the runner of `fig11::run_system`, quick mode.
fn fig11_setup(log: &mut SpanLog, system: SystemKind, seed: u64) -> (Runner, BulkDriver, Time) {
    let stagger = 5 * MS;
    let topo = log.span(SPAN_TOPO, |_| topology::testbed(TestbedCfg::default()));
    log.span(SPAN_ASSEMBLE, |_| {
        let mut fabric = FabricSpec::new(500e6);
        let classes = [(1u64, 2.0), (2, 4.0), (5, 10.0)];
        let mut joins = Vec::new();
        for hi in 0..4 {
            for &(gbps, tokens) in &classes {
                let t = fabric.add_tenant(&format!("{gbps}G-h{hi}"), tokens);
                let src = topo.hosts[hi];
                let v0 = fabric.add_vm(t, src);
                let v1 = fabric.add_vm(t, topo.hosts[4 + hi]);
                joins.push((src, fabric.add_pair(v0, v1)));
            }
        }
        det_shuffle(&mut joins, seed);
        let jobs: Vec<(Time, NodeId, PairId, u64, u32)> = joins
            .into_iter()
            .enumerate()
            .map(|(k, (src, pair))| (MS + k as Time * stagger, src, pair, 8_000_000_000, 0))
            .collect();
        let until = jobs.last().expect("twelve VFs").0 + 12 * stagger;
        let mut r = Runner::new(topo, fabric, system, seed, None, MS);
        r.watch_all_switch_queues();
        (r, BulkDriver::new(jobs, 0), until)
    })
}

// ---------------------------------------------------------------- churn

/// `churn::STEP`.
const CHURN_STEP: Time = 250 * US;

struct ChurnCell {
    runner: Runner,
    driver: ChurnDriver,
    horizon: Time,
    decisions: u64,
    ucfg: UfabConfig,
}

/// `churn::demand_for`.
fn demand_for(kind: DemandKind, guar_bps: f64) -> PairDemand {
    match kind {
        DemandKind::Bulk => PairDemand::Steady { bps: guar_bps },
        DemandKind::Whale => PairDemand::Steady {
            bps: guar_bps.min(1.5e9),
        },
        DemandKind::WebFlows => {
            let sizes = websearch_flow_sizes();
            let rate = (0.3 * guar_bps / (sizes.mean() * 8.0)).max(1.0);
            PairDemand::Flows {
                mean_gap_ns: 1e9 / rate,
                sizes,
            }
        }
        DemandKind::KvFlows => PairDemand::Flows {
            mean_gap_ns: 500_000.0,
            sizes: kv_object_sizes(),
        },
        DemandKind::Overclaim => unreachable!("overclaim tenants are never admitted"),
    }
}

/// Steps 1–3 of `churn::run_cell` (quick timeline, first-fit) up to the
/// run loop, without the `FabricManager`.
fn churn_setup(log: &mut SpanLog, twin: Twin, seed: u64) -> ChurnCell {
    let Twin::Churn {
        servers, enforce, ..
    } = twin
    else {
        unreachable!("churn_setup on {twin:?}");
    };
    // `churn::timeline(true)`.
    let first_arrival = 2 * MS;
    let last_arrival = first_arrival + 68 * MS;
    let fault_at = first_arrival + 34 * MS;
    let horizon = last_arrival + 20 * MS + MS + 4 * MS;

    let topo = log.span(SPAN_TOPO, |_| {
        let mut topo = build_topo(servers, false);
        topo.enable_pod_partition();
        topo
    });
    let trace = log.span(SPAN_TRACE, |_| {
        // `churn::churn_cfg`.
        gen_trace(&ChurnCfg {
            seed,
            arrivals_per_sec: 22_000.0 * topo.hosts.len() as f64 / 512.0,
            first_arrival,
            last_arrival,
            mean_lifetime_ns: 5e6,
            sigma_lifetime: 0.8,
            min_lifetime: 600 * US,
            max_lifetime: 20 * MS,
        })
    });
    let acfg = fabric::AdmissionCfg::default();
    let plan = log.span(SPAN_PLAN, |_| {
        let reqs: Vec<fabric::TenantReq> = trace
            .iter()
            .enumerate()
            .map(|(i, a)| fabric::TenantReq {
                name: format!("churn-{i}"),
                n_vms: a.n_vms,
                tokens_per_vm: a.tokens_per_vm,
                arrival: a.arrival,
                lifetime: a.lifetime,
            })
            .collect();
        fabric::plan(&topo, &acfg, &reqs)
    });
    let decisions = (plan.admitted.len() + plan.rejected.len()) as u64;
    log.span(SPAN_ASSEMBLE, |_| {
        let mut spec = FabricSpec::new(acfg.bu_bps);
        let mut programs = Vec::with_capacity(plan.admitted.len());
        for p in &plan.admitted {
            let tid = spec.add_tenant(&p.name, p.tokens_per_vm);
            let vms: Vec<_> = p.hosts.iter().map(|&h| spec.add_vm(tid, h)).collect();
            let guar = p.tokens_per_vm * acfg.bu_bps;
            let pairs = (0..vms.len())
                .map(|i| {
                    let pair = spec.add_pair(vms[i], vms[(i + 1) % vms.len()]);
                    (p.hosts[i], pair, demand_for(trace[p.req].kind, guar))
                })
                .collect();
            programs.push(TenantTraffic {
                tag: tid.raw(),
                start: p.decision,
                stop: p.depart,
                pairs,
            });
        }
        let mut faults = FaultPlan::new(seed);
        faults.push(FaultKind::SwitchFail {
            node: topo.cores[0],
            at: fault_at,
            recover_at: Some(fault_at + 5 * MS),
        });
        let ucfg = UfabConfig {
            core_cleanup_period: 5 * MS,
            enforce,
            ..UfabConfig::default()
        };
        let mut runner = Runner::new(topo, spec, SystemKind::Ufab, seed, Some(ucfg.clone()), MS);
        runner.sim.enable_det_hash();
        runner.sim.apply_chaos(&faults);
        ChurnCell {
            runner,
            driver: ChurnDriver::new(programs, seed ^ 0x5eed, 0),
            horizon,
            decisions,
            ucfg,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use experiments::scenarios::common::Scale;
    use experiments::scenarios::{churn, fig11};

    const CHURN_64: Twin = Twin::Churn {
        servers: 64,
        shards: 1,
        enforce: false,
    };

    /// The twin is the hook's cell: same events, same digest — plain,
    /// traced and sharded — on the reference seed and the held-back one.
    #[test]
    fn churn_twin_reproduces_the_hook() {
        for seed in [1, 7] {
            executor::set_shards(1);
            let (events, digest, violations) = churn::bench_cell_checked(seed, 64);
            assert_eq!(violations, 0);
            let plain = run(CHURN_64, seed, false);
            assert_eq!((plain.events, plain.digest.as_str()), (events, &*digest));
            assert_eq!(plain.ufab.all_seconds(), 0.0);
            let traced = run(CHURN_64, seed, true);
            assert_eq!((traced.events, traced.digest.as_str()), (events, &*digest));
            assert!(traced.ufab.edge_calls() > 100_000);
            assert!(traced.decisions > 100);
        }
        let sharded = run(
            Twin::Churn {
                servers: 64,
                shards: 2,
                enforce: false,
            },
            1,
            true,
        );
        executor::set_shards(1);
        let serial = run(CHURN_64, 1, false);
        assert_eq!(sharded.events, serial.events);
        assert_eq!(sharded.digest, serial.digest);
    }

    #[test]
    fn fig11_twin_reproduces_the_hook() {
        crate::cell::enter_scratch();
        executor::set_jobs(1);
        let scale = Scale {
            seed: 3,
            ..Scale::default()
        };
        let (_, events) = fig11::run_with_stats(scale);
        let traced = run(Twin::Fig11, 3, true);
        assert_eq!(traced.events, events);
        assert!(traced.baseline.edge_calls() > 0);
        assert!(traced.ufab.calls(crate::timed::Cb::SwitchEgress) > 0);
        assert_eq!(traced.baseline.calls(crate::timed::Cb::SwitchEgress), 0);
        assert!(traced.spans.total_s(SPAN_RUN) > 0.0);
    }

    #[test]
    fn setup_replay_runs_for_every_twin() {
        setup_only(Twin::Fig11, 1);
        setup_only(
            Twin::Churn {
                servers: 64,
                shards: 1,
                enforce: true,
            },
            1,
        );
    }
}
