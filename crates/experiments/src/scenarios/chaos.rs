//! `repro chaos` — the failure-recovery resilience harness.
//!
//! Not a paper figure: a chaos-engineering suite over the testbed that
//! injects seed-deterministic faults (`netsim::chaos`) into a steady
//! N-to-1 μFAB workload and measures recovery-time SLOs:
//!
//! * **requal_ms** — time from the end of the fault window until every
//!   VF is back above 85 % of its guarantee (time-to-requalification);
//! * **viol_ms** — guarantee-violation milliseconds summed over VFs
//!   across the whole run (bins below 85 % of the guarantee after the
//!   pair's join grace);
//! * **wedged** — pairs that still have work but made zero ack-level
//!   progress over the final grace window (must always be 0: faults may
//!   pause a pair, never wedge it);
//! * **digest** — the determinism digest; byte-identical for a given
//!   `--seed` at any `--jobs N`.
//!
//! With `--check-invariants` the *fault-aware* invariant suite
//! ([`crate::harness::Runner::enable_chaos_invariants`]) runs during the
//! faults: register conservation through switch wipes, stale-registration
//! reclamation by the §4.2 sweep (the cleanup period is shortened so the
//! sweep is observable in-window), and the wedged-pair watchdog.

use super::common::{emit, simulate, Scale, Sim};
use crate::executor::{run_jobs, Job};
use crate::harness::{SystemKind, SLICE};
use metrics::table::Table;
use netsim::{FaultKind, FaultPlan, NodeId, PairId, PortNo, Time, MS};
use topology::TestbedCfg;
use ufab::{FabricSpec, UfabConfig, UfabEdge};
use workloads::patterns::BulkDriver;

/// Every preset `--plan` accepts (besides `all`, which runs the lot).
pub const PRESETS: &[&str] = &[
    "linkdown",
    "flap",
    "degrade",
    "burstloss",
    "ctrl",
    "intcorrupt",
    "switch",
    "restart",
    "mix",
];

/// Shared timeline (quick mode; full mode scales ×3): steady state by
/// `FAULT_FROM`, faults act inside `[FAULT_FROM, FAULT_UNTIL)`, recovery
/// is measured from `FAULT_UNTIL` to the horizon.
const FAULT_FROM: Time = 10 * MS;
const FAULT_UNTIL: Time = 20 * MS;

fn horizon(quick: bool) -> Time {
    if quick {
        40 * MS
    } else {
        120 * MS
    }
}

/// Build the fault plan for one preset. All faults are expressed against
/// the testbed topology: `core1` is the switch the cached shortest paths
/// cross, `tor0` the first rack's ToR, sources/destination as built by
/// [`setup`].
fn plan_for(
    preset: &str,
    seed: u64,
    scale_t: Time,
    core1: NodeId,
    n_core_ports: usize,
    srcs: &[NodeId],
    dst: NodeId,
) -> FaultPlan {
    let from = FAULT_FROM * scale_t;
    let until = FAULT_UNTIL * scale_t;
    let mut plan = FaultPlan::new(seed);
    match preset {
        "linkdown" => {
            // One core uplink goes dark for the whole window, then heals.
            plan.push(FaultKind::LinkDown {
                node: core1,
                port: PortNo(0),
                at: from,
                restore_at: Some(until),
            });
        }
        "flap" => {
            plan.push(FaultKind::LinkFlap {
                node: core1,
                port: PortNo(0),
                from,
                until,
                down_for: MS * scale_t,
                up_for: 2 * MS * scale_t,
            });
        }
        "degrade" => {
            // Brown-out: one core port at 20 % capacity, 4× latency.
            plan.push(FaultKind::Degrade {
                node: core1,
                port: PortNo(0),
                from,
                until,
                cap_factor: 0.2,
                prop_factor: 4.0,
            });
        }
        "burstloss" => {
            for p in 0..n_core_ports {
                plan.push(FaultKind::BurstLoss {
                    node: core1,
                    port: PortNo(p as u16),
                    from,
                    until,
                    p_enter: 0.02,
                    p_exit: 0.25,
                    loss_good: 0.0,
                    loss_bad: 0.3,
                });
            }
        }
        "ctrl" => {
            // The receiver's NIC drops half its control plane — probe
            // responses, ACKs, finish-acks — while data flows untouched.
            plan.push(FaultKind::CtrlLoss {
                node: dst,
                port: PortNo(0),
                from,
                until,
                prob: 0.5,
            });
        }
        "intcorrupt" => {
            plan.push(FaultKind::IntCorrupt {
                node: core1,
                from,
                until,
                prob: 0.2,
            });
        }
        "switch" => {
            plan.push(FaultKind::SwitchFail {
                node: core1,
                at: from,
                recover_at: Some(until),
            });
        }
        "restart" => {
            for (i, &s) in srcs.iter().enumerate() {
                plan.push(FaultKind::EdgeRestart {
                    node: s,
                    at: from + i as Time * MS * scale_t,
                });
            }
        }
        "mix" => {
            // Compound failure: the switch reboots mid-window while the
            // receiver loses control packets, a core port burst-drops,
            // and one source edge restarts during recovery.
            plan.push(FaultKind::SwitchFail {
                node: core1,
                at: from,
                recover_at: Some(from + 4 * MS * scale_t),
            });
            plan.push(FaultKind::CtrlLoss {
                node: dst,
                port: PortNo(0),
                from,
                until,
                prob: 0.25,
            });
            plan.push(FaultKind::BurstLoss {
                node: core1,
                port: PortNo((1 % n_core_ports) as u16),
                from,
                until,
                p_enter: 0.02,
                p_exit: 0.25,
                loss_good: 0.0,
                loss_bad: 0.25,
            });
            plan.push(FaultKind::EdgeRestart {
                node: srcs[0],
                at: from + 6 * MS * scale_t,
            });
        }
        // Internal assert: `run` hands this function names out of
        // `PRESETS` only.
        other => panic!("unknown chaos preset '{other}' (known: {PRESETS:?} or 'all')"),
    }
    plan
}

/// One preset run: returns the SLO row + the observability epilogue.
fn run_preset(preset: &str, scale: Scale) -> ([String; 6], String) {
    let quick = scale.quick;
    let scale_t: Time = if quick { 1 } else { 3 };
    let until = horizon(quick);
    let fault_until = FAULT_UNTIL * scale_t;

    // 4 VFs, one per source host, all into the last host. Guarantees are
    // feasible (4 × 0.5 G = 2 G into a 10 G NIC) so "re-qualified" is a
    // well-defined target even under degraded capacity.
    let topo = topology::testbed(TestbedCfg::default());
    let dst = *topo.hosts.last().expect("testbed has hosts");
    let srcs: Vec<NodeId> = topo
        .hosts
        .iter()
        .copied()
        .filter(|&h| h != dst)
        .take(4)
        .collect();
    let mut fabric = FabricSpec::new(500e6);
    let pairs: Vec<PairId> = srcs
        .iter()
        .map(|&src| fabric.add_vf(1.0, src, dst))
        .collect();
    let guar_bps = 1.0 * 500e6; // tokens × B_u

    // Shortened cleanup period: orphaned registrations (switch wipe, edge
    // restart) must be swept back inside the run so the
    // stale-registration invariant exercises reclamation, not absence.
    let ucfg = UfabConfig {
        core_cleanup_period: 5 * MS,
        ..UfabConfig::default()
    };
    let core1 = topo.cores[0];
    let n_core_ports = topo.neighbors(core1).len();
    let plan = plan_for(preset, scale.seed, scale_t, core1, n_core_ports, &srcs, dst);

    // Stall bound: longest injected outage (the fault window) plus the
    // capped RTO backoff; anything slower is a real wedge.
    let sim = Sim {
        label: format!("chaos:{preset}"),
        ufab: Some(ucfg),
        faults: Some((5 * MS, fault_until + 15 * MS)),
        ..Sim::of(SystemKind::Ufab)
    };

    // Enough bytes that no pair finishes inside the horizon: every pair
    // has work throughout, so wedged-pair detection is meaningful.
    let jobs: Vec<(Time, NodeId, PairId, u64, u32)> = srcs
        .iter()
        .zip(&pairs)
        .map(|(&s, &p)| (MS, s, p, 100_000_000_000, 0))
        .collect();
    let mut driver = BulkDriver::new(jobs, 0);

    // Two-phase run: snapshot cumulative acked bytes one grace window
    // before the horizon, then compare at the end. A pair with work whose
    // counter did not move across the grace window is wedged — the
    // counter only advances on *delivered* bytes, so spinning RTOs into a
    // black hole do not mask the wedge.
    let grace = 8 * MS * scale_t;
    let mut wedged = 0;
    let (r, epilogue) = simulate(&scale, topo, fabric, sim, |r| {
        // The table's digest column needs the digest, traced or not.
        r.sim.enable_det_hash();
        r.sim.apply_chaos(&plan);
        r.run(until - grace, SLICE, &mut [&mut driver]);
        let snap: Vec<u64> = srcs
            .iter()
            .zip(&pairs)
            .map(|(&s, &p)| {
                r.sim
                    .try_edge::<UfabEdge>(s)
                    .map(|e| e.ep.acked_bytes(p))
                    .unwrap_or(0)
            })
            .collect();
        r.run(until, SLICE, &mut [&mut driver]);
        wedged = srcs
            .iter()
            .zip(&pairs)
            .zip(&snap)
            .filter(|((&s, &p), &before)| {
                let Some(e) = r.sim.try_edge::<UfabEdge>(s) else {
                    return false;
                };
                let has_work = e.ep.has_backlog(p) || e.ep.inflight(p) > 0;
                has_work && e.ep.acked_bytes(p) == before
            })
            .count();
    });

    // SLOs from the recorder's 1 ms rate bins.
    let rec = r.rec.lock().unwrap();
    let rate = |p: PairId, b: usize| rec.pair_rates.rate_at(&p.raw(), b);
    let join_grace_bin = 4; // joins at 1 ms + bootstrap
    let n_bins = (until / MS) as usize;
    let mut viol_ms = 0u64;
    for b in join_grace_bin..n_bins {
        for &p in &pairs {
            if rate(p, b) < 0.85 * guar_bps {
                viol_ms += 1;
            }
        }
    }
    let recover_bin = (fault_until / MS) as usize;
    let requal_ms: Option<u64> = (recover_bin..n_bins)
        .find(|&b| pairs.iter().all(|&p| rate(p, b) >= 0.85 * guar_bps))
        .map(|b| (b - recover_bin) as u64);
    drop(rec);

    let cstats = r.sim.chaos_stats();
    let digest = r
        .sim
        .det_digest()
        .map(|d| format!("{d:016x}"))
        .unwrap_or_default();
    (
        [
            preset.to_string(),
            requal_ms.map(|m| m.to_string()).unwrap_or("-".into()),
            viol_ms.to_string(),
            wedged.to_string(),
            format!(
                "{}b+{}c+{}i+{}w+{}r",
                cstats.burst_drops,
                cstats.ctrl_drops,
                cstats.int_corruptions,
                cstats.switch_wipes,
                cstats.edge_restarts
            ),
            digest,
        ],
        epilogue,
    )
}

/// Run one preset (or `all`) and emit the SLO table.
pub fn run(scale: Scale, plan: &str) -> Table {
    let presets: Vec<&str> = if plan == "all" {
        PRESETS.to_vec()
    } else {
        // Internal assert: `repro`'s `--plan` arm checks the name against
        // `PRESETS` + `all` and exits 2 before a scenario runs.
        assert!(
            PRESETS.contains(&plan),
            "unknown chaos preset '{plan}' (known: {PRESETS:?} or 'all')"
        );
        vec![plan]
    };
    let cells: Vec<Job<([String; 6], String)>> = presets
        .iter()
        .map(|&p| {
            let preset = p.to_string();
            Job::new(format!("chaos:{p}"), move || run_preset(&preset, scale))
        })
        .collect();
    let mut table = Table::new([
        "preset",
        "requal_ms",
        "viol_ms",
        "wedged",
        "chaos_events",
        "digest",
    ]);
    let mut wedged_total = 0u64;
    for (row, epilogue) in run_jobs(cells) {
        wedged_total += row[3].parse::<u64>().unwrap_or(0);
        table.row(row);
        if !epilogue.is_empty() {
            print!("{epilogue}");
        }
    }
    emit(
        "chaos_resilience",
        "Chaos: recovery SLOs per preset",
        &table,
    );
    assert_eq!(
        wedged_total, 0,
        "chaos SLO violated: {wedged_total} wedged pair(s) — a fault may \
         pause a pair, never wedge it"
    );
    table
}
