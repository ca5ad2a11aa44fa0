//! Shared pieces of the scenario implementations.

use crate::harness::{Runner, SystemKind};
use baselines::edge::BaselineCfg;
use metrics::table::Table;
use netsim::{NodeId, PairId, Time, MS};
use topology::Topo;
use ufab::{FabricSpec, UfabConfig};
use workloads::patterns::BulkDriver;

/// Output directory for CSVs.
pub(crate) const RESULTS_DIR: &str = "results";

/// Write a table both to stdout and `results/<name>.csv`.
pub(crate) fn emit(name: &str, title: &str, table: &Table) {
    println!("\n=== {title} ===");
    print!("{}", table.render());
    let path = format!("{RESULTS_DIR}/{name}.csv");
    if let Err(e) = table.write_csv(&path) {
        eprintln!("warning: could not write {path}: {e}");
    } else {
        println!("[written {path}]");
    }
}

/// Experiment scale knobs shared by the CLI.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Random seed.
    pub seed: u64,
    /// Quick mode: smaller topologies / shorter runs.
    pub quick: bool,
    /// Override the server count for the large-scale runs (Fig 17/18/20).
    pub servers: Option<usize>,
    /// Flight-recorder capacity in events (`--trace`); `None` disables.
    pub trace: Option<usize>,
    /// Evaluate the online invariant suite (`--check-invariants`).
    pub check_invariants: bool,
}

impl Default for Scale {
    fn default() -> Self {
        Self {
            seed: 1,
            quick: true,
            servers: None,
            trace: None,
            check_invariants: false,
        }
    }
}

/// Total invariant violations observed across all runs of this process.
static VIOLATIONS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Invariant violations accumulated so far (for the repro exit footer).
pub fn total_violations() -> usize {
    VIOLATIONS.load(std::sync::atomic::Ordering::Relaxed)
}

/// Apply `--trace` and `--check-invariants` to a freshly built runner.
/// `faults` picks the suite ([`Runner::enable_invariants`]): `None` the
/// standard one, `Some((cleanup_period, stall))` the fault-aware one.
pub(crate) fn observe(scale: &Scale, r: &mut Runner, faults: Option<(Time, Time)>) {
    if let Some(cap) = scale.trace {
        r.enable_trace(cap);
    }
    if scale.check_invariants {
        r.enable_invariants(MS / 4, faults);
    }
}

/// How [`simulate`] builds a run: the system under test, the label of
/// its epilogue, and the knobs most figures leave at [`Sim::of`]'s.
pub(crate) struct Sim {
    pub(crate) system: SystemKind,
    pub(crate) label: String,
    pub(crate) ufab: Option<UfabConfig>,
    pub(crate) baseline: Option<BaselineCfg>,
    pub(crate) rate_bin: Time,
    /// The fault-aware suite's arguments ([`observe`]); figures keep `None`.
    pub(crate) faults: Option<(Time, Time)>,
}

impl Sim {
    /// `system` with its default config, labelled by its legend, at 1 ms
    /// rate bins and with the standard suite.
    pub(crate) fn of(system: SystemKind) -> Self {
        Self {
            system,
            label: system.label().to_string(),
            ufab: None,
            baseline: None,
            rate_bin: MS,
            faults: None,
        }
    }
}

/// The one path every simulated figure's run takes: build the runner on
/// `topo` and `fabric` as `sim` says, arm `--trace` and
/// `--check-invariants`, hand it to `drive` (which installs what the
/// figure watches or breaks, then advances it), and return it with its
/// observability epilogue. Print the epilogue in submission order; it is
/// empty without either flag.
pub(crate) fn simulate(
    scale: &Scale,
    topo: Topo,
    fabric: FabricSpec,
    sim: Sim,
    drive: impl FnOnce(&mut Runner),
) -> (Runner, String) {
    let Sim {
        system,
        label,
        ufab,
        baseline,
        rate_bin,
        faults,
    } = sim;
    let mut r = Runner::new_full(topo, fabric, system, scale.seed, ufab, baseline, rate_bin);
    observe(scale, &mut r, faults);
    drive(&mut r);
    let epilogue = obs_epilogue(scale, &r, &label);
    (r, epilogue)
}

/// Per-run observability epilogue: the drop/retransmit stats
/// breakdown and any invariant-violation reports, folding violations
/// into the process-wide total shown by the repro footer.
///
/// Returns the report as a string (empty when observability is off)
/// instead of printing, so parallel jobs can run it on worker threads
/// and the merge step can print reports in deterministic submission
/// order.
pub(crate) fn obs_epilogue(scale: &Scale, r: &Runner, label: &str) -> String {
    use std::fmt::Write;
    if scale.trace.is_none() && !scale.check_invariants {
        return String::new();
    }
    let mut out = String::new();
    let s = r.sim.stats();
    writeln!(
        out,
        "[obs {label}] events {}  host-tx {} B  drops {} (overflow {}, link-down {}, \
         chaos {})  retx {}  link-flaps {}",
        s.events,
        s.host_bytes_tx,
        s.drops,
        s.drops_overflow,
        s.drops_down,
        s.drops_chaos,
        s.retx_pkts,
        s.link_flaps
    )
    .expect("write to string");
    let q = r.sim.queue_stats();
    let runs = (q.rotations - q.empty_rotations).max(1) as f64;
    writeln!(
        out,
        "[obs {label}] equeue rotations {} ({} empty)  run-len mean {:.1} max {}  \
         popped/run {:.1}  same-bucket inserts {}  far pushes {} (migrated {})  \
         bufs out max {}  buf cap max {}",
        q.rotations,
        q.empty_rotations,
        q.run_len_sum as f64 / runs,
        q.run_len_max,
        (q.run_len_sum + q.same_bucket_inserts) as f64 / runs,
        q.same_bucket_inserts,
        q.far_pushes,
        q.far_migrations,
        q.bufs_out_max,
        q.buf_cap_max
    )
    .expect("write to string");
    if let Some(d) = r.sim.det_digest() {
        writeln!(out, "[obs {label}] determinism digest {d:016x}").expect("write to string");
    }
    if scale.check_invariants {
        let n = r.invariant_violations();
        VIOLATIONS.fetch_add(n, std::sync::atomic::Ordering::Relaxed);
        let evals = r.invariants.as_ref().map(|s| s.evaluations()).unwrap_or(0);
        if n == 0 {
            writeln!(out, "[obs {label}] invariants clean ({evals} evaluations)")
                .expect("write to string");
        } else {
            writeln!(out, "[obs {label}] {n} invariant violation(s):").expect("write to string");
            write!(out, "{}", r.invariant_report()).expect("write to string");
        }
    }
    out
}

/// Build an N-to-1 incast on the paper's testbed: `n` sources (one per
/// host, cycling) target the last host; every VF guaranteed
/// `tokens × B_u`. Returns (topo, fabric, src hosts, pairs, dst).
pub fn incast_on_testbed(
    n: usize,
    cfg: topology::TestbedCfg,
    tokens: f64,
    bu_bps: f64,
) -> (Topo, FabricSpec, Vec<NodeId>, Vec<PairId>, NodeId) {
    let topo = topology::testbed(cfg);
    let dst = *topo.hosts.last().expect("testbed has hosts");
    let mut fabric = FabricSpec::new(bu_bps);
    let candidates: Vec<NodeId> = topo.hosts.iter().copied().filter(|&h| h != dst).collect();
    let srcs: Vec<NodeId> = (0..n).map(|i| candidates[i % candidates.len()]).collect();
    let pairs = srcs
        .iter()
        .map(|&src| fabric.add_vf(tokens, src, dst))
        .collect();
    (topo, fabric, srcs, pairs, dst)
}

/// The incast itself: every source sends `bytes` on its pair from `start`.
pub(crate) fn incast_driver(
    srcs: &[NodeId],
    pairs: &[PairId],
    bytes: u64,
    start: Time,
) -> BulkDriver {
    let jobs = srcs
        .iter()
        .zip(pairs)
        .map(|(&s, &p)| (start, s, p, bytes, 0))
        .collect();
    BulkDriver::new(jobs, 0)
}

/// Deterministic in-place Fisher–Yates shuffle driven by an xorshift64
/// generator seeded from `seed`. Identical results on every platform
/// and run — scenario join orders and workload permutations must not
/// depend on `std` RNG internals.
pub fn det_shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng_state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    for i in (1..items.len()).rev() {
        rng_state ^= rng_state << 13;
        rng_state ^= rng_state >> 7;
        rng_state ^= rng_state << 17;
        let j = (rng_state as usize) % (i + 1);
        items.swap(i, j);
    }
}

/// Format a float with the given precision, for table cells.
pub(crate) fn f(x: f64, prec: usize) -> String {
    format!("{x:.prec$}")
}

/// Microseconds with one decimal.
pub(crate) fn us(x_ns: f64) -> String {
    format!("{:.1}", x_ns / 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::SLICE;
    use netsim::{FaultKind, FaultPlan, PortNo};

    /// A figure's run says nothing without the flags. With them it
    /// carries the digest and evaluates the suite `Sim` names: the
    /// standard one, or the fault-aware one where asked.
    #[test]
    fn simulate_arms_the_flags_it_is_given() {
        let run = |scale: Scale, sim: Sim| {
            let topo = topology::dumbbell(1, 10, 10);
            let mut fabric = FabricSpec::new(500e6);
            let (src, dst) = (topo.hosts[0], topo.hosts[1]);
            let pair = fabric.add_vf(2.0, src, dst);
            let mut bulk = BulkDriver::new(vec![(0, src, pair, 1_000_000, 0)], 0);
            let (r, epilogue) = simulate(&scale, topo, fabric, sim, |r| {
                r.run(2 * MS, SLICE, &mut [&mut bulk])
            });
            assert!(r.pair_rate(pair, 0, 2 * MS) > 0.0);
            // The recorder holds the whole run, so every verdict of every
            // checker the suite evaluated.
            let ring = r.obs.recorder().map(|f| f.lock().unwrap().last(1 << 16));
            let checks = ring.unwrap_or_default().into_iter().map(|e| e.to_json());
            let checks = checks.filter(|j| j.contains("\"ok\":")).collect();
            (epilogue, r.sim.det_digest().is_some(), checks)
        };
        let flags = Scale {
            trace: Some(1 << 16),
            check_invariants: true,
            ..Scale::default()
        };
        let ufab = || Sim::of(SystemKind::Ufab);
        let (epilogue, digest, checks): (String, bool, Vec<String>) = run(Scale::default(), ufab());
        assert_eq!((epilogue.as_str(), digest, checks.len()), ("", false, 0));

        let (epilogue, digest, checks) = run(flags, ufab());
        assert!(digest);
        assert!(
            epilogue.contains("[obs uFAB] determinism digest"),
            "{epilogue}"
        );
        assert!(
            epilogue.contains("[obs uFAB] invariants clean ("),
            "{epilogue}"
        );
        let named = |checks: &[String], name: &str| checks.iter().any(|c| c.contains(name));
        assert!(named(&checks, "bounded-queue-watchdog"), "{checks:?}");
        assert!(!named(&checks, "wedged-pair-watchdog"), "{checks:?}");

        let faults = Sim {
            label: "faults".into(),
            faults: Some((5 * MS, 20 * MS)),
            ..ufab()
        };
        let (epilogue, _, checks) = run(flags, faults);
        assert!(
            epilogue.contains("[obs faults] invariants clean ("),
            "{epilogue}"
        );
        assert!(named(&checks, "wedged-pair-watchdog"), "{checks:?}");
    }

    /// The `--trace` footer's drop breakdown adds up to its total, with
    /// chaos drops among the parts.
    #[test]
    fn trace_footer_drop_parts_sum_to_the_total() {
        let (topo, fabric, srcs, pairs, _) =
            incast_on_testbed(4, topology::TestbedCfg::default(), 1.0, 500e6);
        let plan = FaultPlan::new(1).fault(FaultKind::BurstLoss {
            node: srcs[0],
            port: PortNo(0),
            from: MS,
            until: 3 * MS,
            p_enter: 0.2,
            p_exit: 0.2,
            loss_good: 0.0,
            loss_bad: 0.5,
        });
        let scale = Scale {
            trace: Some(1024),
            ..Scale::default()
        };
        let mut driver = incast_driver(&srcs, &pairs, 2_000_000, MS);
        let (_, epilogue) = simulate(&scale, topo, fabric, Sim::of(SystemKind::Ufab), |r| {
            r.sim.apply_chaos(&plan);
            r.run(4 * MS, SLICE, &mut [&mut driver]);
        });
        let line = epilogue.lines().next().expect("stats line");
        let drops = line.split("  drops ").nth(1).expect("drops field");
        let drops = &drops[..drops.find(')').expect("closing paren")];
        let n: Vec<u64> = drops
            .split(|c: char| !c.is_ascii_digit())
            .filter(|w| !w.is_empty())
            .map(|w| w.parse().unwrap())
            .collect();
        let [total, overflow, down, chaos] = n[..] else {
            panic!("{line}")
        };
        let parts = format!("{total} (overflow {overflow}, link-down {down}, chaos {chaos}");
        assert_eq!(drops, parts, "{line}");
        assert!(chaos > 0, "{line}");
        assert_eq!(overflow + down + chaos, total, "{line}");
    }
}
