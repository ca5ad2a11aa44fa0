//! Shared pieces of the scenario implementations.

use crate::harness::{Runner, SystemKind};
use metrics::table::Table;
use netsim::{NodeId, PairId, Time, MS};
use topology::Topo;
use ufab::FabricSpec;
use workloads::driver::Driver;
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

/// Apply the CLI observability knobs to a freshly-built runner.
pub(crate) fn apply_obs(scale: &Scale, r: &mut Runner) {
    if let Some(cap) = scale.trace {
        r.enable_trace(cap);
    }
    if scale.check_invariants {
        r.enable_invariants(MS / 4);
    }
}

/// Per-run observability epilogue: the drop/ECN/retransmit stats
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
         random {})  ecn {}  retx {}  link-flaps {}",
        s.events,
        s.host_bytes_tx,
        s.drops,
        s.drops_overflow,
        s.drops_down,
        s.drops_random,
        s.ecn_marked,
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
    let mut srcs = Vec::new();
    let mut pairs = Vec::new();
    let candidates: Vec<NodeId> = topo.hosts.iter().copied().filter(|&h| h != dst).collect();
    for i in 0..n {
        let src = candidates[i % candidates.len()];
        let t = fabric.add_tenant(&format!("vf{i}"), tokens);
        let v0 = fabric.add_vm(t, src);
        let v1 = fabric.add_vm(t, dst);
        pairs.push(fabric.add_pair(v0, v1));
        srcs.push(src);
    }
    (topo, fabric, srcs, pairs, dst)
}

/// Run an incast of `bytes` per sender starting at `start`, returning
/// the runner after `until` plus the observability epilogue text (print
/// it in submission order when merging parallel jobs). Honors the
/// observability knobs in `scale`.
pub(crate) fn run_incast(
    topo: Topo,
    fabric: FabricSpec,
    system: SystemKind,
    scale: &Scale,
    srcs: &[NodeId],
    pairs: &[PairId],
    bytes: u64,
    start: Time,
    until: Time,
) -> (Runner, String) {
    let mut r = Runner::new(topo, fabric, system, scale.seed, None, MS);
    r.watch_all_switch_queues();
    apply_obs(scale, &mut r);
    let jobs: Vec<(Time, NodeId, PairId, u64, u32)> = srcs
        .iter()
        .zip(pairs)
        .map(|(&s, &p)| (start, s, p, bytes, 0))
        .collect();
    let mut driver = BulkDriver::new(jobs, 0);
    let mut drivers: [&mut dyn Driver; 1] = [&mut driver];
    r.run(until, crate::harness::SLICE, &mut drivers);
    let epilogue = obs_epilogue(scale, &r, system.label());
    (r, epilogue)
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
