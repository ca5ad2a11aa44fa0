//! `repro` — regenerate the paper's evaluation figures and tables.
//!
//! ```text
//! repro [SCENARIO...] [--list] [--full] [--seed N] [--servers N]
//!       [--jobs N] [--trace [EVENTS]] [--check-invariants]
//!
//! SCENARIO ∈ fig4 fig5 fig11 fig12 fig13 fig14 fig15a fig15b fig16
//!            fig17 fig18ab fig18c fig20 table3 table4 tokens ablate
//!            chaos churn ops abuse dse all
//! ```
//!
//! Default (no scenario): `all` in quick mode. `--full` runs paper-scale
//! parameters (slower). `--list` prints every scenario with a one-line
//! description and exits. CSV mirrors land in `results/`.
//!
//! `--jobs N` sets the worker-thread count for the parallel experiment
//! executor; the default is the number of available cores. Results are
//! merged in submission order, so the output — stdout, CSVs, and
//! determinism digests — is byte-identical for every N (`--jobs 1`
//! reproduces the fully serial run).
//!
//! `--trace` attaches a flight recorder (default 65536 events, at most
//! 4194304: the ring is allocated up front) and the
//! determinism digest to every run and prints a drop/retransmit
//! breakdown per run; `--check-invariants` additionally evaluates the
//! online invariant suite (register conservation, edge window
//! accounting, bounded-queue watchdog) every 250 μs of simulated time
//! and exits non-zero if any invariant fires. Every simulated scenario
//! honours both: each run prints its `[obs …]` lines in submission
//! order. At seed 1, `repro all --check-invariants` exits 1: fig12,
//! fig13, fig16 and ablate each fire (CHANGES.md's `FOUND:` lines).

use experiments::scenarios::{
    ablation, abuse, chaos, churn, common::Scale, dse as dse_scenario, fig11, fig12, fig13, fig14,
    fig15, fig16, fig17, fig18, fig20, fig4, fig5, ops, tables, tokens_demo,
};

/// Every scenario `repro` accepts, with the one-line description printed
/// by `--list`. `chaos` and `churn` are harnesses, not paper figures, so
/// `all` excludes them.
const SCENARIOS: &[(&str, &str)] = &[
    (
        "fig4",
        "N-to-1 incast: queue depth and goodput vs baselines",
    ),
    ("fig5", "path dispersion of the probe-driven load balancer"),
    (
        "fig11",
        "permutation with guarantee classes: B_min conformance",
    ),
    ("fig12", "large incast: bounded-latency admission ablation"),
    ("fig13", "ECS: Memcached latency vs MongoDB bandwidth hog"),
    (
        "fig14",
        "EBS: storage agents, replication, and GC interference",
    ),
    ("fig15a", "qualification latency vs fabric load"),
    ("fig15b", "qualification latency vs guarantee size"),
    (
        "fig16",
        "90-to-1 on-off toggle: underload/overload convergence",
    ),
    (
        "fig17",
        "512-server FatTree: tenant-level predictability at load",
    ),
    (
        "fig18ab",
        "oversubscribed fabric: conformance and utilization",
    ),
    ("fig18c", "oversubscribed fabric: per-tenant rate CDF"),
    ("fig20", "probing overhead vs server count"),
    ("table3", "guarantee-token defaults per tenant class"),
    ("table4", "simulator calibration constants"),
    ("tokens", "worked example of the token arithmetic"),
    ("ablate", "component ablation of the μFAB edge"),
    (
        "chaos",
        "failure-recovery SLO harness (opt-in; presets via --plan)",
    ),
    (
        "churn",
        "fabric service: tenant admission/qualification churn at 512 servers (opt-in)",
    ),
    (
        "ops",
        "fabricd service: resize/drain/snapshot-restore operator drill (opt-in)",
    ),
    (
        "abuse",
        "hostile-tenant containment: enforcement + quarantine at 512 servers (opt-in)",
    ),
    (
        "dse",
        "cost-aware μFAB-C hardware knob sweep → Pareto front (opt-in; --grid quick|full)",
    ),
    (
        "all",
        "every paper figure/table above (excludes chaos, churn, ops, abuse, dse)",
    ),
];

/// Flight-recorder capacity of a bare `--trace`, and the largest
/// `--trace EVENTS` accepted (the recorder allocates its ring up front).
const TRACE_DEFAULT: u64 = 65_536;
const TRACE_MAX: u64 = 4_194_304;

fn usage() -> String {
    let names: Vec<&str> = SCENARIOS.iter().map(|&(n, _)| n).collect();
    format!(
        "usage: repro [SCENARIO...] [--list] [--full] [--seed N] [--servers N] [--jobs N] \
         [--trace [EVENTS]] [--check-invariants] [--plan PRESET] [--ops-script PRESET] \
         [--snapshot-at US] [--hostile-pct N] [--abuse-intensity N] [--grid NAME]\n\
         scenarios: {}\n\
         --trace EVENTS: flight-recorder capacity [1, {TRACE_MAX}] (default {TRACE_DEFAULT})\n\
         chaos presets (--plan): {} all\n\
         ops scripts (--ops-script): {}   --snapshot-at: restore instant in µs (0 disables)\n\
         abuse knobs: --hostile-pct [0, 90] (default 10)   --abuse-intensity [1, 64] (default 4)\n\
         dse grids (--grid): {} (default quick)",
        names.join(" "),
        chaos::PRESETS.join(" "),
        ops::PRESETS.join(" "),
        dse::GridKind::NAMES
    )
}

fn list() {
    let width = SCENARIOS.iter().map(|&(n, _)| n.len()).max().unwrap_or(0);
    for &(name, desc) in SCENARIOS {
        println!("{name:width$}  {desc}");
    }
}

/// Exit code for command-line errors (scenario asserts use the default
/// panic path; invariant violations exit 1).
const EXIT_USAGE: i32 = 2;

/// Parse an integer flag operand, exiting with a labelled usage error on
/// a missing or malformed value or one outside `[lo, hi]`.
fn int_arg(flag: &str, value: Option<&String>, lo: u64, hi: u64) -> u64 {
    let Some(raw) = value else {
        exit_usage(&format!("{flag} needs a value\n{}", usage()));
    };
    match raw.parse::<u64>() {
        Ok(n) if (lo..=hi).contains(&n) => n,
        Ok(n) => exit_usage(&format!("{flag} {n} is out of range [{lo}, {hi}]")),
        Err(_) => exit_usage(&format!("{flag} expects an integer, got '{raw}'")),
    }
}

/// Check a preset-name operand (`--plan`, `--ops-script`) against the
/// names the scenario accepts. The `Err` is the message `main` prints
/// before exiting 2, so a bad name never reaches a scenario's own assert.
fn preset_arg(flag: &str, value: Option<&String>, have: &[&str]) -> Result<String, String> {
    let Some(p) = value else {
        return Err(format!("{flag} needs a preset name\n{}", usage()));
    };
    if !have.contains(&p.as_str()) {
        return Err(format!(
            "{flag} '{p}' is not a preset (have: {})",
            have.join(" ")
        ));
    }
    Ok(p.clone())
}

fn exit_usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(EXIT_USAGE);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::default();
    let mut plan: Option<String> = None;
    let mut ops_script = "mixed".to_string();
    let mut snapshot_at: Option<u64> = None;
    let mut hostile_pct = 10u32;
    let mut abuse_intensity = 4u32;
    let mut grid = dse::GridKind::Quick;
    let mut scenarios: Vec<String> = Vec::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--full" => scale.quick = false,
            "--quick" => scale.quick = true,
            "--list" => {
                list();
                return;
            }
            "--jobs" => {
                let n = int_arg("--jobs", it.next(), 1, 1024);
                experiments::executor::set_jobs(n as usize);
            }
            "--seed" => {
                scale.seed = int_arg("--seed", it.next(), 1, u64::MAX);
            }
            "--servers" => {
                let n = int_arg("--servers", it.next(), 0, u64::MAX) as usize;
                if !fig17::FABRIC_SIZES.contains(&n) {
                    let have = fig17::FABRIC_SIZES;
                    exit_usage(&format!(
                        "--servers {n} is not a fabric size (have: {have:?})"
                    ));
                }
                scale.servers = Some(n);
            }
            "--trace" => {
                // Optional capacity operand: `--trace 8192`. A token that
                // is not all digits (`--trace fig4`) is left for the
                // scenario list.
                let operand =
                    it.next_if(|v| !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()));
                let cap = match operand {
                    Some(v) => int_arg("--trace", Some(v), 1, TRACE_MAX),
                    None => TRACE_DEFAULT,
                };
                scale.trace = Some(cap as usize);
            }
            "--check-invariants" => scale.check_invariants = true,
            "--ops-script" => {
                ops_script = preset_arg("--ops-script", it.next(), ops::PRESETS)
                    .unwrap_or_else(|e| exit_usage(&e));
            }
            "--snapshot-at" => {
                // µs of simulated time; 0 disables the restore drill.
                snapshot_at = Some(int_arg("--snapshot-at", it.next(), 0, 10_000_000));
            }
            "--hostile-pct" => {
                // Capped at 90: the containment metrics need a victim
                // class to report on.
                hostile_pct = int_arg("--hostile-pct", it.next(), 0, 90) as u32;
            }
            "--abuse-intensity" => {
                abuse_intensity = int_arg("--abuse-intensity", it.next(), 1, 64) as u32;
            }
            "--plan" => {
                let have: Vec<&str> = chaos::PRESETS.iter().copied().chain(["all"]).collect();
                plan =
                    Some(preset_arg("--plan", it.next(), &have).unwrap_or_else(|e| exit_usage(&e)));
            }
            "--grid" => {
                let Some(g) = it.next() else {
                    exit_usage(&format!("--grid needs a name\n{}", usage()));
                };
                let Some(k) = dse::GridKind::parse(g) else {
                    let names = dse::GridKind::NAMES;
                    exit_usage(&format!("--grid '{g}' is not a grid (have: {names})"));
                };
                grid = k;
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return;
            }
            s if s.starts_with("--") => exit_usage(&format!("unknown flag {s}\n{}", usage())),
            s => {
                // A typo'd scenario used to be accepted (and silently run
                // nothing); reject unknown names up front instead.
                if !SCENARIOS.iter().any(|&(n, _)| n == s) {
                    exit_usage(&format!("unknown scenario '{s}'\n{}", usage()));
                }
                scenarios.push(s.to_string());
            }
        }
    }
    if scenarios.is_empty() {
        scenarios.push("all".to_string());
    }
    let all = scenarios.iter().any(|s| s == "all");
    let want = |name: &str| all || scenarios.iter().any(|s| s == name);

    let t0 = std::time::Instant::now();
    // What `all` runs, in this order.
    let figures: [(&str, fn(Scale) -> _); 17] = [
        ("tokens", |_| tokens_demo::run()),
        ("table3", |_| tables::table3()),
        ("table4", |_| tables::table4()),
        ("fig4", fig4::run),
        ("fig5", fig5::run),
        ("fig11", fig11::run),
        ("fig12", fig12::run),
        ("fig13", fig13::run),
        ("fig14", fig14::run),
        ("fig15a", fig15::run_a),
        ("fig15b", fig15::run_b),
        ("fig16", fig16::run),
        ("fig17", fig17::run),
        ("fig18ab", fig18::run_ab),
        ("fig18c", fig18::run_c),
        ("fig20", fig20::run),
        ("ablate", ablation::run),
    ];
    for (name, run) in figures {
        if want(name) {
            run(scale);
        }
    }
    // Opt-in only: the chaos and churn harnesses are not part of `all`.
    if scenarios.iter().any(|s| s == "chaos") {
        chaos::run(scale, plan.as_deref().unwrap_or("all"));
    }
    if scenarios.iter().any(|s| s == "churn") {
        churn::run(scale);
    }
    if scenarios.iter().any(|s| s == "ops") {
        ops::run(scale, &ops_script, snapshot_at);
    }
    if scenarios.iter().any(|s| s == "abuse") {
        abuse::run(scale, hostile_pct, abuse_intensity);
    }
    if scenarios.iter().any(|s| s == "dse") {
        dse_scenario::run(scale, grid);
    }
    eprintln!("\n[repro finished in {:.1}s]", t0.elapsed().as_secs_f64());
    if scale.check_invariants {
        let v = experiments::scenarios::common::total_violations();
        eprintln!("[invariants: {v} violation(s)]");
        if v > 0 {
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_arg_accepts_listed_names_and_labels_the_rest() {
        let have = ["flap", "all"];
        let arg = |s: &str| s.to_string();
        assert_eq!(
            preset_arg("--plan", Some(&arg("all")), &have),
            Ok(arg("all"))
        );
        assert_eq!(
            preset_arg("--plan", Some(&arg("nope")), &have),
            Err(arg("--plan 'nope' is not a preset (have: flap all)"))
        );
        let missing = preset_arg("--plan", None, &have).unwrap_err();
        assert!(missing.starts_with("--plan needs a preset name\nusage: repro"));
    }
}
