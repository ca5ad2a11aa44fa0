//! `simbench` — wall-clock simulator benchmarks with a JSON trail.
//!
//! ```text
//! simbench [churn|ops|micro|abuse|dse] [--smoke] [--jobs N] [--out PATH]
//! ```
//!
//! The default suite measures (1) single-run event-loop throughput
//! (events/sec) on the Fig-11-style testbed permutation and (2) the
//! end-to-end wall clock of `fig11 --quick` serially (`jobs=1`) and with
//! the parallel executor (`--jobs N`, default 4). Results append to the
//! perf trajectory as `BENCH_PR2.json` (override with `--out`); see
//! `bench::report` for the schema.
//!
//! The `churn` suite measures the fabric manager instead: admission-plan
//! throughput (decisions/sec over a paper-512 request trace) and the
//! end-to-end churn cell (simulator events/sec with tenant lifecycle,
//! qualification polling and the ledger audit in the loop). Its
//! trajectory file is `BENCH_PR5.json`.
//!
//! The `ops` suite measures the fabricd control-plane service: resize
//! round-trips/sec, snapshot renders/sec and restores/sec on a
//! populated 64-server service, and the end-to-end ops cell (simulator
//! events/sec with the op-stream replay, a mid-run snapshot/restore and
//! the digest check in the loop). Its trajectory file is
//! `BENCH_PR6.json`.
//!
//! The `micro` suite isolates the event-loop hot paths (calendar-queue
//! churn, arena vs `Box::new` packet churn, the μFAB-E per-RTT tick,
//! the μFAB-C egress pipeline — see [`bench::micro`]) and then anchors
//! them against the end-to-end cells: `fig11 --quick` (serial and
//! parallel), `churn_cell` and `ops_cell`. Its trajectory file is
//! `BENCH_PR7.json`.
//!
//! The `abuse` suite measures the hostile-tenant containment stack: the
//! 64-server churn cell with enforcement off (baseline), with the
//! enforcement stage + containment loop armed but all tenants honest
//! (the clean path — its overhead over baseline must stay under 3%),
//! and with 10% hostile tenants. Its trajectory file is
//! `BENCH_PR9.json`.
//!
//! The `dse` suite measures the design-space exploration subsystem: the
//! Pareto extractor on synthetic 4-objective point sets, one baseline
//! knob-point cell (events/sec), and — outside smoke mode — the full
//! quick-grid sweep fanned over the parallel executor (aggregate
//! events/sec: the sweep-throughput headline). Its trajectory file is
//! `BENCH_PR10.json`.
//!
//! Records written from a dirty work tree carry `"dirty": true` and a
//! loud warning on stderr — such numbers cannot be attributed to a
//! commit and must be re-recorded from a clean checkout. The
//! [`Reporter`] helper owns that contract for every suite.
//!
//! `--smoke` runs a seconds-scale subset (short horizon, no end-to-end
//! runs) for CI: it exercises every code path and writes the JSON file,
//! but the numbers are not meant to be compared.

use bench::report::{BenchRecord, Reporter};
use bench::scenario::{run_testbed_permutation, run_testbed_permutation_chaos_idle};
use experiments::executor;
use experiments::scenarios::common::Scale;
use experiments::scenarios::{abuse, churn, dse as dse_scenario, fig11, ops};
use netsim::MS;
use std::time::Instant;

/// Guard against parallel-executor regressions: more jobs must never be
/// slower than serial beyond noise (historically `--jobs 4` on a
/// saturated 1-core machine lost ~25% to oversubscription until
/// [`executor::run_jobs`] learned to clamp to the core count).
fn check_jobs_guard(records: &[BenchRecord], par_jobs: usize) {
    if par_jobs <= 1 {
        return;
    }
    let rate = |jobs: usize| {
        records
            .iter()
            .find(|r| r.bench == "fig11_quick" && r.jobs == jobs)
            .map(|r| r.events_per_sec)
    };
    if let (Some(serial), Some(par)) = (rate(1), rate(par_jobs)) {
        assert!(
            par >= 0.85 * serial,
            "parallel executor regression: fig11_quick jobs={par_jobs} ran at {par:.0} \
             events/sec, below 85% of jobs=1 ({serial:.0} events/sec)"
        );
    }
}

fn main() {
    let mut smoke = false;
    let mut out: Option<String> = None;
    let mut par_jobs = 4usize;
    let mut churn_mode = false;
    let mut ops_mode = false;
    let mut micro_mode = false;
    let mut abuse_mode = false;
    let mut dse_mode = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "churn" => churn_mode = true,
            "ops" => ops_mode = true,
            "micro" => micro_mode = true,
            "abuse" => abuse_mode = true,
            "dse" => dse_mode = true,
            "--smoke" => smoke = true,
            "--out" => out = Some(it.next().expect("--out needs a path")),
            "--jobs" => {
                par_jobs = it
                    .next()
                    .expect("--jobs needs a value")
                    .parse()
                    .expect("jobs must be an integer");
            }
            "--help" | "-h" => {
                println!(
                    "usage: simbench [churn|ops|micro|abuse|dse] [--smoke] [--jobs N] \
                     [--out PATH]"
                );
                return;
            }
            s => {
                eprintln!("error: unknown argument {s}");
                std::process::exit(2);
            }
        }
    }
    let out = out.unwrap_or_else(|| {
        if dse_mode {
            "BENCH_PR10.json".to_string()
        } else if abuse_mode {
            "BENCH_PR9.json".to_string()
        } else if micro_mode {
            "BENCH_PR7.json".to_string()
        } else if ops_mode {
            "BENCH_PR6.json".to_string()
        } else if churn_mode {
            "BENCH_PR5.json".to_string()
        } else {
            "BENCH_PR2.json".to_string()
        }
    });
    let mut rep = Reporter::new();

    if dse_mode {
        // (1) Pareto extractor throughput on synthetic 4-objective
        // points (xorshift64: deterministic, no RNG dependency). The
        // O(n²) extractor is per-sweep work, not per-event — this pins
        // its constant so a grid-size bump shows up in the trajectory.
        let n = if smoke { 400 } else { 2_000 };
        let reps = if smoke { 1 } else { 3 };
        let mut s: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut draw = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts: Vec<Vec<f64>> = (0..n).map(|_| (0..4).map(|_| draw()).collect()).collect();
        let mut best_ms = f64::INFINITY;
        let mut front = 0usize;
        for _ in 0..reps {
            let t0 = Instant::now();
            front = dse::pareto_front(&pts).len();
            best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        }
        eprintln!(
            "[simbench] dse_pareto: {n} points ({front} on front) in {best_ms:.1} ms \
             ({:.0} points/sec)",
            n as f64 / (best_ms / 1e3)
        );
        rep.push("dse_pareto", n as f64 / (best_ms / 1e3), best_ms, 1);

        // (2) One baseline knob-point cell: per-cell simulator
        // throughput without sweep fan-out.
        let reps = if smoke { 1 } else { 2 };
        let mut cell_ms = f64::INFINITY;
        let mut events = 0u64;
        for _ in 0..reps {
            let t0 = Instant::now();
            events = dse_scenario::bench_point(1);
            cell_ms = cell_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        }
        eprintln!(
            "[simbench] dse_cell: {events} events in {cell_ms:.0} ms ({:.0} events/sec)",
            events as f64 / (cell_ms / 1e3)
        );
        rep.push("dse_cell", events as f64 / (cell_ms / 1e3), cell_ms, 1);

        // (3) Sweep throughput: the quick grid fanned over the parallel
        // executor — the headline number (aggregate simulated events per
        // wall-clock second across all cells). Skipped in smoke mode
        // (a dozen cells of end-to-end simulation).
        if !smoke {
            executor::set_jobs(par_jobs);
            let t0 = Instant::now();
            let events = dse_scenario::bench_sweep(1);
            let sweep_ms = t0.elapsed().as_secs_f64() * 1e3;
            executor::set_jobs(0);
            eprintln!(
                "[simbench] dse_sweep_quick jobs={par_jobs}: {events} events in \
                 {sweep_ms:.0} ms ({:.0} events/sec)",
                events as f64 / (sweep_ms / 1e3)
            );
            rep.push(
                "dse_sweep_quick",
                events as f64 / (sweep_ms / 1e3),
                sweep_ms,
                par_jobs,
            );
        }

        rep.write(&out);
        return;
    }

    if abuse_mode {
        // Clean-tenant-path enforcement overhead: the identical 64-server
        // churn workload with (a) enforcement off (the PR 8 baseline
        // cell), (b) enforcement + containment loop armed but zero
        // hostile tenants, (c) 10% hostile at intensity 4. Arms are
        // interleaved and best-of-N per arm so shared-machine noise
        // phases hit all three equally; (b) vs (a) is the <3% bound.
        // Best-of-3 even in smoke mode: a single slow-machine phase on
        // one arm otherwise lands straight on the overhead guard.
        let reps = 3;
        let arms: [(&str, fn(u64) -> u64); 3] = [
            ("churn_cell_baseline", |s| churn::bench_cell(s)),
            ("abuse_cell_clean", |s| abuse::bench_cell(s, 0)),
            ("abuse_cell_hostile", |s| abuse::bench_cell(s, 10)),
        ];
        let mut best = [(f64::INFINITY, 0u64); 3];
        for _rep in 0..reps {
            for (slot, (_, cell)) in arms.iter().enumerate() {
                let t0 = Instant::now();
                let events = cell(1);
                let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
                if wall_ms < best[slot].0 {
                    best[slot] = (wall_ms, events);
                }
            }
        }
        for (slot, (name, _)) in arms.iter().enumerate() {
            let (wall_ms, events) = best[slot];
            eprintln!(
                "[simbench] {name}: {events} events in {wall_ms:.0} ms ({:.0} events/sec)",
                events as f64 / (wall_ms / 1e3)
            );
            rep.push(name, events as f64 / (wall_ms / 1e3), wall_ms, 1);
        }
        let overhead = (best[1].0 - best[0].0) / best[0].0 * 100.0;
        eprintln!(
            "[simbench] clean-path enforcement overhead: {overhead:+.2}% \
             (clean {:.0} ms vs baseline {:.0} ms)",
            best[1].0, best[0].0
        );
        assert!(
            overhead < 3.0,
            "clean-tenant-path enforcement overhead {overhead:.2}% breaches the 3% bound \
             (clean {:.0} ms vs baseline {:.0} ms)",
            best[1].0,
            best[0].0
        );

        rep.write(&out);
        return;
    }

    if micro_mode {
        // (1) Hot-path microbenchmarks: each isolates one inner loop of
        // the event loop. Best-of-N wall clock; the op counts are exact.
        let reps = if smoke { 1 } else { 3 };
        let scale: u64 = if smoke { 1 } else { 20 };
        let micros: [(&str, u64, fn(u64) -> u64); 5] = [
            (
                "micro_equeue_churn",
                50_000 * scale,
                bench::micro::equeue_churn,
            ),
            (
                "micro_arena_churn",
                50_000 * scale,
                bench::micro::arena_churn,
            ),
            ("micro_box_churn", 50_000 * scale, bench::micro::box_churn),
            ("micro_edge_tick", 5_000 * scale, bench::micro::edge_tick),
            ("micro_core_tick", 50_000 * scale, bench::micro::core_tick),
        ];
        for (name, iters, f) in micros {
            let mut best_ms = f64::INFINITY;
            let mut ops = 0u64;
            for _ in 0..reps {
                let t0 = Instant::now();
                ops = f(iters);
                best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
            }
            eprintln!(
                "[simbench] {name}: {ops} ops in {best_ms:.1} ms ({:.0} ops/sec)",
                ops as f64 / (best_ms / 1e3)
            );
            rep.push(name, ops as f64 / (best_ms / 1e3), best_ms, 1);
        }
        // What the queue probe above churned: ≈500-entry runs, against
        // 14–59 on the end-to-end cells (`repro <cell> --trace` prints
        // theirs) — read the probe's ns/op with that in mind.
        let (_, qs) = bench::micro::equeue_churn_stats(50_000 * scale);
        eprintln!("[simbench] micro_equeue_churn queue: {qs:?}");

        // (2) Anchor against the end-to-end cells so the trajectory file
        // ties micro movements to whole-scenario wall clock. Skipped in
        // smoke mode (tens of seconds per run).
        if !smoke {
            // Interleaved A/B best-of-2: a single-shot run per jobs value
            // puts shared-VM noise (±15% is routine) straight onto the
            // jobs guard below. Alternating jobs=1/jobs=N and keeping the
            // best per arm cancels slow-machine phases for both equally.
            let arms = [1usize, par_jobs];
            let mut best = [(f64::INFINITY, 0u64); 2];
            for _rep in 0..2 {
                for (slot, jobs) in arms.into_iter().enumerate() {
                    executor::set_jobs(jobs);
                    let t0 = Instant::now();
                    let (_, ev) = fig11::run_with_stats(Scale::default());
                    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
                    if wall_ms < best[slot].0 {
                        best[slot] = (wall_ms, ev);
                    }
                }
            }
            for (slot, jobs) in arms.into_iter().enumerate() {
                let (wall_ms, ev) = best[slot];
                eprintln!(
                    "[simbench] fig11_quick jobs={jobs}: {ev} events in {wall_ms:.0} ms \
                     ({:.0} events/sec)",
                    ev as f64 / (wall_ms / 1e3)
                );
                rep.push("fig11_quick", ev as f64 / (wall_ms / 1e3), wall_ms, jobs);
            }
            for (name, cell) in [
                ("churn_cell", churn::bench_cell as fn(u64) -> u64),
                ("ops_cell", ops::bench_cell as fn(u64) -> u64),
            ] {
                let mut cell_ms = f64::INFINITY;
                let mut events = 0u64;
                for _ in 0..2 {
                    let t0 = Instant::now();
                    events = cell(1);
                    cell_ms = cell_ms.min(t0.elapsed().as_secs_f64() * 1e3);
                }
                eprintln!(
                    "[simbench] {name}: {events} events in {cell_ms:.0} ms \
                     ({:.0} events/sec)",
                    events as f64 / (cell_ms / 1e3)
                );
                rep.push(name, events as f64 / (cell_ms / 1e3), cell_ms, 1);
            }
        }

        check_jobs_guard(rep.records(), par_jobs);
        rep.write(&out);
        return;
    }

    if ops_mode {
        // (1) Resize round-trips on a populated 64-server service: the
        // delta commit/release against the live ledger, queue pacing
        // and the closing conservation audit included.
        let iters = if smoke { 200 } else { 2_000 };
        let reps = if smoke { 1 } else { 3 };
        let mut best_ms = f64::INFINITY;
        let mut applied = 0usize;
        for _ in 0..reps {
            let t0 = Instant::now();
            applied = ops::resize_bench(1, iters);
            best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        }
        eprintln!(
            "[simbench] ops_resize: {applied} ops in {best_ms:.0} ms ({:.0} ops/sec)",
            applied as f64 / (best_ms / 1e3)
        );
        rep.push("ops_resize", applied as f64 / (best_ms / 1e3), best_ms, 1);

        // (2) Snapshot renders: full-state serialization with byte-exact
        // float encoding.
        let iters = if smoke { 50 } else { 500 };
        let mut snap_ms = f64::INFINITY;
        let mut bytes = 0usize;
        for _ in 0..reps {
            let t0 = Instant::now();
            bytes = ops::snapshot_bench(1, iters);
            snap_ms = snap_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        }
        eprintln!(
            "[simbench] ops_snapshot: {iters} renders ({bytes} B) in {snap_ms:.0} ms \
             ({:.0} renders/sec)",
            iters as f64 / (snap_ms / 1e3)
        );
        rep.push("ops_snapshot", iters as f64 / (snap_ms / 1e3), snap_ms, 1);

        // (3) Restores: parse + ledger/placer rebuild + conservation
        // audit + digest check per iteration.
        let iters = if smoke { 20 } else { 200 };
        let mut rst_ms = f64::INFINITY;
        for _ in 0..reps {
            let t0 = Instant::now();
            ops::restore_bench(1, iters);
            rst_ms = rst_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        }
        eprintln!(
            "[simbench] ops_restore: {iters} restores in {rst_ms:.0} ms ({:.0} restores/sec)",
            iters as f64 / (rst_ms / 1e3)
        );
        rep.push("ops_restore", iters as f64 / (rst_ms / 1e3), rst_ms, 1);

        // (4) End-to-end ops cell: 64-server mixed-script run with the
        // op replay, qualification polling, mid-run snapshot/restore
        // and the reference-digest assert in the loop.
        let reps = if smoke { 1 } else { 2 };
        let mut cell_ms = f64::INFINITY;
        let mut events = 0u64;
        for _ in 0..reps {
            let t0 = Instant::now();
            events = ops::bench_cell(1);
            cell_ms = cell_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        }
        eprintln!(
            "[simbench] ops_cell: {events} events in {cell_ms:.0} ms ({:.0} events/sec)",
            events as f64 / (cell_ms / 1e3)
        );
        rep.push("ops_cell", events as f64 / (cell_ms / 1e3), cell_ms, 1);

        rep.write(&out);
        return;
    }

    if churn_mode {
        // (1) Admission-plan throughput: generate a paper-512 request
        // trace and run the pure control-plane planner (hose-model
        // admissibility + placement) over it.
        let target = if smoke { 2_000 } else { 20_000 };
        let iters = if smoke { 1 } else { 3 };
        let mut best_ms = f64::INFINITY;
        let mut decisions = 0usize;
        for _ in 0..iters {
            let t0 = Instant::now();
            decisions = churn::admission_bench(1, target);
            best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        }
        eprintln!(
            "[simbench] churn_admission: {decisions} decisions in {best_ms:.0} ms \
             ({:.0} decisions/sec)",
            decisions as f64 / (best_ms / 1e3)
        );
        rep.push(
            "churn_admission",
            decisions as f64 / (best_ms / 1e3),
            best_ms,
            1,
        );

        // (2) End-to-end churn cell: 64-server quick run with the full
        // lifecycle loop (manager replay, qualification polling, ledger
        // audit every ms). Events are deterministic; wall is best-of-N.
        let iters = if smoke { 1 } else { 2 };
        let mut cell_ms = f64::INFINITY;
        let mut events = 0u64;
        for _ in 0..iters {
            let t0 = Instant::now();
            events = churn::bench_cell(1);
            cell_ms = cell_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        }
        eprintln!(
            "[simbench] churn_cell: {events} events in {cell_ms:.0} ms \
             ({:.0} events/sec)",
            events as f64 / (cell_ms / 1e3)
        );
        rep.push("churn_cell", events as f64 / (cell_ms / 1e3), cell_ms, 1);

        rep.write(&out);
        return;
    }

    // (1) Single-run event-loop throughput. Best-of-N wall clock to damp
    // scheduler noise; the event count is deterministic.
    let until = if smoke { 10 * MS } else { 120 * MS };
    let iters = if smoke { 1 } else { 3 };
    let mut best_ms = f64::INFINITY;
    let mut events = 0u64;
    for _ in 0..iters {
        let t0 = Instant::now();
        events = run_testbed_permutation(1, until);
        best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    eprintln!(
        "[simbench] testbed_permutation: {events} events in {best_ms:.0} ms \
         ({:.0} events/sec)",
        events as f64 / (best_ms / 1e3)
    );
    rep.push(
        "testbed_permutation",
        events as f64 / (best_ms / 1e3),
        best_ms,
        1,
    );

    // (1b) The same workload with the chaos engine armed but idle — the
    // overhead fault-injection support adds to the hot path when no
    // fault fires (should be ≈0; the event count must be *identical*,
    // since an empty plan must not perturb the simulation).
    let mut chaos_ms = f64::INFINITY;
    let mut chaos_events = 0u64;
    for _ in 0..iters {
        let t0 = Instant::now();
        chaos_events = run_testbed_permutation_chaos_idle(1, until);
        chaos_ms = chaos_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    assert_eq!(
        chaos_events, events,
        "an idle chaos engine must not change the simulation"
    );
    eprintln!(
        "[simbench] testbed_permutation_chaos_idle: {chaos_events} events in \
         {chaos_ms:.0} ms ({:.0} events/sec, {:+.1}% vs disabled)",
        chaos_events as f64 / (chaos_ms / 1e3),
        (chaos_ms - best_ms) / best_ms * 100.0
    );
    rep.push(
        "testbed_permutation_chaos_idle",
        chaos_events as f64 / (chaos_ms / 1e3),
        chaos_ms,
        1,
    );

    // (2) End-to-end fig11 --quick, serial vs parallel executor. Skipped
    // in smoke mode (tens of seconds per run).
    if !smoke {
        for jobs in [1usize, par_jobs] {
            executor::set_jobs(jobs);
            let t0 = Instant::now();
            let (_, ev) = fig11::run_with_stats(Scale::default());
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            eprintln!(
                "[simbench] fig11_quick jobs={jobs}: {ev} events in {wall_ms:.0} ms \
                 ({:.0} events/sec)",
                ev as f64 / (wall_ms / 1e3)
            );
            rep.push("fig11_quick", ev as f64 / (wall_ms / 1e3), wall_ms, jobs);
        }
    }

    check_jobs_guard(rep.records(), par_jobs);
    rep.write(&out);
}
