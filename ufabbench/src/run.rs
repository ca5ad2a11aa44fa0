//! The measuring loop: set-up replays, interleaved rounds of cells, the
//! checked pass, and what is reported from them.
//!
//! Closed loop: a cell is a batch job, the next one starts when the
//! previous has returned. One cell at a time from one process tree, so
//! never more threads than the cell itself uses (1, or 2 when sharded).

use crate::cell::Cells;
use crate::host;
use crate::json::Json;
use crate::layers::PER_LAYER;
use crate::stats::{median, Summary};
use crate::suite::{hook_seed, Kind, Workload};
use std::time::Instant;

/// `(name, unit, better)` of the end-to-end metrics the driver form
/// reports on every workload. Each is steady across seeds: a rep's wall
/// clock is not (the traces differ by ±15% in events), its rate is.
pub const END_TO_END: [(&str, &str, &str); 4] = [
    ("events_per_s", "1/s", "higher"),
    ("cpu_ns_per_event", "ns", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
];

/// When a workload has been measured enough.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// The workload's own rep count (`ufabbench run`), one rep when
    /// smoking, one hook/twin/traced-twin triple when tracing.
    Reps,
    /// Until this many seconds of cells have run (the driver form).
    Seconds(f64),
}

/// One timed hook call.
#[derive(Debug, Clone, PartialEq)]
pub struct Rep {
    pub seed: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub events: u64,
    pub peak_rss_mb: f64,
}

impl Rep {
    fn from_report(seed: u64, j: &Json) -> Option<Rep> {
        Some(Rep {
            seed,
            wall_s: j.num("wall_s")?,
            cpu_s: j.num("cpu_s")?,
            events: j.num("events")? as u64,
            peak_rss_mb: j.num("peak_rss_mb")?,
        })
    }

    pub fn events_per_s(&self) -> f64 {
        self.events as f64 / self.wall_s
    }

    pub fn cpu_ns_per_event(&self) -> f64 {
        self.cpu_s * 1e9 / self.events as f64
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("seed", Json::from(self.seed)),
            ("wall_s", Json::Num(self.wall_s)),
            ("cpu_s", Json::Num(self.cpu_s)),
            ("events", Json::from(self.events)),
            ("peak_rss_mb", Json::Num(self.peak_rss_mb)),
        ])
    }
}

/// Everything measured on one workload.
pub struct Outcome {
    pub w: &'static Workload,
    pub reps: Vec<Rep>,
    pub setup_s: Vec<f64>,
    /// Simulated fidelity metrics of the checked pass.
    pub sim: Vec<(String, f64)>,
    /// Digest of the checked pass (of round 0's twin when there is no
    /// checked pass), for `compare`.
    pub digest: String,
    /// Per-layer values, one inner vector per traced round.
    pub layers: Vec<(String, Vec<f64>)>,
    pub spans: Vec<Json>,
    /// Cell executions started, and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// The workload needs more cores than the host has.
    pub degraded: bool,
    rounds: usize,
    busy_s: f64,
}

impl Outcome {
    fn new(w: &'static Workload) -> Self {
        Self {
            w,
            reps: Vec::new(),
            setup_s: Vec::new(),
            sim: Vec::new(),
            digest: String::new(),
            layers: Vec::new(),
            spans: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            degraded: host::nproc() < w.threads,
            rounds: 0,
            busy_s: 0.0,
        }
    }

    /// Count one cell execution; a failed one leaves its reason behind.
    fn op(&mut self, result: Result<Json, String>) -> Option<Json> {
        self.attempted += 1;
        match result {
            Ok(j) => Some(j),
            Err(why) => {
                self.fail(why);
                None
            }
        }
    }

    fn fail(&mut self, why: String) {
        eprintln!("[ufabbench] FAILED {why}");
        self.failed += 1;
        self.failures.push(why);
    }

    fn done(&self, budget: Budget, trace: bool, smoke: bool) -> bool {
        match budget {
            Budget::Reps if trace || smoke => self.rounds >= 1,
            Budget::Reps => self.rounds >= self.w.reps,
            // A median wants two samples, even of a cell longer than `s`.
            Budget::Seconds(s) => {
                let min_rounds = if trace { 1 } else { 2 };
                // Without a twin a traced round is only a hook call.
                let nothing_to_trace = trace && self.w.twin().is_none();
                self.rounds >= min_rounds && (self.busy_s >= s || nothing_to_trace)
            }
        }
    }

    fn setup(&mut self, cells: &Cells, seed: u64) {
        if let Some(j) = self.op(cells.spawn(self.w, "setup", seed, 1)) {
            self.setup_s = j.num_array("setup_s");
        }
    }

    fn rep(&mut self, cells: &Cells, seed: u64) -> Option<Rep> {
        let j = self.op(cells.spawn(self.w, "hook", seed, 1))?;
        let rep = Rep::from_report(seed, &j);
        if rep.is_none() {
            self.fail(format!(
                "{} hook seed {seed}: incomplete report {j}",
                self.w.name
            ));
        }
        self.reps.extend(rep.clone());
        rep
    }

    /// A traced round: the hook, the twin, the twin with every agent
    /// timed — three views of one cell, which must be one cell.
    fn traced_round(&mut self, cells: &Cells, seed: u64) {
        let first = self.rounds == 0;
        let hook = self.rep(cells, seed);
        if self.w.twin().is_none() {
            return;
        }
        let plain = self.op(cells.spawn(self.w, "twin", seed, 1));
        let traced = self.op(cells.spawn(self.w, "twin-traced", seed, 1));
        let (Some(hook), Some(plain), Some(traced)) = (hook, plain, traced) else {
            return;
        };
        let id = |j: &Json| {
            (
                j.num("events").map(|e| e as u64),
                j.str("digest").map(str::to_string),
            )
        };
        if id(&plain).0 != Some(hook.events) || id(&plain) != id(&traced) {
            self.fail(format!(
                "{} seed {seed}: twin is not the hook's cell: hook {} events, twin {:?}, traced twin {:?}",
                self.w.name,
                hook.events,
                id(&plain),
                id(&traced)
            ));
            return;
        }
        if first {
            self.digest = id(&traced).1.unwrap_or_default();
        }
        let (plain_s, traced_s) = (
            plain.num("wall_s").unwrap_or(f64::NAN),
            traced.num("wall_s").unwrap_or(f64::NAN),
        );
        let mut round = traced.get("layers").map(Json::numbers).unwrap_or_default();
        // What the hook does and the twin leaves out: manager advance,
        // qualification poll, audit, table building.
        round.push(("experiments.cell.ctl_loop_s".into(), hook.wall_s - plain_s));
        round.push((
            "trace.overhead_pct".into(),
            100.0 * (traced_s - plain_s) / plain_s,
        ));
        if first && self.w.kind == Kind::Fig11 {
            // fig11 is the one cell that fans out over the executor.
            if let Some(j) = self.op(cells.spawn(self.w, "hook", seed, 2)) {
                if let Some(two) = j.num("wall_s") {
                    round.push((
                        "experiments.executor.jobs2_speedup".into(),
                        hook.wall_s / two,
                    ));
                }
            }
        }
        for (name, v) in round {
            match self.layers.iter_mut().find(|(n, _)| *n == name) {
                Some((_, vs)) => vs.push(v),
                None => self.layers.push((name, vec![v])),
            }
        }
        self.spans.extend(traced.get("spans").cloned());
    }

    /// The checked pass on `seed`, held against round 0.
    fn check(&mut self, cells: &Cells, seed: u64) {
        if !self.w.has_checked_pass() {
            return;
        }
        let Some(j) = self.op(cells.spawn(self.w, "checked", seed, 1)) else {
            return;
        };
        let rep0 = self.reps.iter().find(|r| r.seed == seed).map(|r| r.events);
        for why in verify_checked(self.w.name, rep0, &self.digest, &j) {
            self.fail(why);
        }
        self.sim = j.get("sim").map(Json::numbers).unwrap_or_default();
        if let Some(d) = j.str("digest").filter(|d| !d.is_empty()) {
            self.digest = d.to_string();
        }
    }

    /// Median of a per-rep quantity.
    fn rep_median(&self, f: impl Fn(&Rep) -> f64) -> f64 {
        if self.reps.is_empty() {
            return 0.0;
        }
        median(&self.reps.iter().map(f).collect::<Vec<_>>())
    }

    /// The driver form's end-to-end metrics, in [`END_TO_END`] order.
    pub fn end_to_end(&self) -> [f64; 4] {
        [
            self.rep_median(Rep::events_per_s),
            self.rep_median(Rep::cpu_ns_per_event),
            self.rep_median(|r| r.peak_rss_mb),
            if self.setup_s.is_empty() {
                0.0
            } else {
                median(&self.setup_s)
            },
        ]
    }

    /// A per-layer metric: median over the traced rounds, a fidelity
    /// metric of the checked pass, or 0 when this workload has neither.
    pub fn layer(&self, name: &str) -> f64 {
        if let Some((_, vs)) = self.layers.iter().find(|(n, _)| n == name) {
            return median(vs);
        }
        let sim = match name {
            "experiments.cell.viol_ms" => "viol_ms",
            "experiments.cell.ttg_p99_us" => "ttg_p99_us",
            "experiments.fig11.dissatisfaction" => "dissatisfaction",
            _ => return 0.0,
        };
        self.sim
            .iter()
            .find(|(n, _)| n == sim)
            .map_or(0.0, |(_, v)| *v)
    }

    /// The metrics of `ufabbench run`, each where it applies:
    /// `(name, unit, summary)`.
    pub fn report(&self) -> Vec<(String, &'static str, Summary)> {
        let mut out = Vec::new();
        let mut push = |name: &str, unit, v: Vec<f64>| {
            if !v.is_empty() {
                out.push((name.to_string(), unit, Summary::of(&v)));
            }
        };
        let reps = |f: &dyn Fn(&Rep) -> f64| self.reps.iter().map(f).collect::<Vec<_>>();
        push("wall_s", "s", reps(&|r| r.wall_s));
        push("events_per_s", "1/s", reps(&Rep::events_per_s));
        push("cpu_s", "s", reps(&|r| r.cpu_s));
        push("cpu_ns_per_event", "ns", reps(&Rep::cpu_ns_per_event));
        push("setup_s", "s", self.setup_s.clone());
        push("peak_rss_mb", "MB", reps(&|r| r.peak_rss_mb));
        for (name, v) in &self.sim {
            let unit = match name.as_str() {
                "viol_ms" => "ms",
                "ttg_p99_us" => "us",
                _ => "ratio",
            };
            push(name, unit, vec![*v]);
        }
        push(
            "failed_share",
            "ratio",
            vec![self.failed as f64 / self.attempted.max(1) as f64],
        );
        out
    }

    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            (
                "reps",
                Json::Arr(self.reps.iter().map(Rep::to_json).collect()),
            ),
            ("setup_s", Json::nums(&self.setup_s)),
            (
                "sim",
                Json::obj(self.sim.iter().map(|(k, v)| (k.as_str(), Json::Num(*v)))),
            ),
            ("digest", Json::from(self.digest.as_str())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            (
                "failures",
                Json::Arr(
                    self.failures
                        .iter()
                        .map(|f| Json::from(f.as_str()))
                        .collect(),
                ),
            ),
            ("degraded", Json::Bool(self.degraded)),
            (
                "metrics",
                Json::obj(
                    self.report()
                        .into_iter()
                        .map(|(name, unit, s)| (name, s.to_json(unit))),
                ),
            ),
        ];
        if !self.layers.is_empty() {
            fields.push((
                "layers",
                Json::obj(
                    self.layers
                        .iter()
                        .map(|(k, vs)| (k.as_str(), Json::Num(median(vs)))),
                ),
            ));
            fields.push(("spans", Json::Arr(self.spans.clone())));
        }
        Json::obj(fields)
    }
}

/// Hold a checked pass's report against what the timed and traced runs
/// of the same seed saw. Returns one line per mismatch.
pub fn verify_checked(
    workload: &str,
    rep0_events: Option<u64>,
    twin_digest: &str,
    checked: &Json,
) -> Vec<String> {
    let mut bad = Vec::new();
    let events = checked.num("events").map(|e| e as u64);
    let digest = checked.str("digest").unwrap_or_default();
    let serial = checked.str("serial_digest").unwrap_or_default();
    if checked.num("violations") != Some(0.0) {
        bad.push(format!(
            "{workload}: checked pass saw {:?} invariant violations",
            checked.num("violations")
        ));
    }
    if rep0_events.is_some() && rep0_events != events {
        bad.push(format!(
            "{workload}: checked pass ran {events:?} events, the timed rep {rep0_events:?}"
        ));
    }
    if !serial.is_empty() && digest != serial {
        bad.push(format!(
            "{workload}: digest {digest} differs from the serial engine's {serial}"
        ));
    }
    if !twin_digest.is_empty() && !digest.is_empty() && digest != twin_digest {
        bad.push(format!(
            "{workload}: twin digest {twin_digest} differs from the checked hook's {digest}"
        ));
    }
    bad
}

/// What one invocation measured.
pub struct Measured {
    pub outcomes: Vec<Outcome>,
    /// Standalone probe values (traced runs only).
    pub probes: Vec<(String, f64)>,
    pub wall_s: f64,
}

impl Measured {
    pub fn correct(&self) -> bool {
        self.outcomes.iter().all(|o| o.failed == 0)
    }
}

/// Measure `ws` on `seed`: reps interleaved round-robin across the
/// workloads, so that a slow phase of the machine hits all of them.
pub fn measure(
    ws: &[&'static Workload],
    seed: u64,
    budget: Budget,
    trace: bool,
    smoke: bool,
) -> Result<Measured, String> {
    let started = Instant::now();
    let cells = Cells::new(smoke)?;
    let mut outs: Vec<Outcome> = ws.iter().map(|w| Outcome::new(w)).collect();
    if !trace {
        for o in &mut outs {
            o.setup(&cells, seed);
        }
    }
    loop {
        let mut any = false;
        for o in outs.iter_mut().filter(|o| !o.done(budget, trace, smoke)) {
            any = true;
            let t = Instant::now();
            let rep_seed = hook_seed(seed, o.rounds);
            if trace {
                o.traced_round(&cells, rep_seed);
            } else {
                o.rep(&cells, rep_seed);
            }
            o.rounds += 1;
            o.busy_s += t.elapsed().as_secs_f64();
        }
        if !any {
            break;
        }
    }
    for o in &mut outs {
        o.check(&cells, seed);
    }
    let mut probes = Vec::new();
    if trace {
        // Probes belong to no workload; their failure is charged to the
        // first one so that it is counted somewhere.
        let w = outs[0].w;
        if let Some(j) = outs[0].op(cells.spawn(w, "probes", seed, 1)) {
            probes = j.numbers();
        }
    }
    Ok(Measured {
        outcomes: outs,
        probes,
        wall_s: started.elapsed().as_secs_f64(),
    })
}

/// The driver form's result line for a single-workload measurement.
pub fn contract_line(m: &Measured, trace: bool) -> Json {
    let o = &m.outcomes[0];
    let metrics: Vec<(&str, Json)> = if trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| {
                let v = m
                    .probes
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or_else(|| o.layer(name), |(_, v)| *v);
                (name, metric(v, unit))
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(o.end_to_end())
            .map(|(&(name, unit, _), v)| (name, metric(v, unit)))
            .collect()
    };
    Json::obj([
        ("correct", Json::Bool(m.correct())),
        ("attempted", Json::from(o.attempted.max(1))),
        ("failed", Json::from(o.failed)),
        ("metrics", Json::obj(metrics)),
    ])
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::from(unit))])
}

/// The result file of `run` / `trace`.
pub fn result_file(m: &Measured, mode: &str, seed: u64, smoke: bool) -> Json {
    let mut prov = host::provenance();
    prov.push(("seed", Json::from(seed)));
    prov.push(("smoke", Json::Bool(smoke)));
    prov.push(("benchmark_wall_s", Json::Num(m.wall_s)));
    prov.push((
        "reps",
        Json::obj(
            m.outcomes
                .iter()
                .map(|o| (o.w.name, Json::from(o.reps.len() as u64))),
        ),
    ));
    prov.push((
        "degraded",
        Json::obj(
            m.outcomes
                .iter()
                .map(|o| (o.w.name, Json::Bool(o.degraded))),
        ),
    ));
    let mut fields = vec![
        ("schema", Json::from("ufabbench-1")),
        ("mode", Json::from(mode)),
        ("provenance", Json::obj(prov)),
        (
            "workloads",
            Json::obj(m.outcomes.iter().map(|o| (o.w.name, o.to_json()))),
        ),
    ];
    if !m.probes.is_empty() {
        fields.push((
            "probes",
            Json::obj(m.probes.iter().map(|(k, v)| (k.as_str(), Json::Num(*v)))),
        ));
    }
    Json::obj(fields)
}

/// The table `run` and `trace` print.
pub fn print_report(m: &Measured, trace: bool) {
    for o in &m.outcomes {
        let flag = if o.degraded {
            "  [degraded: fewer cores than threads]"
        } else {
            ""
        };
        println!("\n== {}{flag}\n   {}", o.w.name, o.w.why);
        println!(
            "{:<22} {:>6} {:>14} {:>14} {:>14} {:>14} {:>3}",
            "metric", "unit", "median", "p25", "p75", "min", "n"
        );
        for (name, unit, s) in o.report() {
            println!(
                "{name:<22} {unit:>6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>3}",
                s.median, s.p25, s.p75, s.min, s.n
            );
        }
        println!("failed {} of {} operations", o.failed, o.attempted);
        if trace && !o.layers.is_empty() {
            println!("{:<40} {:>8} {:>16}", "layer metric", "unit", "value");
            for &(name, unit, _) in PER_LAYER.iter() {
                if o.layers.iter().any(|(n, _)| n == name) || o.layer(name) != 0.0 {
                    println!("{name:<40} {unit:>8} {:>16.6}", o.layer(name));
                }
            }
        }
    }
    if !m.probes.is_empty() {
        println!("\n== standalone probes");
        for &(name, unit, _) in PER_LAYER.iter() {
            if let Some((_, v)) = m.probes.iter().find(|(n, _)| n == name) {
                println!("{name:<40} {unit:>8} {v:>16.3}");
            }
        }
    }
    println!("\nbenchmark wall time {:.1} s", m.wall_s);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{self, find};

    fn checked_json(events: u64, digest: &str, serial: &str, violations: u64) -> Json {
        Json::obj([
            ("events", Json::from(events)),
            ("digest", Json::from(digest)),
            ("serial_digest", Json::from(serial)),
            ("violations", Json::from(violations)),
        ])
    }

    #[test]
    fn verify_accepts_agreement_and_names_each_mismatch() {
        let ok = checked_json(10, "aa", "aa", 0);
        assert!(verify_checked("w", Some(10), "aa", &ok).is_empty());
        assert!(verify_checked("w", None, "", &ok).is_empty());
        assert_eq!(verify_checked("w", Some(11), "aa", &ok).len(), 1);
        assert_eq!(verify_checked("w", Some(10), "bb", &ok).len(), 1);
        assert_eq!(
            verify_checked("w", Some(10), "aa", &checked_json(10, "aa", "ab", 0)).len(),
            1
        );
        assert_eq!(
            verify_checked("w", Some(10), "", &checked_json(10, "", "", 3)).len(),
            1
        );
    }

    /// The real sharded cell, held against a deliberately wrong expected
    /// digest: the check must fail, the outcome must count it, and the
    /// run must stop being `correct`.
    #[test]
    fn a_wrong_expected_digest_fails_the_sharded_workload() {
        crate::cell::enter_scratch();
        let w = find("churn_64_shards2").unwrap();
        let c = suite::checked(w, 1, false).expect("sharded churn has a checked pass");
        assert_eq!(c.digest, c.serial_digest, "sharded run must match serial");
        assert_eq!(c.violations, 0);
        let events = c.events;
        let honest = c.to_json();
        assert!(verify_checked(w.name, Some(events), "", &honest).is_empty());

        let mut forged = c;
        forged.serial_digest = "0123456789abcdef".into();
        let bad = verify_checked(w.name, Some(events), "", &forged.to_json());
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].contains("0123456789abcdef"));

        let mut o = Outcome::new(w);
        o.attempted = 1;
        bad.into_iter().for_each(|why| o.fail(why));
        let m = Measured {
            outcomes: vec![o],
            probes: vec![],
            wall_s: 0.0,
        };
        assert!(!m.correct());
        let line = contract_line(&m, false);
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(line.num("failed"), Some(1.0));
    }

    #[test]
    fn contract_lines_carry_every_declared_metric() {
        let mut o = Outcome::new(find("churn_64").unwrap());
        o.attempted = 3;
        o.setup_s = vec![0.002, 0.001, 0.003];
        for (i, wall) in [1.0, 2.0, 4.0].into_iter().enumerate() {
            o.reps.push(Rep {
                seed: i as u64,
                wall_s: wall,
                cpu_s: wall / 2.0,
                events: 1_000_000,
                peak_rss_mb: 20.0 + i as f64,
            });
        }
        o.layers.push(("netsim.sim.self_s".into(), vec![0.5, 0.7]));
        o.sim.push(("ttg_p99_us".into(), 812.5));
        let m = Measured {
            outcomes: vec![o],
            probes: vec![("ufab.edge.tick_ns".into(), 4500.0)],
            wall_s: 1.0,
        };
        let e2e = contract_line(&m, false);
        let metrics = e2e.get("metrics").unwrap();
        assert_eq!(metrics.fields().len(), END_TO_END.len());
        let v = |k: &str| metrics.get(k).unwrap().num("value").unwrap();
        assert_eq!(v("events_per_s"), 500_000.0);
        assert_eq!(v("cpu_ns_per_event"), 1_000.0);
        assert_eq!(v("peak_rss_mb"), 21.0);
        assert_eq!(v("setup_s"), 0.002);
        assert_eq!(e2e.num("attempted"), Some(3.0));

        let layers = contract_line(&m, true);
        let metrics = layers.get("metrics").unwrap();
        assert_eq!(metrics.fields().len(), PER_LAYER.len());
        let v = |k: &str| metrics.get(k).unwrap().num("value").unwrap();
        assert_eq!(v("netsim.sim.self_s"), 0.6);
        assert_eq!(v("ufab.edge.tick_ns"), 4500.0);
        assert_eq!(v("experiments.cell.ttg_p99_us"), 812.5);
        assert_eq!(v("baselines.edge.busy_s"), 0.0);
        assert_eq!(
            metrics.get("netsim.sim.self_s").unwrap().str("unit"),
            Some("s")
        );
    }
}
