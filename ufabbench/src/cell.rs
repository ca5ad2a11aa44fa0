//! One cell execution in a process of its own.
//!
//! Every timed rep, checked pass, twin run, set-up replay and probe set
//! is `ufabbench cell <workload> <mode> --seed N`, started by the parent
//! with a scratch directory as its CWD (the scenario functions write
//! `results/*.csv` relative to it; the tracked CSVs are never touched).
//! A fresh process gives each rep its own allocator state and its own
//! `VmHWM`, and turns a panic inside the program into a failed operation
//! instead of a dead benchmark. The cell's report is the last line of
//! its standard output, one JSON object.

use crate::json::Json;
use crate::suite::{self, Workload};
use crate::twin::{self, TwinOut};
use crate::{host, layers, probes};
use experiments::executor;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

/// Replay the set-up at least this often, and for at least
/// [`SETUP_MIN_S`]: 64-server set-ups take a millisecond.
const SETUP_MIN_REPLAYS: usize = 21;
const SETUP_MIN_S: f64 = 0.25;

/// Child side: run `mode` of `w` and print the report line.
pub fn exec(w: &Workload, mode: &str, seed: u64, smoke: bool, jobs: usize) -> Result<(), String> {
    executor::set_jobs(jobs);
    let report = match mode {
        "hook" => {
            let (events, wall_s, cpu_s) = timed(|| suite::hook(w, seed, smoke));
            host_fields(wall_s, cpu_s, events)
        }
        "checked" => match suite::checked(w, seed, smoke) {
            None => return Err(format!("{} has no checked pass", w.name)),
            Some(c) => c.to_json(),
        },
        "twin" | "twin-traced" => {
            let kind = w.twin().ok_or_else(|| format!("{} has no twin", w.name))?;
            let traced = mode == "twin-traced";
            let (out, wall_s, cpu_s): (TwinOut, _, _) = timed(|| twin::run(kind, seed, traced));
            let mut fields = host_fields(wall_s, cpu_s, out.events).fields().to_vec();
            fields.push(("digest".into(), Json::from(out.digest.as_str())));
            if traced {
                let l = layers::from_twin(&out);
                fields.push((
                    "layers".into(),
                    Json::obj(l.into_iter().map(|(k, v)| (k, Json::Num(v)))),
                ));
                fields.push(("spans".into(), out.spans.to_json(w.name)));
            }
            Json::Obj(fields)
        }
        "setup" => {
            let kind = w.setup_twin();
            let started = Instant::now();
            let mut samples = Vec::new();
            while samples.len() < SETUP_MIN_REPLAYS || started.elapsed().as_secs_f64() < SETUP_MIN_S
            {
                let t = Instant::now();
                match kind {
                    Some(kind) => twin::setup_only(kind, seed),
                    // `ctl_plane`: what its first hook sets up before
                    // planning — the paper-scale fabric and a trace.
                    None => drop(std::hint::black_box(suite::ctl_setup(seed))),
                }
                samples.push(t.elapsed().as_secs_f64());
            }
            Json::obj([("setup_s", Json::nums(&samples))])
        }
        "probes" => Json::obj(
            probes::run_all(seed)
                .into_iter()
                .map(|(k, v)| (k, Json::Num(v))),
        ),
        other => return Err(format!("unknown cell mode {other}")),
    };
    println!("{report}");
    Ok(())
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64, f64) {
    let cpu0 = host::cpu_seconds();
    let t = Instant::now();
    let out = f();
    let wall_s = t.elapsed().as_secs_f64();
    (out, wall_s, host::cpu_seconds() - cpu0)
}

fn host_fields(wall_s: f64, cpu_s: f64, events: u64) -> Json {
    Json::obj([
        ("wall_s", Json::Num(wall_s)),
        ("cpu_s", Json::Num(cpu_s)),
        ("events", Json::from(events)),
        ("peak_rss_mb", Json::Num(host::peak_rss_mb())),
    ])
}

/// Parent side: where cells run and how they are started.
pub struct Cells {
    exe: PathBuf,
    scratch: PathBuf,
    smoke: bool,
}

impl Cells {
    /// The scratch directory sits beside the executable, which is
    /// inside the build's target directory: within the checkout, never
    /// tracked, and gone with the next clean build.
    pub fn new(smoke: bool) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let scratch = scratch_dir(&exe);
        std::fs::create_dir_all(scratch.join("results"))
            .map_err(|e| format!("{}: {e}", scratch.display()))?;
        Ok(Self {
            exe,
            scratch,
            smoke,
        })
    }

    /// Run one cell to its end and parse its report. `Err` carries what
    /// the child said on its way down.
    pub fn spawn(&self, w: &Workload, mode: &str, seed: u64, jobs: usize) -> Result<Json, String> {
        let mut cmd = Command::new(&self.exe);
        cmd.args(["cell", w.name, mode, "--seed", &seed.to_string()])
            .args(["--jobs", &jobs.to_string()])
            .current_dir(&self.scratch)
            // The cells size their own thread pools; an inherited
            // override would change what is measured.
            .env_remove("UFAB_JOBS")
            .env_remove("UFAB_SHARDS");
        if self.smoke {
            cmd.arg("--smoke");
        }
        let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
        let what = format!("{} {mode} seed {seed}", w.name);
        if !out.status.success() {
            let err = String::from_utf8_lossy(&out.stderr);
            let tail: Vec<&str> = err.lines().rev().take(6).collect();
            let tail: Vec<&str> = tail.into_iter().rev().collect();
            return Err(format!("{what}: {}: {}", out.status, tail.join(" | ")));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .ok_or_else(|| format!("{what}: no report line"))?;
        Json::parse(last).map_err(|e| format!("{what}: bad report: {e}"))
    }
}

pub fn scratch_dir(exe: &std::path::Path) -> PathBuf {
    exe.parent()
        .expect("executable has a directory")
        .join("ufabbench-scratch")
}

/// Tests that call a scenario function which writes `results/*.csv`
/// move to the scratch directory first, as the cells do.
#[cfg(test)]
pub fn enter_scratch() {
    let dir = scratch_dir(&std::env::current_exe().expect("test executable path"));
    std::fs::create_dir_all(&dir).expect("scratch directory");
    std::env::set_current_dir(&dir).expect("enter scratch directory");
}
