//! `ufabbench` — the repo's benchmark. See `README.md` beside this
//! package for the metric glossary and how the workloads were chosen.
//!
//! ```text
//! ufabbench --workload W --seed N --seconds S --trace 0|1   driver form: one JSON result line
//! ufabbench run     [--seed N] [--smoke] [--out F]          timed reps + checked pass, all workloads
//! ufabbench trace   [--seed N] [--out F]                    per-layer numbers from traced twins
//! ufabbench compare A.json B.json                           is B worse than A?
//! ufabbench cell W MODE --seed N                            (internal) one cell, one process
//! ```

mod cell;
mod compare;
mod host;
mod json;
mod layers;
mod probes;
mod run;
mod spans;
mod stats;
mod suite;
mod timed;
mod twin;

use json::Json;
use run::Budget;
use std::process::ExitCode;
use suite::{Workload, WORKLOADS};

const USAGE: &str = "usage:
  ufabbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
  ufabbench run   [--seed N] [--smoke] [--out FILE]
  ufabbench trace [--seed N] [--out FILE]
  ufabbench compare A.json B.json
workloads: fig11_testbed churn_64 churn_64_shards2 churn_512 abuse_64 ctl_plane
seed 1 is the default; seed 7 is held back from tuning";

/// Flags after the subcommand: `--name value` pairs, bare `--smoke`,
/// and positionals.
struct Args {
    flags: Vec<(String, String)>,
    smoke: bool,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut out = Args {
            flags: Vec::new(),
            smoke: false,
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--smoke" => out.smoke = true,
                flag if flag.starts_with("--") => {
                    let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                    out.flags.push((flag[2..].to_string(), v.clone()));
                }
                _ => out.positional.push(a.clone()),
            }
        }
        Ok(out)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad value {v}")),
        }
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(k, _)| !allowed.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!("unknown flag --{k}")),
            None => Ok(()),
        }
    }
}

fn workload(name: &str) -> Result<&'static Workload, String> {
    suite::find(name).ok_or_else(|| format!("unknown workload {name}"))
}

fn write_out(path: Option<&str>, file: &Json) -> Result<(), String> {
    match path {
        None => Ok(()),
        // Provenance fields and each workload's sections on lines of
        // their own.
        Some(p) => std::fs::write(p, file.pretty(3)).map_err(|e| format!("{p}: {e}")),
    }
}

/// `Ok(true)` = everything measured and checked out.
fn dispatch(argv: &[String]) -> Result<bool, String> {
    let Some(first) = argv.first() else {
        return Err("no command".into());
    };
    match first.as_str() {
        "cell" => {
            let a = Args::parse(&argv[1..])?;
            let [w, mode] = a.positional.as_slice() else {
                return Err("cell needs <workload> <mode>".into());
            };
            cell::exec(
                workload(w)?,
                mode,
                a.number("seed", 1)?,
                a.smoke,
                a.number("jobs", 1)?,
            )?;
            Ok(true)
        }
        "run" | "trace" => {
            let a = Args::parse(&argv[1..])?;
            a.only(&["seed", "out"])?;
            let trace = first == "trace";
            if trace && a.smoke {
                return Err("--smoke goes with run".into());
            }
            let seed = a.number("seed", 1)?;
            let ws: Vec<&Workload> = WORKLOADS.iter().filter(|w| !a.smoke || w.smoke).collect();
            let m = run::measure(&ws, seed, Budget::Reps, trace, a.smoke)?;
            run::print_report(&m, trace);
            write_out(a.get("out"), &run::result_file(&m, first, seed, a.smoke))?;
            Ok(m.correct())
        }
        "compare" => {
            let [a, b] = &argv[1..] else {
                return Err("compare needs two result files".into());
            };
            let load = |p: &String| {
                let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
                Json::parse(&text).map_err(|e| format!("{p}: {e}"))
            };
            Ok(compare::print(&compare::compare(&load(a)?, &load(b)?)?))
        }
        _ => {
            // The driver form.
            let a = Args::parse(argv)?;
            a.only(&["workload", "seed", "seconds", "trace"])?;
            if !a.positional.is_empty() || a.smoke {
                return Err(format!("unknown command {first}"));
            }
            let w = workload(a.get("workload").ok_or("--workload is required")?)?;
            if !w.driver {
                eprintln!(
                    "[ufabbench] note: {} is not in BENCHMARK.json's list",
                    w.name
                );
            }
            let seconds: f64 = a.number("seconds", 15.0)?;
            let trace = match a.get("trace").unwrap_or("0") {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace: bad value {other}")),
            };
            let seed = a.number("seed", 1)?;
            let m = run::measure(&[w], seed, Budget::Seconds(seconds), trace, false)?;
            // Humans read stderr; the driver reads the last stdout line.
            eprintln!(
                "[ufabbench] {} seed {seed}: {} reps, {} of {} operations failed, {:.1} s",
                w.name,
                m.outcomes[0].reps.len(),
                m.outcomes[0].failed,
                m.outcomes[0].attempted,
                m.wall_s
            );
            println!("{}", run::contract_line(&m, trace));
            // A failed check is reported in the line, not by the exit
            // code: the driver wants its result either way.
            Ok(true)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("error: {why}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
