//! Machine-readable benchmark reports.
//!
//! Every wall-clock benchmark in this crate appends its result to a
//! `BENCH_*.json` file at the repo root so future PRs can diff
//! performance against the recorded trajectory. The schema is a JSON
//! array of records:
//!
//! ```json
//! [{"bench": "...", "events_per_sec": 1.2e6, "wall_ms": 830.0,
//!   "jobs": 1, "git_rev": "abc1234", "dirty": false}]
//! ```
//!
//! `git_rev` is the short HEAD hash at measurement time and `dirty`
//! records whether the work tree had uncommitted changes — a `true`
//! there means the number cannot be attributed to any single commit,
//! so trajectory comparisons should treat it as provisional.
//!
//! Serialization is hand-rolled (the workspace deliberately has no JSON
//! dependency); field order is fixed so diffs stay readable.

use std::io::Write;

/// One benchmark measurement.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Benchmark name, e.g. `testbed_permutation`.
    pub bench: String,
    /// Simulator events processed per wall-clock second.
    pub events_per_sec: f64,
    /// Wall-clock time of the measured section in milliseconds.
    pub wall_ms: f64,
    /// Executor worker count the measurement ran with.
    pub jobs: usize,
    /// `git rev-parse --short HEAD` at measurement time.
    pub git_rev: String,
    /// Whether the work tree had uncommitted changes at measurement time.
    pub dirty: bool,
}

/// Best-effort short git revision; `"unknown"` outside a work tree.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Whether the work tree has uncommitted changes (staged or not).
/// `false` outside a work tree — consistent with `git_rev()`'s
/// `"unknown"`, the pair reads as "no commit to attribute to".
pub fn git_dirty() -> bool {
    std::process::Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| !o.stdout.is_empty())
        .unwrap_or(false)
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Render records as a JSON array (one record per line).
pub fn to_json(records: &[BenchRecord]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"bench\": \"{}\", \"events_per_sec\": {:.1}, \"wall_ms\": {:.1}, \
             \"jobs\": {}, \"git_rev\": \"{}\", \"dirty\": {}}}{}\n",
            escape(&r.bench),
            r.events_per_sec,
            r.wall_ms,
            r.jobs,
            escape(&r.git_rev),
            r.dirty,
            if i + 1 == records.len() { "" } else { "," }
        ));
    }
    out.push_str("]\n");
    out
}

/// Write records to `path` as JSON.
pub fn write_json(path: &str, records: &[BenchRecord]) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(to_json(records).as_bytes())
}

/// Accumulates [`BenchRecord`]s for one trajectory file, owning the
/// git-rev/dirty-flag contract so no suite can drift from it: the
/// revision and dirty bit are sampled **once** at construction (not per
/// record — a mid-run `git commit` must not split a file between two
/// revisions), every record carries them, and [`Reporter::write`]
/// shouts on stderr when the numbers came from a dirty work tree.
pub struct Reporter {
    records: Vec<BenchRecord>,
    rev: String,
    dirty: bool,
}

impl Default for Reporter {
    fn default() -> Self {
        Self::new()
    }
}

impl Reporter {
    /// Sample the work-tree state and start an empty record list.
    pub fn new() -> Self {
        Self {
            records: Vec::new(),
            rev: git_rev(),
            dirty: git_dirty(),
        }
    }

    /// Append one measurement, stamped with the construction-time
    /// revision and dirty flag.
    pub fn push(&mut self, bench: &str, events_per_sec: f64, wall_ms: f64, jobs: usize) {
        self.records.push(BenchRecord {
            bench: bench.to_string(),
            events_per_sec,
            wall_ms,
            jobs,
            git_rev: self.rev.clone(),
            dirty: self.dirty,
        });
    }

    /// Records accumulated so far (for cross-record guards).
    pub fn records(&self) -> &[BenchRecord] {
        &self.records
    }

    /// The short HEAD revision sampled at construction.
    pub fn rev(&self) -> &str {
        &self.rev
    }

    /// Whether the work tree was dirty at construction.
    pub fn dirty(&self) -> bool {
        self.dirty
    }

    /// Write the trajectory file, shouting if the numbers came from a
    /// dirty work tree (they cannot be attributed to any commit).
    /// Exits the process with status 1 if the file cannot be written.
    pub fn write(&self, out: &str) {
        if self.dirty {
            eprintln!(
                "[simbench] WARNING: work tree is DIRTY — records attribute to no commit \
                 (HEAD {} + uncommitted changes). Re-run from a clean checkout before \
                 treating {out} as a trajectory point.",
                self.rev
            );
        }
        if let Err(e) = write_json(out, &self.records) {
            eprintln!("error: could not write {out}: {e}");
            std::process::exit(1);
        }
        eprintln!("[simbench] wrote {out}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape() {
        let rec = BenchRecord {
            bench: "x\"y".to_string(),
            events_per_sec: 1_234_567.89,
            wall_ms: 12.345,
            jobs: 4,
            git_rev: "abc1234".to_string(),
            dirty: true,
        };
        let j = to_json(&[rec.clone(), rec]);
        assert!(j.starts_with("[\n"));
        assert!(j.ends_with("]\n"));
        assert!(j.contains("\"bench\": \"x\\\"y\""));
        assert!(j.contains("\"events_per_sec\": 1234567.9"));
        assert!(j.contains("\"wall_ms\": 12.3"));
        assert!(j.contains("\"jobs\": 4"));
        assert!(j.contains("\"git_rev\": \"abc1234\""));
        assert!(j.contains("\"dirty\": true"));
        // Exactly one comma: two records.
        assert_eq!(j.matches("},").count(), 1);
    }

    #[test]
    fn git_rev_is_nonempty() {
        assert!(!git_rev().is_empty());
    }

    #[test]
    fn reporter_stamps_every_record_with_one_rev() {
        let mut rep = Reporter::new();
        rep.push("a", 1.0, 2.0, 1);
        rep.push("b", 3.0, 4.0, 4);
        assert_eq!(rep.records().len(), 2);
        for r in rep.records() {
            assert_eq!(r.git_rev, rep.rev());
            assert_eq!(r.dirty, rep.dirty());
        }
        assert_eq!(rep.records()[1].jobs, 4);
    }
}
