//! `ufabbench compare A.json B.json`: is B worse than A?
//!
//! Host metrics are judged per rep: rep *i* of both files ran the same
//! hook seed, so the ratio B/A of each pair is free of the ±15% the
//! traces differ by, and the median ratio is held against the metric's
//! bound. Simulated metrics are exact for a seed and compare exactly.

use crate::json::Json;
use crate::stats::{median, quartiles};

/// Share by which a host metric may get worse before it is a regression.
pub const HOST_BOUND: f64 = 0.10;
/// `setup_s` is a millisecond at 64 servers: worse only if beyond the
/// host bound *and* by more than this many seconds.
const SETUP_FLOOR_S: f64 = 0.005;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    /// The spread of the pairs is wider than the bound and they do not
    /// agree on a direction.
    Unresolved,
    /// Informational rows (event counts, digests).
    Identical,
    Changed,
    /// A side ran with fewer cores than the workload has threads.
    Skipped,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Identical => "identical",
            Verdict::Changed => "changed",
            Verdict::Skipped => "skipped (degraded)",
        }
    }
}

#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: String,
    pub b: String,
    pub verdict: Verdict,
}

/// Judge paired samples. `worse[i] > 1` means B's rep *i* is worse.
pub fn judge_pairs(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let worse: Vec<f64> = a
        .iter()
        .zip(b)
        .map(|(&a, &b)| if higher_is_better { a / b } else { b / a })
        .collect();
    let (q1, med, q3) = quartiles(&worse);
    if q3 - q1 > bound && q1 < 1.0 && q3 > 1.0 {
        Verdict::Unresolved
    } else {
        judge_exact(1.0, med, bound)
    }
}

/// Judge two exact (or already summarised) lower-is-better values.
pub fn judge_exact(a: f64, b: f64, bound: f64) -> Verdict {
    if b > a * (1.0 + bound) {
        Verdict::Regressed
    } else if b < a * (1.0 - bound) {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn rep_values(w: &Json, f: impl Fn(&Json) -> Option<f64>) -> Vec<f64> {
    w.arr("reps")
        .unwrap_or_default()
        .iter()
        .filter_map(f)
        .collect()
}

fn prov<'a>(file: &'a Json, key: &str) -> Option<&'a Json> {
    file.get("provenance")?.get(key)
}

/// Compare two result files of `ufabbench run`. `Err` when they are not
/// comparable at all.
pub fn compare(a: &Json, b: &Json) -> Result<Vec<Row>, String> {
    for key in ["seed", "smoke", "reps"] {
        if prov(a, key).is_none() || prov(a, key) != prov(b, key) {
            return Err(format!(
                "not comparable: {key} is {} in A and {} in B",
                prov(a, key).unwrap_or(&Json::Null),
                prov(b, key).unwrap_or(&Json::Null)
            ));
        }
    }
    let mut rows = Vec::new();
    let empty = Json::Obj(vec![]);
    for (name, wa) in a.get("workloads").unwrap_or(&empty).fields() {
        let Some(wb) = b.get("workloads").and_then(|w| w.get(name)) else {
            return Err(format!("not comparable: no {name} in B"));
        };
        let mut row = |metric, a: String, b: String, verdict| {
            rows.push(Row {
                workload: name.clone(),
                metric,
                a,
                b,
                verdict,
            })
        };
        let degraded = [wa, wb]
            .iter()
            .any(|w| w.get("degraded") == Some(&Json::Bool(true)));
        type Get = fn(&Json) -> Option<f64>;
        let host: [(&'static str, bool, Get); 4] = [
            ("wall_s", false, |r| r.num("wall_s")),
            ("events_per_s", true, |r| {
                Some(r.num("events")? / r.num("wall_s")?)
            }),
            ("cpu_s", false, |r| r.num("cpu_s")),
            ("peak_rss_mb", false, |r| r.num("peak_rss_mb")),
        ];
        for (metric, higher, get) in host {
            let (va, vb) = (rep_values(wa, get), rep_values(wb, get));
            if va.is_empty() || va.len() != vb.len() {
                continue;
            }
            let verdict = if degraded {
                Verdict::Skipped
            } else {
                judge_pairs(&va, &vb, higher, HOST_BOUND)
            };
            row(
                metric,
                format!("{:.6}", median(&va)),
                format!("{:.6}", median(&vb)),
                verdict,
            );
        }
        let (sa, sb) = (wa.num_array("setup_s"), wb.num_array("setup_s"));
        if !sa.is_empty() && !sb.is_empty() {
            let (ma, mb) = (median(&sa), median(&sb));
            let mut verdict = judge_exact(ma, mb, HOST_BOUND);
            if verdict == Verdict::Regressed && mb - ma <= SETUP_FLOOR_S {
                verdict = Verdict::Unchanged;
            }
            row("setup_s", format!("{ma:.6}"), format!("{mb:.6}"), verdict);
        }
        for (metric, bound) in [
            ("viol_ms", 0.0),
            ("ttg_p99_us", 0.02),
            ("dissatisfaction", 0.02),
        ] {
            let get = |w: &Json| w.get("sim")?.num(metric);
            if let (Some(x), Some(y)) = (get(wa), get(wb)) {
                row(
                    metric,
                    x.to_string(),
                    y.to_string(),
                    judge_exact(x, y, bound),
                );
            }
        }
        let events = |w: &Json| rep_values(w, |r| r.num("events"));
        if !events(wa).is_empty() {
            let same = events(wa) == events(wb);
            row(
                "events",
                format!("{}", events(wa)[0]),
                format!("{}", events(wb).first().copied().unwrap_or(0.0)),
                if same {
                    Verdict::Identical
                } else {
                    Verdict::Changed
                },
            );
        }
        let digest = |w: &Json| w.str("digest").unwrap_or_default().to_string();
        if !digest(wa).is_empty() {
            let same = digest(wa) == digest(wb);
            row(
                "digest",
                digest(wa),
                digest(wb),
                if same {
                    Verdict::Identical
                } else {
                    Verdict::Changed
                },
            );
        }
        let share = |w: &Json| Some(w.num("failed")? / w.num("attempted")?.max(1.0));
        if let (Some(x), Some(y)) = (share(wa), share(wb)) {
            let verdict = if y > x {
                Verdict::Regressed
            } else if y < x {
                Verdict::Improved
            } else {
                Verdict::Unchanged
            };
            let counts = |w: &Json| {
                format!(
                    "{}/{}",
                    w.num("failed").unwrap_or(0.0),
                    w.num("attempted").unwrap_or(0.0)
                )
            };
            row("failed_share", counts(wa), counts(wb), verdict);
        }
    }
    Ok(rows)
}

/// Print the rows; `true` when none is a regression.
pub fn print(rows: &[Row]) -> bool {
    println!(
        "{:<18} {:<16} {:>18} {:>18}  verdict",
        "workload", "metric", "A", "B"
    );
    for r in rows {
        println!(
            "{:<18} {:<16} {:>18} {:>18}  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.verdict.label()
        );
    }
    let regressed = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Regressed)
        .count();
    let unresolved = rows
        .iter()
        .filter(|r| r.verdict == Verdict::Unresolved)
        .count();
    println!(
        "{regressed} regressed, {unresolved} unresolved, {} rows",
        rows.len()
    );
    regressed == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_are_judged_on_their_median_ratio() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let same: Vec<f64> = a.iter().map(|x| x * 1.02).collect();
        let slow: Vec<f64> = a.iter().map(|x| x * 1.2).collect();
        let fast: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        assert_eq!(judge_pairs(&a, &same, false, 0.1), Verdict::Unchanged);
        assert_eq!(judge_pairs(&a, &slow, false, 0.1), Verdict::Regressed);
        assert_eq!(judge_pairs(&a, &fast, false, 0.1), Verdict::Improved);
        // For a rate, a smaller B is the worse one.
        assert_eq!(judge_pairs(&a, &fast, true, 0.1), Verdict::Regressed);
        // Wide and straddling 1: no call.
        let noisy = [0.7, 2.6, 3.0, 5.6, 4.0];
        assert_eq!(judge_pairs(&a, &noisy, false, 0.1), Verdict::Unresolved);
        // Wide but every pair worse: still a regression.
        let all_worse = [1.2, 3.0, 3.9, 6.4, 6.0];
        assert_eq!(judge_pairs(&a, &all_worse, false, 0.1), Verdict::Regressed);
    }

    #[test]
    fn exact_values_use_their_bound() {
        assert_eq!(judge_exact(0.0, 0.0, 0.0), Verdict::Unchanged);
        assert_eq!(judge_exact(0.0, 1.0, 0.0), Verdict::Regressed);
        assert_eq!(judge_exact(100.0, 101.0, 0.02), Verdict::Unchanged);
        assert_eq!(judge_exact(100.0, 103.0, 0.02), Verdict::Regressed);
        assert_eq!(judge_exact(100.0, 90.0, 0.02), Verdict::Improved);
    }

    fn file(seed: u64, walls: &[f64], failed: u64, ttg: f64, digest: &str) -> Json {
        file_with_setup(seed, walls, failed, ttg, digest, &[0.001, 0.001, 0.001])
    }

    fn file_with_setup(
        seed: u64,
        walls: &[f64],
        failed: u64,
        ttg: f64,
        digest: &str,
        setup: &[f64],
    ) -> Json {
        let reps: Vec<Json> = walls
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                Json::obj([
                    ("seed", Json::from(i as u64)),
                    ("wall_s", Json::Num(w)),
                    ("cpu_s", Json::Num(w)),
                    ("events", Json::from(1000u64)),
                    ("peak_rss_mb", Json::Num(20.0)),
                ])
            })
            .collect();
        Json::obj([
            (
                "provenance",
                Json::obj([
                    ("seed", Json::from(seed)),
                    ("smoke", Json::Bool(false)),
                    (
                        "reps",
                        Json::obj([("churn_64", Json::from(walls.len() as u64))]),
                    ),
                ]),
            ),
            (
                "workloads",
                Json::obj([(
                    "churn_64",
                    Json::obj([
                        ("reps", Json::Arr(reps)),
                        ("setup_s", Json::nums(setup)),
                        (
                            "sim",
                            Json::obj([
                                ("ttg_p99_us", Json::Num(ttg)),
                                ("viol_ms", Json::Num(0.0)),
                            ]),
                        ),
                        ("digest", Json::from(digest)),
                        ("attempted", Json::from(9u64)),
                        ("failed", Json::from(failed)),
                        ("degraded", Json::Bool(false)),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn files_compare_row_by_row() {
        let a = file(1, &[1.0, 1.1, 1.2], 0, 800.0, "aa");
        let rows = compare(&a, &a).unwrap();
        let verdict = |rows: &[Row], m: &str| rows.iter().find(|r| r.metric == m).unwrap().verdict;
        for m in [
            "wall_s",
            "events_per_s",
            "cpu_s",
            "peak_rss_mb",
            "setup_s",
            "viol_ms",
            "ttg_p99_us",
            "failed_share",
        ] {
            assert_eq!(verdict(&rows, m), Verdict::Unchanged, "{m}");
        }
        assert_eq!(verdict(&rows, "digest"), Verdict::Identical);
        assert_eq!(verdict(&rows, "events"), Verdict::Identical);
        assert!(print(&rows));

        let b = file(1, &[1.3, 1.43, 1.56], 1, 830.0, "bb");
        let rows = compare(&a, &b).unwrap();
        assert_eq!(verdict(&rows, "wall_s"), Verdict::Regressed);
        assert_eq!(verdict(&rows, "events_per_s"), Verdict::Regressed);
        assert_eq!(verdict(&rows, "peak_rss_mb"), Verdict::Unchanged);
        assert_eq!(verdict(&rows, "ttg_p99_us"), Verdict::Regressed);
        assert_eq!(verdict(&rows, "failed_share"), Verdict::Regressed);
        assert_eq!(verdict(&rows, "digest"), Verdict::Changed);
        assert!(!print(&rows));
    }

    #[test]
    fn other_seeds_and_rep_counts_are_refused() {
        let a = file(1, &[1.0, 1.1, 1.2], 0, 800.0, "aa");
        assert!(compare(&a, &file(7, &[1.0, 1.1, 1.2], 0, 800.0, "aa")).is_err());
        assert!(compare(&a, &file(1, &[1.0, 1.1], 0, 800.0, "aa")).is_err());
    }

    /// A 3 ms set-up that doubles is noise-sized in absolute terms.
    #[test]
    fn tiny_setups_need_five_milliseconds_to_regress() {
        let a = file(1, &[1.0], 0, 800.0, "aa");
        let setup_verdict = |setup_s: f64| {
            let b = file_with_setup(1, &[1.0], 0, 800.0, "aa", &[setup_s; 3]);
            let rows = compare(&a, &b).unwrap();
            rows.iter().find(|r| r.metric == "setup_s").unwrap().verdict
        };
        assert_eq!(setup_verdict(0.002), Verdict::Unchanged);
        assert_eq!(setup_verdict(0.02), Verdict::Regressed);
    }
}
