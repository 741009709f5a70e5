//! `compare`: two set files (as `run` writes them) against the bounds
//! table, by the rule of choosing-metrics §6: a metric regressed when the
//! second set's median is worse than the first's by more than its bound;
//! when either set's own run-to-run spread is wider than the bound the
//! metric is *unresolved* instead — unless every run of one set is on
//! one side of every run of the other.

use std::fmt::Write as _;

use crate::json::Json;
use crate::metrics::{bound, END_TO_END, PER_LAYER};
use crate::stats::{quantile, sorted, spread};
use crate::workloads::NAMES;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Ok,
    Unresolved,
    Regression,
}

/// The verdict on one metric of one workload. `a` and `b` are the
/// metric's values over each set's runs; `lower_is_better` orients them.
pub fn judge(a: &[f64], b: &[f64], bound: f64, lower_is_better: bool) -> (Status, f64) {
    let (ma, mb) = (quantile(&sorted(a), 0.5), quantile(&sorted(b), 0.5));
    let worse = if ma == 0.0 {
        0.0
    } else if lower_is_better {
        (mb - ma) / ma
    } else {
        (ma - mb) / ma
    };
    let (sa, sb) = (sorted(a), sorted(b));
    let (b_all_better, b_all_worse) = if lower_is_better {
        (sb[sb.len() - 1] < sa[0], sb[0] > sa[sa.len() - 1])
    } else {
        (sb[0] > sa[sa.len() - 1], sb[sb.len() - 1] < sa[0])
    };
    let noisy = spread(a).max(spread(b)) > bound;
    let status = if noisy && !b_all_better && !(b_all_worse && worse > bound) {
        Status::Unresolved
    } else if worse > bound {
        Status::Regression
    } else {
        Status::Ok
    };
    (status, worse)
}

/// The runs of `set` for one workload: `trace` 0 or 1.
fn runs<'a>(set: &'a Json, workload: &str, trace: u64) -> Vec<&'a Json> {
    set.get("runs")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(|r| {
            r.get("workload").and_then(Json::as_str) == Some(workload)
                && r.get("trace").and_then(Json::as_u64) == Some(trace)
        })
        .collect()
}

fn metric_values(runs: &[&Json], name: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("result")?.get("metrics")?.get(name)?.get("value")?.as_f64())
        .collect()
}

/// Values of `metric` over the `trace` (0 or 1) runs of `workload` in
/// `set`.
pub fn values(set: &Json, workload: &str, trace: u64, metric: &str) -> Vec<f64> {
    metric_values(&runs(set, workload, trace), metric)
}

fn failed(runs: &[&Json]) -> u64 {
    runs.iter().filter_map(|r| r.get("result")?.get("failed")?.as_u64()).sum()
}

/// Per-layer counts of a workload's traced run, for workloads explored
/// at one worker (where they must repeat exactly).
fn exact_counts(set: &Json, workload: &str) -> Option<Vec<(&'static str, u64)>> {
    let traced = runs(set, workload, 1);
    let run = traced.first()?;
    if run.get("detail")?.get("stamp")?.get("workers")?.as_u64()? != 1 {
        return None;
    }
    let metrics = run.get("result")?.get("metrics")?;
    Some(
        PER_LAYER
            .iter()
            .filter(|d| d.unit == "count")
            .filter_map(|d| Some((d.name, metrics.get(d.name)?.get("value")?.as_u64()?)))
            .collect(),
    )
}

/// One row per workload; `Err`-free: missing data shows in the row.
/// Returns the table and whether anything regressed.
pub fn compare(a: &Json, b: &Json) -> (String, bool) {
    let mut table = String::new();
    let mut regressed = false;
    let _ = writeln!(
        table,
        "{:<16} {:<46} {:<46} {:<46} {:<7} counts",
        "workload", "pass_s_q1", "peak_rss_mb", "setup_s", "failed"
    );
    for workload in NAMES {
        let (ra, rb) = (runs(a, workload, 0), runs(b, workload, 0));
        let _ = write!(table, "{workload:<16} ");
        for (def, _) in END_TO_END {
            let (va, vb) = (metric_values(&ra, def.name), metric_values(&rb, def.name));
            if va.is_empty() || vb.is_empty() {
                let _ = write!(table, "{:<46} ", "no runs");
                regressed = true;
                continue;
            }
            let limit = bound(def.name);
            let (status, worse) = judge(&va, &vb, limit, def.better == "lower");
            regressed |= status == Status::Regression;
            let word = match status {
                Status::Ok => "ok",
                Status::Unresolved => "UNRESOLVED",
                Status::Regression => "REGRESSION",
            };
            let cell = format!(
                "{:.4}->{:.4} {:+.1}% (±{:.1}/{:.1}%) {word}",
                quantile(&sorted(&va), 0.5),
                quantile(&sorted(&vb), 0.5),
                worse * 100.0,
                spread(&va) * 100.0,
                spread(&vb) * 100.0,
            );
            let _ = write!(table, "{cell:<46} ");
        }
        // Traced runs check verdicts too.
        let fails = failed(&ra)
            + failed(&rb)
            + failed(&runs(a, workload, 1))
            + failed(&runs(b, workload, 1));
        regressed |= fails > 0;
        let _ = write!(table, "{:<7} ", fails);
        let counts = match (exact_counts(a, workload), exact_counts(b, workload)) {
            (Some(ca), Some(cb)) if ca == cb => "identical".to_owned(),
            (Some(ca), Some(cb)) => {
                regressed = true;
                let differing: Vec<&str> =
                    ca.iter().zip(&cb).filter(|(x, y)| x != y).map(|(x, _)| x.0).collect();
                format!("DIFFER: {}", differing.join(" "))
            }
            _ => "not exact (workers > 1 or no traced run)".to_owned(),
        };
        let _ = writeln!(table, "{counts}");
    }
    (table, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_shift_beyond_the_bound_with_tight_spread_is_a_regression() {
        let a = [1.00, 1.01, 1.00, 0.99, 1.00];
        let b = [1.20, 1.21, 1.19, 1.20, 1.22];
        assert_eq!(judge(&a, &b, 0.10, true).0, Status::Regression);
        assert_eq!(judge(&a, &a, 0.10, true).0, Status::Ok);
        // Within the bound.
        let c = [1.05, 1.06, 1.05, 1.04, 1.05];
        assert_eq!(judge(&a, &c, 0.10, true).0, Status::Ok);
        // An improvement is never a regression.
        assert_eq!(judge(&b, &a, 0.10, true).0, Status::Ok);
        // Higher-is-better metrics are oriented the other way.
        assert_eq!(judge(&b, &a, 0.10, false).0, Status::Regression);
    }

    #[test]
    fn wide_spread_makes_a_metric_unresolved_unless_the_sets_do_not_overlap() {
        let noisy = [1.0, 1.4, 0.9, 1.5, 1.1, 1.3];
        let also_noisy = [1.2, 1.6, 1.0, 1.7, 1.3, 1.5];
        assert_eq!(judge(&noisy, &also_noisy, 0.10, true).0, Status::Unresolved);
        assert_eq!(judge(&noisy, &noisy, 0.10, true).0, Status::Unresolved);
        let clearly_better = [0.5, 0.6, 0.55, 0.7, 0.52, 0.58];
        assert_eq!(judge(&noisy, &clearly_better, 0.10, true).0, Status::Ok);
        let clearly_worse = [3.0, 3.4, 2.9, 3.5, 3.1, 3.3];
        assert_eq!(judge(&noisy, &clearly_worse, 0.10, true).0, Status::Regression);
    }

    fn set(pass: &[f64], failed: u64, popped: u64) -> Json {
        let mut runs: Vec<Json> = Vec::new();
        for workload in NAMES {
            for &p in pass {
                let metrics = Json::obj(END_TO_END.iter().map(|(d, _)| {
                    (d.name, Json::obj([("value", Json::Num(p)), ("unit", Json::str(d.unit))]))
                }));
                runs.push(Json::obj([
                    ("workload", Json::str(workload)),
                    ("trace", Json::Int(0)),
                    ("result", Json::obj([("failed", Json::Int(failed)), ("metrics", metrics)])),
                ]));
            }
            let counts = Json::obj([(
                "core.revisit.popped",
                Json::obj([("value", Json::Int(popped)), ("unit", Json::str("count"))]),
            )]);
            runs.push(Json::obj([
                ("workload", Json::str(workload)),
                ("trace", Json::Int(1)),
                ("result", Json::obj([("failed", Json::Int(0)), ("metrics", counts)])),
                ("detail", Json::obj([("stamp", Json::obj([("workers", Json::Int(1))]))])),
            ]));
        }
        Json::obj([("runs", Json::Arr(runs))])
    }

    #[test]
    fn compare_prints_a_row_per_workload_and_flags_what_changed() {
        let base = set(&[1.0, 1.01, 0.99], 0, 100);
        let (table, regressed) = compare(&base, &base);
        assert!(!regressed, "{table}");
        assert_eq!(table.lines().count(), 1 + NAMES.len());
        assert!(table
            .lines()
            .skip(1)
            .all(|l| l.contains("identical") && !l.contains("REGRESSION")));

        let (table, regressed) = compare(&base, &set(&[1.3, 1.31, 1.29], 0, 100));
        assert!(regressed && table.contains("REGRESSION"), "{table}");
        let (table, regressed) = compare(&base, &set(&[1.0, 1.01, 0.99], 0, 101));
        assert!(regressed && table.contains("DIFFER: core.revisit.popped"), "{table}");
        let (_, regressed) = compare(&base, &set(&[1.0, 1.01, 0.99], 1, 100));
        assert!(regressed, "a failed item is a regression");
        let (table, regressed) = compare(&base, &Json::obj([("runs", Json::Arr(vec![]))]));
        assert!(regressed && table.contains("no runs"));
    }
}
