//! `--compare a.json b.json`: two sets of runs, judged row by row —
//! one row per (end-to-end metric, workload) — against the bound the
//! benchmark fixes for the metric. `a` is the base of every ratio.

use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats::{iqr_rel, median, quartiles, sorted};
use crate::workload::Workload;
use dlo_core::eval::stats::json::{self, Value};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Within,
    Regressed,
    /// The spread of either set exceeds the bound, and the sets
    /// overlap: the runs cannot tell a change of that size from noise.
    Unresolved,
}

/// Judges one row. `a` and `b` are the metric's readings in the base
/// set and the candidate set.
pub fn judge(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let (base, cand) = (median(a), median(b));
    // Positive when the candidate is worse, as a share of the base.
    let worse_by = match metric.better {
        Better::Lower => (cand - base) / base,
        Better::Higher => (base - cand) / base,
    };
    let (a, b) = (sorted(a), sorted(b));
    let every_b_better = match metric.better {
        Better::Lower => b[b.len() - 1] < a[0],
        Better::Higher => b[0] > a[a.len() - 1],
    };
    let (q1, q3) = quartiles(&a);
    if iqr_rel(&a).max(iqr_rel(&b)) > metric.bound {
        if every_b_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > metric.bound {
        Verdict::Regressed
    } else if -worse_by * base > q3 - q1 {
        // Better by more than the base set's own quartile distance.
        Verdict::Improved
    } else {
        Verdict::Within
    }
}

/// The readings of `metric` on `workload` in a results file's untraced
/// runs.
fn readings(doc: &Value, workload: &str, metric: &str) -> Vec<f64> {
    let runs = doc.get("runs").and_then(Value::as_arr).unwrap_or(&[]);
    let of_workload = runs.iter().filter(|r| {
        r.get("workload").and_then(Value::as_str) == Some(workload)
            && r.get("trace").and_then(Value::as_u64) == Some(0)
    });
    of_workload
        .filter_map(|r| {
            r.get("result")?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("parsing {path}: {e}"))
}

/// Prints the comparison; `Ok(true)` when no row regressed.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!("base a = {path_a}, candidate b = {path_b}; ratio = median b / median a");
    println!(
        "{:<12} {:<12} {:>4} {:>13} {:>13} {:>7} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "n", "median a", "median b", "ratio", "iqr a", "iqr b", "bound"
    );
    let mut clean = true;
    for workload in Workload::ALL.map(Workload::name) {
        for metric in &END_TO_END {
            let (xs, ys) = (
                readings(&a, workload, metric.name),
                readings(&b, workload, metric.name),
            );
            if xs.is_empty() || ys.is_empty() {
                return Err(format!("no untraced run of {workload} has {}", metric.name));
            }
            let verdict = judge(metric, &xs, &ys);
            clean &= verdict != Verdict::Regressed;
            println!(
                "{:<12} {:<12} {:>4} {:>13.6} {:>13.6} {:>7.4} {:>7.2}% {:>7.2}% {:>5.0}%  {}",
                workload,
                metric.name,
                format!("{}/{}", xs.len(), ys.len()),
                median(&xs),
                median(&ys),
                median(&ys) / median(&xs),
                100.0 * iqr_rel(&xs),
                100.0 * iqr_rel(&ys),
                100.0 * metric.bound,
                format!("{verdict:?}").to_lowercase(),
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower() -> &'static EndToEnd {
        &END_TO_END[0] // op_median_s, lower is better, bound 25 %
    }
    fn higher() -> &'static EndToEnd {
        &END_TO_END[1] // facts_per_s, higher is better, bound 25 %
    }
    fn around(center: f64, step: f64) -> Vec<f64> {
        (-2..=2).map(|i| center + f64::from(i) * step).collect()
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let base = around(1.0, 0.005);
        assert_eq!(judge(lower(), &base, &around(1.01, 0.005)), Verdict::Within);
        assert_eq!(judge(lower(), &base, &around(1.2, 0.005)), Verdict::Within);
        assert_eq!(
            judge(lower(), &base, &around(1.3, 0.005)),
            Verdict::Regressed
        );
        assert_eq!(
            judge(lower(), &base, &around(0.8, 0.005)),
            Verdict::Improved
        );
        assert_eq!(
            judge(higher(), &base, &around(1.2, 0.005)),
            Verdict::Improved
        );
        assert_eq!(
            judge(higher(), &base, &around(0.7, 0.005)),
            Verdict::Regressed
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_is_better() {
        let noisy = around(1.0, 0.1);
        assert_eq!(
            judge(lower(), &noisy, &around(1.05, 0.1)),
            Verdict::Unresolved
        );
        assert_eq!(judge(lower(), &noisy, &around(0.5, 0.1)), Verdict::Improved);
        assert_eq!(
            judge(lower(), &around(1.0, 0.005), &noisy),
            Verdict::Unresolved
        );
    }

    #[test]
    fn readings_come_from_untraced_runs_of_the_workload() {
        let doc = json::parse(
            r#"{"runs":[
              {"workload":"apsp-dense","trace":0,"result":{"metrics":{"op_median_s":{"value":0.5,"unit":"s"}}}},
              {"workload":"apsp-dense","trace":1,"result":{"metrics":{"op_median_s":{"value":9,"unit":"s"}}}},
              {"workload":"live-edits","trace":0,"result":{"metrics":{"op_median_s":{"value":0.25,"unit":"s"}}}}
            ]}"#,
        )
        .unwrap();
        assert_eq!(readings(&doc, "apsp-dense", "op_median_s"), [0.5]);
        assert_eq!(readings(&doc, "live-edits", "op_median_s"), [0.25]);
        assert!(readings(&doc, "live-edits", "setup_s").is_empty());
    }
}
