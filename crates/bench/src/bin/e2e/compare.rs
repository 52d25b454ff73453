//! `e2e compare A.jsonl B.jsonl`: do two sets of runs agree?
//!
//! Per (workload, end-to-end metric): both medians and quartiles, the
//! relative difference of the medians, the metric's bound, and a
//! verdict — `unresolved` when either side's inter-quartile spread
//! exceeds the bound (the runs cannot tell), else `worse` / `better`
//! when B's median moved past the bound, else `same`.

use crate::catalog::{median, quartiles};
use crate::json::{parse, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(workload, metric)` → values, plus what the records say about the
/// metric.
#[derive(Default)]
struct Side {
    values: BTreeMap<(String, String), Vec<f64>>,
    meta: BTreeMap<String, (String, f64)>,
}

fn load(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut side = Side::default();
    for (n, line) in text.lines().enumerate() {
        if !line.trim_start().starts_with('{') {
            continue;
        }
        let record = parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        // Only untraced records carry end-to-end metrics; the contract
        // lines (no `workload` key) and traced records are skipped.
        let (Some(workload), Some(Value::Obj(metrics))) =
            (record.get("workload").and_then(Value::as_str), record.get("metrics"))
        else {
            continue;
        };
        for (name, m) in metrics {
            let (Some(value), Some(bound)) =
                (m.get("value").and_then(Value::as_f64), m.get("bound").and_then(Value::as_f64))
            else {
                continue;
            };
            let better = m.get("better").and_then(Value::as_str).unwrap_or("lower").to_owned();
            side.meta.insert(name.clone(), (better, bound));
            side.values.entry((workload.to_owned(), name.clone())).or_default().push(value);
        }
    }
    if side.values.is_empty() {
        return Err(format!("{path}: no end-to-end records"));
    }
    Ok(side)
}

/// Compare two record files; returns the report and whether any
/// metric is `worse`.
pub fn compare(a: &str, b: &str) -> Result<(String, bool), String> {
    let (a, b) = (load(a)?, load(b)?);
    let mut out = format!(
        "{:<14} {:<22} {:>12} {:>12} {:>8} {:>7} {:>6}  verdict\n",
        "workload", "metric", "median A", "median B", "diff", "spread", "bound"
    );
    let mut any_worse = false;
    for ((workload, metric), va) in &a.values {
        let Some(vb) = b.values.get(&(workload.clone(), metric.clone())) else { continue };
        let Some((better, bound)) = a.meta.get(metric) else { continue };
        let (ma, mb) = (median(va), median(vb));
        let spread = |v: &[f64], m: f64| {
            let (q1, q3) = quartiles(v);
            if m == 0.0 {
                0.0
            } else {
                (q3 - q1) / m.abs()
            }
        };
        let widest = spread(va, ma).max(spread(vb, mb));
        let diff = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
        let worsening = if better == "higher" { -diff } else { diff };
        let verdict = if widest > *bound {
            "unresolved"
        } else if worsening > *bound {
            any_worse = true;
            "worse"
        } else if worsening < -*bound {
            "better"
        } else {
            "same"
        };
        let _ = writeln!(
            out,
            "{workload:<14} {metric:<22} {ma:>12.4} {mb:>12.4} {:>7.2}% {:>6.2}% {:>5.0}%  {verdict}  (n={}/{})",
            diff * 100.0,
            widest * 100.0,
            bound * 100.0,
            va.len(),
            vb.len()
        );
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, value: f64) -> String {
        format!(
            "{{\"workload\":\"{workload}\",\"trace\":0,\"metrics\":{{\"latency\":{{\"value\":{value},\"unit\":\"us\",\"better\":\"lower\",\"bound\":0.1,\"n\":9}}}}}}\n{{\"correct\":true}}\n"
        )
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let dir = std::env::temp_dir().join(format!("e2e-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let write = |name: &str, values: &[f64]| {
            let path = dir.join(name);
            let text: String = values.iter().map(|v| record("w", *v)).collect();
            std::fs::write(&path, text).expect("write records");
            path.to_string_lossy().into_owned()
        };
        let base = write("a.jsonl", &[100.0, 101.0, 99.0, 100.5, 99.5]);
        let same = write("b.jsonl", &[102.0, 103.0, 101.0, 102.5, 101.5]);
        let slow = write("c.jsonl", &[120.0, 121.0, 119.0, 120.5, 119.5]);
        let noisy = write("d.jsonl", &[80.0, 130.0, 100.0, 60.0, 140.0]);
        let (report, worse) = compare(&base, &same).expect("comparable");
        assert!(report.contains("same") && !worse, "{report}");
        let (report, worse) = compare(&base, &slow).expect("comparable");
        assert!(report.contains("worse") && worse, "{report}");
        let (report, worse) = compare(&slow, &base).expect("comparable");
        assert!(report.contains("better") && !worse, "{report}");
        let (report, worse) = compare(&base, &noisy).expect("comparable");
        assert!(report.contains("unresolved") && !worse, "{report}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
