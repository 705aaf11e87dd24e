//! `--compare`: two result sets (the `fmbench/results/<workload>.jsonl`
//! reports of two commits) → one row per workload × end-to-end metric,
//! with each side's median and quartiles and a verdict against the bound
//! `BENCHMARK.json` fixes for that metric.

use crate::stats::quartiles;
use serde_json::Value;
use std::collections::BTreeMap;

pub fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// One gated metric from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

pub fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let v: Value = serde_json::from_str(benchmark_json).map_err(|e| e.to_string())?;
    let Some(Value::Array(list)) = field(&v, "end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    list.iter()
        .map(|m| {
            let s = |k| match field(m, k) {
                Some(Value::String(s)) => Ok(s.clone()),
                _ => Err(format!("end_to_end entry without {k}")),
            };
            Ok(Bound {
                name: s("name")?,
                lower_is_better: s("better")? == "lower",
                bound: field(m, "bound")
                    .and_then(Value::as_f64)
                    .ok_or("end_to_end entry without bound")?,
            })
        })
        .collect()
}

/// workload → metric → values, from untraced reports.
type ResultSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

pub fn load(jsonl: &str) -> Result<ResultSet, String> {
    let mut out = ResultSet::new();
    for line in jsonl.lines().filter(|l| !l.trim().is_empty()) {
        let v: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
        let traced = field(&v, "environment")
            .and_then(|e| field(e, "traced"))
            .and_then(Value::as_bool)
            .unwrap_or(false);
        let (Some(Value::String(workload)), Some(Value::Object(metrics)), false) =
            (field(&v, "workload"), field(&v, "all_metrics"), traced)
        else {
            continue;
        };
        let slot = out.entry(workload.clone()).or_default();
        for (name, m) in metrics {
            if let Some(x) = field(m, "value").and_then(Value::as_f64) {
                slot.entry(name.clone()).or_default().push(x);
            }
        }
    }
    Ok(out)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    WithinBound,
    Unresolved,
}

/// Quartiles, tolerating a single run (all three are its value).
fn q(values: &[f64]) -> [f64; 3] {
    quartiles(values).unwrap_or([values[0]; 3])
}

/// The verdict for one metric: `before` and `after` are run values, in
/// the order they were run (run `i` of each side forms a pair, so the
/// sides should be collected alternating).
///
/// * `Unresolved` when either side's quartile spread exceeds the bound,
///   unless every run of one side beats every run of the other.
/// * `Worse` when the median worsened by more than the bound.
/// * `Better` when `after` wins at least nine tenths of the pairs (ties
///   count for neither) and the median improved by more than the
///   spread between `before`'s own runs.
/// * `WithinBound` otherwise.
pub fn verdict(before: &[f64], after: &[f64], b: &Bound) -> Verdict {
    let (qa, qb) = (q(before), q(after));
    // Oriented so that positive means "worse".
    let worse_by = |from: f64, to: f64| {
        let d = (to - from) / from.abs().max(f64::MIN_POSITIVE);
        if b.lower_is_better {
            d
        } else {
            -d
        }
    };
    let spread = |q: [f64; 3]| (q[2] - q[0]) / q[1].abs().max(f64::MIN_POSITIVE);
    let all_better = after
        .iter()
        .all(|&x| before.iter().all(|&y| worse_by(y, x) < 0.0));
    let all_worse = after
        .iter()
        .all(|&x| before.iter().all(|&y| worse_by(y, x) > 0.0));
    let change = worse_by(qa[1], qb[1]);
    if spread(qa).max(spread(qb)) > b.bound {
        return match (all_better, all_worse) {
            (true, _) => Verdict::Better,
            (_, true) => Verdict::Worse,
            _ => Verdict::Unresolved,
        };
    }
    if change > b.bound {
        return Verdict::Worse;
    }
    let pairs = before.len().min(after.len());
    let wins = before
        .iter()
        .zip(after)
        .filter(|(&x, &y)| worse_by(x, y) < 0.0)
        .count();
    if pairs > 0 && wins * 10 >= pairs * 9 && -change > spread(qa) {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

pub fn main(before: &str, after: &str, bounds_path: &str) -> Result<bool, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let bounds = bounds(&read(bounds_path)?)?;
    let (a, b) = (load(&read(before)?)?, load(&read(after)?)?);
    println!(
        "{:<16} {:<16} {:>34} {:>34} {:>9}  verdict",
        "workload", "metric", "before median [q1, q3] (n)", "after median [q1, q3] (n)", "change"
    );
    let mut any_worse = false;
    for (workload, metrics) in &a {
        let Some(other) = b.get(workload) else {
            println!("{workload:<16} (no runs in {after})");
            continue;
        };
        for bound in &bounds {
            let (Some(x), Some(y)) = (metrics.get(&bound.name), other.get(&bound.name)) else {
                continue;
            };
            let (qa, qb) = (q(x), q(y));
            let v = verdict(x, y, bound);
            any_worse |= v == Verdict::Worse;
            let cell =
                |q: [f64; 3], n: usize| format!("{:.4} [{:.4}, {:.4}] ({n})", q[1], q[0], q[2]);
            println!(
                "{workload:<16} {:<16} {:>34} {:>34} {:>+8.2}%  {v:?} (bound {:.0}%)",
                bound.name,
                cell(qa, x.len()),
                cell(qb, y.len()),
                (qb[1] - qa[1]) / qa[1] * 100.0,
                bound.bound * 100.0
            );
        }
    }
    Ok(!any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Bound {
        Bound {
            name: "t".into(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn verdicts() {
        let base = [10.0, 10.1, 9.9, 10.05, 9.95];
        assert_eq!(verdict(&base, &base, &lower(0.1)), Verdict::WithinBound);
        let slower = [12.0, 12.1, 11.9, 12.05, 11.95];
        assert_eq!(verdict(&base, &slower, &lower(0.1)), Verdict::Worse);
        let faster = [8.0, 8.1, 7.9, 8.05, 7.95];
        assert_eq!(verdict(&base, &faster, &lower(0.1)), Verdict::Better);
        // A faster median without nine tenths of the pairs is no gain.
        let mixed = [9.0, 10.2, 9.9, 10.1, 9.8];
        assert_eq!(verdict(&base, &mixed, &lower(0.2)), Verdict::WithinBound);
        // Higher-is-better flips the orientation.
        let higher = Bound {
            lower_is_better: false,
            ..lower(0.1)
        };
        assert_eq!(verdict(&base, &faster, &higher), Verdict::Worse);
        // Spread wider than the bound, overlapping sides: unresolved.
        let noisy = [5.0, 15.0, 9.0, 11.0, 10.0];
        assert_eq!(verdict(&base, &noisy, &lower(0.1)), Verdict::Unresolved);
    }

    #[test]
    fn loads_untraced_reports_and_bounds() {
        let jsonl = "{\"workload\":\"w\",\"environment\":{\"traced\":false},\"all_metrics\":{\"a\":{\"value\":1.5,\"unit\":\"ms\"}}}\n\
                     {\"workload\":\"w\",\"environment\":{\"traced\":true},\"metrics\":{\"a\":{\"value\":9,\"unit\":\"ms\"}}}\n";
        let set = load(jsonl).unwrap();
        assert_eq!(set["w"]["a"], vec![1.5]);
        let b = bounds(include_str!("../../BENCHMARK.json")).unwrap();
        assert!(b.iter().all(|b| b.bound > 0.0 && b.bound <= 0.25));
    }
}
