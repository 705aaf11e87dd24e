//! Named metrics, their units, and the JSON the run prints.
//!
//! The names here are the contract with `BENCHMARK.json`: a test checks
//! that every metric it lists is emitted, with its unit, and no other.

use crate::jobs::{span, Counts};
use crate::stats::{percentile, MIN_BEYOND};
use crate::trace::Trace;
use perfmodel::SearchStats;
use serde_json::Value;

/// Builds a JSON object from `(key, value)` pairs.
pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

pub fn num(x: f64) -> Value {
    serde_json::Number::from_f64(x).map_or(Value::Null, Value::Number)
}

pub fn text(s: impl Into<String>) -> Value {
    Value::String(s.into())
}

/// An ordered list of `(name, value, unit)`.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    pub fn to_json(&self) -> Value {
        obj(self
            .0
            .iter()
            .map(|&(name, value, unit)| (name, obj([("value", num(value)), ("unit", text(unit))]))))
    }
}

/// What the untraced measured window produced.
pub struct Window {
    pub jobs: u64,
    pub failed: u64,
    pub attempted: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub latencies_ms: Vec<f64>,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
}

/// The end-to-end metrics, or an error when the window holds too few
/// samples to report its tail.
pub fn end_to_end(w: &Window) -> Result<Metrics, String> {
    let mut sorted = w.latencies_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let p = |q| {
        percentile(&sorted, q).ok_or_else(|| {
            format!(
                "{} samples cannot support p{q} with {MIN_BEYOND} samples beyond it",
                sorted.len()
            )
        })
    };
    let mut m = Metrics::default();
    m.push("jobs_per_s", w.jobs as f64 / w.wall_s, "1/s");
    m.push("job_p50_ms", p(50.0)?, "ms");
    m.push("job_p99_ms", p(99.0)?, "ms");
    m.push("cpu_ms_per_job", w.cpu_s * 1e3 / w.jobs as f64, "ms");
    m.push("setup_s", w.setup_s, "s");
    m.push("peak_rss_mb", w.peak_rss_mb, "MB");
    m.push(
        "failed_ratio",
        w.failed as f64 / w.attempted.max(1) as f64,
        "ratio",
    );
    Ok(m)
}

/// Counter increments between two [`perfmodel::search_stats`] snapshots.
pub fn stats_delta(after: &SearchStats, before: &SearchStats) -> SearchStats {
    SearchStats {
        memo_local_hits: after.memo_local_hits - before.memo_local_hits,
        memo_shared_hits: after.memo_shared_hits - before.memo_shared_hits,
        memo_misses: after.memo_misses - before.memo_misses,
        profile_builds: after.profile_builds - before.profile_builds,
        profile_build_nanos: after.profile_build_nanos - before.profile_build_nanos,
        bound_pruned: after.bound_pruned - before.bound_pruned,
        dominated_pruned: after.dominated_pruned - before.dominated_pruned,
        topk_pruned: after.topk_pruned - before.topk_pruned,
    }
}

/// Per-layer tallies of one set of traced jobs.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTally {
    pub jobs: u64,
    pub plan_jobs: u64,
    pub net_calls: u64,
    pub stats: SearchStats,
    pub counts: Counts,
}

impl LayerTally {
    pub fn add(&mut self, is_plan: bool, is_net: bool, stats: SearchStats, counts: Counts) {
        self.merge(&LayerTally {
            jobs: 1,
            plan_jobs: u64::from(is_plan),
            net_calls: u64::from(is_net),
            stats,
            counts,
        });
    }

    pub fn merge(&mut self, o: &LayerTally) {
        self.jobs += o.jobs;
        self.plan_jobs += o.plan_jobs;
        self.net_calls += o.net_calls;
        let (t, s) = (&mut self.stats, &o.stats);
        t.memo_local_hits += s.memo_local_hits;
        t.memo_shared_hits += s.memo_shared_hits;
        t.memo_misses += s.memo_misses;
        t.profile_builds += s.profile_builds;
        t.profile_build_nanos += s.profile_build_nanos;
        t.bound_pruned += s.bound_pruned;
        t.dominated_pruned += s.dominated_pruned;
        t.topk_pruned += s.topk_pruned;
        let (k, c) = (&mut self.counts, &o.counts);
        k.candidates += c.candidates;
        k.feasible += c.feasible;
        k.transfers += c.transfers;
        k.requeues += c.requeues;
        k.items += c.items;
        k.requests += c.requests;
    }

    /// The count metrics (no timings): exact when the work is
    /// deterministic, spread when it depends on thread races.
    pub fn counts(&self) -> Metrics {
        let per = |x: u64, n: u64| if n == 0 { 0.0 } else { x as f64 / n as f64 };
        let s = &self.stats;
        let c = &self.counts;
        let probes = s.memo_local_hits + s.memo_shared_hits + s.memo_misses;
        let pruned = s.bound_pruned + s.dominated_pruned + s.topk_pruned;
        let mut m = Metrics::default();
        m.push(
            "partition.candidates_per_job",
            per(c.candidates, self.plan_jobs),
            "count",
        );
        m.push(
            "partition.profiles_per_job",
            per(s.profile_builds, self.plan_jobs),
            "count",
        );
        m.push(
            "pricing.l1_hits_per_job",
            per(s.memo_local_hits, self.jobs),
            "count",
        );
        m.push(
            "pricing.l2_hits_per_job",
            per(s.memo_shared_hits, self.jobs),
            "count",
        );
        m.push(
            "pricing.misses_per_job",
            per(s.memo_misses, self.jobs),
            "count",
        );
        m.push(
            "pricing.hit_ratio",
            per(s.memo_local_hits + s.memo_shared_hits, probes),
            "ratio",
        );
        m.push(
            "search.feasible_per_job",
            per(c.feasible, self.plan_jobs),
            "count",
        );
        m.push(
            "search.bound_pruned_per_job",
            per(s.bound_pruned, self.plan_jobs),
            "count",
        );
        m.push(
            "search.dominated_pruned_per_job",
            per(s.dominated_pruned, self.plan_jobs),
            "count",
        );
        m.push(
            "search.topk_pruned_per_job",
            per(s.topk_pruned, self.plan_jobs),
            "count",
        );
        m.push(
            "search.eval_ratio",
            if c.feasible == 0 {
                0.0
            } else {
                c.feasible.saturating_sub(pruned) as f64 / c.feasible as f64
            },
            "ratio",
        );
        m.push(
            "netsim.transfers_per_call",
            per(c.transfers, self.net_calls),
            "count",
        );
        m.push(
            "netsim.requeue_ratio",
            per(c.requeues, c.transfers),
            "ratio",
        );
        m
    }
}

/// Unaccounted job time above which the trace does not reconcile.
pub const RECONCILE_BAND: f64 = 0.05;

/// Every per-layer metric, in `BENCHMARK.json` order.
pub fn per_layer(tally: &LayerTally, trace: &Trace, overhead_ratio: f64) -> Metrics {
    let by = trace.by_name();
    let dur_s = |name| by.get(name).map_or(0.0, |e| e.0 as f64 / 1e9);
    let self_s = |name| by.get(name).map_or(0.0, |e| e.1 as f64 / 1e9);
    let calls = |name| by.get(name).map_or(0, |e| e.2);
    let mean_ms = |name| match calls(name) {
        0 => 0.0,
        n => dur_s(name) * 1e3 / n as f64,
    };
    let rate = |count: u64, name| match dur_s(name) {
        s if s > 0.0 => count as f64 / s,
        _ => 0.0,
    };
    let plan_jobs = tally.plan_jobs.max(1) as f64;
    let c = &tally.counts;
    let counts = tally.counts();
    let count = |name| counts.get(name).expect("count metric is defined");
    let mut m = Metrics::default();
    m.push(
        "planner.parse_us",
        dur_s(span::PARSE) * 1e6 / plan_jobs,
        "us",
    );
    m.push("planner.emit_us", dur_s(span::EMIT) * 1e6 / plan_jobs, "us");
    m.push(
        "partition.enumerate_ms",
        dur_s(span::ENUMERATE) * 1e3 / plan_jobs,
        "ms",
    );
    for name in ["partition.candidates_per_job", "partition.profiles_per_job"] {
        m.push(name, count(name), "count");
    }
    m.push(
        "partition.profile_build_ms",
        dur_s(span::PROFILE_BUILD) * 1e3 / plan_jobs,
        "ms",
    );
    for name in [
        "pricing.l1_hits_per_job",
        "pricing.l2_hits_per_job",
        "pricing.misses_per_job",
    ] {
        m.push(name, count(name), "count");
    }
    m.push("pricing.hit_ratio", count("pricing.hit_ratio"), "ratio");
    for name in [
        "search.feasible_per_job",
        "search.bound_pruned_per_job",
        "search.dominated_pruned_per_job",
        "search.topk_pruned_per_job",
    ] {
        m.push(name, count(name), "count");
    }
    m.push("search.eval_ratio", count("search.eval_ratio"), "ratio");
    // The execute span re-runs the enumeration timed on its own above.
    let search_s = (self_s(span::EXECUTE) - dur_s(span::ENUMERATE)).max(0.0);
    m.push("search.self_ms", search_s * 1e3 / plan_jobs, "ms");
    m.push("netsim.call_ms", mean_ms(span::NETSIM), "ms");
    m.push(
        "netsim.transfers_per_call",
        count("netsim.transfers_per_call"),
        "count",
    );
    m.push(
        "netsim.requeue_ratio",
        count("netsim.requeue_ratio"),
        "ratio",
    );
    m.push(
        "netsim.events_per_s",
        rate(c.transfers + c.requeues, span::NETSIM),
        "1/s",
    );
    m.push("trainsim.iter_ms", mean_ms(span::ITERATION), "ms");
    m.push(
        "trainsim.items_per_s",
        rate(c.items, span::ITERATION),
        "1/s",
    );
    m.push("trainsim.training_ms", mean_ms(span::TRAINING), "ms");
    m.push("servesim.replay_ms", mean_ms(span::SERVE), "ms");
    m.push(
        "servesim.requests_per_s",
        rate(c.requests, span::SERVE),
        "1/s",
    );
    m.push("trace.overhead_ratio", overhead_ratio, "ratio");
    m.push("trace.unaccounted_ratio", unaccounted_ratio(trace), "ratio");
    m
}

/// Share of job wall time not covered by any layer span.
pub fn unaccounted_ratio(trace: &Trace) -> f64 {
    let by = trace.by_name();
    match by.get(span::JOB) {
        Some(&(total, self_ns, _)) if total > 0 => self_ns as f64 / total as f64,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::field;

    /// `(name, unit)` of one `BENCHMARK.json` metric list.
    fn listed(key: &str) -> Vec<(String, String)> {
        let v: Value = serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
        let Some(Value::Array(list)) = field(&v, key) else {
            panic!("BENCHMARK.json has no {key}");
        };
        list.iter()
            .map(|m| {
                let s = |k| match field(m, k) {
                    Some(Value::String(s)) => s.clone(),
                    _ => panic!("metric without {k}"),
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn emitted(m: &Metrics) -> Vec<(String, String)> {
        m.0.iter()
            .map(|&(n, _, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn every_benchmark_metric_is_emitted_with_its_unit() {
        let w = Window {
            jobs: 1000,
            failed: 0,
            attempted: 1000,
            wall_s: 2.0,
            cpu_s: 3.0,
            latencies_ms: (1..=1000).map(f64::from).collect(),
            setup_s: 0.5,
            peak_rss_mb: 20.0,
        };
        let mut e2e = emitted(&end_to_end(&w).unwrap());
        assert_eq!(e2e.pop(), Some(("failed_ratio".into(), "ratio".into())));
        assert_eq!(e2e, listed("end_to_end"));
        let layers = per_layer(&LayerTally::default(), &Trace::new(true), 1.0);
        assert_eq!(emitted(&layers), listed("per_layer"));
    }

    #[test]
    fn too_few_samples_is_an_error_not_a_tail() {
        let w = Window {
            jobs: 999,
            failed: 0,
            attempted: 999,
            wall_s: 1.0,
            cpu_s: 1.0,
            latencies_ms: vec![1.0; 999],
            setup_s: 0.5,
            peak_rss_mb: 20.0,
        };
        assert!(end_to_end(&w).is_err());
    }
}
