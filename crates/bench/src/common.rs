//! Shared helpers for the figure generators.

use perfmodel::{Evaluation, ParallelConfig, Planner, TpStrategy};
use report::{num, stacked_bar};
use serde_json::{json, Value};
use systems::SystemSpec;
use txmodel::TransformerConfig;

/// The figure pipeline's search entry point: best feasible evaluation of
/// the standard single-scale space ([`Planner::best_evaluation`]), or
/// `None` if nothing fits HBM. Selection is pinned bit for bit by
/// `tests/wrapper_determinism.rs`, so the `out/` artifacts regenerate
/// byte-identically.
pub fn plan_best(
    model: &TransformerConfig,
    sys: &SystemSpec,
    gpus: u64,
    global_batch: u64,
    strategy: TpStrategy,
) -> Option<Evaluation> {
    planner(model, sys, gpus, global_batch, strategy).best_evaluation()
}

/// The standard single-scale, single-strategy planner the figures share;
/// figures with extra knobs (interleave, ZeRO-3) extend its space.
pub fn planner<'a>(
    model: &'a TransformerConfig,
    sys: &'a SystemSpec,
    gpus: u64,
    global_batch: u64,
    strategy: TpStrategy,
) -> Planner<'a> {
    Planner::new(model, sys)
        .gpus(gpus)
        .global_batch(global_batch)
        .strategy(strategy)
        .top_k(1)
}

/// Pinned-configuration evaluation under its best placement (the
/// Figs. 1–3 "assignment is optimal" path): [`Planner::evaluate_config`].
pub fn pinned_eval(
    model: &TransformerConfig,
    sys: &SystemSpec,
    cfg: &ParallelConfig,
    global_batch: u64,
) -> Evaluation {
    Planner::new(model, sys)
        .global_batch(global_batch)
        .evaluate_config(cfg)
}

/// Column set for configuration-sweep artifacts (the paper's paired
/// "Parallelization Configuration" + "Time" panels flattened into rows).
pub const EVAL_COLUMNS: [&str; 16] = [
    "label",
    "n1",
    "n2",
    "np",
    "nd",
    "bm",
    "microbatches",
    "mem_gb",
    "feasible",
    "t_iter_s",
    "pct_compute",
    "pct_tp_comm",
    "pct_pp_bubble",
    "pct_dp_comm",
    "pct_memory",
    "pct_pp_comm",
];

/// Converts an evaluation into an [`EVAL_COLUMNS`] row.
pub fn eval_row(label: &str, e: &Evaluation) -> Vec<Value> {
    let pct = e.breakdown.percentages();
    vec![
        json!(label),
        json!(e.config.n1),
        json!(e.config.n2),
        json!(e.config.np),
        json!(e.config.nd),
        json!(e.config.microbatch),
        json!(e.microbatches),
        num(e.memory.total_gb()),
        json!(e.feasible),
        num(e.iteration_time),
        num(pct[0].1),
        num(pct[1].1),
        num(pct[2].1),
        num(pct[3].1),
        num(pct[4].1),
        num(pct[5].1),
    ]
}

/// The paper's time-panel stacked bar for one evaluation:
/// `C`ompute, `T`P comm, `B`ubble, `D`P comm, `M`emory, `P`P comm.
pub fn breakdown_bar(e: &Evaluation, width: usize) -> String {
    let b = &e.breakdown;
    stacked_bar(
        &[
            ('C', b.compute),
            ('T', b.tp_comm),
            ('B', b.pp_bubble),
            ('D', b.dp_comm),
            ('M', b.memory),
            ('P', b.pp_comm),
        ],
        width,
    )
}

/// Power-of-two range `[lo, hi]` inclusive.
pub fn pow2_range(lo: u64, hi: u64) -> Vec<u64> {
    let mut v = Vec::new();
    let mut x = lo;
    while x <= hi {
        v.push(x);
        x *= 2;
    }
    v
}

/// Renders the A5/A6-style co-design artifacts (columns ending in a
/// numeric x, y, days triple) as an ASCII heatmap; `None` for other
/// artifact shapes.
pub fn grid_heatmap(art: &report::Artifact) -> Option<String> {
    let (xi, yi, vi, xl, yl) = match art.id.as_str() {
        "figa5a" | "figa5b" => (1usize, 0usize, 3usize, "hbm cap+bw", "tensor TFLOPs"),
        "figa6a" | "figa6b" => (0, 1, 2, "hbm capacity", "hbm bandwidth"),
        _ => return None,
    };
    let points: Vec<(f64, f64, Option<f64>)> = art
        .rows
        .iter()
        .map(|r| {
            (
                r[xi].as_f64().unwrap_or(f64::NAN),
                r[yi].as_f64().unwrap_or(f64::NAN),
                r[vi].as_f64(),
            )
        })
        .collect();
    Some(report::heatmap(&points, xl, yl))
}

/// Config labels A, B, C, … as the paper's x axes use.
pub fn config_label(i: usize) -> String {
    char::from(b'A' + (i % 26) as u8).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfmodel::{evaluate, ParallelConfig, Placement, TpStrategy};
    use systems::{system, GpuGeneration, NvsSize};
    use txmodel::gpt3_1t;

    #[test]
    fn eval_row_width_matches_columns() {
        let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
        let cfg = ParallelConfig::new(TpStrategy::OneD, 8, 1, 64, 32, 1);
        let e = evaluate(
            &gpt3_1t().config,
            &cfg,
            &Placement {
                v1: 8,
                v2: 1,
                vp: 1,
                vd: 1,
            },
            4096,
            &sys,
        );
        assert_eq!(eval_row("D", &e).len(), EVAL_COLUMNS.len());
        let bar = breakdown_bar(&e, 40);
        assert_eq!(bar.chars().count(), 40);
        assert!(bar.contains('C'));
    }

    #[test]
    fn pow2_range_inclusive() {
        assert_eq!(pow2_range(128, 1024), vec![128, 256, 512, 1024]);
        assert_eq!(pow2_range(32, 32), vec![32]);
    }

    #[test]
    fn labels_are_letters() {
        assert_eq!(config_label(0), "A");
        assert_eq!(config_label(5), "F");
    }
}
