//! Analytic-vs-simulated comparison rows (the §IV validation table).

use crate::sim::{simulate_iteration, SimParams, UnsupportedConfig};
use perfmodel::{evaluate, ParallelConfig, Placement, Plan};
use serde::{Deserialize, Serialize};
use systems::SystemSpec;
use txmodel::TransformerConfig;

/// One validation data point: the analytic model's iteration time against
/// the schedule simulator's, for the same configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidationRow {
    /// Human-readable label, e.g. `"GPT3-175B optimal"`.
    pub label: String,
    /// The configuration compared.
    pub config: ParallelConfig,
    /// Closed-form iteration time, seconds.
    pub analytic: f64,
    /// Simulated iteration time, seconds.
    pub simulated: f64,
}

impl ValidationRow {
    /// Relative error |analytic − simulated| / simulated, the quantity
    /// the paper reports against Megatron-LM measurements.
    pub fn rel_err(&self) -> f64 {
        (self.analytic - self.simulated).abs() / self.simulated
    }
}

/// Runs both models on one configuration. Configurations the simulator
/// cannot model (see [`UnsupportedConfig`]) are reported as a typed
/// error so sweeping callers can skip them.
pub fn compare(
    label: impl Into<String>,
    model: &TransformerConfig,
    cfg: &ParallelConfig,
    placement: &Placement,
    global_batch: u64,
    sys: &SystemSpec,
    params: &SimParams,
) -> Result<ValidationRow, UnsupportedConfig> {
    let ana = evaluate(model, cfg, placement, global_batch, sys);
    let sim = simulate_iteration(model, cfg, placement, global_batch, sys, params)?;
    Ok(ValidationRow {
        label: label.into(),
        config: *cfg,
        analytic: ana.iteration_time,
        simulated: sim.iteration_time,
    })
}

/// Validates a serialized planner [`Plan`] against the schedule
/// simulator: the plan artifact carries its own model, configuration,
/// placement and batch size, so a JSON plan written by one session can be
/// re-validated in another without re-running the search.
pub fn compare_plan(
    plan: &Plan,
    sys: &SystemSpec,
    params: &SimParams,
) -> Result<ValidationRow, UnsupportedConfig> {
    compare(
        format!("{}", plan.eval.config),
        &plan.model,
        &plan.eval.config,
        &plan.eval.placement,
        plan.global_batch,
        sys,
        params,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfmodel::{Planner, TpStrategy};
    use systems::perlmutter;
    use txmodel::{gpt3_175b, vit_32k};

    /// The paper's §IV setting: 512 A100 GPUs on Perlmutter (4 GPUs/node),
    /// global batch 1024.
    fn perlmutter_sys() -> SystemSpec {
        perlmutter(4)
    }

    #[test]
    fn gpt3_175b_optimal_config_error_within_paper_range() {
        // Paper: 11% error for the optimal (nt, np, nd, bm) = (4, 16, 8, 1).
        let model = gpt3_175b().config;
        let cfg = ParallelConfig::new(TpStrategy::OneD, 4, 1, 16, 8, 1);
        let pl = Placement {
            v1: 4,
            v2: 1,
            vp: 1,
            vd: 1,
        };
        let row = compare(
            "GPT3-175B optimal",
            &model,
            &cfg,
            &pl,
            1024,
            &perlmutter_sys(),
            &SimParams::default(),
        )
        .unwrap();
        assert!(row.rel_err() < 0.15, "error {:.3}", row.rel_err());
    }

    #[test]
    fn suboptimal_configs_track_direction() {
        // Paper: larger observed times seen with larger predicted times.
        let model = gpt3_175b().config;
        let sys = perlmutter_sys();
        let pl4 = Placement {
            v1: 4,
            v2: 1,
            vp: 1,
            vd: 1,
        };
        let configs = [
            ParallelConfig::new(TpStrategy::OneD, 4, 1, 16, 8, 1),
            ParallelConfig::new(TpStrategy::OneD, 8, 1, 16, 4, 1),
            ParallelConfig::new(TpStrategy::OneD, 16, 1, 8, 4, 1),
            ParallelConfig::new(TpStrategy::OneD, 4, 1, 32, 4, 1),
        ];
        let mut rows: Vec<ValidationRow> = configs
            .iter()
            .map(|c| {
                let pl = if c.n1 >= 4 { pl4 } else { Placement::trivial() };
                compare("sub", &model, c, &pl, 1024, &sys, &SimParams::default()).unwrap()
            })
            .collect();
        // Sort by analytic prediction; simulated times must be sorted too
        // (trend consistency).
        rows.sort_by(|a, b| a.analytic.total_cmp(&b.analytic));
        for w in rows.windows(2) {
            assert!(
                w[1].simulated > 0.9 * w[0].simulated,
                "ordering violated: {} vs {}",
                w[0].label,
                w[1].label
            );
        }
        // And every error stays within the paper's observed 4–26% band
        // (we allow up to 30%).
        for r in &rows {
            assert!(r.rel_err() < 0.30, "{}: {:.3}", r.label, r.rel_err());
        }
    }

    #[test]
    fn vit_32k_2d_config_error_small() {
        // Paper: ~2% error for the near-optimal ViT config
        // (n1, n2, np, nd, bm) = (2, 4, 4, 16, 1).
        let model = vit_32k().config;
        let cfg = ParallelConfig::new(TpStrategy::TwoD, 2, 4, 4, 16, 1);
        let pl = Placement {
            v1: 2,
            v2: 2,
            vp: 1,
            vd: 1,
        };
        let row = compare(
            "ViT-32K near-optimal",
            &model,
            &cfg,
            &pl,
            1024,
            &perlmutter_sys(),
            &SimParams::default(),
        )
        .unwrap();
        assert!(row.rel_err() < 0.15, "error {:.3}", row.rel_err());
    }

    #[test]
    fn compare_plan_round_trips_through_json() {
        // The planner-artifact path: a Plan serialized by one session is
        // deserialized and re-validated against the simulator, with the
        // same result as validating the live configuration.
        let model = gpt3_175b().config;
        let sys = perlmutter_sys();
        let cfg = ParallelConfig::new(TpStrategy::OneD, 4, 1, 16, 8, 1);
        let plan = Plan {
            model,
            global_batch: 1024,
            eval: Planner::new(&model, &sys)
                .global_batch(1024)
                .evaluate_config(&cfg),
            scores: Vec::new(),
        };
        let json = serde_json::to_string(&plan).unwrap();
        let back: Plan = serde_json::from_str(&json).unwrap();
        let row = compare_plan(&back, &sys, &SimParams::default()).unwrap();
        let direct = compare(
            "direct",
            &model,
            &cfg,
            &back.eval.placement,
            1024,
            &sys,
            &SimParams::default(),
        )
        .unwrap();
        assert_eq!(row.analytic, direct.analytic);
        assert_eq!(row.simulated, direct.simulated);
        assert!(row.rel_err() < 0.30, "error {:.3}", row.rel_err());
    }

    #[test]
    fn rel_err_formula() {
        let row = ValidationRow {
            label: "x".into(),
            config: ParallelConfig::new(TpStrategy::OneD, 1, 1, 1, 1, 1),
            analytic: 1.1,
            simulated: 1.0,
        };
        assert!((row.rel_err() - 0.1).abs() < 1e-12);
    }
}
