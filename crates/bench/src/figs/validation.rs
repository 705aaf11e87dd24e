//! §IV Empirical Validation substitute: analytic model vs the trainsim
//! 1F1B schedule simulator on the paper's 512-GPU Perlmutter setting
//! (global batch 1024) for GPT3-175B and the 32K ViT, optimal and
//! sub-optimal configurations.

use perfmodel::{ParallelConfig, Placement, TpStrategy};
use report::{num, Artifact};
use serde_json::json;
use systems::perlmutter;
use trainsim::{compare, SimParams};
use txmodel::{gpt3_175b, vit_32k};

/// The validation configuration set: mirrors the paper's optimal +
/// sub-optimal configurations for both models.
fn cases() -> Vec<(
    String,
    txmodel::TransformerConfig,
    ParallelConfig,
    Placement,
)> {
    let gpt = gpt3_175b().config;
    let vit = vit_32k().config;
    let pl = |v1: u64, v2: u64, vp: u64, vd: u64| Placement { v1, v2, vp, vd };
    vec![
        (
            "GPT3-175B optimal (4,16,8,1)".into(),
            gpt,
            ParallelConfig::new(TpStrategy::OneD, 4, 1, 16, 8, 1),
            pl(4, 1, 1, 1),
        ),
        (
            "GPT3-175B sub (8,16,4,1)".into(),
            gpt,
            ParallelConfig::new(TpStrategy::OneD, 8, 1, 16, 4, 1),
            pl(4, 1, 1, 1),
        ),
        (
            "GPT3-175B sub (16,8,4,1)".into(),
            gpt,
            ParallelConfig::new(TpStrategy::OneD, 16, 1, 8, 4, 1),
            pl(4, 1, 1, 1),
        ),
        (
            "GPT3-175B sub (4,32,4,1)".into(),
            gpt,
            ParallelConfig::new(TpStrategy::OneD, 4, 1, 32, 4, 1),
            pl(4, 1, 1, 1),
        ),
        (
            "GPT3-175B sub (2,32,8,1)".into(),
            gpt,
            ParallelConfig::new(TpStrategy::OneD, 2, 1, 32, 8, 1),
            pl(2, 1, 2, 1),
        ),
        (
            "ViT-32K near-opt (2,4,4,16,1)".into(),
            vit,
            ParallelConfig::new(TpStrategy::TwoD, 2, 4, 4, 16, 1),
            pl(2, 2, 1, 1),
        ),
        (
            "ViT-32K sub (4,4,2,16,1)".into(),
            vit,
            ParallelConfig::new(TpStrategy::TwoD, 4, 4, 2, 16, 1),
            pl(4, 1, 1, 1),
        ),
        (
            "ViT-32K sub (2,8,4,8,1)".into(),
            vit,
            ParallelConfig::new(TpStrategy::TwoD, 2, 8, 4, 8, 1),
            pl(2, 2, 1, 1),
        ),
    ]
}

/// Generates the analytic-vs-simulated table.
pub fn generate() -> Artifact {
    let sys = perlmutter(4);
    let mut art = Artifact::new(
        "validation",
        "§IV validation: analytic vs 1F1B schedule simulation, 512 A100 (Perlmutter), b=1024",
        ["config", "analytic_s", "simulated_s", "rel_err_pct"],
    );
    for (label, model, cfg, pl) in cases() {
        #[expect(
            clippy::expect_used,
            reason = "pinned §IV validation cases; all run the plain 1F1B schedule"
        )]
        let row = compare(&label, &model, &cfg, &pl, 1024, &sys, &SimParams::default())
            .expect("every validation case runs the plain 1F1B schedule");
        art.push(vec![
            json!(label),
            num(row.analytic),
            num(row.simulated),
            num(100.0 * row.rel_err()),
        ]);
    }
    art
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_errors_within_paper_band() {
        // Paper reports 2–26% against Megatron-LM; against our schedule
        // simulator every configuration must stay under 30%.
        let art = generate();
        assert_eq!(art.rows.len(), 8);
        for r in &art.rows {
            let err = r[3].as_f64().unwrap();
            assert!(err < 30.0, "{}: {err:.1}%", r[0]);
        }
    }

    #[test]
    fn optimal_config_error_is_small() {
        let art = generate();
        let opt = art
            .rows
            .iter()
            .find(|r| r[0].as_str().unwrap().contains("optimal"))
            .unwrap();
        assert!(opt[3].as_f64().unwrap() < 15.0);
    }

    #[test]
    fn predictions_track_simulations_in_order() {
        // Paper: "performance trends between observed and predicted
        // iteration times are consistent". Check rank agreement for the
        // GPT rows.
        let art = generate();
        let mut gpt_rows: Vec<(f64, f64)> = art
            .rows
            .iter()
            .filter(|r| r[0].as_str().unwrap().starts_with("GPT"))
            .map(|r| (r[1].as_f64().unwrap(), r[2].as_f64().unwrap()))
            .collect();
        gpt_rows.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut violations = 0;
        for w in gpt_rows.windows(2) {
            if w[1].1 < w[0].1 * 0.95 {
                violations += 1;
            }
        }
        assert!(violations <= 1, "too many trend violations: {gpt_rows:?}");
    }
}
