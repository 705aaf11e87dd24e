//! Hardware-sensitivity analysis: normalized elasticities of iteration
//! time with respect to each system parameter.
//!
//! The co-design figures (A5/A6) sweep two parameters at a time; this
//! module answers the same question differentially: *if parameter `p`
//! improves by 1%, by how many % does the optimal iteration time drop?*
//! Each probe re-runs the full design-space search, so configuration
//! re-balancing (the paper's key effect — e.g. extra capacity being spent
//! on less parallelism rather than speed) is captured automatically.

use crate::planner::{Planner, SearchSpace};
use serde::{Deserialize, Serialize};
use systems::SystemSpec;
use txmodel::TransformerConfig;

/// The hardware axes probed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HardwareAxis {
    /// Tensor-core (and, proportionally, vector) FLOP rate.
    TensorFlops,
    /// HBM bandwidth.
    HbmBandwidth,
    /// HBM capacity.
    HbmCapacity,
    /// Fast-tier (NVSwitch) bandwidth.
    NvsBandwidth,
    /// Slow-tier (InfiniBand) per-NIC bandwidth.
    IbBandwidth,
}

impl HardwareAxis {
    /// All axes, in the order the paper discusses them.
    pub const ALL: [HardwareAxis; 5] = [
        HardwareAxis::TensorFlops,
        HardwareAxis::HbmBandwidth,
        HardwareAxis::HbmCapacity,
        HardwareAxis::NvsBandwidth,
        HardwareAxis::IbBandwidth,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            HardwareAxis::TensorFlops => "tensor FLOP rate",
            HardwareAxis::HbmBandwidth => "HBM bandwidth",
            HardwareAxis::HbmCapacity => "HBM capacity",
            HardwareAxis::NvsBandwidth => "NVS bandwidth",
            HardwareAxis::IbBandwidth => "IB bandwidth",
        }
    }

    /// Returns `sys` with this axis scaled by `factor`.
    pub fn scaled(self, sys: &SystemSpec, factor: f64) -> SystemSpec {
        let mut s = sys.clone();
        match self {
            HardwareAxis::TensorFlops => s.gpu = s.gpu.with_flops_scale(factor),
            HardwareAxis::HbmBandwidth => {
                s.gpu = s
                    .gpu
                    .clone()
                    .with_hbm_bandwidth(s.gpu.hbm_bandwidth * factor)
            }
            HardwareAxis::HbmCapacity => {
                s.gpu = s.gpu.clone().with_hbm_capacity(s.gpu.hbm_capacity * factor)
            }
            HardwareAxis::NvsBandwidth => s.network.nvs_bandwidth *= factor,
            HardwareAxis::IbBandwidth => s.network.ib_bandwidth *= factor,
        }
        s
    }
}

/// Elasticity of the optimal iteration time along one axis:
/// `d ln(t) / d ln(p)` estimated by a symmetric finite difference. A value
/// of −1 means the time is inversely proportional to the parameter
/// (perfectly bound by it); 0 means insensitive.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Elasticity {
    /// The perturbed hardware parameter.
    pub axis: HardwareAxis,
    /// `d ln t / d ln p` (≤ 0 for beneficial parameters).
    pub value: f64,
}

/// Computes elasticities along every axis for the model's optimum over
/// `space` on `sys` ([`Planner::best_evaluation`]), using ±`step` relative
/// perturbations (e.g. 0.25). Returns `None` if the baseline has no
/// feasible configuration.
pub fn elasticities(
    model: &TransformerConfig,
    sys: &SystemSpec,
    space: &SearchSpace,
    step: f64,
) -> Option<Vec<Elasticity>> {
    assert!(step > 0.0 && step < 1.0, "step must be in (0, 1)");
    let t_of = |s: &SystemSpec| {
        Planner::new(model, s)
            .space(space.clone())
            .best_evaluation()
            .map(|e| e.iteration_time)
    };
    t_of(sys)?;
    let mut out = Vec::with_capacity(HardwareAxis::ALL.len());
    for axis in HardwareAxis::ALL {
        let up = t_of(&axis.scaled(sys, 1.0 + step));
        let down = t_of(&axis.scaled(sys, 1.0 - step));
        let value = match (up, down) {
            (Some(tu), Some(td)) => (tu.ln() - td.ln()) / ((1.0 + step).ln() - (1.0 - step).ln()),
            // Shrinking the parameter made training infeasible: the axis
            // is a hard constraint; report a sentinel strong sensitivity.
            (Some(_), None) => f64::NEG_INFINITY,
            _ => f64::NAN,
        };
        out.push(Elasticity { axis, value });
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TpStrategy;
    use systems::{system, GpuGeneration, NvsSize};
    use txmodel::{gpt3_1t, vit_64k};

    fn gpt_elasticities(n: u64) -> Vec<Elasticity> {
        let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
        elasticities(
            &gpt3_1t().config,
            &sys,
            &SearchSpace::new()
                .gpus(n)
                .global_batch(4096)
                .strategy(TpStrategy::OneD),
            0.25,
        )
        .unwrap()
    }

    fn value(es: &[Elasticity], axis: HardwareAxis) -> f64 {
        es.iter().find(|e| e.axis == axis).unwrap().value
    }

    #[test]
    fn gpt_is_flop_bound() {
        // Paper Fig A5a: FLOP rate is the primary factor for GPT3-1T.
        let es = gpt_elasticities(4096);
        let flops = value(&es, HardwareAxis::TensorFlops);
        assert!(flops < -0.4, "FLOP elasticity {flops}");
        let hbm_bw = value(&es, HardwareAxis::HbmBandwidth);
        assert!(
            flops < hbm_bw - 0.2,
            "FLOPs ({flops}) should matter far more than HBM bw ({hbm_bw})"
        );
    }

    #[test]
    fn all_beneficial_axes_are_nonpositive() {
        for e in gpt_elasticities(2048) {
            assert!(
                e.value <= 0.05 || e.value.is_nan(),
                "{}: improving hardware must not slow training ({})",
                e.axis.name(),
                e.value
            );
        }
    }

    #[test]
    fn vit_is_more_network_sensitive_than_gpt() {
        // Paper: TP communication is the ViT's bottleneck. On NVS8 its
        // 16-GPU TP groups necessarily span domains, so the binding
        // network axis is the *inter-node* (IB) bandwidth — the ViT must
        // be more elastic in it than GPT3-1T at the same scale.
        let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
        let vit = elasticities(
            &vit_64k().config,
            &sys,
            &SearchSpace::new()
                .gpus(4096)
                .global_batch(4096)
                .strategy(TpStrategy::TwoD),
            0.25,
        )
        .unwrap();
        let gpt = gpt_elasticities(4096);
        let ib_vit = value(&vit, HardwareAxis::IbBandwidth);
        let ib_gpt = value(&gpt, HardwareAxis::IbBandwidth);
        assert!(ib_vit < ib_gpt + 1e-9, "ViT {ib_vit} vs GPT {ib_gpt}");
        assert!(
            ib_vit < -0.05,
            "ViT should have real IB sensitivity: {ib_vit}"
        );
    }

    #[test]
    fn axis_scaling_applies_to_the_right_field() {
        let sys = system(GpuGeneration::A100, NvsSize::Nvs4);
        let s = HardwareAxis::HbmCapacity.scaled(&sys, 2.0);
        assert_eq!(s.gpu.hbm_capacity, 160e9);
        assert_eq!(s.gpu.hbm_bandwidth, sys.gpu.hbm_bandwidth);
        let s = HardwareAxis::IbBandwidth.scaled(&sys, 0.5);
        assert_eq!(s.network.ib_bandwidth, 12.5e9);
    }

    #[test]
    #[should_panic(expected = "step must be")]
    fn bad_step_panics() {
        let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
        let _ = elasticities(
            &gpt3_1t().config,
            &sys,
            &SearchSpace::new()
                .gpus(64)
                .global_batch(4096)
                .strategy(TpStrategy::OneD),
            1.5,
        );
    }
}
