//! The paper's primary contribution: an analytical, parameterized
//! performance model of multi-dimensionally parallel transformer training
//! and a brute-force design-space search over parallelization
//! configurations, microbatch sizes and GPU-to-NVSwitch-domain
//! assignments — extended beyond the paper with NCCL-style collective-
//! algorithm selection ([`ParallelConfig::comm_algo`], default
//! [`Algorithm::Auto`]) and first-class Mixture-of-Experts support (an
//! expert-parallel degree [`ParallelConfig::ep`] whose AllToAll
//! dispatch/combine and expert-replica gradient sync are priced through
//! the same machinery).
//!
//! # Pipeline (paper §III.A)
//!
//! 1. **(S1) Counting** — [`partition`] builds a [`plan::LayerProfile`] for
//!    one transformer block under a chosen tensor-parallel strategy
//!    ([`TpStrategy`]): FLOPs, HBM bytes, communication volumes and stored
//!    activation bytes, per microbatch. MoE blocks add the router GEMM,
//!    the capacity-padded grouped expert GEMMs and two AllToAlls over the
//!    expert-parallel group.
//! 2. **(S2) Timing** — [`timing`] converts counts into time with a
//!    roofline model; [`evaluate`](mod@evaluate) assembles layer times, pipeline bubbles,
//!    point-to-point and data/expert-parallel communication into an
//!    iteration time with a [`Breakdown`] by bucket, plus a
//!    [`MemoryUsage`] feasibility check.
//! 3. **(S3) Search** — the [`Planner`] composes a typed [`SearchSpace`]
//!    (GPU counts, batch, TP strategies, microbatch/interleave/ZeRO/
//!    expert knobs, degree bounds, user predicates) with an [`Objective`]
//!    (iteration time, training days, tokens/s/GPU, HBM headroom,
//!    GPU-seconds cost, or weighted/lexicographic combinations) and
//!    enumerates every factorization `n = n1·n2·np·nd` plus the
//!    microbatch size, NVS placement, SUMMA panel count, expert-parallel
//!    degree `ep | nd`, interleaving and ZeRO-3 knobs — one joint space,
//!    fanned out over the rayon pool against a build-once
//!    [`ProfileCache`] — returning a [`PlanSet`]: the top-k ranked
//!    [`Plan`]s and the exact Pareto frontier across the selected
//!    objectives, fully serializable. One ranked branch-and-bound engine
//!    serves [`Planner::execute`] and the single-optimum
//!    [`Planner::best_evaluation`]; [`Planner::evaluations`] is the full
//!    sweep and [`Planner::evaluate_config`] prices one pinned
//!    configuration.
//!
//! ```
//! use perfmodel::{Objective, Planner, TpStrategy};
//! use systems::{system, GpuGeneration, NvsSize};
//! use txmodel::gpt3_1t;
//!
//! let model = gpt3_1t().config;
//! let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
//! let plans = Planner::new(&model, &sys)
//!     .gpus(1024)
//!     .global_batch(4096)
//!     .strategy(TpStrategy::OneD)
//!     .top_k(3)
//!     .pareto([Objective::IterationTime, Objective::HbmHeadroom])
//!     .execute();
//! let best = plans.best().expect("a feasible configuration exists");
//! assert!(best.eval.iteration_time > 0.0);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod breakdown;
pub mod config;
pub mod evaluate;
pub mod memory;
pub mod ord;
pub mod partition;
pub mod placement;
pub mod plan;
pub mod planner;
pub mod reliability;
mod search;
pub mod sensitivity;
pub mod serving;
pub mod timing;
pub mod training;

pub use breakdown::Breakdown;
pub use collectives::Algorithm;
pub use config::{ParallelConfig, Placement, TpStrategy};
pub use evaluate::{
    dp_sync_time, evaluate, evaluate_with_profile, evaluate_with_tp_overlap, stage_times,
    Evaluation,
};
pub use memory::MemoryUsage;
pub use partition::{reset_search_stats, search_stats, ProfileCache, ProfileKey, SearchStats};
pub use placement::enumerate_placements;
pub use planner::{
    ConfigError, LexStage, Objective, ObjectiveCtx, Plan, PlanSet, Planner, PlannerConfig, Score,
    SearchSpace, WeightedTerm,
};
pub use reliability::GoodputReport;
pub use sensitivity::{elasticities, Elasticity, HardwareAxis};
pub use serving::{PdPlacement, ServingCtx, ServingReport, SloSpec};
pub use training::training_days;

#[cfg(test)]
mod serde_roundtrip {
    use super::*;
    use systems::{system, GpuGeneration, NvsSize};
    use txmodel::gpt3_1t;

    #[test]
    fn evaluation_survives_json() {
        let model = gpt3_1t().config;
        let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
        let cfg = ParallelConfig::new(TpStrategy::OneD, 8, 1, 16, 8, 1);
        let e = Planner::new(&model, &sys)
            .global_batch(4096)
            .evaluate_config(&cfg);
        let back: Evaluation = serde_json::from_str(&serde_json::to_string(&e).unwrap()).unwrap();
        assert_eq!(back, e);
    }

    #[test]
    fn comm_patterns_survive_json() {
        // Exercises both enum variant encodings: struct variants
        // (Exposed/SummaOverlapped) through the layer profile.
        let model = gpt3_1t().config;
        let gpu = GpuGeneration::B200.gpu();
        for (strategy, n1, n2, nb) in [(TpStrategy::OneD, 8, 1, 1), (TpStrategy::Summa, 4, 2, 4)] {
            let profile = partition::build_profile(&model, strategy, n1, n2, 1, nb, 1, &gpu);
            let json = serde_json::to_string(&profile.fwd.comms).unwrap();
            let back: Vec<plan::CommPattern> = serde_json::from_str(&json).unwrap();
            assert_eq!(back, profile.fwd.comms);
        }
    }
}
