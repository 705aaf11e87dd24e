//! Full-run training-time estimates (the Fig. 5 y-axis).

use crate::evaluate::Evaluation;
use txmodel::TrainingWorkload;

/// Days to complete `workload` at the evaluated iteration time.
///
/// The pipeline flush is part of every iteration in the model, so no
/// additional warmup correction is applied.
pub fn training_days(workload: &TrainingWorkload, eval: &Evaluation) -> f64 {
    workload.days(eval.iteration_time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Planner, TpStrategy};
    use systems::{system, GpuGeneration, NvsSize};
    use txmodel::gpt3_1t;

    #[test]
    fn gpt_pretraining_days_are_in_paper_range() {
        // Paper Fig. 5a: O(3–5) days on 16K B200; we test 4096 GPUs where
        // the paper shows roughly 4× that — expect order 10–40 days.
        let model = gpt3_1t().config;
        let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
        let best = Planner::new(&model, &sys)
            .gpus(4096)
            .global_batch(4096)
            .strategy(TpStrategy::OneD)
            .best_evaluation()
            .unwrap();
        let days = training_days(&TrainingWorkload::gpt3_1t_pretraining(), &best);
        assert!(days > 5.0 && days < 60.0, "got {days} days");
    }
}
