//! Cross-crate guarantee: the S3 search produces bit-identical results —
//! same ordering, same `iteration_time` bits — no matter how many worker
//! threads the rayon pool runs, and the vendored pool itself behaves like
//! the sequential iterator chains it replaced.

use fmperf::prelude::*;
use proptest::prelude::*;
use rayon::prelude::*;
use rayon::ThreadPoolBuilder;

fn pool(n: usize) -> rayon::ThreadPool {
    ThreadPoolBuilder::new().num_threads(n).build().unwrap()
}

fn planner<'a>(
    model: &'a TransformerConfig,
    sys: &'a SystemSpec,
    gpus: u64,
    strategy: TpStrategy,
) -> Planner<'a> {
    Planner::new(model, sys)
        .gpus(gpus)
        .global_batch(4096)
        .strategy(strategy)
}

/// The full sweep, infeasible candidates included, stably sorted fastest
/// first.
fn sorted_sweep(planner: &Planner) -> Vec<Evaluation> {
    let mut evals = planner.clone().include_infeasible(true).evaluations();
    evals.sort_by(|a, b| perfmodel::ord::time_cmp(a.iteration_time, b.iteration_time));
    evals
}

#[test]
fn sweep_is_bit_identical_from_one_to_many_threads() {
    let model = gpt3_1t().config;
    let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
    for strategy in [TpStrategy::OneD, TpStrategy::TwoD] {
        let p = planner(&model, &sys, 256, strategy);
        let seq = pool(1).install(|| sorted_sweep(&p));
        let par = pool(8).install(|| sorted_sweep(&p));
        assert_eq!(par.len(), seq.len());
        for (a, b) in par.iter().zip(&seq) {
            assert_eq!(a.config, b.config, "{strategy:?}: ordering diverged");
            assert_eq!(
                a.iteration_time.to_bits(),
                b.iteration_time.to_bits(),
                "{strategy:?}: iteration_time not bit-identical for {}",
                a.config
            );
        }
        assert_eq!(par, seq);
    }
}

#[test]
fn optimize_is_bit_identical_from_one_to_many_threads() {
    let model = vit_64k().config;
    let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
    let p = planner(&model, &sys, 512, TpStrategy::TwoD);
    let seq = pool(1).install(|| p.best_evaluation()).unwrap();
    let par = pool(8).install(|| p.best_evaluation()).unwrap();
    assert_eq!(seq.iteration_time.to_bits(), par.iteration_time.to_bits());
    assert_eq!(seq, par);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The vendored pool's collect/min_by agree with std's sequential
    /// iterator chains for arbitrary inputs and thread counts.
    #[test]
    fn par_iter_matches_sequential_iterator(
        len in 0usize..300,
        seed in 0u64..1_000_000,
        threads in 1usize..9,
    ) {
        let xs: Vec<u64> = (0..len as u64).map(|i| i.wrapping_mul(seed | 1) % 97).collect();
        let seq_mapped: Vec<u64> = xs.iter().map(|x| x * 3 + 1).collect();
        let seq_filtered: Vec<u64> = xs.iter().filter(|x| **x % 5 != 0).copied().collect();
        let seq_min = xs.iter().min_by(|a, b| a.cmp(b)).copied();
        let (par_mapped, par_filtered, par_min) = pool(threads).install(|| {
            (
                xs.par_iter().map(|x| x * 3 + 1).collect::<Vec<u64>>(),
                xs.par_iter().filter(|x| **x % 5 != 0).map(|x| *x).collect::<Vec<u64>>(),
                xs.par_iter().min_by(|a, b| a.cmp(b)).copied(),
            )
        });
        prop_assert_eq!(par_mapped, seq_mapped);
        prop_assert_eq!(par_filtered, seq_filtered);
        prop_assert_eq!(par_min, seq_min);
    }
}
