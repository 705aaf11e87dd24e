//! Cross-crate guarantee for the pruned search engine: the ranked
//! branch-and-bound is an *exact* optimization.
//! `Planner::best_evaluation` with both prune flags on must return the
//! bit-identical `Evaluation` that the unpruned path and the full sweep
//! return, and
//! `Planner::execute` with the ranked k-th-incumbent + Pareto prune on
//! must return the bit-identical `PlanSet` (top-k ranking, Pareto
//! frontier, counts, every score, compared both structurally and as an
//! FNV fold over raw f64 bits) that the full sweep returns — on the
//! paper's preset workloads, on randomly drawn spaces across every
//! `Objective` variant, and at 1/2/8 worker threads. The
//! [`perfmodel::search_stats`] counters must actually observe shared-memo
//! traffic and prune activity.
//!
//! Counter tests deliberately avoid `reset_search_stats`: the counters
//! are process-global and the tests in this binary run concurrently, so
//! each test asserts on monotone *deltas* (counters only ever increase)
//! rather than absolute values.

use fmperf::prelude::*;
use proptest::prelude::*;
use rayon::ThreadPoolBuilder;
use systems::SystemSpec;
use txmodel::TransformerConfig;

fn b200_nvs8() -> SystemSpec {
    system(GpuGeneration::B200, NvsSize::Nvs8)
}

fn pool(n: usize) -> rayon::ThreadPool {
    ThreadPoolBuilder::new().num_threads(n).build().unwrap()
}

/// A single-scale, single-strategy search space.
fn space(gpus: u64, global_batch: u64, strategy: TpStrategy) -> SearchSpace {
    SearchSpace::new()
        .gpus(gpus)
        .global_batch(global_batch)
        .strategy(strategy)
}

/// `best_evaluation` three ways: prunes on (default), prunes off, and the
/// full sorted sweep's first feasible entry. All three must agree bit for
/// bit.
fn assert_exact(model: &TransformerConfig, sys: &SystemSpec, space: &SearchSpace) {
    let planner = Planner::new(model, sys).space(space.clone());
    let pruned = planner.best_evaluation();
    let unpruned = planner
        .clone()
        .branch_and_bound(false)
        .prune_dominated(false)
        .best_evaluation();
    // A stable sort by iteration time keeps enumeration order among
    // ties, so the sweep's first feasible entry is the
    // first-in-enumeration-order minimum — the exact candidate
    // `best_evaluation` pins.
    let mut sweep = planner.include_infeasible(true).evaluations();
    sweep.sort_by(|a, b| perfmodel::ord::time_cmp(a.iteration_time, b.iteration_time));
    let from_sweep = sweep.into_iter().find(|e| e.feasible);
    match (&pruned, &unpruned, &from_sweep) {
        (Some(p), Some(u), Some(s)) => {
            assert_eq!(
                p.iteration_time.to_bits(),
                u.iteration_time.to_bits(),
                "pruned vs unpruned iteration_time diverged for {}",
                p.config
            );
            assert_eq!(p, u, "pruned vs unpruned Evaluation diverged");
            assert_eq!(
                p, s,
                "pruned best_evaluation vs sweep first-feasible diverged"
            );
        }
        (None, None, None) => {}
        _ => panic!(
            "feasibility disagreement: pruned={} unpruned={} sweep={}",
            pruned.is_some(),
            unpruned.is_some(),
            from_sweep.is_some()
        ),
    }
}

#[test]
fn prunes_are_exact_on_paper_presets() {
    let sys = b200_nvs8();
    let presets: [(TransformerConfig, u64, u64, TpStrategy); 4] = [
        (gpt3_175b().config, 512, 1024, TpStrategy::OneD),
        (moe_1t().config, 256, 4096, TpStrategy::OneD),
        (vit_64k().config, 256, 4096, TpStrategy::Summa),
        (gpt3_1t().config, 256, 4096, TpStrategy::OneD),
    ];
    for (model, gpus, gb, strategy) in &presets {
        assert_exact(model, &sys, &space(*gpus, *gb, *strategy));
    }
}

#[test]
fn prunes_are_exact_with_interleave_and_zero3() {
    // Exercises the np = 1 / interleave > 1 timing twins and the ZeRO-3
    // axis that doubles every candidate.
    let sys = b200_nvs8();
    let s = space(256, 2048, TpStrategy::OneD)
        .max_interleave(4)
        .allow_zero3(true);
    assert_exact(&gpt3_175b().config, &sys, &s);
}

#[test]
fn prunes_are_exact_across_thread_counts() {
    // The shared-threshold race must never change the selected optimum.
    let model = vit_64k().config;
    let sys = b200_nvs8();
    let s = space(256, 4096, TpStrategy::Summa);
    let planner = Planner::new(&model, &sys).space(s.clone());
    let seq = pool(1).install(|| planner.best_evaluation()).unwrap();
    let par = pool(8).install(|| planner.best_evaluation()).unwrap();
    assert_eq!(seq.iteration_time.to_bits(), par.iteration_time.to_bits());
    assert_eq!(seq, par);
    assert_exact(&model, &sys, &s);
}

#[test]
fn shared_memo_serves_fresh_worker_threads() {
    // Warm the process-wide shared table on the calling thread, then run
    // the same search on a fresh 8-worker pool: the workers are new
    // threads, so their hits show that the table is shared.
    let model = vit_64k().config;
    let sys = b200_nvs8();
    let planner = Planner::new(&model, &sys).space(space(256, 4096, TpStrategy::Summa));
    let warm = planner.best_evaluation().unwrap();

    let before = search_stats();
    let par = pool(8).install(|| planner.best_evaluation()).unwrap();
    let after = search_stats();
    assert_eq!(warm, par);
    assert!(
        after.memo_shared_hits > before.memo_shared_hits,
        "8-thread rerun should hit the shared memo table: {before:?} -> {after:?}"
    );
}

#[test]
fn prune_counters_observe_skipped_candidates() {
    // The pruned search must actually skip work on a space large enough
    // to have bound-pruned candidates, and the skip counters (the tail
    // cut's `bound_pruned`, the per-candidate `topk_pruned`) must say so.
    let model = gpt3_1t().config;
    let sys = b200_nvs8();
    let planner = Planner::new(&model, &sys).space(space(1024, 4096, TpStrategy::Summa));
    let before = search_stats();
    let _ = planner.best_evaluation().unwrap();
    let after = search_stats();
    assert!(
        after.bound_pruned + after.topk_pruned > before.bound_pruned + before.topk_pruned + 10,
        "prunes should skip a nontrivial share of the space: {before:?} -> {after:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random small spaces: pruned and unpruned best_evaluation agree bit
    /// for bit with the sweep for arbitrary knob combinations.
    #[test]
    fn prunes_are_exact_on_random_spaces(
        gpus_idx in 0usize..3,
        gb_idx in 0usize..3,
        strat_idx in 0usize..3,
        interleave_idx in 0usize..3,
        zero3_idx in 0usize..2,
    ) {
        let gpus = [32u64, 64, 128][gpus_idx];
        let gb = [512u64, 1024, 2048][gb_idx];
        let strategy = [TpStrategy::OneD, TpStrategy::TwoD, TpStrategy::Summa][strat_idx];
        let max_interleave = [1u64, 2, 4][interleave_idx];
        let allow_zero3 = zero3_idx == 1;
        let model = gpt3_175b().config;
        let sys = b200_nvs8();
        let s = space(gpus, gb, strategy)
            .max_interleave(max_interleave)
            .allow_zero3(allow_zero3);
        assert_exact(&model, &sys, &s);
    }
}

// ---------------------------------------------------------------------------
// Ranked-path (top-k + Pareto) exactness: the differential-testing
// harness for the k-th-incumbent branch-and-bound in `Planner::execute`.
// ---------------------------------------------------------------------------

/// FNV-1a fold over `u64` words — the independent second comparison
/// channel: `PlanSet` equality checks structure, the fold checks the
/// raw f64 bit stream end to end.
fn fnv_fold(parts: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in parts {
        h ^= p;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Folds every result-bearing bit of a `PlanSet` — counts, top-k order,
/// frontier order, each plan's configuration, iteration time and scores —
/// into one word.
fn plan_set_fingerprint(ps: &PlanSet) -> u64 {
    let mut words = vec![
        ps.candidates,
        ps.feasible,
        ps.top.len() as u64,
        ps.pareto.len() as u64,
    ];
    for p in ps.top.iter().chain(&ps.pareto) {
        words.push(p.eval.config.total_gpus());
        words.push(p.eval.config.np);
        words.push(p.eval.config.nd);
        words.push(p.eval.iteration_time.to_bits());
        words.push(p.eval.memory.total().to_bits());
        for s in &p.scores {
            words.push(s.value.to_bits());
        }
    }
    fnv_fold(words)
}

/// `execute` twice — ranked pruning on (the default) and off — and
/// require bit-identical `PlanSet`s, both structurally and by FNV
/// fingerprint.
fn assert_ranked_exact(planner: &Planner) {
    let pruned = planner.clone().execute();
    let unpruned = planner
        .clone()
        .branch_and_bound(false)
        .prune_dominated(false)
        .execute();
    assert_eq!(
        plan_set_fingerprint(&pruned),
        plan_set_fingerprint(&unpruned),
        "pruned vs unpruned PlanSet fingerprints diverged"
    );
    // Structural comparison through Debug rather than PartialEq: Debug
    // of f64 is round-trip (bit-faithful for every finite value) and
    // treats NaN as equal to NaN, whereas `PlanSet == PlanSet` is
    // vacuously false for an objective carrying an injected NaN.
    assert_eq!(
        format!("{pruned:?}"),
        format!("{unpruned:?}"),
        "pruned vs unpruned PlanSet diverged"
    );
}

/// The `Objective` variants the ranked prune must stay exact under:
/// every leaf, weighted sums (positive, and negative-on-exact-key),
/// lexicographic cascades (prunable tolerance, no-prune-wide tolerance),
/// and a no-admissible-bound metric that must fall back to the full
/// sweep.
fn objective_variant(i: usize) -> Objective {
    match i {
        0 => Objective::IterationTime,
        1 => Objective::TrainingDays {
            iterations: 100_000.0,
        },
        2 => Objective::TokensPerGpuSecond,
        3 => Objective::HbmHeadroom,
        4 => Objective::GpuSeconds,
        5 => Objective::weighted([
            (Objective::IterationTime, 1.0),
            (Objective::GpuSeconds, 1e-3),
        ]),
        6 => Objective::weighted([
            (Objective::IterationTime, 1.0),
            (Objective::HbmHeadroom, -1e-12),
        ]),
        7 => Objective::IterationTime.then(0.25, Objective::GpuSeconds),
        8 => Objective::IterationTime.then(2.0, Objective::HbmHeadroom),
        _ => Objective::ExpectedGoodput,
    }
}

/// Pareto axis sets crossed with the objectives above.
fn pareto_variant(i: usize) -> Vec<Objective> {
    match i {
        0 => Vec::new(),
        1 => vec![Objective::IterationTime, Objective::HbmHeadroom],
        _ => vec![
            Objective::IterationTime,
            Objective::GpuSeconds,
            Objective::HbmHeadroom,
        ],
    }
}

#[test]
fn ranked_prunes_are_exact_on_paper_presets() {
    let sys = b200_nvs8();
    let presets: [(TransformerConfig, u64, u64, TpStrategy); 4] = [
        (gpt3_175b().config, 512, 1024, TpStrategy::OneD),
        (moe_1t().config, 256, 4096, TpStrategy::OneD),
        (vit_64k().config, 256, 4096, TpStrategy::Summa),
        (gpt3_1t().config, 256, 4096, TpStrategy::OneD),
    ];
    for (model, gpus, gb, strategy) in &presets {
        let planner = Planner::new(model, &sys)
            .gpus(*gpus)
            .global_batch(*gb)
            .strategy(*strategy)
            .top_k(8)
            .pareto([Objective::IterationTime, Objective::HbmHeadroom]);
        assert_ranked_exact(&planner);
    }
}

#[test]
fn ranked_prunes_are_exact_across_thread_counts() {
    // The k-th-incumbent and archive races must never change a result
    // bit: the pruned PlanSet at 2 and 8 workers must equal the pruned
    // *and* unpruned PlanSets at 1 worker.
    let model = gpt3_1t().config;
    let sys = b200_nvs8();
    let planner = Planner::new(&model, &sys)
        .gpus(256)
        .global_batch(4096)
        .strategy(TpStrategy::OneD)
        .top_k(6)
        .pareto([Objective::IterationTime, Objective::GpuSeconds]);
    let seq = pool(1).install(|| planner.clone().execute());
    let seq_unpruned = pool(1).install(|| {
        planner
            .clone()
            .branch_and_bound(false)
            .prune_dominated(false)
            .execute()
    });
    assert_eq!(seq, seq_unpruned);
    assert_eq!(
        plan_set_fingerprint(&seq),
        plan_set_fingerprint(&seq_unpruned)
    );
    for n in [2usize, 8] {
        let par = pool(n).install(|| planner.clone().execute());
        assert_eq!(par, seq, "thread count {n}");
        assert_eq!(plan_set_fingerprint(&par), plan_set_fingerprint(&seq));
    }
}

#[test]
fn ranked_pruning_handles_nan_scores_exactly() {
    // Injected NaN scores: a NaN run length makes every TrainingDays key
    // NaN, and a NaN weight poisons a weighted sum. Neither may prune a
    // single candidate away from the unpruned result (NaN bounds are
    // vacuous), and the ranked output must stay bit-identical — no
    // NaN-sticky threshold may leak into the top-k selection.
    let model = gpt3_175b().config;
    let sys = b200_nvs8();
    let nan_objectives = [
        Objective::TrainingDays {
            iterations: f64::NAN,
        },
        Objective::weighted([
            (Objective::IterationTime, f64::NAN),
            (Objective::GpuSeconds, 1e-3),
        ]),
        Objective::Lexicographic {
            stages: vec![
                perfmodel::LexStage {
                    objective: Objective::IterationTime,
                    rel_tolerance: f64::NAN,
                },
                perfmodel::LexStage {
                    objective: Objective::GpuSeconds,
                    rel_tolerance: 0.0,
                },
            ],
        },
    ];
    for objective in nan_objectives {
        let planner = Planner::new(&model, &sys)
            .gpus(128)
            .global_batch(1024)
            .strategy(TpStrategy::OneD)
            .objective(objective)
            .top_k(8)
            .pareto([Objective::IterationTime, Objective::HbmHeadroom]);
        assert_ranked_exact(&planner);
    }
}

#[test]
fn ranked_pruning_skips_most_of_the_summa_space() {
    // The acceptance leg: top-8 + Pareto on the 16384-GPU SUMMA space.
    // The ranked prune must skip at least 5× more candidates than it
    // evaluates (the `topk_pruned` counter is process-global and only
    // ever increases, so the delta is asserted as a floor).
    let model = gpt3_1t().config;
    let sys = b200_nvs8();
    let base = Planner::new(&model, &sys)
        .gpus(16384)
        .global_batch(4096)
        .strategy(TpStrategy::Summa)
        .top_k(8)
        .pareto([Objective::IterationTime, Objective::HbmHeadroom]);
    let before = search_stats();
    let pruned = base.clone().execute();
    let after = search_stats();
    assert_ranked_exact(&base);
    let skipped = after.topk_pruned - before.topk_pruned;
    let total = pruned.candidates;
    assert!(
        skipped >= total - total / 5,
        "ranked prune must skip ≥5× the evaluated candidates: \
         skipped {skipped} of {total}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random spaces × every `Objective` variant × Pareto axis sets ×
    /// 1/2/8 worker threads: the pruned `PlanSet` (top-k ranking *and*
    /// Pareto frontier) must be bit-identical — f64 bits and FNV fold —
    /// to the unpruned sweep's, at every thread count.
    #[test]
    fn ranked_prunes_are_exact_on_random_spaces(
        gpus_idx in 0usize..3,
        gb_idx in 0usize..2,
        strat_idx in 0usize..3,
        objective_idx in 0usize..10,
        pareto_idx in 0usize..3,
        top_k in 0usize..10,
    ) {
        let gpus = [32u64, 64, 128][gpus_idx];
        let gb = [512u64, 1024][gb_idx];
        let strategy = [TpStrategy::OneD, TpStrategy::TwoD, TpStrategy::Summa][strat_idx];
        let model = gpt3_175b().config;
        let sys = b200_nvs8();
        let planner = Planner::new(&model, &sys)
            .gpus(gpus)
            .global_batch(gb)
            .strategy(strategy)
            .objective(objective_variant(objective_idx))
            .pareto(pareto_variant(pareto_idx))
            .top_k(top_k);
        let reference = pool(1).install(|| {
            planner
                .clone()
                .branch_and_bound(false)
                .prune_dominated(false)
                .execute()
        });
        let ref_fp = plan_set_fingerprint(&reference);
        for n in [1usize, 2, 8] {
            let pruned = pool(n).install(|| planner.clone().execute());
            prop_assert_eq!(plan_set_fingerprint(&pruned), ref_fp);
            prop_assert_eq!(&pruned, &reference);
        }
    }
}
