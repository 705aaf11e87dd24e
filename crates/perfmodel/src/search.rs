//! Stage S3: brute-force design-space search (paper "Optimal
//! Configuration") — the candidate enumeration and the per-candidate
//! placement loop behind every [`crate::Planner`] entry point.
//!
//! Given `n` GPUs, a global batch size and a TP strategy, the search
//! enumerates every factorization `n = n1·n2·np·nd` obeying the
//! divisibility constraints, every microbatch size dividing the local
//! batch, every SUMMA panel count, every expert-parallel degree `ep | nd`
//! (MoE models — so `(tp, pp, dp, ep)` plus interleaving and ZeRO-3 are
//! swept **jointly** in one space, not per-config), and — for each
//! candidate — every maximal NVS-domain placement.
//!
//! The planner builds a [`crate::ProfileCache`] holding **exactly one**
//! [`LayerProfile`] per distinct TP tuple `(strategy, n1, n2, bm, nb, ep)`
//! (see [`crate::partition::cache`] for the key invariants), so the
//! `(np, nd, interleave, zero3, placement)` inner space reuses shared,
//! read-only profiles, and fans the candidates out over the rayon pool.
//! Results are deterministic and bit-identical across thread counts: the
//! pool preserves input order, every reduction runs over the ordered
//! results, and sorting is stable.

use crate::config::{ParallelConfig, TpStrategy};
use crate::evaluate::{evaluate_placement, placement_breakdown, Evaluation, PassFingerprints};
use crate::partition::cache::system_fingerprint;
use crate::placement::{divisors, enumerate_placements};
use crate::plan::LayerProfile;
use crate::planner::SearchSpace;
use rayon::prelude::*;
use systems::SystemSpec;
use txmodel::TransformerConfig;

/// Powers of two from 1 up to `max` (inclusive). The doubling is checked:
/// `u64::MAX` — the "unbounded" sentinel of the space's knobs — stops at
/// `2^63` instead of wrapping to 0 and pushing zeros forever.
fn powers_of_two_up_to(max: u64) -> Vec<u64> {
    std::iter::successors(Some(1u64), |&x| x.checked_mul(2))
        .take_while(|&x| x <= max.max(1))
        .collect()
}

/// Enumerates every valid [`ParallelConfig`] (without placements) of the
/// `(gpus, strategy)` sub-space of `space`.
///
/// Parallelized over the outermost `n1` axis (one task per divisor of
/// `n`); the per-`n1` slices are flattened back in `n1` order, so the
/// output is bit-identical to the sequential nesting for any thread
/// count. This keeps the sequential prefix of a search call — candidate
/// generation — from capping parallel speedup on small sweeps.
pub(crate) fn enumerate_partitions(
    model: &TransformerConfig,
    space: &SearchSpace,
    gpus: u64,
    strategy: TpStrategy,
) -> Vec<ParallelConfig> {
    let n = gpus;
    let b = space.global_batch;
    let interleave_choices = powers_of_two_up_to(space.max_interleave);
    let zero3_choices: &[bool] = if space.allow_zero3 {
        &[false, true]
    } else {
        &[false]
    };
    let panel_choices = match strategy {
        TpStrategy::Summa => powers_of_two_up_to(space.max_summa_panels),
        _ => vec![1],
    };
    let per_n1: Vec<Vec<ParallelConfig>> = divisors(n)
        .par_iter()
        .map(|&n1| {
            let mut out = Vec::new();
            let n2_choices: Vec<u64> = if strategy == TpStrategy::OneD {
                vec![1]
            } else {
                divisors(n / n1)
            };
            for n2 in n2_choices {
                for np in divisors(n / (n1 * n2)) {
                    let nd = n / (n1 * n2 * np);
                    if !b.is_multiple_of(nd) {
                        continue;
                    }
                    // Expert-parallel degrees: every divisor of nd
                    // compatible with the model's expert count (dense
                    // models: ep = 1).
                    let ep_choices: Vec<u64> = match model.moe {
                        None => vec![1],
                        Some(moe) => divisors(nd)
                            .into_iter()
                            .filter(|&ep| {
                                ep <= space.max_expert_parallel && moe.experts.is_multiple_of(ep)
                            })
                            .collect(),
                    };
                    let local_batch = b / nd;
                    for bm in divisors(local_batch) {
                        if bm > space.max_microbatch {
                            continue;
                        }
                        for &nb in &panel_choices {
                            for &ep in &ep_choices {
                                for &v in &interleave_choices {
                                    for &zero3 in zero3_choices {
                                        let cfg = ParallelConfig {
                                            strategy,
                                            n1,
                                            n2,
                                            np,
                                            nd,
                                            ep,
                                            microbatch: bm,
                                            summa_panels: nb,
                                            interleave: v,
                                            zero3,
                                            comm_algo: space.comm_algo,
                                        };
                                        if cfg.validate(model, b).is_ok() {
                                            out.push(cfg);
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
            out
        })
        .collect();
    per_n1.into_iter().flatten().collect()
}

/// Evaluates one candidate under its *best* NVS placement (paper Q1: "for
/// any parallelization configuration, the assignment to NVS domain is
/// optimal"), against an already-built layer profile and with the
/// placement-independent memory accounting already priced — the planner's
/// per-candidate inner loop.
pub(crate) fn best_placement_with_memory(
    profile: &LayerProfile,
    model: &TransformerConfig,
    cfg: &ParallelConfig,
    global_batch: u64,
    sys: &SystemSpec,
    memory: crate::memory::MemoryUsage,
) -> Evaluation {
    let placements = enumerate_placements(cfg, sys.nvs_size);
    // Light scoring loop: hoist the per-placement invariants (system
    // fingerprint, pass fingerprints) and score each placement as a bare
    // breakdown total — two pass-level memo probes each — keeping only
    // the argmin. The full Evaluation is materialized once, for the
    // winner. Strict `Less` keeps the first minimum on ties, matching
    // `Iterator::min_by` over the same order bit for bit.
    let sys_fp = system_fingerprint(sys);
    let fps = PassFingerprints::of(profile);
    let mut best = 0;
    let mut best_t = f64::INFINITY;
    for (i, p) in placements.iter().enumerate() {
        let t = placement_breakdown(profile, model, cfg, p, global_batch, sys, sys_fp, fps).total();
        if crate::ord::is_improvement(t, best_t) {
            best = i;
            best_t = t;
        }
    }
    #[expect(
        clippy::expect_used,
        reason = "enumerate_placements always yields the trivial placement, so index 0 exists"
    )]
    let winner = placements
        .get(best)
        .expect("at least the trivial placement exists");
    evaluate_placement(profile, model, cfg, winner, global_batch, sys, memory)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::ProfileCache;
    use crate::Planner;
    use systems::{system, GpuGeneration, NvsSize};
    use txmodel::{gpt3_1t, vit_64k};

    fn b200_nvs8() -> SystemSpec {
        system(GpuGeneration::B200, NvsSize::Nvs8)
    }

    fn space(global_batch: u64) -> SearchSpace {
        SearchSpace::new().global_batch(global_batch)
    }

    fn planner<'a>(
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
    }

    /// Every candidate (infeasible ones flagged), stably sorted by
    /// iteration time.
    fn sorted_sweep(p: &Planner) -> Vec<Evaluation> {
        let mut evals = p.clone().include_infeasible(true).evaluations();
        evals.sort_by(|a, b| crate::ord::time_cmp(a.iteration_time, b.iteration_time));
        evals
    }

    #[test]
    fn partitions_cover_the_grid() {
        let model = gpt3_1t().config;
        let parts = enumerate_partitions(&model, &space(4096), 512, TpStrategy::OneD);
        assert!(!parts.is_empty());
        for p in &parts {
            assert_eq!(p.total_gpus(), 512);
            assert_eq!(p.n2, 1);
            p.validate(&model, 4096).unwrap();
        }
        // Pure DP must be among them.
        assert!(parts.iter().any(|p| p.nd == 512 && p.n1 == 1 && p.np == 1));
    }

    #[test]
    fn doubling_stops_at_the_largest_power_of_two() {
        assert_eq!(powers_of_two_up_to(0), [1]);
        assert_eq!(powers_of_two_up_to(1), [1]);
        assert_eq!(powers_of_two_up_to(6), [1, 2, 4]);
        let unbounded = powers_of_two_up_to(u64::MAX);
        assert_eq!(unbounded.len(), 64);
        assert_eq!(unbounded.last(), Some(&(1u64 << 63)));
    }

    #[test]
    fn summa_enumerates_panel_counts() {
        let model = gpt3_1t().config;
        let parts = enumerate_partitions(&model, &space(4096), 64, TpStrategy::Summa);
        let nbs: std::collections::BTreeSet<u64> = parts.iter().map(|p| p.summa_panels).collect();
        assert!(nbs.contains(&1) && nbs.contains(&16));
    }

    #[test]
    fn best_evaluation_finds_feasible_gpt_config() {
        let model = gpt3_1t().config;
        let sys = b200_nvs8();
        let best = planner(&model, &sys, 1024, 4096, TpStrategy::OneD)
            .best_evaluation()
            .expect("1024 B200s can train GPT3-1T");
        assert!(best.feasible);
        assert!(best.memory.fits(sys.gpu.hbm_capacity));
        // The optimum needs real TP and PP at this scale.
        assert!(best.config.tensor_parallel() >= 2);
        assert!(best.config.np >= 2);
    }

    #[test]
    fn vit_1d_tp_has_no_feasible_config() {
        // Paper Q2(iv): the 64K ViT cannot train with 1D TP.
        let model = vit_64k().config;
        let sys = b200_nvs8();
        let best = planner(&model, &sys, 512, 4096, TpStrategy::OneD).best_evaluation();
        assert!(best.is_none());
    }

    #[test]
    fn vit_2d_tp_is_feasible() {
        let model = vit_64k().config;
        let sys = b200_nvs8();
        let best = planner(&model, &sys, 512, 4096, TpStrategy::TwoD)
            .best_evaluation()
            .expect("2D TP makes the ViT trainable");
        // Real 2D: sequence dimension in use.
        assert!(best.config.n2 >= 2, "{}", best.config);
        assert!(best.config.tensor_parallel() >= 16);
    }

    #[test]
    fn sweep_is_sorted_and_superset_of_optimum() {
        let model = gpt3_1t().config;
        let sys = b200_nvs8();
        let p = planner(&model, &sys, 256, 4096, TpStrategy::OneD);
        let sweep = sorted_sweep(&p);
        assert!(sweep
            .windows(2)
            .all(|w| w[0].iteration_time <= w[1].iteration_time));
        let best = p.best_evaluation().unwrap();
        let sweep_best = sweep.iter().find(|e| e.feasible).unwrap();
        assert!((sweep_best.iteration_time - best.iteration_time).abs() < 1e-12);
    }

    #[test]
    fn extended_space_never_loses_to_baseline() {
        // Interleaving and ZeRO-3 strictly enlarge the search space, so
        // the optimum can only improve (or tie).
        let model = gpt3_1t().config;
        let sys = b200_nvs8();
        let p = planner(&model, &sys, 1024, 4096, TpStrategy::OneD);
        let base = p.best_evaluation().unwrap();
        let ext = p
            .with_space(|s| s.max_interleave(4).allow_zero3(true))
            .best_evaluation()
            .unwrap();
        assert!(ext.iteration_time <= base.iteration_time + 1e-12);
    }

    #[test]
    fn interleave_enumeration_respects_layer_divisibility() {
        let model = gpt3_1t().config; // depth 128
        let s = space(4096).max_interleave(4);
        for cfg in enumerate_partitions(&model, &s, 1024, TpStrategy::OneD) {
            assert_eq!((model.depth / cfg.np) % cfg.interleave, 0);
        }
    }

    #[test]
    fn sweep_is_bit_identical_across_thread_counts() {
        let model = gpt3_1t().config;
        let sys = b200_nvs8();
        let p = planner(&model, &sys, 256, 4096, TpStrategy::OneD);
        let pool = |n| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .unwrap()
        };
        let seq = pool(1).install(|| sorted_sweep(&p));
        assert!(!seq.is_empty());
        for n in [2, 4, 8] {
            let par = pool(n).install(|| sorted_sweep(&p));
            // Full struct equality: same ordering, bit-identical
            // iteration times, breakdowns and memory accounting.
            assert_eq!(par, seq, "thread count {n}");
        }
    }

    #[test]
    fn best_evaluation_is_bit_identical_across_thread_counts() {
        let model = gpt3_1t().config;
        let sys = b200_nvs8();
        let p = planner(&model, &sys, 512, 4096, TpStrategy::TwoD);
        let pool = |n| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n)
                .build()
                .unwrap()
        };
        let seq = pool(1).install(|| p.best_evaluation()).unwrap();
        for n in [2, 8] {
            let par = pool(n).install(|| p.best_evaluation()).unwrap();
            assert_eq!(par, seq, "thread count {n}");
        }
    }

    #[test]
    fn memory_prune_is_exact() {
        // The pruned best_evaluation must agree exactly with the unpruned
        // sweep's first feasible entry: the prune may only skip candidates
        // the feasibility filter would have discarded.
        let model = gpt3_1t().config;
        let sys = b200_nvs8();
        let p = planner(&model, &sys, 512, 4096, TpStrategy::OneD);
        let via_sweep = sorted_sweep(&p).into_iter().find(|e| e.feasible);
        let direct = p.best_evaluation();
        assert_eq!(direct, via_sweep);
    }

    #[test]
    fn cached_path_matches_from_scratch_eval() {
        // evaluate_config (profile built ad hoc) and the cache-backed
        // sweep must produce bit-identical evaluations per candidate.
        let model = gpt3_1t().config;
        let sys = b200_nvs8();
        let p = planner(&model, &sys, 64, 4096, TpStrategy::Summa);
        let sweep = sorted_sweep(&p);
        for e in sweep.iter().take(25) {
            let scratch = p.evaluate_config(&e.config);
            assert_eq!(&scratch, e);
        }
    }

    #[test]
    fn auto_algorithm_policy_never_loses() {
        // Auto only widens the per-collective algorithm choice, so the
        // optimum under Auto can never be slower than under Ring.
        let sys = b200_nvs8();
        for (model, n, b, strategy) in [
            (gpt3_1t().config, 1024, 4096, TpStrategy::OneD),
            (vit_64k().config, 512, 4096, TpStrategy::TwoD),
        ] {
            let auto = planner(&model, &sys, n, b, strategy);
            let ring = auto
                .clone()
                .with_space(|s| s.comm_algo(collectives::Algorithm::Ring));
            let r = ring.best_evaluation().unwrap();
            let a = auto.best_evaluation().unwrap();
            assert!(
                a.iteration_time <= r.iteration_time + 1e-12,
                "{strategy:?} n={n}: auto {} vs ring {}",
                a.iteration_time,
                r.iteration_time
            );
        }
    }

    #[test]
    fn auto_algorithm_policy_shifts_a_preset_optimum() {
        // The acceptance experiment: NCCL-style auto-selection does not
        // merely re-price the ring optimum — on GPT3-175B at 4096 B200
        // (global batch 1024, a DP-heavy corner) the cheaper tree/
        // hierarchical gradient sync moves the optimum to a wider DP
        // microbatching split (ring: n1=8, nd=512, bm=2 → auto: n1=16,
        // nd=256, bm=4).
        let model = txmodel::gpt3_175b().config;
        let sys = b200_nvs8();
        let auto_planner = planner(&model, &sys, 4096, 1024, TpStrategy::OneD);
        let ring = auto_planner
            .clone()
            .with_space(|s| s.comm_algo(collectives::Algorithm::Ring))
            .best_evaluation()
            .unwrap();
        let auto = auto_planner.best_evaluation().unwrap();
        assert!(auto.iteration_time < ring.iteration_time);
        let tuple = |e: &Evaluation| (e.config.n1, e.config.np, e.config.nd, e.config.microbatch);
        assert_ne!(tuple(&auto), tuple(&ring), "optimum should move");
        assert_eq!(tuple(&ring), (8, 1, 512, 2));
        assert_eq!(tuple(&auto), (16, 1, 256, 4));
    }

    #[test]
    fn moe_enumeration_respects_expert_divisibility() {
        let model = txmodel::moe_1t().config; // 64 experts
        let parts = enumerate_partitions(&model, &space(4096), 256, TpStrategy::OneD);
        assert!(!parts.is_empty());
        let mut eps = std::collections::BTreeSet::new();
        for p in &parts {
            assert_eq!(p.nd % p.ep, 0, "{p}");
            assert_eq!(64 % p.ep, 0, "{p}");
            eps.insert(p.ep);
        }
        // The joint sweep really explores the ep dimension.
        assert!(eps.len() > 2, "only {eps:?}");
        // Dense models never leave ep = 1.
        let dense = enumerate_partitions(&gpt3_1t().config, &space(4096), 256, TpStrategy::OneD);
        assert!(dense.iter().all(|p| p.ep == 1));
    }

    #[test]
    fn moe_optimum_selects_expert_parallelism() {
        // The acceptance experiment: on MoE-1T @ 512 B200 (batch 4096)
        // the jointly-searched (tp, pp, dp, ep) optimum lands on a
        // nontrivial ep > 1 placement — expert weights are sharded
        // rather than replicated, and the expert-gradient sync shrinks to
        // the nd/ep replica group (pinned: n1=1, np=8, nd=64, ep=8).
        let model = txmodel::moe_1t().config;
        let sys = b200_nvs8();
        let best = planner(&model, &sys, 512, 4096, TpStrategy::OneD)
            .best_evaluation()
            .expect("512 B200s can train MoE-1T");
        assert!(best.config.ep > 1, "got {}", best.config);
        assert_eq!(
            (
                best.config.n1,
                best.config.np,
                best.config.nd,
                best.config.ep
            ),
            (1, 8, 64, 8),
            "got {}",
            best.config
        );
    }

    #[test]
    fn expert_parallelism_beats_pinned_ep1() {
        // Ablation: restricting the sweep to ep = 1 (experts fully
        // replicated per DP rank) must cost real iteration time — the
        // MoE-1T expert set alone is ~2.2 TB of FP16 weights.
        let model = txmodel::moe_1t().config;
        let sys = b200_nvs8();
        let joint = planner(&model, &sys, 512, 4096, TpStrategy::OneD);
        let best = joint.best_evaluation().unwrap();
        let no_ep = joint
            .with_space(|s| s.max_expert_parallel(1))
            .best_evaluation()
            .unwrap();
        assert!(
            best.iteration_time < 0.5 * no_ep.iteration_time,
            "joint {} vs ep=1 {}",
            best.iteration_time,
            no_ep.iteration_time
        );
    }

    #[test]
    fn moe_search_reuses_profiles_like_dense() {
        // Search-cost guard: the ProfileCache still collapses the
        // (np, nd, interleave, zero3, placement) inner space — the
        // distinct-profile count is bounded by (n1 choices) × (bm
        // choices) × (ep choices), orders of magnitude below the
        // candidate count.
        let model = txmodel::moe_1t().config;
        let parts = enumerate_partitions(&model, &space(4096), 512, TpStrategy::OneD);
        let cache = ProfileCache::build(&model, &b200_nvs8().gpu, &parts);
        assert!(
            cache.len() * 4 < parts.len(),
            "{} profiles for {} candidates",
            cache.len(),
            parts.len()
        );
    }

    #[test]
    fn more_gpus_is_not_slower() {
        // Strong scaling: the optimum at 2n must be at least as fast as at
        // n (the search can always replicate the n-GPU config... not
        // exactly, but monotonicity holds in practice for powers of two).
        let model = gpt3_1t().config;
        let sys = b200_nvs8();
        let t = |n: u64| {
            planner(&model, &sys, n, 4096, TpStrategy::OneD)
                .best_evaluation()
                .unwrap()
                .iteration_time
        };
        let (t512, t1024) = (t(512), t(1024));
        assert!(t1024 < t512, "t512={t512} t1024={t1024}");
    }
}
