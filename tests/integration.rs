//! Cross-crate integration tests: the full pipeline from architecture
//! description through search, and the two simulators against the
//! analytic model.

use fmperf::prelude::*;
use netsim::{simulate_collective, SimOptions};
use trainsim::{compare, simulate_iteration, SimParams};

/// The fastest feasible configuration of a single-scale, single-strategy
/// space.
fn best(
    model: &TransformerConfig,
    sys: &SystemSpec,
    gpus: u64,
    global_batch: u64,
    strategy: TpStrategy,
) -> Option<Evaluation> {
    Planner::new(model, sys)
        .gpus(gpus)
        .global_batch(global_batch)
        .strategy(strategy)
        .best_evaluation()
}

#[test]
fn end_to_end_gpt_plan_is_consistent() {
    let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
    let model = gpt3_1t().config;
    let best = best(&model, &sys, 2048, 4096, TpStrategy::OneD).expect("feasible");
    // Re-evaluating the returned configuration + placement must give the
    // same numbers (the search reports real evaluations).
    let re = evaluate(&model, &best.config, &best.placement, 4096, &sys);
    assert!((re.iteration_time - best.iteration_time).abs() < 1e-12);
    assert_eq!(re.memory, best.memory);
    // And the breakdown must account for the whole iteration.
    assert!((re.breakdown.total() - re.iteration_time).abs() / re.iteration_time < 1e-12);
}

#[test]
fn search_beats_every_handpicked_config() {
    let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
    let model = gpt3_1t().config;
    let n = 1024;
    let best = best(&model, &sys, n, 4096, TpStrategy::OneD).unwrap();
    for (n1, np, nd) in [(8, 16, 8), (4, 32, 8), (16, 64, 1), (2, 128, 4)] {
        let cfg = ParallelConfig::new(TpStrategy::OneD, n1, 1, np, nd, 1);
        if cfg.validate(&model, 4096).is_err() {
            continue;
        }
        let e = Planner::new(&model, &sys)
            .global_batch(4096)
            .evaluate_config(&cfg);
        if e.feasible {
            assert!(
                best.iteration_time <= e.iteration_time + 1e-12,
                "search missed {cfg}: {} < {}",
                e.iteration_time,
                best.iteration_time
            );
        }
    }
}

#[test]
fn analytic_collectives_track_the_simulator_across_shapes() {
    let opts = SimOptions::default();
    for (gen, nvs) in [
        (GpuGeneration::A100, NvsSize::Nvs4),
        (GpuGeneration::B200, NvsSize::Nvs8),
    ] {
        let sys = system(gen, nvs);
        for (size, per_domain) in [(8u64, 4u64), (16, 4), (64, 4)] {
            let per_domain = per_domain.min(sys.nvs_size);
            let group = CommGroup::new(size, per_domain);
            for coll in [Collective::AllGather, Collective::AllReduce] {
                let v = 512e6;
                let ana = collective_time(coll, v, group, &sys);
                let sim = simulate_collective(coll, v, group, &sys, &opts).time;
                let err = (sim - ana).abs() / ana;
                assert!(
                    err < 0.2,
                    "{:?} on {}x{}: err {err:.3}",
                    coll,
                    size,
                    per_domain
                );
            }
        }
    }
}

#[test]
fn algorithm_selection_is_consistent_between_model_and_simulator() {
    // NCCL-style algorithm auto-selection end to end: for each algorithm
    // the DES tracks its analytic formula, and `auto` is the minimum in
    // both worlds (the netsim-algorithms validation path).
    use collectives::{allreduce_time, Algorithm};
    let sys = system(GpuGeneration::A100, NvsSize::Nvs4);
    let g = CommGroup::new(32, 4);
    for v in [64e3, 16e6, 2e9] {
        for algo in [Algorithm::Ring, Algorithm::Tree, Algorithm::Hierarchical] {
            let opts = SimOptions {
                algorithm: algo,
                pieces: 64,
                ..SimOptions::default()
            };
            let ana = allreduce_time(algo, v, g, &sys);
            let sim = simulate_collective(Collective::AllReduce, v, g, &sys, &opts).time;
            let err = (sim - ana).abs() / ana;
            assert!(err < 0.35, "{algo:?} at {v:.0}: err {err:.3}");
        }
        let ana_auto = allreduce_time(Algorithm::Auto, v, g, &sys);
        for algo in [Algorithm::Ring, Algorithm::Tree, Algorithm::Hierarchical] {
            assert!(ana_auto <= allreduce_time(algo, v, g, &sys) + 1e-15);
        }
        let opts = SimOptions {
            algorithm: Algorithm::Auto,
            pieces: 64,
            ..SimOptions::default()
        };
        let sim_auto = simulate_collective(Collective::AllReduce, v, g, &sys, &opts).time;
        let sim_ring = simulate_collective(
            Collective::AllReduce,
            v,
            g,
            &sys,
            &SimOptions {
                algorithm: Algorithm::Ring,
                pieces: 64,
                ..SimOptions::default()
            },
        )
        .time;
        assert!(sim_auto <= sim_ring + 1e-15);
    }
}

#[test]
fn schedule_simulator_validates_the_model_on_the_paper_setting() {
    // §IV: 512 GPUs, batch 1024, GPT3-175B — optimal and one sub-optimal.
    let sys = perlmutter(4);
    let model = gpt3_175b().config;
    let optimal = ParallelConfig::new(TpStrategy::OneD, 4, 1, 16, 8, 1);
    let pl = Placement {
        v1: 4,
        v2: 1,
        vp: 1,
        vd: 1,
    };
    let row = compare(
        "opt",
        &model,
        &optimal,
        &pl,
        1024,
        &sys,
        &SimParams::default(),
    )
    .unwrap();
    assert!(row.rel_err() < 0.15, "optimal err {:.3}", row.rel_err());

    let sub = ParallelConfig::new(TpStrategy::OneD, 16, 1, 8, 4, 1);
    let sub_row = compare("sub", &model, &sub, &pl, 1024, &sys, &SimParams::default()).unwrap();
    assert!(
        sub_row.analytic > row.analytic,
        "sub-optimal must predict slower"
    );
    assert!(sub_row.simulated > row.simulated, "and simulate slower");
}

#[test]
fn simulated_bubble_matches_analytic_bubble_share() {
    let sys = perlmutter(4);
    let model = gpt3_175b().config;
    let cfg = ParallelConfig::new(TpStrategy::OneD, 4, 1, 16, 8, 1);
    let pl = Placement {
        v1: 4,
        v2: 1,
        vp: 1,
        vd: 1,
    };
    let ana = evaluate(&model, &cfg, &pl, 1024, &sys);
    let sim = simulate_iteration(&model, &cfg, &pl, 1024, &sys, &SimParams::ideal()).unwrap();
    let ana_share = ana.breakdown.pp_bubble / ana.iteration_time;
    assert!(
        (sim.bubble_fraction - ana_share).abs() < 0.05,
        "sim bubble {:.3} vs analytic share {:.3}",
        sim.bubble_fraction,
        ana_share
    );
}

#[test]
fn paper_contrast_llm_vs_sciml() {
    // The paper's headline contrast, end to end: the LLM works with 1D TP
    // + pipelining; the long-sequence ViT needs 2D TP and rejects 1D.
    let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
    let gpt = best(&gpt3_1t().config, &sys, 4096, 4096, TpStrategy::OneD);
    assert!(gpt.is_some());
    let vit_1d = best(&vit_64k().config, &sys, 4096, 4096, TpStrategy::OneD);
    assert!(vit_1d.is_none());
    let vit_2d =
        best(&vit_64k().config, &sys, 4096, 4096, TpStrategy::TwoD).expect("2D TP trains the ViT");
    assert!(vit_2d.config.n2 >= 2);
    // ViT pins HBM; GPT at this scale does not.
    assert!(vit_2d.memory.total_gb() > gpt.unwrap().memory.total_gb());
}

#[test]
fn training_days_compose_with_workloads() {
    let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
    let best = best(&gpt3_1t().config, &sys, 16384, 4096, TpStrategy::OneD).unwrap();
    let days = training_days(&TrainingWorkload::gpt3_1t_pretraining(), &best);
    // Paper Fig. 5a: O(3–5) days on 16K B200.
    assert!(days > 2.0 && days < 8.0, "got {days}");
}

#[test]
fn alltoall_model_tracks_the_simulator() {
    // The MoE collective's Fig.-A1-style cross-validation at the facade
    // level: each analytic A2A algorithm tracks its simulated schedule,
    // and Auto is the minimum in both worlds.
    use collectives::{alltoall_pairwise_time, alltoall_ring_time, alltoall_time};
    let sys = system(GpuGeneration::A100, NvsSize::Nvs4);
    let g = CommGroup::new(32, 4);
    for v in [64e3, 16e6, 2e9] {
        for (algo, ana) in [
            (Algorithm::Ring, alltoall_ring_time(v, g, &sys)),
            (Algorithm::Hierarchical, alltoall_pairwise_time(v, g, &sys)),
        ] {
            let opts = SimOptions {
                algorithm: algo,
                ..SimOptions::default()
            };
            let sim = simulate_collective(Collective::AllToAll, v, g, &sys, &opts).time;
            let err = (sim - ana).abs() / ana;
            assert!(err < 0.35, "{algo:?} at {v:.0}: err {err:.3}");
        }
        let auto = alltoall_time(Algorithm::Auto, v, g, &sys);
        assert!(auto <= alltoall_ring_time(v, g, &sys) + 1e-15);
        assert!(auto <= alltoall_pairwise_time(v, g, &sys) + 1e-15);
    }
}

#[test]
fn moe_pipeline_end_to_end() {
    // The MoE workload crosses every layer: preset → joint (tp, pp, dp,
    // ep) search → re-evaluation consistency → schedule-simulator
    // cross-check on the returned optimum.
    let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
    let model = moe_1t().config;
    let best = best(&model, &sys, 512, 4096, TpStrategy::OneD).expect("feasible");
    assert!(
        best.config.ep > 1,
        "expected expert parallelism: {}",
        best.config
    );
    let re = evaluate(&model, &best.config, &best.placement, 4096, &sys);
    assert!((re.iteration_time - best.iteration_time).abs() < 1e-12);
    assert_eq!(re.memory, best.memory);
    // The 1F1B simulator accepts the MoE optimum and lands near the model
    // (same error class as the dense validation).
    let row = trainsim::compare(
        "MoE-1T optimum",
        &model,
        &best.config,
        &best.placement,
        4096,
        &sys,
        &SimParams::ideal(),
    )
    .unwrap();
    assert!(row.rel_err() < 0.15, "err {:.3}", row.rel_err());
}

#[test]
fn joint_search_skips_unsupported_simulator_configs() {
    // The joint interleave/ZeRO sweep produces candidates trainsim cannot
    // execute; they must surface as skippable typed errors, not crashes.
    let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
    let model = gpt3_1t().config;
    let planner = Planner::new(&model, &sys)
        .gpus(512)
        .global_batch(4096)
        .strategy(TpStrategy::OneD)
        .with_space(|s| s.max_interleave(2).allow_zero3(true));
    let mut skipped = 0;
    let mut checked = 0;
    for cfg in planner
        .candidates()
        .into_iter()
        .filter(|c| c.np <= 8)
        .take(24)
    {
        match trainsim::compare(
            "sweep",
            &model,
            &cfg,
            &Placement::trivial(),
            4096,
            &sys,
            &SimParams::ideal(),
        ) {
            Ok(_) => checked += 1,
            Err(e) => {
                // Typed, displayable, and only for the two known gaps.
                assert!(
                    cfg.interleave > 1 || cfg.zero3,
                    "spurious skip: {e} for {cfg}"
                );
                skipped += 1;
            }
        }
    }
    assert!(checked > 0, "sweep validated nothing");
    assert!(skipped > 0, "sweep never hit an unsupported corner");
}

#[test]
fn placement_search_improves_on_trivial_placement() {
    let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
    let model = gpt3_1t().config;
    let cfg = ParallelConfig::new(TpStrategy::OneD, 8, 1, 64, 32, 1);
    let best = Planner::new(&model, &sys)
        .global_batch(4096)
        .evaluate_config(&cfg);
    let trivial = evaluate(
        &model,
        &cfg,
        &Placement {
            v1: 1,
            v2: 1,
            vp: 1,
            vd: 1,
        },
        4096,
        &sys,
    );
    assert!(best.iteration_time < trivial.iteration_time);
}

/// The serving acceptance experiment (the serving analogue of the
/// goodput-vs-iteration-time split): on the pinned GPT3-175B chat
/// workload at 64 B200s, the `ServingSlo` optimum provably differs from
/// the `TokensPerSecPerGpu` optimum — different tensor-parallel degree
/// *and* different prefill/decode placement — and disaggregation beats
/// colocation on the SLO config; the discrete-event simulator confirms
/// both verdicts; everything is bit-identical at 1, 2 and 8 worker
/// threads.
#[test]
fn serving_slo_optimum_differs_from_throughput_optimum() {
    use perfmodel::serving::{assess, assess_mode, assess_slo};
    use rayon::ThreadPoolBuilder;
    use servesim::{simulate_serving, SimSpec};

    let preset = gpt3_175b_chat();
    let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
    // Interactive-streaming budget: first token inside 120/160 ms,
    // steady 30/50 ms per token. Tight enough that the raw-throughput
    // winner (slow prefill, prefill-stalled decode tail) cannot meet it.
    let slo = SloSpec {
        ttft_p50: 0.12,
        ttft_p99: 0.16,
        tpot_p50: 0.03,
        tpot_p99: 0.05,
    };
    let planner = || {
        Planner::new(&preset.model, &sys)
            .gpus(64)
            .global_batch(1024)
            .strategy(TpStrategy::OneD)
            .serving(preset.traffic)
    };
    let run = |obj: Objective| planner().objective(obj).top_k(1).execute();

    let thr = run(Objective::TokensPerSecPerGpu);
    let slo_plans = run(Objective::ServingSlo { slo });
    let best_thr = thr.best().expect("throughput sweep finds a plan");
    let best_slo = slo_plans.best().expect("SLO sweep finds a plan");

    // The optima differ at the parallelization level: raw throughput
    // packs replicas (tp=4, nd=16); the SLO needs faster prefill and
    // decode steps (tp=8, nd=8) at a 41% capacity sacrifice.
    assert_eq!(best_thr.eval.config.tensor_parallel(), 4);
    assert_eq!(best_thr.eval.config.nd, 16);
    assert_eq!(best_slo.eval.config.tensor_parallel(), 8);
    assert_eq!(best_slo.eval.config.nd, 8);

    let ctx = planner().objective_ctx();
    let sctx = ctx.serving.as_ref().expect("serving ctx populated");
    let r_thr = assess(&best_thr.eval, sctx);
    let r_slo = assess_slo(&best_slo.eval, sctx, &slo);

    // ...and at the placement level: throughput keeps one colocated
    // pool, the SLO optimum dedicates prefill replicas.
    assert_eq!(r_thr.mode, PdPlacement::Colocated);
    assert!(matches!(r_slo.mode, PdPlacement::Disaggregated { .. }));
    assert!(!r_thr.meets(&slo), "tpot99 {} must violate", r_thr.tpot_p99);
    assert!(r_slo.meets(&slo));
    assert!(r_thr.tokens_per_gpu_second > r_slo.tokens_per_gpu_second);

    // Disaggregated beats colocated on the pinned SLO config: same
    // parallelization, opposite verdict.
    let colo = assess_mode(&best_slo.eval, sctx, PdPlacement::Colocated);
    assert!(!colo.meets(&slo));
    assert!(r_slo.slo_score(&slo) > colo.slo_score(&slo));

    // The discrete-event replay confirms both verdicts on measured
    // percentiles: the throughput winner's decode tail really violates
    // the target, the SLO winner's trace really meets every target.
    let params = servesim::SimParams {
        seed: 42,
        requests: 3000,
    };
    let m_thr = simulate_serving(
        &SimSpec::from_plan(&best_thr.eval, sctx, r_thr.mode).expect("simulatable"),
        &params,
    );
    let m_slo = simulate_serving(
        &SimSpec::from_plan(&best_slo.eval, sctx, r_slo.mode).expect("simulatable"),
        &params,
    );
    assert!(m_thr.tpot_p99 > slo.tpot_p99, "measured {}", m_thr.tpot_p99);
    assert!(m_slo.tpot_p99 <= slo.tpot_p99 && m_slo.tpot_p50 <= slo.tpot_p50);
    assert!(m_slo.ttft_p99 <= slo.ttft_p99 && m_slo.ttft_p50 <= slo.ttft_p50);

    // Thread invariance: the serving sweep and the simulator replay are
    // bit-identical at 1, 2 and 8 worker threads.
    let pool = |n: usize| ThreadPoolBuilder::new().num_threads(n).build().unwrap();
    for threads in [1usize, 2, 8] {
        let (t, s, m) = pool(threads).install(|| {
            (
                run(Objective::TokensPerSecPerGpu),
                run(Objective::ServingSlo { slo }),
                simulate_serving(
                    &SimSpec::from_plan(&best_slo.eval, sctx, r_slo.mode).expect("simulatable"),
                    &params,
                ),
            )
        });
        assert_eq!(
            t.best().expect("plan").eval,
            best_thr.eval,
            "{threads} threads"
        );
        assert_eq!(
            s.best().expect("plan").eval,
            best_slo.eval,
            "{threads} threads"
        );
        assert_eq!(m, m_slo, "{threads} threads");
    }
}
