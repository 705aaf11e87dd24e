//! Smoke tests for every example's library path: each test runs the same
//! API calls its example binary makes (at reduced scale where the example
//! sweeps many systems) and sanity-checks the quantities it prints, so a
//! migrated example cannot silently rot. CI additionally runs every
//! example binary itself via the `cargo run --release --example` matrix.

use fmperf::prelude::*;

/// `examples/quickstart.rs`: plan GPT3-1T, print best plan + frontier.
#[test]
fn quickstart_path_end_to_end() {
    let model = gpt3_1t();
    let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
    let plans = Planner::new(&model.config, &sys)
        .gpus(1024)
        .global_batch(4096)
        .strategy(TpStrategy::OneD)
        .objective(Objective::IterationTime)
        .pareto([Objective::IterationTime, Objective::HbmHeadroom])
        .top_k(3)
        .execute();
    let best = plans.best().expect("a feasible configuration exists");

    assert_eq!(best.eval.config.total_gpus(), 1024);
    assert!(best.eval.feasible);
    assert!(best.eval.iteration_time > 0.0);
    // Must fit in B200 HBM (the definition of feasible).
    assert!(best.eval.memory.total() <= sys.gpu.hbm_capacity);
    // The breakdown the example prints must sum to 100%.
    let total_pct: f64 = best
        .eval
        .breakdown
        .percentages()
        .iter()
        .map(|(_, p)| *p)
        .sum();
    assert!(
        (total_pct - 100.0).abs() < 1e-6,
        "breakdown sums to {total_pct}%"
    );
    // A 1T-token pre-training run lands in a physically sensible window.
    let days = training_days(&TrainingWorkload::gpt3_1t_pretraining(), &best.eval);
    assert!(days > 1.0 && days < 1000.0, "training days: {days}");
    // The rendered artifact carries both the ranked plans and the
    // frontier, and the single-optimum search agrees with the pick.
    let art = plans.to_artifact("smoke", "quickstart");
    assert_eq!(art.rows.len(), plans.top.len() + plans.pareto.len());
    let single = Planner::new(&model.config, &sys)
        .gpus(1024)
        .global_batch(4096)
        .best_evaluation()
        .unwrap();
    assert_eq!(single.iteration_time, best.eval.iteration_time);
}

/// `examples/llm_pretrain_planner.rs`: days-ranked plan per system.
#[test]
fn llm_pretrain_planner_path() {
    let model = gpt3_1t();
    let workload = TrainingWorkload::gpt3_1t_pretraining();
    let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
    let plans = Planner::new(&model.config, &sys)
        .gpus(2048)
        .global_batch(4096)
        .strategy(TpStrategy::OneD)
        .objective(Objective::training_days(&workload))
        .top_k(1)
        .execute();
    let p = plans.best().expect("2048 B200 can train GPT3-1T");
    let days = p.score(&Objective::training_days(&workload)).unwrap();
    assert!(days > 5.0 && days < 100.0, "days {days}");
    // Ranking by days and by iteration time agree for a fixed workload
    // (days is a monotone transform of iteration time).
    let by_time = Planner::new(&model.config, &sys)
        .gpus(2048)
        .global_batch(4096)
        .strategy(TpStrategy::OneD)
        .top_k(1)
        .execute();
    assert_eq!(p.eval.config, by_time.best().unwrap().eval.config);
}

/// `examples/sciml_vit_planner.rs`: the 1D-TP wall and the 2D rescue.
#[test]
fn sciml_vit_planner_path() {
    let model = vit_64k();
    let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
    let both = Planner::new(&model.config, &sys)
        .gpus(512)
        .global_batch(4096)
        .strategies([TpStrategy::OneD, TpStrategy::TwoD])
        .top_k(usize::MAX)
        .execute();
    assert!(both.feasible > 0, "2D TP makes the ViT trainable");
    assert!(
        both.top
            .iter()
            .all(|p| p.eval.config.strategy == TpStrategy::TwoD),
        "every feasible ViT plan must be 2D (paper Q2(iv))"
    );
    assert!(both.best().unwrap().eval.config.tensor_parallel() >= 16);
}

/// `examples/moe_pretrain_planner.rs`: joint (tp,pp,dp,ep) planning plus
/// the declarative expert-parallelism ablation bound.
#[test]
fn moe_pretrain_planner_path() {
    let model = moe_1t();
    let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
    let planner = Planner::new(&model.config, &sys)
        .gpus(512)
        .global_batch(4096)
        .strategy(TpStrategy::OneD)
        .top_k(1);
    let joint = planner.clone().execute();
    let pinned = planner.with_space(|s| s.max_expert_parallel(1)).execute();
    let b = joint.best().expect("512 B200 can train MoE-1T");
    assert!(b.eval.config.ep > 1, "optimum should shard experts");
    let r = pinned.best().expect("ep=1 is feasible at 512");
    assert!(
        b.eval.iteration_time < r.eval.iteration_time,
        "expert parallelism must beat pinned ep=1"
    );
}

/// `examples/system_codesign.rs`: builder designs + the multi-scale
/// lexicographic cost objective.
#[test]
fn system_codesign_path() {
    let model = gpt3_175b();
    let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
    // Hypothetical design via the builder, planned like the example does.
    let fat_hbm = SystemBuilder::from_catalog(GpuGeneration::B200, NvsSize::Nvs8)
        .hbm_capacity(1e12)
        .name("1 TB HBM")
        .build();
    for s in [&sys, &fat_hbm] {
        let plans = Planner::new(&model.config, s)
            .gpus(512)
            .global_batch(1024)
            .strategy(TpStrategy::OneD)
            .top_k(1)
            .execute();
        assert!(plans.best().is_some(), "{} infeasible", s.name);
    }
    // Fleet sizing: the cost-refined objective never picks a plan with
    // more GPU-seconds than the pure-speed pick.
    let base = Planner::new(&model.config, &sys)
        .gpu_counts([256, 512])
        .global_batch(1024)
        .strategy(TpStrategy::OneD);
    let fastest = base.clone().objective(Objective::IterationTime).execute();
    let frugal = base
        .objective(Objective::IterationTime.then(1.0, Objective::GpuSeconds))
        .execute();
    let gpu_s = |p: &Plan| p.eval.config.total_gpus() as f64 * p.eval.iteration_time;
    assert!(gpu_s(frugal.best().unwrap()) <= gpu_s(fastest.best().unwrap()));
}

/// `examples/hardware_sensitivity.rs`: elasticities over a named-builder
/// search space.
#[test]
fn hardware_sensitivity_path() {
    let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
    let space = SearchSpace::new()
        .gpus(256)
        .global_batch(4096)
        .strategy(TpStrategy::OneD);
    let es =
        perfmodel::elasticities(&gpt3_1t().config, &sys, &space, 0.25).expect("baseline feasible");
    assert_eq!(es.len(), perfmodel::HardwareAxis::ALL.len());
    let flops = es
        .iter()
        .find(|e| e.axis == perfmodel::HardwareAxis::TensorFlops)
        .unwrap()
        .value;
    assert!(flops < 0.0, "FLOP rate must matter: {flops}");
}

/// `examples/validate_against_simulator.rs`: collective DES cross-check
/// plus the serialized-plan validation path.
#[test]
fn validate_against_simulator_path() {
    use netsim::{simulate_collective, SimOptions};
    use trainsim::SimParams;
    // Fig. A1 analogue at one point.
    let psys = perlmutter(4);
    let group = CommGroup::new(32, 4);
    let ana = collective_time(Collective::AllGather, 1e9, group, &psys);
    let sim = simulate_collective(
        Collective::AllGather,
        1e9,
        group,
        &psys,
        &SimOptions::default(),
    )
    .time;
    assert!(((sim - ana) / ana).abs() < 0.25, "ana {ana} sim {sim}");
    // §IV analogue through the Plan artifact, exactly as the example does.
    let model = gpt3_175b().config;
    let cfg = ParallelConfig::new(TpStrategy::OneD, 4, 1, 16, 8, 1);
    let pl = Placement {
        v1: 4,
        v2: 1,
        vp: 1,
        vd: 1,
    };
    let plan = Plan {
        model,
        global_batch: 1024,
        eval: evaluate(&model, &cfg, &pl, 1024, &psys),
        scores: Vec::new(),
    };
    let json = serde_json::to_string(&plan).unwrap();
    let artifact: Plan = serde_json::from_str(&json).unwrap();
    let row = trainsim::compare_plan(&artifact, &psys, &SimParams::default()).unwrap();
    assert!(row.rel_err() < 0.30, "error {:.3}", row.rel_err());
}

/// `examples/reliability_planner.rs`: the objective flip plus the
/// fault-injected replay cross-check, at the example's own scale.
#[test]
fn reliability_planner_path() {
    use perfmodel::reliability::assess;
    // Objective flip at 4096 B200s: different winners, and the goodput
    // winner delivers more once failures are priced in.
    let model = gpt3_175b().config;
    let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
    let planner = Planner::new(&model, &sys)
        .gpus(4096)
        .global_batch(1024)
        .strategy(TpStrategy::OneD);
    let ctx = planner.objective_ctx();
    let fast = planner
        .clone()
        .objective(Objective::IterationTime)
        .execute();
    let good = planner
        .clone()
        .objective(Objective::ExpectedGoodput)
        .execute();
    let (fast, good) = (fast.best().unwrap(), good.best().unwrap());
    assert_ne!(fast.eval.config, good.eval.config);
    assert!(fast.eval.iteration_time < good.eval.iteration_time);
    let (rf, rg) = (assess(&fast.eval, &ctx), assess(&good.eval, &ctx));
    assert!(rg.tokens_per_gpu_second > rf.tokens_per_gpu_second);

    // Replay path on the validated 512-GPU configuration (short horizon
    // for smoke speed; the example runs ten days).
    let sys = perlmutter(4).with_reliability(
        ReliabilitySpec::failure_free()
            .with_gpu_mtbf_hours(2_000.0)
            .with_restart_overhead_s(600.0),
    );
    let cfg = ParallelConfig::new(TpStrategy::OneD, 4, 1, 16, 8, 1);
    let pl = Placement {
        v1: 4,
        v2: 1,
        vp: 1,
        vd: 1,
    };
    let e = evaluate(&model, &cfg, &pl, 1024, &sys);
    let ctx = Planner::new(&model, &sys)
        .global_batch(1024)
        .objective_ctx();
    let r = assess(&e, &ctx);
    let plan = FaultPlan::sample(&sys.reliability, 512, sys.nics_for(512), 127, 86_400.0, 11);
    let params = TrainingParams::new(
        r.optimal_interval,
        r.checkpoint_time,
        sys.reliability.restart_overhead_s,
    );
    let rep = simulate_training(&model, &cfg, &pl, 1024, &sys, &plan, &params).unwrap();
    assert!(rep.goodput_fraction > 0.85 && rep.goodput_fraction < 1.0);
    assert_eq!(rep.restarts as usize, plan.kills());
}

/// `examples/serving_planner.rs`: the serving objective flip, the
/// placement ledger, and the simulator replay, at smoke scale.
#[test]
fn serving_planner_path() {
    use perfmodel::serving::{assess, assess_slo};
    let preset = gpt3_175b_chat();
    let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
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
    let ctx = planner().objective_ctx();
    let sctx = ctx.serving.as_ref().expect("serving configured");
    let thr = planner()
        .objective(Objective::TokensPerSecPerGpu)
        .top_k(1)
        .execute();
    let slo_plans = planner()
        .objective(Objective::ServingSlo { slo })
        .top_k(1)
        .execute();
    let (thr, best) = (thr.best().unwrap(), slo_plans.best().unwrap());
    assert_ne!(thr.eval.config, best.eval.config, "the objective must flip");
    let (r_thr, r_slo) = (assess(&thr.eval, sctx), assess_slo(&best.eval, sctx, &slo));
    assert!(!r_thr.meets(&slo) && r_slo.meets(&slo));
    assert!(r_thr.tokens_per_gpu_second > r_slo.tokens_per_gpu_second);
    // The replay leg the example prints, at reduced trace length.
    let params = ServeSimParams {
        seed: 42,
        requests: 500,
    };
    let m = simulate_serving(
        &SimSpec::from_plan(&best.eval, sctx, r_slo.mode).expect("simulatable"),
        &params,
    );
    assert_eq!(m.completed, 500);
    assert!(m.tpot_p99 <= slo.tpot_p99 && m.ttft_p99 <= slo.ttft_p99);
}
