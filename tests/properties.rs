//! Property-based tests on the model's core invariants.

use fmperf::prelude::*;
use perfmodel::reliability::{
    assess, optimal_checkpoint_interval, solve_optimal_interval, waste_rate,
};
use perfmodel::{enumerate_placements, PlannerConfig};
use proptest::prelude::*;
use trainsim::stage_schedule;

/// Strategy for power-of-two factors up to 2^max_log.
fn pow2(max_log: u32) -> impl Strategy<Value = u64> {
    (0..=max_log).prop_map(|e| 1u64 << e)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Collective time is monotone in volume and never negative.
    #[test]
    fn collective_time_monotone_in_volume(
        v1 in 1.0e3f64..1.0e10,
        scale in 1.01f64..100.0,
        size_log in 1u32..8,
        per_log in 0u32..4,
    ) {
        let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
        let size = 1u64 << size_log;
        let per = (1u64 << per_log).min(size).min(sys.nvs_size);
        prop_assume!(size.is_multiple_of(per));
        let g = CommGroup::new(size, per);
        for coll in [Collective::AllGather, Collective::ReduceScatter, Collective::AllReduce, Collective::Broadcast] {
            let a = collective_time(coll, v1, g, &sys);
            let b = collective_time(coll, v1 * scale, g, &sys);
            prop_assert!(a >= 0.0);
            prop_assert!(b > a, "{coll:?}: {b} !> {a}");
        }
    }

    /// Packing more of a cross-domain group into the fast domain never
    /// hurts (more NICs + fewer slow hops).
    #[test]
    fn collective_time_improves_with_domain_packing(
        v in 1.0e6f64..1.0e10,
        size_log in 3u32..9,
    ) {
        let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
        let size = 1u64 << size_log;
        let t2 = collective_time(Collective::AllGather, v, CommGroup::new(size, 2), &sys);
        let t8 = collective_time(Collective::AllGather, v, CommGroup::new(size, 8.min(size)), &sys);
        prop_assert!(t8 <= t2 + 1e-15);
    }

    /// Every evaluation's breakdown sums to its iteration time, and all
    /// buckets are non-negative.
    #[test]
    fn breakdown_sums_and_nonnegative(
        n1 in pow2(3),
        np_log in 0u32..5,
        nd_log in 0u32..5,
        bm in pow2(2),
    ) {
        let model = gpt3_1t().config;
        let np = 1u64 << np_log;
        let nd = 1u64 << nd_log;
        let cfg = ParallelConfig::new(TpStrategy::OneD, n1, 1, np, nd, bm);
        prop_assume!(cfg.validate(&model, 4096).is_ok());
        let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
        let e = Planner::new(&model, &sys).global_batch(4096).evaluate_config(&cfg);
        let b = e.breakdown;
        for part in [b.compute, b.memory, b.tp_comm, b.pp_bubble, b.dp_comm, b.pp_comm] {
            prop_assert!(part >= 0.0);
        }
        prop_assert!((b.total() - e.iteration_time).abs() <= 1e-9 * e.iteration_time);
        prop_assert!(e.iteration_time > 0.0);
    }

    /// Memory usage is monotone in microbatch size (more in-flight bytes)
    /// and weights shrink when TP grows.
    #[test]
    fn memory_monotonicity(
        n1 in pow2(3),
        bm_log in 0u32..3,
    ) {
        let model = gpt3_1t().config;
        let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
        let bm = 1u64 << bm_log;
        let mk = |n1: u64, bm: u64| {
            let cfg = ParallelConfig::new(TpStrategy::OneD, n1, 1, 8, 16, bm);
            cfg.validate(&model, 4096).ok()?;
            Some(Planner::new(&model, &sys).global_batch(4096).evaluate_config(&cfg).memory)
        };
        if let (Some(a), Some(b)) = (mk(n1, bm), mk(n1, bm * 2)) {
            prop_assert!(b.activations >= a.activations);
        }
        if let (Some(a), Some(b)) = (mk(n1, bm), mk(n1 * 2, bm)) {
            prop_assert!(b.weights < a.weights);
        }
    }

    /// Every enumerated placement is valid and maximal placements fill
    /// power-of-two domains exactly.
    #[test]
    fn placements_are_valid(
        n1 in pow2(3),
        n2 in pow2(2),
        np_log in 0u32..4,
        nd_log in 0u32..4,
    ) {
        let np = 1u64 << np_log;
        let nd = 1u64 << nd_log;
        let cfg = ParallelConfig::new(TpStrategy::TwoD, n1, n2, np, nd, 1);
        let nvs = 8;
        let placements = enumerate_placements(&cfg, nvs);
        prop_assert!(!placements.is_empty());
        let budget = nvs.min(cfg.total_gpus());
        for p in placements {
            prop_assert!(p.validate(&cfg, nvs).is_ok());
            prop_assert_eq!(p.gpus_per_domain(), budget);
        }
    }

    /// The 1F1B schedule always executes each microbatch exactly twice
    /// per stage, keeps in-flight ≤ np − stage, and ends drained.
    #[test]
    fn schedule_invariants(np in 1u64..12, m in 1u64..40, stage_frac in 0.0f64..1.0) {
        let stage = ((np - 1) as f64 * stage_frac) as u64;
        let order = stage_schedule(stage, np, m);
        prop_assert_eq!(order.len() as u64, 2 * m);
        let mut in_flight: i64 = 0;
        for item in &order {
            match item {
                trainsim::WorkItem::Forward(_) => in_flight += 1,
                trainsim::WorkItem::Backward(_) => in_flight -= 1,
            }
            prop_assert!(in_flight >= 0);
            prop_assert!(in_flight as u64 <= np - stage);
        }
        prop_assert_eq!(in_flight, 0);
    }

    /// GEMM census formulas stay exact under random shapes.
    #[test]
    fn gemm_census_formulas(m in 1u64..4096, k in 1u64..4096, n in 1u64..4096) {
        let c = txmodel::gemm(m, k, n);
        prop_assert_eq!(c.flops, (2.0 * k as f64 - 1.0) * m as f64 * n as f64);
        prop_assert_eq!(
            c.bytes,
            2.0 * (m as f64 * k as f64 + k as f64 * n as f64 + m as f64 * n as f64)
        );
    }

    /// Transformer parameter counts scale linearly with depth.
    #[test]
    fn params_linear_in_depth(d1 in 1u64..64, d2 in 1u64..64) {
        let mk = |d| TransformerConfig::new(2048, 1024, 4096, 16, d).total_params();
        prop_assert_eq!(mk(d1) * d2, mk(d2) * d1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Tree AllReduce beats ring on latency-bound shapes and loses on
    /// bandwidth-bound ones; auto always takes the minimum.
    #[test]
    fn tree_allreduce_selection(size_log in 2u32..11, vol in 1.0e3f64..1.0e10) {
        use collectives::{allreduce_auto_time, allreduce_tree_time};
        let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
        let size = 1u64 << size_log;
        let g = CommGroup::new(size, 8.min(size));
        let ring = collective_time(Collective::AllReduce, vol, g, &sys);
        let tree = allreduce_tree_time(vol, g, &sys);
        let auto = allreduce_auto_time(vol, g, &sys);
        prop_assert!(auto <= ring + 1e-15);
        prop_assert!(auto <= tree + 1e-15);
        prop_assert!((auto - ring.min(tree)).abs() < 1e-15);
    }

    /// Interleaving never increases the bubble and never decreases
    /// activation memory.
    #[test]
    fn interleave_tradeoff_direction(v_log in 1u32..4) {
        let model = gpt3_1t().config;
        let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
        let v = 1u64 << v_log;
        let base = ParallelConfig::new(TpStrategy::OneD, 8, 1, 16, 128, 1);
        let inter = ParallelConfig { interleave: v, ..base };
        prop_assume!(inter.validate(&model, 4096).is_ok());
        let pl = Placement { v1: 8, v2: 1, vp: 1, vd: 1 };
        let e0 = evaluate(&model, &base, &pl, 4096, &sys);
        let ev = evaluate(&model, &inter, &pl, 4096, &sys);
        prop_assert!(ev.breakdown.pp_bubble <= e0.breakdown.pp_bubble + 1e-12);
        prop_assert!(ev.memory.activations >= e0.memory.activations - 1e-9);
        prop_assert!(ev.breakdown.pp_comm >= e0.breakdown.pp_comm - 1e-12);
    }

    /// ZeRO-3 always shrinks weight+gradient memory by exactly nd and
    /// never shrinks DP communication.
    #[test]
    fn zero3_memory_exactness(nd_log in 1u32..8) {
        let model = gpt3_1t().config;
        let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
        let nd = 1u64 << nd_log;
        prop_assume!(4096 % nd == 0);
        let base = ParallelConfig::new(TpStrategy::OneD, 8, 1, 16, nd, 1);
        let z3 = ParallelConfig { zero3: true, ..base };
        let pl = Placement { v1: 8, v2: 1, vp: 1, vd: 1 };
        let e0 = evaluate(&model, &base, &pl, 4096, &sys);
        let ez = evaluate(&model, &z3, &pl, 4096, &sys);
        prop_assert!((ez.memory.weights * nd as f64 - e0.memory.weights).abs() < 1.0);
        prop_assert!(ez.breakdown.dp_comm >= e0.breakdown.dp_comm - 1e-12);
    }

    /// No element of a `PlanSet`'s Pareto frontier dominates another:
    /// for every pair, each must be strictly better than the other on at
    /// least one of the selected objectives (exact ties excepted).
    #[test]
    fn pareto_frontier_has_no_dominated_element(
        gpus_log in 4u32..7,
        batch_log in 8u32..10,
    ) {
        let model = gpt3_175b().config;
        let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
        let objectives = [
            Objective::IterationTime,
            Objective::HbmHeadroom,
            Objective::GpuSeconds,
        ];
        let plans = Planner::new(&model, &sys)
            .gpus(1u64 << gpus_log)
            .global_batch(1u64 << batch_log)
            .strategy(TpStrategy::OneD)
            .pareto(objectives.clone())
            .execute();
        prop_assume!(!plans.pareto.is_empty());
        // Lower-is-better key vector recovered from the reported scores.
        let key = |p: &Plan| -> Vec<f64> {
            objectives
                .iter()
                .map(|o| {
                    let v = p.score(o).unwrap();
                    if o.maximize() { -v } else { v }
                })
                .collect()
        };
        let keys: Vec<Vec<f64>> = plans.pareto.iter().map(key).collect();
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate() {
                if i == j {
                    continue;
                }
                let dominates = a.iter().zip(b).all(|(x, y)| x <= y)
                    && a.iter().zip(b).any(|(x, y)| x < y);
                prop_assert!(!dominates, "frontier element {i} dominates {j}");
            }
        }
        // And every top-ranked plan is dominated by no frontier element
        // on the ranking objective's own axis: the frontier contains the
        // single-objective optimum.
        let best = plans.best().unwrap().eval.iteration_time;
        prop_assert!(keys.iter().any(|k| (k[0] - best).abs() == 0.0));
    }

    /// `top_k(k)` equals the full-sort truncation: the k-plan set is a
    /// prefix of the unbounded ranking, for plain and composite
    /// objectives alike.
    #[test]
    fn top_k_equals_full_sort_truncation(
        gpus_log in 4u32..7,
        k in 1usize..6,
        objective_pick in 0usize..3,
    ) {
        let model = gpt3_175b().config;
        let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
        let objective = match objective_pick {
            0 => Objective::IterationTime,
            1 => Objective::weighted([
                (Objective::IterationTime, 1.0),
                (Objective::GpuSeconds, 1e-3),
            ]),
            _ => Objective::IterationTime.then(0.25, Objective::HbmHeadroom),
        };
        let planner = Planner::new(&model, &sys)
            .gpus(1u64 << gpus_log)
            .global_batch(512)
            .strategy(TpStrategy::OneD)
            .objective(objective);
        let full = planner.clone().top_k(usize::MAX).execute();
        let truncated = planner.top_k(k).execute();
        prop_assert_eq!(truncated.top.len(), k.min(full.top.len()));
        prop_assert_eq!(&truncated.top[..], &full.top[..truncated.top.len()]);
        // The unbounded ranking covers exactly the feasible pool.
        prop_assert_eq!(full.top.len() as u64, full.feasible);
    }

    /// Planner config, objectives and whole plan sets survive JSON
    /// round-trips through the vendored serde_json.
    #[test]
    fn planner_artifacts_round_trip_serde(
        gpus_log in 4u32..6,
        top_k in 1usize..5,
        weight in 0.001f64..10.0,
        tol in 0.0f64..0.5,
    ) {
        let model = moe_1t().config;
        let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
        let objective = Objective::weighted([
            (Objective::IterationTime, weight),
            (Objective::TokensPerGpuSecond, weight / 2.0),
        ])
        .then(tol, Objective::GpuSeconds);
        let planner = Planner::new(&model, &sys)
            .gpus(1u64 << gpus_log)
            .global_batch(1024)
            .strategy(TpStrategy::OneD)
            .objective(objective.clone())
            .pareto([Objective::IterationTime, Objective::HbmHeadroom])
            .top_k(top_k);
        // Objective alone.
        let o: Objective =
            serde_json::from_str(&serde_json::to_string(&objective).unwrap()).unwrap();
        prop_assert_eq!(&o, &objective);
        // Full planner config.
        let cfg: PlannerConfig =
            serde_json::from_str(&serde_json::to_string(planner.config()).unwrap()).unwrap();
        prop_assert_eq!(&cfg, planner.config());
        // Executed plan set (configs, placements, scores, frontier).
        let plans = planner.execute();
        let back: PlanSet =
            serde_json::from_str(&serde_json::to_string(&plans).unwrap()).unwrap();
        prop_assert_eq!(back, plans);
    }

    /// The netsim DES stays within a bounded factor of the analytic model
    /// over random volumes and placements (the Fig. A1 property).
    #[test]
    fn netsim_tracks_analytic(vol in 1.0e7f64..1.0e10, per_log in 1u32..4) {
        use netsim::{simulate_collective, SimOptions};
        let sys = system(GpuGeneration::A100, NvsSize::Nvs8);
        let per = 1u64 << per_log;
        let g = CommGroup::new(32, per);
        let ana = collective_time(Collective::AllGather, vol, g, &sys);
        let sim = simulate_collective(Collective::AllGather, vol, g, &sys, &SimOptions::default()).time;
        let err = (sim - ana).abs() / ana;
        prop_assert!(err < 0.25, "err {err} at vol {vol} per {per}");
    }

    /// The Young/Daly closed form `τ* = sqrt(2·C/λ)` and the
    /// golden-section waste minimizer agree across the whole practical
    /// (checkpoint cost, MTBF, restart) range, and the closed form is a
    /// true minimum of the waste objective.
    #[test]
    fn young_daly_solver_matches_closed_form(
        c in 1e-2f64..1e4,
        mtbf_s in 1e3f64..1e9,
        restart in 0.0f64..1e4,
    ) {
        let lambda = 1.0 / mtbf_s;
        let closed = optimal_checkpoint_interval(c, lambda);
        prop_assert!((closed - (2.0 * c / lambda).sqrt()).abs() <= 1e-9 * closed);
        let solved = solve_optimal_interval(c, lambda, restart);
        prop_assert!(
            (solved - closed).abs() / closed < 1e-5,
            "solver {solved} vs closed form {closed} (C={c}, λ={lambda}, R={restart})"
        );
        for f in [0.25, 0.5, 0.9, 1.1, 2.0, 4.0] {
            let at_opt = waste_rate(closed, c, lambda, restart);
            let moved = waste_rate(closed * f, c, lambda, restart);
            prop_assert!(at_opt <= moved * (1.0 + 1e-12), "waste not minimal at τ*·{f}");
        }
    }

    /// Expected goodput is monotonically non-increasing in the failure
    /// rate and never exceeds the failure-free throughput.
    #[test]
    fn goodput_non_increasing_in_failure_rate(
        mtbf in 200.0f64..200_000.0,
        scale in 1.05f64..50.0,
    ) {
        let model = gpt3_175b().config;
        let cfg = ParallelConfig::new(TpStrategy::OneD, 8, 1, 1, 64, 2);
        let report = |spec: ReliabilitySpec| {
            let sys = system(GpuGeneration::B200, NvsSize::Nvs8).with_reliability(spec);
            let e = Planner::new(&model, &sys).global_batch(512).evaluate_config(&cfg);
            let ctx = Planner::new(&model, &sys).global_batch(512).objective_ctx();
            assess(&e, &ctx)
        };
        let harsh = report(ReliabilitySpec::datacenter().with_gpu_mtbf_hours(mtbf));
        let mild = report(ReliabilitySpec::datacenter().with_gpu_mtbf_hours(mtbf * scale));
        let free = report(ReliabilitySpec::failure_free());
        prop_assert!(harsh.failure_rate > mild.failure_rate);
        prop_assert!(harsh.goodput_fraction <= mild.goodput_fraction + 1e-12);
        prop_assert!(harsh.tokens_per_gpu_second <= mild.tokens_per_gpu_second + 1e-12);
        prop_assert!(mild.tokens_per_gpu_second <= free.tokens_per_gpu_second + 1e-12);
        prop_assert_eq!(free.goodput_fraction, 1.0);
        prop_assert!(free.tokens_per_gpu_second > 0.0);
    }

    /// Straggler injection slows the simulated iteration by at most the
    /// straggler factor and at least something.
    #[test]
    fn straggler_bounds(factor in 1.05f64..2.0) {
        use trainsim::{simulate_iteration, SimParams};
        let model = gpt3_175b().config;
        let sys = perlmutter(4);
        let cfg = ParallelConfig::new(TpStrategy::OneD, 4, 1, 8, 16, 1);
        let pl = Placement { v1: 4, v2: 1, vp: 1, vd: 1 };
        let base = simulate_iteration(&model, &cfg, &pl, 1024, &sys, &SimParams::ideal()).unwrap();
        let params = SimParams { straggler_stage: Some(3), straggler_factor: factor, ..SimParams::ideal() };
        let slow = simulate_iteration(&model, &cfg, &pl, 1024, &sys, &params).unwrap();
        let ratio = slow.iteration_time / base.iteration_time;
        prop_assert!(ratio > 1.0 && ratio < factor + 1e-9, "ratio {ratio} factor {factor}");
    }
}

/// Integer values an adversarial document might carry: zero, sane,
/// just over the enumeration-safety bound, and the maximum.
fn hostile_u64() -> impl Strategy<Value = u64> {
    (0u64..1 << 20).prop_map(|r| match r % 4 {
        0 => 0,
        1 => 1 + (r >> 2) % 32,
        2 => perfmodel::planner::MAX_SCALE + 1,
        _ => u64::MAX,
    })
}

/// Float values an adversarial document might carry (NaN/∞ cannot
/// survive a JSON round-trip, but `from_config` accepts any
/// `PlannerConfig` value, so the validator must still catch them).
fn hostile_f64_from(r: u64) -> f64 {
    match r % 6 {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -1.0,
        4 => 0.0,
        _ => 1.0 + (r >> 3) as f64,
    }
}

fn hostile_objective() -> impl Strategy<Value = Objective> {
    (0u64..1 << 20).prop_map(|r| {
        let x = hostile_f64_from(r >> 3);
        match r % 6 {
            0 => Objective::IterationTime,
            1 => Objective::ExpectedGoodput,
            2 => Objective::TrainingDays { iterations: x },
            3 => Objective::EffectiveTrainingDays { iterations: x },
            4 => Objective::weighted([(Objective::IterationTime, x)]),
            _ => Objective::IterationTime.then(x, Objective::HbmHeadroom),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary adversarial configurations — zero degrees, absurd GPU
    /// counts, non-finite objective floats, empty lists — never panic
    /// anywhere in the `from_config` → `try_execute` path: either
    /// `validate` rejects them with a typed error, or the search runs
    /// to completion. Documents that survive a JSON round-trip are
    /// replayed through it first, exactly like a persisted plan.
    #[test]
    fn adversarial_configs_never_panic(
        c0 in hostile_u64(),
        c1 in hostile_u64(),
        n_counts in 0usize..3,
        batch in hostile_u64(),
        clear_strategies in 0u32..2,
        max_microbatch in hostile_u64(),
        max_pipeline in hostile_u64(),
        max_tensor_parallel in hostile_u64(),
        top_k in 0usize..5,
        objective in hostile_objective(),
    ) {
        let model = gpt3_175b().config;
        let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
        let counts = [c0, c1][..n_counts.min(2)].to_vec();
        let mut space = SearchSpace::new().gpu_counts(counts).global_batch(batch);
        if clear_strategies == 0 {
            space.strategies.clear();
        }
        space.max_microbatch = max_microbatch;
        space.max_pipeline = max_pipeline;
        space.max_tensor_parallel = max_tensor_parallel;
        let cfg = PlannerConfig {
            space,
            objective,
            top_k,
            ..Default::default()
        };
        // Replay through JSON where representable (non-finite floats
        // are not valid JSON: the vendored serde_json writes them as
        // `null` and refuses them on the way back in).
        let cfg = match serde_json::to_string(&cfg) {
            Ok(json) => serde_json::from_str::<PlannerConfig>(&json).unwrap_or(cfg),
            Err(_) => cfg,
        };
        let verdict = cfg.validate();
        match Planner::from_config(&model, &sys, cfg).try_execute() {
            Ok(plans) => {
                prop_assert!(verdict.is_ok());
                prop_assert!(plans.feasible <= plans.candidates);
            }
            Err(e) => prop_assert_eq!(Err(e), verdict),
        }
    }
}

/// Hand-written hostile JSON documents: malformed, type-confused and
/// numerically extreme payloads either fail to parse or fail
/// `validate` — never a panic, never an unbounded search.
#[test]
fn hostile_planner_json_is_rejected_not_panicked() {
    let model = gpt3_175b().config;
    let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
    let base = serde_json::to_string(&PlannerConfig::default()).unwrap();
    let hostile = [
        "{}".to_string(),
        "null".to_string(),
        "[]".to_string(),
        "{\"space\":{}}".to_string(),
        base.replace("\"global_batch\":4096", "\"global_batch\":0"),
        base.replace("\"global_batch\":4096", "\"global_batch\":1e999"),
        base.replace("\"gpu_counts\":[512]", "\"gpu_counts\":[]"),
        base.replace("\"gpu_counts\":[512]", "\"gpu_counts\":[0]"),
        base.replace(
            "\"gpu_counts\":[512]",
            "\"gpu_counts\":[18446744073709551615]",
        ),
        base.replace("\"strategies\":[\"OneD\"]", "\"strategies\":[]"),
        base.replace("\"top_k\":8", "\"top_k\":0"),
        base.replace("\"max_microbatch\":16", "\"max_microbatch\":0"),
        base.replace(
            "\"objective\":\"IterationTime\"",
            "\"objective\":{\"Weighted\":{\"terms\":[]}}",
        ),
    ];
    for (i, doc) in hostile.iter().enumerate() {
        // Every `replace` above must have actually mutated the document.
        assert_ne!(
            doc, &base,
            "hostile document {i} is identical to the default"
        );
        if let Ok(cfg) = serde_json::from_str::<PlannerConfig>(doc) {
            let err = fmperf::perfmodel::Planner::from_config(&model, &sys, cfg)
                .try_execute()
                .expect_err("hostile document passed validation");
            assert!(!err.to_string().is_empty());
        }
    }
}

fn synthetic_spec(
    rate_milli: u64,
    ceiling: u64,
    base_step_ms: u64,
    slope_ms: u64,
    prefill_ms: u64,
    colocated: bool,
) -> servesim::SimSpec {
    let traffic = InferenceConfig::new(
        LengthMix::new(512, 2048),
        LengthMix::new(16, 64),
        rate_milli as f64 / 1000.0,
        ceiling,
    );
    servesim::SimSpec {
        traffic,
        replicas: 4,
        gpus: 32,
        mode: if colocated {
            PdPlacement::Colocated
        } else {
            PdPlacement::Disaggregated {
                prefill_replicas: 1,
            }
        },
        batch_ceiling: ceiling,
        decode_steps: (0..ceiling)
            .map(|b| (base_step_ms + slope_ms * b) as f64 * 1e-3)
            .collect(),
        prefill_typical: prefill_ms as f64 * 1e-3,
        prefill_long: 2.0 * prefill_ms as f64 * 1e-3,
        kv_transfer_typical: if colocated { 0.0 } else { 1e-3 },
        kv_transfer_long: if colocated { 0.0 } else { 4e-3 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// KV-cache bytes are strictly monotone in batch and context, exactly
    /// linear in their product, and shard inversely with the TP degree.
    #[test]
    fn kv_cache_bytes_monotone_in_batch_and_context(
        batch in 1u64..256,
        context in 1u64..8192,
        tp_log in 0u32..4,
        np_log in 0u32..3,
    ) {
        use perfmodel::memory::{kv_bytes_per_token_layer, kv_cache_bytes};
        let model = gpt3_175b().config;
        let tp = 1u64 << tp_log;
        let np = 1u64 << np_log;
        let cfg = ParallelConfig::new(TpStrategy::OneD, tp, 1, np, 4, 1);
        let base = kv_cache_bytes(&model, &cfg, batch, context);
        prop_assert!(base > 0.0);
        prop_assert!(kv_cache_bytes(&model, &cfg, batch + 1, context) > base);
        prop_assert!(kv_cache_bytes(&model, &cfg, batch, context + 1) > base);
        // Exactly linear in batch·context tokens.
        let per_token = (model.depth / np) as f64 * kv_bytes_per_token_layer(&model, &cfg);
        prop_assert!((base - (batch * context) as f64 * per_token).abs() <= 1e-6 * base);
        // Doubling TP halves the per-GPU shard.
        let cfg2 = ParallelConfig::new(TpStrategy::OneD, 2 * tp, 1, np, 4, 1);
        let halved = kv_cache_bytes(&model, &cfg2, batch, context);
        prop_assert!((2.0 * halved - base).abs() <= 1e-6 * base);
    }

    /// Simulator invariant over arbitrary synthetic specs: measured
    /// p99 ≥ p50 ≥ the analytic lower bound (no inter-token gap can beat
    /// one clean decode step at the smallest batch; no TTFT can beat the
    /// typical prompt's prefill), and every trace drains.
    #[test]
    fn simulated_percentiles_respect_analytic_lower_bounds(
        seed in 0u64..1000,
        rate_milli in 100u64..20_000,
        ceiling in 1u64..32,
        base_step_ms in 1u64..50,
        slope_ms in 0u64..5,
        prefill_ms in 1u64..500,
        colocated_bit in 0u64..2,
    ) {
        let spec = synthetic_spec(rate_milli, ceiling, base_step_ms, slope_ms, prefill_ms, colocated_bit == 1);
        let m = servesim::simulate_serving(&spec, &servesim::SimParams { seed, requests: 200 });
        prop_assert_eq!(m.completed, 200);
        prop_assert!(m.tpot_p99 >= m.tpot_p50);
        prop_assert!(m.tpot_p50 >= spec.decode_steps[0] - 1e-12,
            "{} < clean step {}", m.tpot_p50, spec.decode_steps[0]);
        prop_assert!(m.ttft_p99 >= m.ttft_p50);
        prop_assert!(m.ttft_p50 >= spec.prefill_typical - 1e-12);
        prop_assert!(m.delivered_tokens_per_gpu_second > 0.0);
        prop_assert!(m.mean_occupancy >= 1.0 && m.mean_occupancy <= ceiling as f64);
    }
}
