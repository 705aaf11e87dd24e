//! The three workloads: seeded job generation and set-up (the first cold
//! pass, which also computes every correctness reference).
//!
//! Composition is fixed per workload; the seed chooses the order of the
//! jobs and the values that do not change how much work a job is (global
//! batch, SLO targets, system perturbations, simulator seeds), so runs on
//! different seeds measure the same amount of work on different inputs.

use crate::jobs::{self, Job, Kind, NetJob, PlanJob, TrainSetup};
use crate::stats::{fnv64, Rng};
use crate::trace::Trace;
use collectives::{Algorithm, Collective, CommGroup};
use perfmodel::plan::{CommPattern, TpGroup};
use perfmodel::serving::{assess, assess_slo};
use perfmodel::{Objective, Planner, PlannerConfig, SearchSpace, SloSpec, TpStrategy};
use std::sync::Arc;
use systems::{system, GpuGeneration, NvsSize, SystemBuilder, SystemSpec};
use trainsim::{FaultPlan, TrainingParams};
use txmodel::{gpt3_175b, gpt3_175b_chat, gpt3_1t, moe_1t, vit_64k, TransformerConfig};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PlanWarm,
    CodesignSweep,
    SimReplay,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PlanWarm,
        Workload::CodesignSweep,
        Workload::SimReplay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PlanWarm => "plan-warm",
            Workload::CodesignSweep => "codesign-sweep",
            Workload::SimReplay => "sim-replay",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// The seed whose references are pinned by the committed golden digests.
pub const DEFAULT_SEED: u64 = 42;

/// How a planning job ranks and reports.
#[derive(Debug, Clone, Copy)]
enum Mode {
    /// `top_k(1)`: the single optimum.
    Top1,
    /// Top-8 plus the {iteration time, HBM headroom} Pareto frontier.
    Top8Pareto,
}

#[derive(Debug, Clone, Copy)]
enum Model {
    Gpt1t,
    Gpt175b,
    Moe1t,
    Vit64k,
}

impl Model {
    fn config(self) -> TransformerConfig {
        match self {
            Model::Gpt1t => gpt3_1t().config,
            Model::Gpt175b => gpt3_175b().config,
            Model::Moe1t => moe_1t().config,
            Model::Vit64k => vit_64k().config,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Model::Gpt1t => "GPT3-1T",
            Model::Gpt175b => "GPT3-175B",
            Model::Moe1t => "MoE-1T",
            Model::Vit64k => "ViT-64K",
        }
    }
}

/// One training-planning problem shape: model, TP strategy, GPU count and
/// reporting mode.
type Shape = (Model, TpStrategy, u64, Mode);

/// `plan-warm`: the interactive re-planning mix on catalog B200/NVS8.
const PLAN_WARM: [Shape; 10] = [
    (Model::Gpt1t, TpStrategy::OneD, 512, Mode::Top1),
    (Model::Gpt1t, TpStrategy::OneD, 4096, Mode::Top8Pareto),
    (Model::Gpt1t, TpStrategy::Summa, 16384, Mode::Top1),
    (Model::Gpt1t, TpStrategy::Summa, 4096, Mode::Top8Pareto),
    (Model::Vit64k, TpStrategy::TwoD, 1024, Mode::Top1),
    (Model::Vit64k, TpStrategy::TwoD, 8192, Mode::Top8Pareto),
    (Model::Moe1t, TpStrategy::OneD, 1024, Mode::Top8Pareto),
    (Model::Moe1t, TpStrategy::OneD, 4096, Mode::Top1),
    (Model::Gpt175b, TpStrategy::OneD, 512, Mode::Top8Pareto),
    (Model::Gpt175b, TpStrategy::OneD, 2048, Mode::Top1),
];

/// `codesign-sweep`: the problem shapes of the co-design figures, planned
/// on the catalog systems of [`codesign_slots`].
const CODESIGN: [Shape; 8] = [
    (Model::Gpt1t, TpStrategy::OneD, 512, Mode::Top1),
    (Model::Gpt1t, TpStrategy::OneD, 2048, Mode::Top8Pareto),
    (Model::Gpt1t, TpStrategy::OneD, 8192, Mode::Top1),
    (Model::Gpt1t, TpStrategy::TwoD, 512, Mode::Top1),
    (Model::Gpt1t, TpStrategy::TwoD, 4096, Mode::Top8Pareto),
    (Model::Gpt1t, TpStrategy::Summa, 512, Mode::Top1),
    (Model::Vit64k, TpStrategy::TwoD, 1024, Mode::Top1),
    (Model::Vit64k, TpStrategy::TwoD, 8192, Mode::Top8Pareto),
];

const GENERATIONS: [GpuGeneration; 3] = [
    GpuGeneration::A100,
    GpuGeneration::H200,
    GpuGeneration::B200,
];
const NVS_SIZES: [NvsSize; 3] = [NvsSize::Nvs4, NvsSize::Nvs8, NvsSize::Nvs64];

/// The SLO of the serving jobs (the GPT3-175B chat deployment of the
/// serving example), before the seed's perturbation.
const CHAT_SLO: SloSpec = SloSpec {
    ttft_p50: 0.12,
    ttft_p99: 0.16,
    tpot_p50: 0.03,
    tpot_p99: 0.05,
};

/// Global batch of every training-planning job.
const BATCH: u64 = 4096;

/// A seeded training-run length for [`Objective::TrainingDays`].
fn iterations(rng: &mut Rng) -> f64 {
    rng.range(50_000.0, 200_000.0).round()
}

fn b200() -> Arc<SystemSpec> {
    Arc::new(system(GpuGeneration::B200, NvsSize::Nvs8))
}

/// A training-planning job. With `iterations`, plans are scored in
/// training days for a run of that many iterations (a monotone rescaling
/// of iteration time: different output, the same search work).
fn plan_job(shape: Shape, batch: u64, system: Arc<SystemSpec>, iterations: Option<f64>) -> Job {
    plan_job_in(shape, batch, system, iterations, |s| s)
}

/// [`plan_job`] with an extra edit of the search space.
fn plan_job_in(
    shape: Shape,
    batch: u64,
    system: Arc<SystemSpec>,
    iterations: Option<f64>,
    space: impl FnOnce(SearchSpace) -> SearchSpace,
) -> Job {
    let (model, strategy, gpus, mode) = shape;
    let config = model.config();
    let planner = Planner::new(&config, &system)
        .gpus(gpus)
        .global_batch(batch)
        .strategy(strategy)
        .with_space(space);
    let score = iterations.map_or(Objective::IterationTime, |iterations| {
        Objective::TrainingDays { iterations }
    });
    let planner = match mode {
        Mode::Top1 => planner.top_k(1).objective(score),
        Mode::Top8Pareto => planner.top_k(8).pareto([score, Objective::HbmHeadroom]),
    };
    let config_json = serde_json::to_string(planner.config()).expect("config serializes");
    Job {
        label: format!(
            "{} {:?} n={gpus} b={batch} {mode:?} on {}",
            model.name(),
            strategy,
            system.name
        ),
        kind: Kind::Plan(PlanJob {
            model: config,
            system,
            config_json,
        }),
    }
}

fn serving_job(objective: Objective, gpus: u64, batch: u64, system: Arc<SystemSpec>) -> Job {
    let preset = gpt3_175b_chat();
    let cfg: PlannerConfig = Planner::new(&preset.model, &system)
        .gpus(gpus)
        .global_batch(batch)
        .strategy(TpStrategy::OneD)
        .serving(preset.traffic)
        .objective(objective.clone())
        .top_k(1)
        .config()
        .clone();
    Job {
        label: format!(
            "{} {} n={gpus} on {}",
            preset.name,
            objective.name(),
            system.name
        ),
        kind: Kind::Plan(PlanJob {
            model: preset.model,
            system,
            config_json: serde_json::to_string(&cfg).expect("config serializes"),
        }),
    }
}

fn seeded_slo(rng: &mut Rng) -> SloSpec {
    let f = rng.range(0.95, 1.05);
    SloSpec {
        ttft_p50: CHAT_SLO.ttft_p50 * f,
        ttft_p99: CHAT_SLO.ttft_p99 * f,
        tpot_p50: CHAT_SLO.tpot_p50 * f,
        tpot_p99: CHAT_SLO.tpot_p99 * f,
    }
}

/// The distinct `plan-warm` jobs for `seed`.
pub fn plan_warm_jobs(seed: u64) -> Vec<Job> {
    let mut rng = Rng::fork(seed, "plan-warm");
    let sys = b200();
    let mut jobs: Vec<Job> = PLAN_WARM
        .iter()
        .map(|&shape| plan_job(shape, BATCH, sys.clone(), Some(iterations(&mut rng))))
        .collect();
    let slo = seeded_slo(&mut rng);
    jobs.push(serving_job(Objective::ServingSlo { slo }, 512, 1024, sys));
    jobs
}

/// A catalog system perturbed the way the co-design figures sweep it:
/// network bandwidth, HBM bandwidth and tensor rate scaled together.
fn perturbed(gen: GpuGeneration, nvs: NvsSize, rng: &mut Rng) -> SystemSpec {
    let gpu = gen.gpu();
    let (net, hbm, flops) = (
        rng.range(0.5, 2.0),
        rng.range(0.75, 1.5),
        rng.range(0.75, 1.5),
    );
    SystemBuilder::from_catalog(gen, nvs)
        .network_bandwidth_scale(net)
        .hbm_bandwidth(gpu.hbm_bandwidth * hbm)
        .tensor_flops(gpu.tensor_flops * flops)
        .name(format!(
            "{}-NVS{}(net×{net:.3},hbm×{hbm:.3},flops×{flops:.3})",
            gen.name(),
            nvs.gpus()
        ))
        .build()
}

/// Round `round` of the `codesign-sweep` stream for `seed`: every shape
/// on every generation × NVS size, in a seeded order, each on a freshly
/// perturbed (never-seen) system.
pub fn codesign_round(seed: u64, round: usize) -> Vec<Job> {
    let mut rng = Rng::fork(seed, &format!("codesign-sweep/{round}"));
    let mut slots = codesign_slots();
    rng.shuffle(&mut slots);
    slots
        .into_iter()
        .map(|(shape, gen, nvs)| {
            let sys = Arc::new(perturbed(gen, nvs, &mut rng));
            plan_job(shape, BATCH, sys, Some(iterations(&mut rng)))
        })
        .collect()
}

/// Every shape on every catalog generation × NVS size, except that SUMMA
/// runs on NVS8 only: its cold plans each add ~35k memo entries, and at
/// full weight the memo outgrows a small machine within one run.
fn codesign_slots() -> Vec<(Shape, GpuGeneration, NvsSize)> {
    let mut slots = Vec::new();
    for shape in CODESIGN {
        for gen in GENERATIONS {
            for nvs in NVS_SIZES {
                if shape.1 != TpStrategy::Summa || nvs == NvsSize::Nvs8 {
                    slots.push((shape, gen, nvs));
                }
            }
        }
    }
    slots
}

/// Jobs per `codesign-sweep` round.
pub fn codesign_round_len() -> usize {
    codesign_slots().len()
}

/// The unperturbed catalog anchors of the co-design sweep: every shape
/// on every catalog system, at the default batch.
pub fn codesign_anchor_jobs() -> Vec<Job> {
    codesign_slots()
        .into_iter()
        .map(|(shape, gen, nvs)| plan_job(shape, BATCH, Arc::new(system(gen, nvs)), None))
        .collect()
}

/// The planning problems whose winners `sim-replay` replays.
pub fn replay_winner_jobs() -> Vec<Job> {
    let sys = b200();
    vec![
        plan_job(
            (Model::Gpt175b, TpStrategy::OneD, 512, Mode::Top1),
            2048,
            sys.clone(),
            None,
        ),
        // At most 64 replicas: the deployment bound that keeps the
        // replayed data-parallel ring inside a run's time budget.
        plan_job_in(
            (Model::Moe1t, TpStrategy::OneD, 512, Mode::Top1),
            BATCH,
            sys.clone(),
            None,
            |s| s.max_data_parallel(64),
        ),
        plan_job(
            (Model::Gpt1t, TpStrategy::OneD, 1024, Mode::Top1),
            BATCH,
            sys.clone(),
            None,
        ),
        serving_job(Objective::TokensPerSecPerGpu, 64, 1024, sys.clone()),
        serving_job(Objective::ServingSlo { slo: CHAT_SLO }, 64, 1024, sys),
    ]
}

/// What set-up hands to the measurement loop.
pub struct Prepared {
    /// Jobs the loop draws from: the distinct jobs, or for
    /// `codesign-sweep` the stream generated so far.
    pub jobs: Vec<Job>,
    /// Reference digest per job; `None` for stream jobs, which are checked
    /// against a pruning-off run after the measured window.
    pub refs: Vec<Option<u64>>,
    /// Seed of the `codesign-sweep` stream, whose rounds are generated as
    /// the loop reaches them (every job on a never-seen system).
    pub stream_seed: Option<u64>,
    /// Digests of the set-up's own references, in order (compared with
    /// the committed golden digests and across set-up processes).
    pub setup_digests: Vec<(String, u64)>,
    /// Set-up checks made and failed (pruned vs pruning-off mismatches,
    /// typed errors).
    pub setup_checks: u64,
    pub setup_failures: u64,
}

impl Prepared {
    /// Indices into [`Prepared::jobs`] of round `round`: a seeded
    /// permutation of the distinct jobs, or the next stream round.
    pub fn round(&mut self, round: usize, order: &mut Rng) -> Vec<usize> {
        match self.stream_seed {
            Some(seed) => {
                let start = self.jobs.len();
                self.jobs.extend(codesign_round(seed, round));
                self.refs.resize(self.jobs.len(), None);
                (start..self.jobs.len()).collect()
            }
            None => {
                let mut idx: Vec<usize> = (0..self.jobs.len()).collect();
                order.shuffle(&mut idx);
                idx
            }
        }
    }
}

/// Runs a plan job pruned and with pruning off; returns the reference
/// digest and whether the pruned output matched it.
fn reference(job: &Job, trace: &mut Trace) -> Result<(u64, bool, perfmodel::PlanSet), String> {
    let Kind::Plan(p) = &job.kind else {
        unreachable!("references are computed for plan jobs")
    };
    let (pruned, _) = jobs::plan(p, 0, trace, None)?;
    let (reference, _) = jobs::plan(&jobs::unpruned(p), 0, trace, None)?;
    let plans: perfmodel::PlanSet = serde_json::from_str(&reference).map_err(|e| e.to_string())?;
    Ok((fnv64(reference.as_bytes()), pruned == reference, plans))
}

/// Plan-job references for `jobs`, counting checks and failures.
fn plan_references(
    jobs: &[Job],
    p: &mut Prepared,
    trace: &mut Trace,
) -> Vec<Option<(u64, perfmodel::PlanSet)>> {
    jobs.iter()
        .map(|job| {
            p.setup_checks += 1;
            match reference(job, trace) {
                Ok((digest, same, plans)) => {
                    p.setup_failures += u64::from(!same);
                    p.setup_digests.push((job.label.clone(), digest));
                    Some((digest, plans))
                }
                Err(e) => {
                    eprintln!("fmbench: set-up job {} failed: {e}", job.label);
                    p.setup_failures += 1;
                    None
                }
            }
        })
        .collect()
}

/// Generation plus the first cold pass over the distinct jobs.
pub fn prepare(workload: Workload, seed: u64) -> Prepared {
    let mut trace = Trace::new(false);
    let mut p = Prepared {
        jobs: Vec::new(),
        refs: Vec::new(),
        stream_seed: None,
        setup_digests: Vec::new(),
        setup_checks: 0,
        setup_failures: 0,
    };
    match workload {
        Workload::PlanWarm => {
            let jobs = plan_warm_jobs(seed);
            let refs = plan_references(&jobs, &mut p, &mut trace);
            p.refs = refs.into_iter().map(|r| r.map(|(d, _)| d)).collect();
            p.jobs = jobs;
        }
        Workload::CodesignSweep => {
            plan_references(&codesign_anchor_jobs(), &mut p, &mut trace);
            p.stream_seed = Some(seed);
        }
        Workload::SimReplay => {
            let winners = replay_winner_jobs();
            let planned = plan_references(&winners, &mut p, &mut trace);
            p.jobs = replay_jobs(seed, &winners, &planned);
            for job in &p.jobs {
                p.setup_checks += 1;
                match jobs::run(job, 0, &mut trace, false) {
                    Ok(out) => {
                        p.setup_digests.push((job.label.clone(), out.digest));
                        p.refs.push(Some(out.digest));
                    }
                    Err(e) => {
                        eprintln!("fmbench: set-up replay {} failed: {e}", job.label);
                        p.setup_failures += 1;
                        p.refs.push(None);
                    }
                }
            }
        }
    }
    p
}

fn largest_divisor_at_most(n: u64, cap: u64) -> u64 {
    (1..=cap.min(n).max(1))
        .rev()
        .find(|&d| n.is_multiple_of(d))
        .unwrap_or(1)
}

/// The replay jobs built from the planned winners: collectives at the
/// winners' real group sizes and volumes, 1F1B iterations, fault-injected
/// training runs and serving traces. Simulator seeds come from `seed`.
fn replay_jobs(
    seed: u64,
    winners: &[Job],
    planned: &[Option<(u64, perfmodel::PlanSet)>],
) -> Vec<Job> {
    let mut rng = Rng::fork(seed, "sim-replay");
    let mut out = Vec::new();
    for (job, plans) in winners.iter().zip(planned) {
        let (Kind::Plan(p), Some((_, plans))) = (&job.kind, plans) else {
            continue;
        };
        let Some(best) = plans.best() else { continue };
        let e = &best.eval;
        let cfg: PlannerConfig = serde_json::from_str(&p.config_json).expect("config parses");
        let name = &job.label;
        if cfg.serving.is_some() {
            let ctx = Planner::from_config(&p.model, &p.system, cfg.clone()).objective_ctx();
            let sctx = ctx.serving.as_ref().expect("serving context is set");
            let report = match &cfg.objective {
                Objective::ServingSlo { slo } => assess_slo(e, sctx, slo),
                _ => assess(e, sctx),
            };
            if let Ok(spec) = servesim::SimSpec::from_plan(e, sctx, report.mode) {
                out.push(Job {
                    label: format!("servesim {name}"),
                    kind: Kind::Serve(
                        spec,
                        servesim::SimParams {
                            seed: rng.next_u64(),
                            requests: 500,
                        },
                    ),
                });
            }
            continue;
        }
        let c = &e.config;
        let pl = &e.placement;
        let profile = perfmodel::partition::build_profile(
            &p.model,
            c.strategy,
            c.n1,
            c.n2,
            c.microbatch,
            c.summa_panels,
            c.ep,
            &p.system.gpu,
        );
        let layers = (p.model.depth / c.np) as f64;
        let net = |collective, volume, group, algorithm| {
            Kind::Net(NetJob {
                collective,
                volume,
                group,
                system: p.system.clone(),
                opts: netsim::SimOptions {
                    algorithm,
                    ..Default::default()
                },
            })
        };
        let mut push = |label: String, kind| out.push(Job { label, kind });
        // The first fully exposed collective the layer runs over `group`.
        let exposed = |group: TpGroup| {
            profile.fwd.comms.iter().find_map(|pat| match *pat {
                CommPattern::Exposed {
                    coll,
                    volume,
                    group: g,
                } if g == group => Some((coll, volume)),
                _ => None,
            })
        };
        if let (true, Some((coll, volume))) = (c.ep > 1, exposed(TpGroup::Ep)) {
            let g = CommGroup::new(c.ep, largest_divisor_at_most(c.ep, pl.vd.min(c.ep)));
            push(
                format!("netsim EP {coll:?} n={} {name}", c.ep),
                net(coll, volume, g, Algorithm::Auto),
            );
        }
        if let (true, Some((coll, volume))) = (c.n1 > 1, exposed(TpGroup::N1)) {
            push(
                format!("netsim TP {coll:?} n={} {name}", c.n1),
                net(coll, volume, CommGroup::new(c.n1, pl.v1), Algorithm::Ring),
            );
        }
        let dp = c.nd * profile.dp_group_multiplier;
        if dp > 1 && profile.weight_bytes > 0.0 {
            let g = CommGroup::new(dp, largest_divisor_at_most(dp, (pl.vd * pl.v2).min(dp)));
            for algo in [Algorithm::Ring, Algorithm::Tree, Algorithm::Hierarchical] {
                push(
                    format!("netsim DP AllReduce {algo:?} n={dp} {name}"),
                    net(
                        Collective::AllReduce,
                        profile.weight_bytes * layers,
                        g,
                        algo,
                    ),
                );
            }
        }
        let setup = TrainSetup {
            model: p.model,
            config: *c,
            placement: *pl,
            global_batch: cfg.space.global_batch,
            system: p.system.clone(),
        };
        push(
            format!("trainsim iteration {name}"),
            Kind::Iteration(
                setup.clone(),
                trainsim::SimParams {
                    seed: rng.next_u64(),
                    ..Default::default()
                },
            ),
        );
        let gpus = c.total_gpus();
        let domains = gpus.div_ceil(p.system.nvs_size.max(1)).max(1);
        let faults = FaultPlan::sample(
            &p.system.reliability,
            gpus,
            p.system.nics_for(gpus),
            domains.saturating_sub(1).max(1),
            12.0 * 3600.0,
            rng.next_u64(),
        );
        push(
            format!("trainsim training {name}"),
            Kind::Training(setup, faults, TrainingParams::new(3600.0, 60.0, 600.0)),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::fold_digests;

    fn fingerprint(jobs: &[Job]) -> u64 {
        fold_digests(jobs.iter().map(|j| {
            let kind = match &j.kind {
                Kind::Plan(p) => format!("{}{:?}", p.config_json, p.system),
                other => format!("{other:?}"),
            };
            fnv64(format!("{}|{kind}", j.label).as_bytes())
        }))
    }

    fn job_list(seed: u64) -> u64 {
        let mut jobs = plan_warm_jobs(seed);
        jobs.extend(codesign_round(seed, 0));
        jobs.extend(codesign_round(seed, 1));
        fingerprint(&jobs)
    }

    #[test]
    fn same_seed_same_jobs_other_seed_other_jobs() {
        assert_eq!(job_list(7), job_list(7));
        assert_ne!(job_list(7), job_list(8));
        // The seed also reorders the rounds.
        let order = |seed| {
            let mut p = Prepared {
                jobs: plan_warm_jobs(1),
                refs: vec![None; 11],
                stream_seed: None,
                setup_digests: Vec::new(),
                setup_checks: 0,
                setup_failures: 0,
            };
            p.round(0, &mut Rng::fork(seed, "order"))
        };
        assert_eq!(order(3), order(3));
        assert_ne!(order(3), order(4));
    }

    #[test]
    fn codesign_systems_are_never_repeated() {
        let mut names: Vec<String> = (0..3)
            .flat_map(|r| codesign_round(5, r))
            .map(|j| match j.kind {
                Kind::Plan(p) => p.system.name.clone(),
                _ => unreachable!(),
            })
            .collect();
        let n = names.len();
        assert_eq!(n, 3 * codesign_round_len());
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn plan_warm_covers_the_named_problems() {
        let labels: Vec<String> = plan_warm_jobs(DEFAULT_SEED)
            .into_iter()
            .map(|j| j.label)
            .collect();
        for needle in [
            "GPT3-1T OneD",
            "GPT3-1T Summa",
            "ViT-64K TwoD",
            "MoE-1T",
            "GPT3-175B OneD",
            "GPT3-175B-chat serving SLO",
        ] {
            assert!(
                labels.iter().any(|l| l.contains(needle)),
                "{needle} missing"
            );
        }
    }
}
