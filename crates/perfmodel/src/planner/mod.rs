//! The composable planning surface over the S3 design-space search.
//!
//! [`Planner`] is the one entry point of the search. It composes:
//!
//! * a typed [`SearchSpace`] — GPU counts, batch, TP strategies,
//!   microbatch/interleave/ZeRO/expert knobs, pp/dp/tp degree bounds —
//!   plus arbitrary user [`Planner::constrain`] predicates;
//! * an [`Objective`] — iteration time, training days, tokens/s/GPU, HBM
//!   headroom, GPU-seconds cost, or weighted/lexicographic combinations;
//! * execution over the rayon pool against a build-once
//!   [`ProfileCache`] (results stay bit-identical across thread counts),
//!   streaming each candidate through an optional
//!   [`Planner::on_candidate`] progress hook;
//!
//! into a [`PlanSet`]: the top-k ranked [`Plan`]s **and** the exact
//! Pareto frontier across the selected objectives, fully serializable.
//!
//! One search engine serves every entry point, in two shapes:
//!
//! * the **full sweep** ([`Planner::evaluations`]) — every candidate
//!   evaluated, needed whenever the caller consumes the raw evaluation
//!   list (figures, `include_infeasible`, streaming hooks);
//! * the **ranked branch-and-bound** behind [`Planner::execute`] — a
//!   k-th-incumbent prune ([`crate::ord::TopkIncumbent`]) skips
//!   candidates whose admissible per-objective key lower bound
//!   (`Objective::key_lower_bound`) provably lands outside the top-k
//!   *and* whose bound vector is strictly dominated by an
//!   already-evaluated point, so the ranked list and the Pareto frontier
//!   stay bit-identical to the full sweep's. It falls back to the full
//!   sweep whenever a hook is installed, infeasible candidates are kept,
//!   a pruning flag is off, or the objective admits no admissible bound.
//!
//! [`Planner::best_evaluation`] — the single fastest feasible candidate —
//! is the ranked engine at `top_k = 1` under [`Objective::IterationTime`].
//! [`Planner::evaluate_config`] prices one pinned configuration.
//!
//! Both shapes switch to placement-level parallelism (one work item per
//! `(candidate, placement)` pair) when there are too few candidates to
//! occupy the pool — the "few fat candidates" shape of pinned-config
//! comparisons — and the ranked engine reports what it skipped through
//! [`crate::search_stats`].
//!
//! ```
//! use perfmodel::{Objective, Planner, TpStrategy};
//! use systems::{system, GpuGeneration, NvsSize};
//! use txmodel::gpt3_175b;
//!
//! let model = gpt3_175b().config;
//! let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
//! let plans = Planner::new(&model, &sys)
//!     .gpus(256)
//!     .global_batch(1024)
//!     .strategy(TpStrategy::OneD)
//!     .top_k(4)
//!     .pareto([Objective::IterationTime, Objective::HbmHeadroom])
//!     .execute();
//! let best = plans.best().expect("a feasible configuration exists");
//! assert!(best.eval.iteration_time > 0.0);
//! assert!(!plans.pareto.is_empty());
//! ```

mod objective;
mod plan;
mod space;
mod validate;

pub use objective::{LexStage, Objective, ObjectiveCtx, Score, WeightedTerm};
pub use plan::{Plan, PlanSet};
use space::dedup_ordered;
pub use space::SearchSpace;
pub use validate::{validate_system, ConfigError, MAX_GPU_COUNTS, MAX_SCALE};

use crate::config::{ParallelConfig, Placement};
use crate::evaluate::{
    evaluate_placement, iteration_time_lower_bound, placement_breakdown, CandidateBounds,
    Evaluation,
};
use crate::memory::{inference_memory_usage, memory_usage, MemoryUsage};
use crate::ord;
use crate::partition::cache::{note_bound_pruned, note_topk_pruned, system_fingerprint};
use crate::partition::{build_profile, ProfileCache};
use crate::placement::enumerate_placements;
use crate::search::{best_placement_with_memory, enumerate_partitions};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};
use systems::SystemSpec;
use txmodel::{InferenceConfig, TransformerConfig};

/// Relative slack on every lower-bound-vs-threshold comparison: a
/// candidate is pruned only when its bound clears the threshold by more
/// than `PRUNE_EPS · |threshold|` ([`relax_up`], [`relax_down`]). The
/// bound and the evaluation assemble the same terms in different
/// floating-point orders (bucketed sum vs `m·(tf+tb)`), so a mathematical
/// tie can differ by a few ulps; the slack turns those ties into
/// evaluations instead of prunes, keeping the result bit-identical to the
/// unpruned sweep.
const PRUNE_EPS: f64 = 1e-9;

/// Candidate-count threshold below which the pool is fanned out over
/// `(candidate, placement)` pairs instead of candidates (in units of the
/// current thread count).
const FANOUT_FACTOR: usize = 4;

/// Widens `bound` upward by the relative [`PRUNE_EPS`] slack (identity on
/// non-finite bounds). Ranking keys may be negative (maximizing
/// objectives negate, a weighted sum can land anywhere), so the slack is
/// applied through `|bound|`: `bound · (1 + PRUNE_EPS)` would *tighten* a
/// negative bound.
fn relax_up(bound: f64) -> f64 {
    if bound.is_finite() {
        bound + PRUNE_EPS * bound.abs()
    } else {
        bound
    }
}

/// Narrows `bound` downward by the relative [`PRUNE_EPS`] slack (identity
/// on non-finite bounds) — the dominance-side margin: a point only counts
/// as beating a lower bound when it clears it by more than float rounding
/// could explain.
fn relax_down(bound: f64) -> f64 {
    if bound.is_finite() {
        bound - PRUNE_EPS * bound.abs()
    } else {
        bound
    }
}

/// Shared archive of evaluated candidates' exact Pareto key vectors —
/// the ranked sweep's dominance oracle, kept frontier-filtered so it
/// stays small. Workers race on it through a mutex; a stale read only
/// misses a prune, never fabricates one.
#[derive(Default)]
struct DominanceArchive {
    points: Mutex<Vec<Vec<f64>>>,
}

impl DominanceArchive {
    /// True when some evaluated point beats `lb` strictly in *every*
    /// component by more than the [`PRUNE_EPS`] margin. The candidate's
    /// true key vector is componentwise ≥ `lb` (up to rounding the margin
    /// absorbs), so it is strictly dominated by that point and can never
    /// sit on the Pareto frontier — and because dominance is transitive,
    /// dropping it cannot promote any other point onto the frontier
    /// either. NaN or `-inf` components make every comparison false:
    /// vacuous bounds never prune.
    fn strictly_covers(&self, lb: &[f64]) -> bool {
        let points = self.points.lock().unwrap_or_else(|e| e.into_inner());
        points
            .iter()
            .any(|p| p.len() == lb.len() && p.iter().zip(lb).all(|(&pj, &lj)| pj < relax_down(lj)))
    }

    /// Records one evaluated point's exact key vector, dropping it if an
    /// archived point already dominates it and evicting points it
    /// dominates (IEEE dominance, same predicate as the final frontier).
    fn insert(&self, kv: Vec<f64>) {
        let dominates = |a: &[f64], b: &[f64]| {
            a.iter().zip(b).all(|(x, y)| x <= y) && a.iter().zip(b).any(|(x, y)| x < y)
        };
        let mut points = self.points.lock().unwrap_or_else(|e| e.into_inner());
        if points.iter().any(|p| dominates(p, &kv)) {
            return;
        }
        points.retain(|p| !dominates(&kv, p));
        points.push(kv);
    }
}

/// The serializable part of a planner: everything except the model/system
/// borrows and the closure hooks. Round-trips through JSON so a planning
/// problem can be stored, diffed and replayed
/// ([`Planner::from_config`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannerConfig {
    /// The candidate space.
    pub space: SearchSpace,
    /// The ranking objective.
    pub objective: Objective,
    /// Objectives spanning the Pareto frontier; empty means "frontier of
    /// the ranking objective alone".
    pub pareto: Vec<Objective>,
    /// How many ranked plans [`PlanSet::top`] retains.
    pub top_k: usize,
    /// Keep memory-infeasible candidates in the sweep (flagged, never
    /// ranked). `false` — the default — prunes them before placement
    /// enumeration.
    pub include_infeasible: bool,
    /// Serving traffic for the inference objectives. When set, the
    /// memory gate switches from the training ledger to the inference
    /// ledger ([`crate::memory::inference_memory_usage`] at batch 1, p99
    /// context) and [`ObjectiveCtx::serving`] is populated so
    /// [`Objective::TokensPerSecPerGpu`]/[`Objective::ServingSlo`] can
    /// score. `None` — the default — plans exactly as before.
    pub serving: Option<InferenceConfig>,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        Self {
            space: SearchSpace::default(),
            objective: Objective::default(),
            pareto: Vec::new(),
            top_k: 8,
            include_infeasible: false,
            serving: None,
        }
    }
}

type Constraint = Arc<dyn Fn(&ParallelConfig) -> bool + Send + Sync>;
type CandidateHook = Arc<dyn Fn(&Evaluation) + Send + Sync>;

/// Builder-style planner over one `(model, system)` pair. See the
/// [module docs](self) for the full tour.
#[derive(Clone)]
pub struct Planner<'a> {
    model: &'a TransformerConfig,
    system: &'a SystemSpec,
    config: PlannerConfig,
    constraints: Vec<Constraint>,
    on_candidate: Option<CandidateHook>,
}

impl<'a> Planner<'a> {
    /// A planner with the default [`PlannerConfig`] (512 GPUs, batch
    /// 4096, 1D TP, iteration-time objective, top-8).
    pub fn new(model: &'a TransformerConfig, system: &'a SystemSpec) -> Self {
        Self {
            model,
            system,
            config: PlannerConfig::default(),
            constraints: Vec::new(),
            on_candidate: None,
        }
    }

    /// Rebuilds a planner from a serialized [`PlannerConfig`] (closure
    /// hooks cannot be serialized and start empty).
    pub fn from_config(
        model: &'a TransformerConfig,
        system: &'a SystemSpec,
        config: PlannerConfig,
    ) -> Self {
        Self {
            model,
            system,
            config,
            constraints: Vec::new(),
            on_candidate: None,
        }
    }

    /// The declarative state (serializable; hooks excluded).
    pub fn config(&self) -> &PlannerConfig {
        &self.config
    }

    /// Replaces the whole candidate space.
    pub fn space(mut self, space: SearchSpace) -> Self {
        self.config.space = space;
        self
    }

    /// Edits the candidate space in place:
    /// `planner.with_space(|s| s.max_interleave(4))`.
    pub fn with_space(mut self, f: impl FnOnce(SearchSpace) -> SearchSpace) -> Self {
        self.config.space = f(self.config.space);
        self
    }

    /// Shorthand for [`SearchSpace::gpus`] on the current space.
    pub fn gpus(self, n: u64) -> Self {
        self.with_space(|s| s.gpus(n))
    }

    /// Shorthand for [`SearchSpace::gpu_counts`] on the current space.
    pub fn gpu_counts(self, counts: impl IntoIterator<Item = u64>) -> Self {
        self.with_space(|s| s.gpu_counts(counts))
    }

    /// Shorthand for [`SearchSpace::global_batch`] on the current space.
    pub fn global_batch(self, b: u64) -> Self {
        self.with_space(|s| s.global_batch(b))
    }

    /// Shorthand for [`SearchSpace::strategy`] on the current space.
    pub fn strategy(self, s: crate::TpStrategy) -> Self {
        self.with_space(|sp| sp.strategy(s))
    }

    /// Shorthand for [`SearchSpace::strategies`] on the current space.
    pub fn strategies(self, ss: impl IntoIterator<Item = crate::TpStrategy>) -> Self {
        self.with_space(|sp| sp.strategies(ss))
    }

    /// Sets the ranking objective.
    pub fn objective(mut self, o: Objective) -> Self {
        self.config.objective = o;
        self
    }

    /// Selects the objectives the Pareto frontier spans.
    pub fn pareto(mut self, objectives: impl IntoIterator<Item = Objective>) -> Self {
        self.config.pareto = objectives.into_iter().collect();
        self
    }

    /// Sets how many ranked plans to retain.
    pub fn top_k(mut self, k: usize) -> Self {
        self.config.top_k = k;
        self
    }

    /// Keeps memory-infeasible candidates in [`Planner::evaluations`]
    /// (flagged `feasible: false`; never ranked or dominated).
    pub fn include_infeasible(mut self, yes: bool) -> Self {
        self.config.include_infeasible = yes;
        self
    }

    /// Plans for *serving* the model under the given traffic: the memory
    /// gate uses the inference ledger (weights + KV working set, no
    /// gradients/optimizer) and the serving objectives
    /// ([`Objective::TokensPerSecPerGpu`], [`Objective::ServingSlo`])
    /// become scoreable.
    pub fn serving(mut self, traffic: InferenceConfig) -> Self {
        self.config.serving = Some(traffic);
        self
    }

    /// Shorthand for [`SearchSpace::branch_and_bound`] on the current
    /// space (gates, with [`Planner::prune_dominated`], the ranked search
    /// of [`Planner::execute`] and [`Planner::best_evaluation`]; exact).
    pub fn branch_and_bound(self, yes: bool) -> Self {
        self.with_space(|s| s.branch_and_bound(yes))
    }

    /// Shorthand for [`SearchSpace::prune_dominated`] on the current
    /// space (gates, with [`Planner::branch_and_bound`], the ranked search
    /// of [`Planner::execute`] and [`Planner::best_evaluation`]; exact).
    pub fn prune_dominated(self, yes: bool) -> Self {
        self.with_space(|s| s.prune_dominated(yes))
    }

    /// Adds a user constraint predicate; candidates failing any predicate
    /// are dropped before evaluation (e.g. "no cross-domain TP":
    /// `.constrain(|c| c.tensor_parallel() <= 8)`).
    pub fn constrain(
        mut self,
        pred: impl Fn(&ParallelConfig) -> bool + Send + Sync + 'static,
    ) -> Self {
        self.constraints.push(Arc::new(pred));
        self
    }

    /// Installs a streaming progress hook, called once per evaluated
    /// candidate *from the worker threads* (concurrently, in no defined
    /// order — aggregate with atomics or locks).
    pub fn on_candidate(mut self, hook: impl Fn(&Evaluation) + Send + Sync + 'static) -> Self {
        self.on_candidate = Some(Arc::new(hook));
        self
    }

    /// The scoring context shared by every candidate of this space. The
    /// reliability fields feed the goodput objectives only; the
    /// checkpoint bandwidth is the per-NIC effective slow-tier rate —
    /// the same path the DP gradient sync drains over.
    pub fn objective_ctx(&self) -> ObjectiveCtx {
        ObjectiveCtx {
            global_batch: self.config.space.global_batch,
            seq_len: self.model.seq_len,
            hbm_capacity: self.system.gpu.hbm_capacity,
            reliability: self.system.reliability,
            nvs_size: self.system.nvs_size,
            nics_per_node: self.system.nics_per_node,
            checkpoint_bandwidth: self.system.network.effective_ib_bandwidth(1),
            serving: self
                .config
                .serving
                .map(|traffic| crate::serving::ServingCtx {
                    model: *self.model,
                    traffic,
                    system: self.system.clone(),
                }),
        }
    }

    /// The memory ledger gating this planner's candidates: the training
    /// ledger at the space's global batch, or — when serving traffic is
    /// configured — the inference ledger (weights + KV working set) at
    /// batch 1 and the traffic's p99 context. The serving gate is
    /// deliberately the *minimum viable residency* (one worst-case
    /// sequence): the real continuous-batching ceiling is enforced
    /// downstream by [`crate::serving::assess`] via
    /// [`crate::memory::max_kv_batch`], which zeroes the throughput of
    /// plans that only fit trivial batches.
    fn candidate_memory(
        &self,
        profile: &crate::plan::LayerProfile,
        cfg: &ParallelConfig,
        global_batch: u64,
    ) -> MemoryUsage {
        match &self.config.serving {
            Some(traffic) => {
                inference_memory_usage(profile, self.model, cfg, 1, traffic.p99_context())
            }
            None => memory_usage(profile, self.model, cfg, global_batch),
        }
    }

    /// Enumerates the candidate configurations of the space (every
    /// `(gpus, strategy)` sub-space in declaration order), with degree
    /// bounds and user constraints applied. Deterministic.
    pub fn candidates(&self) -> Vec<ParallelConfig> {
        let space = &self.config.space;
        // Dedup the axes here rather than trusting the setters: a
        // PlannerConfig replayed from JSON ([`Planner::from_config`]) can
        // carry duplicates, which would double-evaluate sub-spaces and
        // fill top-k slots with identical plans.
        let strategies = dedup_ordered(space.strategies.iter().copied());
        let gpu_counts = dedup_ordered(space.gpu_counts.iter().copied());
        let mut out = Vec::new();
        for &strategy in &strategies {
            for &gpus in &gpu_counts {
                out.extend(enumerate_partitions(self.model, space, gpus, strategy));
            }
        }
        if !space.unbounded_degrees() {
            out.retain(|c| {
                c.np <= space.max_pipeline
                    && c.nd <= space.max_data_parallel
                    && c.tensor_parallel() <= space.max_tensor_parallel
            });
        }
        for pred in &self.constraints {
            out.retain(|c| pred(c));
        }
        out
    }

    /// The full sweep: every candidate under its best placement, in
    /// enumeration order, bit-identical across thread counts.
    /// Memory-infeasible candidates are pruned before placement
    /// enumeration unless [`Planner::include_infeasible`] is set. Sort it
    /// stably with [`crate::ord::time_cmp`] on `iteration_time` for a
    /// fastest-first listing.
    pub fn evaluations(&self) -> Vec<Evaluation> {
        let partitions = self.candidates();
        let cache = ProfileCache::build(self.model, &self.system.gpu, &partitions);
        let global_batch = self.config.space.global_batch;
        let prune = !self.config.include_infeasible;
        let threads = rayon::current_num_threads();
        if threads > 1 && partitions.len() < threads * FANOUT_FACTOR {
            // Few fat candidates: candidate-level fan-out cannot occupy
            // the pool, so spread the placement loops across it instead.
            let work: Vec<(usize, MemoryUsage)> = partitions
                .iter()
                .enumerate()
                .filter_map(|(i, cfg)| {
                    let memory = self.candidate_memory(cache.get(cfg), cfg, global_batch);
                    (!prune || memory.fits(self.system.gpu.hbm_capacity)).then_some((i, memory))
                })
                .collect();
            let evals = self.placement_fanout(&work, &partitions, &cache, global_batch);
            if let Some(hook) = &self.on_candidate {
                for e in &evals {
                    hook(e);
                }
            }
            return evals;
        }
        partitions
            .par_iter()
            .filter_map(|cfg| {
                let profile = cache.get(cfg);
                let memory = self.candidate_memory(profile, cfg, global_batch);
                if prune && !memory.fits(self.system.gpu.hbm_capacity) {
                    return None;
                }
                let e = best_placement_with_memory(
                    profile,
                    self.model,
                    cfg,
                    global_batch,
                    self.system,
                    memory,
                );
                if let Some(hook) = &self.on_candidate {
                    hook(&e);
                }
                Some(e)
            })
            .collect()
    }

    /// The single fastest feasible candidate, or `None` when nothing fits
    /// in HBM. Bit-identical to the first minimum, in enumeration order,
    /// of `evaluations()` filtered to feasible candidates — for any
    /// thread count and any prune-flag setting.
    ///
    /// Runs the ranked engine of [`Planner::execute`] with
    /// [`Objective::IterationTime`], no extra Pareto axes and
    /// `top_k = 1`, whatever the planner's own objective, Pareto axes,
    /// `top_k` and `include_infeasible` say; the space, the serving
    /// traffic and the user constraints apply as configured. It falls
    /// back to the full sweep in the same cases `execute` does — in
    /// particular, with a [`Planner::on_candidate`] hook installed the
    /// hook sees every memory-fitting candidate.
    pub fn best_evaluation(&self) -> Option<Evaluation> {
        let single = Planner {
            config: PlannerConfig {
                objective: Objective::IterationTime,
                pareto: Vec::new(),
                top_k: 1,
                include_infeasible: false,
                ..self.config.clone()
            },
            ..self.clone()
        };
        let (evals, _) = single.search(&single.objective_ctx(), &[Objective::IterationTime]);
        evals
            .into_iter()
            .filter(|e| e.feasible)
            .min_by(|a, b| ord::time_cmp(a.iteration_time, b.iteration_time))
    }

    /// Placement-level parallel evaluation of `work` (pairs of candidate
    /// index into `partitions` + precomputed memory accounting): flattens
    /// every `(candidate, placement)` pair into one work list, scores all
    /// pairs across the pool as bare breakdown totals, then picks each
    /// candidate's first-minimum placement in placement order — the same
    /// argmin `best_placement_with_memory`'s sequential loop computes —
    /// and materializes one [`Evaluation`] per candidate, in `work`
    /// order.
    fn placement_fanout(
        &self,
        work: &[(usize, MemoryUsage)],
        partitions: &[ParallelConfig],
        cache: &ProfileCache,
        global_batch: u64,
    ) -> Vec<Evaluation> {
        let mut pairs: Vec<(usize, Placement)> = Vec::new();
        let mut spans: Vec<(usize, usize)> = Vec::with_capacity(work.len());
        for &(i, _) in work {
            let start = pairs.len();
            let ps = enumerate_placements(&partitions[i], self.system.nvs_size);
            pairs.extend(ps.into_iter().map(|p| (i, p)));
            spans.push((start, pairs.len()));
        }
        let sys_fp = system_fingerprint(self.system);
        let times: Vec<f64> = pairs
            .par_iter()
            .map(|&(i, ref p)| {
                let cfg = &partitions[i];
                let (profile, fps) = cache.get_with_fps(cfg);
                placement_breakdown(
                    profile,
                    self.model,
                    cfg,
                    p,
                    global_batch,
                    self.system,
                    sys_fp,
                    *fps,
                )
                .total()
            })
            .collect();
        work.iter()
            .zip(&spans)
            .map(|(&(i, memory), &(start, end))| {
                let cfg = &partitions[i];
                let mut best = start;
                for j in start + 1..end {
                    if ord::is_improvement(times[j], times[best]) {
                        best = j;
                    }
                }
                let (profile, _) = cache.get_with_fps(cfg);
                evaluate_placement(
                    profile,
                    self.model,
                    cfg,
                    &pairs[best].1,
                    global_batch,
                    self.system,
                    memory,
                )
            })
            .collect()
    }

    /// Evaluates one pinned configuration under its best placement using
    /// this planner's batch size and memory ledger (the Fig. 1–3
    /// "assignment is optimal" path, paper Q1).
    pub fn evaluate_config(&self, cfg: &ParallelConfig) -> Evaluation {
        let profile = build_profile(
            self.model,
            cfg.strategy,
            cfg.n1,
            cfg.n2,
            cfg.microbatch,
            cfg.summa_panels,
            cfg.ep,
            &self.system.gpu,
        );
        let memory = self.candidate_memory(&profile, cfg, self.config.space.global_batch);
        best_placement_with_memory(
            &profile,
            self.model,
            cfg,
            self.config.space.global_batch,
            self.system,
            memory,
        )
    }

    /// [`Planner::execute`] behind typed validation: rejects structurally
    /// invalid configurations (empty axes, zero degrees, out-of-bound
    /// scales, non-finite objective weights — see [`ConfigError`]) and
    /// adversarial system numerics (non-finite MTBF rates, non-positive
    /// bandwidths) *before* any search work. This is the entry point for
    /// configurations replayed from JSON ([`Planner::from_config`]),
    /// where every field is untrusted input; given `Ok`, the search
    /// itself cannot panic on the configuration.
    pub fn try_execute(&self) -> Result<PlanSet, ConfigError> {
        self.config.validate()?;
        validate::validate_system(self.system)?;
        Ok(self.execute())
    }

    /// Runs the search and assembles the [`PlanSet`]: feasible candidates
    /// are ranked under the objective (top-k retained) and the exact
    /// Pareto frontier is computed across the selected objectives.
    /// Deterministic and thread-count invariant.
    ///
    /// When the space's pruning flags are on (the default) and the
    /// objectives admit admissible bounds, the sweep runs through the
    /// ranked branch-and-bound (`ranked_pruned_evaluations`):
    /// provably out-of-top-k *and* dominated candidates skip their
    /// placement loops, with the resulting `PlanSet` — counts, top-k
    /// ranking, Pareto frontier, every score — bit-identical to the full
    /// sweep's.
    ///
    /// Trusts its configuration (builder-constructed spaces are valid by
    /// construction); replayed/deserialized configurations should go
    /// through [`Planner::try_execute`] instead.
    pub fn execute(&self) -> PlanSet {
        let ctx = self.objective_ctx();
        let pareto_objectives: Vec<Objective> = if self.config.pareto.is_empty() {
            vec![self.config.objective.clone()]
        } else {
            self.config.pareto.clone()
        };
        let (evals, pruned_counts) = self.search(&ctx, &pareto_objectives);
        let feasible_idx: Vec<usize> = evals
            .iter()
            .enumerate()
            .filter(|(_, e)| e.feasible)
            .map(|(i, _)| i)
            .collect();
        // The pruned path skips candidates it proved irrelevant, but the
        // reported counts cover the whole space: memory feasibility is
        // placement-independent, so the assess pass counts exactly the
        // candidates the full sweep would have returned (all feasible).
        let (candidates, feasible) = match pruned_counts {
            Some(fitting) => (fitting, fitting),
            None => (evals.len() as u64, feasible_idx.len() as u64),
        };
        // Scores reported per plan: ranking objective first, then the
        // frontier's (plan_of dedups).
        let mut score_objectives = vec![self.config.objective.clone()];
        score_objectives.extend(pareto_objectives.iter().cloned());
        let mk_plan = |i: &usize| plan_of(&evals[*i], self.model, &ctx, &score_objectives);
        let ranked = self.config.objective.rank(&evals, &feasible_idx, &ctx);
        let top: Vec<Plan> = ranked.iter().take(self.config.top_k).map(mk_plan).collect();
        let frontier = pareto_frontier(&evals, &feasible_idx, &pareto_objectives, &ctx);
        let pareto: Vec<Plan> = frontier.iter().map(mk_plan).collect();
        PlanSet {
            objective: self.config.objective.clone(),
            pareto_objectives,
            candidates,
            feasible,
            top,
            pareto,
        }
    }

    /// The evaluated candidates of the search engine: the ranked
    /// branch-and-bound's (with the exact count of memory-fitting
    /// candidates) when it applies, else the full sweep's (with `None`).
    fn search(
        &self,
        ctx: &ObjectiveCtx,
        pareto_objectives: &[Objective],
    ) -> (Vec<Evaluation>, Option<u64>) {
        match self.ranked_pruned_evaluations(ctx, pareto_objectives) {
            Some((evals, fitting)) => (evals, Some(fitting)),
            None => (self.evaluations(), None),
        }
    }

    /// The ranked branch-and-bound sweep behind [`Planner::execute`] and
    /// [`Planner::best_evaluation`]: returns the evaluated (feasible)
    /// candidates in enumeration order plus the exact count of
    /// memory-feasible candidates, or `None` when the configuration
    /// requires the full sweep.
    ///
    /// A candidate is skipped only when **both** exact prunes fire:
    ///
    /// * **k-th-incumbent prune** — its admissible ranking-key lower
    ///   bound ([`Objective::key_lower_bound`]) exceeds the shared
    ///   concurrent k-th-best key ([`ord::TopkIncumbent`]), so at least k
    ///   already-evaluated candidates outrank it and it can never enter
    ///   [`PlanSet::top`]. For a multi-stage lexicographic objective the
    ///   bound must *additionally* clear the primary stage's tolerance
    ///   cut above the running best key — a candidate inside the
    ///   tolerance band survives to later stages, where no admissible
    ///   bound exists. (The cut `b + tol·|b|` is monotone in `b` only for
    ///   `tol ≤ 1`; wider tolerances fall back to no-prune.)
    /// * **Pareto-safe prune** — its per-objective lower-bound vector is
    ///   strictly dominated, in every component and beyond the float
    ///   slack, by an already-evaluated point
    ///   ([`DominanceArchive::strictly_covers`]), so it can never sit on
    ///   [`PlanSet::pareto`].
    ///
    /// Candidates are processed in ascending-bound order with the first
    /// `top_k` evaluated unconditionally as threshold seeds, which is
    /// what makes the threshold bite early; the race on the shared
    /// threshold/archive only changes *which redundant work is skipped*,
    /// never a result bit (stale reads are conservative). Skip counts are
    /// reported as `topk_pruned` in [`crate::search_stats`].
    ///
    /// **Single axis.** When the frontier spans the ranking objective
    /// alone, `top_k ≥ 1` and the objective is not a multi-stage
    /// lexicographic one, the k-th-incumbent prune implies the
    /// Pareto-safe one: a bound above the k-th-best (real) key puts the
    /// candidate strictly behind an evaluated point, off the
    /// single-objective frontier. The archive is then skipped, and once
    /// the seeds are in, every candidate whose bound exceeds the seeded
    /// threshold is dropped before the parallel pass (the *tail cut*,
    /// credited to `bound_pruned`).
    ///
    /// Falls back (`None`) when: a [`Planner::on_candidate`] hook is
    /// installed (its contract is one call per candidate of the full
    /// sweep), [`Planner::include_infeasible`] is set, either
    /// [`SearchSpace::branch_and_bound`] or
    /// [`SearchSpace::prune_dominated`] is off, any selected objective
    /// admits no bound, or the space is small enough that the full
    /// sweep's placement-level fan-out is the better shape.
    fn ranked_pruned_evaluations(
        &self,
        ctx: &ObjectiveCtx,
        pareto_objectives: &[Objective],
    ) -> Option<(Vec<Evaluation>, u64)> {
        let space = &self.config.space;
        if self.config.include_infeasible
            || self.on_candidate.is_some()
            || !space.branch_and_bound
            || !space.prune_dominated
        {
            return None;
        }
        let objective = &self.config.objective;
        if !objective.bounds_key() || !pareto_objectives.iter().all(|o| o.bounds_key()) {
            return None;
        }
        let partitions = self.candidates();
        let threads = rayon::current_num_threads();
        if threads > 1 && partitions.len() < threads * FANOUT_FACTOR {
            return None;
        }
        let cache = ProfileCache::build(self.model, &self.system.gpu, &partitions);
        let global_batch = space.global_batch;
        let sys_fp = system_fingerprint(self.system);
        let top_k = self.config.top_k;
        // Primary-stage tolerance of a multi-stage lexicographic
        // objective (see the method docs); `None` means the k-th
        // incumbent alone decides.
        let lex_cut_tol: Option<f64> = match objective {
            Objective::Lexicographic { stages } if stages.len() > 1 => {
                Some(stages[0].rel_tolerance.max(0.0))
            }
            _ => None,
        };
        let single_axis = lex_cut_tol.is_none()
            && top_k > 0
            && pareto_objectives == std::slice::from_ref(objective);

        // Pass 1 (assess, parallel): placement-independent memory
        // accounting plus the admissible key bounds for the ranking
        // objective and every Pareto axis (a single axis keeps no Pareto
        // bounds: the ranking bound decides alone).
        type Work = (f64, usize, MemoryUsage, Vec<f64>);
        let assessed: Vec<Option<(MemoryUsage, f64, Vec<f64>)>> = partitions
            .par_iter()
            .map(|cfg| {
                let (profile, fps) = cache.get_with_fps(cfg);
                let memory = self.candidate_memory(profile, cfg, global_batch);
                if !memory.fits(self.system.gpu.hbm_capacity) {
                    return None;
                }
                let time_lb = iteration_time_lower_bound(
                    profile,
                    self.model,
                    cfg,
                    global_batch,
                    self.system,
                    sys_fp,
                    *fps,
                );
                let b = CandidateBounds {
                    time_lb,
                    memory_total: memory.total(),
                    gpus: cfg.total_gpus() as f64,
                };
                let rank_lb = objective.key_lower_bound(&b, ctx);
                let pareto_lb: Vec<f64> = if single_axis {
                    Vec::new()
                } else {
                    pareto_objectives
                        .iter()
                        .map(|o| o.key_lower_bound(&b, ctx))
                        .collect()
                };
                Some((memory, rank_lb, pareto_lb))
            })
            .collect();
        let mut work: Vec<Work> = assessed
            .into_iter()
            .enumerate()
            .filter_map(|(i, a)| a.map(|(m, r, p)| (r, i, m, p)))
            .collect();
        let fitting = work.len() as u64;

        // Ascending-bound evaluation order (ties broken by enumeration
        // index): classic best-first B&B, so the threshold tightens as
        // fast as the bounds allow. The seeds are the `top_k` smallest
        // bounds; only the candidates left after them need sorting.
        let by_bound = |a: &Work, b: &Work| ord::time_cmp(a.0, b.0).then(a.1.cmp(&b.1));
        let seeds = top_k.min(work.len());
        if seeds < work.len() {
            work.select_nth_unstable_by(seeds, by_bound);
        }
        let mut rest_work = work.split_off(seeds);

        let topk = ord::TopkIncumbent::new(top_k);
        // On a single axis the k-th-incumbent prune already implies the
        // Pareto-safe one (see the method docs): no archive is kept.
        let archive = (!single_axis).then(DominanceArchive::default);
        let evaluate = |i: usize, memory: MemoryUsage| -> Evaluation {
            let cfg = &partitions[i];
            let (profile, _) = cache.get_with_fps(cfg);
            let e = best_placement_with_memory(
                profile,
                self.model,
                cfg,
                global_batch,
                self.system,
                memory,
            );
            topk.publish(objective.key(&e, ctx));
            if let Some(archive) = &archive {
                archive.insert(pareto_objectives.iter().map(|o| o.key(&e, ctx)).collect());
            }
            e
        };

        // Pass 2a (seeds): the top_k smallest-bound candidates are the
        // likeliest top-k members — evaluate them unconditionally to warm
        // the threshold before any prune decision is made.
        let mut evaluated: Vec<(usize, Evaluation)> = work
            .par_iter()
            .map(|&(_, i, memory, _)| (i, evaluate(i, memory)))
            .collect();

        // Single-axis tail cut (see the method docs). IEEE `>` keeps NaN
        // bounds, wherever the total order placed them.
        if single_axis {
            let cut = relax_up(topk.threshold());
            let before = rest_work.len();
            rest_work.retain(|w| !ord::exceeds_bound(w.0, cut));
            note_bound_pruned((before - rest_work.len()) as u64);
        }
        rest_work.sort_unstable_by(by_bound);

        // Pass 2b (branch-and-bound sweep).
        let rest: Vec<Option<(usize, Evaluation)>> = rest_work
            .par_iter()
            .map(|&(rank_lb, i, memory, ref pareto_lb)| {
                let out_of_topk = ord::exceeds_bound(rank_lb, relax_up(topk.threshold()));
                let past_lex_cut = match lex_cut_tol {
                    None => true,
                    Some(tol) if tol <= 1.0 => {
                        let best = topk.best();
                        ord::exceeds_bound(rank_lb, relax_up(best + tol * best.abs()))
                    }
                    Some(_) => false,
                };
                if out_of_topk
                    && past_lex_cut
                    && archive
                        .as_ref()
                        .is_none_or(|a| a.strictly_covers(pareto_lb))
                {
                    return None;
                }
                Some((i, evaluate(i, memory)))
            })
            .collect();

        // Reassemble in enumeration order; report the skips.
        let before = evaluated.len() + rest.len();
        evaluated.extend(rest.into_iter().flatten());
        note_topk_pruned((before - evaluated.len()) as u64);
        evaluated.sort_unstable_by_key(|&(i, _)| i);
        let evals: Vec<Evaluation> = evaluated.into_iter().map(|(_, e)| e).collect();
        Some((evals, fitting))
    }
}

use plan::{pareto_frontier, plan_of};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TpStrategy;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use systems::{system, GpuGeneration, NvsSize};
    use txmodel::{gpt3_175b, gpt3_1t, moe_1t};

    fn b200_nvs8() -> SystemSpec {
        system(GpuGeneration::B200, NvsSize::Nvs8)
    }

    #[test]
    fn best_plan_matches_best_evaluation() {
        let model = gpt3_1t().config;
        let sys = b200_nvs8();
        let planner = Planner::new(&model, &sys)
            .gpus(256)
            .global_batch(4096)
            .strategy(TpStrategy::OneD);
        let single = planner.best_evaluation().unwrap();
        let plans = planner.execute();
        let best = plans.best().unwrap();
        assert_eq!(best.eval, single);
        assert_eq!(plans.candidates, plans.feasible);
    }

    #[test]
    fn top_k_is_sweep_prefix() {
        // Under the iteration-time objective the top-k list is exactly
        // the feasible prefix of the stably sorted full sweep.
        let model = gpt3_1t().config;
        let sys = b200_nvs8();
        let planner = Planner::new(&model, &sys)
            .gpus(128)
            .strategy(TpStrategy::OneD);
        let mut sweep = planner.evaluations();
        sweep.sort_by(|a, b| ord::time_cmp(a.iteration_time, b.iteration_time));
        let plans = planner.top_k(5).execute();
        assert_eq!(plans.top.len(), 5.min(sweep.len()));
        for (p, e) in plans.top.iter().zip(&sweep) {
            assert_eq!(p.eval.iteration_time, e.iteration_time);
        }
    }

    #[test]
    fn best_evaluation_ignores_the_ranking_state() {
        // The single-optimum search fixes its own objective, frontier,
        // top-k and feasibility filter; only the space, serving traffic
        // and constraints carry over.
        let model = gpt3_1t().config;
        let sys = b200_nvs8();
        let base = Planner::new(&model, &sys)
            .gpus(1024)
            .strategy(TpStrategy::Summa);
        let configured = base
            .clone()
            .objective(Objective::GpuSeconds)
            .top_k(3)
            .pareto([Objective::IterationTime, Objective::HbmHeadroom])
            .include_infeasible(true);
        let expected = base.best_evaluation().unwrap();
        assert_eq!(configured.best_evaluation().unwrap(), expected);
    }

    #[test]
    fn best_evaluation_hook_sees_every_fitting_candidate() {
        // With a hook installed the single-optimum search is the full
        // sweep: one call per memory-fitting candidate, same optimum.
        let model = gpt3_1t().config;
        let sys = b200_nvs8();
        let base = Planner::new(&model, &sys).gpus(256);
        let fitting = base.evaluations().len();
        let seen = Arc::new(AtomicUsize::new(0));
        let seen2 = Arc::clone(&seen);
        let hooked = base.clone().on_candidate(move |_| {
            seen2.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hooked.best_evaluation(), base.best_evaluation());
        assert_eq!(seen.load(Ordering::Relaxed), fitting);
        assert!(fitting > 10);
    }

    #[test]
    fn unbounded_doubling_knobs_plan_like_a_finite_bound() {
        // `u64::MAX` is the space's "unbounded" sentinel and passes
        // validation; the power-of-two enumeration must stop at 2^63
        // instead of wrapping, and plan exactly as a large finite bound.
        let model = gpt3_175b().config;
        let sys = b200_nvs8();
        let replay = |f: fn(&mut SearchSpace, u64), v: u64| {
            let mut cfg = PlannerConfig::default();
            cfg.space.gpu_counts = vec![64];
            cfg.space.global_batch = 512;
            cfg.space.strategies = vec![TpStrategy::Summa];
            f(&mut cfg.space, v);
            let json = serde_json::to_string(&cfg).unwrap();
            let cfg: PlannerConfig = serde_json::from_str(&json).unwrap();
            Planner::from_config(&model, &sys, cfg).try_execute()
        };
        let knobs: [fn(&mut SearchSpace, u64); 2] =
            [|s, v| s.max_interleave = v, |s, v| s.max_summa_panels = v];
        for set in knobs {
            let unbounded = replay(set, u64::MAX).expect("u64::MAX is a valid bound");
            let finite = replay(set, 1 << 32).expect("2^32 is a valid bound");
            assert!(!unbounded.top.is_empty());
            assert_eq!(unbounded, finite);
        }
    }

    #[test]
    fn constraints_prune_candidates() {
        let model = gpt3_1t().config;
        let sys = b200_nvs8();
        let base = Planner::new(&model, &sys).gpus(256);
        let all = base.candidates().len();
        let constrained = base.clone().constrain(|c| c.np == 1);
        let kept = constrained.candidates();
        assert!(!kept.is_empty() && kept.len() < all);
        assert!(kept.iter().all(|c| c.np == 1));
        // Declarative bounds compose with predicates.
        let bounded = base.with_space(|s| s.max_pipeline(1).max_data_parallel(32));
        assert!(bounded.candidates().iter().all(|c| c.np == 1 && c.nd <= 32));
    }

    #[test]
    fn multi_scale_space_unions_subspaces() {
        let model = gpt3_1t().config;
        let sys = b200_nvs8();
        let n128 = Planner::new(&model, &sys).gpus(128).candidates().len();
        let n256 = Planner::new(&model, &sys).gpus(256).candidates().len();
        let both = Planner::new(&model, &sys)
            .gpu_counts([128, 256, 128]) // dedup keeps one 128 sub-space
            .candidates();
        assert_eq!(both.len(), n128 + n256);
        let gpus: std::collections::BTreeSet<u64> = both.iter().map(|c| c.total_gpus()).collect();
        assert_eq!(gpus, [128u64, 256].into_iter().collect());
        // A replayed config that bypasses the setters (e.g. hand-edited
        // JSON) is deduplicated at enumeration too.
        let mut cfg = PlannerConfig::default();
        cfg.space.gpu_counts = vec![128, 128];
        cfg.space.strategies = vec![TpStrategy::OneD, TpStrategy::OneD];
        let replayed = Planner::from_config(&model, &sys, cfg);
        assert_eq!(replayed.candidates().len(), n128);
    }

    #[test]
    fn on_candidate_sees_every_evaluation() {
        let model = gpt3_1t().config;
        let sys = b200_nvs8();
        let seen = Arc::new(AtomicUsize::new(0));
        let seen2 = Arc::clone(&seen);
        let plans = Planner::new(&model, &sys)
            .gpus(128)
            .on_candidate(move |_| {
                seen2.fetch_add(1, Ordering::Relaxed);
            })
            .execute();
        assert_eq!(seen.load(Ordering::Relaxed) as u64, plans.candidates);
    }

    #[test]
    fn gpu_seconds_objective_prefers_smaller_machines() {
        // The acceptance experiment: on GPT3-175B the pure-speed optimum
        // wants the bigger machine; asking for "fastest within 2×, then
        // cheapest" moves the selection to the smaller, cheaper scale.
        let model = gpt3_175b().config;
        let sys = b200_nvs8();
        let base = Planner::new(&model, &sys)
            .gpu_counts([256, 512])
            .global_batch(1024)
            .strategy(TpStrategy::OneD);
        let fastest = base.clone().objective(Objective::IterationTime).execute();
        let cheapest = base
            .objective(Objective::IterationTime.then(1.0, Objective::GpuSeconds))
            .execute();
        let f = fastest.best().unwrap();
        let c = cheapest.best().unwrap();
        assert_eq!(f.eval.config.total_gpus(), 512);
        assert_eq!(c.eval.config.total_gpus(), 256);
        assert!(c.eval.iteration_time <= 2.0 * f.eval.iteration_time);
        let cost = |p: &Plan| p.score(&Objective::GpuSeconds);
        // The cheap plan's GPU-seconds must actually be lower... but
        // GpuSeconds is only scored when among the planner's objectives,
        // so recompute from first principles here.
        assert!(cost(c).is_none());
        let gpu_s = |p: &Plan| p.eval.config.total_gpus() as f64 * p.eval.iteration_time;
        assert!(gpu_s(c) < gpu_s(f));
    }

    #[test]
    fn expected_goodput_optimum_differs_from_iteration_time_optimum() {
        // The reliability acceptance experiment: on GPT3-175B at 4096
        // B200 GPUs under the realistic datacenter failure regime
        // (~50k h per-GPU MTBF ⇒ a failure every ~12 h at this scale),
        // the plan that maximizes *delivered* tokens is not the plan
        // that minimizes failure-free iteration time. The time optimum
        // leans on cross-domain tensor parallelism and a huge DP degree
        // (big optimizer shards ⇒ expensive checkpoints, slow-tier TP
        // exposed to link degradation); the goodput optimum trades a
        // slower failure-free iteration for in-domain TP and deep
        // pipelining with tiny checkpoint shards.
        let model = gpt3_175b().config;
        let sys = b200_nvs8();
        assert!(!sys.reliability.is_failure_free());
        let base = Planner::new(&model, &sys)
            .gpus(4096)
            .global_batch(1024)
            .strategy(TpStrategy::OneD);
        let fastest = base.clone().objective(Objective::IterationTime).execute();
        let goodput = base.clone().objective(Objective::ExpectedGoodput).execute();
        let f = fastest.best().unwrap();
        let g = goodput.best().unwrap();
        assert_ne!(
            f.eval.config, g.eval.config,
            "goodput optimum must differ from the failure-free optimum"
        );
        // The selections differ in the core (tp, pp, dp) split, not just
        // a microbatch knob.
        assert_ne!(
            (
                f.eval.config.tensor_parallel(),
                f.eval.config.np,
                f.eval.config.nd
            ),
            (
                g.eval.config.tensor_parallel(),
                g.eval.config.np,
                g.eval.config.nd
            )
        );
        // And each wins its own game: f is strictly faster failure-free,
        // g strictly delivers more under failures.
        let ctx = base.objective_ctx();
        assert!(f.eval.iteration_time < g.eval.iteration_time);
        let deliver = |e: &Evaluation| crate::reliability::assess(e, &ctx).tokens_per_gpu_second;
        assert!(deliver(&g.eval) > deliver(&f.eval));
        // Under a failure-free spec the two objectives agree again.
        let ff = sys
            .clone()
            .with_reliability(systems::ReliabilitySpec::failure_free());
        let agree = Planner::new(&model, &ff)
            .gpus(4096)
            .global_batch(1024)
            .strategy(TpStrategy::OneD)
            .objective(Objective::ExpectedGoodput)
            .execute();
        assert_eq!(
            agree.best().unwrap().eval.iteration_time,
            f.eval.iteration_time
        );
    }

    #[test]
    fn pareto_frontier_trades_time_against_headroom() {
        let model = gpt3_1t().config;
        let sys = b200_nvs8();
        let plans = Planner::new(&model, &sys)
            .gpus(256)
            .pareto([Objective::IterationTime, Objective::HbmHeadroom])
            .execute();
        assert!(!plans.pareto.is_empty());
        // Frontier is ordered by iteration time and headroom must be
        // anti-monotone along it (otherwise a point would be dominated).
        let t: Vec<f64> = plans.pareto.iter().map(|p| p.eval.iteration_time).collect();
        let h: Vec<f64> = plans
            .pareto
            .iter()
            .map(|p| p.score(&Objective::HbmHeadroom).unwrap())
            .collect();
        for w in t.windows(2) {
            assert!(w[0] <= w[1]);
        }
        for w in h.windows(2) {
            assert!(w[0] <= w[1], "headroom must rise as time does: {h:?}");
        }
        // The fastest frontier point is the single-objective optimum.
        let best = plans.best().unwrap();
        assert_eq!(
            plans.pareto[0].eval.iteration_time,
            best.eval.iteration_time
        );
    }

    #[test]
    fn execute_is_thread_count_invariant() {
        let model = moe_1t().config;
        let sys = b200_nvs8();
        let run = |threads: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| {
                    Planner::new(&model, &sys)
                        .gpus(128)
                        .top_k(6)
                        .pareto([Objective::IterationTime, Objective::GpuSeconds])
                        .execute()
                })
        };
        let seq = run(1);
        assert!(!seq.top.is_empty());
        for n in [2, 8] {
            assert_eq!(run(n), seq, "thread count {n}");
        }
    }

    #[test]
    fn planner_config_round_trips() {
        let model = gpt3_1t().config;
        let sys = b200_nvs8();
        let planner = Planner::new(&model, &sys)
            .gpu_counts([128, 256])
            .global_batch(2048)
            .strategies([TpStrategy::OneD, TpStrategy::TwoD])
            .objective(Objective::weighted([
                (Objective::IterationTime, 1.0),
                (Objective::GpuSeconds, 0.01),
            ]))
            .top_k(3);
        let json = serde_json::to_string(planner.config()).unwrap();
        let back: PlannerConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(&back, planner.config());
        // A rebuilt planner reproduces the same plans.
        let a = planner.execute();
        let b = Planner::from_config(&model, &sys, back).execute();
        assert_eq!(a, b);
    }
}
