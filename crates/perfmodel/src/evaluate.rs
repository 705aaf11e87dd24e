//! Stage S2 assembly: converts a layer profile + configuration + placement
//! into an iteration time with a full bucket breakdown and memory check.
//!
//! Iteration structure under the non-interleaved 1F1B schedule:
//!
//! ```text
//! t_iter = m·(tf + tb)            steady-state microbatches
//!        + (np − 1)·(tf + tb)     pipeline bubble (paper S2)
//!        + t_pp                   P2P stage-boundary transfers (exposed)
//!        + t_dp                   exposed remainder of DP grad/weight sync
//! ```
//!
//! where `tf`/`tb` are the per-microbatch stage times (layers/stage ×
//! per-layer compute + memory + exposed TP communication). The DP
//! ReduceScatter is overlapped with the last microbatch's backward and the
//! weight AllGather with the first microbatch's forward (paper S1 "Data
//! Parallel and Optimizer"); only the remainder is charged.

use crate::breakdown::Breakdown;
use crate::config::{ParallelConfig, Placement};
use crate::memory::{memory_usage, MemoryUsage};
use crate::partition::build_profile;
use crate::partition::cache::{fnv, memo_f64, system_fingerprint};
use crate::placement::divisors;
use crate::plan::{CommPattern, LayerProfile, TpGroup};
use collectives::{
    allreduce_hierarchical_time, allreduce_time, allreduce_tree_time, alltoall_time,
    collective_time, p2p_time, Algorithm, Collective, CommGroup,
};
use serde::{Deserialize, Serialize};
use systems::SystemSpec;
use txmodel::TransformerConfig;

/// Full evaluation of one design point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// The parallelization configuration evaluated.
    pub config: ParallelConfig,
    /// The NVS-domain assignment used.
    pub placement: Placement,
    /// Number of microbatches `m`.
    pub microbatches: u64,
    /// Seconds per training iteration (forward + backward + sync).
    pub iteration_time: f64,
    /// Bucketed time breakdown (sums to `iteration_time`).
    pub breakdown: Breakdown,
    /// Per-GPU HBM usage.
    pub memory: MemoryUsage,
    /// True if the memory fits the device HBM capacity.
    pub feasible: bool,
}

/// Resolves a parallel-group reference to its communication placement.
///
/// The expert-parallel group lives inside the data-parallel dimension, so
/// its per-domain share is bounded by the DP co-residency `vd` (the
/// largest divisor of `ep` that fits — EP ranks are laid out contiguously
/// within the DP group, the placement-favorable convention the search
/// optimizes over).
fn comm_group(group: TpGroup, cfg: &ParallelConfig, placement: &Placement) -> CommGroup {
    match group {
        TpGroup::N1 => CommGroup::new(cfg.n1, placement.v1),
        TpGroup::N2 => CommGroup::new(cfg.n2, placement.v2),
        TpGroup::Ep => CommGroup::new(
            cfg.ep,
            largest_divisor_at_most(cfg.ep, placement.vd.min(cfg.ep)),
        ),
    }
}

/// Exposed time of one [`CommPattern::Exposed`] collective over an
/// already-resolved group.
///
/// AllReduce patterns are priced under the configuration's
/// [`Algorithm`] policy (`Auto` = NCCL-style fastest-of-three), AllToAll
/// under the same knob (ring vs pairwise, `Auto` = fastest); every other
/// collective runs rings, as in NCCL. Every price is closed-form and
/// computed directly: the pass-level memos above this function
/// ([`pass_comm_time`], [`pass_comm_lower_bound`]) absorb the repeats.
/// Taking the resolved [`CommGroup`] (rather than a placement) lets the
/// branch-and-bound lower bound price *hypothetical* best-case groups.
fn exposed_time(
    coll: Collective,
    volume: f64,
    algo: Algorithm,
    grp: CommGroup,
    sys: &SystemSpec,
) -> f64 {
    match coll {
        Collective::AllReduce => allreduce_time(algo, volume, grp, sys),
        Collective::AllToAll => alltoall_time(algo, volume, grp, sys),
        _ => collective_time(coll, volume, grp, sys),
    }
}

/// Exposed time of one [`CommPattern::SummaOverlapped`] panel schedule
/// over already-resolved groups, computed directly like [`exposed_time`].
fn summa_time(
    vol_a: f64,
    vol_b: f64,
    panels: u64,
    panel_compute: f64,
    grp_a: CommGroup,
    grp_b: CommGroup,
    sys: &SystemSpec,
) -> f64 {
    let panels = panels.max(1) as f64;
    // `vol_*` carry the (g−1)/g received factor; the broadcast of one
    // panel moves the full panel tensor, so undo the factor.
    let per_step = |vol: f64, grp: CommGroup| -> f64 {
        if grp.size() <= 1 || vol <= 0.0 {
            return 0.0;
        }
        let n = grp.size() as f64;
        let tensor = vol * n / (n - 1.0) / panels;
        collective_time(Collective::Broadcast, tensor, grp, sys)
    };
    let step_comm = per_step(vol_a, grp_a) + per_step(vol_b, grp_b);
    // Prologue (first panel fully exposed) + exposed remainder of each
    // subsequent panel after overlapping with compute.
    step_comm + (panels - 1.0) * (step_comm - panel_compute).max(0.0)
}

/// Exposed time of one communication pattern under a placement: resolves
/// the pattern's symbolic groups via [`comm_group`] and dispatches to the
/// pricing helpers.
fn pattern_time(
    pattern: &CommPattern,
    cfg: &ParallelConfig,
    placement: &Placement,
    sys: &SystemSpec,
) -> f64 {
    match pattern {
        CommPattern::Exposed {
            coll,
            volume,
            group,
        } => exposed_time(
            *coll,
            *volume,
            cfg.comm_algo,
            comm_group(*group, cfg, placement),
            sys,
        ),
        CommPattern::SummaOverlapped {
            vol_a,
            group_a,
            vol_b,
            group_b,
            panels,
            panel_compute,
        } => summa_time(
            *vol_a,
            *vol_b,
            *panels,
            *panel_compute,
            comm_group(*group_a, cfg, placement),
            comm_group(*group_b, cfg, placement),
            sys,
        ),
    }
}

/// Order-sensitive FNV fold of a pass's full pattern list: every variant
/// field (collective, volume bits, symbolic group, panel schedule) enters
/// the fold, so two passes share a fingerprint only if their pattern
/// lists are identical (up to the fold's ~2⁻⁶⁴ pairwise collision odds).
/// This is what lets the pass-level memo key stand in for the list
/// itself.
fn comm_fingerprint(comms: &[CommPattern]) -> u64 {
    let mut words: Vec<u64> = Vec::with_capacity(comms.len() * 7);
    for p in comms {
        match p {
            CommPattern::Exposed {
                coll,
                volume,
                group,
            } => words.extend([0x58, *coll as u64, volume.to_bits(), *group as u64]),
            CommPattern::SummaOverlapped {
                vol_a,
                group_a,
                vol_b,
                group_b,
                panels,
                panel_compute,
            } => words.extend([
                0x59,
                vol_a.to_bits(),
                *group_a as u64,
                vol_b.to_bits(),
                *group_b as u64,
                *panels,
                panel_compute.to_bits(),
            ]),
        }
    }
    fnv(words)
}

/// The forward/backward pass fingerprints of one [`LayerProfile`]
/// ([`comm_fingerprint`] of each pattern list), computed once per profile
/// (the [`crate::ProfileCache`] stores them alongside the profile) so the
/// per-placement pass-level memo probes are a single hash fold instead of
/// a re-hash of the pattern lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PassFingerprints {
    pub(crate) fwd: u64,
    pub(crate) bwd: u64,
}

impl PassFingerprints {
    pub(crate) fn of(profile: &LayerProfile) -> Self {
        Self {
            fwd: comm_fingerprint(&profile.fwd.comms),
            bwd: comm_fingerprint(&profile.bwd.comms),
        }
    }
}

/// Sum of exposed communication over one pass of one layer, memoized at
/// the **pass** level: the key folds the pass fingerprint with everything
/// [`comm_group`] can read from the candidate (`n1`, `n2`, `ep`, the
/// algorithm policy) and from the placement (`v1`, `v2`, and the
/// expert group's derived per-domain share — `vp` never enters a pass
/// pattern). In the all-hit steady state a pass costs one probe; on a
/// miss the per-pattern sum below runs in the exact order it always did,
/// so the published value is bit-identical to the unmemoized sum.
fn pass_comm_time(
    comms: &[CommPattern],
    pass_fp: u64,
    cfg: &ParallelConfig,
    placement: &Placement,
    sys: &SystemSpec,
    sys_fp: u64,
) -> f64 {
    if comms.is_empty() {
        return 0.0;
    }
    let ep_per_domain = largest_divisor_at_most(cfg.ep, placement.vd.min(cfg.ep));
    let key = fnv([
        0x50, // "P"ass
        pass_fp,
        cfg.comm_algo as u64,
        cfg.n1,
        cfg.n2,
        cfg.ep,
        placement.v1,
        placement.v2,
        ep_per_domain,
        sys_fp,
    ]);
    memo_f64(key, || {
        comms
            .iter()
            .map(|p| pattern_time(p, cfg, placement, sys))
            .sum()
    })
}

/// Evaluates with a fraction of the exposed tensor-parallel communication
/// hidden behind compute (paper Limitations: "there are more lower-level
/// opportunities for TP communications to be overlapped with compute").
/// `tp_overlap` ∈ [0, 1]; 0 is the paper's baseline.
pub fn evaluate_with_tp_overlap(
    model: &TransformerConfig,
    cfg: &ParallelConfig,
    placement: &Placement,
    global_batch: u64,
    sys: &SystemSpec,
    tp_overlap: f64,
) -> Evaluation {
    let tp_overlap = tp_overlap.clamp(0.0, 1.0);
    let mut e = evaluate(model, cfg, placement, global_batch, sys);
    let hidden = e.breakdown.tp_comm * tp_overlap;
    e.breakdown.tp_comm -= hidden;
    // The bubble is proportional to (tf + tb), which shrinks by the
    // hidden per-microbatch TP time.
    let m = e.microbatches as f64;
    if m > 0.0 {
        e.breakdown.pp_bubble -= (cfg.np - 1) as f64 / cfg.interleave as f64 * hidden / m;
        e.breakdown.pp_bubble = e.breakdown.pp_bubble.max(0.0);
    }
    e.iteration_time = e.breakdown.total();
    e
}

/// The single implementation behind [`stage_times`] and
/// [`evaluate_placement`]: prices each pass's communication exactly once
/// and returns `(fwd_comm, bwd_comm, tf, tb)` — the comm sums feed the
/// breakdown's TP bucket, the stage times feed everything else. Keeping
/// one definition means the analytic model and the `trainsim` simulator
/// that validates it can never silently diverge on the stage formula.
///
/// `sys_fp`/`fps` are the hoisted [`system_fingerprint`] and
/// [`PassFingerprints`] — the search hoists both out of its per-placement
/// loop ([`crate::ProfileCache`] hands back the fingerprints it computed
/// at build time), so per-placement work is a pair of memo probes.
fn stage_parts(
    profile: &LayerProfile,
    layers: f64,
    cfg: &ParallelConfig,
    placement: &Placement,
    sys: &SystemSpec,
    sys_fp: u64,
    fps: PassFingerprints,
) -> (f64, f64, f64, f64) {
    let fwd_comm =
        layers * pass_comm_time(&profile.fwd.comms, fps.fwd, cfg, placement, sys, sys_fp);
    let bwd_comm =
        layers * pass_comm_time(&profile.bwd.comms, fps.bwd, cfg, placement, sys, sys_fp);
    (
        fwd_comm,
        bwd_comm,
        layers * profile.fwd.time.total() + fwd_comm,
        layers * profile.bwd.time.total() + bwd_comm,
    )
}

/// Per-microbatch forward/backward times of one pipeline stage
/// (layers-per-stage × per-layer device time + exposed TP communication).
/// This is the quantity `tf`/`tb` in the paper's bubble formula; exposed
/// for the `trainsim` schedule simulator.
pub fn stage_times(
    profile: &LayerProfile,
    model: &TransformerConfig,
    cfg: &ParallelConfig,
    placement: &Placement,
    sys: &SystemSpec,
) -> (f64, f64) {
    let layers = (model.depth / cfg.np) as f64;
    let sys_fp = system_fingerprint(sys);
    let fps = PassFingerprints::of(profile);
    let (_, _, tf, tb) = stage_parts(profile, layers, cfg, placement, sys, sys_fp, fps);
    (tf, tb)
}

/// Evaluates a configuration + placement using a precomputed layer
/// profile (the search's fast path — the profile only depends on the TP
/// tuple and microbatch size).
pub fn evaluate_with_profile(
    profile: &LayerProfile,
    model: &TransformerConfig,
    cfg: &ParallelConfig,
    placement: &Placement,
    global_batch: u64,
    sys: &SystemSpec,
) -> Evaluation {
    let memory = memory_usage(profile, model, cfg, global_batch);
    evaluate_placement(profile, model, cfg, placement, global_batch, sys, memory)
}

/// Core of [`evaluate_with_profile`] with the (placement-independent)
/// memory accounting precomputed, so the search's per-candidate placement
/// loop prices memory once instead of once per placement.
pub(crate) fn evaluate_placement(
    profile: &LayerProfile,
    model: &TransformerConfig,
    cfg: &ParallelConfig,
    placement: &Placement,
    global_batch: u64,
    sys: &SystemSpec,
    memory: MemoryUsage,
) -> Evaluation {
    let sys_fp = system_fingerprint(sys);
    let fps = PassFingerprints::of(profile);
    let breakdown = placement_breakdown(
        profile,
        model,
        cfg,
        placement,
        global_batch,
        sys,
        sys_fp,
        fps,
    );
    let feasible = memory.fits(sys.gpu.hbm_capacity);
    Evaluation {
        config: *cfg,
        placement: *placement,
        microbatches: cfg.num_microbatches(global_batch),
        iteration_time: breakdown.total(),
        breakdown,
        memory,
        feasible,
    }
}

/// The pure timing core: the full bucket [`Breakdown`] of one
/// configuration + placement, with every per-placement-loop invariant
/// (`sys_fp`, `fps`, the memory accounting) hoisted to the caller. The
/// search's inner loop calls this directly — scoring a placement is then
/// nothing but two pass-level memo probes plus a handful of multiplies —
/// and only materializes a full [`Evaluation`] for the winning placement.
#[expect(
    clippy::too_many_arguments,
    reason = "the per-placement-loop invariants are hoisted to the caller and passed in"
)]
pub(crate) fn placement_breakdown(
    profile: &LayerProfile,
    model: &TransformerConfig,
    cfg: &ParallelConfig,
    placement: &Placement,
    global_batch: u64,
    sys: &SystemSpec,
    sys_fp: u64,
    fps: PassFingerprints,
) -> Breakdown {
    let m = cfg.num_microbatches(global_batch) as f64;
    let layers = (model.depth / cfg.np) as f64;

    // Per-microbatch stage times: one shared pricing of each pass's
    // communication yields both the TP-comm bucket and tf/tb.
    let (fwd_comm, bwd_comm, tf, tb) =
        stage_parts(profile, layers, cfg, placement, sys, sys_fp, fps);

    // Steady-state + bubble. Interleaving the stage into `v` virtual
    // chunks divides the bubble by `v` (Narayanan et al. / paper
    // Limitations).
    let bubble = (cfg.np - 1) as f64 * (tf + tb) / cfg.interleave as f64;

    // Pipeline P2P: each microbatch's activation forward and gradient
    // backward across the stage boundary, not overlapped (paper S1).
    // Interleaving multiplies the boundary crossings by `v`.
    let pp_comm = if cfg.np > 1 {
        let same_domain = placement.vp >= 2;
        2.0 * m * cfg.interleave as f64 * p2p_time(profile.boundary_bytes, same_domain, sys)
    } else {
        0.0
    };

    let dp_comm = dp_sync_time(profile, model, cfg, placement, global_batch, sys, tf, tb);

    Breakdown {
        compute: m * layers * (profile.fwd.time.compute + profile.bwd.time.compute),
        memory: m * layers * (profile.fwd.time.memory_excess + profile.bwd.time.memory_excess),
        tp_comm: m * (fwd_comm + bwd_comm),
        pp_bubble: bubble,
        dp_comm,
        pp_comm,
    }
}

/// Exposed time of the data-parallel synchronization: the gradient
/// ReduceScatter + weight AllGather over the combined `nd × n2` group
/// (2D TP folds the sequence-group weight-grad reduction into this
/// collective — paper Appendix A), after overlapping with the adjacent
/// microbatch compute.
///
/// The configuration's [`Algorithm`] policy selects how the
/// non-ZeRO-3 sync is executed:
///
/// * [`Algorithm::Ring`] — the paper's baseline: a ring ReduceScatter
///   hidden behind the last microbatch's backward (`tb`) and a ring
///   AllGather behind the first microbatch's forward (`tf`); only the
///   remainders are charged.
/// * [`Algorithm::Tree`] / [`Algorithm::Hierarchical`] — the pair is fused
///   into one monolithic AllReduce of the gradient volume (NCCL's
///   tree/hierarchical algorithms exist for AllReduce only), overlapped
///   with the combined `tf + tb` window.
/// * [`Algorithm::Auto`] — whichever of the three exposes the least time,
///   as NCCL's autotuner + an overlap-aware scheduler would pick.
///
/// ZeRO-3 re-gathers weights per microbatch (AllGather/ReduceScatter
/// only, which NCCL runs as rings regardless of policy), so its pricing
/// is algorithm-independent.
///
/// MoE expert weights synchronize separately: expert FFNs are *not*
/// tensor-parallel-sharded (each of the `n1` TP ranks pushes its own
/// sequence shard through full expert weights), so one expert shard is
/// replicated on `n1 · nd/ep` GPUs — the `n1` TP ranks (whose expert
/// gradients come from disjoint token shards and must be reduced) times
/// the `nd/ep` data-parallel replicas. Its (large) gradient volume runs
/// over that group instead of the full `nd` group, vanishing entirely at
/// `n1 = 1, ep = nd` — the communication saving that makes expert
/// parallelism attractive beyond its memory relief. Both collectives
/// share the same overlap windows, so their times add before the
/// remainder is taken.
///
/// Public so `trainsim` prices its DP tail with exactly the same policy
/// as the analytic model it validates.
#[expect(
    clippy::too_many_arguments,
    reason = "public API shared with trainsim: the plan, the system and both overlap windows"
)]
pub fn dp_sync_time(
    profile: &LayerProfile,
    model: &TransformerConfig,
    cfg: &ParallelConfig,
    placement: &Placement,
    global_batch: u64,
    sys: &SystemSpec,
    tf: f64,
    tb: f64,
) -> f64 {
    let layers = (model.depth / cfg.np) as f64;
    // (group, volume) parts: dense weights over the full `nd × n2` group,
    // expert weights over the `n1 × nd/ep` replica group. A fixed
    // two-slot array — this sits on the search's per-placement hot path,
    // so no heap allocation.
    let mut parts: [Option<(CommGroup, f64)>; 2] = [None, None];
    let dp_size = cfg.nd * profile.dp_group_multiplier;
    if dp_size > 1 && profile.weight_bytes > 0.0 {
        let per_domain = (placement.vd * placement.v2).min(dp_size);
        let per_domain = largest_divisor_at_most(dp_size, per_domain);
        parts[0] = Some((
            CommGroup::new(dp_size, per_domain),
            profile.weight_bytes * layers,
        ));
    }
    let replicas = cfg.n1 * (cfg.nd / cfg.ep);
    if replicas > 1 && profile.expert_weight_bytes > 0.0 {
        let per_domain =
            largest_divisor_at_most(replicas, (placement.v1 * placement.vd).min(replicas));
        parts[1] = Some((
            CommGroup::new(replicas, per_domain),
            profile.expert_weight_bytes * layers,
        ));
    }
    if parts.iter().all(Option::is_none) {
        return 0.0;
    }
    let sum = |coll: Collective| -> f64 {
        parts
            .iter()
            .flatten()
            .map(|&(grp, vol)| collective_time(coll, vol, grp, sys))
            .sum()
    };
    let t_rs = sum(Collective::ReduceScatter);
    let t_ag = sum(Collective::AllGather);
    if cfg.zero3 {
        // ZeRO-3: weights are re-gathered for every microbatch's forward
        // and backward and gradients reduce-scattered per microbatch; each
        // microbatch's collectives can hide behind that microbatch's
        // compute, the remainder is exposed.
        let m = cfg.num_microbatches(global_batch) as f64;
        return m * (2.0 * t_ag + t_rs - (tf + tb)).max(0.0);
    }
    let ring = (t_rs - tb).max(0.0) + (t_ag - tf).max(0.0);
    let fused_ar = |algo: fn(f64, CommGroup, &SystemSpec) -> f64| -> f64 {
        let ar: f64 = parts
            .iter()
            .flatten()
            .map(|&(grp, vol)| algo(vol, grp, sys))
            .sum();
        (ar - (tf + tb)).max(0.0)
    };
    match cfg.comm_algo {
        Algorithm::Ring => ring,
        Algorithm::Tree => fused_ar(allreduce_tree_time),
        Algorithm::Hierarchical => fused_ar(allreduce_hierarchical_time),
        Algorithm::Auto => ring
            .min(fused_ar(allreduce_tree_time))
            .min(fused_ar(allreduce_hierarchical_time)),
    }
}

/// Largest divisor of `n` that is ≤ `cap` (≥ 1).
pub fn largest_divisor_at_most(n: u64, cap: u64) -> u64 {
    let mut best = 1;
    let mut d = 1;
    while d * d <= n {
        if n.is_multiple_of(d) {
            if d <= cap && d > best {
                best = d;
            }
            let q = n / d;
            if q <= cap && q > best {
                best = q;
            }
        }
        d += 1;
    }
    best
}

/// Best-case exposed time of one communication pattern over *any* legal
/// domain assignment — the per-pattern piece of the branch-and-bound
/// lower bound.
///
/// For each group the real placement choices are divisors `v` of the
/// group size with `v1·v2·vp·vd ≤ budget` jointly; this relaxes to every
/// divisor `d ≤ budget` **independently per group** (a superset: any
/// jointly-feasible `v` satisfies `v ≤ budget` alone, and the expert
/// group's derived share `largest_divisor_at_most(ep, vd.min(ep))` is
/// also a divisor of `ep` that is ≤ budget). Minimizing over the superset
/// can only go lower, so the bound is admissible *without* assuming the
/// collective models are monotone in the per-domain share — which the
/// hierarchical AllReduce is not. SUMMA patterns minimize over the
/// cartesian product of both groups' options for the same reason.
///
/// Pricing goes through the same [`exposed_time`] / [`summa_time`]
/// helpers as real placements, so the bound and the evaluation price a
/// group identically.
fn pattern_lower_bound(
    pattern: &CommPattern,
    cfg: &ParallelConfig,
    budget: u64,
    sys: &SystemSpec,
) -> f64 {
    let group_size = |g: TpGroup| match g {
        TpGroup::N1 => cfg.n1,
        TpGroup::N2 => cfg.n2,
        TpGroup::Ep => cfg.ep,
    };
    match pattern {
        CommPattern::Exposed {
            coll,
            volume,
            group,
        } => {
            let n = group_size(*group);
            divisors(n)
                .into_iter()
                .filter(|&d| d <= budget)
                .map(|d| exposed_time(*coll, *volume, cfg.comm_algo, CommGroup::new(n, d), sys))
                .fold(f64::INFINITY, f64::min)
        }
        CommPattern::SummaOverlapped {
            vol_a,
            group_a,
            vol_b,
            group_b,
            panels,
            panel_compute,
        } => {
            let na = group_size(*group_a);
            let nb = group_size(*group_b);
            let dbs: Vec<u64> = divisors(nb).into_iter().filter(|&d| d <= budget).collect();
            let mut best = f64::INFINITY;
            for da in divisors(na).into_iter().filter(|&d| d <= budget) {
                for &db in &dbs {
                    best = best.min(summa_time(
                        *vol_a,
                        *vol_b,
                        *panels,
                        *panel_compute,
                        CommGroup::new(na, da),
                        CommGroup::new(nb, db),
                        sys,
                    ));
                }
            }
            best
        }
    }
}

/// Sum of [`pattern_lower_bound`] over one pass, memoized under the
/// `0x4C` key (pass fingerprint × candidate group sizes × domain budget —
/// no placement fields, since the bound quantifies over all of them).
/// A per-pass sum of per-pattern minima is itself a valid lower bound on
/// the per-pass minimum: `Σᵢ minₚ tᵢ(p) ≤ minₚ Σᵢ tᵢ(p)`.
fn pass_comm_lower_bound(
    comms: &[CommPattern],
    pass_fp: u64,
    cfg: &ParallelConfig,
    budget: u64,
    sys: &SystemSpec,
    sys_fp: u64,
) -> f64 {
    if comms.is_empty() {
        return 0.0;
    }
    let key = fnv([
        0x4C, // "L"ower bound
        pass_fp,
        cfg.comm_algo as u64,
        cfg.n1,
        cfg.n2,
        cfg.ep,
        budget,
        sys_fp,
    ]);
    memo_f64(key, || {
        comms
            .iter()
            .map(|p| pattern_lower_bound(p, cfg, budget, sys))
            .sum()
    })
}

/// Admissible lower bound on [`placement_breakdown`]`.total()` over
/// **every** placement of `cfg` — the branch-and-bound pruning predicate.
///
/// # Admissibility
///
/// Each breakdown bucket is bounded below independently, so the sum
/// bounds the total:
///
/// * **compute + memory + tp_comm** = `m·(tf + tb)`, and `tf ≥ tf_lb`
///   because each pass's exposed comm is bounded by
///   [`pass_comm_lower_bound`] (a relaxation over a superset of the real
///   placement choices — see [`pattern_lower_bound`]).
/// * **pp_bubble** = `(np−1)·(tf+tb)/interleave` is monotone in
///   `tf + tb`, so substituting the bounds keeps it a bound.
/// * **pp_comm** takes the cheaper of the same-domain / cross-domain P2P
///   rates, whichever a placement would pick.
/// * **dp_comm** is an overlap *remainder*: every branch of
///   [`dp_sync_time`] is a `max(0, ·)` (or a min of such), so `0` is a
///   valid bound and the term is simply dropped.
///
/// Any candidate whose bound already exceeds the incumbent best time
/// therefore cannot contain the optimum, and pruning it is exact (the
/// caller adds a relative epsilon so float rounding between the bucketed
/// sum and `m·(tf+tb)` can never flip a tie). The bound costs two memo
/// probes in the steady state — candidates sharing a TP tuple reuse it.
pub(crate) fn iteration_time_lower_bound(
    profile: &LayerProfile,
    model: &TransformerConfig,
    cfg: &ParallelConfig,
    global_batch: u64,
    sys: &SystemSpec,
    sys_fp: u64,
    fps: PassFingerprints,
) -> f64 {
    let m = cfg.num_microbatches(global_batch) as f64;
    let layers = (model.depth / cfg.np) as f64;
    let budget = sys.nvs_size.min(cfg.total_gpus());
    let fwd_lb =
        layers * pass_comm_lower_bound(&profile.fwd.comms, fps.fwd, cfg, budget, sys, sys_fp);
    let bwd_lb =
        layers * pass_comm_lower_bound(&profile.bwd.comms, fps.bwd, cfg, budget, sys, sys_fp);
    let tf_lb = layers * profile.fwd.time.total() + fwd_lb;
    let tb_lb = layers * profile.bwd.time.total() + bwd_lb;
    let bubble_lb = (cfg.np - 1) as f64 * (tf_lb + tb_lb) / cfg.interleave as f64;
    let pp_lb = if cfg.np > 1 {
        let per_hop = p2p_time(profile.boundary_bytes, true, sys).min(p2p_time(
            profile.boundary_bytes,
            false,
            sys,
        ));
        2.0 * m * cfg.interleave as f64 * per_hop
    } else {
        0.0
    };
    m * (tf_lb + tb_lb) + bubble_lb + pp_lb
}

/// Placement-independent facts about one candidate, assessed *before*
/// any full evaluation — the inputs every admissible per-objective key
/// bound is derived from (see `Objective::key_lower_bound`).
///
/// # Admissibility
///
/// * `time_lb` is [`iteration_time_lower_bound`]: `time_lb ≤ t(p)` for
///   every placement `p`, so any key that is *monotone non-decreasing*
///   in iteration time is bounded below by substituting `time_lb` —
///   `TrainingDays` (`iters·t/86400`, for `iters ≥ 0`) and `GpuSeconds`
///   (`n·t`) directly, `TokensPerGpuSecond` through its negated key
///   `−B·L/(t·n)`.
/// * `memory_total` is **exact**, not a bound: per-GPU HBM usage depends
///   only on the candidate's parallel configuration, never on the
///   placement, so the `HbmHeadroom` key `−(capacity − memory_total)`
///   computed from it *equals* the evaluated key bit-for-bit.
/// * `gpus` is the candidate's exact GPU count (`cfg.total_gpus()`).
///
/// Composite objectives compose these per-leaf bounds: a `Weighted` sum
/// adds `wᵢ·lbᵢ ≤ wᵢ·keyᵢ` term-wise (negative or zero weights are only
/// sound over *exact* leaf keys, and fall back to `-inf` = no-prune
/// otherwise — IEEE rounding is monotone, so the summed bound stays a
/// bound), and a `Lexicographic` objective bounds its primary stage's
/// key. Metrics with no placement-independent bound (`ExpectedGoodput`,
/// `EffectiveTrainingDays`) report `-inf`, which never prunes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CandidateBounds {
    /// Admissible lower bound on the candidate's iteration time over
    /// every placement, seconds.
    pub time_lb: f64,
    /// Exact per-GPU HBM usage of the candidate, bytes.
    pub memory_total: f64,
    /// Exact GPU count of the candidate.
    pub gpus: f64,
}

/// Evaluates a configuration + placement from scratch (builds the layer
/// profile internally). Panics on invalid configurations — call
/// [`ParallelConfig::validate`] first for user input.
pub fn evaluate(
    model: &TransformerConfig,
    cfg: &ParallelConfig,
    placement: &Placement,
    global_batch: u64,
    sys: &SystemSpec,
) -> Evaluation {
    #[expect(
        clippy::panic,
        reason = "documented API contract: callers validate user input first"
    )]
    cfg.validate(model, global_batch)
        .unwrap_or_else(|e| panic!("invalid configuration {cfg}: {e}"));
    #[expect(
        clippy::panic,
        reason = "documented API contract: callers validate user input first"
    )]
    placement
        .validate(cfg, sys.nvs_size)
        .unwrap_or_else(|e| panic!("invalid placement {placement:?}: {e}"));
    let profile = build_profile(
        model,
        cfg.strategy,
        cfg.n1,
        cfg.n2,
        cfg.microbatch,
        cfg.summa_panels,
        cfg.ep,
        &sys.gpu,
    );
    evaluate_with_profile(&profile, model, cfg, placement, global_batch, sys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TpStrategy;
    use systems::{system, GpuGeneration, NvsSize};
    use txmodel::gpt3_1t;

    fn sys() -> SystemSpec {
        system(GpuGeneration::B200, NvsSize::Nvs8)
    }

    fn eval_1d(n1: u64, np: u64, nd: u64, v1: u64, vp: u64, vd: u64) -> Evaluation {
        let model = gpt3_1t().config;
        let cfg = ParallelConfig::new(TpStrategy::OneD, n1, 1, np, nd, 1);
        let placement = Placement { v1, v2: 1, vp, vd };
        evaluate(&model, &cfg, &placement, 4096, &sys())
    }

    #[test]
    fn breakdown_sums_to_iteration_time() {
        let e = eval_1d(8, 64, 32, 8, 1, 1);
        assert!((e.breakdown.total() - e.iteration_time).abs() / e.iteration_time < 1e-12);
    }

    #[test]
    fn fig1_config_d_magnitude() {
        // Fig. 1 config D lands around 2–4 s/iteration on 16384 B200.
        let e = eval_1d(8, 64, 32, 8, 1, 1);
        assert!(
            e.iteration_time > 1.0 && e.iteration_time < 8.0,
            "got {} s",
            e.iteration_time
        );
        assert!(e.feasible);
        assert_eq!(e.microbatches, 128);
    }

    #[test]
    fn compute_dominates_at_optimal_scale() {
        // Paper Fig. 4a: most time is compute for GPT3-1T at moderate TP.
        let e = eval_1d(8, 64, 32, 8, 1, 1);
        assert!(
            e.breakdown.compute_fraction() > 0.4,
            "{:?}",
            e.breakdown.percentages()
        );
    }

    #[test]
    fn more_tp_means_more_tp_comm_share() {
        // Fixed np: raising nt (lowering nd, raising m) inflates total TP
        // communication (volume is nt-invariant but per-microbatch).
        let lo = eval_1d(4, 64, 64, 4, 2, 1);
        let hi = eval_1d(32, 64, 8, 8, 1, 1);
        let share = |e: &Evaluation| e.breakdown.tp_comm / e.iteration_time;
        assert!(share(&hi) > share(&lo));
    }

    #[test]
    fn fewer_microbatches_means_bigger_bubble_share() {
        // Fixed nt = 8: large DP shrinks m, exposing the pipeline bubble
        // (Fig. 2 right-hand configs).
        let many_mb = eval_1d(8, 64, 32, 8, 1, 1); // m = 128, np = 64
        let few_mb = eval_1d(8, 64, 128, 8, 1, 1); // m = 32, np = 64
        let share = |e: &Evaluation| e.breakdown.pp_bubble / e.iteration_time;
        assert!(share(&few_mb) > share(&many_mb));
    }

    #[test]
    fn placement_changes_time() {
        // Giving the domain to TP vs DP must alter communication time.
        let tp_placed = eval_1d(8, 64, 32, 8, 1, 1);
        let dp_placed = eval_1d(8, 64, 32, 1, 1, 8);
        assert_ne!(tp_placed.iteration_time, dp_placed.iteration_time);
        // With nt = 8 cross-domain TP is very painful: TP-placed wins.
        assert!(tp_placed.iteration_time < dp_placed.iteration_time);
    }

    #[test]
    fn pure_dp_has_no_tp_or_pp_costs() {
        let model = gpt3_1t().config;
        let cfg = ParallelConfig::new(TpStrategy::OneD, 1, 1, 1, 512, 1);
        let placement = Placement {
            v1: 1,
            v2: 1,
            vp: 1,
            vd: 8,
        };
        let e = evaluate(&model, &cfg, &placement, 4096, &sys());
        assert_eq!(e.breakdown.tp_comm, 0.0);
        assert_eq!(e.breakdown.pp_bubble, 0.0);
        assert_eq!(e.breakdown.pp_comm, 0.0);
        assert!(!e.feasible, "1T params on one GPU's worth of TP cannot fit");
    }

    #[test]
    fn summa_evaluation_runs() {
        let model = gpt3_1t().config;
        let mut cfg = ParallelConfig::new(TpStrategy::Summa, 8, 4, 8, 16, 1);
        cfg.summa_panels = 4;
        let placement = Placement {
            v1: 8,
            v2: 1,
            vp: 1,
            vd: 1,
        };
        let e = evaluate(&model, &cfg, &placement, 4096, &sys());
        assert!(e.iteration_time > 0.0);
        assert!(e.breakdown.tp_comm > 0.0);
    }

    #[test]
    fn dp_comm_is_exposed_remainder_only() {
        // Small DP volume (high TP·PP sharding) should be fully hidden
        // behind the microbatch fwd/bwd windows.
        let e = eval_1d(8, 128, 16, 8, 1, 1);
        assert!(e.breakdown.dp_comm < 0.2 * e.iteration_time);
    }

    #[test]
    fn largest_divisor_helper() {
        assert_eq!(largest_divisor_at_most(64, 16), 16);
        assert_eq!(largest_divisor_at_most(64, 15), 8);
        assert_eq!(largest_divisor_at_most(12, 5), 4);
        assert_eq!(largest_divisor_at_most(7, 3), 1);
    }

    #[test]
    fn interleaving_divides_the_bubble() {
        let model = gpt3_1t().config;
        let base = ParallelConfig::new(TpStrategy::OneD, 8, 1, 64, 32, 1);
        let inter = ParallelConfig {
            interleave: 2,
            ..base
        };
        let pl = Placement {
            v1: 8,
            v2: 1,
            vp: 1,
            vd: 1,
        };
        let e0 = evaluate(&model, &base, &pl, 4096, &sys());
        let e2 = evaluate(&model, &inter, &pl, 4096, &sys());
        assert!((e2.breakdown.pp_bubble - e0.breakdown.pp_bubble / 2.0).abs() < 1e-9);
        assert!((e2.breakdown.pp_comm - 2.0 * e0.breakdown.pp_comm).abs() < 1e-9);
        // Net effect at this scale: interleaving wins (bubble dominates
        // the extra P2P).
        assert!(e2.iteration_time < e0.iteration_time);
        // Activation memory grows slightly.
        assert!(e2.memory.activations > e0.memory.activations);
    }

    #[test]
    fn zero3_trades_memory_for_dp_comm() {
        let model = gpt3_1t().config;
        let base = ParallelConfig::new(TpStrategy::OneD, 8, 1, 16, 128, 1);
        let z3 = ParallelConfig {
            zero3: true,
            ..base
        };
        let pl = Placement {
            v1: 8,
            v2: 1,
            vp: 1,
            vd: 1,
        };
        let e0 = evaluate(&model, &base, &pl, 4096, &sys());
        let ez = evaluate(&model, &z3, &pl, 4096, &sys());
        assert!((ez.memory.weights - e0.memory.weights / 128.0).abs() < 1.0);
        assert!((ez.memory.gradients - e0.memory.gradients / 128.0).abs() < 1.0);
        assert!(ez.memory.total() < e0.memory.total());
        assert!(ez.breakdown.dp_comm >= e0.breakdown.dp_comm);
    }

    #[test]
    fn tp_overlap_reduces_comm_and_bubble() {
        let model = gpt3_1t().config;
        let cfg = ParallelConfig::new(TpStrategy::OneD, 32, 1, 64, 8, 1);
        let pl = Placement {
            v1: 8,
            v2: 1,
            vp: 1,
            vd: 1,
        };
        let s = sys();
        let base = evaluate(&model, &cfg, &pl, 4096, &s);
        let half = evaluate_with_tp_overlap(&model, &cfg, &pl, 4096, &s, 0.5);
        let full = evaluate_with_tp_overlap(&model, &cfg, &pl, 4096, &s, 1.0);
        assert!((half.breakdown.tp_comm - base.breakdown.tp_comm / 2.0).abs() < 1e-9);
        assert_eq!(full.breakdown.tp_comm, 0.0);
        assert!(full.iteration_time < half.iteration_time);
        assert!(half.iteration_time < base.iteration_time);
        // Clamping.
        let over = evaluate_with_tp_overlap(&model, &cfg, &pl, 4096, &s, 7.0);
        assert_eq!(over.breakdown.tp_comm, 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid configuration")]
    fn evaluate_rejects_invalid() {
        let model = gpt3_1t().config;
        let cfg = ParallelConfig::new(TpStrategy::OneD, 3, 1, 64, 32, 1);
        let _ = evaluate(&model, &cfg, &Placement::trivial(), 4096, &sys());
    }
}
