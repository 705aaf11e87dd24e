//! Analytic inference-serving model: prefill/decode pricing, continuous-
//! batching occupancy, and colocated vs disaggregated prefill/decode
//! placements.
//!
//! Training planning asks one question of a parallelization — iteration
//! time at a fixed global batch. Serving asks three of the *same*
//! parallelization: sustainable token throughput per GPU, time-to-first-
//! token (TTFT: queue wait + prefill), and time-per-output-token (TPOT:
//! one decode step, plus whatever stalls the scheduler admits). This
//! module prices all three from an ordinary [`Evaluation`] plus a
//! [`ServingCtx`] (model + [`InferenceConfig`] traffic + system), and
//! exposes them to the planner as
//! [`Objective::TokensPerSecPerGpu`](crate::Objective::TokensPerSecPerGpu)
//! and [`Objective::ServingSlo`](crate::Objective::ServingSlo).
//!
//! # Phase pricing
//!
//! * **Prefill** is compute-bound: a full forward pass over the prompt.
//!   [`prefill_time`] reuses the training model's S1/S2 machinery
//!   verbatim — [`build_profile`] at the prompt length (padded up to the
//!   sequence-TP shard) and [`stage_times`] under the evaluation's
//!   placement, which prices the GEMMs, the exposed TP collectives and
//!   the MoE AllToAlls exactly as a training forward pass would — then
//!   chains the `np` stages serially (one request has no microbatch
//!   pipelining to hide the stage boundaries).
//! * **Decode** is memory-bandwidth-bound: each step streams the
//!   resident weight shard plus every resident sequence's KV cache
//!   through HBM to produce one token per sequence. [`decode_step_time`]
//!   rooflines that byte sweep against the batched GEMV FLOPs, adds
//!   per-layer launch latency, the two per-layer TP AllReduces (latency-
//!   dominated at decode volumes), the MoE dispatch/combine AllToAlls
//!   over the *active* experts, and the inter-stage activation hops.
//!   MoE decode reads only the experts the batch activates — the
//!   bandwidth-side reason sparse models serve cheaply.
//!
//! # Occupancy and placement
//!
//! Continuous batching holds each request's decode slot for its whole
//! output; Little's law ties the steady-state batch to the offered load:
//! `b = λ_replica · L_out · TPOT(b)`, solved by fixed point and clamped
//! to the KV-capacity/scheduler ceiling ([`max_kv_batch`]).
//!
//! Under a **colocated** placement every replica interleaves prefills
//! with decode steps: the mean decode gap inflates by the prefill
//! utilization, and — the tail that motivates disaggregation — any gap a
//! prefill lands in stretches by a whole prompt's forward pass, so p99
//! TPOT carries a full prefill stall once prefills arrive faster than
//! once per ~100 gaps. Under a **disaggregated** placement
//! ([`PdPlacement::Disaggregated`]) `k` of the `nd` replicas serve
//! prefill only and stream the prompt's KV shard to a decode replica
//! over the slow tier ([`kv_transfer_time`]): decode gaps stay clean
//! (p99 TPOT = one step) at the price of pool-quantization throughput
//! loss and the transfer added to TTFT. [`assess`] and [`assess_slo`]
//! sweep both modes plus a deterministic grid of splits and keep the
//! best under their respective metrics.
//!
//! Queueing terms use standard first-order approximations
//! (Pollaczek–Khinchine mean wait, exponential tail for p99); the
//! `servesim` crate replays the same pricing through a seeded discrete-
//! event scheduler and pins how far these closed forms drift (tolerance
//! bands documented in its validation suite).

use crate::config::{ParallelConfig, Placement};
use crate::evaluate::{largest_divisor_at_most, stage_times, Evaluation};
use crate::memory::{kv_bytes_per_token_layer, max_kv_batch};
use crate::partition::build_profile;
use crate::plan::LayerProfile;
use collectives::{allreduce_auto_time, alltoall_auto_time, p2p_time, CommGroup};
use serde::{Deserialize, Serialize};
use systems::SystemSpec;
use txmodel::{InferenceConfig, TransformerConfig, BYTES_PER_ELEM, LONG_PCT};

/// Kernel launches charged per transformer block per decode step (QKV,
/// attention, output projection, two MLP GEMMs, norms/softmax fused into
/// a few vector kernels) — the fixed-latency floor that makes tiny-batch
/// decode latency-bound on fast GPUs.
pub const DECODE_LAUNCHES_PER_LAYER: f64 = 8.0;

/// Offered load above this fraction of capacity is reported saturated:
/// queues grow without bound well before utilization 1 in practice, and
/// the first-order waiting-time forms below lose meaning there.
pub const STABILITY_MARGIN: f64 = 0.95;

/// Exponential-tail multiplier taking a mean queue wait to its p99
/// (`ln 100`, exact for an exponential wait distribution).
const P99_WAIT_FACTOR: f64 = 4.605_170_185_988_091;

/// The serving side of the scoring context: everything
/// [`assess`]/[`assess_slo`] need beyond the [`Evaluation`] itself.
/// Built by `Planner::objective_ctx` when serving traffic is configured.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingCtx {
    /// The model being served.
    pub model: TransformerConfig,
    /// The offered traffic.
    pub traffic: InferenceConfig,
    /// The system (GPU roofline + network tiers) serving it.
    pub system: SystemSpec,
}

/// Latency targets for [`Objective::ServingSlo`](crate::Objective::ServingSlo):
/// medians and tails for both TTFT and TPOT, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SloSpec {
    /// Median time-to-first-token target.
    pub ttft_p50: f64,
    /// Tail (p99) time-to-first-token target.
    pub ttft_p99: f64,
    /// Median time-per-output-token target.
    pub tpot_p50: f64,
    /// Tail (p99) time-per-output-token target.
    pub tpot_p99: f64,
}

impl SloSpec {
    /// A chat-interactivity budget: first token within 2 s / 8 s tail,
    /// steady streaming at 50 ms / 150 ms per token.
    pub fn interactive() -> Self {
        Self {
            ttft_p50: 2.0,
            ttft_p99: 8.0,
            tpot_p50: 0.05,
            tpot_p99: 0.15,
        }
    }
}

/// How the `nd` model replicas split serving phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PdPlacement {
    /// Every replica interleaves prefill and decode (the default
    /// single-pool deployment).
    Colocated,
    /// `prefill_replicas` of the `nd` replicas serve prefill only and
    /// ship prompt KV to the remaining decode replicas.
    Disaggregated {
        /// Replicas dedicated to prefill (`1 ≤ k < nd`).
        prefill_replicas: u64,
    },
}

/// Everything the serving model derives for one evaluated candidate
/// under one traffic spec and one [`PdPlacement`]. All fields are in
/// natural units (seconds, tokens/s) so reports can cite them directly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServingReport {
    /// The prefill/decode placement this report prices.
    pub mode: PdPlacement,
    /// Effective per-replica batch ceiling: the smaller of the
    /// scheduler's `max_batch` and the KV-capacity batch at the mean
    /// context ([`max_kv_batch`]). Zero when the weights alone overflow.
    pub batch_ceiling: u64,
    /// Steady-state resident decode batch (Little's-law fixed point,
    /// clamped to the ceiling).
    pub occupancy: f64,
    /// Prefill forward-pass latency for the typical (p50) prompt.
    pub prefill_p50: f64,
    /// Prefill forward-pass latency for the long (p99) prompt.
    pub prefill_p99: f64,
    /// One clean decode step at the occupancy batch (no stalls).
    pub decode_step: f64,
    /// Prompt-KV handoff time to the decode pool (0 when colocated).
    pub kv_transfer: f64,
    /// Median time-to-first-token: queue wait + prefill (+ KV handoff).
    pub ttft_p50: f64,
    /// Tail time-to-first-token.
    pub ttft_p99: f64,
    /// Median time-per-output-token.
    pub tpot_p50: f64,
    /// Tail time-per-output-token (carries a full prefill stall when
    /// colocated traffic is non-trivial).
    pub tpot_p99: f64,
    /// Sustainable output-token capacity per GPU at the batch ceiling,
    /// tokens per GPU-second — the throughput objective's value.
    pub tokens_per_gpu_second: f64,
    /// Output tokens per GPU-second actually delivered at the offered
    /// load (= offered/n below saturation, capacity at saturation).
    pub delivered_tokens_per_gpu_second: f64,
    /// Offered load as a fraction of capacity.
    pub utilization: f64,
    /// True when the offered load exceeds [`STABILITY_MARGIN`] of
    /// capacity (latency fields are then meaningless lower bounds).
    pub saturated: bool,
}

impl ServingReport {
    /// True when every latency target holds and the system is stable.
    pub fn meets(&self, slo: &SloSpec) -> bool {
        !self.saturated
            && self.batch_ceiling > 0
            && self.ttft_p50 <= slo.ttft_p50
            && self.ttft_p99 <= slo.ttft_p99
            && self.tpot_p50 <= slo.tpot_p50
            && self.tpot_p99 <= slo.tpot_p99
    }

    /// The SLO objective's natural value: capacity throughput when the
    /// SLO holds, else the negated worst relative violation — so every
    /// SLO-meeting plan outranks every violating one, and among
    /// violators the nearest-to-compliant ranks first.
    pub fn slo_score(&self, slo: &SloSpec) -> f64 {
        if self.meets(slo) {
            return self.tokens_per_gpu_second;
        }
        let rel = |x: f64, target: f64| {
            if target > 0.0 {
                x / target - 1.0
            } else {
                f64::INFINITY
            }
        };
        let mut violation: f64 = 0.0;
        if self.saturated || self.batch_ceiling == 0 {
            violation = self.utilization.max(1.0);
        }
        violation = violation
            .max(rel(self.ttft_p50, slo.ttft_p50))
            .max(rel(self.ttft_p99, slo.ttft_p99))
            .max(rel(self.tpot_p50, slo.tpot_p50))
            .max(rel(self.tpot_p99, slo.tpot_p99));
        -violation
    }
}

/// Pads a prompt length up to the tensor-parallel shard grid (`n1·n2` —
/// the profile's sequence-divisibility constraint) so the prefill
/// profile can be built at the prompt length; the padding tokens model
/// the real systems' practice of right-padding to the shard grid.
fn padded_prompt(cfg: &ParallelConfig, prompt: u64) -> u64 {
    let pad = cfg.tensor_parallel().max(1);
    prompt.div_ceil(pad).max(1) * pad
}

/// Prefill latency for one request of `prompt` tokens: the training
/// forward pass at the prompt length ([`build_profile`] +
/// [`stage_times`] under the given placement — GEMM roofline, exposed TP
/// collectives and MoE AllToAlls priced exactly as in training), with
/// the `np` pipeline stages chained serially plus their boundary hops (a
/// single request exposes every stage boundary).
pub fn prefill_time(
    model: &TransformerConfig,
    cfg: &ParallelConfig,
    placement: &Placement,
    sys: &SystemSpec,
    prompt: u64,
) -> f64 {
    let mut m = *model;
    m.seq_len = padded_prompt(cfg, prompt);
    let profile = build_profile(
        &m,
        cfg.strategy,
        cfg.n1,
        cfg.n2,
        1,
        cfg.summa_panels,
        cfg.ep,
        &sys.gpu,
    );
    let (tf, _tb) = stage_times(&profile, &m, cfg, placement, sys);
    let hops = cfg.np.saturating_sub(1) as f64;
    let hop = if cfg.np > 1 {
        p2p_time(profile.boundary_bytes, placement.vp >= 2, sys)
    } else {
        0.0
    };
    cfg.np as f64 * tf + hops * hop
}

/// One decode step for `batch` resident sequences at `context` KV tokens
/// each: per layer, a roofline of the HBM byte sweep (weight shard +
/// active-expert shard + batched KV read) against the batched-GEMV and
/// attention FLOPs, plus launch latency, two TP AllReduces and (for MoE
/// under expert parallelism) dispatch/combine AllToAlls; stages chain
/// serially with their activation hops — a token must traverse the whole
/// pipeline before the next step of its sequence.
///
/// `profile` supplies the per-layer per-GPU weight byte census (any
/// sequence length — weights don't depend on it).
pub fn decode_step_time(
    profile: &LayerProfile,
    model: &TransformerConfig,
    cfg: &ParallelConfig,
    placement: &Placement,
    sys: &SystemSpec,
    batch: u64,
    context: u64,
) -> f64 {
    let b = batch.max(1) as f64;
    let gpu = &sys.gpu;
    let layers_per_stage = (model.depth / cfg.np) as f64;
    let tp = cfg.tensor_parallel() as f64;

    // HBM bytes per layer per GPU: the dense weight shard, the share of
    // the local expert set this batch activates (b tokens route to at
    // most min(b·top_k, E) distinct experts), and the batch's KV.
    let active_frac = match model.moe {
        Some(moe) => ((b * moe.top_k as f64) / moe.experts as f64).min(1.0),
        None => 1.0,
    };
    let kv_read = b * context as f64 * kv_bytes_per_token_layer(model, cfg);
    let bytes = profile.weight_bytes + profile.expert_weight_bytes * active_frac + kv_read;

    // FLOPs per layer per GPU: 2 per weight-shard parameter per token
    // (batched GEMV) plus the attention score/value products over the
    // context (4·e/tp per token pair).
    let params_per_gpu = model.activated_params_per_block() as f64 / tp;
    let flops = 2.0 * params_per_gpu * b + 4.0 * (model.embed as f64 / tp) * context as f64 * b;

    let roofline = (bytes / gpu.hbm_bandwidth).max(flops / gpu.tensor_flops);
    let mut layer = gpu.flops_latency * DECODE_LAUNCHES_PER_LAYER + roofline;

    // Two per-layer TP AllReduces over the step's activations (b tokens
    // × e elements) — latency-dominated at decode volumes, which is why
    // cross-domain TP hurts TPOT far more than it hurts prefill.
    let nt = cfg.tensor_parallel();
    if nt > 1 {
        let group = CommGroup::new(
            nt,
            largest_divisor_at_most(nt, (placement.v1 * placement.v2).min(nt)),
        );
        let vol = b * model.embed as f64 * BYTES_PER_ELEM;
        layer += 2.0 * allreduce_auto_time(vol, group, sys);
    }
    // MoE dispatch/combine over the expert-parallel group.
    if model.is_moe() && cfg.ep > 1 {
        let moe = match model.moe {
            Some(m) => m,
            None => unreachable!(),
        };
        let group = CommGroup::new(
            cfg.ep,
            largest_divisor_at_most(cfg.ep, placement.vd.min(cfg.ep)),
        );
        let vol = b * moe.top_k as f64 * model.embed as f64 * BYTES_PER_ELEM;
        layer += 2.0 * alltoall_auto_time(vol, group, sys);
    }

    let stage = layers_per_stage * layer;
    let hop = if cfg.np > 1 {
        p2p_time(
            b * model.embed as f64 * BYTES_PER_ELEM,
            placement.vp >= 2,
            sys,
        )
    } else {
        0.0
    };
    cfg.np as f64 * stage + cfg.np.saturating_sub(1) as f64 * hop
}

/// Prompt-KV handoff time from a prefill replica to its decode replica:
/// each decode GPU receives its own KV shard (`layers-per-stage · prompt`
/// entries at [`kv_bytes_per_token_layer`]) over the slow tier, all
/// shards in parallel.
pub fn kv_transfer_time(
    model: &TransformerConfig,
    cfg: &ParallelConfig,
    sys: &SystemSpec,
    prompt: u64,
) -> f64 {
    let layers_per_stage = (model.depth / cfg.np) as f64;
    let shard = layers_per_stage * prompt as f64 * kv_bytes_per_token_layer(model, cfg);
    p2p_time(shard, false, sys)
}

/// The simulator's handoff from the analytic model: the effective batch
/// ceiling (scheduler `max_batch` ∧ KV capacity at the mean context,
/// with the capacity ledger taken at the long prompt's transient working
/// set) and the exact decode step time at every batch `1..=ceiling` —
/// so a discrete-event scheduler replays the *same* per-phase pricing
/// and any divergence is purely emergent queueing behavior. An empty
/// table means the weights alone don't fit.
pub fn decode_step_table(e: &Evaluation, s: &ServingCtx) -> (u64, Vec<f64>) {
    let cfg = &e.config;
    let mut cap_model = s.model;
    cap_model.seq_len = padded_prompt(cfg, s.traffic.prompt.p99());
    let profile = build_profile(
        &cap_model,
        cfg.strategy,
        cfg.n1,
        cfg.n2,
        1,
        cfg.summa_panels,
        cfg.ep,
        &s.system.gpu,
    );
    let context = s.traffic.mean_context().ceil() as u64;
    let kv_ceiling = max_kv_batch(&profile, &s.model, cfg, context, s.system.gpu.hbm_capacity);
    let ceiling = s.traffic.max_batch.min(kv_ceiling);
    let table = (1..=ceiling)
        .map(|b| decode_step_time(&profile, &s.model, cfg, &e.placement, &s.system, b, context))
        .collect();
    (ceiling, table)
}

/// The deterministic placement grid [`assess`]/[`assess_slo`] sweep:
/// colocated first, then disaggregated splits at 1 and nd/8, nd/4, nd/2
/// prefill replicas (deduplicated, clamped to `1..nd`).
pub fn placement_modes(nd: u64) -> Vec<PdPlacement> {
    let mut out = vec![PdPlacement::Colocated];
    if nd >= 2 {
        let mut ks: Vec<u64> = [1, nd / 8, nd / 4, nd / 2]
            .into_iter()
            .filter(|&k| k >= 1 && k < nd)
            .collect();
        ks.sort_unstable();
        ks.dedup();
        out.extend(ks.into_iter().map(|k| PdPlacement::Disaggregated {
            prefill_replicas: k,
        }));
    }
    out
}

/// The long-request probability of the two-point length mix.
fn long_frac() -> f64 {
    LONG_PCT as f64 / 100.0
}

/// A saturated/infeasible placeholder report (zero ceiling or offered
/// load beyond capacity at ceiling zero).
fn dead_report(mode: PdPlacement) -> ServingReport {
    ServingReport {
        mode,
        batch_ceiling: 0,
        occupancy: 0.0,
        prefill_p50: f64::INFINITY,
        prefill_p99: f64::INFINITY,
        decode_step: f64::INFINITY,
        kv_transfer: 0.0,
        ttft_p50: f64::INFINITY,
        ttft_p99: f64::INFINITY,
        tpot_p50: f64::INFINITY,
        tpot_p99: f64::INFINITY,
        tokens_per_gpu_second: 0.0,
        delivered_tokens_per_gpu_second: 0.0,
        utilization: f64::INFINITY,
        saturated: true,
    }
}

/// Prices one evaluated candidate under one prefill/decode placement.
///
/// The evaluation supplies the parallelization and its NVS placement
/// (chosen by the training-side search for communication efficiency —
/// the same criterion serving wants); the context supplies model,
/// traffic and system. Deterministic: closed forms and a fixed-iteration
/// fixed point only.
pub fn assess_mode(e: &Evaluation, s: &ServingCtx, mode: PdPlacement) -> ServingReport {
    let cfg = &e.config;
    let placement = &e.placement;
    let sys = &s.system;
    let model = &s.model;
    let traffic = &s.traffic;
    let n = cfg.total_gpus() as f64;

    // Capacity ledger at the long prompt's transient working set: the
    // batch ceiling must survive the worst prefill passing through.
    let mut cap_model = *model;
    cap_model.seq_len = padded_prompt(cfg, traffic.prompt.p99());
    let profile = build_profile(
        &cap_model,
        cfg.strategy,
        cfg.n1,
        cfg.n2,
        1,
        cfg.summa_panels,
        cfg.ep,
        &sys.gpu,
    );
    let context = traffic.mean_context().ceil() as u64;
    let kv_ceiling = max_kv_batch(&profile, model, cfg, context, sys.gpu.hbm_capacity);
    let ceiling = traffic.max_batch.min(kv_ceiling);
    if ceiling == 0 {
        return dead_report(mode);
    }

    let lf = long_frac();
    let prefill_p50 = prefill_time(model, cfg, placement, sys, traffic.prompt.p50());
    let prefill_p99 = prefill_time(model, cfg, placement, sys, traffic.prompt.p99());
    let prefill_mean = (1.0 - lf) * prefill_p50 + lf * prefill_p99;
    let prefill_sq_mean = (1.0 - lf) * prefill_p50 * prefill_p50 + lf * prefill_p99 * prefill_p99;
    let step = |b: f64| {
        decode_step_time(
            &profile,
            model,
            cfg,
            placement,
            sys,
            b.ceil().max(1.0) as u64,
            context,
        )
    };
    let l_out = traffic.output.mean();
    let lambda = traffic.request_rate();
    let step_cap = step(ceiling as f64);

    // Split the replica pool by mode and derive capacity (max sustainable
    // request rate) and the per-decode-replica load.
    let (decode_replicas, prefill_replicas) = match mode {
        PdPlacement::Colocated => (cfg.nd, cfg.nd),
        PdPlacement::Disaggregated { prefill_replicas } => {
            if prefill_replicas == 0 || prefill_replicas >= cfg.nd {
                return dead_report(mode);
            }
            (cfg.nd - prefill_replicas, prefill_replicas)
        }
    };
    let colocated = matches!(mode, PdPlacement::Colocated);
    // Max requests/s: a colocated replica splits its time between
    // prefill (λ·Tp of every second) and decode (b tokens per T(b) of
    // what remains) — λ·L·T(b)/b = 1 − λ·Tp ⇒ λ = b/(L·T(b) + b·Tp);
    // disaggregated pools bind at the slower of the two sides.
    let capacity_req = if colocated {
        let per = ceiling as f64 / (l_out * step_cap + ceiling as f64 * prefill_mean);
        cfg.nd as f64 * per
    } else {
        let prefill_side = prefill_replicas as f64 / prefill_mean;
        let decode_side = decode_replicas as f64 * ceiling as f64 / (l_out * step_cap);
        prefill_side.min(decode_side)
    };
    let utilization = if capacity_req > 0.0 {
        lambda / capacity_req
    } else {
        f64::INFINITY
    };
    let saturated = utilization >= STABILITY_MARGIN;

    // Steady-state occupancy (Little's law fixed point on the effective
    // step time; colocated steps stretch by the prefill utilization).
    let lam_decode = lambda / decode_replicas as f64;
    let lam_prefill = lambda / prefill_replicas as f64;
    let rho_p = if colocated {
        (lam_decode * prefill_mean).min(1.0)
    } else {
        (lam_prefill * prefill_mean).min(1.0)
    };
    let inflate = if colocated && rho_p < 1.0 {
        1.0 / (1.0 - rho_p)
    } else {
        1.0
    };
    let mut occupancy = 1.0f64;
    for _ in 0..48 {
        occupancy = (lam_decode * l_out * step(occupancy) * inflate).clamp(1.0, ceiling as f64);
    }
    let decode_step = step(occupancy);

    // TPOT percentiles. Colocated: a gap stretches by a prefill whenever
    // one lands in it (Poisson arrivals at the replica's rate).
    let (tpot_p50, tpot_p99) = if colocated {
        let p_stall = 1.0 - (-lam_decode * decode_step).exp();
        let p50 = if p_stall >= 0.5 {
            decode_step * inflate
        } else {
            decode_step
        };
        let p99 = if p_stall >= 0.01 {
            decode_step + prefill_p50
        } else {
            decode_step
        };
        (p50, p99)
    } else {
        (decode_step, decode_step)
    };

    // TTFT: queue wait (Pollaczek–Khinchine mean, exponential tail for
    // p99) + own prefill (+ KV handoff when disaggregated; colocated
    // arrivals also wait out the in-flight decode step).
    let rho_wait = rho_p.min(0.999_999);
    let wq = lam_prefill * prefill_sq_mean / (2.0 * (1.0 - rho_wait));
    let (kv_p50, kv_p99) = if colocated {
        (0.0, 0.0)
    } else {
        (
            kv_transfer_time(model, cfg, sys, traffic.prompt.p50()),
            kv_transfer_time(model, cfg, sys, traffic.prompt.p99()),
        )
    };
    let step_wait_p50 = if colocated { 0.5 * decode_step } else { 0.0 };
    let step_wait_p99 = if colocated { decode_step } else { 0.0 };
    let ttft_p50 = step_wait_p50 + wq + prefill_p50 + kv_p50;
    let ttft_p99 = step_wait_p99 + P99_WAIT_FACTOR * wq + prefill_p99 + kv_p99;

    let tokens_per_gpu_second = capacity_req * l_out / n;
    let delivered = if saturated {
        tokens_per_gpu_second
    } else {
        lambda * l_out / n
    };

    ServingReport {
        mode,
        batch_ceiling: ceiling,
        occupancy,
        prefill_p50,
        prefill_p99,
        decode_step,
        kv_transfer: kv_p50,
        ttft_p50,
        ttft_p99,
        tpot_p50,
        tpot_p99,
        tokens_per_gpu_second,
        delivered_tokens_per_gpu_second: delivered,
        utilization,
        saturated,
    }
}

/// Best-throughput serving assessment: prices every placement mode of
/// the grid and keeps the highest capacity (ties keep the earliest mode,
/// so colocated wins exact ties — it is the simpler deployment).
pub fn assess(e: &Evaluation, s: &ServingCtx) -> ServingReport {
    let mut best: Option<ServingReport> = None;
    for mode in placement_modes(e.config.nd) {
        let r = assess_mode(e, s, mode);
        let better = match &best {
            Some(b) => r.tokens_per_gpu_second > b.tokens_per_gpu_second,
            None => true,
        };
        if better {
            best = Some(r);
        }
    }
    match best {
        Some(r) => r,
        None => dead_report(PdPlacement::Colocated),
    }
}

/// Best-under-SLO serving assessment: like [`assess`] but ranked by
/// [`ServingReport::slo_score`] — the mode that meets the latency
/// targets at the highest capacity, or the nearest-to-compliant mode
/// when none does.
pub fn assess_slo(e: &Evaluation, s: &ServingCtx, slo: &SloSpec) -> ServingReport {
    let mut best: Option<ServingReport> = None;
    for mode in placement_modes(e.config.nd) {
        let r = assess_mode(e, s, mode);
        let better = match &best {
            Some(b) => r.slo_score(slo) > b.slo_score(slo),
            None => true,
        };
        if better {
            best = Some(r);
        }
    }
    match best {
        Some(r) => r,
        None => dead_report(PdPlacement::Colocated),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Planner, TpStrategy};
    use systems::{system, GpuGeneration, NvsSize};
    use txmodel::{gpt3_175b_chat, moe_1t_chat};

    fn chat_setup(tp: u64, np: u64, nd: u64) -> (Evaluation, ServingCtx) {
        let preset = gpt3_175b_chat();
        let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
        let cfg = ParallelConfig::new(TpStrategy::OneD, tp, 1, np, nd, 1);
        let e = Planner::new(&preset.model, &sys)
            .global_batch(1024)
            .evaluate_config(&cfg);
        let s = ServingCtx {
            model: preset.model,
            traffic: preset.traffic,
            system: sys,
        };
        (e, s)
    }

    #[test]
    fn prefill_scales_superlinearly_in_prompt() {
        // tp = 1 keeps prefill compute-bound (no per-layer comm latency
        // floor): 4× the tokens is ≥ ~3× the time, and more than linear
        // per token once attention's quadratic term weighs in.
        let (e, s) = chat_setup(1, 1, 8);
        let short = prefill_time(&s.model, &e.config, &e.placement, &s.system, 512);
        let long = prefill_time(&s.model, &e.config, &e.placement, &s.system, 2048);
        assert!(long > 3.0 * short, "short {short}, long {long}");
        assert!(short > 0.0);
        // Under heavy TP the fixed per-layer latencies flatten the
        // scaling but never invert it.
        let (e8, _) = chat_setup(8, 1, 8);
        let s8 = prefill_time(&s.model, &e8.config, &e8.placement, &s.system, 512);
        let l8 = prefill_time(&s.model, &e8.config, &e8.placement, &s.system, 2048);
        assert!(l8 > 1.9 * s8 && l8 < 4.5 * s8, "tp8 short {s8}, long {l8}");
    }

    #[test]
    fn decode_step_grows_with_batch_and_context() {
        let (e, s) = chat_setup(8, 1, 8);
        let mut cap_model = s.model;
        cap_model.seq_len = 2048;
        let profile = build_profile(
            &cap_model,
            e.config.strategy,
            e.config.n1,
            e.config.n2,
            1,
            e.config.summa_panels,
            e.config.ep,
            &s.system.gpu,
        );
        let t = |b, ctx| {
            decode_step_time(
                &profile,
                &s.model,
                &e.config,
                &e.placement,
                &s.system,
                b,
                ctx,
            )
        };
        assert!(t(64, 1024) > t(1, 1024));
        assert!(t(16, 4096) > t(16, 512));
        // Weight streaming floors the step: even batch 1 pays the shard
        // read, so 64× the batch costs far less than 64× the time —
        // the amortization continuous batching exists to exploit.
        assert!(t(64, 1024) < 8.0 * t(1, 1024));
    }

    #[test]
    fn moe_decode_reads_only_active_experts() {
        // At batch 1 with top-1 routing, a 64-expert layer reads ~1/64th
        // of its expert weights: the decode step must sit far below a
        // hypothetical dense read of the full expert set.
        let preset = moe_1t_chat();
        let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
        let cfg = ParallelConfig::new(TpStrategy::OneD, 8, 1, 4, 16, 1).with_ep(16);
        let e = Planner::new(&preset.model, &sys)
            .global_batch(1024)
            .evaluate_config(&cfg);
        let profile = build_profile(
            &preset.model,
            cfg.strategy,
            cfg.n1,
            cfg.n2,
            1,
            cfg.summa_panels,
            cfg.ep,
            &sys.gpu,
        );
        let t1 = decode_step_time(&profile, &preset.model, &cfg, &e.placement, &sys, 1, 1024);
        let t_dense_floor = (profile.weight_bytes + profile.expert_weight_bytes)
            * (preset.model.depth / cfg.np) as f64
            / sys.gpu.hbm_bandwidth
            * cfg.np as f64;
        assert!(
            t1 < t_dense_floor,
            "sparse decode {t1} must beat the dense-read floor {t_dense_floor}"
        );
    }

    #[test]
    fn colocated_tail_carries_a_prefill_stall() {
        let (e, s) = chat_setup(8, 1, 8);
        let colo = assess_mode(&e, &s, PdPlacement::Colocated);
        assert!(!colo.saturated, "utilization {}", colo.utilization);
        // The tail gap includes a typical prompt's forward pass; the
        // median does not.
        assert!(colo.tpot_p99 >= colo.decode_step + 0.9 * colo.prefill_p50);
        assert!(colo.tpot_p50 < colo.tpot_p99);
        let disagg = assess_mode(
            &e,
            &s,
            PdPlacement::Disaggregated {
                prefill_replicas: 2,
            },
        );
        assert!(!disagg.saturated);
        // Disaggregation cleans the decode tail but pays the KV handoff
        // in TTFT and pool quantization in capacity.
        assert!(disagg.tpot_p99 < colo.tpot_p99);
        assert_eq!(disagg.tpot_p50, disagg.tpot_p99);
        assert!(disagg.kv_transfer > 0.0);
        assert!(colo.tokens_per_gpu_second >= disagg.tokens_per_gpu_second);
    }

    #[test]
    fn assess_picks_throughput_and_slo_picks_latency() {
        let (e, s) = chat_setup(8, 1, 8);
        let thr = assess(&e, &s);
        assert_eq!(thr.mode, PdPlacement::Colocated);
        // A TPOT-tail-tight SLO forces the disaggregated mode.
        let slo = SloSpec {
            ttft_p50: 10.0,
            ttft_p99: 40.0,
            tpot_p50: 0.2,
            tpot_p99: 1.05 * thr.decode_step.max(1e-6),
        };
        let tight = assess_slo(&e, &s, &slo);
        if thr.tpot_p99 > slo.tpot_p99 {
            assert!(matches!(tight.mode, PdPlacement::Disaggregated { .. }));
        }
        // slo_score orders compliant above violating.
        let generous = SloSpec {
            ttft_p50: 1e6,
            ttft_p99: 1e6,
            tpot_p50: 1e6,
            tpot_p99: 1e6,
        };
        assert!(thr.slo_score(&generous) > 0.0);
    }

    #[test]
    fn zero_ceiling_reports_dead() {
        // tp = 1 cannot hold GPT3-175B's 350 GB of FP16 weights at all.
        let (e, s) = chat_setup(1, 1, 8);
        let r = assess_mode(&e, &s, PdPlacement::Colocated);
        assert_eq!(r.batch_ceiling, 0);
        assert!(r.saturated);
        assert_eq!(r.tokens_per_gpu_second, 0.0);
        let slo = SloSpec::interactive();
        assert!(r.slo_score(&slo) < 0.0);
    }

    #[test]
    fn placement_grid_is_deterministic_and_bounded() {
        assert_eq!(placement_modes(1), vec![PdPlacement::Colocated]);
        let m8 = placement_modes(8);
        assert_eq!(m8[0], PdPlacement::Colocated);
        assert!(m8.len() <= 5);
        let m256 = placement_modes(256);
        assert!(m256.iter().all(|m| match m {
            PdPlacement::Colocated => true,
            PdPlacement::Disaggregated { prefill_replicas } =>
                *prefill_replicas >= 1 && *prefill_replicas < 256,
        }));
    }

    #[test]
    fn serving_ctx_survives_json() {
        let preset = gpt3_175b_chat();
        let s = ServingCtx {
            model: preset.model,
            traffic: preset.traffic,
            system: system(GpuGeneration::A100, NvsSize::Nvs8),
        };
        let back: ServingCtx = serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(back, s);
        let slo = SloSpec::interactive();
        let back: SloSpec = serde_json::from_str(&serde_json::to_string(&slo).unwrap()).unwrap();
        assert_eq!(back, slo);
        for mode in placement_modes(16) {
            let back: PdPlacement =
                serde_json::from_str(&serde_json::to_string(&mode).unwrap()).unwrap();
            assert_eq!(back, mode);
        }
    }

    #[test]
    fn reports_are_thread_free_deterministic() {
        let (e, s) = chat_setup(8, 2, 4);
        let a = assess(&e, &s);
        let b = assess(&e, &s);
        assert_eq!(a, b);
        // objective_ctx plumbs the same context the planner will use.
        let planner = Planner::new(&s.model, &s.system)
            .global_batch(1024)
            .serving(s.traffic);
        let ctx = planner.objective_ctx();
        let sc = ctx.serving.expect("serving ctx must be populated");
        assert_eq!(sc.traffic, s.traffic);
        assert_eq!(assess(&e, &sc), a);
    }
}
