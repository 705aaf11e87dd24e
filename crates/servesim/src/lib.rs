//! Deterministic discrete-event inference-serving simulator.
//!
//! `perfmodel::serving` prices TTFT/TPOT/throughput with closed-form
//! queueing approximations (Little's-law occupancy, Pollaczek–Khinchine
//! waits, exponential tails). This crate replays the *same* per-phase
//! step times — prefill latencies, per-batch decode step times and KV
//! handoff costs all taken verbatim from the analytic model via
//! [`perfmodel::serving::decode_step_table`] — through an explicit
//! continuous-batching scheduler over a seeded Poisson arrival trace, so
//! any divergence between the two is purely *emergent queueing behavior*:
//! admission waits, prefill stalls landing inside decode gaps, batch
//! occupancy ramping, pool imbalance. The validation suite pins how far
//! the closed forms drift (documented tolerance bands, the same
//! cross-validation discipline `trainsim` applies to the training model).
//!
//! # Scheduler semantics
//!
//! * **Arrivals** are Poisson at the traffic's request rate; prompt and
//!   output lengths draw from the shared two-point
//!   [`txmodel::LengthMix`] inverse CDF, so the simulator samples
//!   *exactly* the distribution the analytic model integrates over.
//! * **Admission** happens at decode-step boundaries while the resident
//!   batch is under the ceiling (scheduler `max_batch` ∧ KV capacity).
//!   A request's full KV budget (prompt + maximum output) is reserved at
//!   admission — the vLLM-style conservative reservation — so *eviction
//!   never triggers*: the ceiling already accounts for the worst resident
//!   footprint, and the simulator checks rather than handles overflow.
//! * **Colocated** replicas interleave: an admission runs the prompt's
//!   whole prefill inline, stalling every resident sequence (the gap
//!   those sequences record is exactly the tail the disaggregated
//!   placement exists to remove). Requests round-robin over replicas by
//!   arrival index.
//! * **Disaggregated** placements run `k` prefill-only servers as an
//!   FCFS multi-server queue (earliest-free server wins, ties to the
//!   lowest index), charge the KV handoff after prefill, then hand the
//!   sequence to a decode replica (round-robin) whose step loop never
//!   runs a prefill — decode gaps stay clean.
//! * **TTFT** is arrival → prefill completion (+ KV handoff when
//!   disaggregated); **TPOT** gaps are measured per resident sequence
//!   between consecutive decode-step completions.
//!
//! Single-threaded and seeded throughout: reports are bit-identical
//! across runs and trivially invariant to the host's thread count.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use perfmodel::serving::{decode_step_table, kv_transfer_time, prefill_time, PdPlacement};
use perfmodel::{Evaluation, ServingCtx};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use txmodel::InferenceConfig;

/// Why a plan cannot be simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SimError {
    /// The weights alone overflow HBM — no decode batch fits at all.
    Infeasible,
    /// A disaggregated split with no prefill or no decode replicas.
    BadSplit,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Infeasible => write!(f, "no decode batch fits in HBM"),
            SimError::BadSplit => write!(f, "disaggregated split needs both pools non-empty"),
        }
    }
}

impl std::error::Error for SimError {}

/// Everything the simulator needs, fully serialized: the traffic, the
/// replica pools, and the per-phase service times priced by the analytic
/// model. Build from a planned candidate via [`SimSpec::from_plan`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimSpec {
    /// The offered traffic (arrival rate, length mixes, batch ceiling).
    pub traffic: InferenceConfig,
    /// Model replicas (`nd` of the planned configuration).
    pub replicas: u64,
    /// Total GPUs of the deployment, for per-GPU throughput reporting.
    pub gpus: u64,
    /// The prefill/decode placement being simulated.
    pub mode: PdPlacement,
    /// Effective per-replica batch ceiling (scheduler ∧ KV capacity).
    pub batch_ceiling: u64,
    /// Decode step time at batch `b` = `decode_steps[b − 1]`, seconds —
    /// the analytic model's exact per-batch pricing at the mean context.
    pub decode_steps: Vec<f64>,
    /// Prefill latency of a typical prompt, seconds.
    pub prefill_typical: f64,
    /// Prefill latency of a long-tail prompt, seconds.
    pub prefill_long: f64,
    /// KV handoff time for a typical prompt (0 when colocated), seconds.
    pub kv_transfer_typical: f64,
    /// KV handoff time for a long-tail prompt (0 when colocated), seconds.
    pub kv_transfer_long: f64,
}

impl SimSpec {
    /// Prices one planned candidate's serving phases into a simulatable
    /// spec: ceiling and per-batch decode table from
    /// [`decode_step_table`], prefill and KV-handoff latencies from the
    /// analytic phase models, pools split per `mode`.
    pub fn from_plan(e: &Evaluation, s: &ServingCtx, mode: PdPlacement) -> Result<Self, SimError> {
        if let PdPlacement::Disaggregated { prefill_replicas } = mode {
            if prefill_replicas == 0 || prefill_replicas >= e.config.nd {
                return Err(SimError::BadSplit);
            }
        }
        let (ceiling, table) = decode_step_table(e, s);
        if ceiling == 0 {
            return Err(SimError::Infeasible);
        }
        let cfg = &e.config;
        let colocated = matches!(mode, PdPlacement::Colocated);
        let (kv_typ, kv_long) = if colocated {
            (0.0, 0.0)
        } else {
            (
                kv_transfer_time(&s.model, cfg, &s.system, s.traffic.prompt.p50()),
                kv_transfer_time(&s.model, cfg, &s.system, s.traffic.prompt.p99()),
            )
        };
        Ok(SimSpec {
            traffic: s.traffic,
            replicas: cfg.nd,
            gpus: cfg.total_gpus(),
            mode,
            batch_ceiling: ceiling,
            decode_steps: table,
            prefill_typical: prefill_time(
                &s.model,
                cfg,
                &e.placement,
                &s.system,
                s.traffic.prompt.p50(),
            ),
            prefill_long: prefill_time(
                &s.model,
                cfg,
                &e.placement,
                &s.system,
                s.traffic.prompt.p99(),
            ),
            kv_transfer_typical: kv_typ,
            kv_transfer_long: kv_long,
        })
    }

    /// Prefill latency for a request of `prompt` tokens (two-point mix:
    /// anything past the typical length prices as the long prompt).
    fn prefill_of(&self, prompt: u64) -> f64 {
        if prompt <= self.traffic.prompt.p50() {
            self.prefill_typical
        } else {
            self.prefill_long
        }
    }

    /// KV handoff for a request of `prompt` tokens (0 when colocated).
    fn kv_of(&self, prompt: u64) -> f64 {
        if prompt <= self.traffic.prompt.p50() {
            self.kv_transfer_typical
        } else {
            self.kv_transfer_long
        }
    }

    /// Decode step time at `batch` resident sequences (clamped to the
    /// table — admission never exceeds the ceiling, so the clamp is a
    /// belt against an empty-batch call, not a policy).
    fn step(&self, batch: usize) -> f64 {
        let idx = batch.max(1).min(self.decode_steps.len()) - 1;
        self.decode_steps[idx]
    }
}

/// Simulation controls: the seed and the trace length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimParams {
    /// RNG seed (runs are deterministic given the seed).
    pub seed: u64,
    /// Requests in the arrival trace.
    pub requests: u64,
}

impl Default for SimParams {
    fn default() -> Self {
        Self {
            seed: 42,
            requests: 2000,
        }
    }
}

/// Measured serving behavior over one simulated trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Requests fully served (always the whole trace — the simulator
    /// drains its queues).
    pub completed: u64,
    /// First arrival → last token, seconds.
    pub makespan: f64,
    /// Output tokens per GPU-second actually delivered over the trace.
    pub delivered_tokens_per_gpu_second: f64,
    /// Median measured time-to-first-token, seconds.
    pub ttft_p50: f64,
    /// p99 measured time-to-first-token, seconds.
    pub ttft_p99: f64,
    /// Median measured inter-token gap, seconds.
    pub tpot_p50: f64,
    /// p99 measured inter-token gap, seconds.
    pub tpot_p99: f64,
    /// Time-weighted mean resident decode batch across busy replicas.
    pub mean_occupancy: f64,
}

/// One request of the arrival trace.
#[derive(Debug, Clone, Copy)]
struct Request {
    arrival: f64,
    prompt: u64,
    output: u64,
}

/// A sequence resident in a decode batch.
#[derive(Debug, Clone, Copy)]
struct Resident {
    remaining: u64,
    last_token: f64,
}

/// Latency samples and occupancy integrals accumulated by the engines.
#[derive(Debug, Default)]
struct Tally {
    ttfts: Vec<f64>,
    gaps: Vec<f64>,
    tokens: u64,
    occupancy_time: f64,
    busy_time: f64,
    last_finish: f64,
}

/// Sorted-sample quantile (nearest-rank; NaN-free inputs by
/// construction). Empty samples report 0 — a trace with no tokens has
/// no latency to speak of.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Generates the seeded Poisson arrival trace with two-point length
/// draws — the exact distribution the analytic model integrates over.
fn arrival_trace(traffic: &InferenceConfig, params: &SimParams) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let lambda = traffic.request_rate();
    let mut t = 0.0;
    let mut out = Vec::with_capacity(params.requests as usize);
    for _ in 0..params.requests {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / lambda;
        out.push(Request {
            arrival: t,
            prompt: traffic.prompt.sample(rng.gen()),
            output: traffic.output.sample(rng.gen()),
        });
    }
    out
}

/// Runs one decode replica's step loop over its assigned requests.
/// `inline_prefill` is the colocated discipline: admissions run the
/// prompt's prefill on the replica's own timeline (stalling residents);
/// disaggregated decode admits instantaneously (prefill already happened
/// in the prefill pool — `ready` times carry it).
fn run_decode_replica(
    spec: &SimSpec,
    queue: &[(f64 /* ready */, Request)],
    inline_prefill: bool,
    tally: &mut Tally,
) {
    let ceiling = spec.batch_ceiling as usize;
    let mut residents: Vec<Resident> = Vec::new();
    let mut next = 0usize;
    let mut t = match queue.first() {
        Some((ready, _)) => *ready,
        None => return,
    };
    while next < queue.len() || !residents.is_empty() {
        // Idle replica: jump to the next arrival.
        if residents.is_empty() && next < queue.len() && queue[next].0 > t {
            t = queue[next].0;
        }
        // Admit at the step boundary while there is room. Inline
        // prefill advances the clock, which can make further queued
        // requests eligible — the loop re-tests against the moved `t`.
        while next < queue.len() && residents.len() < ceiling && queue[next].0 <= t {
            let (ready, req) = queue[next];
            next += 1;
            if inline_prefill {
                t += spec.prefill_of(req.prompt);
                tally.ttfts.push(t - req.arrival);
            } else {
                tally.ttfts.push(ready - req.arrival);
            }
            residents.push(Resident {
                remaining: req.output,
                last_token: if inline_prefill { t } else { ready.max(t) },
            });
        }
        if residents.is_empty() {
            continue;
        }
        // One decode step at the current batch.
        let b = residents.len();
        let dt = spec.step(b);
        t += dt;
        tally.occupancy_time += b as f64 * dt;
        tally.busy_time += dt;
        tally.tokens += b as u64;
        for r in &mut residents {
            tally.gaps.push(t - r.last_token);
            r.last_token = t;
            r.remaining -= 1;
        }
        residents.retain(|r| r.remaining > 0);
    }
    if t > tally.last_finish {
        tally.last_finish = t;
    }
}

/// FCFS multi-server prefill pool: each request takes the earliest-free
/// server (ties to the lowest index) and becomes decode-ready after its
/// prefill plus the KV handoff. Returns `(ready, request)` in arrival
/// order.
fn run_prefill_pool(spec: &SimSpec, servers: usize, trace: &[Request]) -> Vec<(f64, Request)> {
    let mut free_at = vec![0.0f64; servers];
    trace
        .iter()
        .map(|req| {
            let mut srv = 0usize;
            for i in 1..servers {
                if free_at[i] < free_at[srv] {
                    srv = i;
                }
            }
            let start = if req.arrival > free_at[srv] {
                req.arrival
            } else {
                free_at[srv]
            };
            let done = start + spec.prefill_of(req.prompt);
            free_at[srv] = done;
            (done + spec.kv_of(req.prompt), *req)
        })
        .collect()
}

/// Simulates the spec's placement over a seeded arrival trace and
/// reports measured throughput and latency percentiles. Deterministic:
/// same spec + params → bit-identical report, on any thread count.
pub fn simulate_serving(spec: &SimSpec, params: &SimParams) -> SimReport {
    let trace = arrival_trace(&spec.traffic, params);
    let mut tally = Tally::default();

    match spec.mode {
        PdPlacement::Colocated => {
            let replicas = spec.replicas.max(1) as usize;
            for r in 0..replicas {
                let queue: Vec<(f64, Request)> = trace
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % replicas == r)
                    .map(|(_, req)| (req.arrival, *req))
                    .collect();
                run_decode_replica(spec, &queue, true, &mut tally);
            }
        }
        PdPlacement::Disaggregated { prefill_replicas } => {
            let ready = run_prefill_pool(spec, prefill_replicas.max(1) as usize, &trace);
            let decoders = (spec.replicas - prefill_replicas).max(1) as usize;
            for r in 0..decoders {
                let mut queue: Vec<(f64, Request)> = ready
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % decoders == r)
                    .map(|(_, rr)| *rr)
                    .collect();
                // FCFS per decode replica: admit in readiness order.
                queue.sort_by(|a, b| a.0.total_cmp(&b.0));
                run_decode_replica(spec, &queue, false, &mut tally);
            }
        }
    }

    let first_arrival = match trace.first() {
        Some(r) => r.arrival,
        None => 0.0,
    };
    let makespan = (tally.last_finish - first_arrival).max(f64::MIN_POSITIVE);
    tally.ttfts.sort_by(f64::total_cmp);
    tally.gaps.sort_by(f64::total_cmp);
    SimReport {
        completed: trace.len() as u64,
        makespan,
        delivered_tokens_per_gpu_second: tally.tokens as f64 / makespan / spec.gpus as f64,
        ttft_p50: percentile(&tally.ttfts, 0.50),
        ttft_p99: percentile(&tally.ttfts, 0.99),
        tpot_p50: percentile(&tally.gaps, 0.50),
        tpot_p99: percentile(&tally.gaps, 0.99),
        mean_occupancy: if tally.busy_time > 0.0 {
            tally.occupancy_time / tally.busy_time
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perfmodel::{ParallelConfig, Planner, TpStrategy};
    use systems::{system, GpuGeneration, NvsSize};
    use txmodel::gpt3_175b_chat;

    fn spec(mode: PdPlacement) -> SimSpec {
        let preset = gpt3_175b_chat();
        let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
        let cfg = ParallelConfig::new(TpStrategy::OneD, 8, 1, 1, 8, 1);
        let e = Planner::new(&preset.model, &sys)
            .global_batch(1024)
            .evaluate_config(&cfg);
        let s = ServingCtx {
            model: preset.model,
            traffic: preset.traffic,
            system: sys,
        };
        SimSpec::from_plan(&e, &s, mode).expect("plan must be simulatable")
    }

    #[test]
    fn colocated_run_is_deterministic_and_complete() {
        let spec = spec(PdPlacement::Colocated);
        let params = SimParams {
            seed: 7,
            requests: 500,
        };
        let a = simulate_serving(&spec, &params);
        let b = simulate_serving(&spec, &params);
        assert_eq!(a, b);
        assert_eq!(a.completed, 500);
        assert!(a.tpot_p99 >= a.tpot_p50);
        assert!(a.ttft_p99 >= a.ttft_p50);
        assert!(a.delivered_tokens_per_gpu_second > 0.0);
        assert!(a.mean_occupancy >= 1.0);
        // A different seed yields a different trace (and report).
        let c = simulate_serving(
            &spec,
            &SimParams {
                seed: 8,
                requests: 500,
            },
        );
        assert_ne!(a, c);
    }

    #[test]
    fn disaggregated_decode_gaps_are_clean() {
        let colo = simulate_serving(&spec(PdPlacement::Colocated), &SimParams::default());
        let disagg = simulate_serving(
            &spec(PdPlacement::Disaggregated {
                prefill_replicas: 2,
            }),
            &SimParams::default(),
        );
        // No prefill ever lands inside a disaggregated decode gap, so
        // the measured p99 gap sits far below the colocated one (which
        // carries whole prompts' forward passes).
        assert!(disagg.tpot_p99 < colo.tpot_p99);
        // The colocated tail really does carry prefill stalls.
        let s = spec(PdPlacement::Colocated);
        assert!(colo.tpot_p99 > s.prefill_typical);
    }

    #[test]
    fn bad_splits_and_infeasible_plans_are_typed_errors() {
        let preset = gpt3_175b_chat();
        let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
        let s = ServingCtx {
            model: preset.model,
            traffic: preset.traffic,
            system: sys.clone(),
        };
        let cfg = ParallelConfig::new(TpStrategy::OneD, 8, 1, 1, 8, 1);
        let e = Planner::new(&preset.model, &sys)
            .global_batch(1024)
            .evaluate_config(&cfg);
        assert_eq!(
            SimSpec::from_plan(
                &e,
                &s,
                PdPlacement::Disaggregated {
                    prefill_replicas: 8
                }
            ),
            Err(SimError::BadSplit)
        );
        // tp = 1 cannot hold the weights at all.
        let cfg1 = ParallelConfig::new(TpStrategy::OneD, 1, 1, 1, 8, 1);
        let e1 = Planner::new(&preset.model, &sys)
            .global_batch(1024)
            .evaluate_config(&cfg1);
        assert_eq!(
            SimSpec::from_plan(&e1, &s, PdPlacement::Colocated),
            Err(SimError::Infeasible)
        );
    }

    #[test]
    fn spec_and_report_survive_json() {
        let spec = spec(PdPlacement::Colocated);
        let back: SimSpec = serde_json::from_str(&serde_json::to_string(&spec).unwrap()).unwrap();
        assert_eq!(back, spec);
        let report = simulate_serving(&spec, &SimParams::default());
        let back: SimReport =
            serde_json::from_str(&serde_json::to_string(&report).unwrap()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.50), 2.0);
        assert_eq!(percentile(&v, 0.99), 4.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
