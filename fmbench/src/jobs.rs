//! The jobs a workload sends, and how one job is run against the public
//! API. Each job returns a digest of its output; the runner compares it
//! with the job's reference.

use crate::stats::fnv64;
use crate::trace::{SpanId, Trace};
use collectives::{Collective, CommGroup};
use perfmodel::{ParallelConfig, Placement, Planner, PlannerConfig};
use std::sync::Arc;
use systems::SystemSpec;
use trainsim::{FaultPlan, TrainingParams};
use txmodel::TransformerConfig;

/// A planning request: a `PlannerConfig` as JSON text, planned for one
/// model on one system.
#[derive(Debug, Clone)]
pub struct PlanJob {
    pub model: TransformerConfig,
    pub system: Arc<SystemSpec>,
    pub config_json: String,
}

#[derive(Debug, Clone)]
pub struct NetJob {
    pub collective: Collective,
    pub volume: f64,
    pub group: CommGroup,
    pub system: Arc<SystemSpec>,
    pub opts: netsim::SimOptions,
}

/// One pinned training configuration, replayed by `trainsim`.
#[derive(Debug, Clone)]
pub struct TrainSetup {
    pub model: TransformerConfig,
    pub config: ParallelConfig,
    pub placement: Placement,
    pub global_batch: u64,
    pub system: Arc<SystemSpec>,
}

#[derive(Debug, Clone)]
pub enum Kind {
    Plan(PlanJob),
    Net(NetJob),
    Iteration(TrainSetup, trainsim::SimParams),
    Training(TrainSetup, FaultPlan, TrainingParams),
    Serve(servesim::SimSpec, servesim::SimParams),
}

#[derive(Debug, Clone)]
pub struct Job {
    /// Human-readable identity, unique within a workload's distinct jobs.
    pub label: String,
    pub kind: Kind,
}

/// Exact work counts one job reports (zero where a layer did not run).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub candidates: u64,
    pub feasible: u64,
    pub transfers: u64,
    pub requeues: u64,
    pub items: u64,
    pub requests: u64,
}

#[derive(Debug, Clone)]
pub struct Outcome {
    pub digest: u64,
    pub counts: Counts,
}

/// Span names, one per layer boundary the benchmark times.
pub mod span {
    pub const JOB: &str = "job";
    pub const PARSE: &str = "planner.parse";
    pub const ENUMERATE: &str = "partition.enumerate";
    pub const EXECUTE: &str = "planner.execute";
    pub const PROFILE_BUILD: &str = "partition.profile_build";
    pub const EMIT: &str = "planner.emit";
    pub const NETSIM: &str = "netsim.simulate_collective";
    pub const ITERATION: &str = "trainsim.simulate_iteration";
    pub const TRAINING: &str = "trainsim.simulate_training";
    pub const SERVE: &str = "servesim.simulate_serving";
}

/// The same job with both exact prunes switched off: the reference whose
/// output the pruned run must reproduce bit for bit.
pub fn unpruned(job: &PlanJob) -> PlanJob {
    let mut cfg: PlannerConfig =
        serde_json::from_str(&job.config_json).expect("benchmark-generated config parses");
    cfg.space.branch_and_bound = false;
    cfg.space.prune_dominated = false;
    PlanJob {
        config_json: serde_json::to_string(&cfg).expect("config serializes"),
        ..job.clone()
    }
}

/// Runs one plan job and returns the emitted `PlanSet` JSON.
pub fn plan(
    job: &PlanJob,
    id: u64,
    trace: &mut Trace,
    parent: SpanId,
) -> Result<(String, Counts), String> {
    let s = trace.begin(id, span::PARSE, parent);
    let cfg: PlannerConfig = serde_json::from_str(&job.config_json).map_err(|e| e.to_string())?;
    let planner = Planner::from_config(&job.model, &job.system, cfg);
    trace.end(s);
    let mut counts = Counts::default();
    if trace.enabled() {
        // The enumeration `execute` runs internally, timed on its own.
        let s = trace.begin(id, span::ENUMERATE, parent);
        counts.candidates = planner.candidates().len() as u64;
        trace.end(s);
    }
    let before = trace.enabled().then(perfmodel::search_stats);
    let s = trace.begin(id, span::EXECUTE, parent);
    let plans = planner.try_execute().map_err(|e| e.to_string())?;
    trace.end(s);
    if let Some(before) = before {
        let built = perfmodel::search_stats().profile_build_nanos - before.profile_build_nanos;
        trace.synthetic(id, span::PROFILE_BUILD, s, built);
    }
    counts.feasible = plans.feasible;
    let s = trace.begin(id, span::EMIT, parent);
    let json = serde_json::to_string(&plans).map_err(|e| e.to_string())?;
    trace.end(s);
    Ok((json, counts))
}

/// Runs `job` under a `job` span and digests its output. Typed errors
/// and panics both come back as `Err`.
pub fn run(job: &Job, id: u64, trace: &mut Trace, corrupt: bool) -> Result<Outcome, String> {
    let root = trace.begin(id, span::JOB, None);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_kind(&job.kind, id, trace, root)
    }));
    trace.end(root);
    let (mut bytes, counts) = result.map_err(|_| format!("{}: panicked", job.label))??;
    if corrupt {
        // Deliberate output damage, to prove the checks catch it.
        if let Some(b) = bytes.last_mut() {
            *b ^= 1;
        }
    }
    Ok(Outcome {
        digest: fnv64(&bytes),
        counts,
    })
}

fn run_kind(
    kind: &Kind,
    id: u64,
    trace: &mut Trace,
    root: SpanId,
) -> Result<(Vec<u8>, Counts), String> {
    let mut counts = Counts::default();
    let bytes = match kind {
        Kind::Plan(p) => {
            let (json, c) = plan(p, id, trace, root)?;
            counts = c;
            json.into_bytes()
        }
        Kind::Net(n) => {
            let s = trace.begin(id, span::NETSIM, root);
            let r =
                netsim::simulate_collective(n.collective, n.volume, n.group, &n.system, &n.opts);
            trace.end(s);
            counts.transfers = r.stats.transfers;
            counts.requeues = r.stats.requeues;
            format!("{r:?}").into_bytes()
        }
        Kind::Iteration(t, params) => {
            let s = trace.begin(id, span::ITERATION, root);
            let r = trainsim::simulate_iteration(
                &t.model,
                &t.config,
                &t.placement,
                t.global_batch,
                &t.system,
                params,
            );
            trace.end(s);
            let r = r.map_err(|e| e.to_string())?;
            counts.items = r.items_executed;
            format!("{r:?}").into_bytes()
        }
        Kind::Training(t, faults, params) => {
            let s = trace.begin(id, span::TRAINING, root);
            let r = trainsim::simulate_training(
                &t.model,
                &t.config,
                &t.placement,
                t.global_batch,
                &t.system,
                faults,
                params,
            );
            trace.end(s);
            format!("{:?}", r.map_err(|e| e.to_string())?).into_bytes()
        }
        Kind::Serve(spec, params) => {
            let s = trace.begin(id, span::SERVE, root);
            let r = servesim::simulate_serving(spec, params);
            trace.end(s);
            counts.requests = r.completed;
            format!("{r:?}").into_bytes()
        }
    };
    Ok((bytes, counts))
}
