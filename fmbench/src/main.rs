//! `fmbench`: the fmperf benchmark.
//!
//! ```text
//! fmbench --workload <plan-warm|codesign-sweep|sim-replay> --seed <n> --seconds <s> --trace <0|1>
//!         [--corrupt] [--write-golden]
//! fmbench --compare <before.jsonl> <after.jsonl> [--bounds BENCHMARK.json]
//! fmbench --study
//! ```
//!
//! `--setup-only` and `--study-cold` are the child-process modes the run
//! and the study start for their cold measurements.
//!
//! A run is a closed loop with one client: each job is sent only after the
//! previous one completed. The last line of standard output is the result
//! object (`correct`, `attempted`, `failed`, `metrics`); the line before
//! it is the full report, stamped with the environment. See
//! METHODOLOGY.md for the workloads, metrics and layer map.

mod compare;
mod jobs;
mod metrics;
mod stats;
mod study;
mod trace;
mod workload;

use metrics::{num, obj, text, LayerTally, Metrics, Window};
use serde_json::Value;
use stats::{fold_digests, median, Rng};
use std::io::Write;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::Trace;
use workload::{Prepared, Workload, DEFAULT_SEED};

/// Samples the untraced window must hold: the fewest for which p99 has
/// ten samples beyond it.
const MIN_SAMPLES: usize = 1000;

/// Set-ups per run (this process plus fresh child processes, each with a
/// cold pricing memo); `setup_s` is their median.
const SETUPS: usize = 3;

/// Widest rayon pool the benchmark uses (the reference box has 2 cores).
const MAX_POOL_WIDTH: usize = 2;

/// Every `CORRUPT_EVERY`-th job has its output damaged under `--corrupt`.
const CORRUPT_EVERY: u64 = 50;

/// Where reports and traces are written.
const RESULTS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/results");

#[derive(Debug, Clone)]
struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    corrupt: bool,
    write_golden: bool,
}

enum Mode {
    Run(RunArgs),
    SetupOnly(RunArgs),
    Compare(String, String, String),
    Study,
    StudyCold,
}

fn usage() -> String {
    "usage: fmbench --workload <plan-warm|codesign-sweep|sim-replay> --seed <n> \
     --seconds <s> --trace <0|1> [--corrupt] [--write-golden]\n\
     \x20      fmbench --compare <before.jsonl> <after.jsonl> [--bounds BENCHMARK.json]\n\
     \x20      fmbench --study"
        .into()
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let (mut corrupt, mut write_golden, mut setup_only) = (false, false, false);
    let (mut study, mut study_cold) = (false, false);
    let mut compare = None;
    let mut bounds = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    let value = |flag: &str, it: &mut std::slice::Iter<String>| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => {
                let w = value(a, &mut it)?;
                workload = Some(Workload::parse(&w).ok_or(format!("unknown workload {w}"))?);
            }
            "--seed" => {
                seed = Some(
                    value(a, &mut it)?
                        .parse::<u64>()
                        .map_err(|e| e.to_string())?,
                )
            }
            "--seconds" => {
                let s = value(a, &mut it)?
                    .parse::<f64>()
                    .map_err(|e| e.to_string())?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value(a, &mut it)?.as_str() {
                    "0" => false,
                    "1" => true,
                    t => return Err(format!("--trace takes 0 or 1, not {t}")),
                })
            }
            "--corrupt" => corrupt = true,
            "--write-golden" => write_golden = true,
            "--setup-only" => setup_only = true,
            "--study" => study = true,
            "--study-cold" => study_cold = true,
            "--compare" => compare = Some((value(a, &mut it)?, value(a, &mut it)?)),
            "--bounds" => bounds = value(a, &mut it)?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some((a, b)) = compare {
        return Ok(Mode::Compare(a, b, bounds));
    }
    if study_cold {
        return Ok(Mode::StudyCold);
    }
    if study {
        return Ok(Mode::Study);
    }
    let run = RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.unwrap_or(10.0),
        traced: traced.unwrap_or(false),
        corrupt,
        write_golden,
    };
    Ok(if setup_only {
        Mode::SetupOnly(run)
    } else {
        Mode::Run(run)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&args) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("fmbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let width = nproc.min(MAX_POOL_WIDTH);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .expect("the pool shim never fails to build");
    let result = pool.install(|| match mode {
        Mode::Run(a) => run(&a, nproc, width),
        Mode::SetupOnly(a) => setup_only(&a),
        Mode::Compare(a, b, bounds) => compare::main(&a, &b, &bounds),
        Mode::Study => study::main(),
        Mode::StudyCold => study::cold_child(),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("fmbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Process user + system CPU seconds, all threads (from `/proc/self/stat`;
/// clock ticks are 1/100 s on Linux).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
    // After the command name: state is field 3, utime 14, stime 15.
    let ticks = |i: usize| {
        fields
            .get(i - 3)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(14) + ticks(15)) / 100.0
}

/// Peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn git_revision() -> String {
    if !Path::new(".git").exists() {
        return "none (not a git checkout)".into();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn environment(a: &RunArgs, nproc: usize, width: usize) -> Value {
    obj([
        ("seed", num(a.seed as f64)),
        ("nproc", num(nproc as f64)),
        ("pool_width", num(width as f64)),
        ("rustc", text(env!("FMBENCH_RUSTC"))),
        ("git_revision", text(git_revision())),
        ("profile", text(env!("FMBENCH_PROFILE"))),
        ("traced", Value::Bool(a.traced)),
        ("load", text("closed loop, 1 client")),
    ])
}

/// `--setup-only`: one set-up in this (fresh) process; prints its time and
/// the fold of its reference digests.
fn setup_only(a: &RunArgs) -> Result<bool, String> {
    let t0 = Instant::now();
    let p = workload::prepare(a.workload, a.seed);
    let setup_s = t0.elapsed().as_secs_f64();
    let digest = fold_digests(p.setup_digests.iter().map(|d| d.1));
    println!(
        "{}",
        obj([
            ("setup_s", num(setup_s)),
            ("digest", text(format!("{digest:016x}"))),
        ])
    );
    Ok(true)
}

/// Runs a set-up in a fresh child process: `(seconds, digest)`.
fn child_setup(a: &RunArgs) -> Result<(f64, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args([
            "--setup-only",
            "--workload",
            a.workload.name(),
            "--seed",
            &a.seed.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    if !out.status.success() {
        return Err(format!("set-up child exited with {}", out.status));
    }
    let line = String::from_utf8_lossy(&out.stdout);
    let v: Value = serde_json::from_str(line.trim()).map_err(|e| e.to_string())?;
    let secs = compare::field(&v, "setup_s")
        .and_then(Value::as_f64)
        .ok_or("child reported no setup_s")?;
    let Some(Value::String(digest)) = compare::field(&v, "digest") else {
        return Err("child reported no digest".into());
    };
    let digest = digest.clone();
    Ok((secs, digest))
}

fn golden_path(w: Workload) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{}.txt", w.name()))
}

fn golden(w: Workload) -> &'static str {
    match w {
        Workload::PlanWarm => include_str!("../golden/plan-warm.txt"),
        Workload::CodesignSweep => include_str!("../golden/codesign-sweep.txt"),
        Workload::SimReplay => include_str!("../golden/sim-replay.txt"),
    }
}

fn golden_lines(digests: &[(String, u64)]) -> String {
    digests
        .iter()
        .map(|(label, d)| format!("{d:016x} {label}\n"))
        .collect()
}

/// Mismatches between `digests` and the committed golden digests.
fn golden_mismatches(w: Workload, digests: &[(String, u64)]) -> u64 {
    let expected: Vec<&str> = golden(w).lines().collect();
    let actual = golden_lines(digests);
    let actual: Vec<&str> = actual.lines().collect();
    if expected.len() != actual.len() {
        eprintln!(
            "fmbench: golden digests for {} list {} outputs, this run {}",
            w.name(),
            expected.len(),
            actual.len()
        );
        return expected.len().max(actual.len()) as u64;
    }
    let bad = expected.iter().zip(&actual).filter(|(e, a)| e != a);
    bad.inspect(|(e, a)| eprintln!("fmbench: golden mismatch: expected {e}, got {a}"))
        .count() as u64
}

/// One measured run's outcome.
struct Measured {
    window: Window,
    /// Untraced and traced round wall times (trace mode alternates).
    plain_round_s: Vec<f64>,
    traced_round_s: Vec<f64>,
    trace: Trace,
    /// Per-layer tallies of each traced round.
    round_tallies: Vec<LayerTally>,
    /// `(job index, output digest)` of stream jobs awaiting their check.
    unchecked: Vec<(usize, u64)>,
}

/// The closed loop: rounds of jobs until the window has run `seconds` and
/// holds [`MIN_SAMPLES`] untraced samples. In trace mode rounds alternate
/// untraced and traced, so both see the same job mix.
fn measure(p: &mut Prepared, a: &RunArgs) -> Measured {
    let mut order = Rng::fork(a.seed, "order");
    let mut m = Measured {
        window: Window {
            jobs: 0,
            failed: 0,
            attempted: 0,
            wall_s: 0.0,
            cpu_s: 0.0,
            latencies_ms: Vec::new(),
            setup_s: 0.0,
            peak_rss_mb: 0.0,
        },
        plain_round_s: Vec::new(),
        traced_round_s: Vec::new(),
        trace: Trace::new(false),
        round_tallies: Vec::new(),
        unchecked: Vec::new(),
    };
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let mut id = 0u64;
    for round in 0.. {
        let elapsed = t0.elapsed().as_secs_f64();
        // Only the untraced window reports latency percentiles.
        let enough =
            elapsed >= a.seconds && (a.traced || m.window.latencies_ms.len() >= MIN_SAMPLES);
        let balanced = !a.traced || m.traced_round_s.len() >= m.plain_round_s.len().max(2);
        if (enough && balanced) || elapsed >= 3.0 * a.seconds + 30.0 {
            break;
        }
        let traced = a.traced && round % 2 == 1;
        m.trace.set_enabled(traced);
        let mut round_tally = LayerTally::default();
        let idx = p.round(round, &mut order);
        let r0 = Instant::now();
        for i in idx {
            id += 1;
            let job = &p.jobs[i];
            let before = traced.then(perfmodel::search_stats);
            let j0 = Instant::now();
            let out = jobs::run(
                job,
                id,
                &mut m.trace,
                a.corrupt && id.is_multiple_of(CORRUPT_EVERY),
            );
            let dt = j0.elapsed().as_secs_f64();
            m.window.attempted += 1;
            let ok = match (&out, p.refs[i]) {
                (Ok(o), Some(r)) => o.digest == r,
                (Ok(o), None) if p.stream_seed.is_some() => {
                    m.unchecked.push((i, o.digest));
                    true
                }
                // A distinct job whose set-up reference failed.
                (Ok(_), None) => false,
                (Err(e), _) => {
                    eprintln!("fmbench: job {} failed: {e}", job.label);
                    false
                }
            };
            m.window.failed += u64::from(!ok);
            if let (Some(before), Ok(o)) = (before, &out) {
                let delta = metrics::stats_delta(&perfmodel::search_stats(), &before);
                let is_plan = matches!(job.kind, jobs::Kind::Plan(_));
                let is_net = matches!(job.kind, jobs::Kind::Net(_));
                round_tally.add(is_plan, is_net, delta, o.counts);
            }
            if !traced {
                m.window.jobs += 1;
                m.window.latencies_ms.push(dt * 1e3);
            }
        }
        let round_s = r0.elapsed().as_secs_f64();
        if traced {
            m.traced_round_s.push(round_s);
            m.round_tallies.push(round_tally);
        } else {
            m.plain_round_s.push(round_s);
        }
    }
    m.window.wall_s = m.plain_round_s.iter().sum();
    m.window.cpu_s = cpu_seconds() - cpu0;
    m.window.peak_rss_mb = peak_rss_mb();
    m
}

/// Checks stream jobs against a pruning-off run of the same job, after
/// the window (each stream job's system is new when it is measured).
fn check_stream(p: &Prepared, unchecked: &[(usize, u64)]) -> (u64, Vec<(String, u64)>) {
    let mut trace = Trace::new(false);
    let mut failed = 0;
    let mut refs = Vec::new();
    let first_round = workload::codesign_round_len();
    for &(i, digest) in unchecked {
        let job = &p.jobs[i];
        let jobs::Kind::Plan(plan) = &job.kind else {
            continue;
        };
        match jobs::plan(&jobs::unpruned(plan), 0, &mut trace, None) {
            Ok((json, _)) => {
                let r = stats::fnv64(json.as_bytes());
                failed += u64::from(r != digest);
                if i < first_round {
                    refs.push((job.label.clone(), r));
                }
            }
            Err(e) => {
                eprintln!("fmbench: reference for {} failed: {e}", job.label);
                failed += 1;
            }
        }
    }
    (failed, refs)
}

/// Per-layer count metrics with their spread over traced rounds: exact
/// when every round reads the same.
fn count_spread(rounds: &[LayerTally]) -> Value {
    let per_round: Vec<Metrics> = rounds.iter().map(LayerTally::counts).collect();
    let Some(first) = per_round.first() else {
        return Value::Null;
    };
    obj(first.0.iter().map(|&(name, _, unit)| {
        let vals: Vec<f64> = per_round.iter().filter_map(|m| m.get(name)).collect();
        let lo = vals.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = vals.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (
            name,
            obj([
                ("unit", text(unit)),
                ("exact", Value::Bool(lo == hi)),
                ("min", num(lo)),
                ("max", num(hi)),
                ("rounds", num(vals.len() as f64)),
            ]),
        )
    }))
}

fn write_results(name: &str, contents: &str, append: bool) {
    let dir = Path::new(RESULTS_DIR);
    let res = std::fs::create_dir_all(dir).and_then(|_| {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(append)
            .write(true)
            .truncate(!append)
            .open(dir.join(name))?;
        f.write_all(contents.as_bytes())?;
        f.flush()
    });
    if let Err(e) = res {
        eprintln!("fmbench: could not write {RESULTS_DIR}/{name}: {e}");
    }
}

fn run(a: &RunArgs, nproc: usize, width: usize) -> Result<bool, String> {
    // Child set-ups first, while this process is still small and idle.
    let mut setups = Vec::new();
    let mut digests_seen = Vec::new();
    if !a.traced && !a.write_golden {
        for _ in 1..SETUPS {
            let (secs, digest) = child_setup(a)?;
            setups.push(secs);
            digests_seen.push(digest);
        }
    }
    let t0 = Instant::now();
    let mut p = workload::prepare(a.workload, a.seed);
    setups.push(t0.elapsed().as_secs_f64());
    let own = format!("{:016x}", fold_digests(p.setup_digests.iter().map(|d| d.1)));
    let mut failed = p.setup_failures;
    let mut attempted = p.setup_checks;
    let diverged = digests_seen.iter().filter(|d| **d != own).count() as u64;
    if diverged > 0 {
        eprintln!("fmbench: {diverged} set-up process(es) computed different references");
    }
    failed += diverged;
    attempted += digests_seen.len() as u64;

    let mut m = measure(&mut p, a);
    let (stream_failed, stream_refs) = check_stream(&p, &m.unchecked);
    m.window.failed += stream_failed + failed;
    m.window.attempted += attempted;
    m.window.setup_s = median(&setups);

    let mut golden_digests = p.setup_digests.clone();
    golden_digests.extend(stream_refs);
    if a.write_golden {
        if a.seed != DEFAULT_SEED {
            return Err(format!(
                "--write-golden needs the default seed {DEFAULT_SEED}"
            ));
        }
        std::fs::write(golden_path(a.workload), golden_lines(&golden_digests))
            .map_err(|e| e.to_string())?;
        eprintln!("fmbench: wrote {}", golden_path(a.workload).display());
    } else if a.seed == DEFAULT_SEED {
        let bad = golden_mismatches(a.workload, &golden_digests);
        m.window.failed += bad;
        m.window.attempted += golden_digests.len() as u64;
    }

    let correct = m.window.failed == 0;
    let env = environment(a, nproc, width);
    let mut report = vec![
        ("workload", text(a.workload.name())),
        ("environment", env),
        ("correct", Value::Bool(correct)),
        ("attempted", num(m.window.attempted as f64)),
        ("failed", num(m.window.failed as f64)),
        (
            "setup_runs_s",
            Value::Array(setups.iter().map(|&s| num(s)).collect()),
        ),
    ];
    let metrics = if a.traced {
        let plain: f64 = m.plain_round_s.iter().take(m.traced_round_s.len()).sum();
        let traced: f64 = m.traced_round_s.iter().take(m.plain_round_s.len()).sum();
        let overhead = if plain > 0.0 { traced / plain } else { 0.0 };
        let mut tally = LayerTally::default();
        m.round_tallies.iter().for_each(|t| tally.merge(t));
        let per_layer = metrics::per_layer(&tally, &m.trace, overhead);
        let unaccounted = metrics::unaccounted_ratio(&m.trace);
        report.push(("traced_jobs", num(tally.jobs as f64)));
        report.push(("traced_rounds", num(m.traced_round_s.len() as f64)));
        report.push(("count_spread", count_spread(&m.round_tallies)));
        report.push((
            "reconciliation",
            obj([
                ("unaccounted_ratio", num(unaccounted)),
                ("band", num(metrics::RECONCILE_BAND)),
                (
                    "within_band",
                    Value::Bool(unaccounted <= metrics::RECONCILE_BAND),
                ),
            ]),
        ));
        let trace_file = format!("trace-{}-seed{}.json", a.workload.name(), a.seed);
        write_results(&trace_file, &m.trace.to_chrome_json(), false);
        report.push(("trace_file", text(format!("{RESULTS_DIR}/{trace_file}"))));
        per_layer
    } else {
        let e2e = metrics::end_to_end(&m.window)?;
        report.push(("samples", num(m.window.latencies_ms.len() as f64)));
        report.push(("all_metrics", e2e.to_json()));
        // `failed_ratio` is 0 on a correct run, so it is reported here and
        // through `failed`, not among the gated metrics.
        Metrics(
            e2e.0
                .into_iter()
                .filter(|m| m.0 != "failed_ratio")
                .collect(),
        )
    };
    report.push(("metrics", metrics.to_json()));
    let report = obj(report);
    write_results(
        &format!("{}.jsonl", a.workload.name()),
        &format!("{report}\n"),
        true,
    );
    println!("{report}");
    println!(
        "{}",
        obj([
            ("correct", Value::Bool(correct)),
            ("attempted", num(m.window.attempted as f64)),
            ("failed", num(m.window.failed as f64)),
            ("metrics", metrics.to_json()),
        ])
    );
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use collectives::{Collective, CommGroup};
    use jobs::{Job, Kind, NetJob};
    use std::sync::Arc;

    /// A one-job workload: a tree AllReduce small enough for debug builds.
    fn tiny() -> Prepared {
        let job = Job {
            label: "tree AllReduce n=8".into(),
            kind: Kind::Net(NetJob {
                collective: Collective::AllReduce,
                volume: 1e6,
                group: CommGroup::new(8, 8),
                system: Arc::new(systems::system(
                    systems::GpuGeneration::B200,
                    systems::NvsSize::Nvs8,
                )),
                opts: netsim::SimOptions {
                    algorithm: collectives::Algorithm::Tree,
                    ..Default::default()
                },
            }),
        };
        let reference = jobs::run(&job, 0, &mut Trace::new(false), false)
            .unwrap()
            .digest;
        Prepared {
            jobs: vec![job],
            refs: vec![Some(reference)],
            stream_seed: None,
            setup_digests: Vec::new(),
            setup_checks: 0,
            setup_failures: 0,
        }
    }

    fn args(corrupt: bool) -> RunArgs {
        RunArgs {
            workload: Workload::SimReplay,
            seed: 1,
            seconds: 0.01,
            traced: false,
            corrupt,
            write_golden: false,
        }
    }

    #[test]
    fn injected_mismatch_raises_failed_ratio() {
        let clean = measure(&mut tiny(), &args(false));
        assert_eq!(clean.window.failed, 0);
        let ratio = |w: &Window| metrics::end_to_end(w).unwrap().get("failed_ratio").unwrap();
        assert_eq!(ratio(&clean.window), 0.0);
        let damaged = measure(&mut tiny(), &args(true));
        assert!(damaged.window.failed > 0);
        assert!((ratio(&damaged.window) - 1.0 / CORRUPT_EVERY as f64).abs() < 0.01);
    }

    #[test]
    fn arguments_are_checked() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        assert!(parse("--workload plan-warm --seed 1 --seconds 10 --trace 0").is_ok());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload plan-warm --trace 2").is_err());
        assert!(parse("--workload plan-warm --seconds -1").is_err());
        assert!(parse("--seed 1").is_err());
    }
}
