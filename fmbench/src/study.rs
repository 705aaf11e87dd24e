//! `--study`: re-measures two published performance findings with the
//! benchmark's own percentile rules (METHODOLOGY.md records the results).
//!
//! 1. MoE-1T top-8 + Pareto at 1024 B200s: pruned vs pruning-off, warm,
//!    in alternating pairs.
//! 2. GPT3-1T SUMMA at 16384 B200s, `best_evaluation`: cold (a fresh
//!    process per sample, so the pricing memo is empty) vs warm.

use crate::stats::{median, quartiles};
use perfmodel::{Objective, Planner, TpStrategy};
use std::process::{Command, Stdio};
use std::time::Instant;
use systems::{system, GpuGeneration, NvsSize};
use txmodel::{gpt3_1t, moe_1t};

const PAIRS: usize = 21;
const COLD_PROCESSES: usize = 7;

fn summa_best_ms() -> f64 {
    let model = gpt3_1t().config;
    let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
    let planner = Planner::new(&model, &sys)
        .gpus(16384)
        .global_batch(4096)
        .strategy(TpStrategy::Summa);
    let t = Instant::now();
    let best = planner.best_evaluation();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    assert!(best.is_some(), "SUMMA-16384 has a feasible optimum");
    ms
}

/// `--study-cold`: one cold `best_evaluation` in this fresh process.
pub fn cold_child() -> Result<bool, String> {
    println!("{}", summa_best_ms());
    Ok(true)
}

fn summary(label: &str, ms: &[f64]) {
    let [q1, med, q3] = quartiles(ms).unwrap_or([median(ms); 3]);
    println!(
        "{label:<44} median {med:>8.3} ms  [q1 {q1:.3}, q3 {q3:.3}]  n={}",
        ms.len()
    );
}

pub fn main() -> Result<bool, String> {
    let model = moe_1t().config;
    let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
    let planner = |pruned: bool| {
        Planner::new(&model, &sys)
            .gpus(1024)
            .global_batch(4096)
            .strategy(TpStrategy::OneD)
            .top_k(8)
            .pareto([Objective::IterationTime, Objective::HbmHeadroom])
            .branch_and_bound(pruned)
            .prune_dominated(pruned)
    };
    let (pruned, unpruned) = (planner(true), planner(false));
    if pruned.execute() != unpruned.execute() {
        return Err("MoE-1T pruned and pruning-off plans differ".into());
    }
    let time = |p: &Planner| {
        let t = Instant::now();
        std::hint::black_box(p.execute());
        t.elapsed().as_secs_f64() * 1e3
    };
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for i in 0..PAIRS {
        // Alternate which leg runs first.
        if i % 2 == 0 {
            a.push(time(&pruned));
            b.push(time(&unpruned));
        } else {
            b.push(time(&unpruned));
            a.push(time(&pruned));
        }
    }
    let wins = a.iter().zip(&b).filter(|(x, y)| x < y).count();
    summary("MoE-1T n=1024 top-8+Pareto, pruned, warm", &a);
    summary("MoE-1T n=1024 top-8+Pareto, pruning off, warm", &b);
    println!("pruned faster in {wins} of {PAIRS} pairs");

    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cold = Vec::new();
    for _ in 0..COLD_PROCESSES {
        let out = Command::new(&exe)
            .arg("--study-cold")
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| e.to_string())?;
        let ms = String::from_utf8_lossy(&out.stdout)
            .trim()
            .parse::<f64>()
            .map_err(|e| format!("cold child: {e}"))?;
        cold.push(ms);
    }
    summa_best_ms();
    let warm: Vec<f64> = (0..PAIRS).map(|_| summa_best_ms()).collect();
    summary("SUMMA-16384 best_evaluation, cold process", &cold);
    summary("SUMMA-16384 best_evaluation, warm", &warm);
    println!("cold / warm median: {:.2}x", median(&cold) / median(&warm));
    Ok(true)
}
