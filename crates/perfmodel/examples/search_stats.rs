//! Profiling counters on the heaviest search in the bench suite: the
//! SUMMA sweep of GPT3-1T on 16384 GPUs (`gpt_summa_n16384` in
//! `out/bench.json`).
//!
//! Runs the pruned `Planner::best_evaluation` search and the unpruned
//! full sweep back-to-back and prints per-phase wall clock next to the
//! [`perfmodel::search_stats`] deltas: memo hits split by level
//! (thread-local L1 vs the process-wide shared table), profile rebuild
//! counts and time, and how many candidates the ranked branch-and-bound
//! skipped — by its seeded tail cut (`bound_pruned`) and by its
//! per-candidate prune (`topk_pruned`). See `PERFORMANCE.md` for how
//! these numbers feed the perf methodology.
//!
//! ```text
//! cargo run --release -p perfmodel --example search_stats
//! ```

#![allow(
    clippy::disallowed_methods,
    reason = "a timing harness: it prints per-phase wall clock"
)]

use perfmodel::{reset_search_stats, search_stats, Planner, TpStrategy};
use std::time::Instant;
use systems::{system, GpuGeneration, NvsSize};
use txmodel::gpt3_1t;

fn main() {
    let model = gpt3_1t().config;
    let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
    let planner = Planner::new(&model, &sys)
        .gpus(16384)
        .global_batch(4096)
        .strategy(TpStrategy::Summa);

    let t0 = Instant::now();
    let parts = planner.candidates();
    println!(
        "enumerate:      {:>7} candidates in {:.2?}",
        parts.len(),
        t0.elapsed()
    );

    // Pruned single-optimum search (the ranked engine at top-1).
    reset_search_stats();
    let t0 = Instant::now();
    let best = planner
        .best_evaluation()
        .expect("a feasible SUMMA config exists");
    let dt = t0.elapsed();
    let s = search_stats();
    println!(
        "best_evaluation: {dt:.2?} (best iteration {:.4} s)",
        best.iteration_time
    );
    println!(
        "  profiles:     {} built in {:.2?}",
        s.profile_builds,
        std::time::Duration::from_nanos(s.profile_build_nanos)
    );
    println!(
        "  memo:         {} local hits, {} shared hits, {} misses",
        s.memo_local_hits, s.memo_shared_hits, s.memo_misses
    );
    println!(
        "  pruned:       {} by the tail cut, {} per candidate",
        s.bound_pruned, s.topk_pruned
    );

    // Unpruned full sweep (what every candidate costs).
    reset_search_stats();
    let t0 = Instant::now();
    let evals = planner.evaluations();
    let dt = t0.elapsed();
    let s = search_stats();
    println!("full sweep:     {dt:.2?} ({} feasible evaluations)", {
        evals.iter().filter(|e| e.feasible).count()
    });
    println!(
        "  memo:         {} local hits, {} shared hits, {} misses",
        s.memo_local_hits, s.memo_shared_hits, s.memo_misses
    );
}
