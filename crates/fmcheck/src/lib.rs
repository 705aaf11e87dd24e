//! fmcheck: **fmsched**, the workspace's concurrency model checker. It
//! proves the search stack's *race-freedom* claim: the lock-free fast
//! paths cannot lose or corrupt results under any interleaving, so the
//! artifacts stay bit-identical at any thread count.
//!
//! A miniature loom/shuttle-style model checker: protocol models of the
//! real concurrent code (the L2 memo shard insert race, the
//! branch-and-bound CAS incumbent loop, the rayon-pool chunk claim)
//! explored under an exhaustive DFS scheduler with a seeded random-walk
//! fallback, asserting schedule-independence of every result. See
//! [`sched`] for the explorer and the "writing a new model" guide, and
//! [`models`] for the protocols and their regression twins.
//!
//! Run it the way CI does:
//!
//! ```text
//! cargo test -p fmcheck -q
//! ```
//!
//! The source-hygiene rules (no panics in library code, no hash-order
//! iteration, no wall-clock or environment reads) are enforced natively
//! by clippy and rustc: see the root `clippy.toml` and CI's clippy job.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod models;
pub mod sched;
