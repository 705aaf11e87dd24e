//! Profile memoization across partition candidates (the search's S1 → S2
//! hand-off).
//!
//! A [`crate::plan::LayerProfile`] depends only on the TP tuple
//! `(strategy, n1, n2, microbatch, summa_panels)` for a fixed model and
//! GPU — not on `np`, `nd`, interleaving, ZeRO-3 or the NVS placement. The
//! brute-force search therefore shares one profile across the whole
//! `(np, nd, interleave, zero3, placement)` inner space instead of
//! rebuilding it per candidate.
//!
//! # Cache-key invariants
//!
//! * `summa_panels` only reaches [`build_profile`] under
//!   [`TpStrategy::Summa`]; keys normalize it to 1 for the other
//!   strategies so aliases cannot produce duplicate cache entries.
//! * `n2` is 1 for [`TpStrategy::OneD`] (enforced by
//!   [`crate::ParallelConfig::validate`]); it is kept in the key verbatim.
//! * The cache is built **once**, before the parallel fan-out, and is
//!   read-only afterwards — lookups are lock-free `HashMap` reads shared
//!   across worker threads.

#![expect(
    clippy::disallowed_types,
    reason = "these maps and sets are only probed, never iterated, so their order cannot reach a result"
)]

use super::build_profile;
use crate::config::{ParallelConfig, TpStrategy};
use crate::evaluate::PassFingerprints;
use crate::plan::LayerProfile;
use rayon::prelude::*;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{LazyLock, RwLock};
use systems::{GpuSpec, NetworkSpec, SystemSpec};
use txmodel::TransformerConfig;

/// The exact subset of [`ParallelConfig`] a layer profile depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProfileKey {
    /// Tensor-parallel strategy (1D / 2D SUMMA).
    pub strategy: TpStrategy,
    /// First tensor-parallel mesh dimension.
    pub n1: u64,
    /// Second tensor-parallel mesh dimension.
    pub n2: u64,
    /// Microbatch size the profile was built for.
    pub microbatch: u64,
    /// Normalized to 1 unless `strategy == TpStrategy::Summa`.
    pub summa_panels: u64,
    /// Expert-parallel degree (1 for dense models, enforced by
    /// [`crate::ParallelConfig::validate`]; MoE profiles depend on it via
    /// the AllToAll volumes and the local-expert shard).
    pub ep: u64,
}

impl ProfileKey {
    /// Canonical key of a configuration (see the module-level invariants).
    pub fn of(cfg: &ParallelConfig) -> Self {
        Self {
            strategy: cfg.strategy,
            n1: cfg.n1,
            n2: cfg.n2,
            microbatch: cfg.microbatch,
            summa_panels: if cfg.strategy == TpStrategy::Summa {
                cfg.summa_panels
            } else {
                1
            },
            ep: cfg.ep,
        }
    }
}

/// Build-once, read-many store of layer profiles for one `(model, gpu)`.
///
/// Each profile is stored together with its precomputed
/// `PassFingerprints` (the FNV folds of its forward/backward pattern
/// lists), so the search's per-placement pass-level memo probes never
/// re-hash the pattern lists.
pub struct ProfileCache {
    map: HashMap<ProfileKey, (LayerProfile, PassFingerprints)>,
}

impl ProfileCache {
    /// Builds the profile for every distinct key among `cfgs`, fanning the
    /// (placement-independent) constructions out over the rayon pool.
    /// Build count and wall-clock feed the [`SearchStats`] profiling
    /// counters.
    pub fn build(model: &TransformerConfig, gpu: &GpuSpec, cfgs: &[ParallelConfig]) -> Self {
        #[expect(
            clippy::disallowed_methods,
            reason = "profiling counter: the build time feeds SearchStats, never a result"
        )]
        let start = std::time::Instant::now();
        let mut seen = HashSet::new();
        let keys: Vec<ProfileKey> = cfgs
            .iter()
            .map(ProfileKey::of)
            .filter(|k| seen.insert(*k))
            .collect();
        let profiles: Vec<(LayerProfile, PassFingerprints)> = keys
            .par_iter()
            .map(|k| {
                let profile = build_profile(
                    model,
                    k.strategy,
                    k.n1,
                    k.n2,
                    k.microbatch,
                    k.summa_panels,
                    k.ep,
                    gpu,
                );
                let fps = PassFingerprints::of(&profile);
                (profile, fps)
            })
            .collect();
        PROFILE_BUILDS.fetch_add(keys.len() as u64, Ordering::Relaxed);
        PROFILE_BUILD_NANOS.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        Self {
            map: keys.into_iter().zip(profiles).collect(),
        }
    }

    /// The profile shared by every candidate with `cfg`'s TP tuple.
    ///
    /// Panics if `cfg` was not part of the slice the cache was built from
    /// (a caller bug: the cache is keyed per enumeration, not global).
    pub fn get(&self, cfg: &ParallelConfig) -> &LayerProfile {
        &self.get_with_fps(cfg).0
    }

    /// [`ProfileCache::get`] plus the profile's precomputed pass
    /// fingerprints (the search's hot path — hashing the pattern lists
    /// once per *profile* instead of once per candidate).
    #[expect(
        clippy::panic,
        reason = "documented API contract: the cache is built from the same enumeration the caller iterates"
    )]
    pub(crate) fn get_with_fps(&self, cfg: &ParallelConfig) -> &(LayerProfile, PassFingerprints) {
        self.map
            .get(&ProfileKey::of(cfg))
            .unwrap_or_else(|| panic!("no cached profile for {cfg}"))
    }

    /// Number of distinct profiles held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no profiles are held.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Pass-sum memoization (per-placement pricing hot path)
// ---------------------------------------------------------------------------
//
// `evaluate`'s per-placement pricing sums the exposed time of every
// communication pattern in a layer pass, and the search repeats that sum
// for every `(np, nd, interleave, placement)` candidate sharing a TP
// tuple. The memo below caches those per-pass sums in **one level**: a
// process-global, 64-way-sharded `RwLock` map shared by every worker. A
// probe is one read lock on one shard; only a genuine first compute
// takes that shard's write lock, and the compute itself runs outside any
// lock.
//
// # Key scheme
//
// Keys are FNV-1a folds ([`fnv`]) over a domain tag byte plus every input
// the priced value depends on. There are two kinds (see
// `crate::evaluate`):
//
// * `0x50` — pass-level sum: `(pass fingerprint, algo, n1, n2, ep,
//   placement projection, system fingerprint)`;
// * `0x4C` — pass-level lower bound: `(pass fingerprint, algo, n1, n2,
//   ep, domain budget, system fingerprint)`.
//
// The system fingerprint ([`system_fingerprint`]) folds every network
// parameter a collective time reads, so one process can price many
// systems against one shared memo.
//
// Individual collectives (AllReduce, AllToAll, the SUMMA panel schedule)
// are closed-form and priced directly rather than memoized. A per-kind
// probe census (fmbench, seed 42, 5 s runs) showed why: on `plan-warm`
// the two pass kinds took 2.18M and 3.96M probes against 0.24M for the
// three per-collective kinds together, and on `codesign-sweep` the SUMMA
// kind alone made 3.85M of 5.66M inserts at a 44% hit ratio — memory
// spent on entries that rarely paid back a probe.
//
// There is no thread-local level in front of the table. The pool spawns
// fresh scoped workers on every parallel call, so a per-thread cache
// started empty in every worker, and its counters only reached
// `search_stats` when the thread exited. The price is a dearer hit: a
// shard read lock plus a counter increment, ~34 ns single-threaded
// against ~10 ns for a thread-local hit (2-core container, release).
//
// # Sharing lifecycle and determinism
//
// The memo is append-only for the process lifetime (entries are never
// evicted or mutated — `f64` values are pure functions of their key,
// ~16 bytes each). Two workers racing on the same first compute insert
// **bit-identical** values, so last-write-wins is harmless; hits return
// exactly the bits the first compute produced. Memoization therefore
// never changes results — only speed — and the search stays bit-identical
// across thread counts.

/// Profiling counters for the S3 search hot path (process-global).
///
/// Returned by [`search_stats`]; reset with [`reset_search_stats`].
/// Every counter is an atomic updated at the event, so a snapshot from
/// any thread counts every probe and prune that has completed anywhere.
/// Note the counters are global: concurrent searches (e.g. parallel
/// `cargo test` threads) add to the same tallies, so tests should assert
/// on deltas, not absolute values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Always 0: the pricing memo has one level, and every hit is counted
    /// in `memo_shared_hits`. The field is kept so the struct keeps its
    /// shape for code that builds it by literal.
    pub memo_local_hits: u64,
    /// Pricing-memo probes answered from the shared table.
    pub memo_shared_hits: u64,
    /// Probes that computed (and published) a new value.
    pub memo_misses: u64,
    /// Layer profiles constructed by [`ProfileCache::build`].
    pub profile_builds: u64,
    /// Wall-clock nanoseconds spent inside [`ProfileCache::build`].
    pub profile_build_nanos: u64,
    /// Candidates skipped by the incumbent test: the ranked search's
    /// single-axis tail cut, which drops every candidate whose bound
    /// exceeds the seeded k-th-best threshold before the parallel pass.
    pub bound_pruned: u64,
    /// Always 0: nothing eliminates candidates as dominated before the
    /// ranked search any more. The field is kept so the struct keeps its
    /// shape for code that builds it by literal and for the
    /// `search.dominated_pruned_per_job` benchmark metric.
    pub dominated_pruned: u64,
    /// Candidates skipped by the ranked search's per-candidate prune
    /// (k-th-incumbent test *and* Pareto lower-bound domination both
    /// fired).
    pub topk_pruned: u64,
}

static PROFILE_BUILDS: AtomicU64 = AtomicU64::new(0);
static PROFILE_BUILD_NANOS: AtomicU64 = AtomicU64::new(0);
static BOUND_PRUNED: AtomicU64 = AtomicU64::new(0);
static TOPK_PRUNED: AtomicU64 = AtomicU64::new(0);

/// A snapshot of the global [`SearchStats`] counters.
pub fn search_stats() -> SearchStats {
    let (hits, misses) = SHARED_MEMO.iter().fold((0, 0), |(h, m), shard| {
        (
            h + shard.hits.load(Ordering::Relaxed),
            m + shard.misses.load(Ordering::Relaxed),
        )
    });
    SearchStats {
        memo_local_hits: 0,
        memo_shared_hits: hits,
        memo_misses: misses,
        profile_builds: PROFILE_BUILDS.load(Ordering::Relaxed),
        profile_build_nanos: PROFILE_BUILD_NANOS.load(Ordering::Relaxed),
        bound_pruned: BOUND_PRUNED.load(Ordering::Relaxed),
        dominated_pruned: 0,
        topk_pruned: TOPK_PRUNED.load(Ordering::Relaxed),
    }
}

/// Zeroes the global [`SearchStats`] counters (call between searches).
pub fn reset_search_stats() {
    let memo = SHARED_MEMO
        .iter()
        .flat_map(|shard| [&shard.hits, &shard.misses]);
    for g in memo.chain([
        &PROFILE_BUILDS,
        &PROFILE_BUILD_NANOS,
        &BOUND_PRUNED,
        &TOPK_PRUNED,
    ]) {
        g.store(0, Ordering::Relaxed);
    }
}

/// Credits `n` incumbent-test (tail-cut) prunes to the profiling counters.
pub(crate) fn note_bound_pruned(n: u64) {
    if n > 0 {
        BOUND_PRUNED.fetch_add(n, Ordering::Relaxed);
    }
}

/// Credits `n` per-candidate ranked prunes (top-k + Pareto) to the
/// profiling counters.
pub(crate) fn note_topk_pruned(n: u64) {
    if n > 0 {
        TOPK_PRUNED.fetch_add(n, Ordering::Relaxed);
    }
}

/// FNV-1a-style fold of a sequence of `u64` words into one key. Folding
/// whole words (one xor + one widening multiply each) keeps the fold far
/// cheaper than the collective-time computation it guards; the FNV prime
/// diffuses every input word across the key, so distinct pricing tuples
/// collide with negligible (~2⁻⁶⁴ pairwise) probability.
pub(crate) fn fnv(parts: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in parts {
        h = (h ^ p).wrapping_mul(0x0000_0100_0000_01b3);
        h ^= h >> 29;
    }
    h
}

/// Fingerprint of every [`SystemSpec`] field a collective time depends on.
///
/// Both structs are destructured exhaustively, so a new field fails to
/// compile here until it is either folded in or named as ignored. The
/// ignored ones never reach a memoized price: pricing does not read
/// `name` or `reliability`, and GPU-derived inputs (such as SUMMA panel
/// compute) reach it only through the pattern list, which the pass
/// fingerprint folds.
pub(crate) fn system_fingerprint(sys: &SystemSpec) -> u64 {
    let SystemSpec {
        name: _,
        gpu: _,
        network,
        nvs_size,
        nics_per_node,
        reliability: _,
    } = sys;
    let NetworkSpec {
        nvs_bandwidth,
        nvs_latency,
        ib_bandwidth,
        ib_latency,
        bandwidth_efficiency,
    } = network;
    fnv([
        nvs_bandwidth.to_bits(),
        nvs_latency.to_bits(),
        ib_bandwidth.to_bits(),
        ib_latency.to_bits(),
        bandwidth_efficiency.to_bits(),
        *nvs_size,
        *nics_per_node,
    ])
}

/// Pass-through hasher: the key is already an FNV fold.
#[derive(Default)]
pub(crate) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("KeyHasher only hashes u64 keys");
    }
    fn write_u64(&mut self, i: u64) {
        self.0 = i;
    }
}

type MemoMap = HashMap<u64, f64, BuildHasherDefault<KeyHasher>>;

/// Number of memo shards. A power of two; the shard index is the key's
/// top bits ([`shard_of`]), which are independent of the low bits
/// `HashMap`'s pass-through [`KeyHasher`] buckets by — so sharding does
/// not skew the in-shard bucket distribution.
const MEMO_SHARDS: usize = 64;

/// One shard of the pricing memo and its probe counters.
struct MemoShard {
    map: RwLock<MemoMap>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// The shared, sharded pricing memo (see the section comment above for
/// the sharing lifecycle). Sharding keeps write locks from serializing
/// concurrent first computes; reads take a shard's `RwLock` read lock,
/// which is uncontended once the table is warm.
static SHARED_MEMO: LazyLock<Vec<MemoShard>> = LazyLock::new(|| {
    (0..MEMO_SHARDS)
        .map(|_| MemoShard {
            map: RwLock::new(HashMap::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
        .collect()
});

#[inline]
fn shard_of(key: u64) -> &'static MemoShard {
    &SHARED_MEMO[(key >> (64 - MEMO_SHARDS.trailing_zeros())) as usize]
}

/// Returns the memoized value for `key`, computing (and publishing) it on
/// the first request anywhere in the process. The value must be a pure
/// function of the key: racing first computes then insert bit-identical
/// values, keeping results independent of thread count.
pub(crate) fn memo_f64(key: u64, compute: impl FnOnce() -> f64) -> f64 {
    let shard = shard_of(key);
    // Poison-tolerant: a panicked holder can at worst have skipped an
    // insert of a pure value — the map is never torn, so continuing with
    // the inner guard is sound (and keeps one worker's panic from
    // cascading into every other search thread).
    let cached = shard
        .map
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .get(&key)
        .copied();
    if let Some(v) = cached {
        shard.hits.fetch_add(1, Ordering::Relaxed);
        return v;
    }
    // Compute outside any lock: pricing can be expensive and must not
    // serialize other shard traffic (duplicate computes are rare and
    // harmless — identical bits).
    let v = compute();
    shard.misses.fetch_add(1, Ordering::Relaxed);
    shard
        .map
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .insert(key, v);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use systems::GpuGeneration;
    use txmodel::gpt3_1t;

    fn cfg(strategy: TpStrategy, n1: u64, n2: u64, np: u64, nd: u64, bm: u64) -> ParallelConfig {
        ParallelConfig::new(strategy, n1, n2, np, nd, bm)
    }

    #[test]
    fn cache_holds_one_profile_per_key() {
        let model = gpt3_1t().config;
        let gpu = GpuGeneration::B200.gpu();
        // Three configs, two distinct TP tuples.
        let cfgs = [
            cfg(TpStrategy::OneD, 8, 1, 64, 32, 1),
            cfg(TpStrategy::OneD, 8, 1, 32, 64, 1),
            cfg(TpStrategy::OneD, 16, 1, 64, 16, 1),
        ];
        let cache = ProfileCache::build(&model, &gpu, &cfgs);
        assert_eq!(cache.len(), 2);
        assert!(!cache.is_empty());
        // Shared profiles are bit-identical to direct construction.
        for c in &cfgs {
            let direct = build_profile(
                &model,
                c.strategy,
                c.n1,
                c.n2,
                c.microbatch,
                c.summa_panels,
                c.ep,
                &gpu,
            );
            assert_eq!(cache.get(c), &direct);
        }
    }

    #[test]
    fn summa_panels_are_normalized_for_non_summa() {
        let a = ProfileKey::of(&ParallelConfig {
            summa_panels: 8,
            ..cfg(TpStrategy::TwoD, 4, 4, 8, 16, 1)
        });
        let b = ProfileKey::of(&cfg(TpStrategy::TwoD, 4, 4, 8, 16, 1));
        assert_eq!(a, b);
        // But SUMMA keys keep the panel count.
        let s8 = ProfileKey::of(&ParallelConfig {
            summa_panels: 8,
            ..cfg(TpStrategy::Summa, 4, 4, 8, 16, 1)
        });
        let s1 = ProfileKey::of(&cfg(TpStrategy::Summa, 4, 4, 8, 16, 1));
        assert_ne!(s8, s1);
    }

    #[test]
    fn memo_returns_cached_value_and_computes_once() {
        let key = fnv([0xdead, 0xbeef, 42]);
        let mut calls = 0;
        let a = memo_f64(key, || {
            calls += 1;
            1.25
        });
        let b = memo_f64(key, || {
            calls += 1;
            f64::NAN // must not be recomputed
        });
        assert_eq!(a, 1.25);
        assert_eq!(b, 1.25);
        assert_eq!(calls, 1);
    }

    #[test]
    fn shared_memo_publishes_across_threads() {
        // A value computed on one thread must be visible to a brand-new
        // thread through the shared table — the property that stops the
        // pool's fresh scoped workers from re-pricing the same passes per
        // worker.
        let key = fnv([0x7e57, line!() as u64, 0x5eed]);
        let before = search_stats();
        assert_eq!(memo_f64(key, || 2.5), 2.5);
        let v = std::thread::spawn(move || memo_f64(key, || f64::NAN))
            .join()
            .unwrap();
        assert_eq!(v, 2.5);
        // Counters are global (other tests may run concurrently): assert
        // deltas, not absolute values.
        let after = search_stats();
        assert!(after.memo_misses > before.memo_misses);
        assert!(after.memo_shared_hits > before.memo_shared_hits);
    }

    #[test]
    fn probes_are_counted_while_the_probing_thread_lives() {
        // The counters live beside the shards, not in the prober's thread:
        // a probe is visible to every other thread as soon as it returns,
        // even while the probing thread is still alive.
        let key = fnv([0xc0c0, line!() as u64]);
        let before = search_stats();
        let (probed_tx, probed_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let worker = std::thread::spawn(move || {
            let v = memo_f64(key, || 3.5);
            probed_tx.send(v).unwrap();
            release_rx.recv().unwrap();
        });
        assert_eq!(probed_rx.recv().unwrap(), 3.5);
        let after = search_stats();
        release_tx.send(()).unwrap();
        worker.join().unwrap();
        assert!(after.memo_misses > before.memo_misses);
    }

    #[test]
    fn profile_builds_are_counted_and_timed() {
        let model = gpt3_1t().config;
        let gpu = GpuGeneration::B200.gpu();
        let before = search_stats();
        let cache = ProfileCache::build(&model, &gpu, &[cfg(TpStrategy::OneD, 8, 1, 64, 32, 1)]);
        let after = search_stats();
        assert_eq!(cache.len(), 1);
        assert!(after.profile_builds > before.profile_builds);
        assert!(after.profile_build_nanos > before.profile_build_nanos);
    }

    #[test]
    fn system_fingerprint_separates_systems() {
        use systems::{system, NvsSize, ReliabilitySpec};
        let a = system(GpuGeneration::A100, NvsSize::Nvs4);
        let b = system(GpuGeneration::B200, NvsSize::Nvs8);
        assert_ne!(system_fingerprint(&a), system_fingerprint(&b));
        assert_eq!(system_fingerprint(&a), system_fingerprint(&a.clone()));
        // Every folded field separates systems; the ignored ones do not.
        type Perturb = fn(&mut SystemSpec);
        let folded: [(&str, Perturb); 7] = [
            ("nvs_bandwidth", |s| s.network.nvs_bandwidth *= 2.0),
            ("nvs_latency", |s| s.network.nvs_latency *= 2.0),
            ("ib_bandwidth", |s| s.network.ib_bandwidth *= 2.0),
            ("ib_latency", |s| s.network.ib_latency *= 2.0),
            ("bandwidth_efficiency", |s| {
                s.network.bandwidth_efficiency *= 0.5
            }),
            ("nvs_size", |s| s.nvs_size *= 2),
            ("nics_per_node", |s| s.nics_per_node += 1),
        ];
        let ignored: [(&str, Perturb); 2] = [
            ("name", |s| s.name.push_str("-renamed")),
            ("reliability", |s| {
                s.reliability = ReliabilitySpec::failure_free()
            }),
        ];
        for (field, perturb) in folded {
            let mut p = a.clone();
            perturb(&mut p);
            assert_ne!(system_fingerprint(&a), system_fingerprint(&p), "{field}");
        }
        for (field, perturb) in ignored {
            let mut p = a.clone();
            perturb(&mut p);
            assert_ne!(a, p, "{field} perturbation must change the system");
            assert_eq!(system_fingerprint(&a), system_fingerprint(&p), "{field}");
        }
    }

    #[test]
    #[should_panic(expected = "no cached profile")]
    fn lookup_outside_build_set_panics() {
        let model = gpt3_1t().config;
        let gpu = GpuGeneration::B200.gpu();
        let cache = ProfileCache::build(&model, &gpu, &[cfg(TpStrategy::OneD, 8, 1, 64, 32, 1)]);
        let _ = cache.get(&cfg(TpStrategy::OneD, 4, 1, 64, 64, 1));
    }
}
