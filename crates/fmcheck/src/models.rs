//! fmsched models of the four real concurrency protocols on the search
//! hot path, each with a *regression twin* re-introducing a historical
//! (or representative) bug so the checker's teeth are themselves tested.
//!
//! | Model | Real code | Claim |
//! |-------|-----------|-------|
//! | [`ShardedMemo`] | `perfmodel::partition::cache::memo_f64` (shard insert race of the one-level pricing memo) | racing first-computes of a *pure* function publish bit-identical values; no lost insert; every caller returns the same bits |
//! | [`CasIncumbent`] | `perfmodel::ord::publish_min` (the `AtomicU64` CAS loop lowering `TopkIncumbent`'s threshold and best-key cells) | incumbent is monotone non-increasing and ends at the sequential minimum on every schedule; admissible-bound pruning never loses the optimum |
//! | [`TopkIncumbent`] | `perfmodel::ord::TopkIncumbent` (ranked-path k-th-best threshold: mutex k-set + CAS-published threshold, relaxed readers) | threshold is monotone non-increasing, never below the true k-th-best key, and ends at the k-th-best published key; k-th-incumbent pruning never drops a true top-k candidate |
//! | [`ChunkClaim`] | `vendor/rayon` chunk claim/steal (`fetch_add` self-scheduling) | every chunk is claimed exactly once, all slots are filled, and the reassembled output is input-ordered regardless of interleaving |
//! | [`BatchAdmit`] | `servesim` decode-batch admission (ceiling-gated slot claim) | the resident batch never exceeds the ceiling, free slots never go negative, and every request is admitted exactly once |
//!
//! The twins (`impure_compute`, `torn_store`, `torn_publish`,
//! `split_claim`, `split_admit`) correspond to the pre-PR-6 duplicate
//! profile build (which was only harmless because the build is pure —
//! the twin shows exactly why purity is load-bearing), a
//! store-instead-of-CAS incumbent that can move *backwards*, a k-th-best
//! threshold published outside the k-set lock with a blind store (a
//! stale maximum raises the threshold), a read-then-write chunk claim
//! that double-processes chunks, and a check-then-claim batch admission
//! that over-admits past the KV-derived ceiling. The regression tests in
//! `tests/sched_protocols.rs` assert [`crate::sched::explore`] finds
//! each of them.

use crate::sched::Model;

/// The pure value `compute` publishes (arbitrary; only identity
/// matters).
const PURE_VALUE: u64 = 0x1234_5678;

// ---------------------------------------------------------------------------
// Sharded pricing memo: racing first-computes
// ---------------------------------------------------------------------------

/// Per-thread program counter for [`ShardedMemo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemoPc {
    /// Probe the shared shard under the read lock (one atomic step).
    Probe,
    /// Compute the value outside any lock.
    Compute,
    /// Insert under the write lock (last-write-wins, one atomic step).
    Insert,
    /// Finished; `ret` holds the value returned to the caller.
    Done,
}

/// Model of `memo_f64`'s shared-table protocol for one key on one shard:
/// probe under the read lock; on miss, compute outside any lock, then
/// insert under the write lock (last write wins). Mirrors
/// `crates/perfmodel/src/partition/cache.rs`.
///
/// The interesting schedules are the ones where several threads miss the
/// probe *before* any insert lands: all of them compute and all of them
/// insert. The protocol is correct anyway — but only because the
/// computed value is a pure function of the key. Setting
/// `impure_compute` makes the value thread-dependent (the shape a
/// non-deterministic profile build would have) and the checker finds
/// schedules where callers observe different bits.
#[derive(Debug, Clone)]
pub struct ShardedMemo {
    /// Regression twin: computed value depends on the thread id.
    pub impure_compute: bool,
    threads: usize,
    /// The shard's entry for the key (`None` = absent).
    shared: Option<u64>,
    /// Entry was published at some point (append-only check).
    published: bool,
    pc: Vec<MemoPc>,
    /// Per-thread computed value (valid after `Compute`).
    computed: Vec<u64>,
    /// Per-thread value returned to the caller (valid at `Done`).
    ret: Vec<u64>,
}

impl ShardedMemo {
    /// `threads` concurrent callers of `memo_f64` for the same key.
    pub fn new(threads: usize, impure_compute: bool) -> Self {
        Self {
            impure_compute,
            threads,
            shared: None,
            published: false,
            pc: vec![MemoPc::Probe; threads],
            computed: vec![0; threads],
            ret: vec![0; threads],
        }
    }

    fn compute(&self, tid: usize) -> u64 {
        if self.impure_compute {
            // The bug shape: a value that depends on *who* computes it
            // (e.g. a profile build reading ambient mutable state).
            PURE_VALUE + tid as u64
        } else {
            PURE_VALUE
        }
    }
}

impl Model for ShardedMemo {
    fn name(&self) -> &'static str {
        "l2-memo"
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn reset(&mut self) {
        self.shared = None;
        self.published = false;
        self.pc.fill(MemoPc::Probe);
        self.computed.fill(0);
        self.ret.fill(0);
    }

    fn done(&self, tid: usize) -> bool {
        self.pc[tid] == MemoPc::Done
    }

    fn step(&mut self, tid: usize) {
        match self.pc[tid] {
            MemoPc::Probe => match self.shared {
                // Hit: adopt the published bits, done.
                Some(v) => {
                    self.ret[tid] = v;
                    self.pc[tid] = MemoPc::Done;
                }
                None => self.pc[tid] = MemoPc::Compute,
            },
            MemoPc::Compute => {
                self.computed[tid] = self.compute(tid);
                self.pc[tid] = MemoPc::Insert;
            }
            MemoPc::Insert => {
                // Write-lock insert: last write wins. The real map's
                // `insert` overwrites; the caller returns its *own*
                // computed value (exactly like `memo_f64`).
                self.shared = Some(self.computed[tid]);
                self.published = true;
                self.ret[tid] = self.computed[tid];
                self.pc[tid] = MemoPc::Done;
            }
            MemoPc::Done => unreachable!("stepped a finished thread"),
        }
    }

    fn check_step(&self) -> Result<(), String> {
        // Append-only: once published, the entry never disappears.
        if self.published && self.shared.is_none() {
            return Err("published memo entry disappeared".to_string());
        }
        Ok(())
    }

    fn check_final(&self) -> Result<(), String> {
        // No lost insert: at least one thread missed (the key started
        // absent), so the entry must exist afterwards.
        let Some(shared) = self.shared else {
            return Err("no memo entry after all callers finished (lost insert)".to_string());
        };
        // Linearizability-style claim: every caller (and the table)
        // observed one single value.
        let first = self.ret[0];
        if self.ret.iter().any(|&r| r != first) {
            return Err(format!(
                "callers returned different bits: {:?} (memoized value must be \
                 schedule-independent)",
                self.ret
            ));
        }
        if shared != first {
            return Err(format!(
                "table holds {shared:#x} but callers returned {first:#x}"
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Branch-and-bound incumbent: CAS loop + admissible-bound pruning
// ---------------------------------------------------------------------------

/// Per-thread program counter for [`CasIncumbent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IncPc {
    /// Read the incumbent for the prune check.
    ReadBound,
    /// Load the incumbent into the CAS loop's register.
    Load,
    /// Attempt `compare_exchange(loaded, time)`.
    Cas,
    /// Finished (published, beaten, or pruned).
    Done,
}

/// Model of the branch-and-bound incumbent cell behind
/// `perfmodel::ord::publish_min` (`crates/perfmodel/src/ord.rs`), the CAS
/// loop that lowers `TopkIncumbent`'s published threshold and best-key
/// cells: each thread holds one candidate with an admissible lower bound
/// (`lb <= time`); it reads the shared incumbent, gives up if `lb`
/// already exceeds it (the prune), otherwise evaluates and publishes its
/// time through a load/compare-exchange loop that only ever *lowers* the
/// incumbent.
///
/// Claims, on **every** schedule:
/// * the incumbent is monotone non-increasing ([`Model::check_step`]);
/// * the final incumbent equals the sequential minimum over all
///   candidate times — pruning with admissible bounds never loses the
///   optimum ([`Model::check_final`]).
///
/// The `torn_store` twin replaces the CAS with a blind store of the
/// loaded-register comparison's conclusion — the historical "torn
/// incumbent" shape, where a stale winner overwrites a better value
/// published in between and the incumbent moves *up*.
#[derive(Debug, Clone)]
pub struct CasIncumbent {
    /// Regression twin: publish with a store instead of compare-exchange.
    pub torn_store: bool,
    /// `(lower_bound, time)` per thread; `lb <= time` is asserted at
    /// construction (admissibility is a *precondition* the real code
    /// documents, not something the checker should discover).
    candidates: Vec<(u64, u64)>,
    incumbent: u64,
    prev_incumbent: u64,
    pc: Vec<IncPc>,
    /// CAS-loop register (the value `Load` read).
    loaded: Vec<u64>,
    /// Threads that pruned (for the final claim's bookkeeping).
    pruned: Vec<bool>,
}

impl CasIncumbent {
    /// One thread per candidate. Panics if any bound is inadmissible
    /// (`lb > time`) — that is a misuse of the model, not a schedule
    /// outcome.
    pub fn new(candidates: &[(u64, u64)], torn_store: bool) -> Self {
        assert!(
            candidates.iter().all(|&(lb, t)| lb <= t),
            "lower bounds must be admissible (lb <= time): {candidates:?}"
        );
        let n = candidates.len();
        Self {
            torn_store,
            candidates: candidates.to_vec(),
            incumbent: u64::MAX,
            prev_incumbent: u64::MAX,
            pc: vec![IncPc::ReadBound; n],
            loaded: vec![0; n],
            pruned: vec![false; n],
        }
    }
}

impl Model for CasIncumbent {
    fn name(&self) -> &'static str {
        "bb-incumbent"
    }

    fn threads(&self) -> usize {
        self.candidates.len()
    }

    fn reset(&mut self) {
        self.incumbent = u64::MAX;
        self.prev_incumbent = u64::MAX;
        self.pc.fill(IncPc::ReadBound);
        self.loaded.fill(0);
        self.pruned.fill(false);
    }

    fn done(&self, tid: usize) -> bool {
        self.pc[tid] == IncPc::Done
    }

    fn step(&mut self, tid: usize) {
        self.prev_incumbent = self.incumbent;
        let (lb, time) = self.candidates[tid];
        match self.pc[tid] {
            IncPc::ReadBound => {
                // One atomic load; pruning on a *stale* incumbent is
                // sound because the incumbent only decreases.
                if lb > self.incumbent {
                    self.pruned[tid] = true;
                    self.pc[tid] = IncPc::Done;
                } else {
                    self.pc[tid] = IncPc::Load;
                }
            }
            IncPc::Load => {
                self.loaded[tid] = self.incumbent;
                self.pc[tid] = if self.loaded[tid] > time {
                    IncPc::Cas
                } else {
                    // Already beaten; nothing to publish.
                    IncPc::Done
                };
            }
            IncPc::Cas => {
                if self.torn_store {
                    // The bug: publish without re-validating. A better
                    // value landed in between? Overwritten.
                    self.incumbent = time;
                    self.pc[tid] = IncPc::Done;
                } else if self.incumbent == self.loaded[tid] {
                    // compare_exchange success.
                    self.incumbent = time;
                    self.pc[tid] = IncPc::Done;
                } else {
                    // compare_exchange failure: reload and retry. The
                    // loop terminates because the incumbent strictly
                    // decreases between a thread's load and its failed
                    // CAS.
                    self.pc[tid] = IncPc::Load;
                }
            }
            IncPc::Done => unreachable!("stepped a finished thread"),
        }
    }

    fn check_step(&self) -> Result<(), String> {
        if self.incumbent > self.prev_incumbent {
            return Err(format!(
                "incumbent moved up: {} -> {} (must be monotone non-increasing)",
                self.prev_incumbent, self.incumbent
            ));
        }
        Ok(())
    }

    fn check_final(&self) -> Result<(), String> {
        let true_min = self
            .candidates
            .iter()
            .map(|&(_, t)| t)
            .min()
            .unwrap_or(u64::MAX);
        if self.incumbent != true_min {
            return Err(format!(
                "final incumbent {} != sequential minimum {} (pruned: {:?})",
                self.incumbent, true_min, self.pruned
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Ranked-path k-th-best threshold: locked k-set + published min-threshold
// ---------------------------------------------------------------------------

/// Per-thread program counter for [`TopkIncumbent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TopkPc {
    /// Relaxed-read the published threshold for the prune check.
    ReadThreshold,
    /// Insert into the k-set and min-publish the new maximum — one atomic
    /// step, because the real code does both under the k-set mutex.
    Insert,
    /// `torn_publish` twin only: the threshold store escaped the lock and
    /// lands later, blindly.
    StorePublish,
    /// Finished (published or pruned).
    Done,
}

/// Model of the ranked planner's shared k-th-best threshold
/// (`perfmodel::ord::TopkIncumbent`): each thread holds one candidate
/// with an admissible lower bound (`lb <= key`); it relaxed-reads the
/// published threshold, gives up if `lb` already exceeds it (the
/// k-th-incumbent prune), otherwise evaluates and inserts its key into
/// the mutex-guarded k-best set, publishing the set's maximum as the new
/// threshold through the same monotone `publish_min` discipline
/// [`CasIncumbent`] models.
///
/// Claims, on **every** schedule:
/// * the threshold is monotone non-increasing and never falls below the
///   true k-th-best key over *all* candidates — a stale read can only be
///   conservative ([`crate::sched::Model::check_step`]);
/// * no pruned thread held a true top-k candidate (at least `k` strictly
///   better keys exist), and the final threshold equals the k-th-best
///   *published* key exactly ([`crate::sched::Model::check_final`]).
///
/// The `torn_publish` twin hoists the threshold store out of the k-set
/// lock and drops the min: a thread computes the set's maximum, stalls,
/// and blindly stores it after a faster thread already published a lower
/// threshold — the threshold moves *up*, re-admitting candidates the
/// tighter threshold had excluded.
#[derive(Debug, Clone)]
pub struct TopkIncumbent {
    /// Regression twin: publish with an out-of-lock blind store instead
    /// of an in-lock monotone min.
    pub torn_publish: bool,
    k: usize,
    /// `(lower_bound, key)` per thread; `lb <= key` is asserted at
    /// construction (admissibility is a documented precondition of the
    /// real code, not something the checker should discover).
    candidates: Vec<(u64, u64)>,
    /// The k best published keys (mutex-serialized in the real code).
    kept: Vec<u64>,
    threshold: u64,
    prev_threshold: u64,
    pc: Vec<TopkPc>,
    /// Twin only: the stale maximum awaiting its blind store.
    register: Vec<u64>,
    /// Threads that pruned (for the final claim's bookkeeping).
    pruned: Vec<bool>,
}

impl TopkIncumbent {
    /// One thread per candidate, retaining the `k` best keys. Panics if
    /// `k` is zero, there are fewer than `k` candidates (the threshold
    /// would never publish), or any bound is inadmissible (`lb > key`).
    pub fn new(k: usize, candidates: &[(u64, u64)], torn_publish: bool) -> Self {
        assert!(k > 0, "a zero-k threshold retains nothing");
        assert!(
            candidates.len() >= k,
            "need at least k candidates to ever publish a threshold"
        );
        assert!(
            candidates.iter().all(|&(lb, key)| lb <= key),
            "lower bounds must be admissible (lb <= key): {candidates:?}"
        );
        let n = candidates.len();
        Self {
            torn_publish,
            k,
            candidates: candidates.to_vec(),
            kept: Vec::new(),
            threshold: u64::MAX,
            prev_threshold: u64::MAX,
            pc: vec![TopkPc::ReadThreshold; n],
            register: vec![0; n],
            pruned: vec![false; n],
        }
    }

    /// Index of the worst (largest) retained key.
    fn worst(&self) -> usize {
        let mut worst = 0;
        for i in 1..self.kept.len() {
            if self.kept[i] > self.kept[worst] {
                worst = i;
            }
        }
        worst
    }
}

impl Model for TopkIncumbent {
    fn name(&self) -> &'static str {
        "topk-incumbent"
    }

    fn threads(&self) -> usize {
        self.candidates.len()
    }

    fn reset(&mut self) {
        self.kept.clear();
        self.threshold = u64::MAX;
        self.prev_threshold = u64::MAX;
        self.pc.fill(TopkPc::ReadThreshold);
        self.register.fill(0);
        self.pruned.fill(false);
    }

    fn done(&self, tid: usize) -> bool {
        self.pc[tid] == TopkPc::Done
    }

    fn step(&mut self, tid: usize) {
        self.prev_threshold = self.threshold;
        let (lb, key) = self.candidates[tid];
        match self.pc[tid] {
            TopkPc::ReadThreshold => {
                // One relaxed load; pruning on a *stale* threshold is
                // sound because the threshold only decreases.
                if lb > self.threshold {
                    self.pruned[tid] = true;
                    self.pc[tid] = TopkPc::Done;
                } else {
                    self.pc[tid] = TopkPc::Insert;
                }
            }
            TopkPc::Insert => {
                // The k-set update and the threshold publish are one
                // atomic step: the real code holds the mutex for both.
                let entered = if self.kept.len() < self.k {
                    self.kept.push(key);
                    true
                } else {
                    let worst = self.worst();
                    if key < self.kept[worst] {
                        self.kept[worst] = key;
                        true
                    } else {
                        false // k-set unchanged, threshold already right
                    }
                };
                if entered && self.kept.len() == self.k {
                    let max = self.kept[self.worst()];
                    if self.torn_publish {
                        // The bug: the store escapes the lock; publish
                        // later, from a register that can go stale.
                        self.register[tid] = max;
                        self.pc[tid] = TopkPc::StorePublish;
                        return;
                    }
                    // publish_min under the lock: monotone by
                    // construction.
                    self.threshold = self.threshold.min(max);
                }
                self.pc[tid] = TopkPc::Done;
            }
            TopkPc::StorePublish => {
                // Blind store of the stale maximum — no min, no CAS.
                self.threshold = self.register[tid];
                self.pc[tid] = TopkPc::Done;
            }
            TopkPc::Done => unreachable!("stepped a finished thread"),
        }
    }

    fn check_step(&self) -> Result<(), String> {
        if self.threshold > self.prev_threshold {
            return Err(format!(
                "threshold moved up: {} -> {} (must be monotone non-increasing)",
                self.prev_threshold, self.threshold
            ));
        }
        // Admissible floor: the k-set only ever holds published keys, so
        // its maximum — and therefore every published threshold — is at
        // least the true k-th-best key over all candidates.
        let mut keys: Vec<u64> = self.candidates.iter().map(|&(_, key)| key).collect();
        keys.sort_unstable();
        let kth_best = keys[self.k - 1];
        if self.threshold < kth_best {
            return Err(format!(
                "threshold {} fell below the true k-th best {kth_best} \
                 (prunes true top-k candidates)",
                self.threshold
            ));
        }
        Ok(())
    }

    fn check_final(&self) -> Result<(), String> {
        // No true top-k candidate pruned: every pruned key is provably
        // outranked by at least k strictly better keys.
        for (tid, &(_, key)) in self.candidates.iter().enumerate() {
            if !self.pruned[tid] {
                continue;
            }
            let outranked = self
                .candidates
                .iter()
                .enumerate()
                .filter(|&(j, &(_, kj))| j != tid && kj < key)
                .count();
            if outranked < self.k {
                return Err(format!(
                    "pruned thread {tid} (key {key}) with only {outranked} strictly \
                     better keys (k = {}): a true top-k candidate was lost",
                    self.k
                ));
            }
        }
        // Convergence: the final threshold is exactly the k-th-best
        // published key (every unpruned thread published).
        let mut published: Vec<u64> = self
            .candidates
            .iter()
            .enumerate()
            .filter(|&(tid, _)| !self.pruned[tid])
            .map(|(_, &(_, key))| key)
            .collect();
        published.sort_unstable();
        let expect = if published.len() >= self.k {
            published[self.k - 1]
        } else {
            u64::MAX
        };
        if self.threshold != expect {
            return Err(format!(
                "final threshold {} != k-th best published key {expect} \
                 (published: {published:?})",
                self.threshold
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Rayon-pool chunk claim/steal
// ---------------------------------------------------------------------------

/// Per-thread program counter for [`ChunkClaim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChunkPc {
    /// Claim the next chunk (`fetch_add` in the real pool).
    Claim,
    /// In the `split_claim` twin only: store the incremented counter.
    StoreCounter,
    /// Process the claimed chunk into its result slot.
    Process,
    /// Counter exhausted.
    Done,
}

/// Model of the vendored rayon pool's chunked self-scheduling
/// (`vendor/rayon/src/lib.rs::execute`): workers repeatedly claim the
/// next chunk index off a shared counter with `fetch_add` and write the
/// chunk's result into its own slot; reassembly by chunk id makes the
/// output input-ordered by construction.
///
/// Claims, on every schedule: no chunk is processed twice
/// ([`Model::check_step`]); every chunk is processed exactly once and
/// every slot holds the sequential value — i.e. the reassembled output
/// is interleaving-independent ([`Model::check_final`]).
///
/// The `split_claim` twin separates the claim into a read step and a
/// store step (a non-atomic `next = next + 1`), which lets two workers
/// claim the same chunk.
#[derive(Debug, Clone)]
pub struct ChunkClaim {
    /// Regression twin: read-then-write claim instead of `fetch_add`.
    pub split_claim: bool,
    threads: usize,
    chunks: usize,
    next: usize,
    pc: Vec<ChunkPc>,
    /// Chunk the thread currently holds.
    holding: Vec<usize>,
    /// Times each chunk was processed.
    processed: Vec<u32>,
    /// Result slots (chunk id -> value).
    results: Vec<Option<u64>>,
}

/// The "work" a chunk represents (any injective function of the chunk id
/// works; the checker only compares against the sequential outcome).
fn chunk_value(c: usize) -> u64 {
    (c as u64) * 31 + 7
}

impl ChunkClaim {
    /// `threads` workers self-scheduling over `chunks` chunks.
    pub fn new(threads: usize, chunks: usize, split_claim: bool) -> Self {
        Self {
            split_claim,
            threads,
            chunks,
            next: 0,
            pc: vec![ChunkPc::Claim; threads],
            holding: vec![0; threads],
            processed: vec![0; chunks],
            results: vec![None; chunks],
        }
    }
}

impl Model for ChunkClaim {
    fn name(&self) -> &'static str {
        "chunk-claim"
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn reset(&mut self) {
        self.next = 0;
        self.pc.fill(ChunkPc::Claim);
        self.holding.fill(0);
        self.processed.fill(0);
        self.results.fill(None);
    }

    fn done(&self, tid: usize) -> bool {
        self.pc[tid] == ChunkPc::Done
    }

    fn step(&mut self, tid: usize) {
        match self.pc[tid] {
            ChunkPc::Claim => {
                if self.split_claim {
                    // Bug twin: only *read* the counter here; the
                    // increment lands in a separate step.
                    self.holding[tid] = self.next;
                    self.pc[tid] = if self.next >= self.chunks {
                        ChunkPc::Done
                    } else {
                        ChunkPc::StoreCounter
                    };
                } else {
                    // fetch_add: read + increment in one atomic step.
                    let c = self.next;
                    self.next += 1;
                    if c >= self.chunks {
                        self.pc[tid] = ChunkPc::Done;
                    } else {
                        self.holding[tid] = c;
                        self.pc[tid] = ChunkPc::Process;
                    }
                }
            }
            ChunkPc::StoreCounter => {
                self.next = self.holding[tid] + 1;
                self.pc[tid] = ChunkPc::Process;
            }
            ChunkPc::Process => {
                let c = self.holding[tid];
                self.processed[c] += 1;
                self.results[c] = Some(chunk_value(c));
                self.pc[tid] = ChunkPc::Claim;
            }
            ChunkPc::Done => unreachable!("stepped a finished thread"),
        }
    }

    fn check_step(&self) -> Result<(), String> {
        if let Some(c) = self.processed.iter().position(|&n| n > 1) {
            return Err(format!("chunk {c} processed more than once"));
        }
        Ok(())
    }

    fn check_final(&self) -> Result<(), String> {
        for c in 0..self.chunks {
            if self.processed[c] != 1 {
                return Err(format!(
                    "chunk {c} processed {} times (must be exactly once)",
                    self.processed[c]
                ));
            }
            // Input-ordered reassembly: slot c holds chunk c's value, so
            // the concatenated output equals the sequential map.
            if self.results[c] != Some(chunk_value(c)) {
                return Err(format!("slot {c} holds {:?}", self.results[c]));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Serving decode-batch admission: ceiling-gated slot claim
// ---------------------------------------------------------------------------

/// Per-thread program counter for [`BatchAdmit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AdmitPc {
    /// Claim a batch slot (atomic check-and-decrement, gated on free > 0).
    Try,
    /// `split_admit` twin only: the claim's store half, after the check.
    StoreClaim,
    /// Resident in the decode batch (KV block held).
    Hold,
    /// Release the slot (request finished; KV block freed).
    Release,
    /// Finished.
    Done,
}

/// Model of `servesim`'s decode-batch admission
/// (`crates/servesim/src/lib.rs::run_decode_replica`): arrivals join the
/// resident batch at decode-step boundaries only while `batch <
/// batch_ceiling`, where the ceiling is the KV-capacity bound
/// (`max_kv_batch`) — every admitted request reserves its KV blocks for
/// life, so over-admitting is an out-of-memory, not a slowdown. The
/// single-replica scheduler serializes admission today; this model is the
/// contract a future multi-queue admitter must keep: the slot claim must
/// stay one atomic check-and-decrement.
///
/// Claims, on every schedule: the resident batch never exceeds the
/// ceiling and free slots never go negative ([`Model::check_step`]);
/// every request is admitted exactly once and all slots return
/// ([`Model::check_final`]).
///
/// The `split_admit` twin separates the ceiling check from the claim (a
/// check-then-act on the shared free counter): two arrivals both observe
/// the last free slot and both join — the batch lands above the KV
/// ceiling.
#[derive(Debug, Clone)]
pub struct BatchAdmit {
    /// Regression twin: check-then-claim instead of one atomic step.
    pub split_admit: bool,
    threads: usize,
    capacity: u64,
    /// Free batch slots (`capacity - in_flight` in the correct protocol).
    free: u64,
    /// Requests currently resident in the decode batch.
    in_flight: u64,
    pc: Vec<AdmitPc>,
    /// Times each request was admitted.
    admitted: Vec<u32>,
}

impl BatchAdmit {
    /// `threads` concurrent arrivals racing for `capacity` batch slots.
    /// Panics if `capacity` is zero (a dead replica admits nothing — not
    /// a schedule outcome worth exploring).
    pub fn new(threads: usize, capacity: u64, split_admit: bool) -> Self {
        assert!(capacity > 0, "a zero-capacity batch admits nothing");
        Self {
            split_admit,
            threads,
            capacity,
            free: capacity,
            in_flight: 0,
            pc: vec![AdmitPc::Try; threads],
            admitted: vec![0; threads],
        }
    }
}

impl Model for BatchAdmit {
    fn name(&self) -> &'static str {
        "batch-admit"
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn reset(&mut self) {
        self.free = self.capacity;
        self.in_flight = 0;
        self.pc.fill(AdmitPc::Try);
        self.admitted.fill(0);
    }

    fn done(&self, tid: usize) -> bool {
        self.pc[tid] == AdmitPc::Done
    }

    fn enabled(&self, tid: usize) -> bool {
        // The boundary check: an arrival only attempts admission while a
        // slot is visible. Residents always progress (hold → release), so
        // a blocked arrival is eventually re-enabled — no deadlock.
        match self.pc[tid] {
            AdmitPc::Try => self.free > 0,
            AdmitPc::Done => false,
            _ => true,
        }
    }

    fn step(&mut self, tid: usize) {
        match self.pc[tid] {
            AdmitPc::Try => {
                if self.split_admit {
                    // Bug twin: the check passed (we are enabled); the
                    // claim lands in a separate step, so another arrival
                    // can observe the same last slot in between.
                    self.pc[tid] = AdmitPc::StoreClaim;
                } else {
                    // One atomic check-and-decrement (the `enabled` gate
                    // and this step are a single admission decision at a
                    // decode-step boundary).
                    self.free -= 1;
                    self.in_flight += 1;
                    self.admitted[tid] += 1;
                    self.pc[tid] = AdmitPc::Hold;
                }
            }
            AdmitPc::StoreClaim => {
                // The stale claim: decrement whatever is there now.
                self.free = self.free.saturating_sub(1);
                self.in_flight += 1;
                self.admitted[tid] += 1;
                self.pc[tid] = AdmitPc::Hold;
            }
            AdmitPc::Hold => {
                // One decode step as a resident, then the request
                // completes.
                self.pc[tid] = AdmitPc::Release;
            }
            AdmitPc::Release => {
                self.free += 1;
                self.in_flight -= 1;
                self.pc[tid] = AdmitPc::Done;
            }
            AdmitPc::Done => unreachable!("stepped a finished thread"),
        }
    }

    fn check_step(&self) -> Result<(), String> {
        // The KV-ceiling claim: admitted requests reserve cache blocks,
        // so a batch above the ceiling is physically over-committed.
        if self.in_flight > self.capacity {
            return Err(format!(
                "batch over-admitted: {} resident > ceiling {} (KV cache \
                 over-committed)",
                self.in_flight, self.capacity
            ));
        }
        if self.free > self.capacity {
            return Err(format!(
                "free slots {} exceed capacity {} (double release)",
                self.free, self.capacity
            ));
        }
        Ok(())
    }

    fn check_final(&self) -> Result<(), String> {
        for (tid, &n) in self.admitted.iter().enumerate() {
            if n != 1 {
                return Err(format!(
                    "request {tid} admitted {n} times (must be exactly once)"
                ));
            }
        }
        if self.in_flight != 0 || self.free != self.capacity {
            return Err(format!(
                "slots leaked: {} in flight, {} free, capacity {}",
                self.in_flight, self.free, self.capacity
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{explore, Budget};

    #[test]
    fn memo_is_correct_and_twin_is_caught() {
        let r = explore(&mut ShardedMemo::new(3, false), &Budget::default());
        assert!(r.passed(), "{:?}", r.violation);
        assert!(r.exhaustive);
        let bad = explore(&mut ShardedMemo::new(2, true), &Budget::default());
        assert!(bad.violation.is_some());
    }

    #[test]
    fn incumbent_is_correct_and_twin_is_caught() {
        let cands = [(5, 10), (1, 3), (2, 7)];
        let r = explore(&mut CasIncumbent::new(&cands, false), &Budget::default());
        assert!(r.passed(), "{:?}", r.violation);
        let bad = explore(&mut CasIncumbent::new(&cands, true), &Budget::default());
        assert!(bad.violation.is_some());
    }

    #[test]
    fn chunk_claim_is_correct_and_twin_is_caught() {
        let r = explore(&mut ChunkClaim::new(2, 3, false), &Budget::default());
        assert!(r.passed(), "{:?}", r.violation);
        let bad = explore(&mut ChunkClaim::new(2, 2, true), &Budget::default());
        assert!(bad.violation.is_some());
    }

    #[test]
    fn topk_incumbent_is_correct_and_twin_is_caught() {
        // A winner, a runner-up, a dominated straggler, and a candidate
        // whose bound prunes against the published threshold.
        let cands = [(2, 9), (1, 4), (3, 12), (10, 11)];
        let r = explore(
            &mut TopkIncumbent::new(2, &cands, false),
            &Budget::default(),
        );
        assert!(r.passed(), "{:?}", r.violation);
        assert!(r.exhaustive);
        let bad = explore(
            &mut TopkIncumbent::new(2, &cands[..3], true),
            &Budget::default(),
        );
        assert!(bad.violation.is_some());
    }

    #[test]
    fn batch_admit_is_correct_and_twin_is_caught() {
        // 3 arrivals racing 2 batch slots: the interesting schedules make
        // the third arrival wait for a release and re-admit.
        let r = explore(&mut BatchAdmit::new(3, 2, false), &Budget::default());
        assert!(r.passed(), "{:?}", r.violation);
        assert!(r.exhaustive);
        let bad = explore(&mut BatchAdmit::new(3, 2, true), &Budget::default());
        assert!(bad.violation.is_some());
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_batch_is_rejected_at_construction() {
        let _ = BatchAdmit::new(1, 0, false);
    }

    #[test]
    #[should_panic(expected = "admissible")]
    fn inadmissible_bounds_are_rejected_at_construction() {
        let _ = CasIncumbent::new(&[(11, 10)], false);
    }

    #[test]
    #[should_panic(expected = "admissible")]
    fn inadmissible_topk_bounds_are_rejected_at_construction() {
        let _ = TopkIncumbent::new(1, &[(11, 10)], false);
    }
}
