//! The discrete-event engine: pipelined piece transfers over serialized
//! links, with cross-flow dependencies for reduction joins and broadcast
//! chains.

use crate::topology::Topology;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[cfg(test)]
mod reference;

/// A simulation that could not run to completion.
///
/// The engine executes whatever flow set it is given; a flow set whose
/// dependency graph contains a cycle (or a dependency on a flow that
/// never runs) would previously drain the heap silently and report the
/// completion time of whatever *did* run — an undercounted time
/// masquerading as success. Schedule builders inside this crate only
/// emit acyclic graphs, but the engine is also the substrate for
/// externally-scripted scenarios (fault replay, hand-built schedules),
/// so no-progress states are detected and surfaced as typed errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SimError {
    /// The event loop stopped making progress before every scheduled
    /// transfer executed: the heap drained with pieces still gated on
    /// unmet dependencies (a dependency cycle or a dependency on a
    /// flow that never completes), or the event-count watchdog tripped.
    Stalled {
        /// Link transfers actually executed.
        executed: u64,
        /// Link transfers the flow set schedules (`Σ hops · pieces`).
        expected: u64,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Stalled { executed, expected } => write!(
                f,
                "simulation stalled: {executed} of {expected} scheduled \
                 transfers executed (dependency cycle or unsatisfiable gate \
                 in the flow set)"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Engine counters (useful for tests and for demonstrating that the
/// simulation actually executed the schedule rather than a formula).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventStats {
    /// Completed link transfers.
    pub transfers: u64,
    /// Link-contention requeues: the number of heap re-insertions a
    /// discipline that re-pushes every blocked transfer at its link's
    /// free time would make. The engine instead parks a blocked transfer
    /// in the link's wait queue and counts, in O(1), one requeue when it
    /// starts waiting plus one for every other grant on its link that
    /// moves the link's free time while it waits.
    pub requeues: u64,
}

impl EventStats {
    /// Accumulates another phase's counters (ring AR = RS + AG phases,
    /// hierarchical AR = three phases, ...).
    pub(crate) fn merge(&mut self, other: EventStats) {
        self.transfers += other.transfers;
        self.requeues += other.requeues;
    }
}

/// Result of one simulated collective.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimResult {
    /// Completion time in seconds.
    pub time: f64,
    /// Engine counters.
    pub stats: EventStats,
}

impl SimResult {
    pub(crate) fn zero() -> Self {
        SimResult {
            time: 0.0,
            stats: EventStats::default(),
        }
    }

    /// Sequential composition of two phases.
    pub(crate) fn then(mut self, next: SimResult) -> Self {
        self.time += next.time;
        self.stats.merge(next.stats);
        self
    }
}

/// A pipelined movement of `bytes` along a path of links.
///
/// Pieces pipeline along the path: piece `p` may enter link `h + 1` as
/// soon as it has left link `h`. Cross-flow dependencies model joins and
/// chains: piece `p` may enter the flow's *first* link only once piece `p`
/// of every flow in `deps` has left that flow's *last* link — a reduce
/// tree's parent edge waits for both child edges (per piece), a broadcast
/// tree's child edge waits for the parent edge.
#[derive(Debug, Clone)]
pub(crate) struct Flow {
    /// Total bytes moved along the path (split into pipeline pieces).
    pub bytes: f64,
    /// Link ids, in traversal order. Must be non-empty.
    pub path: Vec<u32>,
    /// Indices (into the flow slice) of gating flows.
    pub deps: Vec<u32>,
}

impl Flow {
    /// An independent flow (no gating dependencies).
    pub fn new(bytes: f64, path: Vec<u32>) -> Self {
        Self {
            bytes,
            path,
            deps: Vec::new(),
        }
    }

    /// A flow gated (per piece) on the completion of `deps`.
    pub fn after(bytes: f64, path: Vec<u32>, deps: Vec<u32>) -> Self {
        Self { bytes, path, deps }
    }
}

/// Ordering key of one link transfer: piece `piece` of flow `flow` over
/// the link at `path[hop]`. Every transfer has a distinct key.
type Key = (u32, u32, u32);

/// One global-heap entry.
///
/// An *arrival* is transfer `key` becoming ready at its link at `time`.
/// A *grant* entry stands for a link's wait queue: `time` is when the
/// link frees and `key` its smallest waiter. Each link with waiters has
/// exactly one current grant entry; entries superseded by a later change
/// of the link's free time or smallest waiter are dropped when popped.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Event {
    time: f64,
    key: Key,
    grant: bool,
}

// Total order for the heap: earliest time first, deterministic
// tie-breaking on the transfer key. An arrival and a grant entry never
// share a key (a transfer arrives once and only then waits), so `grant`
// only makes the order total.
impl Eq for Event {}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.key.cmp(&other.key))
            .then(self.grant.cmp(&other.grant))
    }
}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Simulates the pipelined execution of `flows` over `topo`, with each
/// flow split into `pieces` pieces. A piece may be forwarded as soon as it
/// has been received (and its cross-flow dependencies have completed);
/// each link carries one piece at a time.
///
/// A transfer that arrives at a busy link waits in that link's queue,
/// ordered by `(flow, hop, piece)`; when the link frees it goes to the
/// smallest waiter, unless an arrival at exactly that instant has a
/// smaller key. This is the schedule of a single global heap ordered by
/// `(ready, flow, hop, piece)` that re-pushes every blocked transfer at
/// the link's free time, without the re-pushes.
///
/// Returns the completion time of the last piece plus engine stats, or
/// [`SimError::Stalled`] when the flow set cannot run to completion
/// (dependency cycle, dependency on a flow that never runs, or the
/// event-count watchdog tripping).
pub(crate) fn simulate_flows(
    topo: &Topology,
    flows: &[Flow],
    pieces: u64,
) -> Result<SimResult, SimError> {
    let pieces = pieces.max(1) as usize;
    let mut link_free = vec![0.0f64; topo.len()];
    let mut waiting: Vec<BinaryHeap<Reverse<Key>>> =
        (0..topo.len()).map(|_| BinaryHeap::new()).collect();
    let mut heap: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
    let mut stats = EventStats::default();
    let mut finish = 0.0f64;

    // Progress accounting for stall detection. Every piece of every flow
    // crosses every hop of its path exactly once, so the completed
    // schedule executes exactly `expected` transfers; draining the heap
    // short of that means some pieces' gates never opened. The watchdog
    // bounds total heap pops: each transfer is pushed as an arrival at
    // most once, waits at most once, and each wait and each grant pushes
    // at most one grant entry, so a healthy run pops at most
    // `3 · expected` entries. The budget is that with slack; tripping it
    // would mean the loop is spinning without executing. It is a
    // defensive backstop; the heap-drain check below is the real
    // detector.
    let expected: u64 = flows
        .iter()
        .map(|f| f.path.len() as u64 * pieces as u64)
        .sum();
    let budget = 1024u64.saturating_add(expected.saturating_mul(4));
    let mut pops = 0u64;

    // Dependency bookkeeping: dependents[f] lists the flows gated on f;
    // pending[g][p] counts unmet dependencies of piece p of flow g;
    // gate[g][p] is the latest completion time among met dependencies.
    let mut dependents: Vec<Vec<u32>> = vec![Vec::new(); flows.len()];
    for (gi, g) in flows.iter().enumerate() {
        debug_assert!(
            !g.path.is_empty() && g.bytes > 0.0,
            "degenerate flow {gi}: schedule builders must not emit empty \
             paths or non-positive volumes"
        );
        for &d in &g.deps {
            dependents[d as usize].push(gi as u32);
        }
    }
    let mut pending: Vec<Vec<usize>> = flows.iter().map(|f| vec![f.deps.len(); pieces]).collect();
    let mut gate: Vec<Vec<f64>> = flows.iter().map(|_| vec![0.0f64; pieces]).collect();

    let arrival = |time: f64, key: Key| {
        Reverse(Event {
            time,
            key,
            grant: false,
        })
    };
    for (fi, f) in flows.iter().enumerate() {
        if f.deps.is_empty() {
            for p in 0..pieces {
                heap.push(arrival(0.0, (fi as u32, 0, p as u32)));
            }
        }
    }

    while let Some(Reverse(ev)) = heap.pop() {
        pops += 1;
        if pops > budget {
            return Err(SimError::Stalled {
                executed: stats.transfers,
                expected,
            });
        }
        let (fi, hop, piece) = ev.key;
        let flow = &flows[fi as usize];
        let link = flow.path[hop as usize] as usize;
        let queue = &mut waiting[link];
        if ev.grant {
            if link_free[link] != ev.time || queue.peek() != Some(&Reverse(ev.key)) {
                continue; // superseded
            }
            queue.pop();
        } else if link_free[link] > ev.time {
            // Link busy: wait in its queue. Counted as one requeue, as the
            // re-push discipline would.
            stats.requeues += 1;
            if queue.peek().is_none_or(|&Reverse(min)| ev.key < min) {
                heap.push(Reverse(Event {
                    time: link_free[link],
                    key: ev.key,
                    grant: true,
                }));
            }
            queue.push(Reverse(ev.key));
            continue;
        }
        // An arrival that finds the link free goes ahead of any waiters:
        // their grant entry is due at this same instant with a larger key,
        // or it would have popped first.
        let start = ev.time;
        let (lat, bw) = topo.link_params(link as u32);
        let piece_bytes = flow.bytes / pieces as f64;
        // The link is occupied for the serialization time only; the hop
        // latency is propagation and delays arrival without blocking the
        // next piece from entering the wire.
        let end = start + lat + piece_bytes / bw;
        link_free[link] = start + piece_bytes / bw;
        let moved = link_free[link] > start;
        if moved {
            // Under re-pushing, every other waiter would now pop at
            // `start`, find the link busy and be re-pushed once more.
            stats.requeues += queue.len() as u64;
        }
        // The link's grant entry is stale once its free time moved or its
        // head was granted; otherwise the current entry still stands.
        if moved || ev.grant {
            if let Some(&Reverse(next)) = queue.peek() {
                heap.push(Reverse(Event {
                    time: link_free[link],
                    key: next,
                    grant: true,
                }));
            }
        }
        stats.transfers += 1;
        finish = finish.max(end);
        if (hop as usize) + 1 < flow.path.len() {
            heap.push(arrival(end, (fi, hop + 1, piece)));
        } else {
            // The piece left the flow's last link: release dependents.
            for &g in &dependents[fi as usize] {
                let (gi, pi) = (g as usize, piece as usize);
                gate[gi][pi] = gate[gi][pi].max(end);
                pending[gi][pi] -= 1;
                if pending[gi][pi] == 0 {
                    heap.push(arrival(gate[gi][pi], (g, 0, piece)));
                }
            }
        }
    }

    if stats.transfers < expected {
        return Err(SimError::Stalled {
            executed: stats.transfers,
            expected,
        });
    }
    Ok(SimResult {
        time: finish,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::RingTopology;
    use collectives::CommGroup;
    use systems::{system, GpuGeneration, NvsSize};

    fn topo(size: u64, per_domain: u64) -> Topology {
        let sys = system(GpuGeneration::A100, NvsSize::Nvs4);
        RingTopology::build(CommGroup::new(size, per_domain), &sys).topology()
    }

    /// Ring path starting at `origin` over `hops` consecutive links.
    fn ring_path(n: u64, origin: u64, hops: u64) -> Vec<u32> {
        (0..hops).map(|h| ((origin + h) % n) as u32).collect()
    }

    #[test]
    fn single_hop_single_piece() {
        let t = topo(4, 4);
        let r = simulate_flows(&t, &[Flow::new(1e6, ring_path(4, 0, 1))], 1).unwrap();
        let (lat, bw) = t.link_params(0);
        let expect = lat + 1e6 / bw;
        assert!((r.time - expect).abs() / expect < 1e-12);
        assert_eq!(r.stats.transfers, 1);
    }

    #[test]
    fn pipelining_hides_store_and_forward() {
        // One flow over many hops: with many pieces the total approaches
        // bytes/bw + hops·lat instead of hops·bytes/bw.
        let t = topo(4, 4);
        let flow = [Flow::new(4e6, ring_path(4, 0, 3))];
        let unpipelined = simulate_flows(&t, &flow, 1).unwrap().time;
        let pipelined = simulate_flows(&t, &flow, 64).unwrap().time;
        assert!(pipelined < 0.5 * unpipelined);
        let (lat, bw) = t.link_params(0);
        let floor = 3.0 * lat + 4e6 / bw;
        assert!(pipelined > floor * 0.99);
    }

    #[test]
    fn contention_serializes_a_link() {
        // Two flows entering the same link at once must queue.
        let t = topo(4, 4);
        let one = simulate_flows(&t, &[Flow::new(1e8, ring_path(4, 0, 1))], 1)
            .unwrap()
            .time;
        let both = simulate_flows(
            &t,
            &[
                Flow::new(1e8, ring_path(4, 0, 1)),
                Flow::new(1e8, ring_path(4, 0, 1)),
            ],
            1,
        )
        .unwrap();
        assert!(both.time > 1.9 * one);
        assert!(both.stats.requeues > 0);
    }

    #[test]
    fn slow_hop_dominates_cross_domain() {
        let t = topo(8, 4); // one slow boundary at positions 3 and 7
        let fast_only = simulate_flows(&t, &[Flow::new(8e6, ring_path(8, 0, 3))], 1)
            .unwrap()
            .time;
        let with_slow = simulate_flows(&t, &[Flow::new(8e6, ring_path(8, 0, 4))], 1)
            .unwrap()
            .time;
        let (slow_lat, slow_bw) = t.link_params(3);
        let slow_hop = slow_lat + 8e6 / slow_bw;
        assert!((with_slow - fast_only - slow_hop).abs() / slow_hop < 1e-9);
    }

    #[test]
    fn empty_flow_set_is_free() {
        let t = topo(4, 4);
        assert_eq!(simulate_flows(&t, &[], 4).unwrap().time, 0.0);
    }

    #[test]
    fn dependency_chains_serialize_per_piece() {
        // Flow 1 depends on flow 0 over a disjoint link: with one piece
        // the total is the sum; with many pieces the chain pipelines.
        let t = topo(4, 4);
        let flows = [Flow::new(8e6, vec![0]), Flow::after(8e6, vec![2], vec![0])];
        let (lat, bw) = t.link_params(0);
        let serial = simulate_flows(&t, &flows, 1).unwrap().time;
        let expect = 2.0 * (lat + 8e6 / bw);
        assert!((serial - expect).abs() / expect < 1e-12);
        let pipelined = simulate_flows(&t, &flows, 64).unwrap().time;
        assert!(pipelined < 0.6 * serial, "{pipelined} vs {serial}");
    }

    #[test]
    fn dependency_joins_wait_for_the_slowest() {
        // Flow 2 joins flows 0 (small) and 1 (large) on disjoint links:
        // it cannot start before the larger input has fully arrived.
        let t = topo(4, 4);
        let flows = [
            Flow::new(1e6, vec![0]),
            Flow::new(64e6, vec![1]),
            Flow::after(1e6, vec![2], vec![0, 1]),
        ];
        let r = simulate_flows(&t, &flows, 1).unwrap();
        let (lat, bw) = t.link_params(0);
        let expect = (lat + 64e6 / bw) + (lat + 1e6 / bw);
        assert!((r.time - expect).abs() / expect < 1e-12);
        assert_eq!(r.stats.transfers, 3);
    }

    #[test]
    fn deterministic() {
        let t = topo(8, 4);
        let flows: Vec<Flow> = (0..8).map(|o| Flow::new(3e6, ring_path(8, o, 7))).collect();
        let a = simulate_flows(&t, &flows, 8).unwrap();
        let b = simulate_flows(&t, &flows, 8).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn cyclic_dependencies_stall_instead_of_undercounting() {
        // A two-flow dependency cycle: neither piece can ever enter its
        // first link. Before the guard this drained the heap and returned
        // time 0 as if the schedule had completed.
        let t = topo(4, 4);
        let cycle = [
            Flow::after(1e6, vec![0], vec![1]),
            Flow::after(1e6, vec![1], vec![0]),
        ];
        assert_eq!(
            simulate_flows(&t, &cycle, 2),
            Err(SimError::Stalled {
                executed: 0,
                expected: 4,
            })
        );
    }

    #[test]
    fn partial_progress_before_a_stall_is_reported() {
        // One healthy flow plus a three-flow cycle: the healthy flow runs
        // to completion, then the loop stalls with its transfers counted.
        let t = topo(4, 4);
        let flows = [
            Flow::new(1e6, ring_path(4, 0, 2)),
            Flow::after(1e6, vec![2], vec![2]),
            Flow::after(1e6, vec![3], vec![3, 0]),
            Flow::after(1e6, vec![1], vec![1]),
        ];
        let err = simulate_flows(&t, &flows, 4).unwrap_err();
        assert_eq!(
            err,
            SimError::Stalled {
                executed: 8,
                expected: 20,
            }
        );
        assert!(err.to_string().contains("8 of 20"));
    }

    #[test]
    fn self_dependency_stalls() {
        let t = topo(4, 4);
        let flows = [Flow::after(1e6, vec![0], vec![0])];
        assert!(matches!(
            simulate_flows(&t, &flows, 1),
            Err(SimError::Stalled { executed: 0, .. })
        ));
    }

    #[test]
    fn dependency_on_a_gated_never_run_flow_stalls() {
        // Flow 1 waits on flow 0, which itself waits on flow 1: even
        // though the graph is just a 2-cycle reached through an extra
        // healthy dependency level, flow 2 (gated on 1) must stall too —
        // nothing downstream of a cycle ever runs.
        let t = topo(4, 4);
        let flows = [
            Flow::after(1e6, vec![0], vec![1]),
            Flow::after(1e6, vec![1], vec![0]),
            Flow::after(1e6, vec![2], vec![1]),
        ];
        assert!(matches!(
            simulate_flows(&t, &flows, 1),
            Err(SimError::Stalled { executed: 0, .. })
        ));
    }
}
