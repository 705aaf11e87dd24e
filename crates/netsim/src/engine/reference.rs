//! The original requeue engine, kept as a differential oracle for
//! [`simulate_flows`]: one global heap ordered by
//! `(ready, flow, hop, piece)`, in which a transfer that finds its link
//! busy is re-pushed at the link's free time. The production engine parks
//! such transfers in per-link wait queues instead, and must reproduce
//! this engine's completion times, counters and stall results bit for bit.

use super::{simulate_flows, EventStats, Flow, SimError, SimResult};
use crate::topology::{RingTopology, Topology};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One pending transfer: piece `piece` of flow `flow` over the link at
/// `path[hop]`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Transfer {
    ready: f64,
    flow: u32,
    hop: u32,
    piece: u32,
}

// Total order for the heap: earliest ready time first, deterministic
// tie-breaking on (flow, hop, piece).
impl Eq for Transfer {}
impl Ord for Transfer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.ready
            .total_cmp(&other.ready)
            .then(self.flow.cmp(&other.flow))
            .then(self.hop.cmp(&other.hop))
            .then(self.piece.cmp(&other.piece))
    }
}
impl PartialOrd for Transfer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The requeue engine: same contract as [`simulate_flows`], with a
/// watchdog budget of `O(expected²)` heap pops (a queued transfer
/// requeues at most once per transfer that executes on its link ahead of
/// it).
fn simulate_flows_requeue(
    topo: &Topology,
    flows: &[Flow],
    pieces: u64,
) -> Result<SimResult, SimError> {
    let pieces = pieces.max(1) as usize;
    let mut link_free = vec![0.0f64; topo.len()];
    let mut heap: BinaryHeap<Reverse<Transfer>> = BinaryHeap::new();
    let mut stats = EventStats::default();
    let mut finish = 0.0f64;

    let expected: u64 = flows
        .iter()
        .map(|f| f.path.len() as u64 * pieces as u64)
        .sum();
    let budget = 1024u64.saturating_add(expected.saturating_mul(expected.saturating_add(4)));
    let mut pops = 0u64;

    let mut dependents: Vec<Vec<u32>> = vec![Vec::new(); flows.len()];
    for (gi, g) in flows.iter().enumerate() {
        for &d in &g.deps {
            dependents[d as usize].push(gi as u32);
        }
    }
    let mut pending: Vec<Vec<usize>> = flows.iter().map(|f| vec![f.deps.len(); pieces]).collect();
    let mut gate: Vec<Vec<f64>> = flows.iter().map(|_| vec![0.0f64; pieces]).collect();

    for (fi, f) in flows.iter().enumerate() {
        if f.deps.is_empty() {
            for p in 0..pieces {
                heap.push(Reverse(Transfer {
                    ready: 0.0,
                    flow: fi as u32,
                    hop: 0,
                    piece: p as u32,
                }));
            }
        }
    }

    while let Some(Reverse(t)) = heap.pop() {
        pops += 1;
        if pops > budget {
            return Err(SimError::Stalled {
                executed: stats.transfers,
                expected,
            });
        }
        let flow = &flows[t.flow as usize];
        let link = flow.path[t.hop as usize];
        let start = t.ready.max(link_free[link as usize]);
        if start > t.ready {
            stats.requeues += 1;
            heap.push(Reverse(Transfer { ready: start, ..t }));
            continue;
        }
        let (lat, bw) = topo.link_params(link);
        let piece_bytes = flow.bytes / pieces as f64;
        let end = start + lat + piece_bytes / bw;
        link_free[link as usize] = start + piece_bytes / bw;
        stats.transfers += 1;
        finish = finish.max(end);
        if (t.hop as usize) + 1 < flow.path.len() {
            heap.push(Reverse(Transfer {
                ready: end,
                hop: t.hop + 1,
                ..t
            }));
        } else {
            for &g in &dependents[t.flow as usize] {
                let (gi, pi) = (g as usize, t.piece as usize);
                gate[gi][pi] = gate[gi][pi].max(end);
                pending[gi][pi] -= 1;
                if pending[gi][pi] == 0 {
                    heap.push(Reverse(Transfer {
                        ready: gate[gi][pi],
                        flow: g,
                        hop: 0,
                        piece: t.piece,
                    }));
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

/// A random flow set over a lowered ring.
#[derive(Debug)]
struct Case {
    topo: Topology,
    flows: Vec<Flow>,
    pieces: u64,
}

/// Draws a flow set from `seed`: rings of 4, 8 or 16 positions (with slow
/// domain boundaries when the ring spans domains), 1–16 pieces, ring and
/// random paths, acyclic joins and chains, and in some cases arbitrary
/// (possibly cyclic or self-) dependencies. Half the cases give every
/// flow the same volume, which forces exact ready-time ties; some flows
/// carry a volume so small that its serialization time vanishes against
/// the clock, so a grant can leave the link's free time unchanged.
fn random_case(seed: u64) -> Case {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use systems::{system, GpuGeneration, NvsSize};

    let mut rng = StdRng::seed_from_u64(seed);
    let n = [4u64, 8, 16][rng.gen_range(0..3usize)];
    let per_domain = [2u64, 4][rng.gen_range(0..2usize)];
    let sys = system(GpuGeneration::A100, NvsSize::Nvs4);
    let topo = RingTopology::build(collectives::CommGroup::new(n, per_domain), &sys).topology();
    let links = topo.len() as u32;
    let pieces = rng.gen_range(1..=16u64);
    let equal = rng.gen::<bool>();
    let cyclic = rng.gen_range(0..6u32) == 0;
    let builder_like = rng.gen_range(0..4u32) == 0;
    let base = rng.gen_range(1e5..1e7);

    let count = if builder_like {
        n as usize
    } else {
        rng.gen_range(1..=(n as usize + 4))
    };
    let flows = (0..count)
        .map(|i| {
            let bytes = if rng.gen_range(0..16u32) == 0 {
                1e-300
            } else if equal {
                base
            } else {
                rng.gen_range(1e5..1e7)
            };
            let path: Vec<u32> = if builder_like {
                (0..n - 1).map(|h| ((i as u64 + h) % n) as u32).collect()
            } else if rng.gen::<bool>() {
                let origin = rng.gen_range(0..links);
                let hops = rng.gen_range(1..=links);
                (0..hops).map(|h| (origin + h) % links).collect()
            } else {
                (0..rng.gen_range(1..=6u32))
                    .map(|_| rng.gen_range(0..links))
                    .collect()
            };
            let deps: Vec<u32> = if cyclic {
                if rng.gen_range(0..3u32) == 0 {
                    (0..rng.gen_range(1..=2u32))
                        .map(|_| rng.gen_range(0..count as u32))
                        .collect()
                } else {
                    Vec::new()
                }
            } else if i > 0 && rng.gen_range(0..3u32) == 0 {
                (0..rng.gen_range(1..=3u32))
                    .map(|_| rng.gen_range(0..i as u32))
                    .collect()
            } else {
                Vec::new()
            };
            Flow::after(bytes, path, deps)
        })
        .collect();
    Case {
        topo,
        flows,
        pieces,
    }
}

/// The engine output with the completion time as raw bits, so equality
/// is bitwise.
fn bits(r: Result<SimResult, SimError>) -> Result<(u64, EventStats), SimError> {
    r.map(|r| (r.time.to_bits(), r.stats))
}

mod tests {
    use super::*;
    use crate::{simulate_collective, SimOptions};
    use collectives::{Collective, CommGroup};
    use proptest::prelude::*;
    use systems::{system, GpuGeneration, NvsSize};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The wait-queue engine is bit-identical to the requeue engine:
        /// completion time, transfer and requeue counts, and stalls.
        #[test]
        fn wait_queues_match_the_requeue_engine(seed in 0u64..u64::MAX) {
            let case = random_case(seed);
            prop_assert_eq!(
                bits(simulate_flows(&case.topo, &case.flows, case.pieces)),
                bits(simulate_flows_requeue(&case.topo, &case.flows, case.pieces)),
            );
        }
    }

    /// The generator reaches every path the engines must agree on:
    /// contention, stalls and grants that leave a link's free time
    /// unchanged.
    #[test]
    fn random_cases_cover_contention_and_stalls() {
        let (mut contended, mut stalled, mut vanishing) = (0, 0, 0);
        for seed in 0..256 {
            let case = random_case(seed);
            match simulate_flows_requeue(&case.topo, &case.flows, case.pieces) {
                Ok(r) if r.stats.requeues > 0 => contended += 1,
                Err(SimError::Stalled { .. }) => stalled += 1,
                Ok(_) => {}
            }
            if case.flows.iter().any(|f| f.bytes < 1e-200) {
                vanishing += 1;
            }
        }
        assert!(contended > 64, "{contended} contended cases");
        assert!(stalled > 8, "{stalled} stalled cases");
        assert!(vanishing > 8, "{vanishing} cases with vanishing volumes");
    }

    /// Ring AllReduce over 64 GPUs, 8 per domain, 1 GB on B200/NVS8: the
    /// exact output of the requeue engine.
    #[test]
    fn ring_allreduce_64x8_1gb_is_pinned() {
        let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
        let r = simulate_collective(
            Collective::AllReduce,
            1e9,
            CommGroup::new(64, 8),
            &sys,
            &SimOptions::default(),
        );
        assert_eq!(r.time.to_bits(), 0x3f71_736e_893c_f462);
        assert_eq!(
            r.stats,
            EventStats {
                transfers: 64512,
                requeues: 270_524,
            }
        );
    }
}
