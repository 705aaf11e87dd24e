//! Discrete-event simulator of NCCL-style collectives on a two-tier
//! (NVSwitch + InfiniBand) fabric: ring, tree and hierarchical schedules
//! over a generalized link topology.
//!
//! This crate is the repo's stand-in for the paper's *empirical* NCCL
//! measurements on Perlmutter (Fig. A1): where the paper validates its
//! analytic communication-time formulas against `nccl-tests`, we validate
//! them against an explicit piece-level simulation of the schedules the
//! formulas approximate.
//!
//! # Architecture
//!
//! * [`Topology`] is the engine's only view of the fabric: a flat list of
//!   directed [`Link`]s (each `Fast` NVLink or `Slow` NIC, with latency
//!   and per-rail bandwidth) plus a rail count. Multi-rail — NCCL running
//!   one ring/tree per engaged NIC — is expressed at lowering time: the
//!   rails share the fast tier (`β_f/rails` per rail) while each drives
//!   its own NIC, and the collective's volume is split `1/rails`. All
//!   rails are statistically identical, so one representative rail is
//!   simulated (not one ring per NIC as the pre-generalization module doc
//!   used to claim).
//! * The engine (`simulate_flows` internally) executes *flows* — a
//!   tensor pipelined in pieces along a path of links — with cross-flow
//!   per-piece dependencies, which is enough to express ring pipelines,
//!   reduce-tree joins and broadcast-tree chains in one event loop. A
//!   piece is forwarded as soon as it has been received and its link is
//!   free; a piece that finds its link busy waits in that link's queue,
//!   ordered by `(flow, hop, piece)`, and only the queue's head occupies
//!   the global event heap.
//! * [`RingTopology`] and [`TreeTopology`] know the *shape* of their
//!   schedule (domain-major ring boundaries, domain-major binary tree
//!   parents) and lower into the generic [`Topology`].
//! * [`simulate_collective`] builds the flow schedule for a collective:
//!   ring AG/RS/AR, rooted Broadcast/Reduce (with an explicit
//!   [`RootPosition`]), tree AllReduce (reduce-up + broadcast-down),
//!   hierarchical AllReduce (intra-domain RS, inter-domain AR over the
//!   NICs, intra-domain AG) and AllToAll (store-and-forward ring routing
//!   or dependency-chained pairwise exchange — the MoE expert-dispatch
//!   collective), selected by [`SimOptions::algorithm`] —
//!   [`Algorithm::Auto`] executes every applicable schedule and keeps the
//!   fastest, as NCCL's autotuner would.
#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod algorithms;
mod engine;
mod topology;

pub use algorithms::{simulate_collective, simulate_collective_derated, RootPosition, SimOptions};
pub use collectives::Algorithm;
pub use engine::{EventStats, SimError, SimResult};
pub use topology::{Link, LinkKind, RingTopology, Topology, TreeTopology};

#[cfg(test)]
mod validation_tests {
    //! Cross-validation of the analytic formulas (collectives crate)
    //! against the DES — the Fig. A1 experiment in unit-test form, for
    //! every algorithm and collective.
    use crate::{simulate_collective, Algorithm, RootPosition, SimOptions};
    use collectives::{
        allreduce_hierarchical_time, allreduce_tree_time, alltoall_pairwise_time,
        alltoall_ring_time, collective_time, Collective, CommGroup,
    };
    use systems::{perlmutter, system, GpuGeneration, NvsSize};

    /// Relative error |sim − analytic| / analytic.
    fn rel_err_opts(
        coll: Collective,
        volume: f64,
        size: u64,
        per_domain: u64,
        opts: &SimOptions,
    ) -> f64 {
        let sys = perlmutter(per_domain);
        let group = CommGroup::new(size, per_domain);
        let analytic = match opts.algorithm {
            Algorithm::Ring | Algorithm::Auto => collective_time(coll, volume, group, &sys),
            Algorithm::Tree => allreduce_tree_time(volume, group, &sys),
            Algorithm::Hierarchical => allreduce_hierarchical_time(volume, group, &sys),
        };
        let sim = simulate_collective(coll, volume, group, &sys, opts).time;
        (sim - analytic).abs() / analytic
    }

    fn rel_err(coll: Collective, volume: f64, size: u64, per_domain: u64) -> f64 {
        rel_err_opts(coll, volume, size, per_domain, &SimOptions::default())
    }

    #[test]
    fn allgather_matches_analytic_at_large_volume() {
        // Bandwidth-dominated regime: the ring model should match closely.
        for &v in &[256e6, 1e9, 8e9] {
            let e = rel_err(Collective::AllGather, v, 32, 4);
            assert!(e < 0.15, "volume {v:.0}: error {e:.3}");
        }
    }

    #[test]
    fn allgather_matches_analytic_at_small_volume() {
        // Latency-dominated regime.
        for &v in &[64e3, 1e6] {
            let e = rel_err(Collective::AllGather, v, 32, 4);
            assert!(e < 0.35, "volume {v:.0}: error {e:.3}");
        }
    }

    #[test]
    fn nvl4_beats_nvl2_in_simulation() {
        // The Fig. A1 headline: more GPUs per node → more NICs → faster.
        let v = 1e9;
        let t2 = simulate_collective(
            Collective::AllGather,
            v,
            CommGroup::new(32, 2),
            &perlmutter(2),
            &SimOptions::default(),
        )
        .time;
        let t4 = simulate_collective(
            Collective::AllGather,
            v,
            CommGroup::new(32, 4),
            &perlmutter(4),
            &SimOptions::default(),
        )
        .time;
        assert!(t4 < t2, "NVL4 {t4} should beat NVL2 {t2}");
    }

    #[test]
    fn allreduce_roughly_doubles_allgather() {
        let sys = system(GpuGeneration::A100, NvsSize::Nvs4);
        let g = CommGroup::new(16, 4);
        let opts = SimOptions::default();
        let ag = simulate_collective(Collective::AllGather, 1e9, g, &sys, &opts).time;
        let ar = simulate_collective(Collective::AllReduce, 1e9, g, &sys, &opts).time;
        let ratio = ar / ag;
        assert!(ratio > 1.7 && ratio < 2.3, "ratio {ratio}");
    }

    #[test]
    fn intra_domain_collectives_also_agree() {
        let e = rel_err(Collective::ReduceScatter, 512e6, 4, 4);
        assert!(e < 0.15, "error {e:.3}");
    }

    #[test]
    fn ring_latency_semantics_pin_des_to_analytic() {
        // The slow-hop reconciliation (per-shard-traversal semantics): in
        // the latency-dominated regime the DES completes the AllGather at
        // the worst shard's path latency — one extra slow boundary, i.e.
        // α_s − α_f above the analytic `domains − 1` charge — so the two
        // must agree tightly, not just within the loose generic bound.
        for (size, per) in [(32u64, 4u64), (64, 4), (16, 2)] {
            let e = rel_err(Collective::AllGather, 64.0, size, per);
            assert!(e < 0.1, "({size},{per}): error {e:.3}");
        }
    }

    #[test]
    fn tree_allreduce_matches_analytic() {
        // Rooted/tree schedules move the full tensor through a multi-hop
        // path; pieces must outnumber the depth for the store-and-forward
        // correction (≈ depth/pieces) to vanish.
        let opts = SimOptions {
            algorithm: Algorithm::Tree,
            pieces: 64,
            ..SimOptions::default()
        };
        // Bandwidth-dominated.
        for &v in &[256e6, 2e9] {
            let e = rel_err_opts(Collective::AllReduce, v, 32, 4, &opts);
            assert!(e < 0.15, "volume {v:.0}: error {e:.3}");
        }
        // Latency-dominated.
        for &v in &[64e3, 1e6] {
            let e = rel_err_opts(Collective::AllReduce, v, 32, 4, &opts);
            assert!(e < 0.35, "volume {v:.0}: error {e:.3}");
        }
    }

    #[test]
    fn hierarchical_allreduce_matches_analytic() {
        let opts = SimOptions {
            algorithm: Algorithm::Hierarchical,
            ..SimOptions::default()
        };
        for &v in &[256e6, 2e9] {
            let e = rel_err_opts(Collective::AllReduce, v, 32, 4, &opts);
            assert!(e < 0.15, "volume {v:.0}: error {e:.3}");
        }
        for &v in &[64e3, 1e6] {
            let e = rel_err_opts(Collective::AllReduce, v, 32, 4, &opts);
            assert!(e < 0.35, "volume {v:.0}: error {e:.3}");
        }
    }

    #[test]
    fn broadcast_and_reduce_match_analytic() {
        // The validation gap fix: rooted collectives were never
        // cross-validated. With the best-case root (the analytic model's
        // assumption) and fine chunking, both regimes must agree.
        let opts = SimOptions {
            pieces: 256,
            root: RootPosition::Best,
            ..SimOptions::default()
        };
        for coll in [Collective::Broadcast, Collective::Reduce] {
            for &v in &[256e6, 2e9] {
                let e = rel_err_opts(coll, v, 32, 4, &opts);
                assert!(e < 0.2, "{coll:?} volume {v:.0}: error {e:.3}");
            }
            for &v in &[64e3, 1e6] {
                let e = rel_err_opts(coll, v, 32, 4, &opts);
                assert!(e < 0.35, "{coll:?} volume {v:.0}: error {e:.3}");
            }
        }
    }

    #[test]
    fn ring_alltoall_matches_analytic() {
        // Same tolerance band as the PR-3 ring/tree/hier cross-validation:
        // <15% bandwidth-dominated, <35% latency-dominated.
        let opts = SimOptions::default(); // Ring
        for &v in &[256e6, 2e9] {
            let sys = perlmutter(4);
            let group = CommGroup::new(32, 4);
            let ana = alltoall_ring_time(v, group, &sys);
            let sim = simulate_collective(Collective::AllToAll, v, group, &sys, &opts).time;
            let e = (sim - ana).abs() / ana;
            assert!(e < 0.15, "volume {v:.0}: error {e:.3}");
        }
        for &v in &[64e3, 1e6] {
            let sys = perlmutter(4);
            let group = CommGroup::new(32, 4);
            let ana = alltoall_ring_time(v, group, &sys);
            let sim = simulate_collective(Collective::AllToAll, v, group, &sys, &opts).time;
            let e = (sim - ana).abs() / ana;
            assert!(e < 0.35, "volume {v:.0}: error {e:.3}");
        }
    }

    #[test]
    fn pairwise_alltoall_matches_analytic() {
        let opts = SimOptions {
            algorithm: Algorithm::Hierarchical, // non-ring → pairwise
            pieces: 64,
            ..SimOptions::default()
        };
        let sys = perlmutter(4);
        let group = CommGroup::new(32, 4);
        for &v in &[256e6, 2e9] {
            let ana = alltoall_pairwise_time(v, group, &sys);
            let sim = simulate_collective(Collective::AllToAll, v, group, &sys, &opts).time;
            let e = (sim - ana).abs() / ana;
            assert!(e < 0.15, "volume {v:.0}: error {e:.3}");
        }
        for &v in &[64e3, 1e6] {
            let ana = alltoall_pairwise_time(v, group, &sys);
            let sim = simulate_collective(Collective::AllToAll, v, group, &sys, &opts).time;
            let e = (sim - ana).abs() / ana;
            assert!(e < 0.35, "volume {v:.0}: error {e:.3}");
        }
    }

    #[test]
    fn alltoall_auto_crossover_tracks_analytic() {
        // The ring/pairwise crossover: pairwise wins the bandwidth regime
        // (no forwarding), ring wins the many-domain latency regime (d−1
        // slow hops vs n−p handshakes) — and simulated auto is never
        // slower than either simulated schedule.
        let sys = system(GpuGeneration::B200, NvsSize::Nvs8);
        let g = CommGroup::new(64, 8);
        let base = SimOptions {
            pieces: 64,
            ..SimOptions::default()
        };
        for &v in &[4096.0, 1e6, 1e9, 8e9] {
            let ring = simulate_collective(Collective::AllToAll, v, g, &sys, &base).time;
            let pw = simulate_collective(
                Collective::AllToAll,
                v,
                g,
                &sys,
                &SimOptions {
                    algorithm: Algorithm::Hierarchical,
                    ..base
                },
            )
            .time;
            let auto = simulate_collective(
                Collective::AllToAll,
                v,
                g,
                &sys,
                &SimOptions {
                    algorithm: Algorithm::Auto,
                    ..base
                },
            )
            .time;
            assert!(auto <= ring.min(pw) + 1e-15, "volume {v:.0}");
            let ana_ring = alltoall_ring_time(v, g, &sys);
            let ana_pw = alltoall_pairwise_time(v, g, &sys);
            if ana_pw < 0.8 * ana_ring {
                assert!(pw < ring, "volume {v:.0}: analytic picks pairwise");
            } else if ana_ring < 0.8 * ana_pw {
                assert!(ring < pw, "volume {v:.0}: analytic picks ring");
            }
        }
    }

    #[test]
    fn simulated_crossover_tracks_analytic_crossover() {
        // The algorithm-selection story end to end: at latency-bound scale
        // the simulated tree beats the simulated ring exactly where the
        // analytic auto-selection switches, and auto is never slower than
        // ring in either world.
        let sys = perlmutter(4);
        let g = CommGroup::new(64, 4);
        for &v in &[4096.0, 1e6, 1e9] {
            let base = SimOptions {
                pieces: 64,
                ..SimOptions::default()
            };
            let ring = simulate_collective(Collective::AllReduce, v, g, &sys, &base).time;
            let auto = simulate_collective(
                Collective::AllReduce,
                v,
                g,
                &sys,
                &SimOptions {
                    algorithm: Algorithm::Auto,
                    ..base
                },
            )
            .time;
            assert!(auto <= ring + 1e-15, "volume {v:.0}");
            let ana_ring = collective_time(Collective::AllReduce, v, g, &sys);
            let ana_tree = allreduce_tree_time(v, g, &sys);
            let sim_tree = simulate_collective(
                Collective::AllReduce,
                v,
                g,
                &sys,
                &SimOptions {
                    algorithm: Algorithm::Tree,
                    ..base
                },
            )
            .time;
            if ana_tree < 0.8 * ana_ring {
                assert!(sim_tree < ring, "volume {v:.0}: analytic picks tree");
            } else if ana_ring < 0.8 * ana_tree {
                assert!(ring < sim_tree, "volume {v:.0}: analytic picks ring");
            }
        }
    }
}

#[cfg(test)]
mod serde_roundtrip {
    use super::*;
    use collectives::{Collective, CommGroup};
    use systems::{system, GpuGeneration, NvsSize};

    #[test]
    fn sim_result_survives_json() {
        let sys = system(GpuGeneration::A100, NvsSize::Nvs8);
        let r = simulate_collective(
            Collective::AllGather,
            1e8,
            CommGroup::new(16, 8),
            &sys,
            &SimOptions::default(),
        );
        let back: SimResult = serde_json::from_str(&serde_json::to_string(&r).unwrap()).unwrap();
        assert_eq!(back, r);
        assert!(back.stats.transfers > 0);
    }

    #[test]
    fn sim_options_survive_json_for_every_algorithm_and_root() {
        for algorithm in Algorithm::ALL {
            for root in [
                RootPosition::Best,
                RootPosition::Worst,
                RootPosition::Average,
            ] {
                let o = SimOptions {
                    pieces: 3,
                    algorithm,
                    root,
                };
                let back: SimOptions =
                    serde_json::from_str(&serde_json::to_string(&o).unwrap()).unwrap();
                assert_eq!(back, o);
            }
        }
    }

    #[test]
    fn topologies_survive_json() {
        let sys = system(GpuGeneration::A100, NvsSize::Nvs4);
        let ring = RingTopology::build(CommGroup::new(16, 4), &sys);
        let back: RingTopology =
            serde_json::from_str(&serde_json::to_string(&ring).unwrap()).unwrap();
        assert_eq!(back, ring);
        let tree = TreeTopology::build(CommGroup::new(16, 4), &sys);
        let back: TreeTopology =
            serde_json::from_str(&serde_json::to_string(&tree).unwrap()).unwrap();
        assert_eq!(back, tree);
        let lowered = tree.topology();
        let back: Topology =
            serde_json::from_str(&serde_json::to_string(&lowered).unwrap()).unwrap();
        assert_eq!(back, lowered);
    }
}
