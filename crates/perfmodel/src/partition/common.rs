//! Shared machinery for the per-strategy layer builders.

use crate::plan::{CommPattern, LayerProfile, TpGroup};
use crate::timing::{op_time, ComputeUnit};
use collectives::Collective;
use systems::GpuSpec;
use txmodel::{vector_op, MatmulShape, OpCost, VectorOpKind, BYTES_PER_ELEM};

/// Backward GEMM cost factor: two transposed GEMMs (`∂A = ∂C·Bᵀ`,
/// `∂B = Aᵀ·∂C`) of the same shape as the forward product.
pub const GEMM_BWD_FACTOR: f64 = 2.0;

/// Backward vector-op cost factor (paper: backward ≈ 2× forward).
pub const VECTOR_BWD_FACTOR: f64 = 2.0;

/// Backward FlashAttention factor: the fused backward recomputes the
/// attention logits and softmax (≈1× forward) on top of the ≈2× gradient
/// GEMMs, then is discounted slightly because the recompute skips the
/// output write — 2.5× forward is the standard estimate.
pub const FLASH_BWD_FACTOR: f64 = 2.5;

/// FP16 bytes for `elems` tensor elements.
pub fn bytes_of(elems: f64) -> f64 {
    BYTES_PER_ELEM * elems
}

/// Incrementally builds a [`LayerProfile`], adding each op's forward time
/// and the matching backward time/communication in one call.
///
/// The builder knows the parallel grid (`n1`, `n2`, `ep`) so collectives
/// over single-GPU groups are dropped at construction time — a pure-DP
/// configuration produces an empty communication list.
pub struct LayerBuilder<'a> {
    gpu: &'a GpuSpec,
    n1: u64,
    n2: u64,
    ep: u64,
    profile: LayerProfile,
}

impl<'a> LayerBuilder<'a> {
    pub fn new(gpu: &'a GpuSpec, n1: u64, n2: u64, ep: u64) -> Self {
        Self {
            gpu,
            n1: n1.max(1),
            n2: n2.max(1),
            ep: ep.max(1),
            profile: LayerProfile::default(),
        }
    }

    /// Size of the given parallel group on this builder's grid.
    fn group_size(&self, group: TpGroup) -> u64 {
        match group {
            TpGroup::N1 => self.n1,
            TpGroup::N2 => self.n2,
            TpGroup::Ep => self.ep,
        }
    }

    /// A plain (non-SUMMA) GEMM: forward cost plus 2× backward.
    pub fn gemm(&mut self, m: u64, k: u64, n: u64) {
        self.batched_gemm(1, m, k, n);
    }

    /// A batched GEMM (one kernel launch).
    pub fn batched_gemm(&mut self, batch: u64, m: u64, k: u64, n: u64) {
        let cost = MatmulShape::batched(batch, m, k, n).cost();
        let fwd = op_time(cost, ComputeUnit::TensorCore, self.gpu, 1);
        self.profile.fwd.add_time(fwd);
        // Backward: two transposed GEMMs, two launches.
        let bwd = op_time(
            cost.scaled(GEMM_BWD_FACTOR),
            ComputeUnit::TensorCore,
            self.gpu,
            2,
        );
        self.profile.bwd.add_time(bwd);
    }

    /// A vector op over `elems` output elements.
    pub fn vector(&mut self, kind: VectorOpKind, elems: f64) {
        let cost = vector_op(kind, elems.round() as u64);
        self.profile
            .fwd
            .add_time(op_time(cost, ComputeUnit::Vector, self.gpu, 1));
        self.profile.bwd.add_time(op_time(
            cost.scaled(VECTOR_BWD_FACTOR),
            ComputeUnit::Vector,
            self.gpu,
            1,
        ));
    }

    /// Fused FlashAttention Logit/Attend over `batch` heads: `QKᵀ`,
    /// softmax and `A·V` fused into one kernel whose HBM traffic is only
    /// the fused inputs (Q, K, V) and output (paper S1 "Fused
    /// Operations"); backward recomputes intermediates.
    pub fn flash_attention(&mut self, batch: u64, lq: u64, lkv: u64, eh: u64, linear: bool) {
        let (flops, sm_elems) = if linear {
            // Linear attention: KᵀV (eh×lkv×eh) then Q·(KᵀV) (lq×eh×eh);
            // no softmax over the full logit matrix.
            let f = MatmulShape::batched(batch, eh, lkv, eh).flops()
                + MatmulShape::batched(batch, lq, eh, eh).flops();
            (f, 0u64)
        } else {
            let f = MatmulShape::batched(batch, lq, eh, lkv).flops()
                + MatmulShape::batched(batch, lq, lkv, eh).flops();
            (f, batch * lq * lkv)
        };
        let sm_flops = VectorOpKind::Softmax.flops_per_elem() * sm_elems as f64;
        // HBM traffic: Q + K + V + output only (intermediates stay in SRAM).
        let io_bytes = bytes_of((batch * (lq * eh + 2 * lkv * eh + lq * eh)) as f64);
        let cost = OpCost {
            flops: flops + sm_flops,
            bytes: io_bytes,
        };
        self.profile
            .fwd
            .add_time(op_time(cost, ComputeUnit::TensorCore, self.gpu, 1));
        self.profile.bwd.add_time(op_time(
            cost.scaled(FLASH_BWD_FACTOR),
            ComputeUnit::TensorCore,
            self.gpu,
            2,
        ));
    }

    /// An exposed collective in the forward pass with its conjugate in the
    /// backward pass (AG ↔ RS; AR stays AR), same volume both ways
    /// (paper Appendix A: transposed matmuls incur conjugate collectives).
    /// Dropped entirely when the target group has a single GPU.
    pub fn collective_pair(&mut self, fwd: Collective, volume: f64, group: TpGroup) {
        if self.group_size(group) <= 1 {
            return;
        }
        let bwd = match fwd {
            Collective::AllGather => Collective::ReduceScatter,
            Collective::ReduceScatter => Collective::AllGather,
            other => other,
        };
        self.profile.fwd.add_comm(fwd, volume, group);
        self.profile.bwd.add_comm(bwd, volume, group);
    }

    /// A backward-only exposed collective (e.g. the ring-attention
    /// re-gather of streamed K/V blocks, which the backward pass must
    /// repeat because the tensors were never materialized). Dropped when
    /// the target group has a single GPU.
    pub fn bwd_collective(&mut self, coll: Collective, volume: f64, group: TpGroup) {
        if self.group_size(group) <= 1 {
            return;
        }
        self.profile.bwd.add_comm(coll, volume, group);
    }

    /// A SUMMA distributed GEMM over the `n1 × n2` grid: local panel
    /// GEMMs with `nb` launches and accumulator re-reads, plus the
    /// overlapped broadcast pattern in both directions. `m_loc`/`n_loc`
    /// are the local C-block dimensions; `k` is the full contraction
    /// dimension (panelled). `vol_a`/`vol_b` are total received bytes per
    /// GPU for the A row-panel (over `group_a`) and B column-panel (over
    /// `group_b`).
    #[expect(
        clippy::too_many_arguments,
        reason = "a SUMMA GEMM is defined by its shape, panel count, two volumes and two groups"
    )]
    pub fn summa_gemm(
        &mut self,
        m_loc: u64,
        k: u64,
        n_loc: u64,
        nb: u64,
        vol_a: f64,
        group_a: TpGroup,
        vol_b: f64,
        group_b: TpGroup,
    ) {
        let nb = nb.max(1);
        let mut cost = MatmulShape::new(m_loc, k, n_loc).cost();
        // Each panel after the first re-reads and re-writes the C
        // accumulator block.
        cost.bytes += 2.0 * bytes_of((m_loc * n_loc) as f64) * (nb - 1) as f64;
        let fwd = op_time(cost, ComputeUnit::TensorCore, self.gpu, nb);
        let fwd_total = fwd.total();
        self.profile.fwd.add_time(fwd);
        // Backward: two transposed SUMMA products (each a Broadcast +
        // Reduce sweep of the same volume); modeled as one overlapped
        // sweep with doubled volumes and doubled panel compute.
        let bwd = op_time(
            cost.scaled(GEMM_BWD_FACTOR),
            ComputeUnit::TensorCore,
            self.gpu,
            2 * nb,
        );
        let bwd_total = bwd.total();
        self.profile.bwd.add_time(bwd);
        // On a degenerate 1×1 grid nothing is communicated.
        if vol_a + vol_b <= 0.0 {
            return;
        }
        self.profile.fwd.comms.push(CommPattern::SummaOverlapped {
            vol_a,
            group_a,
            vol_b,
            group_b,
            panels: nb,
            panel_compute: fwd_total / nb as f64,
        });
        self.profile.bwd.comms.push(CommPattern::SummaOverlapped {
            vol_a: vol_a * GEMM_BWD_FACTOR,
            group_a,
            vol_b: vol_b * GEMM_BWD_FACTOR,
            group_b,
            panels: nb,
            panel_compute: bwd_total / nb as f64,
        });
    }

    /// Records the per-GPU expert-FFN parameter shard of an MoE layer
    /// (kept separate from the dense weights because its gradients
    /// synchronize over `nd/ep` replicas, not the full DP group).
    pub fn set_expert_params(&mut self, expert_weight_params: f64) {
        self.profile.expert_weight_params = expert_weight_params;
        self.profile.expert_weight_bytes = bytes_of(expert_weight_params);
    }

    /// Sets the bookkeeping fields and finishes the profile.
    /// `stored_activation_bytes` and `boundary_bytes` are raw byte counts
    /// (builders mix FP16 tensors, 1-byte dropout masks and FP32 softmax
    /// statistics).
    pub fn finish(
        mut self,
        stored_activation_bytes: f64,
        weight_params: f64,
        boundary_bytes: f64,
        dp_group_multiplier: u64,
    ) -> LayerProfile {
        self.profile.stored_activation_bytes = stored_activation_bytes;
        self.profile.weight_params = weight_params;
        self.profile.weight_bytes = bytes_of(weight_params);
        self.profile.boundary_bytes = boundary_bytes;
        self.profile.dp_group_multiplier = dp_group_multiplier.max(1);
        self.profile
    }

    /// Read-only access to the accumulated forward time.
    #[cfg(test)]
    pub fn fwd_time(&self) -> crate::timing::OpTime {
        self.profile.fwd.time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use systems::GpuGeneration;

    fn gpu() -> GpuSpec {
        GpuGeneration::A100.gpu()
    }

    #[test]
    fn gemm_backward_is_double() {
        let g = gpu();
        let mut b = LayerBuilder::new(&g, 4, 4, 1);
        b.gemm(1024, 1024, 1024);
        let p = b.finish(0.0, 0.0, 0.0, 1);
        // Compute parts: bwd has 2 launches vs 1, and 2× flops.
        let fwd_flop = p.fwd.time.compute - g.flops_latency;
        let bwd_flop = p.bwd.time.compute - 2.0 * g.flops_latency;
        assert!((bwd_flop - 2.0 * fwd_flop).abs() / fwd_flop < 1e-9);
    }

    #[test]
    fn collective_pair_conjugates() {
        let g = gpu();
        let mut b = LayerBuilder::new(&g, 4, 4, 1);
        b.collective_pair(Collective::AllGather, 100.0, TpGroup::N1);
        b.collective_pair(Collective::AllReduce, 50.0, TpGroup::N2);
        let p = b.finish(0.0, 0.0, 0.0, 1);
        match &p.bwd.comms[0] {
            CommPattern::Exposed {
                coll,
                volume,
                group,
            } => {
                assert_eq!(*coll, Collective::ReduceScatter);
                assert_eq!(*volume, 100.0);
                assert_eq!(*group, TpGroup::N1);
            }
            _ => panic!("expected exposed collective"),
        }
        match &p.bwd.comms[1] {
            CommPattern::Exposed { coll, .. } => assert_eq!(*coll, Collective::AllReduce),
            _ => panic!(),
        }
    }

    #[test]
    fn flash_is_cheaper_in_bytes_than_unfused() {
        // Fused L/A must not include the b·h·l·l logit matrix in HBM
        // traffic.
        let g = gpu();
        let mut b = LayerBuilder::new(&g, 4, 4, 1);
        b.flash_attention(16, 2048, 2048, 128, false);
        let p = b.finish(0.0, 0.0, 0.0, 1);
        // io bytes = 16 · (2048·128·4) · 2 = 33.5 MB; the logit matrix
        // alone would be 16·2048²·2 = 134 MB.
        let t_mem_bound = p.fwd.time.memory_excess;
        // Compute-bound on A100 for these shapes: no memory excess.
        assert_eq!(t_mem_bound, 0.0);
    }

    #[test]
    fn linear_attention_flops_scale_with_l_not_l_squared() {
        let g = gpu();
        let quad_time = {
            let mut b = LayerBuilder::new(&g, 4, 4, 1);
            b.flash_attention(1, 65536, 65536, 128, false);
            b.fwd_time().total()
        };
        let lin_time = {
            let mut b = LayerBuilder::new(&g, 4, 4, 1);
            b.flash_attention(1, 65536, 65536, 128, true);
            b.fwd_time().total()
        };
        assert!(lin_time < quad_time / 10.0);
    }

    #[test]
    fn summa_panels_add_launch_overhead() {
        let g = gpu();
        let t = |nb: u64| {
            let mut b = LayerBuilder::new(&g, 4, 4, 1);
            b.summa_gemm(4096, 4096, 4096, nb, 1e6, TpGroup::N1, 1e6, TpGroup::N2);
            b.fwd_time().total()
        };
        assert!(t(16) > t(1));
    }

    #[test]
    fn summa_pattern_records_panel_compute() {
        let g = gpu();
        let mut b = LayerBuilder::new(&g, 4, 4, 1);
        b.summa_gemm(1024, 1024, 1024, 4, 8e5, TpGroup::N1, 8e5, TpGroup::N2);
        let fwd_t = b.fwd_time().total();
        let p = b.finish(0.0, 0.0, 0.0, 1);
        match &p.fwd.comms[0] {
            CommPattern::SummaOverlapped {
                panels,
                panel_compute,
                ..
            } => {
                assert_eq!(*panels, 4);
                assert!((panel_compute * 4.0 - fwd_t).abs() / fwd_t < 1e-9);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn finish_clamps_dp_multiplier() {
        let g = gpu();
        let p = LayerBuilder::new(&g, 1, 1, 1).finish(10.0, 20.0, 5.0, 0);
        assert_eq!(p.dp_group_multiplier, 1);
        assert_eq!(p.stored_activation_bytes, 10.0);
        assert_eq!(p.weight_bytes, 40.0);
        assert_eq!(p.boundary_bytes, 5.0);
    }
}
