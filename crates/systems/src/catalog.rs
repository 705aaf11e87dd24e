//! Built-in system catalog (paper Table A3).

use crate::{GpuSpec, NetworkSpec, ReliabilitySpec, SystemSpec};

/// GPU generations studied in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GpuGeneration {
    /// NVIDIA A100 (Perlmutter's GPU; the paper's validation platform).
    A100,
    /// NVIDIA H200 (projected system, paper Table A3).
    H200,
    /// NVIDIA B200 (projected system, paper Table A3).
    B200,
}

/// NVSwitch domain sizes studied in the paper (Fig. 5: NVS4/NVS8/NVS64).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NvsSize {
    /// 4 GPUs per NVSwitch domain (one Perlmutter node).
    Nvs4,
    /// 8 GPUs per NVSwitch domain (DGX-style node).
    Nvs8,
    /// 64 GPUs per NVSwitch domain (rail-scale NVLink fabric).
    Nvs64,
}

/// All generations, in release order.
pub const ALL_GENERATIONS: [GpuGeneration; 3] = [
    GpuGeneration::A100,
    GpuGeneration::H200,
    GpuGeneration::B200,
];

/// All NVS domain sizes studied.
pub const ALL_NVS_SIZES: [NvsSize; 3] = [NvsSize::Nvs4, NvsSize::Nvs8, NvsSize::Nvs64];

impl NvsSize {
    /// Number of GPUs in the domain.
    pub fn gpus(self) -> u64 {
        match self {
            NvsSize::Nvs4 => 4,
            NvsSize::Nvs8 => 8,
            NvsSize::Nvs64 => 64,
        }
    }
}

impl GpuGeneration {
    /// Short name as used in figure legends.
    pub fn name(self) -> &'static str {
        match self {
            GpuGeneration::A100 => "A100",
            GpuGeneration::H200 => "H200",
            GpuGeneration::B200 => "B200",
        }
    }

    /// GPU characteristics from paper Table A3.
    pub fn gpu(self) -> GpuSpec {
        match self {
            GpuGeneration::A100 => GpuSpec {
                name: "A100".into(),
                tensor_flops: 312e12,
                vector_flops: 78e12,
                flops_latency: 2e-5,
                hbm_bandwidth: 1555e9,
                hbm_capacity: 80e9,
            },
            GpuGeneration::H200 => GpuSpec {
                name: "H200".into(),
                tensor_flops: 990e12,
                vector_flops: 134e12,
                flops_latency: 2e-5,
                hbm_bandwidth: 4800e9,
                hbm_capacity: 141e9,
            },
            GpuGeneration::B200 => GpuSpec {
                name: "B200".into(),
                tensor_flops: 2500e12,
                vector_flops: 339e12,
                flops_latency: 2e-5,
                hbm_bandwidth: 8000e9,
                hbm_capacity: 192e9,
            },
        }
    }

    /// Network characteristics from paper Table A3: each generation is
    /// coupled to its NVLink generation and ConnectX NIC generation.
    pub fn network(self) -> NetworkSpec {
        let (nvs_bw, ib_bw) = match self {
            GpuGeneration::A100 => (300e9, 25e9),
            GpuGeneration::H200 => (450e9, 50e9),
            GpuGeneration::B200 => (900e9, 100e9),
        };
        NetworkSpec {
            nvs_bandwidth: nvs_bw,
            nvs_latency: 2.5e-6,
            ib_bandwidth: ib_bw,
            ib_latency: 5e-6,
            bandwidth_efficiency: 0.7,
        }
    }
}

/// Builds one of the nine systems studied in the paper
/// (3 GPU generations × 3 NVS domain sizes), e.g. `"B200-NVS8"`.
///
/// The paper assumes one NIC per GPU, so `nics_per_node == nvs_size`.
pub fn system(gen: GpuGeneration, nvs: NvsSize) -> SystemSpec {
    let nvs_gpus = nvs.gpus();
    SystemSpec {
        name: format!("{}-NVS{}", gen.name(), nvs_gpus),
        gpu: gen.gpu(),
        network: gen.network(),
        nvs_size: nvs_gpus,
        nics_per_node: nvs_gpus,
        reliability: ReliabilitySpec::datacenter(),
    }
}

/// A Perlmutter-like A100 partition (paper §IV Empirical Validation and
/// Fig. A1): 4 A100s per node, all-to-all NVLink inside the node, 4
/// SlingShot NICs per node at IB-class bandwidth.
///
/// Perlmutter has no NVSwitch; the paper derives an equivalent fast-domain
/// bandwidth from the number of NVLinks engaged. With all 4 GPUs of a node
/// participating, 12 NVLinks/GPU-pair-group yield roughly NVLink3-class
/// aggregate bandwidth; we expose `nvlink_gpus` so Fig. A1 can model the
/// NVL2 case (2 GPUs/node ⇒ 4 links ⇒ a third of the bandwidth).
pub fn perlmutter(nvlink_gpus: u64) -> SystemSpec {
    // 25 GB/s per NVLink3 link direction; a GPU talking to (g-1) peers in
    // the clique uses 4*(g-1)... Perlmutter pairs GPUs with 4 links each.
    // Effective per-GPU fast bandwidth when g GPUs of the node participate:
    // 4 links/pair * (g-1) pairs * 25 GB/s.
    let links_per_pair = 4.0;
    let per_link = 25e9;
    let g = nvlink_gpus.max(2) as f64;
    let fast_bw = links_per_pair * (g - 1.0) * per_link;
    SystemSpec {
        name: format!("Perlmutter-NVL{}", nvlink_gpus),
        gpu: GpuGeneration::A100.gpu(),
        network: NetworkSpec {
            nvs_bandwidth: fast_bw,
            nvs_latency: 2.5e-6,
            ib_bandwidth: 25e9,
            ib_latency: 5e-6,
            bandwidth_efficiency: 0.7,
        },
        nvs_size: nvlink_gpus,
        // One SlingShot NIC per participating GPU (4 per node total).
        nics_per_node: nvlink_gpus.min(4),
        reliability: ReliabilitySpec::datacenter(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_a3_values() {
        let a = GpuGeneration::A100.gpu();
        assert_eq!(a.tensor_flops, 312e12);
        assert_eq!(a.vector_flops, 78e12);
        assert_eq!(a.hbm_bandwidth, 1555e9);
        assert_eq!(a.hbm_capacity, 80e9);
        let h = GpuGeneration::H200.gpu();
        assert_eq!(h.tensor_flops, 990e12);
        assert_eq!(h.hbm_capacity, 141e9);
        let b = GpuGeneration::B200.gpu();
        assert_eq!(b.tensor_flops, 2500e12);
        assert_eq!(b.hbm_bandwidth, 8000e9);
    }

    #[test]
    fn network_scales_across_generations() {
        // Paper: NVLink and IB bandwidth increase proportionally.
        let a = GpuGeneration::A100.network();
        let b = GpuGeneration::B200.network();
        assert!((b.nvs_bandwidth / a.nvs_bandwidth - 3.0).abs() < 1e-9);
        assert!((b.ib_bandwidth / a.ib_bandwidth - 4.0).abs() < 1e-9);
    }

    #[test]
    fn system_names_follow_legend_format() {
        assert_eq!(system(GpuGeneration::B200, NvsSize::Nvs8).name, "B200-NVS8");
        assert_eq!(
            system(GpuGeneration::A100, NvsSize::Nvs64).name,
            "A100-NVS64"
        );
    }

    #[test]
    fn nine_systems_are_distinct() {
        let mut names = std::collections::BTreeSet::new();
        for g in ALL_GENERATIONS {
            for s in ALL_NVS_SIZES {
                names.insert(system(g, s).name);
            }
        }
        assert_eq!(names.len(), 9);
    }

    #[test]
    fn perlmutter_nvl4_has_more_fast_bandwidth_than_nvl2() {
        let p4 = perlmutter(4);
        let p2 = perlmutter(2);
        assert!(p4.network.nvs_bandwidth > p2.network.nvs_bandwidth);
        assert_eq!(p4.nics_per_node, 4);
        assert_eq!(p2.nics_per_node, 2);
    }

    #[test]
    fn nvs_size_gpus() {
        assert_eq!(NvsSize::Nvs4.gpus(), 4);
        assert_eq!(NvsSize::Nvs8.gpus(), 8);
        assert_eq!(NvsSize::Nvs64.gpus(), 64);
    }
}
