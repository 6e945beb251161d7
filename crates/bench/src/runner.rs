//! Kernel execution helpers shared by the experiments.

use hpsparse_core::baselines::{sddmm_by_id, spmm_by_id, SDDMM_IDS, SPMM_IDS};
use hpsparse_core::hp::{HpFusedMha, HpSddmm, HpSpmm};
use hpsparse_core::traits::{SddmmKernel, SpmmKernel};
use hpsparse_datasets::{full_graph_dataset, store};
use hpsparse_sim::{DeviceSpec, GpuSim, LaunchReport};
use hpsparse_sparse::{Dense, FormatError, Graph, Hybrid};

/// One kernel's timing on one input.
#[derive(Debug, Clone)]
pub struct KernelTiming {
    /// Kernel name (paper's labels).
    pub kernel: String,
    /// Execution time, milliseconds (simulated device time).
    pub exec_ms: f64,
    /// Preprocessing time, milliseconds (0 for preprocessing-free).
    pub preprocess_ms: f64,
    /// Throughput in GFLOP/s (2·NNZ·K flops over exec time).
    pub gflops: f64,
    /// L2 hit rate of the execution launch.
    pub l2_hit_rate: f64,
}

/// The SpMM baselines of Fig. 9/10 (ours is run separately so callers can
/// position it first).
pub fn spmm_contenders() -> Vec<Box<dyn SpmmKernel>> {
    [
        "cusparse-csr-alg2",
        "cusparse-csr-alg3",
        "cusparse-coo-alg4",
        "gespmm",
        "row-split",
    ]
    .iter()
    .map(|id| spmm_by_id(id).expect("paper contender ids are registered"))
    .collect()
}

/// The SDDMM baselines of Fig. 9/10.
pub fn sddmm_contenders() -> Vec<Box<dyn SddmmKernel>> {
    ["dgl-sddmm", "cusparse-csr-sddmm"]
        .iter()
        .map(|id| sddmm_by_id(id).expect("paper contender ids are registered"))
        .collect()
}

/// Deterministic feature matrix for kernel benchmarks.
pub fn bench_features(rows: usize, k: usize) -> Dense {
    Dense::from_fn(rows, k, |i, j| (((i * 131 + j * 17) % 1000) as f32) * 1e-3)
}

/// Every full-graph registry dataset, capped at `edge_cap` edges, as
/// `(name, matrix)` pairs in registry order.
pub fn registry_graphs(edge_cap: usize) -> Vec<(&'static str, Hybrid)> {
    full_graph_dataset()
        .into_iter()
        .map(|spec| (spec.name, store::graph(&spec, edge_cap).to_hybrid()))
        .collect()
}

/// Every kernel the registry sweeps (`verify`, `fastcheck`, the
/// attribution test) cover, in report order: HP-SpMM, the SpMM
/// baselines, HP-SDDMM, the SDDMM baselines, then fused attention.
pub fn sweep_ids() -> Vec<&'static str> {
    std::iter::once("hp-spmm")
        .chain(SPMM_IDS)
        .chain(["hp-sddmm"])
        .chain(SDDMM_IDS)
        .chain(["hp-fused-mha"])
        .collect()
}

/// Attention heads the fused kernel runs with in sweeps: two, so the
/// multi-head indexing is exercised.
const SWEEP_HEADS: usize = 2;

/// Runs sweep kernel `id` (one of [`sweep_ids`]) on `sim` over `s` at
/// feature width `k` and returns its launch reports. HP kernels take the
/// `auto` configuration for the simulator's device. Operands are
/// [`bench_features`]: `cols × k` for SpMM, `(rows × k, cols × k)` for
/// SDDMM, and two heads of `rows × k` queries over `cols × k` keys/values
/// for fused attention.
///
/// # Panics
/// On an id outside [`sweep_ids`].
pub fn run_sweep_kernel(
    id: &str,
    sim: &mut GpuSim,
    s: &Hybrid,
    k: usize,
) -> Result<Vec<LaunchReport>, FormatError> {
    let spmm = |kernel: &dyn SpmmKernel, sim: &mut GpuSim| {
        kernel
            .run_on(sim, s, &bench_features(s.cols(), k))
            .map(|run| vec![run.report])
    };
    let sddmm = |kernel: &dyn SddmmKernel, sim: &mut GpuSim| {
        let (a1, a2t) = (bench_features(s.rows(), k), bench_features(s.cols(), k));
        kernel.run_on(sim, s, &a1, &a2t).map(|run| vec![run.report])
    };
    match id {
        "hp-spmm" => spmm(&HpSpmm::auto(sim.device(), s, k), sim),
        "hp-sddmm" => sddmm(&HpSddmm::auto(sim.device(), s, k), sim),
        "hp-fused-mha" => {
            let q = vec![bench_features(s.rows(), k); SWEEP_HEADS];
            let kv = vec![bench_features(s.cols(), k); SWEEP_HEADS];
            HpFusedMha::auto(sim.device(), s, k)
                .run_on(sim, s, &q, &kv, &kv)
                .map(|run| run.reports)
        }
        _ => match (spmm_by_id(id), sddmm_by_id(id)) {
            (Some(kernel), _) => spmm(kernel.as_ref(), sim),
            (_, Some(kernel)) => sddmm(kernel.as_ref(), sim),
            _ => panic!("unknown sweep kernel {id}"),
        },
    }
}

/// Runs one SpMM kernel cold and converts its run into a [`KernelTiming`].
pub fn time_spmm(
    kernel: &dyn SpmmKernel,
    device: &DeviceSpec,
    s: &Hybrid,
    a: &Dense,
) -> KernelTiming {
    let run = kernel
        .run(device, s, a)
        .expect("benchmark shapes are valid");
    let flops = 2.0 * s.nnz() as f64 * a.cols() as f64;
    KernelTiming {
        kernel: kernel.name().to_string(),
        exec_ms: run.exec_ms(),
        preprocess_ms: run.preprocess_ms(),
        gflops: flops / (run.exec_ms() * 1e6),
        l2_hit_rate: run.report.l2_hit_rate,
    }
}

/// Runs HP-SpMM (auto DTP + HVMA) cold.
pub fn time_hp_spmm(device: &DeviceSpec, s: &Hybrid, a: &Dense) -> KernelTiming {
    let kernel = HpSpmm::auto(device, s, a.cols());
    time_spmm(&kernel, device, s, a)
}

/// Runs one SDDMM kernel cold.
pub fn time_sddmm(
    kernel: &dyn SddmmKernel,
    device: &DeviceSpec,
    s: &Hybrid,
    a1: &Dense,
    a2t: &Dense,
) -> KernelTiming {
    let run = kernel
        .run(device, s, a1, a2t)
        .expect("benchmark shapes are valid");
    let flops = 2.0 * s.nnz() as f64 * a1.cols() as f64;
    KernelTiming {
        kernel: kernel.name().to_string(),
        exec_ms: run.exec_ms(),
        preprocess_ms: run.preprocess.as_ref().map_or(0.0, |p| p.time_ms),
        gflops: flops / (run.exec_ms() * 1e6),
        l2_hit_rate: run.report.l2_hit_rate,
    }
}

/// Runs HP-SDDMM (auto) cold.
pub fn time_hp_sddmm(device: &DeviceSpec, s: &Hybrid, a1: &Dense, a2t: &Dense) -> KernelTiming {
    let kernel = HpSddmm::auto(device, s, a1.cols());
    time_sddmm(&kernel, device, s, a1, a2t)
}

/// Converts a graph into the operand set for kernel benchmarks.
pub fn operands(g: &Graph, k: usize) -> (Hybrid, Dense, Dense, Dense) {
    let s = g.to_hybrid();
    let a = bench_features(s.cols(), k);
    let a1 = bench_features(s.rows(), k);
    let a2t = bench_features(s.cols(), k);
    (s, a, a1, a2t)
}

/// Geometric mean (the right average for speedup ratios).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpsparse_datasets::generators::{GeneratorConfig, Topology};

    #[test]
    fn contender_sets_match_the_paper() {
        let spmm: Vec<String> = spmm_contenders().iter().map(|k| k.name().into()).collect();
        assert!(spmm.contains(&"cuSPARSE(CSR,ALG2)".to_string()));
        assert!(spmm.contains(&"GE-SpMM".to_string()));
        assert!(spmm.contains(&"Row-split".to_string()));
        let sddmm: Vec<String> = sddmm_contenders().iter().map(|k| k.name().into()).collect();
        assert!(sddmm.contains(&"DGL-SDDMM".to_string()));
    }

    #[test]
    fn timing_roundtrip_on_small_graph() {
        let g = GeneratorConfig {
            nodes: 500,
            edges: 4000,
            topology: Topology::PowerLaw { alpha: 2.2 },
            seed: 1,
        }
        .generate();
        let (s, a, a1, a2t) = operands(&g, 32);
        let v100 = DeviceSpec::v100();
        let hp = time_hp_spmm(&v100, &s, &a);
        assert!(hp.exec_ms > 0.0);
        assert!(hp.gflops > 0.0);
        let sd = time_hp_sddmm(&v100, &s, &a1, &a2t);
        assert!(sd.exec_ms > 0.0);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-9);
    }
}
