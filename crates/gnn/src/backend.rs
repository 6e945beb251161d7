//! Pluggable sparse backends with GPU-time accounting.
//!
//! A backend executes SpMM / SDDMM numerically (the training loop really
//! trains) while accumulating the *simulated* GPU cycles those kernels
//! would take — the quantity Table V compares "w/o HP-SpMM" vs
//! "w/ HP-SpMM". There is one simulated backend, [`SimBackend`], with one
//! cost ledger and three kernel choices: pinned to the HP kernels
//! ([`SimBackend::hp`]), pinned to the framework defaults
//! ([`SimBackend::baseline`]), or planned per sparse shape by the
//! autotuner ([`SimBackend::new`]). [`CpuBackend`] is the numeric
//! reference and accounts nothing. Dense operations (GEMMs, activations)
//! cost the same under every kernel choice, so they are accounted with a
//! roofline estimate shared by all; the speedup ratio then behaves like the
//! paper's NSys-measured total CUDA computation time.
//!
//! # Launch replay
//!
//! Full-graph training issues the same sparse launches every epoch. A
//! kernel run's reports depend only on the kernel and its config, the
//! sparsity structure and the dense shapes (see `hpsparse_sim::launch`),
//! so [`SimBackend`] simulates each distinct run once and replays it after
//! that. The memo key is the op, the kernel (the [`Plan`] when planned,
//! otherwise the pinned choice, which is a function of the rest of the
//! key), the rows, columns and non-zeros, the dense dims (`k`, and the
//! head count for attention) and a 128-bit hash of the row and column
//! indices. A miss simulates and records the run's launches; a hit reruns
//! the kernel bodies numerics-only and takes the recorded reports. Either
//! way the ledger charges the same cycles and the outputs are the same
//! bits. While a sink or a tracer is attached to the backend's simulator
//! the memo is bypassed, so sanitizer runs and traces see every launch.

use hpsparse_autotune::{
    edge_softmax_cycles, instantiate_fused_mha, instantiate_sddmm, instantiate_spmm,
    GraphFingerprint, OpKind, Plan, PlanCache, PlanStrategy, Planner,
};
use hpsparse_core::baselines::{CusparseCsrAlg2, DglSddmm};
use hpsparse_core::cpu;
use hpsparse_core::hp::{HpFusedMha, HpSddmm, HpSpmm};

use crate::gat::edge_softmax;
use hpsparse_core::traits::{SddmmKernel, SpmmKernel};
use hpsparse_sim::{DeviceSpec, GpuSim, LaunchRecording};
use hpsparse_sparse::{Dense, Hybrid};
use std::collections::HashMap;

/// FP32 FMA throughput used for the dense-GEMM roofline, in FLOPs per SM
/// clock (V100: 80 SM × 64 FP32 lanes × 2 ≈ 10240).
fn flops_per_cycle(device: &DeviceSpec) -> f64 {
    device.num_sms as f64 * 64.0 * 2.0
}

/// Roofline cycle estimate of a dense `m×k · k×n` GEMM.
pub fn dense_gemm_cycles(device: &DeviceSpec, m: usize, k: usize, n: usize) -> u64 {
    let flops = 2.0 * m as f64 * k as f64 * n as f64;
    let bytes = 4.0 * (m * k + k * n + m * n) as f64;
    (flops / flops_per_cycle(device))
        .max(bytes / device.dram_bytes_per_cycle)
        .ceil() as u64
}

/// Roofline cycle estimate of an elementwise pass over `elems` floats
/// (read + write).
pub fn elementwise_cycles(device: &DeviceSpec, elems: usize) -> u64 {
    (8.0 * elems as f64 / device.dram_bytes_per_cycle).ceil() as u64
}

/// Fixed per-kernel-launch overhead (driver + runtime), charged once per
/// sparse or dense operation by [`SimBackend`]. Real frameworks
/// issue hundreds of small launches per training iteration; this is what
/// keeps tiny sampled-subgraph iterations from showing implausible
/// kernel-swap speedups (≈ 3.5 µs at V100 clocks). Shared with the
/// autotuner so planned cycle estimates and backend accounting agree.
pub const LAUNCH_OVERHEAD_CYCLES: u64 = hpsparse_autotune::LAUNCH_OVERHEAD_CYCLES;

/// A sparse execution engine with time accounting.
pub trait SparseBackend {
    /// Backend name for reports.
    fn name(&self) -> &'static str;
    /// Computes `O = S·A`, accounting its cost.
    fn spmm(&mut self, s: &Hybrid, a: &Dense) -> Dense;
    /// Computes `S_O = (A1·A2ᵀᵀ) ⊙ S` (with `a2t` transposed), accounting
    /// its cost.
    fn sddmm(&mut self, s: &Hybrid, a1: &Dense, a2t: &Dense) -> Vec<f32>;
    /// Multi-head masked attention: per head `h`,
    /// `O_h = softmax_row((Q_h·K_hᵀ)⊙S / √d) · V_h`, returning the per-head
    /// outputs and softmaxed attention weights (element-aligned with `s`).
    /// Backends either fuse the whole batch into one simulated launch
    /// (HP) or run the three-launch SDDMM → softmax → SpMM pipeline per
    /// head ([`unfused_mha`]); both produce identical numerics.
    fn mha(
        &mut self,
        s: &Hybrid,
        q: &[Dense],
        k: &[Dense],
        v: &[Dense],
    ) -> (Vec<Dense>, Vec<Vec<f32>>);
    /// Adds externally-estimated dense-op cycles to the tally.
    fn account_dense(&mut self, cycles: u64);
    /// Accumulated sparse-kernel cycles.
    fn sparse_cycles(&self) -> u64;
    /// Accumulated dense-op cycles.
    fn dense_cycles(&self) -> u64;
    /// The simulated device.
    fn device(&self) -> &DeviceSpec;
    /// Mutable access to the backing simulator, for attaching observers
    /// (sanitizer sinks, trace sessions, a cluster device index). `None`
    /// for backends with no simulator (CPU).
    fn sim_mut(&mut self) -> Option<&mut GpuSim> {
        None
    }
    /// Total modelled time in milliseconds.
    fn total_ms(&self) -> f64 {
        self.device()
            .cycles_to_ms(self.sparse_cycles() + self.dense_cycles())
    }
    /// Clears the accumulated counters.
    fn reset_counters(&mut self);
}

/// The unfused attention pipeline any backend can fall back to: per head
/// an SDDMM (scores = scaled masked dot products), a host edge softmax
/// (accounted as a rooflined elementwise pass plus a launch), and an SpMM
/// over the attention-weighted adjacency. Numerics match the fused kernel
/// bit for bit — same score formula, same per-row softmax order, same
/// element-order accumulation.
pub fn unfused_mha(
    backend: &mut dyn SparseBackend,
    s: &Hybrid,
    q: &[Dense],
    k: &[Dense],
    v: &[Dense],
) -> (Vec<Dense>, Vec<Vec<f32>>) {
    let device = backend.device().clone();
    let d = q.first().map_or(1, Dense::cols);
    let scale = 1.0 / (d as f32).sqrt();
    let mut outputs = Vec::with_capacity(q.len());
    let mut attn = Vec::with_capacity(q.len());
    for h in 0..q.len() {
        let scores: Vec<f32> = backend
            .sddmm(s, &q[h], &k[h])
            .into_iter()
            .map(|e| e * scale)
            .collect();
        backend.account_dense(edge_softmax_cycles(&device, s.nnz()) + LAUNCH_OVERHEAD_CYCLES);
        let weights = edge_softmax(s.row_indices(), &scores);
        let mut weighted = s.clone();
        weighted.set_values(weights.clone());
        outputs.push(backend.spmm(&weighted, &v[h]));
        attn.push(weights);
    }
    (outputs, attn)
}

/// Which kernels a [`SimBackend`] launches.
enum KernelChoice {
    /// The paper's HP kernels (auto DTP + HVMA per call), fused attention.
    Hp,
    /// The framework defaults the paper replaces: cuSPARSE CSR SpMM (DGL's
    /// default), DGL's edge-parallel SDDMM and unfused attention.
    Baseline,
    /// Planned on first sight of each sparse shape (via
    /// `hpsparse-autotune`), replayed from the cache thereafter.
    Planned {
        planner: Box<Planner>,
        cache: PlanCache,
    },
}

/// Distinct kernel runs a [`SimBackend`] keeps recordings of. When full the
/// memo starts over, which bounds its memory when every call is new (served
/// batches, sampled subgraphs); training reuses a few dozen runs at most.
const MEMO_CAPACITY: usize = 64;

/// What a kernel run's launch reports depend on (see the module docs).
#[derive(PartialEq, Eq, Hash)]
struct RunKey {
    op: OpKind,
    /// The planned kernel id; `None` on a pinned backend.
    kernel_id: Option<String>,
    /// The planned HP config as `(nnz_per_warp, vector_width,
    /// warps_per_block, alpha bits)`.
    config: Option<(usize, u32, u32, u64)>,
    rows: usize,
    cols: usize,
    nnz: usize,
    k: usize,
    heads: usize,
    structure: u128,
}

impl RunKey {
    fn new(op: OpKind, plan: Option<Plan>, s: &Hybrid, k: usize, heads: usize) -> Self {
        let (kernel_id, config) = plan.map_or((None, None), |p| (Some(p.kernel_id), p.config));
        Self {
            op,
            kernel_id,
            config: config.map(|c| {
                (
                    c.nnz_per_warp,
                    c.vector_width,
                    c.warps_per_block,
                    c.alpha.to_bits(),
                )
            }),
            rows: s.rows(),
            cols: s.cols(),
            nnz: s.nnz(),
            k,
            heads,
            structure: structure_hash(s),
        }
    }
}

/// 128-bit hash of the sparsity structure: two independent
/// multiply-rotate lanes over every `(row, col)` pair, in element order.
fn structure_hash(s: &Hybrid) -> u128 {
    let (mut a, mut b) = (0x243f_6a88_85a3_08d3u64, 0x1319_8a2e_0370_7344u64);
    for (&r, &c) in s.row_indices().iter().zip(s.col_indices()) {
        let w = (u64::from(r) << 32) | u64::from(c);
        a = (a ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29);
        b = (b.rotate_left(23) ^ w).wrapping_mul(0xc2b2_ae3d_27d4_eb4f);
    }
    (u128::from(a) << 64) | u128::from(b)
}

/// The simulated backend: runs every sparse op on one [`GpuSim`] and
/// charges exec + preprocessing + launch overhead to one ledger. Only the
/// kernel choice differs between Table V's "w/o HP-SpMM" run
/// ([`SimBackend::baseline`]), its "w/ HP-SpMM" run ([`SimBackend::hp`])
/// and the autotuned run ([`SimBackend::new`]).
///
/// The cost of *planning* — the simulator runs the `Measured` strategy
/// performs — is metered apart in [`SimBackend::planning_cycles`], so
/// reports can show both "steady-state speed" and "price paid to find the
/// plan".
pub struct SimBackend {
    sim: GpuSim,
    choice: KernelChoice,
    sparse_cycles: u64,
    dense_cycles: u64,
    /// Recorded kernel runs (see the module docs).
    memo: HashMap<RunKey, LaunchRecording>,
    launch_replays: u64,
    launch_records: u64,
}

/// Alias of [`SimBackend`] for autotuning code: `AutoBackend::new` builds
/// the planned backend.
pub type AutoBackend = SimBackend;

impl SimBackend {
    fn with_choice(device: DeviceSpec, choice: KernelChoice) -> Self {
        Self {
            sim: GpuSim::new(device),
            choice,
            sparse_cycles: 0,
            dense_cycles: 0,
            memo: HashMap::new(),
            launch_replays: 0,
            launch_records: 0,
        }
    }

    /// Backend pinned to the paper's HP kernels on `device`.
    pub fn hp(device: DeviceSpec) -> Self {
        Self::with_choice(device, KernelChoice::Hp)
    }

    /// Backend pinned to the framework-default kernels on `device`.
    pub fn baseline(device: DeviceSpec) -> Self {
        Self::with_choice(device, KernelChoice::Baseline)
    }

    /// Planned backend with the default (`Measured`) planning strategy and
    /// an empty plan cache.
    pub fn new(device: DeviceSpec) -> Self {
        Self::with_strategy(device, PlanStrategy::default())
    }

    /// Planned backend with an explicit planning strategy.
    pub fn with_strategy(device: DeviceSpec, strategy: PlanStrategy) -> Self {
        Self::with_cache(device, strategy, PlanCache::new())
    }

    /// Planned backend seeded with a pre-populated plan cache (e.g. from
    /// [`PlanCache::load`]); shapes already in the cache replay without a
    /// single planning simulation.
    pub fn with_cache(device: DeviceSpec, strategy: PlanStrategy, cache: PlanCache) -> Self {
        let planner = Box::new(Planner::new(device.clone(), strategy));
        Self::with_choice(device, KernelChoice::Planned { planner, cache })
    }

    fn planner(&self) -> Option<&Planner> {
        match &self.choice {
            KernelChoice::Planned { planner, .. } => Some(planner.as_ref()),
            _ => None,
        }
    }

    /// The plan cache (hit/miss counters included); always empty for the
    /// pinned backends.
    pub fn cache(&self) -> &PlanCache {
        static EMPTY: PlanCache = PlanCache::new();
        match &self.choice {
            KernelChoice::Planned { cache, .. } => cache,
            _ => &EMPTY,
        }
    }

    /// Consumes the backend and returns its cache, e.g. to persist it.
    pub fn into_cache(self) -> PlanCache {
        match self.choice {
            KernelChoice::Planned { cache, .. } => cache,
            _ => PlanCache::new(),
        }
    }

    /// Simulator kernel runs spent planning so far (0 for the pinned
    /// backends, under `Heuristic`, or when every shape hits the cache).
    pub fn planning_sim_launches(&self) -> u64 {
        self.planner().map_or(0, Planner::sim_launches)
    }

    /// Simulated cycles spent planning — kept out of `sparse_cycles`.
    pub fn planning_cycles(&self) -> u64 {
        self.planner().map_or(0, Planner::planning_cycles)
    }

    /// The cached plan for `op` on `s` at feature width `k` (`heads` keys
    /// attention plans only), planning it on a miss. `None` unless the
    /// backend is planned.
    fn plan(&mut self, op: OpKind, s: &Hybrid, k: usize, heads: usize) -> Option<Plan> {
        let KernelChoice::Planned { planner, cache } = &mut self.choice else {
            return None;
        };
        let fp = GraphFingerprint::of(s, k, self.sim.device());
        let key = match op {
            OpKind::FusedMha => fp.mha_key(heads),
            _ => fp.key(),
        };
        if let Some(plan) = cache.get(op, key) {
            return Some(plan.clone());
        }
        let (plan, encoding) = match op {
            OpKind::Spmm => (planner.plan_spmm(s, k), fp.canonical_encoding()),
            OpKind::Sddmm => (planner.plan_sddmm(s, k), fp.canonical_encoding()),
            OpKind::FusedMha => (planner.plan_mha(s, k, heads), fp.mha_encoding(heads)),
        };
        cache.insert(op, key, encoding, plan.clone());
        Some(plan)
    }

    /// Sparse calls answered by replaying a recorded kernel run.
    pub fn launch_replays(&self) -> u64 {
        self.launch_replays
    }

    /// Sparse calls simulated and recorded for later replay. Calls made
    /// while a sink or tracer is attached count as neither.
    pub fn launch_records(&self) -> u64 {
        self.launch_records
    }

    /// Runs one kernel run on the simulator through the launch memo:
    /// replayed if `key` was recorded, simulated and recorded if not, and
    /// simulated directly while a sink or tracer is attached.
    fn memoized<R>(
        &mut self,
        key: impl FnOnce() -> RunKey,
        run: impl FnOnce(&mut GpuSim) -> R,
    ) -> R {
        if self.sim.sink_attached() || self.sim.tracer_attached() {
            return run(&mut self.sim);
        }
        let key = key();
        if let Some(recording) = self.memo.get(&key) {
            self.launch_replays += 1;
            hpsparse_trace::counter_add("gnn.launch_replay.hit", 1);
            return self.sim.replay(recording, run);
        }
        self.launch_records += 1;
        hpsparse_trace::counter_add("gnn.launch_replay.miss", 1);
        let (out, recording) = self.sim.record(run);
        if self.memo.len() >= MEMO_CAPACITY {
            self.memo.clear();
        }
        self.memo.insert(key, recording);
        out
    }

    /// Charges one launch: its execution (plus preprocessing) cycles and
    /// the fixed launch overhead.
    fn charge_launch(&mut self, cycles: u64) {
        self.sparse_cycles += cycles + LAUNCH_OVERHEAD_CYCLES;
    }
}

impl SparseBackend for SimBackend {
    fn name(&self) -> &'static str {
        match self.choice {
            KernelChoice::Hp => "hp",
            KernelChoice::Baseline => "baseline",
            KernelChoice::Planned { .. } => "auto",
        }
    }

    fn spmm(&mut self, s: &Hybrid, a: &Dense) -> Dense {
        let k = a.cols();
        let plan = self.plan(OpKind::Spmm, s, k, 1);
        let kernel: Box<dyn SpmmKernel> = match self.choice {
            KernelChoice::Baseline => Box::new(CusparseCsrAlg2),
            // Pinned HP runs the paper's selector; so does a plan from a
            // stale persisted cache naming a kernel this build doesn't know.
            _ => plan
                .as_ref()
                .and_then(|plan| instantiate_spmm(&plan.candidate()))
                .unwrap_or_else(|| Box::new(HpSpmm::auto(self.sim.device(), s, k))),
        };
        let run = self.memoized(
            || RunKey::new(OpKind::Spmm, plan, s, k, 1),
            |sim| kernel.run_on(sim, s, a).expect("valid dims"),
        );
        self.charge_launch(run.report.cycles + run.preprocess.map_or(0, |p| p.cycles));
        run.output
    }

    fn sddmm(&mut self, s: &Hybrid, a1: &Dense, a2t: &Dense) -> Vec<f32> {
        let k = a1.cols();
        let plan = self.plan(OpKind::Sddmm, s, k, 1);
        let kernel: Box<dyn SddmmKernel> = match self.choice {
            KernelChoice::Baseline => Box::new(DglSddmm),
            _ => plan
                .as_ref()
                .and_then(|plan| instantiate_sddmm(&plan.candidate()))
                .unwrap_or_else(|| Box::new(HpSddmm::auto(self.sim.device(), s, k))),
        };
        let run = self.memoized(
            || RunKey::new(OpKind::Sddmm, plan, s, k, 1),
            |sim| kernel.run_on(sim, s, a1, a2t).expect("valid dims"),
        );
        self.charge_launch(run.report.cycles + run.preprocess.map_or(0, |p| p.cycles));
        run.output_values
    }

    fn mha(
        &mut self,
        s: &Hybrid,
        q: &[Dense],
        k: &[Dense],
        v: &[Dense],
    ) -> (Vec<Dense>, Vec<Vec<f32>>) {
        let head_dim = q.first().map_or(1, Dense::cols);
        let heads = q.len();
        let plan = match self.choice {
            KernelChoice::Baseline => return unfused_mha(self, s, q, k, v),
            _ => self.plan(OpKind::FusedMha, s, head_dim, heads),
        };
        // The unfused pipeline runs the SDDMM and SpMM plans instead.
        if plan
            .as_ref()
            .is_some_and(|plan| !plan.kernel_id.starts_with("hp-fused-mha"))
        {
            return unfused_mha(self, s, q, k, v);
        }
        let kernel = plan
            .as_ref()
            .and_then(|plan| instantiate_fused_mha(&plan.candidate()))
            .unwrap_or_else(|| HpFusedMha::auto(self.sim.device(), s, head_dim));
        let run = self.memoized(
            || RunKey::new(OpKind::FusedMha, plan, s, head_dim, heads),
            |sim| kernel.run_on(sim, s, q, k, v).expect("valid dims"),
        );
        for report in &run.reports {
            self.charge_launch(report.cycles);
        }
        (run.outputs, run.attn)
    }

    fn account_dense(&mut self, cycles: u64) {
        self.dense_cycles += cycles;
    }

    fn sparse_cycles(&self) -> u64 {
        self.sparse_cycles
    }

    fn dense_cycles(&self) -> u64 {
        self.dense_cycles
    }

    fn device(&self) -> &DeviceSpec {
        self.sim.device()
    }

    fn sim_mut(&mut self) -> Option<&mut GpuSim> {
        Some(&mut self.sim)
    }

    fn reset_counters(&mut self) {
        self.sparse_cycles = 0;
        self.dense_cycles = 0;
    }
}

/// Pure-CPU backend (rayon kernels, no GPU accounting): the fastest way to
/// actually train on this machine. `total_ms` reports 0.
pub struct CpuBackend {
    device: DeviceSpec,
}

impl CpuBackend {
    /// Builds the CPU backend (the device spec is kept only so generic
    /// code can query it).
    pub fn new() -> Self {
        Self {
            device: DeviceSpec::v100(),
        }
    }
}

impl Default for CpuBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl SparseBackend for CpuBackend {
    fn name(&self) -> &'static str {
        "cpu"
    }

    fn spmm(&mut self, s: &Hybrid, a: &Dense) -> Dense {
        cpu::par_spmm_hybrid(s, a, 0).expect("valid dims")
    }

    fn sddmm(&mut self, s: &Hybrid, a1: &Dense, a2t: &Dense) -> Vec<f32> {
        cpu::par_sddmm(s, a1, a2t).expect("valid dims")
    }

    fn mha(
        &mut self,
        s: &Hybrid,
        q: &[Dense],
        k: &[Dense],
        v: &[Dense],
    ) -> (Vec<Dense>, Vec<Vec<f32>>) {
        unfused_mha(self, s, q, k, v)
    }

    fn account_dense(&mut self, _cycles: u64) {}

    fn sparse_cycles(&self) -> u64 {
        0
    }

    fn dense_cycles(&self) -> u64 {
        0
    }

    fn device(&self) -> &DeviceSpec {
        &self.device
    }

    fn reset_counters(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpsparse_sparse::reference;

    fn small_graph() -> Hybrid {
        Hybrid::from_triplets(
            6,
            6,
            &[
                (0, 1, 0.5),
                (1, 0, 0.5),
                (2, 3, 1.0),
                (3, 2, 1.0),
                (4, 5, 2.0),
                (5, 4, 2.0),
                (0, 5, 1.0),
            ],
        )
        .unwrap()
    }

    /// One backend per kernel choice: pinned HP, pinned baseline, planned.
    fn sim_backends() -> [SimBackend; 3] {
        [
            SimBackend::hp(DeviceSpec::v100()),
            SimBackend::baseline(DeviceSpec::v100()),
            SimBackend::new(DeviceSpec::v100()),
        ]
    }

    #[test]
    fn all_backends_compute_the_same_spmm() {
        let s = small_graph();
        let a = Dense::from_fn(6, 16, |i, j| ((i * 16 + j) as f32 * 0.05).sin());
        let expected = reference::spmm(&s, &a).unwrap();
        for mut b in sim_backends() {
            let got = b.spmm(&s, &a);
            assert!(got.approx_eq(&expected, 1e-4, 1e-5), "{}", b.name());
            assert!(b.sparse_cycles() > 0, "{}", b.name());
        }
        let mut cpu = CpuBackend::new();
        assert!(cpu.spmm(&s, &a).approx_eq(&expected, 1e-4, 1e-5));
        assert_eq!(cpu.sparse_cycles(), 0);
    }

    #[test]
    fn auto_backend_plans_once_and_replays_from_cache() {
        let s = small_graph();
        let a = Dense::from_fn(6, 16, |i, j| (i + j) as f32);
        let mut auto = AutoBackend::new(DeviceSpec::v100());
        auto.spmm(&s, &a);
        let launches_after_first = auto.planning_sim_launches();
        assert!(launches_after_first > 0, "first sight must plan");
        assert_eq!(auto.cache().misses(), 1);
        // Second call on the same shape: a cache hit must perform zero
        // planning simulations.
        auto.spmm(&s, &a);
        assert_eq!(auto.planning_sim_launches(), launches_after_first);
        assert_eq!(auto.cache().hits(), 1);
        // Planning cost is metered separately from execution.
        assert!(auto.planning_cycles() > 0);
        auto.reset_counters();
        assert_eq!(auto.sparse_cycles(), 0);
        assert!(auto.planning_cycles() > 0, "reset keeps the planning meter");
    }

    #[test]
    fn auto_backend_accepts_a_preloaded_cache() {
        let s = small_graph();
        let a1 = Dense::from_fn(6, 16, |i, j| ((i + j) as f32 * 0.1).cos());
        let a2t = Dense::from_fn(6, 16, |i, j| ((i * 2 + j) as f32 * 0.1).sin());
        let mut cold = AutoBackend::new(DeviceSpec::v100());
        cold.sddmm(&s, &a1, &a2t);
        let cache = cold.into_cache();
        let mut warm = AutoBackend::with_cache(DeviceSpec::v100(), PlanStrategy::default(), cache);
        let expected = reference::sddmm_transposed(&s, &a1, &a2t).unwrap();
        let got = warm.sddmm(&s, &a1, &a2t);
        for (x, y) in got.iter().zip(&expected) {
            assert!((x - y).abs() < 1e-4);
        }
        assert_eq!(warm.planning_sim_launches(), 0, "preloaded plan replays");
        assert_eq!(warm.cache().hits(), 1);
    }

    #[test]
    fn stale_plans_fall_back_to_the_pinned_hp_kernels() {
        let s = small_graph();
        let a = Dense::from_fn(6, 16, |i, j| ((i * 16 + j) as f32 * 0.05).sin());
        let a2t = Dense::from_fn(6, 16, |i, j| ((i * 2 + j) as f32 * 0.1).sin());
        let v100 = DeviceSpec::v100();
        let key = GraphFingerprint::of(&s, 16, &v100).key();
        let mut cache = PlanCache::new();
        for op in [OpKind::Spmm, OpKind::Sddmm] {
            let plan = Plan {
                kernel_id: "kernel-from-a-newer-build".into(),
                config: None,
                predicted_cycles: 1,
                rationale: "stale".into(),
            };
            cache.insert(op, key, "fp".into(), plan);
        }
        let mut stale = AutoBackend::with_cache(v100.clone(), PlanStrategy::default(), cache);
        let mut hp = SimBackend::hp(v100);
        let (out_stale, out_hp) = (stale.spmm(&s, &a), hp.spmm(&s, &a));
        let (sd_stale, sd_hp) = (stale.sddmm(&s, &a, &a2t), hp.sddmm(&s, &a, &a2t));
        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(out_stale.data()), bits(out_hp.data()));
        assert_eq!(bits(&sd_stale), bits(&sd_hp));
        assert_eq!(stale.sparse_cycles(), hp.sparse_cycles());
        assert_eq!(stale.planning_sim_launches(), 0, "stale entries still hit");
    }

    #[test]
    fn corrupt_cache_entries_replan_instead_of_panicking() {
        let s = small_graph();
        let a = Dense::from_fn(6, 16, |i, j| (i + j) as f32);
        let key = GraphFingerprint::of(&s, 16, &DeviceSpec::v100()).key();
        let text = format!(
            r#"{{"version": 1, "entries": [{{"op": "spmm", "key": "{key:016x}",
                "fingerprint": "fp", "kernel_id": "hp:npw=8",
                "config": {{"nnz_per_warp": 8, "vector_width": 0, "warps_per_block": 8,
                            "alpha": 4.0}},
                "predicted_cycles": 1, "rationale": "corrupt"}}]}}"#
        );
        let cache = PlanCache::from_json_str(&text).unwrap();
        let mut auto = AutoBackend::with_cache(DeviceSpec::v100(), PlanStrategy::default(), cache);
        let got = auto.spmm(&s, &a);
        assert!(got.approx_eq(&reference::spmm(&s, &a).unwrap(), 1e-4, 1e-5));
        assert_eq!(auto.cache().misses(), 1, "the corrupt entry is a miss");
        assert!(
            auto.planning_sim_launches() > 0,
            "and the shape is replanned"
        );
    }

    #[test]
    fn backends_accumulate_and_reset() {
        let s = small_graph();
        let a = Dense::from_fn(6, 8, |i, j| (i + j) as f32);
        for mut b in sim_backends() {
            b.spmm(&s, &a);
            let after_one = b.sparse_cycles();
            b.spmm(&s, &a);
            assert!(b.sparse_cycles() > after_one, "{}", b.name());
            b.account_dense(1000);
            assert_eq!(b.dense_cycles(), 1000, "{}", b.name());
            assert!(b.total_ms() > 0.0, "{}", b.name());
            b.reset_counters();
            assert_eq!(b.sparse_cycles(), 0, "{}", b.name());
            assert_eq!(b.dense_cycles(), 0, "{}", b.name());
        }
    }

    #[test]
    fn sim_mut_exposes_the_simulator_where_one_exists() {
        for mut b in sim_backends() {
            b.sim_mut()
                .expect("simulated backends have a sim")
                .set_device_index(2);
            assert_eq!(b.sim_mut().unwrap().device_index(), Some(2), "{}", b.name());
        }
        assert!(CpuBackend::new().sim_mut().is_none());
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn a_structure_change_misses_the_launch_memo() {
        let s = small_graph();
        // Same shape and non-zero count, one column moved.
        let mut triplets: Vec<_> = s.iter().collect();
        triplets[6].1 = 3;
        let moved = Hybrid::from_triplets(6, 6, &triplets).unwrap();
        assert_ne!(moved.col_indices(), s.col_indices());
        let a = Dense::from_fn(6, 16, |i, j| (i + j) as f32);
        for mut b in sim_backends() {
            b.spmm(&s, &a);
            b.spmm(&moved, &a);
            assert_eq!(
                (b.launch_replays(), b.launch_records()),
                (0, 2),
                "{}",
                b.name()
            );
        }
    }

    #[test]
    fn a_value_change_replays_with_fresh_numerics() {
        let s = small_graph();
        let mut reweighted = s.clone();
        reweighted.set_values(s.values().iter().map(|v| v * -1.5 + 0.25).collect());
        let a = Dense::from_fn(6, 16, |i, j| ((i * 16 + j) as f32 * 0.05).sin());
        let a2 = Dense::from_fn(6, 16, |i, j| ((i * 3 + j) as f32 * 0.07).cos());
        for (mut warm, mut cold) in sim_backends().into_iter().zip(sim_backends()) {
            warm.spmm(&s, &a);
            warm.sddmm(&s, &a, &a2);
            let before = warm.sparse_cycles();
            let out = warm.spmm(&reweighted, &a2);
            let sd = warm.sddmm(&reweighted, &a2, &a);
            assert_eq!(warm.launch_replays(), 2, "{}", warm.name());

            let want_out = cold.spmm(&reweighted, &a2);
            let want_sd = cold.sddmm(&reweighted, &a2, &a);
            assert_eq!(cold.launch_replays(), 0, "{}", cold.name());
            assert_eq!(bits(out.data()), bits(want_out.data()), "{}", warm.name());
            assert_eq!(bits(&sd), bits(&want_sd), "{}", warm.name());
            assert_eq!(warm.sparse_cycles() - before, cold.sparse_cycles());
        }
    }

    #[test]
    fn attention_replays_with_fresh_numerics() {
        let s = small_graph();
        let qkv = |salt| {
            (
                heads_for(6, 16, 2, salt),
                heads_for(6, 16, 2, salt + 1),
                heads_for(6, 16, 2, salt + 2),
            )
        };
        let ((q1, k1, v1), (q2, k2, v2)) = (qkv(0), qkv(5));
        for (mut warm, mut cold) in sim_backends().into_iter().zip(sim_backends()) {
            warm.mha(&s, &q1, &k1, &v1);
            let (replays, before) = (warm.launch_replays(), warm.sparse_cycles());
            let (out, attn) = warm.mha(&s, &q2, &k2, &v2);
            assert!(warm.launch_replays() > replays, "{}", warm.name());
            let (want_out, want_attn) = cold.mha(&s, &q2, &k2, &v2);
            for (o, w) in out.iter().zip(&want_out) {
                assert_eq!(bits(o.data()), bits(w.data()), "{}", warm.name());
            }
            assert_eq!(
                bits(&attn.concat()),
                bits(&want_attn.concat()),
                "{}",
                warm.name()
            );
            assert_eq!(warm.sparse_cycles() - before, cold.sparse_cycles());
        }
    }

    #[test]
    fn an_attached_sink_or_tracer_never_replays() {
        use hpsparse_sim::{AccessEvent, AccessSink, BufferDecl};
        struct Quiet;
        impl AccessSink for Quiet {
            fn begin_launch(&mut self, _: &str, _: u64) {}
            fn register_buffer(&mut self, _: &BufferDecl) {}
            fn record(&mut self, _: &AccessEvent) {}
            fn end_launch(&mut self) {}
        }
        let s = small_graph();
        let a = Dense::from_fn(6, 16, |i, j| (i * j) as f32);
        for sink in [true, false] {
            for mut b in sim_backends() {
                let sim = b.sim_mut().unwrap();
                if sink {
                    sim.attach_sink(Box::new(Quiet));
                } else {
                    sim.attach_tracer(hpsparse_trace::TraceSession::new());
                }
                let first = b.spmm(&s, &a);
                let again = b.spmm(&s, &a);
                assert_eq!(bits(first.data()), bits(again.data()));
                assert_eq!(
                    (b.launch_replays(), b.launch_records()),
                    (0, 0),
                    "{}",
                    b.name()
                );
            }
        }
    }

    #[test]
    fn names_follow_the_kernel_choice() {
        let names = sim_backends().map(|b| b.name());
        assert_eq!(names, ["hp", "baseline", "auto"]);
    }

    #[test]
    fn dense_roofline_scales() {
        let v100 = DeviceSpec::v100();
        let small = dense_gemm_cycles(&v100, 100, 32, 32);
        let big = dense_gemm_cycles(&v100, 100_000, 32, 32);
        assert!(big > 100 * small);
        // Compute-bound for large square matrices; memory-bound for skinny.
        let skinny = dense_gemm_cycles(&v100, 1_000_000, 2, 2);
        let bytes_bound =
            (4.0 * (1_000_000.0 * 2.0 + 4.0 + 2_000_000.0) / v100.dram_bytes_per_cycle) as u64;
        assert!(skinny >= bytes_bound);
        assert!(elementwise_cycles(&v100, 1000) > 0);
    }

    #[test]
    fn sddmm_backends_agree() {
        let s = small_graph();
        let a1 = Dense::from_fn(6, 16, |i, j| ((i + j) as f32 * 0.1).cos());
        let a2t = Dense::from_fn(6, 16, |i, j| ((i * 2 + j) as f32 * 0.1).sin());
        let expected = reference::sddmm_transposed(&s, &a1, &a2t).unwrap();
        for mut b in sim_backends() {
            let got = b.sddmm(&s, &a1, &a2t);
            for (x, y) in got.iter().zip(&expected) {
                assert!((x - y).abs() < 1e-4, "{}", b.name());
            }
        }
    }

    fn heads_for(rows: usize, d: usize, heads: usize, salt: usize) -> Vec<Dense> {
        (0..heads)
            .map(|h| {
                Dense::from_fn(rows, d, |i, j| {
                    (((i * 31 + j * 7 + h * 13 + salt * 3) % 17) as f32 - 8.0) * 0.1
                })
            })
            .collect()
    }

    #[test]
    fn mha_backends_agree() {
        let s = small_graph();
        let q = heads_for(6, 16, 2, 0);
        let k = heads_for(6, 16, 2, 1);
        let v = heads_for(6, 16, 2, 2);
        let mut cpu = CpuBackend::new();
        let (expected_out, expected_attn) = cpu.mha(&s, &q, &k, &v);
        for mut b in sim_backends() {
            let (out, attn) = b.mha(&s, &q, &k, &v);
            assert_eq!(out.len(), 2, "{}", b.name());
            for (h, o) in out.iter().enumerate() {
                assert!(
                    o.approx_eq(&expected_out[h], 1e-4, 1e-5),
                    "{} head {h}",
                    b.name()
                );
            }
            for (h, w) in attn.iter().enumerate() {
                for (x, y) in w.iter().zip(&expected_attn[h]) {
                    assert!((x - y).abs() < 1e-4, "{} head {h}", b.name());
                }
            }
            assert!(b.sparse_cycles() > 0, "{}", b.name());
        }
    }

    #[test]
    fn fused_mha_undercuts_the_three_launch_pipeline() {
        let s = small_graph();
        let q = heads_for(6, 16, 2, 0);
        let k = heads_for(6, 16, 2, 1);
        let v = heads_for(6, 16, 2, 2);
        let mut fused = SimBackend::hp(DeviceSpec::v100());
        fused.mha(&s, &q, &k, &v);
        let mut unfused = SimBackend::hp(DeviceSpec::v100());
        unfused_mha(&mut unfused, &s, &q, &k, &v);
        assert!(
            fused.sparse_cycles() < unfused.sparse_cycles(),
            "fused {} must beat unfused {} at two heads",
            fused.sparse_cycles(),
            unfused.sparse_cycles()
        );
    }

    #[test]
    fn auto_backend_caches_mha_plans_per_head_count() {
        let s = small_graph();
        let q = heads_for(6, 16, 2, 0);
        let k = heads_for(6, 16, 2, 1);
        let v = heads_for(6, 16, 2, 2);
        let mut auto = AutoBackend::new(DeviceSpec::v100());
        auto.mha(&s, &q, &k, &v);
        assert_eq!(auto.cache().misses(), 1);
        let launches = auto.planning_sim_launches();
        assert!(launches > 0, "measured strategy must simulate candidates");
        auto.mha(&s, &q, &k, &v);
        assert_eq!(auto.cache().hits(), 1);
        assert_eq!(
            auto.planning_sim_launches(),
            launches,
            "cache hit replans nothing"
        );
        // A different head count is a different knob setting: it replans.
        let q4 = heads_for(6, 16, 4, 0);
        let k4 = heads_for(6, 16, 4, 1);
        let v4 = heads_for(6, 16, 4, 2);
        auto.mha(&s, &q4, &k4, &v4);
        assert_eq!(auto.cache().misses(), 2);
    }
}
