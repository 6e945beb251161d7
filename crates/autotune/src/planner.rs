//! The planner: turns a fingerprinted input into an explainable [`Plan`].
//!
//! Two strategies, per the subsystem design:
//!
//! * [`PlanStrategy::Heuristic`] — rank every candidate with the analytic
//!   cost model ([`crate::cost`]) and take the top. Zero simulator time.
//! * [`PlanStrategy::Measured`] — rank heuristically, then run the top
//!   `top_n` candidates on a cold [`GpuSim`] against the *actual* matrix
//!   and pick by measured cycles. The heuristic's top pick is always in
//!   the measured set, so `Measured` never chooses a kernel worse than
//!   `Heuristic`'s (a property the test suite pins down).
//!
//! Planning is deterministic: candidate enumeration order is fixed, the
//! measurement features are a fixed function of shape, every simulator run
//! starts cold, and ties break toward the better heuristic rank.

use hpsparse_core::hp::{HpConfig, HpFusedMha, HpSddmm, HpSpmm};
use hpsparse_core::traits::{SddmmKernel, SpmmKernel};
use hpsparse_sim::{CostEngine, DeviceSpec, GpuSim};
use hpsparse_sparse::{Dense, Hybrid};

use crate::candidates::{
    instantiate_fused_mha, instantiate_sddmm, instantiate_spmm, mha_candidates, sddmm_candidates,
    spmm_candidates, Candidate,
};
use crate::cost::{
    edge_softmax_cycles, mha_cost, sddmm_bound_hint, sddmm_cost, spmm_bound_hint, spmm_cost,
    LAUNCH_OVERHEAD_CYCLES,
};
use crate::fingerprint::GraphFingerprint;

/// How the planner searches the candidate space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanStrategy {
    /// Analytic cost model only — instant, no simulation.
    Heuristic,
    /// Measure the `top_n` heuristic candidates — plus the paper-auto
    /// incumbent, wherever it ranked — on the simulator with the actual
    /// matrix; pick by measured cycles (exec + preprocessing).
    Measured {
        /// How many heuristic front-runners to measure.
        top_n: usize,
    },
}

impl Default for PlanStrategy {
    fn default() -> Self {
        // 12 of the 18 SpMM candidates: wide enough that the analytic
        // model only has to keep the true winner out of the bottom third.
        PlanStrategy::Measured { top_n: 12 }
    }
}

/// The planner's decision for one `(graph, K, device)` input: which kernel
/// to run, with what configuration, and why.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Candidate id (`"hp:npw=256"`, `"hp:auto"`, `"gespmm"`, …).
    pub kernel_id: String,
    /// Resolved HP launch parameters; `None` for baseline kernels.
    pub config: Option<HpConfig>,
    /// Cycles the planner expects: measured cycles under
    /// [`PlanStrategy::Measured`], the analytic estimate under
    /// [`PlanStrategy::Heuristic`].
    pub predicted_cycles: u64,
    /// Human-readable explanation of the choice.
    pub rationale: String,
}

impl Plan {
    /// The plan as a [`Candidate`], e.g. to re-instantiate the kernel.
    pub fn candidate(&self) -> Candidate {
        Candidate {
            kernel_id: self.kernel_id.clone(),
            config: self.config,
        }
    }
}

/// Which sparse operation a plan is for (plans for the same matrix differ
/// between SpMM and SDDMM, so caches key on this too).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpKind {
    /// `O = S · A`.
    Spmm,
    /// `S_O = (A1 · A2ᵀ) ⊙ S`.
    Sddmm,
    /// Multi-head attention `O_h = softmax((Q_h·K_hᵀ)⊙S/√d) · V_h` — the
    /// fuse/no-fuse decision. Cache keys for this op carry the head count
    /// ([`GraphFingerprint::mha_key`]).
    FusedMha,
}

impl OpKind {
    /// Stable textual tag used in persisted caches.
    pub fn tag(self) -> &'static str {
        match self {
            OpKind::Spmm => "spmm",
            OpKind::Sddmm => "sddmm",
            OpKind::FusedMha => "fused-mha",
        }
    }

    /// Parses the textual tag back.
    pub fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "spmm" => Some(OpKind::Spmm),
            "sddmm" => Some(OpKind::Sddmm),
            "fused-mha" => Some(OpKind::FusedMha),
            _ => None,
        }
    }
}

/// Plans kernels for sparse inputs on a fixed device.
#[derive(Debug, Clone)]
pub struct Planner {
    device: DeviceSpec,
    strategy: PlanStrategy,
    reference_engine: bool,
    sim_launches: u64,
    planning_cycles: u64,
}

impl Planner {
    /// A planner for `device` using `strategy`.
    pub fn new(device: DeviceSpec, strategy: PlanStrategy) -> Self {
        Self {
            device,
            strategy,
            reference_engine: false,
            sim_launches: 0,
            planning_cycles: 0,
        }
    }

    /// Runs every measurement simulator on the reference cost engine
    /// ([`GpuSim::set_engine`]) instead of the default fast engine. Plans
    /// and rationales are identical either way — the engines produce the
    /// same counters — so this exists purely as a differential-testing
    /// witness for the planning path.
    pub fn set_reference_engine(&mut self, reference: bool) {
        self.reference_engine = reference;
    }

    /// Whether measurements use the reference cost engine.
    pub fn reference_engine(&self) -> bool {
        self.reference_engine
    }

    /// The device plans are made for.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// The active strategy.
    pub fn strategy(&self) -> PlanStrategy {
        self.strategy
    }

    /// Simulator kernel runs performed so far — the planning-cost meter.
    /// Stays at zero for [`PlanStrategy::Heuristic`]; a cache hit must not
    /// move it (asserted in tests).
    pub fn sim_launches(&self) -> u64 {
        self.sim_launches
    }

    /// Total simulated cycles burned measuring candidates — the price of
    /// planning, kept separate from execution accounting.
    pub fn planning_cycles(&self) -> u64 {
        self.planning_cycles
    }

    /// Plans SpMM for `s` at feature dimension `k`.
    pub fn plan_spmm(&mut self, s: &Hybrid, k: usize) -> Plan {
        let _span = hpsparse_trace::span_with(
            "autotune:plan-spmm",
            &[
                ("rows", serde_json::json!(s.rows())),
                ("nnz", serde_json::json!(s.nnz())),
                ("k", serde_json::json!(k)),
            ],
        );
        let launches_before = self.sim_launches;
        let fp = GraphFingerprint::of(s, k, &self.device);
        let ranked = rank(spmm_candidates(&self.device, &fp), |c| {
            spmm_cost(&self.device, &fp, c)
        });
        let plan = match self.strategy {
            PlanStrategy::Heuristic => {
                let mut plan = heuristic_plan(&fp, ranked);
                let hint = spmm_bound_hint(&self.device, &fp, &plan.candidate());
                plan.rationale
                    .push_str(&format!("; model-side bound: {hint}"));
                plan
            }
            PlanStrategy::Measured { top_n } => {
                let a = measurement_features(s.cols(), k);
                let reference = self.reference_engine;
                self.measured_plan(&fp, ranked, top_n, |device, c| {
                    let kernel = instantiate_spmm(c)?;
                    let mut sim = measurement_sim(device, reference);
                    let run = kernel.run_on(&mut sim, s, &a).ok()?;
                    let verdict = hpsparse_sim::attribute(&run.report, device).verdict();
                    let cycles =
                        run.report.cycles + run.preprocess.as_ref().map_or(0, |p| p.cycles);
                    Some((cycles, Some(verdict)))
                })
            }
        };
        self.record_planning_metrics(launches_before);
        plan
    }

    /// Plans SDDMM for `s` at feature dimension `k`.
    pub fn plan_sddmm(&mut self, s: &Hybrid, k: usize) -> Plan {
        let _span = hpsparse_trace::span_with(
            "autotune:plan-sddmm",
            &[
                ("rows", serde_json::json!(s.rows())),
                ("nnz", serde_json::json!(s.nnz())),
                ("k", serde_json::json!(k)),
            ],
        );
        let launches_before = self.sim_launches;
        let fp = GraphFingerprint::of(s, k, &self.device);
        let ranked = rank(sddmm_candidates(&self.device, &fp), |c| {
            sddmm_cost(&self.device, &fp, c)
        });
        let plan = match self.strategy {
            PlanStrategy::Heuristic => {
                let mut plan = heuristic_plan(&fp, ranked);
                let hint = sddmm_bound_hint(&self.device, &fp, &plan.candidate());
                plan.rationale
                    .push_str(&format!("; model-side bound: {hint}"));
                plan
            }
            PlanStrategy::Measured { top_n } => {
                let a1 = measurement_features(s.rows(), k);
                let a2t = measurement_features(s.cols(), k);
                let reference = self.reference_engine;
                self.measured_plan(&fp, ranked, top_n, |device, c| {
                    let kernel = instantiate_sddmm(c)?;
                    let mut sim = measurement_sim(device, reference);
                    let run = kernel.run_on(&mut sim, s, &a1, &a2t).ok()?;
                    let verdict = hpsparse_sim::attribute(&run.report, device).verdict();
                    let cycles =
                        run.report.cycles + run.preprocess.as_ref().map_or(0, |p| p.cycles);
                    Some((cycles, Some(verdict)))
                })
            }
        };
        self.record_planning_metrics(launches_before);
        plan
    }

    /// Plans multi-head attention for `s` — the fuse/no-fuse knob. `fp.k`
    /// is the per-head feature dimension `head_dim`; `heads` multiplies
    /// every traffic term and is part of the cache key
    /// ([`GraphFingerprint::mha_key`]). Under `Measured` both candidates
    /// are always measured (the space has exactly two points), so the pick
    /// is the true cold-run winner by construction.
    pub fn plan_mha(&mut self, s: &Hybrid, head_dim: usize, heads: usize) -> Plan {
        let _span = hpsparse_trace::span_with(
            "autotune:plan-mha",
            &[
                ("rows", serde_json::json!(s.rows())),
                ("nnz", serde_json::json!(s.nnz())),
                ("head_dim", serde_json::json!(head_dim)),
                ("heads", serde_json::json!(heads)),
            ],
        );
        let launches_before = self.sim_launches;
        let fp = GraphFingerprint::of(s, head_dim, &self.device);
        let ranked = rank(mha_candidates(&self.device, &fp), |c| {
            mha_cost(&self.device, &fp, heads, c)
        });
        let plan = match self.strategy {
            PlanStrategy::Heuristic => heuristic_plan(&fp, ranked),
            PlanStrategy::Measured { .. } => {
                let q = mha_measurement_heads(s.rows(), head_dim, heads, 0);
                let kv = mha_measurement_heads(s.cols(), head_dim, heads, 1);
                let reference = self.reference_engine;
                self.measured_plan(&fp, ranked, 2, |device, c| {
                    // Multi-launch pipelines have no single launch report to
                    // attribute, so the fuse/no-fuse rationale carries no
                    // per-launch verdict.
                    let cycles = match instantiate_fused_mha(c) {
                        Some(kernel) => measure_fused_mha(device, reference, &kernel, s, &q, &kv),
                        None => measure_unfused_mha(device, reference, s, &q, &kv),
                    }?;
                    Some((cycles, None))
                })
            }
        };
        self.record_planning_metrics(launches_before);
        plan
    }

    /// Counts one finished plan (and the simulator launches it spent) into
    /// the installed trace session's registry; a no-op when detached.
    fn record_planning_metrics(&self, launches_before: u64) {
        hpsparse_trace::counter_add("autotune.plans", 1);
        hpsparse_trace::counter_add(
            "autotune.plan_sim_launches",
            self.sim_launches - launches_before,
        );
    }

    /// Measures the top `top_n` ranked candidates with `measure` (one cold
    /// simulator run each, returning cycles plus an optional bottleneck
    /// verdict from [`hpsparse_sim::attribute`] on the run's report) and
    /// picks the cheapest; falls back to the heuristic winner if nothing is
    /// measurable (degenerate inputs). The winner's verdict is appended to
    /// the rationale, so a measured plan explains its choice with exactly
    /// the words `repro -- profile` would use for the same launch.
    fn measured_plan(
        &mut self,
        fp: &GraphFingerprint,
        ranked: Vec<(f64, Candidate)>,
        top_n: usize,
        mut measure: impl FnMut(&DeviceSpec, &Candidate) -> Option<(u64, Option<String>)>,
    ) -> Plan {
        let n = top_n.clamp(1, ranked.len().max(1));
        let mut best: Option<(u64, usize, Option<String>)> = None;
        let mut measured = 0usize;
        for (rank_idx, (_, cand)) in ranked.iter().enumerate() {
            // The paper-auto incumbent is always measured, wherever the
            // heuristic ranked it: the tuned choice can then never be
            // slower than `HpConfig::auto`'s.
            let incumbent = cand.kernel_id == "hp:auto" || cand.kernel_id == "hp-sddmm:auto";
            if rank_idx >= n && !incumbent {
                continue;
            }
            let Some((cycles, verdict)) = measure(&self.device, cand) else {
                continue;
            };
            self.sim_launches += 1;
            self.planning_cycles += cycles;
            measured += 1;
            // Strict `<` keeps ties on the better heuristic rank, which
            // makes the choice deterministic and explainable.
            if best.as_ref().is_none_or(|(b, _, _)| cycles < *b) {
                best = Some((cycles, rank_idx, verdict));
            }
        }
        match best {
            Some((cycles, idx, verdict)) => {
                let (est, cand) = &ranked[idx];
                let mut rationale = format!(
                    "measured {measured}/{} candidates on cold {} sim (rows={} nnz={} k={} cv={:.2}): \
                     {} won at {cycles} cycles (analytic estimate {est:.0}, heuristic rank {})",
                    ranked.len(),
                    fp.device,
                    fp.rows,
                    fp.nnz,
                    fp.k,
                    fp.degree_cv,
                    cand.kernel_id,
                    idx + 1,
                );
                if let Some(v) = verdict {
                    rationale.push_str(&format!("; bound by {v}"));
                }
                Plan {
                    kernel_id: cand.kernel_id.clone(),
                    config: cand.config,
                    predicted_cycles: cycles,
                    rationale,
                }
            }
            None => {
                let mut plan = heuristic_plan(fp, ranked);
                plan.rationale = format!(
                    "no candidate was measurable; fell back to analytic model: {}",
                    plan.rationale
                );
                plan
            }
        }
    }
}

/// Ranks candidates by analytic cost, ascending; stable on ties, so equal
/// scores keep enumeration order and the ranking is deterministic.
fn rank(cands: Vec<Candidate>, cost: impl Fn(&Candidate) -> f64) -> Vec<(f64, Candidate)> {
    let mut scored: Vec<(f64, Candidate)> = cands.into_iter().map(|c| (cost(&c), c)).collect();
    scored.sort_by(|a, b| a.0.total_cmp(&b.0));
    scored
}

fn heuristic_plan(fp: &GraphFingerprint, ranked: Vec<(f64, Candidate)>) -> Plan {
    let (est, cand) = ranked
        .first()
        .expect("candidate enumeration is never empty");
    let runner_up = ranked
        .get(1)
        .map(|(e, c)| format!("; runner-up {} at {e:.0}", c.kernel_id))
        .unwrap_or_default();
    Plan {
        kernel_id: cand.kernel_id.clone(),
        config: cand.config,
        predicted_cycles: est.min(u64::MAX as f64 / 2.0) as u64,
        rationale: format!(
            "analytic model over {} candidates (rows={} nnz={} k={} cv={:.2} tail={:.1}): \
             {} estimated at {est:.0} cycles{runner_up}",
            ranked.len(),
            fp.rows,
            fp.nnz,
            fp.k,
            fp.degree_cv,
            fp.tail_heaviness,
            cand.kernel_id,
        ),
    }
}

/// Deterministic feature matrix used to measure candidates: a fixed
/// function of shape so planning is reproducible run to run.
pub fn measurement_features(rows: usize, k: usize) -> Dense {
    Dense::from_fn(rows, k, |i, j| (((i * 131 + j * 17) % 1000) as f32) * 1e-3)
}

/// Deterministic per-head feature matrices for attention measurement:
/// head- and side-salted so Q and K/V (and heads) differ without any
/// runtime randomness.
pub fn mha_measurement_heads(rows: usize, k: usize, heads: usize, salt: usize) -> Vec<Dense> {
    (0..heads)
        .map(|h| {
            Dense::from_fn(rows, k, |i, j| {
                (((i * 131 + j * 17 + h * 53 + salt * 29) % 1000) as f32) * 1e-3
            })
        })
        .collect()
}

/// A cold simulator for one measurement, on the reference cost engine when
/// `reference` is set and on the fast batched engine otherwise.
fn measurement_sim(device: &DeviceSpec, reference: bool) -> GpuSim {
    let mut sim = GpuSim::new(device.clone());
    sim.set_engine(if reference {
        CostEngine::Reference
    } else {
        CostEngine::Batched
    });
    sim
}

/// Cold measured cycles of the fused attention kernel, launch overheads
/// included (one per launch — the spill pair, when present, pays too).
pub fn measure_fused_mha(
    device: &DeviceSpec,
    reference_engine: bool,
    kernel: &HpFusedMha,
    s: &Hybrid,
    q: &[Dense],
    kv: &[Dense],
) -> Option<u64> {
    let mut sim = measurement_sim(device, reference_engine);
    let run = kernel.run_on(&mut sim, s, q, kv, kv).ok()?;
    Some(run.total_cycles() + run.reports.len() as u64 * LAUNCH_OVERHEAD_CYCLES)
}

/// Cold measured cycles of the unfused three-launch pipeline: per head an
/// HP-SDDMM launch, a rooflined edge-softmax pass, and an HP-SpMM launch,
/// each with its launch overhead — exactly how the simulated backend
/// charges the no-fuse path, so the knob's comparison is apples-to-apples.
pub fn measure_unfused_mha(
    device: &DeviceSpec,
    reference_engine: bool,
    s: &Hybrid,
    q: &[Dense],
    kv: &[Dense],
) -> Option<u64> {
    let head_dim = q.first()?.cols();
    let sddmm = HpSddmm::auto(device, s, head_dim);
    let spmm = HpSpmm::auto(device, s, head_dim);
    let mut total = 0u64;
    for (qh, kvh) in q.iter().zip(kv) {
        let mut sim = measurement_sim(device, reference_engine);
        let sd = sddmm.run_on(&mut sim, s, qh, kvh).ok()?;
        let sp = spmm.run_on(&mut sim, s, kvh).ok()?;
        total += sd.report.cycles
            + edge_softmax_cycles(device, s.nnz())
            + sp.report.cycles
            + 3 * LAUNCH_OVERHEAD_CYCLES;
    }
    Some(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(seed: u64, rows: u32, nnz: u32) -> Hybrid {
        let mut t = Vec::new();
        for i in 0..nnz {
            let r = (i.wrapping_mul(2654435761).wrapping_add(seed as u32)) % rows;
            let c = (i.wrapping_mul(40503).wrapping_add(7)) % rows;
            t.push((r, c, 1.0 + (i % 3) as f32));
        }
        Hybrid::from_triplets(rows as usize, rows as usize, &t).unwrap()
    }

    #[test]
    fn heuristic_planner_runs_zero_simulations() {
        let s = graph(1, 2000, 12_000);
        let mut p = Planner::new(DeviceSpec::v100(), PlanStrategy::Heuristic);
        let plan = p.plan_spmm(&s, 64);
        assert_eq!(p.sim_launches(), 0);
        assert_eq!(p.planning_cycles(), 0);
        assert!(!plan.kernel_id.is_empty());
        assert!(plan.rationale.contains("analytic model"));
    }

    #[test]
    fn measured_planner_counts_its_simulations() {
        let s = graph(2, 500, 3_000);
        let mut p = Planner::new(DeviceSpec::v100(), PlanStrategy::Measured { top_n: 4 });
        let plan = p.plan_spmm(&s, 32);
        // Top 4 by heuristic, plus the hp:auto incumbent if it ranked
        // below 4th.
        assert!((4..=5).contains(&p.sim_launches()), "{}", p.sim_launches());
        assert!(p.planning_cycles() > 0);
        assert!(plan.predicted_cycles > 0);
        assert!(plan.rationale.contains("/18 candidates on cold"));
    }

    #[test]
    fn plans_are_byte_identical_across_runs() {
        let s = graph(3, 1000, 8_000);
        let v100 = DeviceSpec::v100();
        for strategy in [PlanStrategy::Heuristic, PlanStrategy::Measured { top_n: 6 }] {
            let a = Planner::new(v100.clone(), strategy).plan_spmm(&s, 64);
            let b = Planner::new(v100.clone(), strategy).plan_spmm(&s, 64);
            assert_eq!(a, b);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            let sa = Planner::new(v100.clone(), strategy).plan_sddmm(&s, 64);
            let sb = Planner::new(v100.clone(), strategy).plan_sddmm(&s, 64);
            assert_eq!(format!("{sa:?}"), format!("{sb:?}"));
        }
    }

    #[test]
    fn measured_never_worse_than_heuristic_top_pick() {
        let v100 = DeviceSpec::v100();
        for seed in [1u64, 9, 42] {
            let s = graph(seed, 1500, 10_000);
            let h = Planner::new(v100.clone(), PlanStrategy::Heuristic).plan_spmm(&s, 64);
            let mut mp = Planner::new(v100.clone(), PlanStrategy::Measured { top_n: 8 });
            let m = mp.plan_spmm(&s, 64);
            // Re-measure both plans under identical cold conditions.
            let a = measurement_features(s.cols(), 64);
            let run_of = |plan: &Plan| {
                let kernel = instantiate_spmm(&plan.candidate()).unwrap();
                let mut sim = GpuSim::new(v100.clone());
                let run = kernel.run_on(&mut sim, &s, &a).unwrap();
                run.report.cycles + run.preprocess.as_ref().map_or(0, |p| p.cycles)
            };
            assert!(
                run_of(&m) <= run_of(&h),
                "seed {seed}: measured plan {} must not lose to heuristic plan {}",
                m.kernel_id,
                h.kernel_id
            );
        }
    }

    #[test]
    fn degenerate_inputs_still_yield_plans() {
        let v100 = DeviceSpec::v100();
        for s in [
            Hybrid::from_triplets(0, 0, &[]).unwrap(),
            Hybrid::from_triplets(4, 4, &[]).unwrap(),
        ] {
            let mut p = Planner::new(v100.clone(), PlanStrategy::default());
            let plan = p.plan_spmm(&s, 64);
            assert!(!plan.kernel_id.is_empty());
            let plan = p.plan_sddmm(&s, 64);
            assert!(!plan.kernel_id.is_empty());
        }
    }

    #[test]
    fn measured_rationale_embeds_the_winners_attribution_verdict() {
        let s = graph(6, 1200, 9_000);
        let v100 = DeviceSpec::v100();
        let mut p = Planner::new(v100.clone(), PlanStrategy::default());
        let plan = p.plan_spmm(&s, 64);
        // Recompute the verdict exactly as the planner did: cold run of
        // the winning candidate on the measurement features, attributed by
        // the same function `repro -- profile` uses.
        let a = measurement_features(s.cols(), 64);
        let kernel = instantiate_spmm(&plan.candidate()).unwrap();
        let mut sim = GpuSim::new(v100.clone());
        let run = kernel.run_on(&mut sim, &s, &a).unwrap();
        let verdict = hpsparse_sim::attribute(&run.report, &v100).verdict();
        assert!(
            plan.rationale.ends_with(&format!("; bound by {verdict}")),
            "{} vs {verdict}",
            plan.rationale
        );
        assert!(verdict.contains("% headroom"), "{verdict}");
    }

    #[test]
    fn heuristic_rationale_names_the_model_side_bound() {
        let s = graph(7, 1500, 9_000);
        let mut p = Planner::new(DeviceSpec::v100(), PlanStrategy::Heuristic);
        let plan = p.plan_spmm(&s, 64);
        assert!(
            plan.rationale.contains("; model-side bound: "),
            "{}",
            plan.rationale
        );
        let sd = p.plan_sddmm(&s, 64);
        assert!(
            sd.rationale.contains("; model-side bound: "),
            "{}",
            sd.rationale
        );
    }

    #[test]
    fn opkind_tags_round_trip() {
        for op in [OpKind::Spmm, OpKind::Sddmm, OpKind::FusedMha] {
            assert_eq!(OpKind::from_tag(op.tag()), Some(op));
        }
        assert_eq!(OpKind::from_tag("gemm"), None);
    }

    #[test]
    fn mha_plan_measures_both_candidates_and_picks_the_winner() {
        let s = graph(4, 800, 6_000);
        let mut p = Planner::new(DeviceSpec::v100(), PlanStrategy::default());
        let plan = p.plan_mha(&s, 32, 4);
        assert_eq!(p.sim_launches(), 2, "exactly the fuse/no-fuse pair");
        // The pick must be the cheaper of the two direct measurements.
        let q = mha_measurement_heads(s.rows(), 32, 4, 0);
        let kv = mha_measurement_heads(s.cols(), 32, 4, 1);
        let v100 = DeviceSpec::v100();
        let fused =
            measure_fused_mha(&v100, false, &HpFusedMha::auto(&v100, &s, 32), &s, &q, &kv).unwrap();
        let unfused = measure_unfused_mha(&v100, false, &s, &q, &kv).unwrap();
        let oracle = if fused <= unfused {
            crate::candidates::MHA_FUSED_ID
        } else {
            crate::candidates::MHA_UNFUSED_ID
        };
        assert_eq!(plan.kernel_id, oracle, "{}", plan.rationale);
        assert_eq!(plan.predicted_cycles, fused.min(unfused));
    }

    #[test]
    fn mha_plans_are_deterministic_and_work_on_degenerate_inputs() {
        let v100 = DeviceSpec::v100();
        let s = graph(5, 600, 4_000);
        for strategy in [PlanStrategy::Heuristic, PlanStrategy::default()] {
            let a = Planner::new(v100.clone(), strategy).plan_mha(&s, 64, 2);
            let b = Planner::new(v100.clone(), strategy).plan_mha(&s, 64, 2);
            assert_eq!(a, b);
        }
        for s in [
            Hybrid::from_triplets(0, 0, &[]).unwrap(),
            Hybrid::from_triplets(4, 4, &[]).unwrap(),
        ] {
            let plan = Planner::new(v100.clone(), PlanStrategy::default()).plan_mha(&s, 32, 2);
            assert!(!plan.kernel_id.is_empty());
        }
    }
}
