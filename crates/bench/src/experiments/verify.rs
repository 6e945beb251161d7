//! `verify` — the correctness gate: static proofs, a dynamic sanitizer
//! sweep, and seeded-mutant checks.
//!
//! Part 1: every registry kernel's symbolic plans (for HP kernels, every
//! configuration the autotuner can pick) run through the
//! `hpsparse-verify` abstract interpreter, which returns a three-valued
//! verdict per checker — `Proved`, `Refuted(counterexample)`, or
//! `Unknown`. Verdicts aggregate worst-over-variant per kernel. Any
//! kernel that is not fully `Proved` *escalates*: it runs dynamically on
//! a witness graph under the `hpsparse-sanitize` sink, which remains the
//! authority for whatever the prover could not discharge.
//!
//! Part 2: every sweep kernel runs on every full-graph registry dataset
//! with an `hpsparse-sanitize` sink attached, under all three checkers —
//! memcheck, racecheck, initcheck. This is the repo's analogue of running
//! `compute-sanitizer --tool <each>` over the whole benchmark suite, and
//! the prover's soundness cross-check: every statically `Proved` kernel
//! must come back clean on every graph.
//!
//! Part 3: the seeded mutants of `hpsparse_core::mutants` must be
//! statically `Refuted` by exactly the checker their defect targets, and
//! the dynamic sanitizer must flag exactly the matching checker on the
//! mutant test graph — proving both halves' detectors actually fire and
//! do not bleed into each other.

use crate::experiments::{Effort, ExperimentOutput};
use crate::runner::{bench_features, registry_graphs, run_sweep_kernel, sweep_ids};
use crate::table;
use hpsparse_core::baselines::registry;
use hpsparse_core::hp::config::{DEFAULT_ALPHA, NNZ_PER_WARP_CANDIDATES, WARPS_PER_BLOCK};
use hpsparse_core::hp::{HpConfig, HpFusedMha, HpSddmm, HpSpmm};
use hpsparse_core::mutants;
use hpsparse_sanitize::{sanitize_run, Checker, Report};
use hpsparse_sim::{DeviceSpec, SymbolicPlan};
use hpsparse_verify::{verify_plan, CheckKind, CheckVerdict};
use serde_json::{json, ToJson};

/// Feature dimension for every dynamic run: large enough to exercise
/// vectorized access paths, small enough to bound per-lane event volume.
const VERIFY_K: usize = 32;

/// Edge cap for the dynamic sweep. Gather-heavy kernels emit one event
/// per lane, so the sweep uses tighter caps than the shared
/// [`Effort::max_edges`] to keep the kernel × registry product fast.
fn edge_cap(effort: Effort) -> usize {
    match effort {
        Effort::Quick => 8_000,
        Effort::Full => 40_000,
    }
}

/// Every HP configuration the autotuner enumerates — each DTP candidate
/// at every vector width; the static gate must prove all of them, not
/// just the one `auto` picks for some graph.
pub fn hp_configs() -> Vec<HpConfig> {
    NNZ_PER_WARP_CANDIDATES
        .into_iter()
        .flat_map(|nnz_per_warp| {
            [1u32, 2, 4].map(|vector_width| HpConfig {
                nnz_per_warp,
                vector_width,
                warps_per_block: WARPS_PER_BLOCK,
                alpha: DEFAULT_ALPHA,
            })
        })
        .collect()
}

/// Worst-over-variant aggregate for one checker on one kernel.
pub struct CheckAgg {
    /// The worst verdict across every plan variant.
    pub verdict: CheckVerdict,
    /// The variant that produced it.
    pub variant: String,
}

/// The dynamic sweep's outcome for one kernel across every registry
/// graph.
#[derive(Default)]
pub struct Sweep {
    /// Graphs the kernel was checked on.
    pub graphs: usize,
    /// Launches, events and violations summed over every graph (its
    /// `examples` stay empty; see [`Sweep::examples`]).
    pub totals: Report,
    /// Names of graphs with any violation.
    pub failing_graphs: Vec<String>,
    /// Example violations, prefixed by their graph (first few only).
    pub examples: Vec<String>,
}

impl Sweep {
    fn fold(&mut self, graph: &str, report: &Report) {
        self.graphs += 1;
        self.totals.launches += report.launches;
        self.totals.events += report.events;
        self.totals.memcheck += report.memcheck;
        self.totals.racecheck += report.racecheck;
        self.totals.initcheck += report.initcheck;
        hpsparse_trace::counter_add("sanitize.launches", report.launches);
        hpsparse_trace::counter_add("sanitize.events", report.events);
        hpsparse_trace::counter_add("sanitize.violations.memcheck", report.memcheck);
        hpsparse_trace::counter_add("sanitize.violations.racecheck", report.racecheck);
        hpsparse_trace::counter_add("sanitize.violations.initcheck", report.initcheck);
        if !report.passed() {
            self.failing_graphs.push(graph.to_string());
            for v in report.examples.iter().take(2) {
                if self.examples.len() < 6 {
                    self.examples.push(format!("{graph}: {v}"));
                }
            }
        }
    }
}

/// Static and dynamic verdicts for one kernel.
pub struct KernelVerdict {
    /// Sweep id (see [`sweep_ids`]).
    pub id: String,
    /// Symbolic plans examined.
    pub plans: usize,
    /// Worst bounds verdict.
    pub bounds: CheckAgg,
    /// Worst race verdict.
    pub race: CheckAgg,
    /// Worst init verdict.
    pub init: CheckAgg,
    /// Dynamic run on the witness graph; `None` when fully proved.
    pub escalation: Option<Report>,
    /// The dynamic sweep over every registry graph.
    pub sweep: Sweep,
}

impl KernelVerdict {
    /// All three checkers statically proved on every variant?
    pub fn fully_proved(&self) -> bool {
        self.bounds.verdict.is_proved()
            && self.race.verdict.is_proved()
            && self.init.verdict.is_proved()
    }

    /// Any variant statically refuted on any checker?
    pub fn any_refuted(&self) -> bool {
        self.bounds.verdict.is_refuted()
            || self.race.verdict.is_refuted()
            || self.init.verdict.is_refuted()
    }
}

/// `Refuted` dominates `Unknown` dominates `Proved`.
fn severity(v: &CheckVerdict) -> u8 {
    match v {
        CheckVerdict::Proved => 0,
        CheckVerdict::Unknown { .. } => 1,
        CheckVerdict::Refuted(_) => 2,
    }
}

fn aggregate(id: &str, plans: &[SymbolicPlan]) -> KernelVerdict {
    assert!(!plans.is_empty(), "{id}: no symbolic plans emitted");
    let mut worst: [Option<CheckAgg>; 3] = [None, None, None];
    for plan in plans {
        let v = verify_plan(plan);
        for (slot, kind) in worst.iter_mut().zip(CheckKind::ALL) {
            let verdict = v.check(kind);
            let replace = slot
                .as_ref()
                .map(|agg| severity(verdict) > severity(&agg.verdict))
                .unwrap_or(true);
            if replace {
                *slot = Some(CheckAgg {
                    verdict: verdict.clone(),
                    variant: plan.variant.clone(),
                });
            }
        }
        hpsparse_trace::counter_add("verify.plans", 1);
    }
    let [bounds, race, init] = worst.map(|slot| slot.expect("plans is non-empty"));
    KernelVerdict {
        id: id.to_string(),
        plans: plans.len(),
        bounds,
        race,
        init,
        escalation: None,
        sweep: Sweep::default(),
    }
}

/// Dynamic sanitizer run for one non-proved kernel on the escalation
/// witness graph — the mutant test graph, whose rows split across warps
/// and whose columns scatter, so the run exercises chunk boundaries and
/// gather paths.
fn escalate(device: &DeviceSpec, id: &str) -> Report {
    let _span = hpsparse_trace::span("verify:escalate");
    hpsparse_trace::counter_add("verify.escalations", 1);
    let s = mutants::mutant_test_graph();
    sanitize_run(device.clone(), |sim| {
        run_sweep_kernel(id, sim, &s, VERIFY_K)
            .unwrap_or_else(|e| panic!("escalation {id}: {e:?}"));
    })
}

/// Static verdicts for every registry kernel, escalating non-proved ones
/// to the dynamic sanitizer. Hard-asserts the gate's invariants: every
/// sweep kernel gets a verdict and no unmutated kernel is statically
/// refuted.
pub fn collect(device: &DeviceSpec) -> Vec<KernelVerdict> {
    let mut verdicts: Vec<KernelVerdict> = Vec::new();

    {
        let _span = hpsparse_trace::span("verify:hp-spmm");
        let plans: Vec<SymbolicPlan> = hp_configs()
            .into_iter()
            .flat_map(|config| hpsparse_core::SpmmKernel::symbolic_plans(&HpSpmm { config }))
            .collect();
        verdicts.push(aggregate("hp-spmm", &plans));
    }
    for id in registry::SPMM_IDS {
        let _span = hpsparse_trace::span(&format!("verify:{id}"));
        let kernel = registry::spmm_by_id(id).expect("registry id resolves");
        verdicts.push(aggregate(id, &kernel.symbolic_plans()));
    }
    {
        let _span = hpsparse_trace::span("verify:hp-sddmm");
        let plans: Vec<SymbolicPlan> = hp_configs()
            .into_iter()
            .flat_map(|config| hpsparse_core::SddmmKernel::symbolic_plans(&HpSddmm { config }))
            .collect();
        verdicts.push(aggregate("hp-sddmm", &plans));
    }
    for id in registry::SDDMM_IDS {
        let _span = hpsparse_trace::span(&format!("verify:{id}"));
        let kernel = registry::sddmm_by_id(id).expect("registry id resolves");
        verdicts.push(aggregate(id, &kernel.symbolic_plans()));
    }
    {
        let _span = hpsparse_trace::span("verify:hp-fused-mha");
        let plans: Vec<SymbolicPlan> = hp_configs()
            .into_iter()
            .flat_map(|config| HpFusedMha { config }.symbolic_plans())
            .collect();
        verdicts.push(aggregate("hp-fused-mha", &plans));
    }

    for v in &mut verdicts {
        if v.fully_proved() {
            hpsparse_trace::counter_add("verify.proved", 1);
        } else {
            v.escalation = Some(escalate(device, &v.id));
        }
        assert!(
            !v.any_refuted(),
            "{}: statically refuted — bounds={} race={} init={}",
            v.id,
            v.bounds.verdict.status(),
            v.race.verdict.status(),
            v.init.verdict.status()
        );
    }
    let ids: Vec<&str> = verdicts.iter().map(|v| v.id.as_str()).collect();
    assert_eq!(ids, sweep_ids(), "every sweep kernel must get a verdict");
    verdicts
}

/// Runs the dynamic sweep — every kernel × every registry graph, one fresh
/// sanitized simulator per cell — into each verdict's [`Sweep`], and
/// asserts every statically proved kernel came back clean.
pub fn sweep(device: &DeviceSpec, effort: Effort, verdicts: &mut [KernelVerdict]) {
    let graphs = registry_graphs(edge_cap(effort));
    for v in verdicts.iter_mut() {
        let id = v.id.as_str();
        let _span = hpsparse_trace::span_with(
            &format!("sanitize:{id}"),
            &[("graphs", json!(graphs.len()))],
        );
        for (graph, s) in &graphs {
            let report = sanitize_run(device.clone(), |sim| {
                run_sweep_kernel(id, sim, s, VERIFY_K)
                    .unwrap_or_else(|e| panic!("{id} on {graph}: {e:?}"));
            });
            v.sweep.fold(graph, &report);
        }
        assert!(
            !v.fully_proved() || v.sweep.totals.passed(),
            "{id}: statically proved but the dynamic sanitizer found {} violations on {:?}",
            v.sweep.totals.total(),
            v.sweep.failing_graphs
        );
    }
}

/// The dynamic checker that corresponds to a static one.
fn dynamic_checker(kind: CheckKind) -> Checker {
    match kind {
        CheckKind::Bounds => Checker::Memcheck,
        CheckKind::Race => Checker::Racecheck,
        CheckKind::Init => Checker::Initcheck,
    }
}

/// One mutant's gate verdict: statically refuted by exactly the intended
/// checker, and flagged dynamically by exactly the matching one.
pub struct MutantVerdict {
    /// Mutant kernel name.
    pub name: String,
    /// The checker the seeded defect must trip.
    pub expected: CheckKind,
    /// The static verdict on the targeted checker.
    pub verdict: CheckVerdict,
    /// No *other* checker refuted (defects must not bleed).
    pub others_clean: bool,
    /// The dynamic sanitizer's report on the mutant test graph.
    pub dynamic: Report,
}

impl MutantVerdict {
    /// The dynamic sanitizer flagged the matching checker and nothing
    /// else?
    pub fn dynamically_confirmed(&self) -> bool {
        CheckKind::ALL
            .into_iter()
            .all(|k| (self.dynamic.count(dynamic_checker(k)) > 0) == (k == self.expected))
    }

    /// Statically refuted on the intended checker, nowhere else, and
    /// dynamically confirmed?
    pub fn caught(&self) -> bool {
        self.verdict.is_refuted() && self.others_clean && self.dynamically_confirmed()
    }

    /// First dynamic violation (kernel + address attribution).
    pub fn example(&self) -> String {
        self.dynamic
            .examples
            .first()
            .map_or_else(|| "none".into(), |v| v.to_string())
    }
}

/// Checks every seeded mutant statically and under the dynamic sanitizer.
/// Hard-asserts all are caught.
pub fn collect_mutants(device: &DeviceSpec) -> Vec<MutantVerdict> {
    let _span = hpsparse_trace::span("verify:mutants");
    let s = mutants::mutant_test_graph();
    let a = bench_features(s.cols(), VERIFY_K);
    let verdicts: Vec<MutantVerdict> = mutants::all_mutants()
        .into_iter()
        .map(|m| {
            let expected = match m.name() {
                "mutant:oob-tail" => CheckKind::Bounds,
                "mutant:racy-tail" => CheckKind::Race,
                "mutant:uninit-acc" => CheckKind::Init,
                "mutant:eager-norm" => CheckKind::Init,
                other => panic!("unknown mutant {other}"),
            };
            let plans = m.symbolic_plans();
            assert_eq!(plans.len(), 1, "{}: one plan expected", m.name());
            let v = verify_plan(&plans[0]);
            let others_clean = CheckKind::ALL
                .into_iter()
                .filter(|k| *k != expected)
                .all(|k| !v.check(k).is_refuted());
            let dynamic = sanitize_run(device.clone(), |sim| {
                m.run_on(sim, &s, &a).expect("mutants run");
            });
            MutantVerdict {
                name: m.name().to_string(),
                expected,
                verdict: v.check(expected).clone(),
                others_clean,
                dynamic,
            }
        })
        .collect();
    for m in &verdicts {
        assert!(
            m.caught(),
            "{}: expected a statically refuted, dynamically confirmed {} defect (got {}, {})",
            m.name,
            m.expected,
            m.verdict.status(),
            m.dynamic
        );
    }
    verdicts
}

/// Runs the gate and renders the verdict tables.
pub fn run(device: &DeviceSpec, effort: Effort) -> ExperimentOutput {
    let mut verdicts = collect(device);
    sweep(device, effort, &mut verdicts);
    let mutant_verdicts = collect_mutants(device);
    render(device, effort, &verdicts, &mutant_verdicts)
}

fn gate_cell(v: &KernelVerdict) -> String {
    match &v.escalation {
        None => "proved".to_string(),
        Some(e) if e.passed() => "escalated: dynamic PASS".to_string(),
        Some(e) => format!(
            "escalated: dynamic FAIL (mem={} race={} init={})",
            e.memcheck, e.racecheck, e.initcheck
        ),
    }
}

fn check_cell(agg: &CheckAgg) -> String {
    match &agg.verdict {
        CheckVerdict::Proved => "proved".to_string(),
        CheckVerdict::Unknown { .. } => format!("UNKNOWN [{}]", agg.variant),
        CheckVerdict::Refuted(_) => format!("REFUTED [{}]", agg.variant),
    }
}

fn sweep_cell(sweep: &Sweep) -> String {
    let t = &sweep.totals;
    if t.passed() {
        "PASS".to_string()
    } else {
        format!(
            "FAIL (mem={} race={} init={})",
            t.memcheck, t.racecheck, t.initcheck
        )
    }
}

/// Formats the verification report.
pub fn render(
    device: &DeviceSpec,
    effort: Effort,
    verdicts: &[KernelVerdict],
    mutant_verdicts: &[MutantVerdict],
) -> ExperimentOutput {
    let rows: Vec<Vec<String>> = verdicts
        .iter()
        .map(|v| {
            vec![
                v.id.clone(),
                format!("{}", v.plans),
                check_cell(&v.bounds),
                check_cell(&v.race),
                check_cell(&v.init),
                gate_cell(v),
                format!("{}", v.sweep.graphs),
                format!("{}", v.sweep.totals.events),
                sweep_cell(&v.sweep),
            ]
        })
        .collect();
    let header = [
        "Kernel", "Plans", "Bounds", "Race", "Init", "Gate", "Graphs", "Events", "Dynamic",
    ];

    let mutant_rows: Vec<Vec<String>> = mutant_verdicts
        .iter()
        .map(|m| {
            let cex = match &m.verdict {
                CheckVerdict::Refuted(cex) => format!("{cex}"),
                other => other.status().to_string(),
            };
            vec![
                m.name.clone(),
                m.expected.to_string(),
                m.verdict.status().to_string(),
                if m.dynamically_confirmed() {
                    "yes"
                } else {
                    "NO"
                }
                .to_string(),
                cex,
            ]
        })
        .collect();
    let mutant_header = [
        "Mutant",
        "Expected",
        "Static",
        "Dyn-confirmed",
        "Counterexample",
    ];

    let proved = verdicts.iter().filter(|v| v.fully_proved()).count();
    let escalated = verdicts.len() - proved;
    let clean = verdicts.iter().filter(|v| v.sweep.totals.passed()).count();
    let graphs = verdicts.iter().map(|v| v.sweep.graphs).max().unwrap_or(0);
    let mut failures = String::new();
    for v in verdicts.iter().filter(|v| !v.sweep.totals.passed()) {
        failures.push_str(&format!(
            "  {} fails on: {}\n",
            v.id,
            v.sweep.failing_graphs.join(", ")
        ));
        for e in &v.sweep.examples {
            failures.push_str(&format!("    {e}\n"));
        }
    }
    let examples: String = mutant_verdicts
        .iter()
        .map(|m| format!("  {}\n", m.example()))
        .collect();

    let text = format!(
        "verify — static bounds/race/init verification over symbolic plans, then a \
         memcheck/racecheck/initcheck sweep at K = {VERIFY_K}, {} ({}, edge cap {})\n\n{}\n  \
         gate: {proved}/{} kernels statically proved on every variant; {escalated} escalated \
         to the dynamic sanitizer\n  \
         sweep: {clean}/{} kernels clean under the dynamic sanitizer on all {graphs} registry \
         graphs (every statically proved kernel must be)\n{failures}\n\
         seeded-mutant refutation (each defect statically refuted on exactly its checker,\n\
         confirmed by the dynamic sanitizer on the mutant test graph):\n\n{}\n  \
         example violations:\n{examples}",
        device.name,
        effort.label(),
        edge_cap(effort),
        table::render(&header, &rows),
        verdicts.len(),
        verdicts.len(),
        table::render(&mutant_header, &mutant_rows),
    );

    let json_kernels: Vec<serde_json::Value> = verdicts
        .iter()
        .map(|v| {
            let agg_json = |agg: &CheckAgg| {
                json!({
                    "status": agg.verdict.status(),
                    "variant": agg.variant.as_str(),
                })
            };
            let t = &v.sweep.totals;
            json!({
                "id": v.id.as_str(),
                "plans": v.plans,
                "fully_proved": v.fully_proved(),
                "bounds": agg_json(&v.bounds),
                "race": agg_json(&v.race),
                "init": agg_json(&v.init),
                "escalation": match &v.escalation {
                    Some(e) => json!({
                        "memcheck": e.memcheck,
                        "racecheck": e.racecheck,
                        "initcheck": e.initcheck,
                        "pass": e.passed(),
                    }),
                    None => serde_json::Value::Null,
                },
                "graphs": v.sweep.graphs,
                "launches": t.launches,
                "events": t.events,
                "memcheck": t.memcheck,
                "racecheck": t.racecheck,
                "initcheck": t.initcheck,
                "dynamic_pass": t.passed(),
                "failing_graphs": v.sweep.failing_graphs,
            })
        })
        .collect();
    let json_mutants: Vec<serde_json::Value> = mutant_verdicts
        .iter()
        .map(|m| {
            json!({
                "name": m.name.as_str(),
                "expected": m.expected.label(),
                "static": m.verdict.status(),
                "counterexample": match &m.verdict {
                    CheckVerdict::Refuted(cex) => cex.to_json(),
                    _ => serde_json::Value::Null,
                },
                "memcheck": m.dynamic.memcheck,
                "racecheck": m.dynamic.racecheck,
                "initcheck": m.dynamic.initcheck,
                "example": m.example(),
                "dynamically_confirmed": m.dynamically_confirmed(),
                "caught": m.caught(),
            })
        })
        .collect();

    ExperimentOutput {
        id: "verify",
        text,
        json: json!({
            "device": device.name,
            "effort": effort.label(),
            "k": VERIFY_K,
            "edge_cap": edge_cap(effort),
            "kernels_proved": proved,
            "kernels_escalated": escalated,
            "kernels_dynamic_clean": clean,
            "kernels": json_kernels,
            "mutants": json_mutants,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acceptance_all_kernels_proved_clean_and_mutants_caught() {
        let out = run(&DeviceSpec::v100(), Effort::Quick);
        // 12 SpMM (hp + 11 registry) + 3 SDDMM (hp + 2 registry) + the
        // fused attention kernel, each swept over 19 graphs.
        let kernels = out.json["kernels"].as_array().unwrap();
        assert_eq!(kernels.len(), 16);
        assert_eq!(
            out.json["kernels_proved"].as_u64(),
            Some(16),
            "{}",
            out.text
        );
        assert_eq!(out.json["kernels_escalated"].as_u64(), Some(0));
        assert_eq!(out.json["kernels_dynamic_clean"].as_u64(), Some(16));
        for k in kernels {
            assert_eq!(k["fully_proved"].as_bool(), Some(true), "{}", k["id"]);
            assert!(k["plans"].as_u64().unwrap() > 0, "{}", k["id"]);
            assert_eq!(k["graphs"].as_u64(), Some(19), "{}", k["id"]);
            assert!(k["events"].as_u64().unwrap() > 0, "{}", k["id"]);
            for checker in ["memcheck", "racecheck", "initcheck"] {
                assert_eq!(k[checker].as_u64(), Some(0), "{} {checker}", k["id"]);
            }
        }
        // The HP kernels aggregate over the full autotuner enumeration.
        assert_eq!(kernels[0]["plans"].as_u64(), Some(18));
        let mutants = out.json["mutants"].as_array().unwrap();
        assert_eq!(mutants.len(), 4);
        for m in mutants {
            assert_eq!(m["static"].as_str(), Some("refuted"), "{}", m["name"]);
            assert_eq!(m["caught"].as_bool(), Some(true), "{}", m["name"]);
            assert!(!m["counterexample"]["buffer"].as_str().unwrap().is_empty());
            // Dynamic examples carry the kernel name and a hex address.
            let example = m["example"].as_str().unwrap();
            assert!(example.contains("mutant:"), "{example}");
            assert!(example.contains("0x"), "{example}");
        }
    }

    #[test]
    fn report_is_deterministic() {
        let a = run(&DeviceSpec::v100(), Effort::Quick);
        let b = run(&DeviceSpec::v100(), Effort::Quick);
        assert_eq!(a.text, b.text);
    }
}
