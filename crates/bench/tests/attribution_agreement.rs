//! Pins the planner ↔ profiler attribution contract on the full kernel
//! registry: for every one of the 16 sweep kernels (HP-SpMM, 11 SpMM
//! baselines, HP-SDDMM, 2 SDDMM baselines, HP-Fused-MHA) on quick graphs,
//! for every launch,
//!
//! * the cold-run attribution verdict is well-formed — a bound class from
//!   the five-way taxonomy plus a quantified headroom percentage,
//! * `profile::render`'s `bound by` line is that verdict, byte for byte,
//! * verdicts are deterministic across cold re-runs, and
//! * a `Measured` autotune plan's rationale embeds exactly the verdict of
//!   its winner's cold measurement run,
//!
//! so the profiler and the planner can never silently disagree about why
//! a launch is slow.

use hpsparse_autotune::{
    instantiate_sddmm, instantiate_spmm, measurement_features, PlanStrategy, Planner,
};
use hpsparse_bench::runner::{run_sweep_kernel, sweep_ids};
use hpsparse_datasets::registry::by_name;
use hpsparse_datasets::store;
use hpsparse_sim::{attribute, profile, DeviceSpec, GpuSim, LaunchReport};
use hpsparse_sparse::Hybrid;

/// Same edge cap as `fastcheck`'s quick effort.
const EDGE_CAP: usize = 10_000;
const K: usize = 64;

const BOUND_LABELS: [&str; 5] = [
    "DRAM bandwidth",
    "L2 latency",
    "compute",
    "imbalance",
    "tail",
];

fn quick_graphs() -> Vec<(&'static str, Hybrid)> {
    ["Flickr", "Reddit"]
        .into_iter()
        .map(|name| {
            let spec = by_name(name).expect("registry graph");
            (name, store::graph(&spec, EDGE_CAP).to_hybrid())
        })
        .collect()
}

/// A verdict must read `<bound label> (<pct>% headroom)` with the label in
/// the taxonomy and the percentage quantified and sane.
fn assert_well_formed(kernel: &str, graph: &str, verdict: &str) {
    let label = BOUND_LABELS
        .iter()
        .find(|l| verdict.starts_with(**l))
        .unwrap_or_else(|| panic!("{kernel} on {graph}: unknown bound in {verdict:?}"));
    let rest = verdict[label.len()..].trim();
    let pct: f64 = rest
        .strip_prefix('(')
        .and_then(|r| r.strip_suffix("% headroom)"))
        .and_then(|r| r.parse().ok())
        .unwrap_or_else(|| panic!("{kernel} on {graph}: unquantified headroom in {verdict:?}"));
    assert!(
        (0.0..100.0).contains(&pct),
        "{kernel} on {graph}: headroom {pct} out of range"
    );
}

fn check(kernel: &str, graph: &str, device: &DeviceSpec, run: impl Fn() -> Vec<LaunchReport>) {
    let reports = run();
    assert!(!reports.is_empty(), "{kernel} on {graph}: no launches");
    let verdicts: Vec<String> = reports
        .iter()
        .map(|report| attribute(report, device).verdict())
        .collect();
    for (report, verdict) in reports.iter().zip(&verdicts) {
        assert_well_formed(kernel, graph, verdict);
        // The profile block's "bound by" line IS the attribution verdict.
        let rendered = profile::render(kernel, report, device);
        assert!(
            rendered.contains(&format!("bound by     : {verdict}\n")),
            "{kernel} on {graph}: profile disagrees with attribution:\n{rendered}"
        );
    }
    // Cold re-run: the verdicts are a pure function of the launches.
    let again: Vec<String> = run()
        .iter()
        .map(|report| attribute(report, device).verdict())
        .collect();
    assert_eq!(
        verdicts, again,
        "{kernel} on {graph}: verdict not deterministic"
    );
}

#[test]
fn all_sixteen_sweep_kernels_attribute_cleanly_on_quick_graphs() {
    let device = DeviceSpec::v100();
    let mut checks = 0usize;
    for (graph, s) in &quick_graphs() {
        for id in sweep_ids() {
            check(id, graph, &device, || {
                let mut sim = GpuSim::new(device.clone());
                run_sweep_kernel(id, &mut sim, s, K).unwrap()
            });
            checks += 1;
        }
    }
    // 16 kernels on each of the two quick graphs.
    assert_eq!(checks, 32);
}

#[test]
fn measured_plans_embed_their_winners_cold_run_verdict() {
    let device = DeviceSpec::v100();
    for (graph, s) in &quick_graphs() {
        let mut planner = Planner::new(device.clone(), PlanStrategy::default());

        let plan = planner.plan_spmm(s, K);
        let a = measurement_features(s.cols(), K);
        let kernel = instantiate_spmm(&plan.candidate()).unwrap();
        let mut sim = GpuSim::new(device.clone());
        let run = kernel.run_on(&mut sim, s, &a).unwrap();
        let verdict = attribute(&run.report, &device).verdict();
        assert!(
            plan.rationale.ends_with(&format!("; bound by {verdict}")),
            "{graph} spmm: rationale {:?} vs verdict {verdict:?}",
            plan.rationale
        );

        let plan = planner.plan_sddmm(s, K);
        let a1 = measurement_features(s.rows(), K);
        let a2t = measurement_features(s.cols(), K);
        let kernel = instantiate_sddmm(&plan.candidate()).unwrap();
        let mut sim = GpuSim::new(device.clone());
        let run = kernel.run_on(&mut sim, s, &a1, &a2t).unwrap();
        let verdict = attribute(&run.report, &device).verdict();
        assert!(
            plan.rationale.ends_with(&format!("; bound by {verdict}")),
            "{graph} sddmm: rationale {:?} vs verdict {verdict:?}",
            plan.rationale
        );
    }
}
