//! `fastcheck` — two-way differential test of the cost engines.
//!
//! Every sweep kernel (the three HP kernels plus every registry baseline,
//! see [`sweep_ids`]) runs on every full-graph registry dataset twice:
//! once on the **reference** engine (element-wise descriptor expansion,
//! no memoization) and once on the **batched** engine (descriptor
//! batching + warp-signature memoization). Both runs' [`LaunchReport`]s must be *equal* — not
//! approximately, field for field — for every cell. This is the witness
//! that the fast path is a pure optimisation: same model, fewer host
//! instructions.
//!
//! Both engines are forced via [`GpuSim::set_engine`], so the check does
//! not depend on the process-wide default engine.
//!
//! Two feature dimensions are checked per cell: the benchmark default
//! (K = 64), which exercises the vectorized and memo-eligible paths, and an
//! odd K (K = 33), which forces the alignment fallbacks (memo gates off,
//! ragged tails in the stepped gathers).

use crate::experiments::{Effort, ExperimentOutput};
use crate::runner::{registry_graphs, run_sweep_kernel, sweep_ids};
use crate::table;
use hpsparse_sim::{CostEngine, DeviceSpec, GpuSim, LaunchReport};
use serde_json::json;

/// Feature dimensions under test: the benchmark default plus an odd value
/// that defeats every alignment-based fast-path gate.
pub const CHECK_KS: [usize; 2] = [64, 33];

/// Edge cap for the sweep. The reference engine costs one host dispatch per
/// modelled sector, so the differential product uses tighter caps than the
/// shared [`Effort::max_edges`].
fn edge_cap(effort: Effort) -> usize {
    match effort {
        Effort::Quick => 10_000,
        Effort::Full => 40_000,
    }
}

/// Outcome of the differential sweep for one kernel.
pub struct KernelDiff {
    /// Sweep id (see [`sweep_ids`]).
    pub id: String,
    /// Cells checked (graphs × feature dimensions).
    pub cells: usize,
    /// Cells whose fast and reference reports were equal.
    pub matching: usize,
    /// Total modelled cycles (identical across engines when all match).
    pub cycles: u64,
    /// Descriptions of the first few mismatching cells.
    pub mismatches: Vec<String>,
}

impl KernelDiff {
    /// Both engines' reports equal on every cell?
    pub fn passed(&self) -> bool {
        self.matching == self.cells
    }
}

fn fold(
    diff: &mut KernelDiff,
    graph: &str,
    k: usize,
    fast: &[LaunchReport],
    refr: &[LaunchReport],
) {
    diff.cells += 1;
    diff.cycles += refr.iter().map(|r| r.cycles).sum::<u64>();
    if fast == refr {
        diff.matching += 1;
    } else if diff.mismatches.len() < 4 {
        let summary = |reports: &[LaunchReport]| {
            reports
                .iter()
                .map(|r| {
                    format!(
                        "{{cycles {}, tx {}, l2_hits {}, dram {}}}",
                        r.cycles,
                        r.totals.transactions,
                        r.totals.l2_hit_sectors,
                        r.totals.dram_sectors
                    )
                })
                .collect::<Vec<_>>()
                .join(" + ")
        };
        diff.mismatches.push(format!(
            "{graph} K={k}: batched {} vs reference {}",
            summary(fast),
            summary(refr)
        ));
    }
}

/// Runs the differential sweep: every kernel × every registry graph × every
/// K in [`CHECK_KS`], one fresh simulator per engine per cell so both
/// engines see an identically cold L2.
pub fn collect(device: &DeviceSpec, effort: Effort) -> Vec<KernelDiff> {
    let graphs = registry_graphs(edge_cap(effort));
    sweep_ids()
        .into_iter()
        .map(|id| {
            let mut diff = KernelDiff {
                id: id.to_string(),
                cells: 0,
                matching: 0,
                cycles: 0,
                mismatches: Vec::new(),
            };
            for (graph, s) in &graphs {
                for k in CHECK_KS {
                    let run = |engine: CostEngine| {
                        let mut sim = GpuSim::new(device.clone());
                        sim.set_engine(engine);
                        run_sweep_kernel(id, &mut sim, s, k)
                            .unwrap_or_else(|e| panic!("{id} on {graph} ({engine:?}): {e:?}"))
                    };
                    let refr = run(CostEngine::Reference);
                    fold(&mut diff, graph, k, &run(CostEngine::Batched), &refr);
                }
            }
            diff
        })
        .collect()
}

/// Runs the sweep and renders the verdict table.
pub fn run(device: &DeviceSpec, effort: Effort) -> ExperimentOutput {
    let diffs = collect(device, effort);
    render(device, effort, &diffs)
}

/// Formats the differential report.
pub fn render(device: &DeviceSpec, effort: Effort, diffs: &[KernelDiff]) -> ExperimentOutput {
    let rows: Vec<Vec<String>> = diffs
        .iter()
        .map(|d| {
            vec![
                d.id.clone(),
                format!("{}", d.cells),
                format!("{}", d.matching),
                format!("{}", d.cycles),
                if d.passed() { "MATCH" } else { "MISMATCH" }.to_string(),
            ]
        })
        .collect();
    let header = ["Kernel", "Cells", "Equal", "Cycles", "Verdict"];

    let all_match = diffs.iter().all(|d| d.passed());
    let mut failures = String::new();
    for d in diffs.iter().filter(|d| !d.passed()) {
        failures.push_str(&format!("  {}:\n", d.id));
        for m in &d.mismatches {
            failures.push_str(&format!("    {m}\n"));
        }
    }

    let ks: Vec<String> = CHECK_KS.iter().map(|k| k.to_string()).collect();
    let text = format!(
        "fastcheck — reference vs batched cost engines, K ∈ {{{}}}, {} ({}, edge cap {})\n\n{}\n  \
         verdict: {}\n{}",
        ks.join(", "),
        device.name,
        effort.label(),
        edge_cap(effort),
        table::render(&header, &rows),
        if all_match {
            "every LaunchReport identical across both engines"
        } else {
            "ENGINE DIVERGENCE:"
        },
        failures,
    );

    let json_kernels: Vec<serde_json::Value> = diffs
        .iter()
        .map(|d| {
            json!({
                "id": d.id.as_str(),
                "cells": d.cells,
                "matching": d.matching,
                "cycles": d.cycles,
                "pass": d.passed(),
                "mismatches": d.mismatches,
            })
        })
        .collect();

    ExperimentOutput {
        id: "fastcheck",
        text,
        json: json!({
            "device": device.name,
            "engines": json!(["batched"]),
            "ks": CHECK_KS.iter().map(|&k| json!(k)).collect::<Vec<_>>(),
            "effort": effort.label(),
            "edge_cap": edge_cap(effort),
            "all_match": all_match,
            "kernels": json_kernels,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acceptance_every_cell_matches() {
        let out = run(&DeviceSpec::v100(), Effort::Quick);
        assert_eq!(out.json["all_match"].as_bool(), Some(true), "{}", out.text);
        // The batched engine checked against the reference on every cell:
        // 12 SpMM (hp + 11 registry) + 3 SDDMM (hp + 2 registry) + the
        // fused attention kernel, each on 19 graphs × 2 feature dimensions
        // — 608 cells in total.
        let kernels = out.json["kernels"].as_array().unwrap();
        assert_eq!(kernels.len(), 16);
        assert_eq!(out.json["engines"], serde_json::json!(["batched"]));
        let mut cells = 0;
        for k in kernels {
            assert_eq!(k["cells"].as_u64(), Some(38), "{}", k["id"]);
            assert_eq!(k["cells"], k["matching"], "{}", k["id"]);
            assert!(k["cycles"].as_u64().unwrap() > 0, "{}", k["id"]);
            cells += k["cells"].as_u64().unwrap();
        }
        assert_eq!(cells, 608);
    }
}
