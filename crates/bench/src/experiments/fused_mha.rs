//! `fused-mha` — the fused one-launch attention kernel against the
//! three-launch SDDMM → edge-softmax → SpMM pipeline.
//!
//! For every registry graph and a grid of (heads, head-dim) cells, both
//! paths run cold on the simulator. The fused kernel keeps each row's
//! score tile in shared memory, so per head it skips the score round trip
//! through DRAM and re-stages the sparse arrays once instead of twice; the
//! report shows the DRAM-byte and cycle deltas per cell. The `Measured`
//! planner's fuse/no-fuse pick is then compared against the measured
//! oracle — the acceptance gate requires a 100% match.

use crate::experiments::{Effort, ExperimentOutput};
use crate::table;
use hpsparse_autotune::{
    measure_fused_mha, measure_unfused_mha, mha_measurement_heads, PlanStrategy, Planner,
    LAUNCH_OVERHEAD_CYCLES,
};
use hpsparse_core::hp::{HpFusedMha, HpSddmm, HpSpmm};
use hpsparse_core::traits::{SddmmKernel, SpmmKernel};
use hpsparse_sim::{DeviceSpec, GpuSim};
use hpsparse_sparse::Hybrid;
use hpsparse_trace::names;
use serde_json::json;

/// Edge cap: both paths run on every graph × cell, so quick runs use the
/// same tightened cap as the `autotune` experiment.
fn edge_cap(effort: Effort) -> usize {
    match effort {
        Effort::Quick => 25_000,
        Effort::Full => effort.max_edges(),
    }
}

/// The (heads, head_dim) grid.
fn grid(effort: Effort) -> Vec<(usize, usize)> {
    match effort {
        Effort::Quick => vec![(2, 64), (4, 32)],
        Effort::Full => vec![(1, 64), (2, 64), (4, 64), (8, 32), (4, 128)],
    }
}

/// One (graph, heads, head_dim) measurement.
pub struct Cell {
    /// Dataset name.
    pub graph: String,
    /// Non-zeros benchmarked.
    pub nnz: usize,
    /// Attention heads.
    pub heads: usize,
    /// Head dimension.
    pub head_dim: usize,
    /// Fused-path cycles (launch overheads included).
    pub fused_cycles: u64,
    /// Fused-path DRAM bytes.
    pub fused_dram: u64,
    /// Rows whose score tile spilled through L2.
    pub spilled_rows: usize,
    /// Unfused three-launch cycles (softmax + overheads included).
    pub unfused_cycles: u64,
    /// Unfused DRAM bytes (score round trip included).
    pub unfused_dram: u64,
    /// The planner's fuse/no-fuse pick.
    pub plan_pick: String,
    /// Did the planner's pick match the measured oracle?
    pub plan_match: bool,
}

impl Cell {
    /// DRAM bytes per cycle, fused path.
    pub fn fused_bpc(&self) -> f64 {
        self.fused_dram as f64 / self.fused_cycles.max(1) as f64
    }

    /// DRAM bytes per cycle, unfused path.
    pub fn unfused_bpc(&self) -> f64 {
        self.unfused_dram as f64 / self.unfused_cycles.max(1) as f64
    }
}

/// Measures one cell: fused and unfused cold runs plus the planner's pick.
fn measure_cell(device: &DeviceSpec, graph: &str, s: &Hybrid, heads: usize, d: usize) -> Cell {
    let q = mha_measurement_heads(s.rows(), d, heads, 0);
    let kv = mha_measurement_heads(s.cols(), d, heads, 1);

    // Fused path: one cold simulator, every launch (spills included).
    let kernel = HpFusedMha::auto(device, s, d);
    let mut sim = GpuSim::new(device.clone());
    let run = kernel
        .run_on(&mut sim, s, &q, &kv, &kv)
        .expect("valid dims");
    let fused_cycles = run.total_cycles() + run.reports.len() as u64 * LAUNCH_OVERHEAD_CYCLES;
    let fused_dram = run.dram_bytes();

    // Unfused path: per head an SDDMM launch, an edge-softmax launch that
    // round-trips scores and weights through DRAM (2 × 4·nnz bytes), and
    // an SpMM launch over the attention-weighted adjacency.
    let sddmm = HpSddmm::auto(device, s, d);
    let spmm = HpSpmm::auto(device, s, d);
    let mut unfused_cycles = 0u64;
    let mut unfused_dram = 0u64;
    for h in 0..heads {
        let mut sim = GpuSim::new(device.clone());
        let sd = sddmm
            .run_on(&mut sim, s, &q[h], &kv[h])
            .expect("valid dims");
        unfused_cycles +=
            sd.report.cycles + hpsparse_autotune::edge_softmax_cycles(device, s.nnz());
        unfused_dram += sd.report.dram_bytes() + 8 * s.nnz() as u64;
        let mut weighted = s.clone();
        weighted.set_values(run.attn[h].clone());
        let mut sim = GpuSim::new(device.clone());
        let sp = spmm
            .run_on(&mut sim, &weighted, &kv[h])
            .expect("valid dims");
        unfused_cycles += sp.report.cycles + 3 * LAUNCH_OVERHEAD_CYCLES;
        unfused_dram += sp.report.dram_bytes();
    }

    // The planner under test, cold, against the measured oracle built from
    // the same measurement helpers it uses internally.
    let mut planner = Planner::new(device.clone(), PlanStrategy::default());
    let plan = planner.plan_mha(s, d, heads);
    let oracle_fused =
        measure_fused_mha(device, false, &kernel, s, &q, &kv).expect("fused measures");
    let oracle_unfused = measure_unfused_mha(device, false, s, &q, &kv).expect("unfused measures");
    let plan_match = plan.predicted_cycles == oracle_fused.min(oracle_unfused);

    hpsparse_trace::counter_add(names::FUSED_MHA_ROWS_SPILLED, run.spilled_rows as u64);
    hpsparse_trace::counter_add(
        names::FUSED_MHA_DRAM_SAVED_BYTES,
        unfused_dram.saturating_sub(fused_dram),
    );

    Cell {
        graph: graph.to_string(),
        nnz: s.nnz(),
        heads,
        head_dim: d,
        fused_cycles,
        fused_dram,
        spilled_rows: run.spilled_rows,
        unfused_cycles,
        unfused_dram,
        plan_pick: plan.kernel_id,
        plan_match,
    }
}

/// Runs the grid over the full-graph registry.
pub fn collect(device: &DeviceSpec, effort: Effort) -> Vec<Cell> {
    let graphs = crate::runner::registry_graphs(edge_cap(effort));
    let mut cells = Vec::new();
    for (name, s) in &graphs {
        for &(heads, d) in &grid(effort) {
            cells.push(measure_cell(device, name, s, heads, d));
        }
    }
    cells
}

/// Runs the experiment and renders the report.
pub fn run(device: &DeviceSpec, effort: Effort) -> ExperimentOutput {
    let cells = collect(device, effort);
    render(device, &cells)
}

/// Formats the fused-attention report.
pub fn render(device: &DeviceSpec, cells: &[Cell]) -> ExperimentOutput {
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.graph.clone(),
                format!("{}x{}", c.heads, c.head_dim),
                format!("{}", c.nnz),
                format!("{}", c.fused_dram),
                format!("{}", c.unfused_dram),
                format!("{:.2}x", c.unfused_dram as f64 / c.fused_dram.max(1) as f64),
                format!("{:.1}/{:.1}", c.fused_bpc(), c.unfused_bpc()),
                format!(
                    "{:.2}x",
                    c.unfused_cycles as f64 / c.fused_cycles.max(1) as f64
                ),
                format!("{}", c.spilled_rows),
                format!(
                    "{}{}",
                    if c.plan_pick.starts_with("hp-fused-mha") {
                        "fuse"
                    } else {
                        "no-fuse"
                    },
                    if c.plan_match { "" } else { " *" }
                ),
            ]
        })
        .collect();
    let header = [
        "Graph",
        "HxD",
        "NNZ",
        "Fused B",
        "Unfused B",
        "DRAM savings",
        "B/cyc f/u",
        "Speedup",
        "Spilled",
        "Plan",
    ];

    let n = cells.len().max(1) as f64;
    let plan_match_rate = cells.iter().filter(|c| c.plan_match).count() as f64 / n;
    let multi_head: Vec<&Cell> = cells.iter().filter(|c| c.heads >= 2).collect();
    let fused_saves_dram_at_two_heads =
        !multi_head.is_empty() && multi_head.iter().all(|c| c.fused_dram < c.unfused_dram);
    let fused_faster_at_two_heads =
        !multi_head.is_empty() && multi_head.iter().all(|c| c.fused_cycles < c.unfused_cycles);
    let geo_dram: f64 = (multi_head
        .iter()
        .map(|c| (c.unfused_dram as f64 / c.fused_dram.max(1) as f64).ln())
        .sum::<f64>()
        / multi_head.len().max(1) as f64)
        .exp();

    let summary = format!(
        "  fused saves DRAM on every graph at >= 2 heads: {fused_saves_dram_at_two_heads} \
         (geomean savings {geo_dram:.2}x)\n  \
         fused faster on every graph at >= 2 heads: {fused_faster_at_two_heads}\n  \
         planner matched the measured fuse/no-fuse oracle on {:.0}% of cells\n",
        plan_match_rate * 100.0
    );

    let json_cells: Vec<serde_json::Value> = cells
        .iter()
        .map(|c| {
            json!({
                "graph": c.graph.as_str(),
                "nnz": c.nnz,
                "heads": c.heads,
                "head_dim": c.head_dim,
                "fused_cycles": c.fused_cycles,
                "fused_dram": c.fused_dram,
                "fused_dram_bytes_per_cycle": c.fused_bpc(),
                "spilled_rows": c.spilled_rows,
                "unfused_cycles": c.unfused_cycles,
                "unfused_dram": c.unfused_dram,
                "unfused_dram_bytes_per_cycle": c.unfused_bpc(),
                "plan_pick": c.plan_pick.as_str(),
                "plan_match": c.plan_match
            })
        })
        .collect();

    let text = format!(
        "fused-mha — one-launch attention vs three-launch pipeline, {} (picks marked * missed the oracle)\n\n{}\n{}",
        device.name,
        table::render(&header, &rows),
        summary
    );
    ExperimentOutput {
        id: "fused-mha",
        text,
        json: json!({
            "device": device.name,
            "fused_saves_dram_at_two_heads": fused_saves_dram_at_two_heads,
            "fused_faster_at_two_heads": fused_faster_at_two_heads,
            "geomean_dram_savings_at_two_heads": geo_dram,
            "plan_match_rate": plan_match_rate,
            "cells": json_cells
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acceptance_dram_savings_and_oracle_match() {
        let out = run(&DeviceSpec::v100(), Effort::Quick);
        assert_eq!(
            out.json["fused_saves_dram_at_two_heads"].as_bool(),
            Some(true),
            "{}",
            out.text
        );
        assert_eq!(
            out.json["plan_match_rate"].as_f64(),
            Some(1.0),
            "planner must match the measured oracle on every cell:\n{}",
            out.text
        );
        // Quick grid: 19 registry graphs × 2 cells.
        assert_eq!(out.json["cells"].as_array().unwrap().len(), 38);
    }

    #[test]
    fn report_is_deterministic() {
        let a = run(&DeviceSpec::v100(), Effort::Quick);
        let b = run(&DeviceSpec::v100(), Effort::Quick);
        assert_eq!(a.text, b.text);
    }
}
