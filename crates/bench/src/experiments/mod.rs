//! One module per paper artefact; the experiment index lives in DESIGN.md.

pub mod ablation;
pub mod autotune;
pub mod datasets_table;
pub mod endtoend;
pub mod extensions;
pub mod fastcheck;
pub mod formats;
pub mod fullgraph;
pub mod fused_mha;
pub mod kernel_profile;
pub mod ksweep;
pub mod preprocessing;
pub mod reordering;
pub mod sampling;
pub mod selftime;
pub mod serve;
pub mod summary;
pub mod variance;
pub mod verify;

/// A rendered experiment: human-readable text plus machine-readable JSON.
pub struct ExperimentOutput {
    /// Experiment id, e.g. "fig9".
    pub id: &'static str,
    /// Rendered tables/notes.
    pub text: String,
    /// Serialised results for EXPERIMENTS.md regeneration.
    pub json: serde_json::Value,
}

/// Effort level: `quick` caps input sizes for CI-speed runs; `full` uses
/// the DESIGN.md scale (the numbers recorded in EXPERIMENTS.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// Small caps, sub-minute total runtime.
    Quick,
    /// The scale EXPERIMENTS.md reports.
    Full,
}

impl Effort {
    /// Edge cap for full-graph datasets.
    pub fn max_edges(self) -> usize {
        match self {
            Effort::Quick => 200_000,
            Effort::Full => hpsparse_datasets::DEFAULT_MAX_EDGES,
        }
    }

    /// Number of sampled subgraphs for graph-sampling experiments.
    pub fn corpus_size(self) -> usize {
        match self {
            Effort::Quick => 60,
            Effort::Full => 838,
        }
    }

    /// The `--quick`/`--full` flag spelling (for logs and JSON).
    pub fn label(self) -> &'static str {
        match self {
            Effort::Quick => "quick",
            Effort::Full => "full",
        }
    }
}

/// Feature dimension used by the kernel benchmarks (the paper's K = 64).
pub const DEFAULT_K: usize = 64;

/// Experiment catalog: every dispatchable name with a one-line summary,
/// in `repro list` order. `all` and `selftime` are meta-modes the `repro`
/// binary expands itself; `fig10a30`, `fastcheck`, `datasets`, `serve`
/// and `fused-mha` are dispatchable but stay out of [`ALL_EXPERIMENTS`]
/// (and thus out of `selftime`'s committed baseline).
pub const CATALOG: &[(&str, &str)] = &[
    ("formats", "§II storage-format comparison"),
    ("fig9", "kernel benchmarks, full-graph dataset (V100)"),
    ("fig9a30", "kernel benchmarks, full-graph dataset (A30)"),
    ("fig10", "kernel benchmarks, graph-sampling dataset (V100)"),
    (
        "fig10a30",
        "kernel benchmarks, graph-sampling dataset (A30)",
    ),
    (
        "table3",
        "average-speedup summary across devices and datasets",
    ),
    ("table4", "preprocessing vs execution comparison (A30)"),
    ("tcgnn", "TC-GNN Tensor-Core comparison (RTX 3090)"),
    ("reorder", "§IV-D reordering-runtime comparison"),
    ("fig11", "DTP / HVMA / GCR ablation"),
    ("fig12", "degree-variance sensitivity (Pearson's r)"),
    ("fig13", "feature-dimension (K) sensitivity"),
    ("alpha", "DTP wave-factor design ablation"),
    ("futurework", "register-lean HP-SpMM at large K"),
    ("bell", "Blocked-ELL vs hybrid CSR/COO across structures"),
    ("fused", "FusedMM vs unfused pipeline (extension)"),
    ("table5", "end-to-end GNN training"),
    (
        "autotune",
        "kernel-planner evaluation: oracle match + plan cache",
    ),
    (
        "verify",
        "static proofs, sanitizer sweep and seeded mutants over every kernel",
    ),
    (
        "fastcheck",
        "differential test: fast vs reference cost engine",
    ),
    ("profile", "Nsight-style kernel profiles on Flickr"),
    ("datasets", "Table II stand-in verification"),
    (
        "serve",
        "multi-GPU sharded inference serving under synthetic load",
    ),
    (
        "fused-mha",
        "fused one-launch multi-head attention vs three-launch pipeline",
    ),
];

/// Whether an experiment attaches per-launch tracers, so `repro --trace`
/// captures deep timelines from it — SM lanes and wave slices for
/// `profile`, device batch/halo lanes plus per-request span trees for
/// `serve` — rather than only the structural `experiment:` span every run
/// gets. `repro list` annotates these names.
pub fn supports_trace(name: &str) -> bool {
    matches!(name, "profile" | "serve")
}

/// The benchmark artefact an experiment (or meta-mode) writes into the
/// working directory, if any. `repro list` annotates these names, and the
/// files are what `repro perfdiff` compares.
pub fn bench_artifact(name: &str) -> Option<&'static str> {
    match name {
        "serve" => Some("BENCH_serve.json"),
        "fused-mha" => Some("BENCH_fused_mha.json"),
        "selftime" => Some("BENCH_repro.json"),
        _ => None,
    }
}

/// Every experiment `repro all` runs, in output order.
pub const ALL_EXPERIMENTS: &[&str] = &[
    "formats",
    "fig9",
    "fig9a30",
    "fig10",
    "table3",
    "table4",
    "tcgnn",
    "reorder",
    "fig11",
    "fig12",
    "fig13",
    "alpha",
    "futurework",
    "bell",
    "fused",
    "table5",
    "autotune",
    "verify",
    "profile",
];

/// Runs one experiment by its `repro` name. Returns `None` for unknown
/// names (including the meta-modes `all` and `selftime`, which the caller
/// expands itself).
pub fn dispatch(name: &str, effort: Effort) -> Option<ExperimentOutput> {
    use hpsparse_sim::DeviceSpec;
    let k = DEFAULT_K;
    let _span = hpsparse_trace::span_with(
        &format!("experiment:{name}"),
        &[("effort", serde_json::json!(effort.label()))],
    );
    Some(match name {
        "fig9" => fullgraph::run(&DeviceSpec::v100(), effort, k),
        "fig9a30" => {
            let mut out = fullgraph::run(&DeviceSpec::a30(), effort, k);
            out.id = "fig9a30";
            out
        }
        "fig10" => sampling::run(&DeviceSpec::v100(), effort, k),
        "fig10a30" => {
            let mut out = sampling::run(&DeviceSpec::a30(), effort, k);
            out.id = "fig10a30";
            out
        }
        "table3" => summary::run(effort, k),
        "table4" => preprocessing::run_table4(effort, k),
        "tcgnn" => preprocessing::run_tcgnn(effort, k),
        "reorder" => reordering::run(effort, k),
        "fig11" => ablation::run(effort, k),
        "fig12" => variance::run(effort, k),
        "fig13" => ksweep::run(effort),
        "alpha" => ablation::alpha_sweep(effort, k),
        "futurework" => extensions::run_futurework(effort),
        "bell" => extensions::run_bell(effort),
        "fused" => extensions::run_fused(effort),
        "table5" => endtoend::run(effort),
        "autotune" => autotune::run(&DeviceSpec::v100(), effort, k),
        "verify" => verify::run(&DeviceSpec::v100(), effort),
        "formats" => formats::run(effort, k),
        "fastcheck" => fastcheck::run(&DeviceSpec::v100(), effort),
        "profile" => kernel_profile::run(effort, k),
        "datasets" => datasets_table::run(effort),
        "serve" => serve::run(effort),
        "fused-mha" => fused_mha::run(&DeviceSpec::v100(), effort),
        _ => return None,
    })
}
