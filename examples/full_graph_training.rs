//! Full-graph GCN training with swappable sparse backends — the Table V
//! experiment in miniature.
//!
//! Trains the same 3-layer GCN twice on a synthetic citation graph: once
//! with the framework-default kernels (cuSPARSE-style SpMM) and once with
//! HP-SpMM, then reports the modelled GPU time of each.
//!
//! ```sh
//! cargo run --release --example full_graph_training
//! ```

use hpsparse::datasets::features::{planted_labels, random_features};
use hpsparse::datasets::generators::{GeneratorConfig, Topology};
use hpsparse::gnn::{train_full_graph, GcnConfig, SimBackend, SparseBackend, TrainConfig};
use hpsparse::sim::DeviceSpec;

fn main() {
    // An arxiv-like citation graph.
    let graph = GeneratorConfig {
        nodes: 20_000,
        edges: 220_000,
        topology: Topology::Community {
            communities: 40,
            p_in: 0.6,
            alpha: 2.3,
        },
        seed: 7,
    }
    .generate();
    let features = random_features(graph.num_nodes(), 64, 7);
    let labels = planted_labels(&features, 8, 7);

    let model_cfg = GcnConfig {
        in_dim: 64,
        hidden: 64,
        layers: 3,
        classes: 8,
        seed: 1,
    };
    let train_cfg = TrainConfig {
        epochs: 10,
        lr: 0.02,
        ..Default::default()
    };

    println!(
        "training a {}-layer GCN on {} nodes / {} edges, hidden = {}\n",
        model_cfg.layers,
        graph.num_nodes(),
        graph.num_edges(),
        model_cfg.hidden
    );

    let [base_stats, hp_stats] = [
        (
            "cuSPARSE-style backend",
            SimBackend::baseline(DeviceSpec::v100()),
        ),
        ("HP-SpMM backend", SimBackend::hp(DeviceSpec::v100())),
    ]
    .map(|(name, mut backend)| {
        let (_, stats) = train_full_graph(
            &mut backend,
            &graph,
            &features,
            &labels,
            model_cfg,
            train_cfg,
        );
        report(name, &backend, &stats.losses, stats.final_accuracy);
        stats
    });

    println!(
        "\nend-to-end speedup from swapping the sparse kernels: {:.2}x \
         (sparse portion alone: {:.2}x)",
        base_stats.total_ms / hp_stats.total_ms,
        base_stats.sparse_ms / hp_stats.sparse_ms,
    );
}

fn report(name: &str, backend: &dyn SparseBackend, losses: &[f32], acc: f64) {
    println!(
        "{name}:\n  loss {:.4} -> {:.4} over {} epochs, train accuracy {:.1}%\n  \
         modelled GPU time: {:.2} ms total ({:.2} ms sparse kernels)",
        losses.first().unwrap(),
        losses.last().unwrap(),
        losses.len(),
        acc * 100.0,
        backend.total_ms(),
        backend.device().cycles_to_ms(backend.sparse_cycles()),
    );
}
