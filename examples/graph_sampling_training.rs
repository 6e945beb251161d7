//! GraphSAINT-style graph-sampling training — the dynamic mode where
//! preprocessing-free kernels matter most (§II of the paper).
//!
//! Every iteration samples a fresh subgraph, so any kernel that needs to
//! sort or partition the matrix first would pay that cost every step;
//! HP-SpMM's hybrid-parallel assignment needs nothing beyond the hybrid
//! CSR/COO arrays the sampler already produces.
//!
//! ```sh
//! cargo run --release --example graph_sampling_training
//! ```

use hpsparse::datasets::features::{planted_labels, random_features};
use hpsparse::datasets::generators::{GeneratorConfig, Topology};
use hpsparse::gnn::{train_graph_sampling, GcnConfig, SimBackend, TrainConfig};
use hpsparse::sim::DeviceSpec;

fn main() {
    // A Yelp-like social graph.
    let graph = GeneratorConfig {
        nodes: 60_000,
        edges: 700_000,
        topology: Topology::Community {
            communities: 120,
            p_in: 0.85,
            alpha: 2.1,
        },
        seed: 11,
    }
    .generate();
    let features = random_features(graph.num_nodes(), 64, 11);
    let labels = planted_labels(&features, 8, 11);

    let model_cfg = GcnConfig {
        in_dim: 64,
        hidden: 64,
        layers: 3,
        classes: 8,
        seed: 2,
    };
    let train_cfg = TrainConfig {
        epochs: 20, // = sampled mini-batches
        lr: 0.02,
        sample_nodes: 4_000,
        seed: 5,
    };

    println!(
        "GraphSAINT training on {} nodes / {} edges, {} iterations of \
         {}-node degree-biased samples\n",
        graph.num_nodes(),
        graph.num_edges(),
        train_cfg.epochs,
        train_cfg.sample_nodes
    );

    let [base, ours] = [
        ("baseline kernels", SimBackend::baseline(DeviceSpec::v100())),
        ("HP kernels      ", SimBackend::hp(DeviceSpec::v100())),
    ]
    .map(|(name, mut backend)| {
        let (_, stats) = train_graph_sampling(
            &mut backend,
            &graph,
            &features,
            &labels,
            model_cfg,
            train_cfg,
        );
        println!(
            "{name}: loss {:.3} -> {:.3}, GPU time {:.2} ms ({:.2} ms sparse)",
            stats.losses.first().unwrap(),
            stats.losses.last().unwrap(),
            stats.total_ms,
            stats.sparse_ms
        );
        stats
    });
    println!(
        "\nspeedup {:.2}x — with zero per-iteration preprocessing, because \
         sampled subgraphs arrive already in hybrid CSR/COO form",
        base.total_ms / ours.total_ms
    );
}
