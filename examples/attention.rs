//! Graph attention with SDDMM: scores every edge with a query·key dot
//! product (HP-SDDMM), normalises with an edge softmax, and aggregates
//! with the attention-weighted SpMM — the kernel pipeline of GAT-style
//! models.
//!
//! ```sh
//! cargo run --release --example attention
//! ```

use hpsparse::datasets::generators::{GeneratorConfig, Topology};
use hpsparse::gnn::backend::{SimBackend, SparseBackend};
use hpsparse::gnn::gat::GatLayer;
use hpsparse::sim::DeviceSpec;
use hpsparse::sparse::Dense;

fn main() {
    let graph = GeneratorConfig {
        nodes: 8_000,
        edges: 90_000,
        topology: Topology::PowerLaw { alpha: 2.3 },
        seed: 13,
    }
    .generate()
    .with_self_loops();
    let s = graph.to_hybrid();
    let in_dim = 64;
    let head_dim = 32;
    let x = Dense::from_fn(s.rows(), in_dim, |i, j| ((i * 31 + j) as f32 * 1e-3).sin());

    let layer = GatLayer::new(in_dim, head_dim, 99);
    let mut backend = SimBackend::hp(DeviceSpec::v100());
    let (out, weights) = layer.forward(&mut backend, &s, &x);

    println!(
        "attention over {} edges -> {} x {} output",
        weights.len(),
        out.rows(),
        out.cols()
    );
    println!(
        "modelled GPU time: {:.3} ms across one SDDMM + one SpMM",
        backend.total_ms()
    );

    // Attention weights form a distribution per destination node.
    let mut row_sum = vec![0f32; s.rows()];
    for (i, &r) in s.row_indices().iter().enumerate() {
        row_sum[r as usize] += weights[i];
    }
    let worst = row_sum
        .iter()
        .filter(|&&v| v > 0.0)
        .map(|&v| (v - 1.0).abs())
        .fold(0.0f32, f32::max);
    println!("edge-softmax row sums within {worst:.2e} of 1.0 ✓");

    // Self-attention sanity: the most self-focused node.
    let (node, w) = s
        .row_indices()
        .iter()
        .zip(s.col_indices())
        .zip(&weights)
        .filter(|((r, c), _)| r == c)
        .map(|((r, _), &w)| (*r, w))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap();
    println!(
        "node {node} keeps {:.0}% of its attention on itself",
        w * 100.0
    );
}
