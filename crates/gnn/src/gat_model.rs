//! A trainable multi-head graph attention model built on
//! [`GatLayer`]: H heads attend in parallel, their
//! outputs concatenate, and a linear classifier produces logits. Training
//! it runs the paper's *both* kernels in *both* directions every step —
//! SDDMM + SpMM forward, SDDMM + three SpMMs backward per head.

use crate::backend::{dense_gemm_cycles, SparseBackend, LAUNCH_OVERHEAD_CYCLES};
use crate::gat::{GatCache, GatGrads, GatLayer};
use crate::gcn::Adam;
use crate::linalg;
use hpsparse_sparse::{Dense, Hybrid};

/// Model shape.
#[derive(Debug, Clone, Copy)]
pub struct GatConfig {
    /// Input feature dimension.
    pub in_dim: usize,
    /// Dimension of each attention head.
    pub head_dim: usize,
    /// Number of attention heads.
    pub heads: usize,
    /// Output classes.
    pub classes: usize,
    /// Weight-init seed.
    pub seed: u64,
}

/// Multi-head attention + linear classifier.
pub struct GatModel {
    /// Attention heads.
    pub heads: Vec<GatLayer>,
    /// Classifier over the concatenated head outputs
    /// (`heads·head_dim × classes`).
    pub w_out: Dense,
}

/// Forward cache for the backward pass.
pub struct GatModelCache {
    head_caches: Vec<GatCache>,
    concat: Dense,
}

/// Parameter gradients.
pub struct GatModelGrads {
    /// Per-head projection gradients.
    pub heads: Vec<GatGrads>,
    /// Classifier gradient.
    pub w_out: Dense,
}

impl GatModel {
    /// Deterministic initialisation.
    pub fn new(config: GatConfig) -> Self {
        let heads = (0..config.heads)
            .map(|h| {
                GatLayer::new(
                    config.in_dim,
                    config.head_dim,
                    config.seed.wrapping_add(h as u64 * 7919),
                )
            })
            .collect();
        let fan_in = config.heads * config.head_dim;
        let limit = (6.0 / (fan_in + config.classes) as f64).sqrt() as f32;
        let mut state = config.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            ((state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64 * 2.0
                - 1.0) as f32
                * limit
        };
        GatModel {
            heads,
            w_out: Dense::from_fn(fan_in, config.classes, |_, _| next()),
        }
    }

    /// Forward pass to logits.
    pub fn forward(
        &self,
        backend: &mut dyn SparseBackend,
        s: &Hybrid,
        x: &Dense,
    ) -> (Dense, GatModelCache) {
        let device = backend.device().clone();
        let n = x.rows();
        let head_dim = self.heads[0].wv.cols();
        let mut concat = Dense::zeros(n, self.heads.len() * head_dim);
        let mut head_caches = Vec::with_capacity(self.heads.len());
        for (h, head) in self.heads.iter().enumerate() {
            let (out, _w, cache) = head.forward_cached(backend, s, x);
            for i in 0..n {
                concat.row_mut(i)[h * head_dim..(h + 1) * head_dim].copy_from_slice(out.row(i));
            }
            head_caches.push(cache);
        }
        backend.account_dense(
            dense_gemm_cycles(&device, n, concat.cols(), self.w_out.cols())
                + LAUNCH_OVERHEAD_CYCLES,
        );
        let logits = linalg::matmul(&concat, &self.w_out);
        (
            logits,
            GatModelCache {
                head_caches,
                concat,
            },
        )
    }

    /// Backward pass from the logits gradient.
    pub fn backward(
        &self,
        backend: &mut dyn SparseBackend,
        s: &Hybrid,
        cache: &GatModelCache,
        grad_logits: &Dense,
    ) -> GatModelGrads {
        let head_dim = self.heads[0].wv.cols();
        let w_out_grad = linalg::matmul_transpose_a(&cache.concat, grad_logits);
        let d_concat = linalg::matmul_transpose_b(grad_logits, &self.w_out);
        let n = d_concat.rows();
        let mut head_grads = Vec::with_capacity(self.heads.len());
        for (h, head) in self.heads.iter().enumerate() {
            let mut d_head = Dense::zeros(n, head_dim);
            for i in 0..n {
                d_head
                    .row_mut(i)
                    .copy_from_slice(&d_concat.row(i)[h * head_dim..(h + 1) * head_dim]);
            }
            let (grads, _dx) = head.backward(backend, s, &cache.head_caches[h], &d_head);
            head_grads.push(grads);
        }
        GatModelGrads {
            heads: head_grads,
            w_out: w_out_grad,
        }
    }
}

/// Adam over the GAT model's parameters.
pub struct GatAdam {
    lr: f32,
    t: i32,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl GatAdam {
    /// Builds optimiser state shaped after `model`.
    pub fn new(model: &GatModel, lr: f32) -> Self {
        let mut sizes = Vec::new();
        for head in &model.heads {
            for w in [&head.wq, &head.wk, &head.wv] {
                sizes.push(w.data().len());
            }
        }
        sizes.push(model.w_out.data().len());
        Self {
            lr,
            t: 0,
            m: sizes.iter().map(|&s| vec![0.0; s]).collect(),
            v: sizes.iter().map(|&s| vec![0.0; s]).collect(),
        }
    }

    /// Applies one update.
    pub fn step(&mut self, model: &mut GatModel, grads: &GatModelGrads) {
        self.t += 1;
        let (b1, b2, eps) = (0.9f32, 0.999f32, 1e-8f32);
        let bc1 = 1.0 - b1.powi(self.t);
        let bc2 = 1.0 - b2.powi(self.t);
        let mut slot = 0;
        for (head, hg) in model.heads.iter_mut().zip(&grads.heads) {
            for (w, g) in [
                (&mut head.wq, &hg.wq),
                (&mut head.wk, &hg.wk),
                (&mut head.wv, &hg.wv),
            ] {
                Adam::update(
                    w.data_mut(),
                    g.data(),
                    &mut self.m[slot],
                    &mut self.v[slot],
                    self.lr,
                    b1,
                    b2,
                    eps,
                    bc1,
                    bc2,
                );
                slot += 1;
            }
        }
        Adam::update(
            model.w_out.data_mut(),
            grads.w_out.data(),
            &mut self.m[slot],
            &mut self.v[slot],
            self.lr,
            b1,
            b2,
            eps,
            bc1,
            bc2,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{CpuBackend, SimBackend};
    use hpsparse_sim::DeviceSpec;
    use hpsparse_sparse::Graph;

    fn two_cluster_graph() -> (Hybrid, Dense, Vec<u32>) {
        // Two dense clusters of 12 nodes each, labels = cluster.
        let mut edges = Vec::new();
        for base in [0u32, 12] {
            for i in 0..12u32 {
                for j in 0..12u32 {
                    if i != j && (i + j) % 3 == 0 {
                        edges.push((base + i, base + j));
                    }
                }
            }
        }
        let g = Graph::from_edges(24, &edges).with_self_loops();
        let s = g.to_hybrid();
        let x = Dense::from_fn(24, 8, |i, j| {
            let cluster = if i < 12 { 1.0 } else { -1.0 };
            cluster * ((j + 1) as f32 * 0.2) + ((i * 8 + j) as f32 * 0.01).sin()
        });
        let y: Vec<u32> = (0..24).map(|i| u32::from(i >= 12)).collect();
        (s, x, y)
    }

    #[test]
    fn training_reduces_loss_and_classifies_clusters() {
        let (s, x, y) = two_cluster_graph();
        let mut model = GatModel::new(GatConfig {
            in_dim: 8,
            head_dim: 6,
            heads: 2,
            classes: 2,
            seed: 5,
        });
        let mut opt = GatAdam::new(&model, 0.03);
        let mut backend = CpuBackend::new();
        let mut first = None;
        let mut last = 0.0;
        let mut final_acc = 0.0;
        for _ in 0..60 {
            let (logits, cache) = model.forward(&mut backend, &s, &x);
            let (loss, grad) = linalg::softmax_cross_entropy(&logits, &y);
            let grads = model.backward(&mut backend, &s, &cache, &grad);
            opt.step(&mut model, &grads);
            first.get_or_insert(loss);
            last = loss;
            final_acc = linalg::accuracy(&logits, &y);
        }
        assert!(
            last < first.unwrap() * 0.5,
            "loss {} -> {last}",
            first.unwrap()
        );
        assert!(final_acc > 0.9, "accuracy {final_acc}");
    }

    #[test]
    fn hp_backend_accounts_sddmm_in_both_directions() {
        let (s, x, y) = two_cluster_graph();
        let model = GatModel::new(GatConfig {
            in_dim: 8,
            head_dim: 4,
            heads: 2,
            classes: 2,
            seed: 1,
        });
        let mut backend = SimBackend::hp(DeviceSpec::v100());
        let (logits, cache) = model.forward(&mut backend, &s, &x);
        let fwd_cycles = backend.sparse_cycles();
        assert!(fwd_cycles > 0);
        let (_, grad) = linalg::softmax_cross_entropy(&logits, &y);
        let _ = model.backward(&mut backend, &s, &cache, &grad);
        // Backward adds 1 SDDMM + 3 SpMMs per head: strictly more sparse
        // work than forward's 1 SDDMM + 1 SpMM.
        assert!(backend.sparse_cycles() > 2 * fwd_cycles);
    }

    #[test]
    fn gradient_check_classifier() {
        let (s, x, y) = two_cluster_graph();
        let mut model = GatModel::new(GatConfig {
            in_dim: 8,
            head_dim: 4,
            heads: 1,
            classes: 2,
            seed: 3,
        });
        let mut backend = CpuBackend::new();
        let (logits, cache) = model.forward(&mut backend, &s, &x);
        let (_, grad) = linalg::softmax_cross_entropy(&logits, &y);
        let grads = model.backward(&mut backend, &s, &cache, &grad);
        let eps = 1e-2f32;
        for idx in [0usize, 3, 7] {
            let orig = model.w_out.data()[idx];
            model.w_out.data_mut()[idx] = orig + eps;
            let (lg, _) = model.forward(&mut backend, &s, &x);
            let (lp, _) = linalg::softmax_cross_entropy(&lg, &y);
            model.w_out.data_mut()[idx] = orig - eps;
            let (lg, _) = model.forward(&mut backend, &s, &x);
            let (lm, _) = linalg::softmax_cross_entropy(&lg, &y);
            model.w_out.data_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grads.w_out.data()[idx];
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "idx {idx}: {numeric} vs {analytic}"
            );
        }
    }
}
