//! Dense linear algebra on rayon: exactly the operations a GCN training
//! step needs, parallelised over output rows.

use hpsparse_sparse::Dense;
use rayon::prelude::*;

/// `C = A · B` (`m×k` times `k×n`).
pub fn matmul(a: &Dense, b: &Dense) -> Dense {
    assert_eq!(a.cols(), b.rows(), "matmul inner dimensions");
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = Dense::zeros(m, n);
    c.data_mut()
        .par_chunks_mut(n)
        .enumerate()
        .for_each(|(i, c_row)| {
            let a_row = a.row(i);
            for (kk, &av) in a_row.iter().enumerate().take(k) {
                if av != 0.0 {
                    let b_row = b.row(kk);
                    for j in 0..n {
                        c_row[j] += av * b_row[j];
                    }
                }
            }
        });
    c
}

/// `C = Aᵀ · B` (`k×m`ᵀ times `k×n`): used for weight gradients
/// `dW = Zᵀ·dY` without materialising the transpose.
pub fn matmul_transpose_a(a: &Dense, b: &Dense) -> Dense {
    assert_eq!(a.rows(), b.rows(), "matmul_transpose_a outer dimensions");
    let (k, m, n) = (a.rows(), a.cols(), b.cols());
    // Parallelise over rows of the output (columns of A) by splitting the
    // reduction across chunk-local accumulators. The chunk count is fixed
    // (never derived from the thread count) so the merge order — and hence
    // the float result, bit for bit — is identical at any RAYON_NUM_THREADS.
    let num_chunks = 16.min(k.max(1));
    let chunk = k.div_ceil(num_chunks);
    let partials: Vec<Vec<f32>> = (0..num_chunks)
        .into_par_iter()
        .map(|ci| {
            let lo = ci * chunk;
            let hi = ((ci + 1) * chunk).min(k);
            let mut acc = vec![0f32; m * n];
            for kk in lo..hi {
                let a_row = a.row(kk);
                let b_row = b.row(kk);
                for i in 0..m {
                    let av = a_row[i];
                    if av != 0.0 {
                        let dst = &mut acc[i * n..(i + 1) * n];
                        for j in 0..n {
                            dst[j] += av * b_row[j];
                        }
                    }
                }
            }
            acc
        })
        .collect();
    let mut c = Dense::zeros(m, n);
    for p in partials {
        for (dst, src) in c.data_mut().iter_mut().zip(&p) {
            *dst += src;
        }
    }
    c
}

/// `C = A · Bᵀ` (`m×k` times `n×k`ᵀ): used for input gradients `dY·Wᵀ`.
pub fn matmul_transpose_b(a: &Dense, b: &Dense) -> Dense {
    assert_eq!(a.cols(), b.cols(), "matmul_transpose_b inner dimensions");
    let (m, n) = (a.rows(), b.rows());
    // A row's `n` outputs accumulate together over `kk` against `Bᵀ`, so
    // the inner loop is independent adds instead of one serial dot product
    // per element. Each element still sums `a[i][kk] * b[j][kk]` from 0.0
    // in ascending `kk`: the result is the same bits.
    let bt = b.transpose();
    let mut c = Dense::zeros(m, n);
    c.data_mut()
        .par_chunks_mut(n)
        .enumerate()
        .for_each(|(i, c_row)| {
            for (kk, &av) in a.row(i).iter().enumerate() {
                for (c_val, &bv) in c_row.iter_mut().zip(bt.row(kk)) {
                    *c_val += av * bv;
                }
            }
        });
    c
}

/// Adds a row-vector bias to every row, in place.
pub fn add_bias(x: &mut Dense, bias: &[f32]) {
    assert_eq!(x.cols(), bias.len());
    let n = x.cols();
    x.data_mut().par_chunks_mut(n).for_each(|row| {
        for (v, b) in row.iter_mut().zip(bias) {
            *v += b;
        }
    });
}

/// ReLU forward, in place.
pub fn relu(x: &mut Dense) {
    x.data_mut().par_iter_mut().for_each(|v| {
        if *v < 0.0 {
            *v = 0.0;
        }
    });
}

/// ReLU backward: zeroes gradient entries where the forward input was
/// non-positive. `grad` and `pre_activation` must have the same shape.
pub fn relu_backward(grad: &mut Dense, pre_activation: &Dense) {
    assert_eq!(grad.rows(), pre_activation.rows());
    assert_eq!(grad.cols(), pre_activation.cols());
    grad.data_mut()
        .par_iter_mut()
        .zip(pre_activation.data().par_iter())
        .for_each(|(g, &z)| {
            if z <= 0.0 {
                *g = 0.0;
            }
        });
}

/// Column sums (bias gradient).
pub fn column_sums(x: &Dense) -> Vec<f32> {
    let n = x.cols();
    let mut sums = vec![0f32; n];
    for i in 0..x.rows() {
        for (s, v) in sums.iter_mut().zip(x.row(i)) {
            *s += v;
        }
    }
    sums
}

/// Softmax cross-entropy over rows. Returns `(mean loss, gradient)` where
/// the gradient is `(softmax(x) − onehot(label)) / rows` — ready to feed
/// into backprop.
pub fn softmax_cross_entropy(logits: &Dense, labels: &[u32]) -> (f32, Dense) {
    assert_eq!(logits.rows(), labels.len());
    let n = logits.cols();
    let rows = logits.rows().max(1);
    let mut grad = Dense::zeros(logits.rows(), n);
    let loss: f32 = grad
        .data_mut()
        .par_chunks_mut(n)
        .enumerate()
        .map(|(i, g_row)| {
            let row = logits.row(i);
            let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0f32;
            for &v in row {
                denom += (v - max).exp();
            }
            let label = labels[i] as usize;
            for (j, g) in g_row.iter_mut().enumerate() {
                let p = (row[j] - max).exp() / denom;
                *g = (p - if j == label { 1.0 } else { 0.0 }) / rows as f32;
            }
            -((row[label] - max).exp() / denom).max(1e-12).ln()
        })
        .sum();
    (loss / rows as f32, grad)
}

/// Classification accuracy of row-wise argmax against labels.
pub fn accuracy(logits: &Dense, labels: &[u32]) -> f64 {
    assert_eq!(logits.rows(), labels.len());
    if labels.is_empty() {
        return 0.0;
    }
    let correct = (0..logits.rows())
        .filter(|&i| {
            let row = logits.row(i);
            let argmax = row
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(j, _)| j)
                .unwrap();
            argmax as u32 == labels[i]
        })
        .count();
    correct as f64 / labels.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small_known_answer() {
        let a = Dense::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Dense::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn transpose_variants_agree_with_explicit_transpose() {
        let a = Dense::from_fn(5, 4, |i, j| ((i * 4 + j) as f32 * 0.3).sin());
        let b = Dense::from_fn(5, 3, |i, j| ((i * 3 + j) as f32 * 0.2).cos());
        let via_helper = matmul_transpose_a(&a, &b);
        let via_transpose = matmul(&a.transpose(), &b);
        assert!(via_helper.approx_eq(&via_transpose, 1e-5, 1e-6));

        let c = Dense::from_fn(4, 6, |i, j| (i + j) as f32);
        let d = Dense::from_fn(5, 6, |i, j| (i as f32) - (j as f32));
        let via_helper = matmul_transpose_b(&c, &d);
        let via_transpose = matmul(&c, &d.transpose());
        assert!(via_helper.approx_eq(&via_transpose, 1e-5, 1e-6));
    }

    /// `matmul_transpose_b` is bit-identical to one dot product per
    /// element, summed from 0.0 in ascending `kk`.
    #[test]
    fn matmul_transpose_b_matches_per_element_dot_products_bitwise() {
        let dot_per_element = |a: &Dense, b: &Dense| {
            Dense::from_fn(a.rows(), b.rows(), |i, j| {
                let mut acc = 0f32;
                for kk in 0..a.cols() {
                    acc += a.get(i, kk) * b.get(j, kk);
                }
                acc
            })
        };
        let bits = |d: &Dense| d.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // Values spanning magnitudes and signs (including -0.0), so any
        // change of summation order shows in the low bits.
        let val = |seed: usize| {
            move |i: usize, j: usize| {
                let x = ((i * 131 + j * 71 + seed * 17) % 97) as f32 - 48.0;
                if x == 0.0 {
                    -0.0
                } else {
                    x * 10f32.powi(((i + j + seed) % 7) as i32 - 3) / 7.0
                }
            }
        };
        for (m, k, n) in [
            (1, 1, 1),
            (7, 5, 3),
            (33, 32, 32),
            (64, 32, 32),
            (5, 13, 9),
            (3, 0, 4),
        ] {
            let a = Dense::from_fn(m, k, val(1));
            let b = Dense::from_fn(n, k, val(2));
            assert_eq!(
                bits(&matmul_transpose_b(&a, &b)),
                bits(&dot_per_element(&a, &b)),
                "{m}x{k} . ({n}x{k})^T"
            );
        }
    }

    #[test]
    fn relu_and_backward() {
        let mut x = Dense::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -3.0]).unwrap();
        let pre = x.clone();
        relu(&mut x);
        assert_eq!(x.data(), &[0.0, 0.0, 2.0, 0.0]);
        let mut g = Dense::from_vec(1, 4, vec![1.0, 1.0, 1.0, 1.0]).unwrap();
        relu_backward(&mut g, &pre);
        assert_eq!(g.data(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn bias_and_column_sums() {
        let mut x = Dense::zeros(3, 2);
        add_bias(&mut x, &[1.0, -2.0]);
        assert_eq!(x.row(2), &[1.0, -2.0]);
        let sums = column_sums(&x);
        assert_eq!(sums, vec![3.0, -6.0]);
    }

    #[test]
    fn cross_entropy_of_perfect_prediction_is_small() {
        let logits = Dense::from_vec(2, 3, vec![10.0, 0.0, 0.0, 0.0, 10.0, 0.0]).unwrap();
        let (loss, grad) = softmax_cross_entropy(&logits, &[0, 1]);
        assert!(loss < 1e-3, "loss {loss}");
        // Gradient is tiny everywhere.
        assert!(grad.data().iter().all(|g| g.abs() < 0.1));
    }

    #[test]
    fn cross_entropy_gradient_points_away_from_wrong_class() {
        let logits = Dense::from_vec(1, 2, vec![0.0, 0.0]).unwrap();
        let (loss, grad) = softmax_cross_entropy(&logits, &[0]);
        assert!((loss - (2f32).ln()).abs() < 1e-5);
        // d/dlogit0 = p0 - 1 = -0.5; d/dlogit1 = 0.5.
        assert!((grad.get(0, 0) + 0.5).abs() < 1e-5);
        assert!((grad.get(0, 1) - 0.5).abs() < 1e-5);
    }

    #[test]
    fn gradient_check_cross_entropy() {
        // Finite differences on a tiny logit matrix.
        let base = vec![0.3f32, -0.2, 0.5, 0.1, 0.0, -0.4];
        let labels = [2u32, 0];
        let eps = 1e-3f32;
        let logits = Dense::from_vec(2, 3, base.clone()).unwrap();
        let (_, grad) = softmax_cross_entropy(&logits, &labels);
        for idx in 0..base.len() {
            let mut plus = base.clone();
            plus[idx] += eps;
            let mut minus = base.clone();
            minus[idx] -= eps;
            let (lp, _) = softmax_cross_entropy(&Dense::from_vec(2, 3, plus).unwrap(), &labels);
            let (lm, _) = softmax_cross_entropy(&Dense::from_vec(2, 3, minus).unwrap(), &labels);
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grad.data()[idx];
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "index {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn accuracy_counts_argmax_matches() {
        let logits = Dense::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 0.0]).unwrap();
        assert!((accuracy(&logits, &[0, 1, 1]) - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(accuracy(&Dense::zeros(0, 2), &[]), 0.0);
    }
}
