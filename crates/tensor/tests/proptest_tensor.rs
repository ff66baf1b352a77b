//! Property-based tests for tensor algebra: linearity, adjointness, and
//! shape laws that the training stack silently depends on.

use dtrain_tensor::{
    conv2d_backward, conv2d_forward, matmul, matmul_a_bt, matmul_at_b, softmax,
    softmax_cross_entropy, transpose, Conv2dSpec, Tensor,
};
use proptest::prelude::*;

/// Textbook three-loop GEMM with a single accumulator per output element,
/// summing over `p` in ascending order — the reference the cache-blocked
/// kernel must match *bitwise* (the blocked kernel preserves exactly this
/// per-element addition order).
fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let n = b.shape()[1];
    let (ad, bd) = (a.data(), b.data());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut s = 0.0f32;
            for p in 0..k {
                s += ad[i * k + p] * bd[p * n + j];
            }
            out[i * n + j] = s;
        }
    }
    Tensor::from_vec(&[m, n], out)
}

/// Matrix pairs big enough to cross the parallel threshold and the k/n tile
/// boundaries of the blocked kernel.
fn blocked_gemm_pair() -> impl Strategy<Value = (Tensor, Tensor)> {
    (1usize..24, 1usize..80, 1usize..140).prop_flat_map(|(m, k, n)| {
        (
            prop::collection::vec(-5.0f32..5.0, m * k)
                .prop_map(move |v| Tensor::from_vec(&[m, k], v)),
            prop::collection::vec(-5.0f32..5.0, k * n)
                .prop_map(move |v| Tensor::from_vec(&[k, n], v)),
        )
    })
}

fn small_matrix(max_dim: usize) -> impl Strategy<Value = Tensor> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        prop::collection::vec(-10.0f32..10.0, r * c).prop_map(move |v| Tensor::from_vec(&[r, c], v))
    })
}

/// A pair of multiplicable matrices.
fn matmul_pair() -> impl Strategy<Value = (Tensor, Tensor)> {
    (1usize..6, 1usize..6, 1usize..6).prop_flat_map(|(m, k, n)| {
        (
            prop::collection::vec(-5.0f32..5.0, m * k)
                .prop_map(move |v| Tensor::from_vec(&[m, k], v)),
            prop::collection::vec(-5.0f32..5.0, k * n)
                .prop_map(move |v| Tensor::from_vec(&[k, n], v)),
        )
    })
}

/// Exhaustive edge grid: every combination of m, n, k drawn from
/// {1, 7, 9, 63, 65} — one-element, sub-tile, just-past-tile, and
/// just-past-block shapes — matches the naive reference bitwise on all
/// three variants. Deterministic rather than sampled, so every dispatch
/// edge is exercised on every run.
#[test]
fn blocked_gemm_edge_grid_matches_naive() {
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(0xED6E);
    const DIMS: [usize; 5] = [1, 7, 9, 63, 65];
    for m in DIMS {
        for k in DIMS {
            for n in DIMS {
                let a = Tensor::from_vec(
                    &[m, k],
                    (0..m * k).map(|_| rng.gen_range(-4.0f32..4.0)).collect(),
                );
                let b = Tensor::from_vec(
                    &[k, n],
                    (0..k * n).map(|_| rng.gen_range(-4.0f32..4.0)).collect(),
                );
                let reference = naive_matmul(&a, &b);
                let ctx = |variant: &str| format!("{variant} at m={m} k={k} n={n}");
                assert_eq!(matmul(&a, &b).data(), reference.data(), "{}", ctx("matmul"));
                assert_eq!(
                    matmul_at_b(&transpose(&a), &b).data(),
                    reference.data(),
                    "{}",
                    ctx("matmul_at_b")
                );
                assert_eq!(
                    matmul_a_bt(&a, &transpose(&b)).data(),
                    reference.data(),
                    "{}",
                    ctx("matmul_a_bt")
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// (AB)ᵀ == Bᵀ Aᵀ — computed through the fused kernels.
    #[test]
    fn matmul_transpose_law((a, b) in matmul_pair()) {
        let ab_t = transpose(&matmul(&a, &b));
        let bt_at = matmul(&transpose(&b), &transpose(&a));
        prop_assert!(ab_t.max_abs_diff(&bt_at) < 1e-3);
    }

    /// The fused kernels agree with explicit transposition.
    #[test]
    fn fused_kernels_agree((a, b) in matmul_pair()) {
        let at_b = matmul_at_b(&transpose(&a), &b);
        let plain = matmul(&a, &b);
        prop_assert!(at_b.max_abs_diff(&plain) < 1e-3);
        let a_bt = matmul_a_bt(&a, &transpose(&b));
        prop_assert!(a_bt.max_abs_diff(&plain) < 1e-3);
    }

    /// Matmul distributes over addition: A(B + C) == AB + AC.
    #[test]
    fn matmul_distributes((a, b) in matmul_pair(), scale in -3.0f32..3.0) {
        let mut c = b.clone();
        c.scale(scale);
        let sum_first = matmul(&a, &b.add(&c));
        let mul_first = matmul(&a, &b).add(&matmul(&a, &c));
        prop_assert!(sum_first.max_abs_diff(&mul_first) < 1e-2);
    }

    /// axpy is linear: x.axpy(α, y) == x + α·y elementwise.
    #[test]
    fn axpy_matches_manual(x in small_matrix(6), alpha in -4.0f32..4.0) {
        let y = Tensor::full(x.shape(), 1.5);
        let mut fused = x.clone();
        fused.axpy(alpha, &y);
        for (i, v) in fused.data().iter().enumerate() {
            prop_assert!((v - (x.data()[i] + alpha * 1.5)).abs() < 1e-4);
        }
    }

    /// Softmax rows are probability vectors for any finite logits.
    #[test]
    fn softmax_rows_are_distributions(x in small_matrix(8)) {
        let p = softmax(&x);
        prop_assert!(p.all_finite());
        let cols = x.shape()[1];
        for row in p.data().chunks_exact(cols) {
            let s: f32 = row.iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4);
            prop_assert!(row.iter().all(|&v| (0.0..=1.0 + 1e-6).contains(&v)));
        }
    }

    /// Cross-entropy gradient rows always sum to ~0 (softmax minus one-hot).
    #[test]
    fn xent_grad_rows_sum_to_zero(x in small_matrix(6)) {
        let rows = x.shape()[0];
        let cols = x.shape()[1];
        let labels: Vec<usize> = (0..rows).map(|r| r % cols).collect();
        let (loss, grad) = softmax_cross_entropy(&x, &labels);
        prop_assert!(loss.is_finite() && loss >= 0.0);
        for row in grad.data().chunks_exact(cols) {
            let s: f32 = row.iter().sum();
            prop_assert!(s.abs() < 1e-4);
        }
    }

    /// The packed SIMD GEMM is bit-identical to the naive reference for all
    /// three variants: every tier rounds each product individually (no FMA)
    /// and adds in ascending `p` order, exactly like the reference loop.
    #[test]
    fn blocked_gemm_matches_naive_reference((a, b) in blocked_gemm_pair()) {
        let reference = naive_matmul(&a, &b);
        let blocked = matmul(&a, &b);
        prop_assert_eq!(blocked.data(), reference.data());
        let via_at_b = matmul_at_b(&transpose(&a), &b);
        prop_assert_eq!(via_at_b.data(), reference.data());
        let via_a_bt = matmul_a_bt(&a, &transpose(&b));
        prop_assert_eq!(via_a_bt.data(), reference.data());
    }

    /// Adjoint identity `<conv(x), y> == <x, dx(y)>` (zero bias): the
    /// input gradient folds patches back exactly where the forward pass
    /// read them.
    #[test]
    fn conv_input_gradient_is_adjoint(
        seedable in prop::collection::vec(-2.0f32..2.0, 2 * 6 * 6),
        k in 1usize..4,
        p in 0usize..2,
    ) {
        let spec = Conv2dSpec {
            in_channels: 1, out_channels: 1, kernel: k, stride: 1, padding: p,
        };
        let x = Tensor::from_vec(&[2, 1, 6, 6], seedable);
        let w = Tensor::full(&[1, k * k], 0.5);
        let (out, cache) = conv2d_forward(&x, &w, &Tensor::zeros(&[1]), &spec);
        let y = Tensor::full(out.shape(), 0.5);
        let lhs: f32 = out.data().iter().zip(y.data()).map(|(a, b)| a * b).sum();
        let (dx, _, _) = conv2d_backward(&y, &cache, &w, &spec, 6, 6);
        let rhs: f32 = x.data().iter().zip(dx.data()).map(|(a, b)| a * b).sum();
        prop_assert!((lhs - rhs).abs() < 1e-2);
    }
}
