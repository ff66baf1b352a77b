//! Determinism regression: every kernel, and a whole training step built
//! from them, must produce *bit-identical* output at any thread count. The
//! parallel substrate only ever splits work over independent output blocks
//! and keeps each per-element reduction in a fixed sequential order, so
//! `DTRAIN_THREADS=1`, `=2`, and `=8` must agree to the last bit — this is
//! what makes the distributed-training experiments reproducible across
//! machines with different core counts.
//!
//! Single `#[test]`: the pool is sized once per process from the
//! environment, so the test sets `DTRAIN_THREADS=8` before the first kernel
//! call and then narrows the usable width with `with_max_threads`.

use dtrain_models::small_cnn;
use dtrain_tensor::parallel::with_max_threads;
use dtrain_tensor::{
    conv2d_backward, conv2d_forward, matmul, matmul_a_bt, matmul_at_b, Conv2dSpec, Tensor,
};
use rand::{rngs::SmallRng, SeedableRng};

/// Everything the kernels produce for one fixed input set, flattened.
fn kernel_suite() -> Vec<Vec<f32>> {
    let mut rng = SmallRng::seed_from_u64(0xD15C0);
    // Sizes straddle the parallel threshold and the k/n tile boundaries.
    let a = Tensor::randn(&[70, 67], 1.0, &mut rng);
    let b = Tensor::randn(&[67, 130], 1.0, &mut rng);
    let at = Tensor::randn(&[67, 70], 1.0, &mut rng);
    let bt = Tensor::randn(&[130, 67], 1.0, &mut rng);

    let spec = Conv2dSpec {
        in_channels: 3,
        out_channels: 8,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let x = Tensor::randn(&[8, 3, 12, 12], 1.0, &mut rng);
    let w = Tensor::randn(&[8, 27], 0.4, &mut rng);
    let bias = Tensor::randn(&[8], 0.1, &mut rng);

    let mut out = Vec::new();
    out.push(matmul(&a, &b).into_vec());
    out.push(matmul_at_b(&at, &b).into_vec());
    out.push(matmul_a_bt(&a, &bt).into_vec());
    let (y, cols) = conv2d_forward(&x, &w, &bias, &spec);
    let gout = Tensor::full(y.shape(), 0.25);
    let (dx, dw, db) = conv2d_backward(&gout, &cols, &w, &spec, 12, 12);
    out.push(y.into_vec());
    out.push(cols.into_vec());
    out.push(dx.into_vec());
    out.push(dw.into_vec());
    out.push(db.into_vec());

    // Above the kernel level: one `small_cnn` training step (conv, relu,
    // pool, dense, loss, full backward) on a fresh, seeded network.
    let xb = Tensor::randn(&[32, 3, 16, 16], 1.0, &mut rng);
    let labels: Vec<usize> = (0..32).map(|i| i % 10).collect();
    let mut net = small_cnn(3, 16, 10, 7);
    let (loss, acc) = net.train_batch(xb, &labels);
    out.push(vec![loss, acc]);
    out.push(net.grads().0[0].data().to_vec());
    out
}

#[test]
fn kernels_bit_identical_across_thread_widths() {
    // Must happen before the first kernel call in this process: the pool
    // reads the variable once, lazily.
    std::env::set_var("DTRAIN_THREADS", "8");

    let reference = with_max_threads(1, kernel_suite);
    for width in [2usize, 3, 8] {
        let got = with_max_threads(width, kernel_suite);
        assert_eq!(reference.len(), got.len());
        for (ti, (r, g)) in reference.iter().zip(&got).enumerate() {
            assert_eq!(r.len(), g.len(), "tensor {ti} length at width {width}");
            for (i, (rv, gv)) in r.iter().zip(g).enumerate() {
                assert_eq!(
                    rv.to_bits(),
                    gv.to_bits(),
                    "tensor {ti} elem {i}: {rv} (1 thread) vs {gv} ({width} threads)"
                );
            }
        }
    }
}
