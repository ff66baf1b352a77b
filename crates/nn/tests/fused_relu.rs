//! A `Conv2d` with a fused ReLU ([`Conv2d::with_relu`]) must be `Conv2d` →
//! `Relu` to the bit: the forward output, `dW`, `db` and `dx` of a full
//! backward, and the parameter gradients of `backward_params`, on every ISA
//! tier at pool widths 1, 2 and 8.
//!
//! The batch is built so the pre-activations hit every case of the mask rule
//! `y > 0 ⇔ x > 0`: exactly `+0.0` (a zero region under a zero bias),
//! negative, positive, NaN and `±inf`. The output has 5·7 pixels per channel,
//! so no image's mask fills a whole number of words. The incoming gradient
//! holds `-0.0` and `+0.0` too.
//!
//! Single `#[test]`: the pool is sized once per process from the
//! environment, so the test sets `DTRAIN_THREADS=8` before the first kernel
//! call and then narrows the usable width with `with_max_threads`.

use dtrain_nn::{Conv2d, Layer, Relu};
use dtrain_tensor::parallel::with_max_threads;
use dtrain_tensor::simd::{supported_isas, with_isa};
use dtrain_tensor::{Conv2dSpec, Scratch, Tensor};
use rand::{rngs::SmallRng, Rng, SeedableRng};

const SPEC: Conv2dSpec = Conv2dSpec {
    in_channels: 2,
    out_channels: 4,
    kernel: 3,
    stride: 1,
    padding: 1,
};
const HW: (usize, usize) = (5, 7);
const N: usize = 3;

/// Image 0 is random; image 1 is zero but for one NaN, so most of its
/// pre-activations are the bias — exactly `+0.0` in the zero-bias channels;
/// image 2 is random with a `+inf` and a `-inf` far apart.
fn batch() -> Tensor {
    let mut rng = SmallRng::seed_from_u64(0xF05E);
    let per_image = SPEC.in_channels * HW.0 * HW.1;
    let mut x = Tensor::randn(&[N, SPEC.in_channels, HW.0, HW.1], 1.0, &mut rng);
    let d = x.data_mut();
    d[per_image..2 * per_image].fill(0.0);
    d[per_image + 3 * HW.1 + 5] = f32::NAN;
    d[2 * per_image + 8] = f32::INFINITY;
    d[2 * per_image + HW.0 * HW.1 + 4 * HW.1 + 6] = f32::NEG_INFINITY;
    x
}

/// A conv with fixed parameters: random weights, biases `0, -0.3, 0.2, 0`.
fn conv() -> Conv2d {
    let mut rng = SmallRng::seed_from_u64(0xC0);
    let mut c = Conv2d::new("c", SPEC, HW, &mut rng);
    let mut p = c.params_mut();
    p[1].data_mut().copy_from_slice(&[0.0, -0.3, 0.2, 0.0]);
    c
}

/// The gradient arriving at the activation: random, a quarter of it zeros
/// of either sign.
fn incoming() -> Tensor {
    let mut rng = SmallRng::seed_from_u64(0x6AD);
    let shape = [N, SPEC.out_channels, HW.0, HW.1];
    let g = (0..shape.iter().product())
        .map(|_| match rng.gen_range(0..8u32) {
            0 => -0.0,
            1 => 0.0,
            _ => rng.gen::<f32>() * 2.0 - 1.0,
        })
        .collect();
    Tensor::from_vec(&shape, g)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// `(y, dx, dW, db)` of one training step, then `(dW, db)` of a second one
/// that ends in `backward_params`.
fn step(fused: bool) -> Vec<Vec<u32>> {
    let mut s = Scratch::new();
    let mut c = if fused { conv().with_relu() } else { conv() };
    let mut relu = (!fused).then(|| Relu::new("r"));
    let mut out = Vec::new();
    for params_only in [false, true] {
        let mut y = c.forward(batch(), true, &mut s);
        if let Some(r) = &mut relu {
            y = r.forward(y, true, &mut s);
        }
        out.push(bits(&y));
        let mut g = incoming();
        if let Some(r) = &mut relu {
            g = r.backward(g, &mut s);
        }
        if params_only {
            c.backward_params(g, &mut s);
        } else {
            out.push(bits(&c.backward(g, &mut s)));
        }
        out.extend(c.grads().into_iter().map(bits));
    }
    out
}

#[test]
fn fused_relu_is_conv_then_relu_on_every_tier_and_width() {
    // Must happen before the first kernel call in this process: the pool
    // reads the variable once, lazily.
    std::env::set_var("DTRAIN_THREADS", "8");

    let y = conv().forward(batch(), false, &mut Scratch::new());
    let pre = y.data();
    for (what, hit) in [
        ("exact +0.0", pre.iter().any(|v| v.to_bits() == 0)),
        ("negative", pre.iter().any(|&v| v < 0.0)),
        ("positive", pre.iter().any(|&v| v > 0.0 && v.is_finite())),
        ("NaN", pre.iter().any(|v| v.is_nan())),
        ("+inf", pre.contains(&f32::INFINITY)),
        ("-inf", pre.contains(&f32::NEG_INFINITY)),
    ] {
        assert!(hit, "no {what} pre-activation");
    }

    let names = [
        "y",
        "dx",
        "dW",
        "db",
        "y (2nd)",
        "dW (params only)",
        "db (params only)",
    ];
    for isa in supported_isas() {
        for width in [1usize, 2, 8] {
            let (want, got) = with_isa(isa, || {
                with_max_threads(width, || (step(false), step(true)))
            });
            assert_eq!(want.len(), names.len());
            for ((name, w), g) in names.iter().zip(&want).zip(&got) {
                let first = w.iter().zip(g).position(|(a, b)| a != b);
                assert_eq!(w.len(), g.len(), "{name} at {} x{width}", isa.name());
                assert_eq!(first, None, "{name} differs at {} x{width}", isa.name());
            }
        }
    }
}
