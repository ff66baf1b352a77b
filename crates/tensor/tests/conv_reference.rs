//! The convolution kernels against a naive seven-loop reference, **bitwise**.
//!
//! The reference spells out the numeric contract of DESIGN §2b/§2c one
//! scalar operation at a time: every product rounded alone, every output
//! element summed from `+0.0` in ascending index order — forward over
//! `(ch, ky, kx)` with the bias added last, `dW` and `db` over
//! `(img, oy, ox)`, the patch gradient over `oc`, and each input-gradient
//! element over the `(oy, ox)` that touch it. The packed, tiled, per-image
//! kernels must reproduce it exactly on every ISA tier.

use dtrain_tensor::simd::{supported_isas, with_isa};
use dtrain_tensor::{conv2d_backward, conv2d_forward, Conv2dSpec, Tensor};
use proptest::prelude::*;
use rand::{rngs::SmallRng, SeedableRng};

struct Reference {
    y: Vec<f32>,
    dx: Vec<f32>,
    dw: Vec<f32>,
    db: Vec<f32>,
}

/// `x[N,C,H,W]`, `wt[OC, C·K·K]`, `bias[OC]`, `g[N,OC,OH,OW]`.
fn reference(x: &Tensor, wt: &Tensor, bias: &Tensor, g: &Tensor, spec: &Conv2dSpec) -> Reference {
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (oc_n, k, s, pad) = (spec.out_channels, spec.kernel, spec.stride, spec.padding);
    let (oh, ow) = (spec.out_size(h), spec.out_size(w));
    let ckk = c * k * k;
    let (xd, wd, gd) = (x.data(), wt.data(), g.data());
    // Patch element `(ch, ky, kx)` of output pixel `(oy, ox)`: the input
    // index, or `None` in the zero padding.
    let src = |img: usize, oy: usize, ox: usize, ch: usize, ky: usize, kx: usize| {
        let iy = (oy * s + ky).checked_sub(pad).filter(|&iy| iy < h)?;
        let ix = (ox * s + kx).checked_sub(pad).filter(|&ix| ix < w)?;
        Some(((img * c + ch) * h + iy) * w + ix)
    };
    let patch = |img, oy, ox, ch, ky, kx| src(img, oy, ox, ch, ky, kx).map_or(0.0, |i| xd[i]);
    let g_at =
        |img: usize, oc: usize, oy: usize, ox: usize| gd[((img * oc_n + oc) * oh + oy) * ow + ox];

    let mut y = vec![0.0f32; n * oc_n * oh * ow];
    for img in 0..n {
        for oc in 0..oc_n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for ch in 0..c {
                        for ky in 0..k {
                            for kx in 0..k {
                                let wv = wd[oc * ckk + (ch * k + ky) * k + kx];
                                acc += wv * patch(img, oy, ox, ch, ky, kx);
                            }
                        }
                    }
                    y[((img * oc_n + oc) * oh + oy) * ow + ox] = acc + bias.data()[oc];
                }
            }
        }
    }

    let mut dw = vec![0.0f32; oc_n * ckk];
    let mut db = vec![0.0f32; oc_n];
    for oc in 0..oc_n {
        for img in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    db[oc] += g_at(img, oc, oy, ox);
                }
            }
        }
        for ch in 0..c {
            for ky in 0..k {
                for kx in 0..k {
                    let mut acc = 0.0f32;
                    for img in 0..n {
                        for oy in 0..oh {
                            for ox in 0..ow {
                                acc += g_at(img, oc, oy, ox) * patch(img, oy, ox, ch, ky, kx);
                            }
                        }
                    }
                    dw[oc * ckk + (ch * k + ky) * k + kx] = acc;
                }
            }
        }
    }

    let mut dx = vec![0.0f32; xd.len()];
    for img in 0..n {
        for oy in 0..oh {
            for ox in 0..ow {
                for ch in 0..c {
                    for ky in 0..k {
                        for kx in 0..k {
                            let mut d = 0.0f32;
                            for oc in 0..oc_n {
                                d += wd[oc * ckk + (ch * k + ky) * k + kx] * g_at(img, oc, oy, ox);
                            }
                            if let Some(i) = src(img, oy, ox, ch, ky, kx) {
                                dx[i] += d;
                            }
                        }
                    }
                }
            }
        }
    }
    Reference { y, dx, dw, db }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|f| f.to_bits()).collect()
}

/// Forward and backward on every supported tier against the reference.
#[allow(clippy::too_many_arguments)]
fn check(
    n: usize,
    c: usize,
    oc: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let spec = Conv2dSpec {
        in_channels: c,
        out_channels: oc,
        kernel: k,
        stride,
        padding: pad,
    };
    let mut rng = SmallRng::seed_from_u64(seed);
    let x = Tensor::randn(&[n, c, h, w], 1.0, &mut rng);
    let wt = Tensor::randn(&[oc, c * k * k], 0.5, &mut rng);
    let bias = Tensor::randn(&[oc], 0.2, &mut rng);
    let g = Tensor::randn(&[n, oc, spec.out_size(h), spec.out_size(w)], 1.0, &mut rng);
    let want = reference(&x, &wt, &bias, &g, &spec);
    for isa in supported_isas() {
        let (y, dx, dw, db) = with_isa(isa, || {
            let (y, cache) = conv2d_forward(&x, &wt, &bias, &spec);
            let (dx, dw, db) = conv2d_backward(&g, &cache, &wt, &spec, h, w);
            (y, dx, dw, db)
        });
        let tier = isa.name();
        prop_assert_eq!(bits(y.data()), bits(&want.y), "y on {}", tier);
        prop_assert_eq!(bits(dx.data()), bits(&want.dx), "dx on {}", tier);
        prop_assert_eq!(bits(dw.data()), bits(&want.dw), "dw on {}", tier);
        prop_assert_eq!(bits(db.data()), bits(&want.db), "db on {}", tier);
    }
    Ok(())
}

#[test]
fn shapes_that_cross_every_blocking_boundary() {
    // More pixels than one reduction chunk (dW's k = OH·OW > 512), more
    // patch elements than one chunk (forward's k = C·K·K > 512), more output
    // channels than any tier's row block, a kernel wider than the image.
    // Then the `dW` kernel's blocks: 17 and 33 output channels (one past
    // two and four 8-lane blocks), `C·K·K` one
    // past each register-block height (4, 14, 28 rows; `db` is one more
    // row), stride 2 with 9 channels, and a 1×1 output. Then the direct
    // kernels' blocks: 1, 9, 12 and 17 input channels, 1, 9 and 17 output
    // channels, rows of 15, 17 and 33 pixels, stride 2 over odd widths.
    for (n, c, oc, h, w, k, stride, pad) in [
        (2, 2, 3, 24, 26, 3, 1, 1),
        (1, 58, 2, 4, 4, 3, 1, 1),
        (2, 3, 19, 6, 5, 3, 1, 1),
        (2, 1, 2, 3, 3, 5, 1, 2),
        (3, 2, 9, 8, 8, 2, 2, 0),
        (2, 3, 17, 7, 9, 3, 1, 1),
        (1, 2, 33, 5, 6, 3, 1, 0),
        (2, 5, 6, 5, 4, 1, 1, 0),
        (2, 15, 8, 6, 5, 1, 1, 0),
        (2, 29, 17, 4, 5, 1, 1, 1),
        (3, 3, 9, 9, 11, 3, 2, 1),
        (2, 4, 10, 3, 3, 3, 1, 0),
        (2, 1, 1, 5, 15, 3, 1, 1),
        (2, 9, 9, 4, 17, 3, 1, 1),
        (2, 12, 12, 6, 16, 3, 1, 1),
        (1, 17, 17, 3, 33, 3, 1, 1),
        (2, 12, 1, 4, 15, 3, 1, 1),
        (1, 1, 17, 5, 17, 5, 1, 2),
        (2, 9, 9, 7, 13, 3, 2, 1),
        (1, 17, 9, 5, 33, 3, 2, 1),
    ] {
        check(n, c, oc, h, w, k, stride, pad, 0xC0FFEE).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn conv_matches_the_naive_reference_bitwise(
        n in 1usize..5,
        c in 1usize..10,
        oc in 1usize..10,
        h in 4usize..13,
        w in 4usize..13,
        k in 1usize..6,
        stride in 1usize..3,
        pad in 0usize..3,
        seed in 0u64..1000,
    ) {
        if k > h.min(w) + 2 * pad {
            return Ok(()); // no output pixel
        }
        check(n, c, oc, h, w, k, stride, pad, seed)?;
    }
}
