//! Bit-exact fixture for the convolution kernels and the networks built on
//! them: `tests/golden/conv_bits.digest` holds one FNV-1a-64 line per
//! tensor, and every supported ISA tier at pool widths 1, 2 and 8 must
//! reproduce each line. The digest was recorded once, with the code that
//! preceded the change it guards; a conv change that moves a line changed
//! the arithmetic — fix the change, do not re-record.
//!
//! Per case: `y`, the fused-ReLU output and its mask (`yrelu`), `dx`, `dw`
//! and `db`. The shapes straddle every register block of the kernels
//! (channel counts and output widths one past and one short of a block,
//! stride 2 over an odd width), and two cases carry non-finite values: a
//! `+inf` weight on the top-left tap, which meets the zero padding in
//! forward (`0·inf` is NaN) but whose out-of-range input-gradient taps must
//! contribute nothing, a NaN pixel on the image's top row and a `-inf`
//! gradient element.
//!
//! Single `#[test]`: the pool is sized once per process from the
//! environment, so the test sets `DTRAIN_THREADS=8` before the first kernel
//! call and then narrows the usable width with `with_max_threads`.

use std::fmt::Write as _;
use std::path::PathBuf;

use dtrain_models::{mini_resnet, small_cnn};
use dtrain_tensor::parallel::with_max_threads;
use dtrain_tensor::simd::{supported_isas, with_isa};
use dtrain_tensor::{
    conv2d_backward, conv2d_forward, conv2d_relu_forward_scratch, Conv2dSpec, Scratch, Tensor,
};
use rand::{rngs::SmallRng, SeedableRng};

/// FNV-1a-64 over the little-endian bytes of `words`, in order.
fn fnv1a64_words(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// FNV-1a-64 over the little-endian bit patterns of `tensors`, in order.
fn fnv1a64<'a>(tensors: impl IntoIterator<Item = &'a Tensor>) -> u64 {
    fnv1a64_words(tensors.into_iter().flat_map(Tensor::data).map(|&v| bits(v)))
}

/// `v`'s bit pattern, every NaN as `f32::NAN`'s. Which NaN a sum of two
/// returns is not part of the contract: x86 returns the first operand's,
/// and the compiler may commute an addition's operands.
fn bits(v: f32) -> u32 {
    if v.is_nan() {
        f32::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

/// `(name, N, C, OC, H, W, k, stride, pad)`.
type Case = (
    &'static str,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
    usize,
);

const CASES: [Case; 16] = [
    ("conv0", 32, 3, 8, 32, 32, 3, 1, 1),
    ("conv1", 32, 8, 16, 16, 16, 3, 1, 1),
    ("odd7", 3, 2, 5, 7, 7, 3, 1, 1),
    ("k5p2", 2, 4, 3, 9, 9, 5, 1, 2),
    ("k1", 2, 1, 1, 4, 4, 1, 1, 0),
    ("nopad", 2, 3, 4, 6, 6, 3, 1, 0),
    ("stride2", 2, 3, 4, 9, 9, 3, 2, 1),
    ("rect6x10", 2, 2, 3, 6, 10, 3, 1, 1),
    // Across the kernels' blocks: 1, 9, 12 (`mini_resnet`'s width) and 17
    // input channels, 1, 9 and 17 output channels, output rows of 15, 17
    // and 33 pixels, stride 2 over odd widths.
    ("c1o1w15", 2, 1, 1, 5, 15, 3, 1, 1),
    ("c9o9w17", 2, 9, 9, 4, 17, 3, 1, 1),
    ("c12o12w16", 3, 12, 12, 16, 16, 3, 1, 1),
    ("c17o17w33", 2, 17, 17, 3, 33, 3, 1, 1),
    ("c12o1w15", 2, 12, 1, 6, 15, 3, 1, 1),
    ("c1o17w17k5", 2, 1, 17, 5, 17, 5, 1, 2),
    ("s2w13", 2, 9, 9, 9, 13, 3, 2, 1),
    ("s2w33", 1, 17, 9, 5, 33, 3, 2, 1),
];

/// `(name, N, C, OC, H, W, stride)` of the non-finite cases (`k = 3`,
/// `pad = 1`).
const NONFINITE: [(&str, usize, usize, usize, usize, usize, usize); 2] = [
    ("nonfinite", 2, 9, 9, 7, 17, 1),
    ("nonfinite_s2", 2, 9, 9, 7, 15, 2),
];

/// Forward (plain and fused-ReLU) and backward of one case, one line per
/// result; returns `y` and `dx`.
fn case_lines(
    out: &mut String,
    name: &str,
    spec: &Conv2dSpec,
    (x, wt, bias): (&Tensor, &Tensor, &Tensor),
    mut gout: impl FnMut(&[usize]) -> Tensor,
) -> (Tensor, Tensor) {
    let (h, w) = (x.shape()[2], x.shape()[3]);
    let (y, cache) = conv2d_forward(x, wt, bias, spec);
    let (yr, _, mask) = conv2d_relu_forward_scratch(x, wt, bias, spec, &mut Scratch::new());
    let gout = gout(y.shape());
    let (dx, dw, db) = conv2d_backward(&gout, &cache, wt, spec, h, w);
    writeln!(out, "{name} y {:016x}", fnv1a64([&y])).unwrap();
    let relu = yr.data().iter().map(|&v| bits(v)).chain(mask);
    writeln!(out, "{name} yrelu {:016x}", fnv1a64_words(relu)).unwrap();
    for (what, t) in [("dx", &dx), ("dw", &dw), ("db", &db)] {
        writeln!(out, "{name} {what} {:016x}", fnv1a64([t])).unwrap();
    }
    (y, dx)
}

/// One line per output tensor of every case, then one per network.
fn digest() -> String {
    let mut out = String::new();
    for (i, &(name, n, c, oc, h, w, k, stride, pad)) in CASES.iter().enumerate() {
        let spec = Conv2dSpec {
            in_channels: c,
            out_channels: oc,
            kernel: k,
            stride,
            padding: pad,
        };
        let mut rng = SmallRng::seed_from_u64(0xC0_4B17 + i as u64);
        let x = Tensor::randn(&[n, c, h, w], 1.0, &mut rng);
        let wt = Tensor::randn(&[oc, c * k * k], 0.4, &mut rng);
        let bias = Tensor::randn(&[oc], 0.1, &mut rng);
        let gout = |shape: &[usize]| Tensor::randn(shape, 1.0, &mut rng);
        case_lines(&mut out, name, &spec, (&x, &wt, &bias), gout);
    }

    for (i, &(name, n, c, oc, h, w, stride)) in NONFINITE.iter().enumerate() {
        let spec = Conv2dSpec {
            in_channels: c,
            out_channels: oc,
            kernel: 3,
            stride,
            padding: 1,
        };
        let mut rng = SmallRng::seed_from_u64(0x1AF + i as u64);
        let mut x = Tensor::randn(&[n, c, h, w], 1.0, &mut rng);
        let mut wt = Tensor::randn(&[oc, c * 9], 0.4, &mut rng);
        let bias = Tensor::randn(&[oc], 0.1, &mut rng);
        // Image 0, channel 1, top row; output channel 2's tap
        // `(ch 4, ky 0, kx 0)`; image 1, output channel 2, last row and column.
        x.data_mut()[h * w + w / 2] = f32::NAN;
        wt.data_mut()[2 * c * 9 + 4 * 9] = f32::INFINITY;
        let gout = |shape: &[usize]| {
            let mut g = Tensor::randn(shape, 1.0, &mut rng);
            let (oh, ow) = (shape[2], shape[3]);
            g.data_mut()[((oc + 2) * oh + oh - 1) * ow + ow - 1] = f32::NEG_INFINITY;
            g
        };
        let (y, dx) = case_lines(&mut out, name, &spec, (&x, &wt, &bias), gout);
        if stride == 1 {
            // Image 0: output channel 2's top-left pixel reads the padding
            // with the `inf` tap; input channel 4's last row would get that
            // tap from output row `h`, which does not exist.
            let (y, dx) = (y.data(), dx.data());
            assert!(y[2 * h * w].is_nan(), "{name}: 0·inf in forward");
            let row = &dx[4 * h * w..5 * h * w];
            assert!(row[0].is_infinite(), "{name}: the inf tap reaches dx");
            let last = &row[(h - 1) * w..];
            assert!(last.iter().all(|v| v.is_finite()), "{name}: masked taps");
        }
    }

    // Three SGD steps on each CNN: conv forward/backward, the layers around
    // them and the first layer's place in `Network::backward`, end to end.
    let nets = [
        (
            "small_cnn",
            small_cnn(3, 32, 8, 21),
            32usize,
            32usize,
            8usize,
        ),
        ("mini_resnet", mini_resnet(3, 16, 6, 2, 22), 8, 16, 6),
    ];
    for (name, mut net, batch, side, classes) in nets {
        let mut rng = SmallRng::seed_from_u64(0xBA7C4);
        let labels: Vec<usize> = (0..batch).map(|i| (i * 7 + 3) % classes).collect();
        for _ in 0..3 {
            let x = Tensor::randn(&[batch, 3, side, side], 1.0, &mut rng);
            net.train_batch(x, &labels);
            let grads = net.grads();
            let mut params = net.get_params();
            params.axpy(-0.05, &grads);
            net.set_params(&params);
        }
        let params = net.get_params();
        writeln!(out, "{name} params {:016x}", fnv1a64(&params.0)).unwrap();
    }
    out
}

#[test]
fn conv_bits_match_the_recorded_digest_on_every_tier_and_width() {
    // Must happen before the first kernel call in this process: the pool
    // reads the variable once, lazily.
    std::env::set_var("DTRAIN_THREADS", "8");

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/conv_bits.digest");
    if std::env::var("DTRAIN_BLESS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, digest()).unwrap();
    }
    let want = std::fs::read_to_string(&path).expect("tests/golden/conv_bits.digest is committed");
    for isa in supported_isas() {
        for width in [1usize, 2, 8] {
            let got = with_isa(isa, || with_max_threads(width, digest));
            for (line, (w, g)) in want.lines().zip(got.lines()).enumerate() {
                assert_eq!(w, g, "line {} at {} x{width}", line + 1, isa.name());
            }
            assert_eq!(want.lines().count(), got.lines().count());
        }
    }
}
