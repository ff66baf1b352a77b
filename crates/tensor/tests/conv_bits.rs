//! Bit-exact fixture for the convolution kernels and the networks built on
//! them: `tests/golden/conv_bits.digest` holds one FNV-1a-64 line per
//! tensor, and every supported ISA tier at pool widths 1, 2 and 8 must
//! reproduce each line. The digest was recorded once, with the code that
//! preceded the change it guards; a conv change that moves a line changed
//! the arithmetic — fix the change, do not re-record.
//!
//! Single `#[test]`: the pool is sized once per process from the
//! environment, so the test sets `DTRAIN_THREADS=8` before the first kernel
//! call and then narrows the usable width with `with_max_threads`.

use std::fmt::Write as _;
use std::path::PathBuf;

use dtrain_models::{mini_resnet, small_cnn};
use dtrain_tensor::parallel::with_max_threads;
use dtrain_tensor::simd::{supported_isas, with_isa};
use dtrain_tensor::{conv2d_backward, conv2d_forward, Conv2dSpec, Tensor};
use rand::{rngs::SmallRng, SeedableRng};

/// FNV-1a-64 over the little-endian bit patterns of `tensors`, in order.
fn fnv1a64<'a>(tensors: impl IntoIterator<Item = &'a Tensor>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in tensors.into_iter().flat_map(Tensor::data) {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
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

const CASES: [Case; 8] = [
    ("conv0", 32, 3, 8, 32, 32, 3, 1, 1),
    ("conv1", 32, 8, 16, 16, 16, 3, 1, 1),
    ("odd7", 3, 2, 5, 7, 7, 3, 1, 1),
    ("k5p2", 2, 4, 3, 9, 9, 5, 1, 2),
    ("k1", 2, 1, 1, 4, 4, 1, 1, 0),
    ("nopad", 2, 3, 4, 6, 6, 3, 1, 0),
    ("stride2", 2, 3, 4, 9, 9, 3, 2, 1),
    ("rect6x10", 2, 2, 3, 6, 10, 3, 1, 1),
];

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
        let (y, cache) = conv2d_forward(&x, &wt, &bias, &spec);
        let gout = Tensor::randn(y.shape(), 1.0, &mut rng);
        let (dx, dw, db) = conv2d_backward(&gout, &cache, &wt, &spec, h, w);
        for (what, t) in [("y", &y), ("dx", &dx), ("dw", &dw), ("db", &db)] {
            writeln!(out, "{name} {what} {:016x}", fnv1a64([t])).unwrap();
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
