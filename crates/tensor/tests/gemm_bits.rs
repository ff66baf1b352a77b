//! Bit-exact fixture for the three GEMM variants on the dense shapes the
//! workloads and studies run: `tests/golden/gemm_bits.digest` holds one
//! FNV-1a-64 line per product, and every supported ISA tier at pool widths
//! 1, 2 and 8 must reproduce each line. The digest was recorded once, with
//! the packed-A driver that preceded in-place A reads; a GEMM change that
//! moves a line changed the arithmetic — fix the change, do not re-record.
//!
//! Each `Dense(in → out)` layer at batch `b` issues three products: forward
//! `x·Wᵀ` (`matmul_a_bt`), `dW = gᵀ·x` (`matmul_at_b`) and `dx = g·W`
//! (`matmul`), with `x[b, in]`, `W[out, in]` and `g[b, out]`.
//!
//! Single `#[test]`: the pool is sized once per process from the
//! environment, so the test sets `DTRAIN_THREADS=8` before the first kernel
//! call and then narrows the usable width with `with_max_threads`.

use std::fmt::Write as _;
use std::path::PathBuf;

use dtrain_tensor::parallel::with_max_threads;
use dtrain_tensor::simd::{supported_isas, with_isa};
use dtrain_tensor::{matmul, matmul_a_bt, matmul_at_b, Tensor};
use rand::{rngs::SmallRng, SeedableRng};

/// FNV-1a-64 over the little-endian bit patterns of `t`.
fn fnv1a64(t: &Tensor) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in t.data() {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `(name, batch, in, out)`: one dense layer.
const LAYERS: [(&str, usize, usize, usize); 11] = [
    // The teacher MLP (32 → 64 → 32 → 10) of the real-path workloads and
    // the real-math studies, at both batch sizes they train with.
    ("teacher.l0.b16", 16, 32, 64),
    ("teacher.l1.b16", 16, 64, 32),
    ("teacher.l2.b16", 16, 32, 10),
    ("teacher.l0.b32", 32, 32, 64),
    ("teacher.l1.b32", 32, 64, 32),
    ("teacher.l2.b32", 32, 32, 10),
    // `proc_bulk`'s 1.09 M-parameter MLP (32 → 1024 → 1024 → 10).
    ("mlp1024.l0.b16", 16, 32, 1024),
    ("mlp1024.l1.b16", 16, 1024, 1024),
    ("mlp1024.l2.b16", 16, 1024, 10),
    // SmallCnn's classifier: k = 1024 crosses a reduction chunk.
    ("dense0.b32", 32, 1024, 8),
    // A batch of one: every row block is a ragged edge.
    ("edge.b1", 1, 33, 17),
];

/// One line per product of every layer.
fn digest() -> String {
    let mut out = String::new();
    for (i, &(name, batch, fan_in, fan_out)) in LAYERS.iter().enumerate() {
        let mut rng = SmallRng::seed_from_u64(0x6E_4B17 + i as u64);
        let x = Tensor::randn(&[batch, fan_in], 1.0, &mut rng);
        let w = Tensor::randn(&[fan_out, fan_in], 0.3, &mut rng);
        let g = Tensor::randn(&[batch, fan_out], 1.0, &mut rng);
        let products = [
            ("fwd", matmul_a_bt(&x, &w)),
            ("dw", matmul_at_b(&g, &x)),
            ("dx", matmul(&g, &w)),
        ];
        for (what, t) in &products {
            writeln!(out, "{name} {what} {:016x}", fnv1a64(t)).unwrap();
        }
    }
    out
}

#[test]
fn gemm_bits_match_the_recorded_digest_on_every_tier_and_width() {
    // Must happen before the first kernel call in this process: the pool
    // reads the variable once, lazily.
    std::env::set_var("DTRAIN_THREADS", "8");

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/gemm_bits.digest");
    if std::env::var("DTRAIN_BLESS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, digest()).unwrap();
    }
    let want = std::fs::read_to_string(&path).expect("tests/golden/gemm_bits.digest is committed");
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
