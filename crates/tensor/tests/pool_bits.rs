//! Bit-exact fixture for max-pooling: `tests/golden/pool_bits.digest` holds
//! one FNV-1a-64 line per output (forward values, forward argmax indices,
//! backward input gradient) of every case, and every supported ISA tier at
//! pool widths 1, 2 and 8 must reproduce each line. The digest was recorded
//! once, with the scalar pooling loops that preceded the window-2 fast path;
//! a change that moves a line changed which maximum wins or which zero a
//! gradient cell holds — fix the change, do not re-record.
//!
//! The inputs are built to hit every rule the forward pass states: ties
//! inside a window (values drawn from a handful of integers and both zeros,
//! so the *first* maximum must win), a NaN first in its window (it is
//! reported), a NaN later in its window (it is skipped), windows of all
//! `-inf`, and odd `N·C`. The incoming gradients include `-0.0` and `+0.0`,
//! which the backward pass must leave as `+0.0` (`0.0 + g`).
//!
//! Single `#[test]`: the pool is sized once per process from the
//! environment, so the test sets `DTRAIN_THREADS=8` before the first kernel
//! call and then narrows the usable width with `with_max_threads`.

use std::fmt::Write as _;
use std::path::PathBuf;

use dtrain_tensor::parallel::with_max_threads;
use dtrain_tensor::simd::{supported_isas, with_isa};
use dtrain_tensor::{maxpool2d_backward, maxpool2d_forward, Tensor};
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// FNV-1a-64 over `words`' little-endian bytes, in order.
fn fnv1a64(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn bits(t: &Tensor) -> impl Iterator<Item = u32> + '_ {
    t.data().iter().map(|v| v.to_bits())
}

/// `(name, N, C, H, W, window)`.
type Case = (&'static str, usize, usize, usize, usize, usize);

const CASES: [Case; 6] = [
    ("pool0", 32, 8, 32, 32, 2),
    ("pool1", 32, 16, 16, 16, 2),
    ("w2_odd", 3, 5, 6, 10, 2),
    ("w2_one", 1, 1, 2, 2, 2),
    ("w3_odd", 3, 1, 9, 6, 3),
    ("w3", 2, 4, 6, 12, 3),
];

/// A tie-heavy value: a small integer or either zero.
fn tie_value(rng: &mut SmallRng) -> f32 {
    [-2.0, -1.0, -0.0, 0.0, 1.0, 2.0][rng.gen_range(0..6usize)]
}

/// An input whose windows each follow one of the rules the forward pass
/// states, chosen at random per window.
fn input(rng: &mut SmallRng, n: usize, c: usize, h: usize, w: usize, win: usize) -> Tensor {
    let mut x = vec![0.0f32; n * c * h * w];
    for plane in x.chunks_exact_mut(h * w) {
        for oy in 0..h / win {
            for ox in 0..w / win {
                let cells: Vec<usize> = (0..win * win)
                    .map(|i| (oy * win + i / win) * w + ox * win + i % win)
                    .collect();
                let kind = rng.gen_range(0..8u32);
                for &i in &cells {
                    plane[i] = match kind {
                        0..=2 => tie_value(rng),
                        3 | 4 => rng.gen::<f32>() * 2.0 - 1.0,
                        _ => f32::NEG_INFINITY,
                    };
                }
                match kind {
                    // A NaN first in the window: reported, index included.
                    4 => plane[cells[0]] = f32::NAN,
                    // A NaN later in the window: never compares greater.
                    2 | 6 => plane[cells[rng.gen_range(1..cells.len())]] = f32::NAN,
                    // All `-inf` (5), or `-inf` but one finite cell (7).
                    7 => plane[cells[rng.gen_range(0..cells.len())]] = tie_value(rng),
                    _ => {}
                }
            }
        }
    }
    Tensor::from_vec(&[n, c, h, w], x)
}

/// An incoming gradient with a share of exact `-0.0` and `+0.0`.
fn gradient(rng: &mut SmallRng, shape: &[usize]) -> Tensor {
    let len = shape.iter().product();
    let g = (0..len)
        .map(|_| match rng.gen_range(0..4u32) {
            0 => -0.0,
            1 => 0.0,
            _ => rng.gen::<f32>() * 2.0 - 1.0,
        })
        .collect();
    Tensor::from_vec(shape, g)
}

fn digest() -> String {
    let mut out = String::new();
    for (i, &(name, n, c, h, w, win)) in CASES.iter().enumerate() {
        let mut rng = SmallRng::seed_from_u64(0x9001_B175 + i as u64);
        let x = input(&mut rng, n, c, h, w, win);
        let (y, idx) = maxpool2d_forward(&x, win);
        let g = gradient(&mut rng, y.shape());
        let dx = maxpool2d_backward(&g, &idx, x.shape());
        writeln!(out, "{name} y {:016x}", fnv1a64(bits(&y))).unwrap();
        writeln!(out, "{name} idx {:016x}", fnv1a64(idx.iter().copied())).unwrap();
        writeln!(out, "{name} dx {:016x}", fnv1a64(bits(&dx))).unwrap();
    }
    out
}

#[test]
fn pool_bits_match_the_recorded_digest_on_every_tier_and_width() {
    // Must happen before the first kernel call in this process: the pool
    // reads the variable once, lazily.
    std::env::set_var("DTRAIN_THREADS", "8");
    inputs_hit_every_window_rule();

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/pool_bits.digest");
    if std::env::var("DTRAIN_BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(&path, digest()).unwrap();
    }
    let want = std::fs::read_to_string(&path).expect("tests/golden/pool_bits.digest is committed");
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

/// The digest only guards the rules its inputs exercise: check that each
/// case has ties, both NaN placements, all-`-inf` windows and both zero
/// gradients, so a generator edit cannot quietly drop one.
fn inputs_hit_every_window_rule() {
    for (i, &(name, n, c, h, w, win)) in CASES.iter().enumerate() {
        if n * c * h * w < 64 {
            continue;
        }
        let mut rng = SmallRng::seed_from_u64(0x9001_B175 + i as u64);
        let x = input(&mut rng, n, c, h, w, win);
        let (y, idx) = maxpool2d_forward(&x, win);
        let g = gradient(&mut rng, y.shape());
        let xd = x.data();
        let (mut nan_first, mut nan_later, mut all_ninf, mut tie) = (0, 0, 0, 0);
        for (o, &bi) in idx.iter().enumerate() {
            let (plane, p) = (o / (h / win * (w / win)), o % (h / win * (w / win)));
            let corner = plane * h * w + (p / (w / win)) * win * w + (p % (w / win)) * win;
            let cells: Vec<f32> = (0..win * win)
                .map(|k| xd[corner + (k / win) * w + k % win])
                .collect();
            if cells[0].is_nan() {
                nan_first += 1;
                assert_eq!(bi as usize, corner, "{name}: a leading NaN is reported");
            } else if cells.iter().any(|v| v.is_nan()) {
                nan_later += 1;
            }
            all_ninf += usize::from(cells.iter().all(|&v| v == f32::NEG_INFINITY));
            let best = y.data()[o];
            tie += usize::from(cells.iter().filter(|&&v| v == best).count() > 1);
        }
        let zeros = |neg: bool| {
            g.data()
                .iter()
                .filter(|v| **v == 0.0 && v.is_sign_negative() == neg)
                .count()
        };
        for (what, count) in [
            ("NaN-first windows", nan_first),
            ("NaN-later windows", nan_later),
            ("all -inf windows", all_ninf),
            ("tied windows", tie),
            ("-0.0 gradients", zeros(true)),
            ("+0.0 gradients", zeros(false)),
        ] {
            assert!(count > 0, "{name} has no {what}");
        }
    }
}
