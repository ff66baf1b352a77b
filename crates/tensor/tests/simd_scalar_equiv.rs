//! Cross-ISA equivalence suite: every SIMD tier (AVX-512, AVX2) must be
//! **bitwise** identical to the portable scalar fallback on all three GEMM
//! variants. The kernels batch independent output columns into lanes and
//! round every product individually (no FMA), so the instruction set is
//! invisible to the numbers — this suite is the enforcement of that
//! contract. Shapes cover full tiles, ragged edges in both dimensions, the
//! KC reduction-chunk boundary, and degenerate one-row/one-column cases.

use dtrain_tensor::simd::{supported_isas, with_isa, Isa};
use dtrain_tensor::{matmul, matmul_a_bt, matmul_at_b, transpose, Tensor};
use proptest::prelude::*;
use rand::{rngs::SmallRng, SeedableRng};

/// All three variants of `a @ b` under the given ISA, as raw bit vectors.
fn gemm_bits(isa: Isa, a: &Tensor, b: &Tensor) -> [Vec<u32>; 3] {
    with_isa(isa, || {
        let plain = matmul(a, b);
        let via_at_b = matmul_at_b(&transpose(a), b);
        let via_a_bt = matmul_a_bt(a, &transpose(b));
        [plain, via_at_b, via_a_bt].map(|t| t.data().iter().map(|v| v.to_bits()).collect())
    })
}

/// Shapes chosen to hit every dispatch path: sub-tile, exact-tile,
/// ragged-edge, multi-panel, and reductions spanning multiple KC=512
/// chunks (the chunk boundary stores C and reloads it — an f32 roundtrip
/// that must stay exact on every tier).
const SHAPES: [(usize, usize, usize); 10] = [
    (1, 1, 1),
    (3, 5, 2),
    (8, 64, 32),   // exactly one AVX-512 tile
    (9, 65, 33),   // one past every tile edge
    (63, 130, 47), // ragged in all three dims, multiple panels
    (128, 128, 128),
    (5, 1061, 9),   // reduction spans three KC chunks
    (127, 600, 96), // many row blocks, each crossing one KC boundary
    (9, 1024, 8),   // a one-row edge block read in place at a long row pitch
    (33, 32, 10),   // edge rows and columns on every tier at once
];

#[test]
fn all_supported_tiers_match_scalar_bitwise() {
    let mut rng = SmallRng::seed_from_u64(0x51AD);
    for (m, k, n) in SHAPES {
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let reference = gemm_bits(Isa::Scalar, &a, &b);
        for isa in supported_isas() {
            let got = gemm_bits(isa, &a, &b);
            for (variant, (r, g)) in ["matmul", "matmul_at_b", "matmul_a_bt"]
                .iter()
                .zip(reference.iter().zip(got.iter()))
            {
                assert_eq!(
                    r,
                    g,
                    "{variant} {m}x{k}x{n}: {} diverged bitwise from scalar",
                    isa.name()
                );
            }
        }
    }
}

/// The override itself must not leak: after `with_isa` returns (or
/// panics), kernels are back on the detected tier.
#[test]
fn isa_override_is_scoped() {
    let ambient = dtrain_tensor::simd::active_isa();
    with_isa(Isa::Scalar, || {
        assert_eq!(dtrain_tensor::simd::active_isa(), Isa::Scalar);
    });
    assert_eq!(dtrain_tensor::simd::active_isa(), ambient);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized shapes and values: the widest supported tier agrees with
    /// scalar bitwise on everything the generator can produce.
    #[test]
    fn widest_tier_matches_scalar_on_random_shapes(
        (m, k, n) in (1usize..40, 1usize..90, 1usize..70),
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let widest = *supported_isas().first().expect("scalar is always supported");
        let reference = gemm_bits(Isa::Scalar, &a, &b);
        let got = gemm_bits(widest, &a, &b);
        prop_assert_eq!(reference, got);
    }
}
