//! Matrix multiplication kernels.
//!
//! Three variants cover everything a dense layer's forward and backward
//! passes need:
//!
//! - [`matmul`]      — `C = A · B`
//! - [`matmul_at_b`] — `C = Aᵀ · B` (weight gradients), coefficient strided
//!   in place — no transpose materialized
//! - [`matmul_a_bt`] — `C = A · Bᵀ` (forward / input gradients), B read
//!   column-wise by the packing stage — no transpose materialized
//!
//! All three are thin views onto one tiled GEMM driver ([`gemm`]). The
//! left operand is **read in place**: an ISA-selected SIMD microkernel (see
//! [`crate::simd`]) takes A as a base pointer, a row stride and a column
//! stride — `(lda, 1)` for a row-major A, `(1, lda)` for the Aᵀ view of
//! `matmul_at_b` — and broadcasts one coefficient per row and reduction
//! step straight from the caller's tensor. Only the right operand is
//! **packed**, into cache-line-aligned, thread-local `NR`-column panels laid
//! out `bp[p*NR+jj]`, so the kernel's vector loads stream whole cache lines.
//! A row-major B is copied a row at a time; the Bᵀ view of `matmul_a_bt` is
//! gathered by in-register 8×8 transposes on the vector tiers, so no
//! variant materializes a transpose and all three run the identical inner
//! kernel.
//!
//! **Parallel decomposition is 2-D**: tasks are (row-block × column-panel)
//! output tiles, so even an `m = 128` GEMM yields `16 × npanels` tasks and
//! the pool never starves. Tiles are disjoint `MR×NR` regions of `C` and
//! `NR` is a multiple of the 16-float cache line, so tasks never
//! false-share output cache lines. B packing runs one task per panel
//! (disjoint writes) before the tiles of each reduction chunk. GEMMs under
//! [`PAR_FLOPS_MIN`] run sequentially — below that, region dispatch costs
//! more than it buys (the seed's gemm_64 *lost* time at 4–8 threads).
//!
//! **Determinism contract.** For each output element, each product is
//! rounded individually (no FMA) and added in ascending `p` order from
//! `+0.0` — exactly the naive three-loop order. The reduction dimension is
//! chunked ([`KC`]) for cache residency, but chunk boundaries only
//! round-trip the partial sum through memory (exact for f32), never reorder
//! it; SIMD lanes batch independent output columns, never reduction terms.
//! Results are therefore bit-identical to the naive reference *and*
//! invariant across thread counts, ISA tiers, blocking parameters, and
//! machines.

use crate::scratch::{with_pack_bufs, Scratch};
use crate::simd::{self, ATile, Isa, StageTile};
use crate::tensor::Tensor;

/// Reduction-dimension chunk: one B panel column stays L2-resident while a
/// tile pass streams it. Chunk `> 0` resumes from the partial sums already
/// in `C`.
const KC: usize = 512;

/// GEMMs below this many flops (`2·m·n·k`) run sequentially: a parallel
/// region costs ~2–10 µs of dispatch + join, which a sub-8-Mflop GEMM
/// (< ~100 µs of work) cannot amortize. Keeps gemm_64/gemm_128 on the
/// fast sequential path where the seed kernels lost time to threading.
const PAR_FLOPS_MIN: usize = 8_000_000;

/// How the microkernel reads the left operand's coefficient `a(i, p)` for
/// output row `i`, reduction index `p`, from a source of row pitch `ld`.
#[derive(Clone, Copy)]
pub(crate) enum ASrc {
    /// `a(i, p) = d[i*ld + p]` — A stored row-major (`matmul`,
    /// `matmul_a_bt`).
    Rows,
    /// `a(i, p) = d[p*ld + i]` — the Aᵀ view (`matmul_at_b`).
    Cols,
}

impl ASrc {
    /// The in-place view of rows `i0..` (at most `mr`, `m` in all) from
    /// reduction index `k0` on.
    pub(crate) fn tile(
        self,
        d: &[f32],
        ld: usize,
        m: usize,
        mr: usize,
        i0: usize,
        k0: usize,
    ) -> ATile<'_> {
        let (rs, cs) = match self {
            ASrc::Rows => (ld, 1),
            ASrc::Cols => (1, ld),
        };
        ATile {
            a: &d[i0 * rs + k0 * cs..],
            rs,
            cs,
            rows: (m - i0).min(mr),
        }
    }
}

/// How the packing stage reads the right operand's element `b(p, j)` for
/// reduction index `p`, output column `j`.
#[derive(Clone, Copy)]
pub(crate) enum BSrc {
    /// `b(p, j) = d[p*stride + j]` — B stored row-major.
    Rows,
    /// `b(p, j) = d[j*stride + p]` — the Bᵀ view (`matmul_a_bt`): output
    /// column `j` gathers source row `j`.
    Cols,
}

/// Pack one B column-panel: `dst[p*nr + jj] = b(k0+p, j0+jj)` for `p < kc`,
/// zero-padding columns past `cols`. The vector tiers gather a Bᵀ view
/// eight source rows at a time with an in-register 8×8 transpose
/// ([`simd::transpose8`]); with the scalar tier's strided stores,
/// SmallCnn's first-layer weight gradient (whose `gᵀ` is packed here) ran
/// ≈ 20 % slower on an AVX-512 Xeon.
#[allow(clippy::too_many_arguments)] // panel coordinates, not configuration
pub(crate) fn pack_b_panel(
    isa: Isa,
    d: &[f32],
    stride: usize,
    src: BSrc,
    j0: usize,
    cols: usize,
    nr: usize,
    k0: usize,
    kc: usize,
    dst: &mut [f32],
) {
    debug_assert_eq!(dst.len(), kc * nr);
    match src {
        BSrc::Rows => {
            for p in 0..kc {
                let srow = &d[(k0 + p) * stride + j0..];
                let row = &mut dst[p * nr..(p + 1) * nr];
                row[..cols].copy_from_slice(&srow[..cols]);
                row[cols..].fill(0.0);
            }
        }
        BSrc::Cols => {
            assert!(cols <= nr && nr.is_multiple_of(8) && dst.len() >= kc * nr);
            assert!(cols == 0 || d.len() >= (j0 + cols - 1) * stride + k0 + kc);
            #[cfg(target_arch = "x86_64")]
            if isa != Isa::Scalar {
                for jj0 in (0..nr).step_by(8) {
                    let rows = cols.saturating_sub(jj0).min(8);
                    let at = ((j0 + jj0) * stride + k0).min(d.len());
                    // SAFETY: source rows `j0+jj0 .. j0+jj0+rows` hold
                    // `k0+kc` elements each and `dst` holds `kc·nr` from
                    // column `jj0 ≤ nr − 8` (asserted above); both vector
                    // tiers have AVX2.
                    unsafe {
                        simd::transpose8(
                            d[at..].as_ptr(),
                            stride,
                            kc,
                            rows,
                            dst.as_mut_ptr().add(jj0),
                            nr,
                        )
                    };
                }
                return;
            }
            let _ = isa;
            if cols < nr {
                dst.fill(0.0);
            }
            // Gather Bᵀ: source row `j0+jj` supplies output column `jj`.
            // Iterating `jj` outer keeps the source reads contiguous in `p`.
            for jj in 0..cols {
                let srow = &d[(j0 + jj) * stride + k0..];
                for (p, &v) in srow[..kc].iter().enumerate() {
                    dst[p * nr + jj] = v;
                }
            }
        }
    }
}

/// Tiled GEMM driver shared by all three variants:
/// `out[i*n + j] = Σ_p a(i,p)·b(p,j)` over `i < m`, `j < n`, `p < k`, with
/// the reduction in ascending `p` order per element. A is read in place
/// (`a_src` over row pitch `lda`); B is packed a reduction chunk at a time.
/// `out` must be zero-filled when `k == 0` (callers pass zeroed buffers);
/// for `k > 0` every element is overwritten.
#[allow(clippy::too_many_arguments)]
fn gemm(
    ad: &[f32],
    lda: usize,
    a_src: ASrc,
    bd: &[f32],
    b_stride: usize,
    b_src: BSrc,
    out: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
) {
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    // Resolve the ISA once, on the calling thread: a `with_isa` override is
    // thread-local and pool workers must not consult their own.
    let isa = simd::active_isa();
    let (mr, nr) = isa.geometry();
    let mblocks = m.div_ceil(mr);
    let npanels = n.div_ceil(nr);
    let flops = 2usize.saturating_mul(m).saturating_mul(n).saturating_mul(k);
    let parallel =
        flops >= PAR_FLOPS_MIN && mblocks * npanels >= 2 && rayon::current_num_threads() > 1;
    let a_tile = |bi: usize, k0: usize| a_src.tile(ad, lda, m, mr, bi * mr, k0);
    with_pack_bufs(|bufs| {
        let bpack = bufs.b.ensure_len(npanels * nr * k.min(KC));
        for k0 in (0..k).step_by(KC) {
            let kc = (k - k0).min(KC);
            let init = k0 == 0;
            let pack = |pj: usize, dst: &mut [f32]| {
                let cols = (n - pj * nr).min(nr);
                pack_b_panel(isa, bd, b_stride, b_src, pj * nr, cols, nr, k0, kc, dst);
            };
            if parallel {
                // Pack phase: one task per B panel, each writing a disjoint
                // slice of the shared aligned buffer.
                let bp_addr = bpack.as_mut_ptr() as usize;
                rayon::parallel_for(npanels, &|pj| {
                    // SAFETY: panel `pj` owns `[pj*kc*nr, (pj+1)*kc*nr)`
                    // of the packed-B buffer (length `npanels*nr*min(k, KC)
                    // ≥ npanels*nr*kc`); task indices are claimed once.
                    pack(pj, unsafe {
                        std::slice::from_raw_parts_mut(
                            (bp_addr as *mut f32).add(pj * kc * nr),
                            kc * nr,
                        )
                    });
                });
                // Compute phase: 2-D tile grid, one task per MR×NR output
                // tile — task count = mblocks·npanels ≫ thread count.
                let out_addr = out.as_mut_ptr() as usize;
                rayon::parallel_for(mblocks * npanels, &|t| {
                    let (bi, pj) = (t / npanels, t % npanels);
                    // SAFETY: the packed buffer is only read during this
                    // phase (packing completed above); in bounds as above.
                    let bp = unsafe {
                        std::slice::from_raw_parts(
                            (bp_addr as *const f32).add(pj * kc * nr),
                            kc * nr,
                        )
                    };
                    let cols = (n - pj * nr).min(nr);
                    // SAFETY: tile (bi, pj) exclusively owns the rows×cols
                    // region of `out` at (bi*mr, pj*nr); tiles are disjoint.
                    let cptr = unsafe { (out_addr as *mut f32).add(bi * mr * n + pj * nr) };
                    let mut stage = StageTile::new();
                    simd::run_tile(isa, a_tile(bi, k0), bp, cptr, n, kc, cols, init, &mut stage);
                });
            } else {
                let panels = &mut bpack[..npanels * kc * nr];
                for (pj, dst) in panels.chunks_exact_mut(kc * nr).enumerate() {
                    pack(pj, dst);
                }
                let mut stage = StageTile::new();
                let cbase = out.as_mut_ptr();
                for bi in 0..mblocks {
                    let a = a_tile(bi, k0);
                    for (pj, bp) in panels.chunks_exact(kc * nr).enumerate() {
                        let cols = (n - pj * nr).min(nr);
                        // SAFETY: sequential path — `out` is exclusively
                        // borrowed and the tile region is in bounds.
                        let cptr = unsafe { cbase.add(bi * mr * n + pj * nr) };
                        simd::run_tile(isa, a, bp, cptr, n, kc, cols, init, &mut stage);
                    }
                }
            }
        }
    });
}

/// A GEMM output buffer: [`gemm`] overwrites every element when `k > 0`,
/// so only `k == 0` needs the zero fill.
fn output(scratch: &mut Scratch, len: usize, k: usize) -> Vec<f32> {
    match k {
        0 => scratch.take_zeroed(len),
        _ => scratch.take_any(len),
    }
}

/// `C[m,n] = A[m,k] · B[k,n]`, writing into a scratch-pooled tensor.
pub fn matmul_scratch(a: &Tensor, b: &Tensor, scratch: &mut Scratch) -> Tensor {
    let (m, k) = (a.rows(), a.cols());
    let (kb, n) = (b.rows(), b.cols());
    assert_eq!(k, kb, "matmul inner dims: {k} vs {kb}");
    let mut out = output(scratch, m * n, k);
    gemm(
        a.data(),
        k,
        ASrc::Rows,
        b.data(),
        n,
        BSrc::Rows,
        &mut out,
        m,
        n,
        k,
    );
    Tensor::from_vec(&[m, n], out)
}

/// `C[m,n] = A[m,k] · B[k,n]`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.rows(), a.cols());
    let (kb, n) = (b.rows(), b.cols());
    assert_eq!(k, kb, "matmul inner dims: {k} vs {kb}");
    let mut out = vec![0.0f32; m * n];
    gemm(
        a.data(),
        k,
        ASrc::Rows,
        b.data(),
        n,
        BSrc::Rows,
        &mut out,
        m,
        n,
        k,
    );
    Tensor::from_vec(&[m, n], out)
}

/// `C[k,n] = Aᵀ[k,m] · B[m,n]` for `A[m,k]`, `B[m,n]`, scratch-pooled.
pub fn matmul_at_b_scratch(a: &Tensor, b: &Tensor, scratch: &mut Scratch) -> Tensor {
    let (m, k) = (a.rows(), a.cols());
    let (mb, n) = (b.rows(), b.cols());
    assert_eq!(m, mb, "matmul_at_b outer dims: {m} vs {mb}");
    let mut out = output(scratch, k * n, m);
    // Output row i is C[i,:] = Σ_s A[s,i]·B[s,:]: the A coefficient strides
    // down a column, which is just the `ASrc::Cols` view in the kernel.
    gemm(
        a.data(),
        k,
        ASrc::Cols,
        b.data(),
        n,
        BSrc::Rows,
        &mut out,
        k,
        n,
        m,
    );
    Tensor::from_vec(&[k, n], out)
}

/// `C[k,n] = Aᵀ[k,m] · B[m,n]` for `A[m,k]`, `B[m,n]`.
pub fn matmul_at_b(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.rows(), a.cols());
    let (mb, n) = (b.rows(), b.cols());
    assert_eq!(m, mb, "matmul_at_b outer dims: {m} vs {mb}");
    let mut out = vec![0.0f32; k * n];
    gemm(
        a.data(),
        k,
        ASrc::Cols,
        b.data(),
        n,
        BSrc::Rows,
        &mut out,
        k,
        n,
        m,
    );
    Tensor::from_vec(&[k, n], out)
}

/// `C[m,k] = A[m,n] · Bᵀ[n,k]` for `A[m,n]`, `B[k,n]`, scratch-pooled.
///
/// The packing stage reads `B` column-wise (`b(p,j) = B[j,p]`, by register
/// transpose on the vector tiers), so no `Bᵀ` is ever materialized, and the
/// per-element reduction keeps the same ascending-`p` order as [`matmul`],
/// so this variant stays bit-identical to `matmul(a, transpose(b))`.
pub fn matmul_a_bt_scratch(a: &Tensor, b: &Tensor, scratch: &mut Scratch) -> Tensor {
    let (m, n) = (a.rows(), a.cols());
    let (kb, nb) = (b.rows(), b.cols());
    assert_eq!(n, nb, "matmul_a_bt inner dims: {n} vs {nb}");
    let mut out = output(scratch, m * kb, n);
    gemm(
        a.data(),
        n,
        ASrc::Rows,
        b.data(),
        n,
        BSrc::Cols,
        &mut out,
        m,
        kb,
        n,
    );
    Tensor::from_vec(&[m, kb], out)
}

/// `C[m,k] = A[m,n] · Bᵀ[n,k]` for `A[m,n]`, `B[k,n]`.
pub fn matmul_a_bt(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_a_bt_scratch(a, b, &mut Scratch::new())
}

/// Naive transpose of a rank-2 tensor (used only in tests and cold paths).
pub fn transpose(a: &Tensor) -> Tensor {
    let (m, n) = (a.rows(), a.cols());
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            out[j * m + i] = a.at(i, j);
        }
    }
    Tensor::from_vec(&[n, m], out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(shape: &[usize], v: &[f32]) -> Tensor {
        Tensor::from_vec(shape, v.to_vec())
    }

    #[test]
    fn matmul_small_known() {
        let a = t(&[2, 3], &[1., 2., 3., 4., 5., 6.]);
        let b = t(&[3, 2], &[7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_identity() {
        let a = t(&[2, 2], &[3., -1., 2., 5.]);
        let i = t(&[2, 2], &[1., 0., 0., 1.]);
        assert_eq!(matmul(&a, &i).data(), a.data());
        assert_eq!(matmul(&i, &a).data(), a.data());
    }

    #[test]
    fn at_b_equals_explicit_transpose() {
        let a = t(&[3, 2], &[1., 4., 2., 5., 3., 6.]);
        let b = t(&[3, 2], &[7., 10., 8., 11., 9., 12.]);
        let fast = matmul_at_b(&a, &b);
        let slow = matmul(&transpose(&a), &b);
        assert_eq!(fast.data(), slow.data());
        assert_eq!(fast.shape(), &[2, 2]);
    }

    #[test]
    fn a_bt_equals_explicit_transpose() {
        let a = t(&[2, 3], &[1., 2., 3., 4., 5., 6.]);
        let b = t(&[4, 3], &[1., 0., 0., 0., 1., 0., 0., 0., 1., 1., 1., 1.]);
        let fast = matmul_a_bt(&a, &b);
        let slow = matmul(&a, &transpose(&b));
        assert_eq!(fast.data(), slow.data());
        assert_eq!(fast.shape(), &[2, 4]);
    }

    #[test]
    fn parallel_path_matches_sequential_math() {
        // Big enough to cross PAR_THRESHOLD; compare against the transpose
        // formulation which exercises a different code path.
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(3);
        let a = Tensor::randn(&[70, 40], 1.0, &mut rng);
        let b = Tensor::randn(&[40, 70], 1.0, &mut rng);
        let c = matmul(&a, &b);
        let c2 = matmul_a_bt(&a, &transpose(&b));
        assert!(c.max_abs_diff(&c2) < 1e-4);
    }

    #[test]
    fn blocked_matches_naive_reference_bitwise() {
        // The blocked kernel preserves the naive p-ascending accumulation
        // order per element, so it must agree exactly — odd sizes exercise
        // every tail path (row blocks, k tiles, n tiles, unroll remainder).
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(17);
        for (m, k, n) in [(1, 1, 1), (3, 5, 7), (9, 130, 67), (70, 70, 70)] {
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let b = Tensor::randn(&[k, n], 1.0, &mut rng);
            let fast = matmul(&a, &b);
            let mut naive = vec![0.0f32; m * n];
            for i in 0..m {
                for p in 0..k {
                    let av = a.at(i, p);
                    for j in 0..n {
                        naive[i * n + j] += av * b.at(p, j);
                    }
                }
            }
            assert_eq!(fast.data(), &naive[..], "{m}x{k}x{n}");
        }
    }

    #[test]
    fn multi_chunk_reduction_is_bitwise_exact() {
        // k > KC forces the chunked-accumulation path (partial sums
        // round-trip through C between chunks) — still bitwise equal to the
        // naive single-pass reduction, for all three variants.
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(23);
        let (m, k, n) = (5, 2 * KC + 37, 9);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        let mut naive = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0f32;
                for p in 0..k {
                    s += a.at(i, p) * b.at(p, j);
                }
                naive[i * n + j] = s;
            }
        }
        assert_eq!(matmul(&a, &b).data(), &naive[..]);
        assert_eq!(matmul_at_b(&transpose(&a), &b).data(), &naive[..]);
        assert_eq!(matmul_a_bt(&a, &transpose(&b)).data(), &naive[..]);
    }

    #[test]
    fn scratch_variants_match_allocating_variants() {
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(9);
        let a = Tensor::randn(&[13, 21], 1.0, &mut rng);
        let b = Tensor::randn(&[21, 17], 1.0, &mut rng);
        let bt = Tensor::randn(&[17, 21], 1.0, &mut rng);
        let at = Tensor::randn(&[21, 13], 1.0, &mut rng);
        let mut s = Scratch::new();
        // Warm the arena with garbage so `take_any` hands back dirty buffers.
        let junk = Tensor::full(&[13 * 21], 42.0);
        s.recycle_tensor(junk);
        assert_eq!(matmul_scratch(&a, &b, &mut s), matmul(&a, &b));
        assert_eq!(matmul_at_b_scratch(&at, &b, &mut s), matmul_at_b(&at, &b));
        assert_eq!(matmul_a_bt_scratch(&a, &bt, &mut s), matmul_a_bt(&a, &bt));
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn shape_mismatch_panics() {
        let a = t(&[2, 3], &[0.; 6]);
        let b = t(&[2, 2], &[0.; 4]);
        let _ = matmul(&a, &b);
    }
}
