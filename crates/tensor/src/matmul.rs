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
//! All three are thin views onto one packed GEMM driver ([`gemm`]): the
//! reduction operands are first **packed** into cache-line-aligned,
//! thread-local arena buffers (A in `MR`-row blocks laid out `ap[p*MR+ii]`,
//! B in `NR`-column panels laid out `bp[p*NR+jj]`), and an ISA-selected
//! SIMD microkernel (see [`crate::simd`]) then computes each `MR×NR` output
//! tile from the packed panels. Packing is where layout differences go to
//! die — the transposed variants differ *only* in the gather pattern of the
//! pack loops, so every variant runs the identical inner kernel at the
//! identical speed, and `matmul_a_bt` no longer materializes `Bᵀ` at all.
//!
//! **Parallel decomposition is 2-D**: tasks are (row-block × column-panel)
//! output tiles, so even an `m = 128` GEMM yields `16 × npanels` tasks and
//! the pool never starves. Tiles are disjoint `MR×NR` regions of `C` and
//! `NR` is a multiple of the 16-float cache line, so tasks never
//! false-share output cache lines. Packing itself is parallelized the same
//! way (one task per A block / B panel, disjoint writes). GEMMs under
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
use crate::simd::{self, StageTile};
use crate::tensor::Tensor;

/// Reduction-dimension chunk: one packed A block column + B panel column
/// stays L2-resident while a tile pass streams it. Chunk `> 0` resumes from
/// the partial sums already in `C`.
pub(crate) const KC: usize = 512;

/// GEMMs below this many flops (`2·m·n·k`) run sequentially: a parallel
/// region costs ~2–10 µs of dispatch + join, which a sub-8-Mflop GEMM
/// (< ~100 µs of work) cannot amortize. Keeps gemm_64/gemm_128 on the
/// fast sequential path where the seed kernels lost time to threading.
const PAR_FLOPS_MIN: usize = 8_000_000;

/// How the packing stage reads the left operand's coefficient `a(i, p)`
/// for output row `i`, reduction index `p`.
#[derive(Clone, Copy)]
pub(crate) enum ASrc {
    /// `a(i, p) = d[i*stride + p]` — A stored row-major (`matmul`,
    /// `matmul_a_bt`).
    Rows,
    /// `a(i, p) = d[p*stride + i]` — the Aᵀ view (`matmul_at_b`).
    Cols,
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

/// Pack one A row-block: `dst[p*mr + ii] = a(i0+ii, k0+p)` for `p < kc`,
/// zero-padding rows past `rows` so edge blocks feed the full-width kernel.
#[allow(clippy::too_many_arguments)] // block coordinates, not configuration
pub(crate) fn pack_a_block(
    d: &[f32],
    stride: usize,
    src: ASrc,
    i0: usize,
    rows: usize,
    mr: usize,
    k0: usize,
    kc: usize,
    dst: &mut [f32],
) {
    debug_assert_eq!(dst.len(), kc * mr);
    match src {
        ASrc::Rows => {
            // `ii` outer keeps the source reads contiguous in `p`; the
            // strided writes land in the L1-resident destination block.
            if rows < mr {
                dst.fill(0.0);
            }
            for ii in 0..rows {
                let srow = &d[(i0 + ii) * stride + k0..];
                for (p, &v) in srow[..kc].iter().enumerate() {
                    dst[p * mr + ii] = v;
                }
            }
        }
        ASrc::Cols => {
            // Source rows are contiguous in `ii` here: one memcpy-like run
            // per reduction index.
            for p in 0..kc {
                let srow = &d[(k0 + p) * stride + i0..];
                let col = &mut dst[p * mr..(p + 1) * mr];
                col[..rows].copy_from_slice(&srow[..rows]);
                col[rows..].fill(0.0);
            }
        }
    }
}

/// Pack one B column-panel: `dst[p*nr + jj] = b(k0+p, j0+jj)` for `p < kc`,
/// zero-padding columns past `cols`.
#[allow(clippy::too_many_arguments)] // panel coordinates, not configuration
pub(crate) fn pack_b_panel(
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

/// Packed, tiled GEMM driver shared by all three variants:
/// `out[i*n + j] = Σ_p a(i,p)·b(p,j)` over `i < m`, `j < n`, `p < k`, with
/// the reduction in ascending `p` order per element. `out` must be
/// zero-filled when `k == 0` (callers pass zeroed buffers); for `k > 0`
/// every element is overwritten.
#[allow(clippy::too_many_arguments)]
fn gemm(
    ad: &[f32],
    a_stride: usize,
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
    with_pack_bufs(|bufs| {
        let kc_first = k.min(KC);
        let apack = bufs.a.ensure_len(mblocks * mr * kc_first);
        let bpack = bufs.b.ensure_len(npanels * nr * kc_first);
        let mut k0 = 0;
        while k0 < k {
            let kc = (k - k0).min(KC);
            let init = k0 == 0;
            if parallel {
                // Pack phase: one task per A block or B panel, each writing
                // a disjoint slice of the shared aligned buffers.
                let ap_addr = apack.as_mut_ptr() as usize;
                let bp_addr = bpack.as_mut_ptr() as usize;
                rayon::parallel_for(mblocks + npanels, &|t| {
                    if t < mblocks {
                        let bi = t;
                        // SAFETY: block `bi` owns exactly
                        // `[bi*kc*mr, (bi+1)*kc*mr)` of the packed-A buffer
                        // (length `mblocks*mr*kc_first ≥ mblocks*mr*kc`);
                        // task indices are claimed exactly once.
                        let dst = unsafe {
                            std::slice::from_raw_parts_mut(
                                (ap_addr as *mut f32).add(bi * kc * mr),
                                kc * mr,
                            )
                        };
                        let rows = (m - bi * mr).min(mr);
                        pack_a_block(ad, a_stride, a_src, bi * mr, rows, mr, k0, kc, dst);
                    } else {
                        let pj = t - mblocks;
                        // SAFETY: panel `pj` owns `[pj*kc*nr, (pj+1)*kc*nr)`
                        // of the packed-B buffer; disjoint by index.
                        let dst = unsafe {
                            std::slice::from_raw_parts_mut(
                                (bp_addr as *mut f32).add(pj * kc * nr),
                                kc * nr,
                            )
                        };
                        let cols = (n - pj * nr).min(nr);
                        pack_b_panel(bd, b_stride, b_src, pj * nr, cols, nr, k0, kc, dst);
                    }
                });
                // Compute phase: 2-D tile grid, one task per MR×NR output
                // tile — task count = mblocks·npanels ≫ thread count.
                let out_addr = out.as_mut_ptr() as usize;
                rayon::parallel_for(mblocks * npanels, &|t| {
                    let bi = t / npanels;
                    let pj = t % npanels;
                    // SAFETY: the packed buffers are only read during this
                    // phase (packing completed above); slices stay in
                    // bounds as in the pack phase.
                    let ap = unsafe {
                        std::slice::from_raw_parts(
                            (ap_addr as *const f32).add(bi * kc * mr),
                            kc * mr,
                        )
                    };
                    let bp = unsafe {
                        std::slice::from_raw_parts(
                            (bp_addr as *const f32).add(pj * kc * nr),
                            kc * nr,
                        )
                    };
                    let rows = (m - bi * mr).min(mr);
                    let cols = (n - pj * nr).min(nr);
                    // SAFETY: tile (bi, pj) exclusively owns the rows×cols
                    // region of `out` at (bi*mr, pj*nr); tiles are disjoint.
                    let cptr = unsafe { (out_addr as *mut f32).add(bi * mr * n + pj * nr) };
                    let mut stage = StageTile::new();
                    simd::run_tile(isa, ap, bp, cptr, n, kc, rows, cols, init, &mut stage);
                });
            } else {
                for bi in 0..mblocks {
                    let rows = (m - bi * mr).min(mr);
                    let dst = &mut apack[bi * kc * mr..(bi + 1) * kc * mr];
                    pack_a_block(ad, a_stride, a_src, bi * mr, rows, mr, k0, kc, dst);
                }
                for pj in 0..npanels {
                    let cols = (n - pj * nr).min(nr);
                    let dst = &mut bpack[pj * kc * nr..(pj + 1) * kc * nr];
                    pack_b_panel(bd, b_stride, b_src, pj * nr, cols, nr, k0, kc, dst);
                }
                let mut stage = StageTile::new();
                let cbase = out.as_mut_ptr();
                for bi in 0..mblocks {
                    let rows = (m - bi * mr).min(mr);
                    let ap = &apack[bi * kc * mr..(bi + 1) * kc * mr];
                    for pj in 0..npanels {
                        let cols = (n - pj * nr).min(nr);
                        let bp = &bpack[pj * kc * nr..(pj + 1) * kc * nr];
                        // SAFETY: sequential path — `out` is exclusively
                        // borrowed and the tile region is in bounds.
                        let cptr = unsafe { cbase.add(bi * mr * n + pj * nr) };
                        simd::run_tile(isa, ap, bp, cptr, n, kc, rows, cols, init, &mut stage);
                    }
                }
            }
            k0 += kc;
        }
    });
}

/// `C[m,n] = A[m,k] · B[k,n]`, writing into a scratch-pooled tensor.
pub fn matmul_scratch(a: &Tensor, b: &Tensor, scratch: &mut Scratch) -> Tensor {
    let (m, k) = (a.rows(), a.cols());
    let (kb, n) = (b.rows(), b.cols());
    assert_eq!(k, kb, "matmul inner dims: {k} vs {kb}");
    let mut out = scratch.take_zeroed(m * n);
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
    let mut out = scratch.take_zeroed(k * n);
    // Output row i is C[i,:] = Σ_s A[s,i]·B[s,:]: the A coefficient strides
    // down a column, which is just the `ASrc::Cols` gather in the packer.
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
/// The packing stage reads `B` column-wise (`b(p,j) = B[j,p]`), so no `Bᵀ`
/// is ever materialized — the O(nk) transpose pass and its arena buffer are
/// gone, and the per-element reduction keeps the same ascending-`p` order
/// as [`matmul`], so this variant stays bit-identical to
/// `matmul(a, transpose(b))`.
pub fn matmul_a_bt_scratch(a: &Tensor, b: &Tensor, scratch: &mut Scratch) -> Tensor {
    let (m, n) = (a.rows(), a.cols());
    let (kb, nb) = (b.rows(), b.cols());
    assert_eq!(n, nb, "matmul_a_bt inner dims: {n} vs {nb}");
    let mut out = scratch.take_zeroed(m * kb);
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
