//! 2-D convolution and max-pooling on `[N, C, H, W]` tensors.
//!
//! Convolution is three direct kernels of [`crate::simd`], none a GEMM and
//! none followed by a reorder. With `CKK = C·K·K` and `P = OH·OW`, per image:
//!
//! - forward ([`simd::conv_fwd_plane`]), **output pixels on the lanes**: a
//!   register block of output channels × pixel vectors (runs of one output
//!   row) sums `W[oc, p] · patch(pixel, p)` over `p`, each lane loaded
//!   straight from the padded image; the block stores into the NCHW output,
//!   and the bias (or the fused bias-ReLU and its mask) follows per image;
//! - input gradient ([`simd::conv_dx_plane`]), **input pixels on the
//!   lanes**: a block of input channels × input-pixel vectors walks the taps
//!   `(ky, kx)` descending; per tap it sums `Σ_oc W[oc, (ch, ky, kx)] ·
//!   g[oc, oy, ox]` straight from the NCHW gradient and adds it to `dx` in
//!   the lanes whose `(oy, ox)` exists;
//! - weight gradient `dWᵀ[CKK, OC] += patchesᵀ[CKK, P] · gᵀ[P, OC]`
//!   ([`simd::dw_block`]), **output channels on the lanes**: `gᵀ` packed
//!   into blocks of 8 channels, and a register block of `dWᵀ` rows per pass
//!   over the pixels, each patch value broadcast from the image as it is
//!   needed; `db` is one more row whose patch value is `1.0`. The images
//!   take turns on one `dWᵀ`.
//!
//! No patch matrix, packed weight or patch gradient is ever stored. Forward
//! copies the batch once into a zero-bordered `[N, C, H+2p, W+2p]` tensor —
//! its second return value, all backward needs of the input — where patch
//! element `(ch, ky, kx)` of pixel `(oy, ox)` is a fixed offset from the
//! pixel's corner and no read needs a bounds test: a padding cell is a
//! `0.0` product like any other. Both the forward and the `dW` kernel read
//! that image in place and the input gradient reads `g` in place, so the
//! working set is one image (14 KB for SmallCnn's first layer) and the
//! weights. A row shorter than a vector masks its tail lanes, a channel
//! count that is not a multiple of the block recomputes the last live
//! channel in the spare rows and never stores them, and stride > 1 gathers
//! its lanes; every shape the API accepts runs the same kernels.
//!
//! **Numeric contract** (DESIGN §2b/§2c): every product is rounded alone (no
//! FMA) and every output element is summed from `+0.0` in one fixed order,
//! whatever the ISA tier, thread count or blocking:
//!
//! | result | summed over, ascending | then | relu (fused) |
//! |---|---|---|---|
//! | `y[img, oc, oy, ox]` | `p = (ch, ky, kx)`, padding cells as `0.0` products | `+ b[oc]` | `.max(0.0)`, mask bit `y > 0` |
//! | `dW[oc, p]` | `s = (img, oy, ox)` over the whole batch | | |
//! | `db[oc]` | `s = (img, oy, ox)` over the whole batch | | |
//! | `dpatches[p, s]` | `oc` | | |
//! | `dx[img, ch, iy, ix]` | the `(oy, ox)` whose patch covers it | | |
//!
//! The per-image split of `dW` and `db` only round-trips the partial sums
//! through memory between images, as reduction chunks already do, and `db`'s
//! terms `1.0 · g` are `g` exactly. The input-gradient kernel computes each
//! `dpatches` element in a register and adds it at once, `ky` then `kx`
//! *descending*, which is `(oy, ox)` ascending for every input element; an
//! out-of-range tap is masked out of the add, so a `0 · inf` computed in
//! its lane reaches nothing. `tests/conv_reference.rs` is this table as
//! seven scalar loops; `tests/golden/conv_bits.digest` pins the bits the
//! im2col-matrix implementation produced (and, for the non-finite and
//! block-straddling cases, the GEMM implementation that followed it).
//!
//! The fused ReLU ([`conv2d_relu_forward_scratch`]) keeps those bits: the
//! mask is `y > 0`, which holds exactly where the pre-activation `x > 0`
//! (`NaN.max(0.0)` is `0.0`; a sum from `+0.0` is never `-0.0`), so
//! [`relu_mask_grad`] zeroes the gradient a separate ReLU would.
//!
//! **Max-pooling** keeps, per window, the *first* maximum in row-major order:
//! it starts from the window's first cell and moves only on a strictly
//! greater one, so a NaN first in its window is reported, a NaN later is
//! skipped, and an all-`-inf` window reports its first cell. The window-2
//! fast path compares (0,0), (0,1), (1,0), (1,1) in that order;
//! `tests/golden/pool_bits.digest` pins it against the generic loop.
//!
//! **Parallelism** is one task per image for forward and the input gradient
//! (disjoint outputs, each image computed sequentially, the ISA resolved
//! once by the caller); `dW`/`db` are reductions over the batch and run on
//! the calling thread. Outputs, the padded batch and the patch offsets come
//! from the caller's [`Scratch`] arena; `gᵀ` and the `dWᵀ` accumulators live
//! in the per-thread pack buffers, so steady-state training allocates
//! nothing here.

use crate::matmul::{pack_b_panel, BSrc};
use crate::scratch::{with_pack_bufs, Scratch};
use crate::simd::{self, ConvGeom, PixelWalk};
use crate::tensor::Tensor;
use rayon::prelude::*;
use std::sync::Mutex;

/// Below this many output elements the per-region dispatch overhead beats
/// the parallel win; run sequentially.
const PAR_MIN_ELEMS: usize = 64 * 64;

/// Static geometry of a conv layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Conv2dSpec {
    pub in_channels: usize,
    pub out_channels: usize,
    pub kernel: usize,
    pub stride: usize,
    pub padding: usize,
}

impl Conv2dSpec {
    /// Output spatial size for an input of side `h`.
    pub fn out_size(&self, h: usize) -> usize {
        (h + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Weight tensor shape: `[out_c, in_c * k * k]`, one row of patch weights
    /// per output channel.
    pub fn weight_shape(&self) -> [usize; 2] {
        [
            self.out_channels,
            self.in_channels * self.kernel * self.kernel,
        ]
    }
}

impl Conv2dSpec {
    /// This convolution's geometry over `h × w` input images.
    fn geom(&self, h: usize, w: usize) -> ConvGeom {
        ConvGeom {
            c: self.in_channels,
            k: self.kernel,
            s: self.stride,
            pad: self.padding,
            h,
            w,
            hp: h + 2 * self.padding,
            wp: w + 2 * self.padding,
            oh: self.out_size(h),
            ow: self.out_size(w),
        }
    }
}

/// Where patch element `p = (ch, ky, kx)` sits relative to its pixel's
/// top-left corner in the padded image: `off[p] = ch·hp·wp + ky·wp + kx`,
/// so `patch(pixel (oy, ox), p) = image[(oy·s)·wp + ox·s + off[p]]` with no
/// bounds to test.
fn patch_offsets(g: &ConvGeom, scratch: &mut Scratch) -> Vec<u32> {
    assert!(
        u32::try_from(g.image_len()).is_ok(),
        "padded image exceeds u32 offsets"
    );
    let mut off = scratch.take_u32(g.ckk());
    let mut slots = off.iter_mut();
    for ch in 0..g.c {
        for ky in 0..g.k {
            for (kx, slot) in (0..g.k).zip(&mut slots) {
                *slot = ((ch * g.hp + ky) * g.wp + kx) as u32;
            }
        }
    }
    off
}

/// Copy `x[N,C,H,W]` into a zero-bordered `[N, C, H+2p, W+2p]` arena tensor:
/// what every patch of the convolution reads, and what the forward pass
/// hands to backward.
fn pad_input(x: &Tensor, pad: usize, scratch: &mut Scratch) -> Tensor {
    let shape = x.shape();
    let (n, c, h, w) = (shape[0], shape[1], shape[2], shape[3]);
    let (hp, wp) = (h + 2 * pad, w + 2 * pad);
    let mut xp = scratch.tensor_zeroed(&[n, c, hp, wp]);
    let dst = xp.data_mut();
    for (r, row) in x.data().chunks_exact(w).enumerate() {
        let at = ((r / h) * hp + r % h + pad) * wp + pad;
        dst[at..at + w].copy_from_slice(row);
    }
    xp
}

/// One image's rows of [`im2col`]: row `r` of `dst` is pixel `r`,
/// `dst[r·C·K·K + p] = patch(pixel, off[p])`.
fn fill_pixel_rows(dst: &mut [f32], image: &[f32], g: &ConvGeom, off: &[u32]) {
    let (mut oy, mut ox) = (0, 0);
    for row in dst.chunks_exact_mut(off.len()) {
        let corner = &image[oy * g.s * g.wp + ox * g.s..];
        for (d, &o) in row.iter_mut().zip(off) {
            *d = corner[o as usize];
        }
        ox += 1;
        if ox == g.ow {
            (oy, ox) = (oy + 1, 0);
        }
    }
}

/// Run `f(img, chunk)` over the `img_len`-sized chunks of `out`, as one
/// parallel task per image when the batch is worth a region. Chunks are
/// disjoint and each is computed sequentially, so the thread count never
/// shows in a result.
fn for_each_image(out: &mut [f32], img_len: usize, f: impl Fn(usize, &mut [f32]) + Sync) {
    if out.len() > img_len && out.len() >= PAR_MIN_ELEMS && rayon::current_num_threads() > 1 {
        out.par_chunks_mut(img_len)
            .enumerate()
            .for_each(|(img, chunk)| f(img, chunk));
    } else {
        for (img, chunk) in out.chunks_mut(img_len).enumerate() {
            f(img, chunk);
        }
    }
}

/// Unroll input patches: `x[N,C,H,W]` → `cols[N*OH*OW, C*K*K]`. No
/// convolution path stores this matrix (module docs); it stays as a
/// reference layout and as the patch gather `perf/` times.
pub fn im2col(x: &Tensor, spec: &Conv2dSpec, h: usize, w: usize) -> Tensor {
    im2col_scratch(x, spec, h, w, &mut Scratch::new())
}

/// [`im2col`] with the patch matrix drawn from the arena.
pub fn im2col_scratch(
    x: &Tensor,
    spec: &Conv2dSpec,
    h: usize,
    w: usize,
    scratch: &mut Scratch,
) -> Tensor {
    let shape = x.shape();
    assert_eq!(shape.len(), 4, "im2col expects NCHW");
    assert_eq!(shape[1], spec.in_channels);
    assert_eq!((shape[2], shape[3]), (h, w));
    let g = spec.geom(h, w);
    let xp = pad_input(x, spec.padding, scratch);
    let off = patch_offsets(&g, scratch);
    let mut out = scratch.tensor_any(&[shape[0] * g.pixels(), g.ckk()]);
    let xd = xp.data();
    for_each_image(out.data_mut(), g.pixels() * g.ckk(), |img, dst| {
        let image = &xd[img * g.image_len()..][..g.image_len()];
        fill_pixel_rows(dst, image, &g, &off);
    });
    scratch.recycle_u32(off);
    scratch.recycle_tensor(xp);
    out
}

/// Conv forward. `weight` is `[out_c, in_c*k*k]`, `bias` is `[out_c]`.
/// Returns `(output[N,OC,OH,OW], cache)` — `cache` is what
/// [`conv2d_backward`] needs of the input (the zero-padded batch).
pub fn conv2d_forward(
    x: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    spec: &Conv2dSpec,
) -> (Tensor, Tensor) {
    conv2d_forward_scratch(x, weight, bias, spec, &mut Scratch::new())
}

/// [`conv2d_forward`] with output, cache and workspaces drawn from the arena.
pub fn conv2d_forward_scratch(
    x: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    spec: &Conv2dSpec,
    scratch: &mut Scratch,
) -> (Tensor, Tensor) {
    forward(x, weight, bias, spec, None, scratch)
}

/// [`conv2d_forward_scratch`] with a ReLU fused into the bias epilogue:
/// `y = max(conv + b, 0)` elementwise, the bits `relu(conv2d_forward(..))`
/// gives. The third return value is the backward mask, one bit per output
/// element set where `y > 0`; hand it to [`relu_mask_grad`] and recycle it
/// with [`Scratch::recycle_u32`].
pub fn conv2d_relu_forward_scratch(
    x: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    spec: &Conv2dSpec,
    scratch: &mut Scratch,
) -> (Tensor, Tensor, Vec<u32>) {
    let s = x.shape();
    let per_image = spec.out_channels * spec.out_size(s[2]) * spec.out_size(s[3]);
    let mut mask = scratch.take_u32(s[0] * mask_words(per_image));
    let (y, cache) = forward(x, weight, bias, spec, Some(&mut mask), scratch);
    (y, cache, mask)
}

/// Zero `grad[N, ..]` wherever the fused forward's output was not positive:
/// the ReLU backward of [`conv2d_relu_forward_scratch`], in place. `y > 0`
/// exactly where the pre-activation `x > 0` (a NaN or non-positive `x` gives
/// `y = 0`), so this passes the bits a separate ReLU's backward would.
pub fn relu_mask_grad(grad: &mut Tensor, mask: &[u32]) {
    let n = grad.shape()[0];
    let per_image = grad.len() / n;
    let words = mask_words(per_image);
    assert_eq!(mask.len(), n * words, "mask shape mismatch");
    let images = grad.data_mut().chunks_exact_mut(per_image);
    let isa = simd::active_isa();
    for (g, m) in images.zip(mask.chunks_exact(words)) {
        apply_relu_mask(isa, g, m);
    }
}

/// Words of fused-ReLU mask per image of `len` output elements.
fn mask_words(len: usize) -> usize {
    len.div_ceil(32)
}

simd::widened! {
    /// The fused epilogue of one image's rows of `pixels` outputs:
    /// `y = max(y + b, 0)`, exactly what a bias add followed by a separate
    /// ReLU pass computes.
    fn bias_relu(y: &mut [f32], bias: &[f32], pixels: usize) {
        for (row, &b) in y.chunks_exact_mut(pixels).zip(bias) {
            for v in row {
                *v = (*v + b).max(0.0);
            }
        }
    }
}

simd::widened! {
    /// Set one image's fused-ReLU mask from its output `y`, bit-sliced:
    /// element `e` is bit `e / words` of word `e % words` (`words =
    /// mask.len()`), set where `y > 0`. Sliced rather than packing 32
    /// neighbours per word so that this and [`apply_relu_mask`] are plain
    /// vector loops over contiguous elements and words.
    fn write_relu_mask(y: &[f32], mask: &mut [u32]) {
        mask.fill(0);
        for (bit, ys) in y.chunks(mask.len()).enumerate() {
            for (word, &v) in mask.iter_mut().zip(ys) {
                *word |= u32::from(v > 0.0) << bit;
            }
        }
    }
}

simd::widened! {
    /// [`relu_mask_grad`] for one image (mask layout: [`write_relu_mask`]).
    fn apply_relu_mask(grad: &mut [f32], mask: &[u32]) {
        for (bit, gs) in grad.chunks_mut(mask.len()).enumerate() {
            // `g` where the bit is set, else `+0.0`: a select written as an
            // AND, since a branch on random signs mispredicts.
            for (g, &m) in gs.iter_mut().zip(mask) {
                *g = f32::from_bits(g.to_bits() & ((m >> bit) & 1).wrapping_neg());
            }
        }
    }
}

/// Conv forward; with `relu_mask`, the fused ReLU epilogue and its mask
/// (see [`conv2d_relu_forward_scratch`]).
fn forward(
    x: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    spec: &Conv2dSpec,
    relu_mask: Option<&mut Vec<u32>>,
    scratch: &mut Scratch,
) -> (Tensor, Tensor) {
    let shape = x.shape();
    assert_eq!(shape.len(), 4, "conv expects NCHW");
    let (n, h, w) = (shape[0], shape[2], shape[3]);
    assert_eq!(shape[1], spec.in_channels);
    assert_eq!(weight.shape(), &spec.weight_shape());
    let g = spec.geom(h, w);
    let (oc, pixels) = (spec.out_channels, g.pixels());
    assert_eq!(bias.len(), oc, "bias length mismatch");
    // Resolve the ISA once, on the calling thread: a `with_isa` override is
    // thread-local and pool workers must not consult their own.
    let isa = simd::active_isa();

    let xp = pad_input(x, spec.padding, scratch);
    let off = patch_offsets(&g, scratch);
    let mut out = scratch.tensor_any(&[n, oc, g.oh, g.ow]);
    let (xd, wd, bd) = (xp.data(), weight.data(), bias.data());
    let words = mask_words(oc * pixels);
    // Images write disjoint words; the lock only lets their tasks share the
    // buffer (it serialises the mask writes, not the convolutions).
    let mask = relu_mask.map(|m| Mutex::new(m.as_mut_slice()));
    // y[img][OC, OH·OW] = W[OC, CKK] · patches[CKK, OH·OW] + b: already NCHW.
    for_each_image(out.data_mut(), oc * pixels, |img, y| {
        let image = &xd[img * g.image_len()..][..g.image_len()];
        simd::conv_fwd_plane(isa, &g, image, &off, wd, oc, y);
        let Some(mask) = &mask else {
            for (row, &b) in y.chunks_exact_mut(pixels).zip(bd) {
                for v in row {
                    *v += b;
                }
            }
            return;
        };
        bias_relu(isa, y, bd, pixels);
        let mut mask = mask.lock().expect("a mask writer panicked");
        write_relu_mask(isa, y, &mut mask[img * words..][..words]);
    });
    scratch.recycle_u32(off);
    (out, xp)
}

/// Conv backward. Returns `(dx, dweight, dbias)`.
pub fn conv2d_backward(
    grad_out: &Tensor,
    cache: &Tensor,
    weight: &Tensor,
    spec: &Conv2dSpec,
    in_h: usize,
    in_w: usize,
) -> (Tensor, Tensor, Tensor) {
    conv2d_backward_scratch(
        grad_out,
        cache,
        weight,
        spec,
        in_h,
        in_w,
        &mut Scratch::new(),
    )
}

/// [`conv2d_backward`] with every temporary drawn from the arena. The
/// returned `(dx, dw, db)` tensors are arena-backed too — recycle them when
/// retired.
pub fn conv2d_backward_scratch(
    grad_out: &Tensor,
    cache: &Tensor,
    weight: &Tensor,
    spec: &Conv2dSpec,
    in_h: usize,
    in_w: usize,
    scratch: &mut Scratch,
) -> (Tensor, Tensor, Tensor) {
    assert_eq!(
        &cache.shape()[2..],
        &[in_h + 2 * spec.padding, in_w + 2 * spec.padding]
    );
    let (dw, db) = conv2d_param_grads_scratch(grad_out, cache, spec, scratch);
    let dx = input_grad(grad_out, weight, spec, in_h, in_w, scratch);
    (dx, dw, db)
}

/// The parameter half of [`conv2d_backward_scratch`]: `(dweight, dbias)`
/// without the input gradient — all a network's first layer needs.
///
/// Output channels sit on the lanes of `simd::dw_block`: per image, `gᵀ`
/// is packed into blocks of `DW_LANES` channels, and each register block of
/// `dWᵀ` rows — patch elements `p`, then `db`'s row of ones — walks every
/// pixel once, broadcasting `patch(pixel, p)` straight from the padded
/// cache. The images take turns on one `dWᵀ` spill, so each sum runs over
/// `(img, oy, ox)` ascending from `+0.0`.
pub fn conv2d_param_grads_scratch(
    grad_out: &Tensor,
    cache: &Tensor,
    spec: &Conv2dSpec,
    scratch: &mut Scratch,
) -> (Tensor, Tensor) {
    let (gs, xs) = (grad_out.shape(), cache.shape());
    let (n, oc) = (gs[0], gs[1]);
    assert_eq!(oc, spec.out_channels);
    assert_eq!((xs[0], xs[1]), (n, spec.in_channels));
    let g = spec.geom(xs[2] - 2 * spec.padding, xs[3] - 2 * spec.padding);
    assert_eq!((gs[2], gs[3]), (g.oh, g.ow));
    let (ckk, pixels) = (g.ckk(), g.pixels());
    let isa = simd::active_isa();
    let (lanes, mr) = (simd::DW_LANES, isa.dw_rows());
    let walk = PixelWalk {
        oh: g.oh,
        ow: g.ow,
        dy: g.s * g.wp,
        dx: g.s,
    };
    // Rows `0..ckk` are `dW`'s patch elements, row `ckk` is `db`; a block's
    // rows past the last compute on the image and are never read.
    let rows = (ckk + 1).div_ceil(mr) * mr;
    let oc_blocks = oc.div_ceil(lanes);

    let off = patch_offsets(&g, scratch);
    let mut dw = scratch.tensor_any(&[oc, ckk]);
    let mut db = scratch.tensor_any(&[oc]);
    let images = cache.data().chunks_exact(g.image_len());
    let grads = grad_out.data().chunks_exact(oc * pixels);
    with_pack_bufs(|bufs| {
        let gt = bufs.a.ensure_len(pixels * lanes);
        let spill = bufs
            .b
            .ensure_len(oc_blocks * rows * lanes + walk.source_len());
        let (acc, ones) = spill.split_at_mut(oc_blocks * rows * lanes);
        acc.fill(0.0);
        ones.fill(1.0);
        let ones = &*ones;
        for (image, gimg) in images.zip(grads) {
            let mut src = [image; simd::DW_ROWS];
            for (ob, ablk) in acc.chunks_exact_mut(rows * lanes).enumerate() {
                let oc0 = ob * lanes;
                let live = (oc - oc0).min(lanes);
                pack_b_panel(
                    isa,
                    gimg,
                    pixels,
                    BSrc::Cols,
                    oc0,
                    live,
                    lanes,
                    0,
                    pixels,
                    gt,
                );
                for (r0, block) in (0..rows).step_by(mr).zip(ablk.chunks_exact_mut(mr * lanes)) {
                    for (slot, r) in src.iter_mut().zip(r0..(r0 + mr).min(ckk + 1)) {
                        *slot = off.get(r).map_or(ones, |&o| &image[o as usize..]);
                    }
                    simd::dw_block(isa, gt, &src[..mr], walk, block);
                }
            }
        }
        // dWᵀ → dW[OC, CKK] and db[OC]: plain copies.
        let (dwd, dbd) = (dw.data_mut(), db.data_mut());
        for (o, (wrow, b)) in dwd.chunks_exact_mut(ckk).zip(dbd.iter_mut()).enumerate() {
            let col = &acc[(o / lanes) * rows * lanes + o % lanes..];
            for (r, w) in wrow.iter_mut().enumerate() {
                *w = col[r * lanes];
            }
            *b = col[ckk * lanes];
        }
    });
    scratch.recycle_u32(off);
    (dw, db)
}

/// The input half of conv backward: per image, [`simd::conv_dx_plane`]
/// over blocks of input channels × input-pixel vectors, each summing
/// `Σ_oc W[oc, (ch, ky, kx)] · g[oc, oy, ox]` per tap straight from the
/// NCHW gradient and adding it to `dx` where `(oy, ox)` exists.
fn input_grad(
    grad_out: &Tensor,
    weight: &Tensor,
    spec: &Conv2dSpec,
    in_h: usize,
    in_w: usize,
    scratch: &mut Scratch,
) -> Tensor {
    let gs = grad_out.shape();
    let (n, oc) = (gs[0], gs[1]);
    let g = spec.geom(in_h, in_w);
    assert_eq!((gs[2], gs[3]), (g.oh, g.ow));
    assert_eq!(weight.shape(), &spec.weight_shape());
    let plane = in_h * in_w;
    let isa = simd::active_isa();

    let mut dx = scratch.tensor_zeroed(&[n, g.c, in_h, in_w]);
    let (gd, wd) = (grad_out.data(), weight.data());
    for_each_image(dx.data_mut(), g.c * plane, |img, dst| {
        let gimg = &gd[img * oc * g.pixels()..][..oc * g.pixels()];
        simd::conv_dx_plane(isa, &g, gimg, oc, wd, dst);
    });
    dx
}

/// Max-pool forward with square window/stride. Returns output and the flat
/// argmax indices (into the input) needed by the backward pass.
///
/// Each window starts from its first cell and takes a later cell only when
/// it compares strictly greater, in row-major order: ties keep the *first*
/// maximum, a NaN first in its window is reported (nothing compares greater
/// than it), a NaN later in its window is skipped, and an all-`-inf` window
/// reports its own first cell.
pub fn maxpool2d_forward(x: &Tensor, window: usize) -> (Tensor, Vec<u32>) {
    maxpool2d_forward_scratch(x, window, &mut Scratch::new())
}

/// [`maxpool2d_forward`] with output and index buffers drawn from the arena
/// (return the index buffer with [`Scratch::recycle_u32`] when retired).
pub fn maxpool2d_forward_scratch(
    x: &Tensor,
    window: usize,
    scratch: &mut Scratch,
) -> (Tensor, Vec<u32>) {
    let s = x.shape();
    let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
    assert!(
        h % window == 0 && w % window == 0,
        "pool window must divide input"
    );
    let (oh, ow) = (h / window, w / window);
    let mut out = scratch.tensor_any(&[n, c, oh, ow]);
    let mut idx = scratch.take_u32(n * c * oh * ow);
    if window == 2 {
        pool2(simd::active_isa(), x.data(), w, out.data_mut(), &mut idx);
        return (out, idx);
    }
    let xd = x.data();
    let od = out.data_mut();
    for img in 0..n {
        for ch in 0..c {
            let cb = (img * c + ch) * h * w;
            let ob = (img * c + ch) * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    // Start from the window's own first cell, so a window of
                    // `-inf` or NaN reports itself and an index inside it.
                    let mut bi = cb + oy * window * w + ox * window;
                    let mut best = xd[bi];
                    for ky in 0..window {
                        for kx in 0..window {
                            let i = cb + (oy * window + ky) * w + ox * window + kx;
                            if xd[i] > best {
                                best = xd[i];
                                bi = i;
                            }
                        }
                    }
                    od[ob + oy * ow + ox] = best;
                    idx[ob + oy * ow + ox] = bi as u32;
                }
            }
        }
    }
    (out, idx)
}

simd::widened! {
    /// The window-2 forward over every plane at once (the row count is even,
    /// so no pair of rows straddles two planes), two input rows of width `w`
    /// at a time. Each window compares its cells in the generic loop's order
    /// — (0,0), (0,1), (1,0), (1,1), strict `>` from the first — so the same
    /// maximum and index win. Written over plain indexed rows, the compiler
    /// turns the comparisons into selects and vectorises the row.
    fn pool2(src: &[f32], w: usize, dst: &mut [f32], ids: &mut [u32]) {
        let ow = w / 2;
        let rows = src
            .chunks_exact(2 * w)
            .zip(dst.chunks_exact_mut(ow))
            .zip(ids.chunks_exact_mut(ow));
        for (oy, ((pair, dst), ids)) in rows.enumerate() {
            let (top, bottom) = pair.split_at(w);
            let (top, bottom) = (&top[..2 * ow], &bottom[..2 * ow]);
            let (corner0, w32) = ((2 * oy * w) as u32, w as u32);
            for ox in 0..ow {
                let at = corner0 + 2 * ox as u32;
                let (mut best, mut bi) = (top[2 * ox], at);
                if top[2 * ox + 1] > best {
                    (best, bi) = (top[2 * ox + 1], at + 1);
                }
                if bottom[2 * ox] > best {
                    (best, bi) = (bottom[2 * ox], at + w32);
                }
                if bottom[2 * ox + 1] > best {
                    (best, bi) = (bottom[2 * ox + 1], at + w32 + 1);
                }
                dst[ox] = best;
                ids[ox] = bi;
            }
        }
    }
}

/// Max-pool backward: routes each output gradient to its argmax input cell.
/// Every other cell is `+0.0`, and a routed gradient arrives as `0.0 + g`, so
/// a `-0.0` gradient lands as `+0.0`.
pub fn maxpool2d_backward(grad_out: &Tensor, indices: &[u32], input_shape: &[usize]) -> Tensor {
    maxpool2d_backward_scratch(grad_out, indices, input_shape, &mut Scratch::new())
}

/// [`maxpool2d_backward`] with the output drawn from the arena.
pub fn maxpool2d_backward_scratch(
    grad_out: &Tensor,
    indices: &[u32],
    input_shape: &[usize],
    scratch: &mut Scratch,
) -> Tensor {
    assert_eq!(grad_out.len(), indices.len());
    let mut dx = scratch.tensor_zeroed(input_shape);
    let dd = dx.data_mut();
    for (&g, &i) in grad_out.data().iter().zip(indices) {
        dd[i as usize] += g;
    }
    dx
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(ic: usize, oc: usize, k: usize, s: usize, p: usize) -> Conv2dSpec {
        Conv2dSpec {
            in_channels: ic,
            out_channels: oc,
            kernel: k,
            stride: s,
            padding: p,
        }
    }

    #[test]
    fn out_size_formula() {
        let sp = spec(1, 1, 3, 1, 1);
        assert_eq!(sp.out_size(8), 8); // same-padding
        let sp2 = spec(1, 1, 2, 2, 0);
        assert_eq!(sp2.out_size(8), 4);
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        // 1x1 conv with weight 1 and bias 0 is the identity.
        let sp = spec(1, 1, 1, 1, 0);
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1., 2., 3., 4.]);
        let w = Tensor::from_vec(&[1, 1], vec![1.0]);
        let b = Tensor::zeros(&[1]);
        let (y, _) = conv2d_forward(&x, &w, &b, &sp);
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn known_3x3_convolution() {
        // 3x3 all-ones kernel over a 3x3 all-ones image, no padding → 9.
        let sp = spec(1, 1, 3, 1, 0);
        let x = Tensor::full(&[1, 1, 3, 3], 1.0);
        let w = Tensor::full(&[1, 9], 1.0);
        let b = Tensor::zeros(&[1]);
        let (y, _) = conv2d_forward(&x, &w, &b, &sp);
        assert_eq!(y.shape(), &[1, 1, 1, 1]);
        assert_eq!(y.data(), &[9.0]);
    }

    #[test]
    fn im2col_overwrites_dirty_scratch() {
        // Padding cells must come out zero even when the arena hands back a
        // buffer full of garbage.
        let sp = spec(1, 1, 3, 1, 1);
        let x = Tensor::full(&[1, 1, 3, 3], 1.0);
        let clean = im2col(&x, &sp, 3, 3);
        assert_eq!(clean.shape(), &[9, 9]);
        assert_eq!(clean.data()[..9], [0., 0., 0., 0., 1., 1., 0., 1., 1.]);
        let mut s = Scratch::new();
        s.recycle(vec![f32::NAN; clean.len() + 13]);
        s.recycle(vec![f32::NAN; 25]);
        let dirty = im2col_scratch(&x, &sp, 3, 3, &mut s);
        assert_eq!(clean.data(), dirty.data());
    }

    #[test]
    fn conv_gradient_matches_finite_difference() {
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(5);
        let sp = spec(1, 2, 3, 1, 1);
        let x = Tensor::randn(&[1, 1, 4, 4], 1.0, &mut rng);
        let w = Tensor::randn(&[2, 9], 0.5, &mut rng);
        let b = Tensor::zeros(&[2]);
        // Loss = sum of outputs; so grad_out = ones.
        let (y, cols) = conv2d_forward(&x, &w, &b, &sp);
        let gout = Tensor::full(y.shape(), 1.0);
        let (dx, dw, db) = conv2d_backward(&gout, &cols, &w, &sp, 4, 4);
        let eps = 1e-2f32;
        // check a few weight entries
        for i in [0usize, 7, 12] {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let (yp, _) = conv2d_forward(&x, &wp, &b, &sp);
            let mut wm = w.clone();
            wm.data_mut()[i] -= eps;
            let (ym, _) = conv2d_forward(&x, &wm, &b, &sp);
            let fd = (yp.sum() - ym.sum()) / (2.0 * eps);
            assert!(
                (fd - dw.data()[i]).abs() < 1e-2,
                "dw[{i}] fd {fd} vs {}",
                dw.data()[i]
            );
        }
        // check an input entry
        for i in [0usize, 9] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let (yp, _) = conv2d_forward(&xp, &w, &b, &sp);
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let (ym, _) = conv2d_forward(&xm, &w, &b, &sp);
            let fd = (yp.sum() - ym.sum()) / (2.0 * eps);
            assert!(
                (fd - dx.data()[i]).abs() < 1e-2,
                "dx[{i}] fd {fd} vs {}",
                dx.data()[i]
            );
        }
        // bias gradient is just the output count per channel
        assert_eq!(db.len(), 2);
        assert!((db.data()[0] - 16.0).abs() < 1e-4);
    }

    #[test]
    fn scratch_conv_matches_allocating_conv() {
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(77);
        let sp = spec(3, 4, 3, 1, 1);
        let x = Tensor::randn(&[4, 3, 6, 6], 1.0, &mut rng);
        let w = Tensor::randn(&[4, 27], 0.3, &mut rng);
        let b = Tensor::randn(&[4], 0.1, &mut rng);
        let (y_ref, cols_ref) = conv2d_forward(&x, &w, &b, &sp);
        let gout = Tensor::randn(y_ref.shape(), 1.0, &mut rng);
        let (dx_ref, dw_ref, db_ref) = conv2d_backward(&gout, &cols_ref, &w, &sp, 6, 6);

        let mut s = Scratch::new();
        // two passes: the second runs entirely from recycled buffers
        for pass in 0..2 {
            let (y, cols) = conv2d_forward_scratch(&x, &w, &b, &sp, &mut s);
            assert_eq!(y.data(), y_ref.data(), "forward pass {pass}");
            let (dx, dw, db) = conv2d_backward_scratch(&gout, &cols, &w, &sp, 6, 6, &mut s);
            assert_eq!(dx.data(), dx_ref.data(), "dx pass {pass}");
            assert_eq!(dw.data(), dw_ref.data(), "dw pass {pass}");
            assert_eq!(db.data(), db_ref.data(), "db pass {pass}");
            for t in [y, cols, dx, dw, db] {
                s.recycle_tensor(t);
            }
        }
        let after_warmup = s.grown();
        let (y, cols) = conv2d_forward_scratch(&x, &w, &b, &sp, &mut s);
        let _ = conv2d_backward_scratch(&gout, &cols, &w, &sp, 6, 6, &mut s);
        let _ = y;
        assert_eq!(s.grown(), after_warmup, "steady state must not allocate");
    }

    #[test]
    fn maxpool_forward_backward() {
        let x = Tensor::from_vec(
            &[1, 1, 4, 4],
            vec![
                1., 2., 5., 6., //
                3., 4., 7., 8., //
                9., 10., 13., 14., //
                11., 12., 15., 16.,
            ],
        );
        let (y, idx) = maxpool2d_forward(&x, 2);
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[4., 8., 12., 16.]);
        let g = Tensor::from_vec(&[1, 1, 2, 2], vec![1., 2., 3., 4.]);
        let dx = maxpool2d_backward(&g, &idx, &[1, 1, 4, 4]);
        assert_eq!(dx.data()[5], 1.0); // position of "4"
        assert_eq!(dx.data()[7], 2.0); // "8"
        assert_eq!(dx.data()[13], 3.0); // "12"
        assert_eq!(dx.data()[15], 4.0); // "16"
        assert_eq!(dx.sum(), 10.0);
    }

    #[test]
    fn maxpool_window_without_a_finite_cell_stays_in_its_window() {
        // A window of `-inf` (or NaN) used to report flat index 0 — image 0,
        // channel 0, pixel (0,0) — so backward credited another image, and
        // a NaN window read back as `-inf`.
        let inf = f32::NEG_INFINITY;
        let x = Tensor::from_vec(&[2, 1, 2, 2], vec![1., 2., 3., 4., inf, inf, inf, inf]);
        let (y, idx) = maxpool2d_forward(&x, 2);
        assert_eq!(y.data(), &[4.0, inf]);
        assert_eq!(idx, [3, 4]);
        let g = Tensor::from_vec(&[2, 1, 1, 1], vec![10., 20.]);
        let dx = maxpool2d_backward(&g, &idx, &[2, 1, 2, 2]);
        assert_eq!(dx.data(), &[0., 0., 0., 10., 20., 0., 0., 0.]);

        let nan = f32::NAN;
        let x = Tensor::from_vec(&[2, 1, 2, 2], vec![1., 2., 3., 4., nan, nan, nan, nan]);
        let (y, idx) = maxpool2d_forward(&x, 2);
        assert!(y.data()[1].is_nan(), "a diverged window must stay visible");
        assert_eq!(idx, [3, 4]);
    }
}
