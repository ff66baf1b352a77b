//! SIMD GEMM microkernels behind runtime ISA detection.
//!
//! Three tiers compute the same register-blocked inner kernel: AVX-512
//! (8×32 f32 tile), AVX2 (4×24), and a portable scalar fallback (4×16).
//! Every tier implements the **identical numeric contract**: for each
//! output element, products are rounded individually
//! (`round(a·b)`, no FMA) and added in ascending reduction-index order,
//! starting from `+0.0` — exactly the sequence the naive three-loop GEMM
//! performs. SIMD lanes only batch *independent* output columns, so the
//! tiers are bit-identical to each other and to the scalar reference on
//! every ISA, and results never depend on which tier ran. That is a
//! stronger guarantee than the per-ISA determinism the cost model needs,
//! and it is what lets the golden-trace and blocked-vs-naive suites pass
//! unchanged regardless of host CPU.
//!
//! The active tier is picked once per process from CPUID (overridable with
//! `DTRAIN_SIMD=avx512|avx2|scalar`), and can be narrowed per-thread with
//! [`with_isa`] — the property tests compare tiers inside one process, and
//! the golden-trace passivity test proves a ~4–10× kernel-speed change
//! cannot alter a trace.
//!
//! Microkernels consume *packed* operands (see `matmul::pack_*`): an A
//! block laid out `ap[p*MR + ii]` and a B panel `bp[p*NR + jj]`, both
//! 64-byte-aligned so the B loads stream whole cache lines. The C tile is
//! addressed through a raw pointer with an arbitrary row stride; partial
//! edge tiles are staged through an aligned scratch tile by the caller
//! (`run_tile`), so the kernels themselves always see a full MR×NR tile.
//!
//! Beside them sits the convolution weight-gradient kernel (`dw_block`):
//! the same contract with output channels on the lanes and patch elements
//! broadcast straight from the padded image, in the same three tiers; the
//! AVX-512 tier runs the 8-lane AVX2 kernel.

use crate::matmul::ASrc;
use std::cell::Cell;
use std::sync::OnceLock;

/// Instruction-set tier. Ordering is "wider first"; [`active_isa`] picks
/// the widest supported tier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Isa {
    /// AVX-512F: 16-lane f32, 8×32 microkernel.
    Avx512,
    /// AVX2: 8-lane f32, 4×24 microkernel.
    Avx2,
    /// Portable scalar loops (autovectorized lane-wise by the compiler),
    /// 4×16 microkernel. Always available.
    Scalar,
}

/// Widest microkernel row count across tiers (stage-tile sizing).
pub(crate) const MAX_MR: usize = 8;
/// Widest microkernel column count across tiers (stage-tile sizing).
pub(crate) const MAX_NR: usize = 32;

/// Output channels on the lanes of a weight-gradient register block
/// ([`dw_block`]): one ymm on the vector tiers, AVX-512's included.
pub(crate) const DW_LANES: usize = 8;
/// Rows of the weight-gradient register block (see [`Isa::dw_rows`]) on
/// the vector tiers: with the `gᵀ` vector and a product, 14 ymm
/// accumulators fill AVX2's 16 registers.
pub(crate) const DW_ROWS: usize = 14;
/// Rows of the portable weight-gradient register block.
const DW_ROWS_SCALAR: usize = 4;

impl Isa {
    /// `(MR, NR)`: rows and columns of the register-blocked output tile.
    pub fn geometry(self) -> (usize, usize) {
        match self {
            Isa::Avx512 => (8, 32),
            Isa::Avx2 => (4, 24),
            Isa::Scalar => (4, 16),
        }
    }

    /// Rows of the weight-gradient register block ([`dw_block`]), one
    /// accumulator vector of [`DW_LANES`] output channels each.
    pub(crate) fn dw_rows(self) -> usize {
        match self {
            Isa::Avx512 | Isa::Avx2 => DW_ROWS,
            Isa::Scalar => DW_ROWS_SCALAR,
        }
    }

    /// Stable name used in bench records and `DTRAIN_SIMD`.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Avx512 => "avx512",
            Isa::Avx2 => "avx2",
            Isa::Scalar => "scalar",
        }
    }

    /// Whether the current hardware can execute this tier.
    pub fn hw_supported(self) -> bool {
        match self {
            Isa::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            // The tier's 8-lane weight-gradient kernel and `gᵀ` pack are AVX2.
            Isa::Avx512 => {
                std::arch::is_x86_feature_detected!("avx512f")
                    && std::arch::is_x86_feature_detected!("avx2")
            }
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

/// Every tier the current hardware supports, widest first.
pub fn supported_isas() -> Vec<Isa> {
    [Isa::Avx512, Isa::Avx2, Isa::Scalar]
        .into_iter()
        .filter(|i| i.hw_supported())
        .collect()
}

fn parse_env(v: &str) -> Option<Isa> {
    match v.trim().to_ascii_lowercase().as_str() {
        "avx512" => Some(Isa::Avx512),
        "avx2" => Some(Isa::Avx2),
        "scalar" => Some(Isa::Scalar),
        _ => None,
    }
}

fn detect() -> Isa {
    let requested = std::env::var("DTRAIN_SIMD")
        .ok()
        .and_then(|v| parse_env(&v));
    match requested {
        // An env request for an unsupported tier degrades to the widest
        // supported one rather than crashing on an illegal instruction.
        Some(isa) if isa.hw_supported() => isa,
        _ => *supported_isas().first().unwrap_or(&Isa::Scalar),
    }
}

static DETECTED: OnceLock<Isa> = OnceLock::new();

thread_local! {
    /// Per-thread tier override (see [`with_isa`]). `None` means "use the
    /// process-wide detected tier".
    static ISA_OVERRIDE: Cell<Option<Isa>> = const { Cell::new(None) };
}

/// The microkernel tier GEMM will dispatch on *right now* for this thread.
/// Callers resolve this once per GEMM call, on the calling thread, and pass
/// the result into parallel tasks — so a [`with_isa`] scope governs the
/// whole operation even though tasks run on pool workers.
pub fn active_isa() -> Isa {
    ISA_OVERRIDE
        .with(Cell::get)
        .unwrap_or_else(|| *DETECTED.get_or_init(detect))
}

/// Run `f` with kernels pinned to (at most) the given tier on this thread.
/// An unsupported request degrades to the widest supported tier at or below
/// it, so `with_isa(Isa::Avx512, ..)` is safe everywhere. Equivalence tests
/// compare tier outputs inside one process with this.
pub fn with_isa<R>(isa: Isa, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Isa>);
    impl Drop for Restore {
        fn drop(&mut self) {
            ISA_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let effective = if isa.hw_supported() { isa } else { Isa::Scalar };
    let prev = ISA_OVERRIDE.with(|c| c.replace(Some(effective)));
    let _restore = Restore(prev);
    f()
}

/// `widened! { fn name(args…) { body } }` defines `fn name(isa: Isa,
/// args…)`, which runs `body` compiled for `isa`'s vector width: the same
/// safe loop, in a function with AVX-512F or AVX2 enabled when `isa` is one
/// of them. Only for element-wise loops, whose bits cannot depend on the
/// width: one exact IEEE operation per element, no sum reassociated, no
/// product fused. A function per kernel rather than a closure, because the
/// slices must arrive as parameters for the compiler to know they do not
/// overlap; without that it vectorises behind per-call overlap checks.
/// Lane-wise loops qualify too (`dtrain-data`'s generator lanes): integer
/// operations and one IEEE operation at a time per lane, no lane mixed
/// into another.
#[macro_export]
macro_rules! widened {
    ($(#[$m:meta])* fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $body:block) => {
        $(#[$m])*
        fn $name(isa: $crate::simd::Isa, $($arg: $ty),*) {
            #[inline(always)]
            fn body($($arg: $ty),*) $body
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx512f")]
                fn avx512($($arg: $ty),*) {
                    body($($arg),*)
                }
                #[target_feature(enable = "avx2")]
                fn avx2($($arg: $ty),*) {
                    body($($arg),*)
                }
                match isa {
                    // SAFETY: a tier is active only if `hw_supported` found
                    // it on this CPU (`detect` and `with_isa` both check).
                    $crate::simd::Isa::Avx512 => return unsafe { avx512($($arg),*) },
                    // SAFETY: as above.
                    $crate::simd::Isa::Avx2 => return unsafe { avx2($($arg),*) },
                    $crate::simd::Isa::Scalar => {}
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            let _ = isa;
            body($($arg),*)
        }
    };
}
pub use widened;

/// Staging tile for partial edge tiles: cache-line aligned so the staged
/// kernel sees the same alignment as a direct C write.
#[repr(align(64))]
pub(crate) struct StageTile(pub [f32; MAX_MR * MAX_NR]);

impl StageTile {
    pub fn new() -> Self {
        StageTile([0.0; MAX_MR * MAX_NR])
    }
}

/// Compute one `MR×NR` output tile: `C[ii, jj] (+)= Σ_p ap[p*MR+ii] ·
/// bp[p*NR+jj]` with `p` ascending. `init` means the accumulators start
/// from `+0.0` and overwrite C (first reduction chunk); otherwise they
/// start from the current C values (later chunks). Handles partial tiles
/// (`rows ≤ MR`, `cols ≤ NR`) by staging through `stage`; the packed
/// operands are always full-width (zero-padded by the packer).
///
/// `c` points at the tile's top-left element inside an output buffer whose
/// rows are `stride` elements apart; the caller guarantees rows×cols of
/// that region are valid and that no other task touches them.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_tile(
    isa: Isa,
    ap: &[f32],
    bp: &[f32],
    c: *mut f32,
    stride: usize,
    kc: usize,
    rows: usize,
    cols: usize,
    init: bool,
    stage: &mut StageTile,
) {
    let (mr, nr) = isa.geometry();
    debug_assert!(rows <= mr && cols <= nr);
    debug_assert!(ap.len() >= kc * mr && bp.len() >= kc * nr);
    if rows == mr && cols == nr {
        // SAFETY: the caller guarantees `c` addresses a full mr×nr tile
        // with row stride `stride`, exclusively owned by this task; packed
        // operand lengths were checked above.
        unsafe { kernel_full(isa, ap, bp, c, stride, kc, init) };
        return;
    }
    // Partial tile: run the full-width kernel on an aligned stage buffer,
    // then copy the live region back. For `init` tiles no copy-in is needed
    // (the kernel overwrites the stage); for accumulating tiles the live C
    // values are copied in first. f32 copies are exact, so staging cannot
    // change bits.
    let tile = &mut stage.0[..mr * nr];
    if !init {
        for ii in 0..rows {
            for jj in 0..cols {
                // SAFETY: (ii, jj) is inside the rows×cols live region.
                tile[ii * nr + jj] = unsafe { *c.add(ii * stride + jj) };
            }
        }
    }
    // SAFETY: the stage buffer is a full mr×nr tile with stride nr.
    unsafe { kernel_full(isa, ap, bp, tile.as_mut_ptr(), nr, kc, init) };
    for ii in 0..rows {
        for jj in 0..cols {
            // SAFETY: (ii, jj) is inside the rows×cols live region.
            unsafe { *c.add(ii * stride + jj) = tile[ii * nr + jj] };
        }
    }
}

/// Dispatch the full-tile kernel for `isa`.
///
/// # Safety
/// `c` must address a full `MR×NR` tile (per `isa.geometry()`) with row
/// stride `stride`, exclusively owned by the caller; `ap`/`bp` must hold at
/// least `kc*MR` / `kc*NR` elements; `isa` must be hardware-supported.
unsafe fn kernel_full(
    isa: Isa,
    ap: &[f32],
    bp: &[f32],
    c: *mut f32,
    stride: usize,
    kc: usize,
    init: bool,
) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: forwarded caller contract; AVX-512F/AVX2 availability is
        // guaranteed by `hw_supported` at tier selection.
        Isa::Avx512 => unsafe { kernel_avx512(ap, bp, c, stride, kc, init) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        Isa::Avx2 => unsafe { kernel_avx2(ap, bp, c, stride, kc, init) },
        // SAFETY: forwarded caller contract.
        _ => unsafe { kernel_scalar(ap, bp, c, stride, kc, init) },
    }
}

/// Portable scalar tier (4×16). The inner loops are lane-independent
/// mul-then-add over distinct output columns, which the compiler may
/// autovectorize freely — element-wise vectorization performs the same
/// IEEE operations in the same order, so codegen cannot change bits.
///
/// # Safety
/// See [`kernel_full`].
unsafe fn kernel_scalar(ap: &[f32], bp: &[f32], c: *mut f32, stride: usize, kc: usize, init: bool) {
    const MR: usize = 4;
    const NR: usize = 16;
    let mut acc = [[0.0f32; NR]; MR];
    if !init {
        for (ii, row) in acc.iter_mut().enumerate() {
            for (jj, v) in row.iter_mut().enumerate() {
                // SAFETY: caller guarantees the full MR×NR tile is valid.
                *v = unsafe { *c.add(ii * stride + jj) };
            }
        }
    }
    for p in 0..kc {
        let arow = &ap[p * MR..p * MR + MR];
        let brow = &bp[p * NR..p * NR + NR];
        for (ii, row) in acc.iter_mut().enumerate() {
            let a = arow[ii];
            for (v, &b) in row.iter_mut().zip(brow) {
                *v += a * b;
            }
        }
    }
    for (ii, row) in acc.iter().enumerate() {
        for (jj, &v) in row.iter().enumerate() {
            // SAFETY: caller guarantees the full MR×NR tile is valid.
            unsafe { *c.add(ii * stride + jj) = v };
        }
    }
}

/// AVX2 tier: 4 rows × 3 ymm columns = 12 accumulator registers, which
/// together with 3 B vectors and 1 broadcast exactly fills the 16-register
/// file without spills. `add(acc, mul(a, b))` — *not* `fmadd` — keeps the
/// per-product rounding of the scalar contract.
///
/// # Safety
/// See [`kernel_full`]; additionally requires AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn kernel_avx2(ap: &[f32], bp: &[f32], c: *mut f32, stride: usize, kc: usize, init: bool) {
    use std::arch::x86_64::*;
    const MR: usize = 4;
    const NV: usize = 3; // 8-lane vectors per row
    const NR: usize = NV * 8;
    // SAFETY (whole body): operand bounds and C-tile ownership per the
    // caller contract; loads/stores are unaligned-tolerant (`loadu`).
    unsafe {
        let mut acc = [[_mm256_setzero_ps(); NV]; MR];
        if !init {
            for (ii, row) in acc.iter_mut().enumerate() {
                for (v, vec) in row.iter_mut().enumerate() {
                    *vec = _mm256_loadu_ps(c.add(ii * stride + v * 8));
                }
            }
        }
        let a_ptr = ap.as_ptr();
        let b_ptr = bp.as_ptr();
        for p in 0..kc {
            let b0 = _mm256_loadu_ps(b_ptr.add(p * NR));
            let b1 = _mm256_loadu_ps(b_ptr.add(p * NR + 8));
            let b2 = _mm256_loadu_ps(b_ptr.add(p * NR + 16));
            for (ii, row) in acc.iter_mut().enumerate() {
                let a = _mm256_broadcast_ss(&*a_ptr.add(p * MR + ii));
                row[0] = _mm256_add_ps(row[0], _mm256_mul_ps(a, b0));
                row[1] = _mm256_add_ps(row[1], _mm256_mul_ps(a, b1));
                row[2] = _mm256_add_ps(row[2], _mm256_mul_ps(a, b2));
            }
        }
        for (ii, row) in acc.iter().enumerate() {
            for (v, vec) in row.iter().enumerate() {
                _mm256_storeu_ps(c.add(ii * stride + v * 8), *vec);
            }
        }
    }
}

/// AVX-512F tier: 8 rows × 2 zmm columns = 16 accumulators + 2 B vectors +
/// 1 broadcast out of 32 registers. Packed B offsets are 128-byte aligned
/// (64-byte buffer alignment × NR=32 panel width), so the B loads stream
/// two full cache lines per reduction step.
///
/// # Safety
/// See [`kernel_full`]; additionally requires AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn kernel_avx512(ap: &[f32], bp: &[f32], c: *mut f32, stride: usize, kc: usize, init: bool) {
    use std::arch::x86_64::*;
    const MR: usize = 8;
    const NV: usize = 2; // 16-lane vectors per row
    const NR: usize = NV * 16;
    // SAFETY (whole body): operand bounds and C-tile ownership per the
    // caller contract; loads/stores are unaligned-tolerant (`loadu`).
    unsafe {
        let mut acc = [[_mm512_setzero_ps(); NV]; MR];
        if !init {
            for (ii, row) in acc.iter_mut().enumerate() {
                for (v, vec) in row.iter_mut().enumerate() {
                    *vec = _mm512_loadu_ps(c.add(ii * stride + v * 16));
                }
            }
        }
        let a_ptr = ap.as_ptr();
        let b_ptr = bp.as_ptr();
        for p in 0..kc {
            let b0 = _mm512_loadu_ps(b_ptr.add(p * NR));
            let b1 = _mm512_loadu_ps(b_ptr.add(p * NR + 16));
            for (ii, row) in acc.iter_mut().enumerate() {
                let a = _mm512_set1_ps(*a_ptr.add(p * MR + ii));
                row[0] = _mm512_add_ps(row[0], _mm512_mul_ps(a, b0));
                row[1] = _mm512_add_ps(row[1], _mm512_mul_ps(a, b1));
            }
        }
        for (ii, row) in acc.iter().enumerate() {
            for (v, vec) in row.iter().enumerate() {
                _mm512_storeu_ps(c.add(ii * stride + v * 16), *vec);
            }
        }
    }
}

/// The output pixels a [`dw_block`] pass visits: `(oy, ox)` row-major over
/// `oh × ow`, pixel `(oy, ox)` reading each row source at
/// `oy·dy + ox·dx` (for a convolution, its patch corner in the padded
/// image).
#[derive(Clone, Copy, Debug)]
pub(crate) struct PixelWalk {
    pub oh: usize,
    pub ow: usize,
    pub dy: usize,
    pub dx: usize,
}

impl PixelWalk {
    /// Pixels visited, and so `gᵀ` vectors read.
    pub fn pixels(&self) -> usize {
        self.oh * self.ow
    }

    /// Elements each row source must hold: one past the last corner.
    pub fn source_len(&self) -> usize {
        (self.oh - 1) * self.dy + (self.ow - 1) * self.dx + 1
    }
}

/// One register block of a convolution's weight gradient, **output
/// channels on the lanes**: with `lanes = DW_LANES` and `rows = isa.dw_rows()`,
/// `acc[r·lanes + l] += src[r][corner(s)] · gt[s·lanes + l]` for every
/// pixel `s` of `walk` in ascending order, each product rounded alone and
/// added to the running sum (no FMA) — the GEMM tiers' contract with the
/// pixels as the reduction index. `src` holds exactly `rows` sources (a
/// caller pads a short block with any valid source and ignores those rows);
/// a source of ones makes its row the sum of `gt` itself, since `1.0 · g`
/// is exact. The sums start from `acc` and end there, so a reduction split
/// across calls round-trips its partial sums through memory and nothing
/// else.
pub(crate) fn dw_block(isa: Isa, gt: &[f32], src: &[&[f32]], walk: PixelWalk, acc: &mut [f32]) {
    let rows = isa.dw_rows();
    assert_eq!(src.len(), rows, "one source per register row");
    assert!(gt.len() >= walk.pixels() * DW_LANES && acc.len() >= rows * DW_LANES);
    let need = walk.source_len();
    let mut ptrs = [std::ptr::null::<f32>(); DW_ROWS];
    for (p, s) in ptrs.iter_mut().zip(src) {
        assert!(s.len() >= need, "row source shorter than the walk");
        *p = s.as_ptr();
    }
    let (gt, acc) = (gt.as_ptr(), acc.as_mut_ptr());
    match isa {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: every source holds `walk.source_len()` elements and `gt`
        // / `acc` their `pixels·lanes` / `rows·lanes` (asserted above); the
        // tier is hardware-supported (`hw_supported` at tier selection), and
        // the AVX-512 tier requires AVX2 too.
        Isa::Avx512 | Isa::Avx2 => unsafe { dw_ymm(gt, &ptrs, walk, acc) },
        // SAFETY: bounds as above.
        _ => unsafe { dw_scalar(gt, &ptrs, walk, acc) },
    }
}

/// Portable weight-gradient block: 8 lanes × [`DW_ROWS_SCALAR`] rows of
/// plain arrays, lane-independent like [`kernel_scalar`].
///
/// # Safety
/// See [`dw_block`]: `src[..rows]` hold `walk.source_len()` elements each,
/// `gt` `walk.pixels()·8` and `acc` `rows·8`.
unsafe fn dw_scalar(gt: *const f32, src: &[*const f32; DW_ROWS], walk: PixelWalk, acc: *mut f32) {
    const L: usize = DW_LANES;
    const R: usize = DW_ROWS_SCALAR;
    // SAFETY (whole body): bounds per the caller contract.
    unsafe {
        let mut a = [[0.0f32; L]; R];
        for (r, row) in a.iter_mut().enumerate() {
            row.copy_from_slice(std::slice::from_raw_parts(acc.add(r * L), L));
        }
        let mut g = gt;
        for oy in 0..walk.oh {
            let mut corner = oy * walk.dy;
            for _ in 0..walk.ow {
                let gv = std::slice::from_raw_parts(g, L);
                for (row, &s) in a.iter_mut().zip(src) {
                    let x = *s.add(corner);
                    for (v, &gl) in row.iter_mut().zip(gv) {
                        *v += x * gl;
                    }
                }
                g = g.add(L);
                corner += walk.dx;
            }
        }
        for (r, row) in a.iter().enumerate() {
            std::slice::from_raw_parts_mut(acc.add(r * L), L).copy_from_slice(row);
        }
    }
}

/// 8-lane weight-gradient block: [`DW_ROWS`] ymm accumulators, the `gᵀ`
/// vector and one product fill the 16 registers. `add(acc, mul(x, g))`,
/// never `fmadd`.
///
/// # Safety
/// See [`dw_scalar`]; additionally requires AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dw_ymm(gt: *const f32, src: &[*const f32; DW_ROWS], walk: PixelWalk, acc: *mut f32) {
    use std::arch::x86_64::*;
    const L: usize = DW_LANES;
    const R: usize = DW_ROWS;
    // SAFETY (whole body): bounds per the caller contract; every load and
    // store is unaligned-tolerant.
    unsafe {
        let mut a = [_mm256_setzero_ps(); R];
        for (r, v) in a.iter_mut().enumerate() {
            *v = _mm256_loadu_ps(acc.add(r * L));
        }
        let mut g = gt;
        for oy in 0..walk.oh {
            let mut corner = oy * walk.dy;
            for _ in 0..walk.ow {
                let gv = _mm256_loadu_ps(g);
                for (v, &s) in a.iter_mut().zip(src) {
                    let x = _mm256_broadcast_ss(&*s.add(corner));
                    *v = _mm256_add_ps(*v, _mm256_mul_ps(x, gv));
                }
                g = g.add(L);
                corner += walk.dx;
            }
        }
        for (r, v) in a.iter().enumerate() {
            _mm256_storeu_ps(acc.add(r * L), *v);
        }
    }
}

/// Pack `g`'s first `live ≤ lanes` rows of `pixels` (`g[i·pixels + s]`,
/// one per output channel) as [`dw_block`]'s `gt[s·lanes + i]`, zero for
/// `i ≥ live`. The vector tiers transpose 8×8 tiles in registers; with the
/// strided stores of `pack_a_block`, which the scalar tier uses, SmallCnn's
/// first-layer weight gradient ran ≈ 20 % slower on an AVX-512 Xeon.
pub(crate) fn pack_gt(
    isa: Isa,
    g: &[f32],
    pixels: usize,
    live: usize,
    lanes: usize,
    gt: &mut [f32],
) {
    assert!(live <= lanes && lanes.is_multiple_of(8) && g.len() >= live * pixels);
    assert!(gt.len() >= pixels * lanes);
    #[cfg(target_arch = "x86_64")]
    if isa != Isa::Scalar {
        for i0 in (0..lanes).step_by(8) {
            let rows = live.saturating_sub(i0).min(8);
            let rows_at = g[(i0 * pixels).min(g.len())..].as_ptr();
            // SAFETY: `rows_at` holds `rows·pixels` elements and `gt`
            // `pixels·lanes` from column `i0 ≤ lanes − 8` (asserted above);
            // both vector tiers have AVX2.
            unsafe { transpose8(rows_at, pixels, rows, gt.as_mut_ptr().add(i0), lanes) };
        }
        return;
    }
    let _ = isa;
    let gt = &mut gt[..pixels * lanes];
    crate::matmul::pack_a_block(g, pixels, ASrc::Rows, 0, live, lanes, 0, pixels, gt);
}

/// `dst[s·stride + i] = src[i·pixels + s]` for `i < 8` and `s < pixels`,
/// rows `i ≥ rows` as zeros: eight pixels per in-register 8×8 transpose,
/// the last `pixels % 8` one at a time.
///
/// # Safety
/// `src` holds `rows·pixels` elements and `dst` `(pixels − 1)·stride + 8`;
/// requires AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn transpose8(src: *const f32, pixels: usize, rows: usize, dst: *mut f32, stride: usize) {
    use std::arch::x86_64::*;
    // SAFETY (whole body): bounds per the caller contract.
    unsafe {
        let mut s = 0;
        while s + 8 <= pixels {
            let r: [__m256; 8] = std::array::from_fn(|i| match i < rows {
                true => _mm256_loadu_ps(src.add(i * pixels + s)),
                false => _mm256_setzero_ps(),
            });
            let t0 = _mm256_unpacklo_ps(r[0], r[1]);
            let t1 = _mm256_unpackhi_ps(r[0], r[1]);
            let t2 = _mm256_unpacklo_ps(r[2], r[3]);
            let t3 = _mm256_unpackhi_ps(r[2], r[3]);
            let t4 = _mm256_unpacklo_ps(r[4], r[5]);
            let t5 = _mm256_unpackhi_ps(r[4], r[5]);
            let t6 = _mm256_unpacklo_ps(r[6], r[7]);
            let t7 = _mm256_unpackhi_ps(r[6], r[7]);
            let u0 = _mm256_shuffle_ps::<0x44>(t0, t2);
            let u1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
            let u2 = _mm256_shuffle_ps::<0x44>(t1, t3);
            let u3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
            let u4 = _mm256_shuffle_ps::<0x44>(t4, t6);
            let u5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
            let u6 = _mm256_shuffle_ps::<0x44>(t5, t7);
            let u7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
            let cols = [
                _mm256_permute2f128_ps::<0x20>(u0, u4),
                _mm256_permute2f128_ps::<0x20>(u1, u5),
                _mm256_permute2f128_ps::<0x20>(u2, u6),
                _mm256_permute2f128_ps::<0x20>(u3, u7),
                _mm256_permute2f128_ps::<0x31>(u0, u4),
                _mm256_permute2f128_ps::<0x31>(u1, u5),
                _mm256_permute2f128_ps::<0x31>(u2, u6),
                _mm256_permute2f128_ps::<0x31>(u3, u7),
            ];
            for (j, v) in cols.iter().enumerate() {
                _mm256_storeu_ps(dst.add((s + j) * stride), *v);
            }
            s += 8;
        }
        for s in s..pixels {
            for i in 0..8 {
                let v = if i < rows {
                    *src.add(i * pixels + s)
                } else {
                    0.0
                };
                *dst.add(s * stride + i) = v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run one staged tile against a hand-rolled reference for every
    /// supported tier, exercising both `init` modes and partial edges.
    #[test]
    fn tile_matches_reference_all_tiers() {
        for isa in supported_isas() {
            let (mr, nr) = isa.geometry();
            for (rows, cols, kc, init) in [
                (mr, nr, 9, true),
                (mr, nr, 9, false),
                (mr - 1, nr - 3, 5, true),
                (1, 1, 7, false),
            ] {
                let ap: Vec<f32> = (0..kc * mr).map(|i| (i % 11) as f32 * 0.25 - 1.0).collect();
                let bp: Vec<f32> = (0..kc * nr).map(|i| (i % 7) as f32 * 0.5 - 1.5).collect();
                let stride = nr + 3; // deliberately non-tile stride
                let mut c: Vec<f32> = (0..mr * stride).map(|i| i as f32 * 0.1).collect();
                let mut want = c.clone();
                for ii in 0..rows {
                    for jj in 0..cols {
                        let mut s = if init { 0.0f32 } else { want[ii * stride + jj] };
                        for p in 0..kc {
                            s += ap[p * mr + ii] * bp[p * nr + jj];
                        }
                        want[ii * stride + jj] = s;
                    }
                }
                let mut stage = StageTile::new();
                run_tile(
                    isa,
                    &ap,
                    &bp,
                    c.as_mut_ptr(),
                    stride,
                    kc,
                    rows,
                    cols,
                    init,
                    &mut stage,
                );
                for (i, (g, w)) in c.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{}: elem {i} {g} vs {w} (rows={rows} cols={cols} kc={kc} init={init})",
                        isa.name()
                    );
                }
            }
        }
    }

    #[test]
    fn with_isa_overrides_and_restores() {
        let ambient = active_isa();
        with_isa(Isa::Scalar, || {
            assert_eq!(active_isa(), Isa::Scalar);
            with_isa(ambient, || assert_eq!(active_isa(), ambient));
            assert_eq!(active_isa(), Isa::Scalar);
        });
        assert_eq!(active_isa(), ambient);
    }

    #[test]
    fn unsupported_request_degrades() {
        // Scalar is always supported; requesting it must never panic, and
        // whatever tier detection picks must be hardware-supported.
        assert!(active_isa().hw_supported());
        with_isa(Isa::Avx512, || assert!(active_isa().hw_supported()));
    }
}
