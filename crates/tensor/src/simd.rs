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
//! every ISA, and no finite or infinite result depends on which tier ran.
//! A NaN's payload may: x86 returns the first operand's NaN and LLVM may
//! commute an `fadd`, so which of two NaNs a sum carries is not part of the
//! contract (DESIGN.md §2c; the bit pins hash every NaN as one pattern).
//! That is a stronger guarantee than the per-ISA determinism the cost model
//! needs, and it is what lets the golden-trace and blocked-vs-naive suites
//! pass unchanged regardless of host CPU.
//!
//! The active tier is picked once per process from CPUID (overridable with
//! `DTRAIN_SIMD=avx512|avx2|scalar`), and can be narrowed per-thread with
//! [`with_isa`] — the property tests compare tiers inside one process, and
//! the golden-trace passivity test proves a ~4–10× kernel-speed change
//! cannot alter a trace.
//!
//! Microkernels read A **in place** (`ATile`: a base, a row stride, a
//! column stride and the live row count — `(lda, 1)` for a row-major A,
//! `(1, lda)` for the Aᵀ view) and a *packed* B panel `bp[p*NR + jj]`,
//! 64-byte-aligned so the B loads stream whole cache lines
//! (`matmul::pack_b_panel`, which gathers a Bᵀ view with `transpose8`).
//! The C tile is addressed through a raw pointer with an arbitrary row
//! stride; partial edge tiles are staged through an aligned scratch tile by
//! the caller (`run_tile`), so the kernels themselves always compute a full
//! MR×NR tile: rows past the live ones re-read the last live row, and their
//! outputs only ever reach the stage tile.
//!
//! Beside them sit the three convolution kernels, in the same three tiers
//! and under the same contract. The forward (`conv_fwd_plane`) and input
//! gradient (`conv_dx_plane`) put pixels on the lanes and read the padded
//! image or the gradient in place, with masked loads and stores for a
//! short row and gathers at stride > 1; the weight gradient (`dw_block`)
//! puts output channels on the lanes and broadcasts patch elements
//! straight from the padded image, its AVX-512 tier running the 8-lane
//! AVX2 kernel.

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

    /// `(lanes, rows, vecs)` of the direct convolution kernels' register
    /// block ([`conv_fwd_plane`], [`conv_dx_plane`]): `rows` channels ×
    /// `vecs` vectors of `lanes` pixels, one accumulator vector each.
    fn conv_block(self) -> (usize, usize, usize) {
        match self {
            Isa::Avx512 => (16, 8, 2),
            Isa::Avx2 => (8, 4, 2),
            Isa::Scalar => (8, 4, 1),
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

/// The left operand of one output tile, read in place: `a(ii, p) =
/// a[ii·rs + p·cs]` for the `rows` live rows `ii`. A kernel computes all
/// `MR` rows of its tile and reads rows `ii ≥ rows` as row `rows − 1`;
/// [`run_tile`] sends such a tile through the stage tile, so their outputs
/// are never stored.
#[derive(Clone, Copy)]
pub(crate) struct ATile<'a> {
    pub a: &'a [f32],
    pub rs: usize,
    pub cs: usize,
    pub rows: usize,
}

impl ATile<'_> {
    /// Offset of each of the `MR` kernel rows, edge rows clamped.
    fn row_offsets<const MR: usize>(&self) -> [usize; MR] {
        std::array::from_fn(|ii| ii.min(self.rows - 1) * self.rs)
    }
}

/// Compute one `MR×NR` output tile: `C[ii, jj] (+)= Σ_p a(ii, p) ·
/// bp[p*NR+jj]` with `p` ascending. `init` means the accumulators start
/// from `+0.0` and overwrite C (first reduction chunk); otherwise they
/// start from the current C values (later chunks). Handles partial tiles
/// (`a.rows ≤ MR`, `cols ≤ NR`) by staging through `stage`; the packed B
/// panel is always full-width (zero-padded by the packer).
///
/// `c` points at the tile's top-left element inside an output buffer whose
/// rows are `stride` elements apart; the caller guarantees rows×cols of
/// that region are valid and that no other task touches them.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_tile(
    isa: Isa,
    a: ATile,
    bp: &[f32],
    c: *mut f32,
    stride: usize,
    kc: usize,
    cols: usize,
    init: bool,
    stage: &mut StageTile,
) {
    let (mr, nr) = isa.geometry();
    let rows = a.rows;
    assert!((1..=mr).contains(&rows) && cols <= nr && kc > 0);
    assert!(a.a.len() > (rows - 1) * a.rs + (kc - 1) * a.cs && bp.len() >= kc * nr);
    if rows == mr && cols == nr {
        // SAFETY: the caller guarantees `c` addresses a full mr×nr tile
        // with row stride `stride`, exclusively owned by this task; operand
        // lengths were checked above.
        unsafe { kernel_full(isa, a, bp, c, stride, kc, init) };
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
    unsafe { kernel_full(isa, a, bp, tile.as_mut_ptr(), nr, kc, init) };
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
/// stride `stride`, exclusively owned by the caller; `a` must hold its live
/// rows' first `kc` elements and `bp` at least `kc*NR`; `isa` must be
/// hardware-supported.
unsafe fn kernel_full(
    isa: Isa,
    a: ATile,
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
        Isa::Avx512 => unsafe { kernel_avx512(a, bp, c, stride, kc, init) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        Isa::Avx2 => unsafe { kernel_avx2(a, bp, c, stride, kc, init) },
        // SAFETY: forwarded caller contract.
        _ => unsafe { kernel_scalar(a, bp, c, stride, kc, init) },
    }
}

/// Portable scalar tier (4×16). The inner loops are lane-independent
/// mul-then-add over distinct output columns, which the compiler may
/// autovectorize freely — element-wise vectorization performs the same
/// IEEE operations in the same order, so codegen cannot change bits.
///
/// # Safety
/// See [`kernel_full`].
unsafe fn kernel_scalar(a: ATile, bp: &[f32], c: *mut f32, stride: usize, kc: usize, init: bool) {
    const MR: usize = 4;
    const NR: usize = 16;
    let at = a.row_offsets::<MR>();
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
        let brow = &bp[p * NR..p * NR + NR];
        for (row, &off) in acc.iter_mut().zip(&at) {
            let av = a.a[off + p * a.cs];
            for (v, &b) in row.iter_mut().zip(brow) {
                *v += av * b;
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
unsafe fn kernel_avx2(a: ATile, bp: &[f32], c: *mut f32, stride: usize, kc: usize, init: bool) {
    use std::arch::x86_64::*;
    const MR: usize = 4;
    const NV: usize = 3; // 8-lane vectors per row
    const NR: usize = NV * 8;
    // SAFETY: every access in this block stays within the operand bounds
    // and the exclusively owned C tile of the caller contract; loads and
    // stores are unaligned-tolerant (`loadu`).
    unsafe {
        let mut acc = [[_mm256_setzero_ps(); NV]; MR];
        if !init {
            for (ii, row) in acc.iter_mut().enumerate() {
                for (v, vec) in row.iter_mut().enumerate() {
                    *vec = _mm256_loadu_ps(c.add(ii * stride + v * 8));
                }
            }
        }
        let rows_at = a.row_offsets::<MR>().map(|off| a.a.as_ptr().add(off));
        let b_ptr = bp.as_ptr();
        for p in 0..kc {
            let b0 = _mm256_loadu_ps(b_ptr.add(p * NR));
            let b1 = _mm256_loadu_ps(b_ptr.add(p * NR + 8));
            let b2 = _mm256_loadu_ps(b_ptr.add(p * NR + 16));
            let col = p * a.cs;
            for (row, at) in acc.iter_mut().zip(&rows_at) {
                let av = _mm256_broadcast_ss(&*at.add(col));
                row[0] = _mm256_add_ps(row[0], _mm256_mul_ps(av, b0));
                row[1] = _mm256_add_ps(row[1], _mm256_mul_ps(av, b1));
                row[2] = _mm256_add_ps(row[2], _mm256_mul_ps(av, b2));
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
unsafe fn kernel_avx512(a: ATile, bp: &[f32], c: *mut f32, stride: usize, kc: usize, init: bool) {
    use std::arch::x86_64::*;
    const MR: usize = 8;
    const NV: usize = 2; // 16-lane vectors per row
    const NR: usize = NV * 16;
    // SAFETY: every access in this block stays within the operand bounds
    // and the exclusively owned C tile of the caller contract; loads and
    // stores are unaligned-tolerant (`loadu`).
    unsafe {
        let mut acc = [[_mm512_setzero_ps(); NV]; MR];
        if !init {
            for (ii, row) in acc.iter_mut().enumerate() {
                for (v, vec) in row.iter_mut().enumerate() {
                    *vec = _mm512_loadu_ps(c.add(ii * stride + v * 16));
                }
            }
        }
        let rows_at = a.row_offsets::<MR>().map(|off| a.a.as_ptr().add(off));
        let b_ptr = bp.as_ptr();
        for p in 0..kc {
            let b0 = _mm512_loadu_ps(b_ptr.add(p * NR));
            let b1 = _mm512_loadu_ps(b_ptr.add(p * NR + 16));
            let col = p * a.cs;
            for (row, at) in acc.iter_mut().zip(&rows_at) {
                let av = _mm512_set1_ps(*at.add(col));
                row[0] = _mm512_add_ps(row[0], _mm512_mul_ps(av, b0));
                row[1] = _mm512_add_ps(row[1], _mm512_mul_ps(av, b1));
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
    // SAFETY: every access in this block is within the `src`, `gt` and
    // `acc` bounds of the caller contract.
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
    // SAFETY: every access in this block is within the `src`, `gt` and
    // `acc` bounds of the caller contract; every load and store is
    // unaligned-tolerant.
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

/// `dst[s·stride + i] = src[i·pitch + s]` for `i < 8` and `s < len`, rows
/// `i ≥ rows` as zeros: eight columns per in-register 8×8 transpose, the
/// last `len % 8` one at a time.
///
/// # Safety
/// `src` holds `(rows − 1)·pitch + len` elements when `rows > 0`, and `dst`
/// `(len − 1)·stride + 8`; requires AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn transpose8(
    src: *const f32,
    pitch: usize,
    len: usize,
    rows: usize,
    dst: *mut f32,
    stride: usize,
) {
    use std::arch::x86_64::*;
    // SAFETY: every access in this block is within the `src` and `dst`
    // bounds of the caller contract.
    unsafe {
        let mut s = 0;
        while s + 8 <= len {
            let r: [__m256; 8] = std::array::from_fn(|i| match i < rows {
                true => _mm256_loadu_ps(src.add(i * pitch + s)),
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
        for s in s..len {
            for i in 0..8 {
                let v = if i < rows {
                    *src.add(i * pitch + s)
                } else {
                    0.0
                };
                *dst.add(s * stride + i) = v;
            }
        }
    }
}

/// Pixel vectors in one direct-convolution register block at most.
const CONV_VECS_MAX: usize = 2;

/// One convolution's geometry, as the direct kernels read it: `[c, h, w]`
/// images, zero-padded to `[c, hp, wp]`, `k × k` kernels at stride `s`,
/// `[OC, oh, ow]` outputs.
pub(crate) struct ConvGeom {
    pub c: usize,
    pub k: usize,
    pub s: usize,
    pub pad: usize,
    pub h: usize,
    pub w: usize,
    pub hp: usize,
    pub wp: usize,
    pub oh: usize,
    pub ow: usize,
}

impl ConvGeom {
    /// Patch length `C·K·K`: the forward reduction dimension.
    pub fn ckk(&self) -> usize {
        self.c * self.k * self.k
    }

    /// Output pixels per image and channel.
    pub fn pixels(&self) -> usize {
        self.oh * self.ow
    }

    /// Elements of one padded image.
    pub fn image_len(&self) -> usize {
        self.c * self.hp * self.wp
    }
}

/// One pixel vector of the direct convolution kernels ([`conv_fwd_plane`],
/// [`conv_dx_plane`]): pixels `x .. x + live` of row `y`, output pixels in
/// forward and input pixels in the input gradient. `live` is at most the
/// tier's lanes; a spare vector of a short block has `live = 0` and reads
/// and stores nothing.
#[derive(Clone, Copy, Debug, Default)]
struct PixVec {
    y: usize,
    x: usize,
    live: usize,
}

/// Bits `0 .. n` set (`n` at most 16 lanes).
fn lane_mask(n: usize) -> u32 {
    (1u32 << n) - 1
}

/// The lanes of input-pixel vector `v` that tap `(ky, kx)` reaches, and
/// where each reads its output gradient. Pixel `(v.y, v.x + l)` takes the
/// tap from output pixel `(oy, ox) = ((v.y + pad − ky)/s, (v.x + l + pad −
/// kx)/s)` when both divisions are exact and the pixel lies inside
/// `oh × ow`: `mask` bit `l` is set for those live lanes, and lane `l`
/// reads gradient-plane element `at + col[l]`. At stride 1 `col[l] = l`
/// for every lane, so a contiguous load from `at` (which may lie before
/// the plane) places each masked lane's element; otherwise `at = oy·ow`
/// and `col[l] = ox`, a gather.
#[derive(Clone, Copy)]
struct TapLanes<const L: usize> {
    mask: u32,
    at: isize,
    col: [i32; L],
}

impl<const L: usize> TapLanes<L> {
    fn new(g: &ConvGeom, v: PixVec, ky: usize, kx: usize) -> Self {
        let mut t = TapLanes {
            mask: 0,
            at: 0,
            col: std::array::from_fn(|l| l as i32),
        };
        let exact = |a: usize, b: usize| match g.s {
            1 => a.checked_sub(b),
            s => a.checked_sub(b).filter(|d| d % s == 0).map(|d| d / s),
        };
        let Some(oy) = exact(v.y + g.pad, ky).filter(|&oy| oy < g.oh) else {
            return t;
        };
        let row = (oy * g.ow) as isize;
        if g.s == 1 {
            // `ox = c0 + l`: a run of lanes, no division per lane.
            let c0 = (v.x + g.pad) as isize - kx as isize;
            let live = v.live as isize;
            let lo = (-c0).clamp(0, live);
            let hi = (g.ow as isize - c0).clamp(lo, live);
            t.mask = lane_mask(hi as usize) & !lane_mask(lo as usize);
            t.at = row + c0;
        } else {
            t.at = row;
            for (l, col) in t.col.iter_mut().enumerate().take(v.live) {
                if let Some(ox) = exact(v.x + l + g.pad, kx).filter(|&ox| ox < g.ow) {
                    t.mask |= 1 << l;
                    *col = ox as i32;
                }
            }
        }
        t
    }
}

/// The taps `(ky, kx)` of a `k × k` kernel, `ky` then `kx` descending: for
/// an input pixel, `(oy, ox)` ascending (stride 1: `oy = iy + pad − ky`).
fn taps_descending(k: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..k)
        .rev()
        .flat_map(move |ky| (0..k).rev().map(move |kx| (ky, kx)))
}

/// Call `f` with the pixel vectors of a `rows × width` plane, `vecs` at a
/// time: row by row, each row cut into runs of `lanes` pixels with a
/// shorter one at its end; the last block's spare vectors have `live = 0`.
fn vector_blocks(rows: usize, width: usize, lanes: usize, vecs: usize, mut f: impl FnMut(&Block)) {
    let mut block = [PixVec::default(); CONV_VECS_MAX];
    let mut n = 0;
    for y in 0..rows {
        for x in (0..width).step_by(lanes) {
            let live = (width - x).min(lanes);
            block[n] = PixVec { y, x, live };
            n += 1;
            if n == vecs {
                f(&block);
                n = 0;
            }
        }
    }
    if n > 0 {
        block[n..].fill(PixVec::default());
        f(&block);
    }
}

/// The direct convolution forward of one image, **output pixels on the
/// lanes**: for each of the `oc` output channels, whose weight rows start
/// `w` (pitch `ckk = off.len()`), and each output pixel `(oy, ox)`,
/// `y[oc·P + oy·ow + ox] = Σ_p w[oc·ckk + p] · image[corner + off[p]]` with
/// `corner = oy·s·wp + ox·s` the pixel's patch corner in the zero-bordered
/// image, summed from `+0.0` over ascending `p`, each product rounded alone
/// (no FMA). Each block of the tier's channel rows ([`Isa::conv_block`]) is
/// cut into register blocks of those rows × pixel vectors; lanes load
/// straight from the image, contiguous at stride 1 and gathered otherwise.
/// A block row past the last channel re-reads the last weight row; it and
/// lanes past a row's end are never stored.
pub(crate) fn conv_fwd_plane(
    isa: Isa,
    g: &ConvGeom,
    image: &[f32],
    off: &[u32],
    w: &[f32],
    oc: usize,
    y: &mut [f32],
) {
    let (lanes, mr, nv) = isa.conv_block();
    let (ckk, pixels) = (off.len(), g.pixels());
    assert!(oc > 0 && ckk > 0 && pixels > 0);
    assert!(w.len() >= oc * ckk, "weight rows");
    let reach = off.iter().max().map_or(0, |&o| o as usize);
    let corner = (g.oh - 1) * g.s * g.wp + (g.ow - 1) * g.s;
    assert!(corner + reach < image.len(), "patch past the image");
    assert!(oc * pixels <= y.len(), "output past its planes");
    type Kernel = unsafe fn(&ConvGeom, *const f32, &[u32], *const f32, usize, &Block, *mut f32);
    let kernel: Kernel = match (isa, g.s == 1) {
        #[cfg(target_arch = "x86_64")]
        (Isa::Avx512, true) => fwd_zmm::<false>,
        #[cfg(target_arch = "x86_64")]
        (Isa::Avx512, false) => fwd_zmm::<true>,
        #[cfg(target_arch = "x86_64")]
        (Isa::Avx2, true) => fwd_ymm::<false>,
        #[cfg(target_arch = "x86_64")]
        (Isa::Avx2, false) => fwd_ymm::<true>,
        _ => fwd_scalar,
    };
    for oc0 in (0..oc).step_by(mr) {
        let rows = (oc - oc0).min(mr);
        let w = w[oc0 * ckk..].as_ptr();
        let y = y[oc0 * pixels..].as_mut_ptr();
        vector_blocks(g.oh, g.ow, lanes, nv, |block| {
            // SAFETY: every vector lies inside the `oh × ow` plane, so its
            // patches end at or before the last pixel's (asserted in bounds,
            // as are the weight rows and output planes of all `oc` channels);
            // the kernel's tier is hardware-supported (`hw_supported` at
            // tier selection).
            unsafe { kernel(g, image.as_ptr(), off, w, rows, block, y) }
        });
    }
}

/// A direct-convolution register block's pixel vectors; the kernels read
/// the first `V` (their block width), spare ones with `live = 0`.
type Block = [PixVec; CONV_VECS_MAX];

/// Portable forward block: 8 lanes × 4 rows, one vector at a time.
///
/// # Safety
/// See [`conv_fwd_plane`]: every live lane's patch, every live weight row
/// and every live output element are in bounds.
unsafe fn fwd_scalar(
    g: &ConvGeom,
    image: *const f32,
    off: &[u32],
    w: *const f32,
    rows: usize,
    vecs: &Block,
    y: *mut f32,
) {
    const L: usize = 8;
    const R: usize = 4;
    let ckk = off.len();
    for v in vecs.iter().filter(|v| v.live > 0) {
        let corner = v.y * g.s * g.wp + v.x * g.s;
        let mut acc = [[0.0f32; L]; R];
        for (p, &o) in off.iter().enumerate() {
            let mut x = [0.0f32; L];
            for (l, xl) in x.iter_mut().enumerate().take(v.live) {
                // SAFETY: a live lane's patch element (caller contract).
                *xl = unsafe { *image.add(corner + l * g.s + o as usize) };
            }
            for (r, row) in acc.iter_mut().enumerate() {
                // SAFETY: element `p` of a live weight row.
                let wv = unsafe { *w.add(r.min(rows - 1) * ckk + p) };
                for (a, &xl) in row.iter_mut().zip(&x) {
                    *a += wv * xl;
                }
            }
        }
        for (r, row) in acc.iter().enumerate().take(rows) {
            let at = r * g.pixels() + v.y * g.ow + v.x;
            // SAFETY: the live lanes of a live output row (caller contract).
            let dst = unsafe { std::slice::from_raw_parts_mut(y.add(at), v.live) };
            dst.copy_from_slice(&row[..v.live]);
        }
    }
}

/// AVX-512 forward block: 8 rows × 2 vectors of 16 lanes = 16 zmm
/// accumulators, the two pixel vectors and a broadcast. Masked loads and
/// stores cover a short row; `add(acc, mul(w, x))`, never `fmadd`.
///
/// # Safety
/// See [`fwd_scalar`]; additionally requires AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn fwd_zmm<const GATHER: bool>(
    g: &ConvGeom,
    image: *const f32,
    off: &[u32],
    w: *const f32,
    rows: usize,
    vecs: &Block,
    y: *mut f32,
) {
    use std::arch::x86_64::*;
    const R: usize = 8;
    const V: usize = 2;
    let ckk = off.len();
    let vecs = &vecs[..V];
    let masks: [__mmask16; V] = std::array::from_fn(|v| lane_mask(vecs[v].live) as __mmask16);
    let corners: [*const f32; V] =
        std::array::from_fn(|v| image.wrapping_add(vecs[v].y * g.s * g.wp + vecs[v].x * g.s));
    let lanes = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    let steps = _mm512_mullo_epi32(lanes, _mm512_set1_epi32(g.s as i32));
    let mut acc = [[_mm512_setzero_ps(); V]; R];
    for (p, &o) in off.iter().enumerate() {
        let x: [__m512; V] = std::array::from_fn(|v| {
            let at = corners[v].wrapping_add(o as usize);
            // SAFETY: the lanes in `masks[v]` read live patch elements
            // (caller contract); masked-off lanes are not accessed.
            unsafe {
                match GATHER {
                    true => _mm512_mask_i32gather_ps::<4>(_mm512_setzero_ps(), masks[v], steps, at),
                    false => _mm512_maskz_loadu_ps(masks[v], at),
                }
            }
        });
        for (r, row) in acc.iter_mut().enumerate() {
            // SAFETY: element `p` of a live weight row.
            let wv = _mm512_set1_ps(unsafe { *w.add(r.min(rows - 1) * ckk + p) });
            for (a, &xv) in row.iter_mut().zip(&x) {
                *a = _mm512_add_ps(*a, _mm512_mul_ps(wv, xv));
            }
        }
    }
    for (r, row) in acc.iter().enumerate().take(rows) {
        for ((a, v), &m) in row.iter().zip(vecs).zip(&masks) {
            let at = y.wrapping_add(r * g.pixels() + v.y * g.ow + v.x);
            // SAFETY: the masked lanes are the live outputs of a live row.
            unsafe { _mm512_mask_storeu_ps(at, m, *a) };
        }
    }
}

/// `bits` as an AVX2 lane mask: lane `l` all ones where bit `l` is set.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn ymm_mask(bits: u32) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;
    let sel = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    _mm256_cmpeq_epi32(_mm256_and_si256(_mm256_set1_epi32(bits as i32), sel), sel)
}

/// AVX2 forward block: 4 rows × 2 vectors of 8 lanes = 8 ymm accumulators,
/// two pixel vectors, their two masks and a broadcast.
///
/// # Safety
/// See [`fwd_scalar`]; additionally requires AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fwd_ymm<const GATHER: bool>(
    g: &ConvGeom,
    image: *const f32,
    off: &[u32],
    w: *const f32,
    rows: usize,
    vecs: &Block,
    y: *mut f32,
) {
    use std::arch::x86_64::*;
    const R: usize = 4;
    const V: usize = 2;
    let ckk = off.len();
    let vecs = &vecs[..V];
    let masks: [__m256i; V] = std::array::from_fn(|v| ymm_mask(lane_mask(vecs[v].live)));
    let corners: [*const f32; V] =
        std::array::from_fn(|v| image.wrapping_add(vecs[v].y * g.s * g.wp + vecs[v].x * g.s));
    let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let steps = _mm256_mullo_epi32(lanes, _mm256_set1_epi32(g.s as i32));
    let mut acc = [[_mm256_setzero_ps(); V]; R];
    for (p, &o) in off.iter().enumerate() {
        let x: [__m256; V] = std::array::from_fn(|v| {
            let at = corners[v].wrapping_add(o as usize);
            let m = masks[v];
            // SAFETY: the lanes in `m` read live patch elements (caller
            // contract); masked-off lanes are not accessed.
            unsafe {
                match GATHER {
                    true => {
                        let m = _mm256_castsi256_ps(m);
                        _mm256_mask_i32gather_ps::<4>(_mm256_setzero_ps(), at, steps, m)
                    }
                    false => _mm256_maskload_ps(at, m),
                }
            }
        });
        for (r, row) in acc.iter_mut().enumerate() {
            // SAFETY: element `p` of a live weight row.
            let wv = _mm256_set1_ps(unsafe { *w.add(r.min(rows - 1) * ckk + p) });
            for (a, &xv) in row.iter_mut().zip(&x) {
                *a = _mm256_add_ps(*a, _mm256_mul_ps(wv, xv));
            }
        }
    }
    for (r, row) in acc.iter().enumerate().take(rows) {
        for ((a, v), &m) in row.iter().zip(vecs).zip(&masks) {
            let at = y.wrapping_add(r * g.pixels() + v.y * g.ow + v.x);
            // SAFETY: the masked lanes are the live outputs of a live row.
            unsafe { _mm256_maskstore_ps(at, m, *a) };
        }
    }
}

/// The direct convolution input gradient of one image, **input pixels on
/// the lanes**. For each input channel `ch` — `wt` is `W[OC, CKK]`, `grad`
/// the image's `g[OC, OH·OW]` — and each input pixel `(iy, ix)`, tap by tap
/// in `(ky, kx)` *descending* order: `d = Σ_oc wt[oc·CKK + ch·k² + ky·k +
/// kx] · g[oc, oy, ox]` from `+0.0` over ascending `oc`, then `dx[ch·H·W +
/// iy·W + ix] += d` only where `(oy, ox)` exists ([`TapLanes`]). That is the
/// patch gradient `dpatches[(ch, ky, kx), (oy, ox)]` folded in ascending
/// `(oy, ox)`, neither stored. Register blocks as in [`conv_fwd_plane`];
/// `dx` accumulates in memory, and block rows past the last channel re-read
/// its weights and are never stored.
pub(crate) fn conv_dx_plane(
    isa: Isa,
    g: &ConvGeom,
    grad: &[f32],
    oc: usize,
    wt: &[f32],
    dx: &mut [f32],
) {
    let (lanes, mr, nv) = isa.conv_block();
    let (kk, plane) = (g.k * g.k, g.h * g.w);
    assert!(oc > 0 && g.c > 0);
    assert!(grad.len() >= oc * g.pixels(), "gradient planes");
    assert!(wt.len() >= oc * g.ckk(), "weight columns");
    assert!(g.c * plane <= dx.len(), "input gradient past its planes");
    type Kernel = unsafe fn(&ConvGeom, *const f32, usize, *const f32, usize, &Block, *mut f32);
    let kernel: Kernel = match (isa, g.s == 1) {
        #[cfg(target_arch = "x86_64")]
        (Isa::Avx512, true) => dx_zmm::<false>,
        #[cfg(target_arch = "x86_64")]
        (Isa::Avx512, false) => dx_zmm::<true>,
        #[cfg(target_arch = "x86_64")]
        (Isa::Avx2, true) => dx_ymm::<false>,
        #[cfg(target_arch = "x86_64")]
        (Isa::Avx2, false) => dx_ymm::<true>,
        _ => dx_scalar,
    };
    for ch0 in (0..g.c).step_by(mr) {
        let rows = (g.c - ch0).min(mr);
        let wt = wt[ch0 * kk..].as_ptr();
        let dx = dx[ch0 * plane..].as_mut_ptr();
        vector_blocks(g.h, g.w, lanes, nv, |block| {
            // SAFETY: every vector lies inside the `h × w` plane of the
            // `rows` planes of `dx` from `ch0`, the weight columns and
            // gradient planes are in bounds (asserted above), and `TapLanes`
            // masks in only the lanes whose output pixel exists; the
            // kernel's tier is hardware-supported (`hw_supported` at tier
            // selection).
            unsafe { kernel(g, grad.as_ptr(), oc, wt, rows, block, dx) }
        });
    }
}

/// Portable input-gradient block: 8 lanes × 4 rows, one vector at a time.
///
/// # Safety
/// See [`conv_dx_plane`]: every live lane and row of `dx`, the weight
/// columns of every live row and the `oc` gradient planes are in bounds.
unsafe fn dx_scalar(
    g: &ConvGeom,
    grad: *const f32,
    oc: usize,
    wt: *const f32,
    rows: usize,
    vecs: &Block,
    dx: *mut f32,
) {
    const L: usize = 8;
    const R: usize = 4;
    let (k, kk, ckk, plane) = (g.k, g.k * g.k, g.ckk(), g.h * g.w);
    for v in vecs.iter().filter(|v| v.live > 0) {
        for (ky, kx) in taps_descending(k) {
            let t = TapLanes::<L>::new(g, *v, ky, kx);
            if t.mask == 0 {
                continue;
            }
            let on = |l: usize| t.mask >> l & 1 == 1;
            let mut sum = [[0.0f32; L]; R];
            for o in 0..oc {
                let mut gv = [0.0f32; L];
                for (l, gl) in gv.iter_mut().enumerate().filter(|&(l, _)| on(l)) {
                    let at = (t.at + t.col[l] as isize) as usize;
                    // SAFETY: a masked lane's output pixel exists.
                    *gl = unsafe { *grad.add(o * g.pixels() + at) };
                }
                for (r, row) in sum.iter_mut().enumerate() {
                    let at = o * ckk + r.min(rows - 1) * kk + ky * k + kx;
                    // SAFETY: a weight of a live row.
                    let wv = unsafe { *wt.add(at) };
                    for (a, &gl) in row.iter_mut().zip(&gv) {
                        *a += wv * gl;
                    }
                }
            }
            for (r, row) in sum.iter().enumerate().take(rows) {
                let at = r * plane + v.y * g.w + v.x;
                // SAFETY: the live lanes of a live row (caller contract).
                let dst = unsafe { std::slice::from_raw_parts_mut(dx.add(at), v.live) };
                for (l, (d, &s)) in dst.iter_mut().zip(row).enumerate() {
                    if on(l) {
                        *d += s;
                    }
                }
            }
        }
    }
}

/// AVX-512 input-gradient block: 8 rows × 2 vectors of 16 lanes = 16 zmm
/// tap sums, the two gradient vectors and a broadcast; `dx` is loaded, added to under the tap's mask and stored once
/// per tap.
///
/// # Safety
/// See [`dx_scalar`]; additionally requires AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn dx_zmm<const GATHER: bool>(
    g: &ConvGeom,
    grad: *const f32,
    oc: usize,
    wt: *const f32,
    rows: usize,
    vecs: &Block,
    dx: *mut f32,
) {
    use std::arch::x86_64::*;
    const L: usize = 16;
    const R: usize = 8;
    const V: usize = 2;
    let (k, kk, ckk, plane) = (g.k, g.k * g.k, g.ckk(), g.h * g.w);
    let vecs = &vecs[..V];
    let live: [__mmask16; V] = std::array::from_fn(|v| lane_mask(vecs[v].live) as __mmask16);
    for (ky, kx) in taps_descending(k) {
        let taps: [TapLanes<L>; V] = std::array::from_fn(|v| TapLanes::new(g, vecs[v], ky, kx));
        if taps.iter().all(|t| t.mask == 0) {
            continue;
        }
        let masks = taps.map(|t| t.mask as __mmask16);
        // SAFETY: reads the 16 `i32` of an array.
        let cols = taps.map(|t| unsafe { _mm512_loadu_si512(t.col.as_ptr().cast()) });
        let mut sum = [[_mm512_setzero_ps(); V]; R];
        for o in 0..oc {
            let plane_at = grad.wrapping_add(o * g.pixels());
            let gv: [__m512; V] = std::array::from_fn(|v| {
                let at = plane_at.wrapping_offset(taps[v].at);
                // SAFETY: the lanes in `masks[v]` read existing output
                // pixels of plane `o`; masked-off lanes are not accessed.
                unsafe {
                    match GATHER {
                        true => _mm512_mask_i32gather_ps::<4>(
                            _mm512_setzero_ps(),
                            masks[v],
                            cols[v],
                            at,
                        ),
                        false => _mm512_maskz_loadu_ps(masks[v], at),
                    }
                }
            });
            for (r, row) in sum.iter_mut().enumerate() {
                let at = o * ckk + r.min(rows - 1) * kk + ky * k + kx;
                // SAFETY: a weight of a live row.
                let wv = _mm512_set1_ps(unsafe { *wt.add(at) });
                for (a, &gl) in row.iter_mut().zip(&gv) {
                    *a = _mm512_add_ps(*a, _mm512_mul_ps(wv, gl));
                }
            }
        }
        for (r, row) in sum.iter().enumerate().take(rows) {
            for (v, s) in row.iter().enumerate() {
                let at = dx.wrapping_add(r * plane + vecs[v].y * g.w + vecs[v].x);
                // SAFETY: the lanes in `live[v]` are live `dx` elements of a
                // live row (caller contract), and the tap's mask is a subset.
                unsafe {
                    let d = _mm512_maskz_loadu_ps(live[v], at);
                    let d = _mm512_mask_add_ps(d, masks[v], d, *s);
                    _mm512_mask_storeu_ps(at, live[v], d);
                }
            }
        }
    }
}

/// AVX2 input-gradient block: 4 rows × 2 vectors of 8 lanes = 8 ymm tap
/// sums, the two gradient vectors, their masks and a broadcast; the masked
/// add is a blend.
///
/// # Safety
/// See [`dx_scalar`]; additionally requires AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dx_ymm<const GATHER: bool>(
    g: &ConvGeom,
    grad: *const f32,
    oc: usize,
    wt: *const f32,
    rows: usize,
    vecs: &Block,
    dx: *mut f32,
) {
    use std::arch::x86_64::*;
    const L: usize = 8;
    const R: usize = 4;
    const V: usize = 2;
    let (k, kk, ckk, plane) = (g.k, g.k * g.k, g.ckk(), g.h * g.w);
    let vecs = &vecs[..V];
    let live: [__m256i; V] = std::array::from_fn(|v| ymm_mask(lane_mask(vecs[v].live)));
    for (ky, kx) in taps_descending(k) {
        let taps: [TapLanes<L>; V] = std::array::from_fn(|v| TapLanes::new(g, vecs[v], ky, kx));
        if taps.iter().all(|t| t.mask == 0) {
            continue;
        }
        let masks = taps.map(|t| ymm_mask(t.mask));
        // SAFETY: reads the 8 `i32` of an array.
        let cols = taps.map(|t| unsafe { _mm256_loadu_si256(t.col.as_ptr().cast()) });
        let mut sum = [[_mm256_setzero_ps(); V]; R];
        for o in 0..oc {
            let plane_at = grad.wrapping_add(o * g.pixels());
            let gv: [__m256; V] = std::array::from_fn(|v| {
                let at = plane_at.wrapping_offset(taps[v].at);
                let m = masks[v];
                // SAFETY: the lanes in `m` read existing output pixels of
                // plane `o`; masked-off lanes are not accessed.
                unsafe {
                    match GATHER {
                        true => {
                            let m = _mm256_castsi256_ps(m);
                            _mm256_mask_i32gather_ps::<4>(_mm256_setzero_ps(), at, cols[v], m)
                        }
                        false => _mm256_maskload_ps(at, m),
                    }
                }
            });
            for (r, row) in sum.iter_mut().enumerate() {
                let at = o * ckk + r.min(rows - 1) * kk + ky * k + kx;
                // SAFETY: a weight of a live row.
                let wv = _mm256_set1_ps(unsafe { *wt.add(at) });
                for (a, &gl) in row.iter_mut().zip(&gv) {
                    *a = _mm256_add_ps(*a, _mm256_mul_ps(wv, gl));
                }
            }
        }
        for (r, row) in sum.iter().enumerate().take(rows) {
            for (v, s) in row.iter().enumerate() {
                let at = dx.wrapping_add(r * plane + vecs[v].y * g.w + vecs[v].x);
                let taken = _mm256_castsi256_ps(masks[v]);
                // SAFETY: the lanes in `live[v]` are live `dx` elements of a
                // live row (caller contract), and the tap's mask is a subset.
                unsafe {
                    let d = _mm256_maskload_ps(at, live[v]);
                    let d = _mm256_blendv_ps(d, _mm256_add_ps(d, *s), taken);
                    _mm256_maskstore_ps(at, live[v], d);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run one staged tile against a hand-rolled reference for every
    /// supported tier, exercising both `init` modes, partial edges and both
    /// in-place A layouts, each A exactly as long as its live rows need.
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
                // Row-major A, then the Aᵀ view with a wider pitch.
                for (rs, cs) in [(kc, 1), (1, rows + 2)] {
                    let len = (rows - 1) * rs + (kc - 1) * cs + 1;
                    let a: Vec<f32> = (0..len).map(|i| (i % 11) as f32 * 0.25 - 1.0).collect();
                    let bp: Vec<f32> = (0..kc * nr).map(|i| (i % 7) as f32 * 0.5 - 1.5).collect();
                    let stride = nr + 3; // deliberately non-tile stride
                    let mut c: Vec<f32> = (0..mr * stride).map(|i| i as f32 * 0.1).collect();
                    let mut want = c.clone();
                    for ii in 0..rows {
                        for jj in 0..cols {
                            let mut s = if init { 0.0f32 } else { want[ii * stride + jj] };
                            for p in 0..kc {
                                s += a[ii * rs + p * cs] * bp[p * nr + jj];
                            }
                            want[ii * stride + jj] = s;
                        }
                    }
                    let tile = ATile {
                        a: &a,
                        rs,
                        cs,
                        rows,
                    };
                    let mut stage = StageTile::new();
                    let cp = c.as_mut_ptr();
                    run_tile(isa, tile, &bp, cp, stride, kc, cols, init, &mut stage);
                    for (i, (g, w)) in c.iter().zip(&want).enumerate() {
                        assert_eq!(
                            g.to_bits(),
                            w.to_bits(),
                            "{}: elem {i} {g} vs {w} (rows={rows} cols={cols} kc={kc} \
                             init={init} rs={rs} cs={cs})",
                            isa.name()
                        );
                    }
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
