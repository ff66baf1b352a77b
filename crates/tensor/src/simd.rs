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
//! ([`run_tile`]), so the kernels themselves always see a full MR×NR tile.

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

impl Isa {
    /// `(MR, NR)`: rows and columns of the register-blocked output tile.
    pub fn geometry(self) -> (usize, usize) {
        match self {
            Isa::Avx512 => (8, 32),
            Isa::Avx2 => (4, 24),
            Isa::Scalar => (4, 16),
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
            Isa::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
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
pub(crate) use widened;

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
