//! A pooling arena for kernel and layer temporaries.
//!
//! Training iterates the same network over same-shaped batches, so every
//! temporary buffer (padded conv inputs, GEMM outputs, activation/gradient
//! tensors, batch-norm statistics) has a stable size from one step to the
//! next. [`Scratch`] keeps the backing `Vec`s of retired temporaries on a
//! free list and hands them back on the next request: after a warm-up
//! iteration, steady-state training steps perform **zero heap allocations**
//! in tensor temporaries.
//!
//! The arena is deliberately dumb — a best-fit free list, no size classes,
//! no thread-safety (each [`crate::Tensor`]-consuming owner, e.g. a
//! `Network`, owns its own arena). `grown()` counts requests the free list
//! could not serve from existing capacity; tests use it as the
//! allocation-counting hook required for the zero-alloc guarantee.
//!
//! A training step also feeds the arena buffers it never asked for: the
//! first layer recycles the caller's freshly gathered input batch. Nothing
//! takes such a buffer back at that size, so an arena that only ever parked
//! would hoard one batch per step. [`Scratch::trim`] marks the end of one
//! step of repeated work and frees every buffer that sat parked through the
//! whole step before it untaken: what stays parked is bounded by what one
//! step actually uses, and what it uses it keeps.
//!
//! Arenas come and go — one per `Network`, so one per simulated worker per
//! study cell — while the shapes they serve repeat. A dropped arena therefore
//! leaves its parked buffers in a thread-local **depot**, and an arena that
//! must grow looks there first: the next cell's networks pick up the last
//! cell's buffers instead of having the allocator trim them away and fault
//! them back in. A thread that builds its arenas once (a threaded or proc
//! worker) never finds anything in its depot and allocates exactly as before.
//! Which buffers reach the depot depends on the exact mix of requests, and a
//! size no later arena asks for would sit there for good, so the depot keeps
//! at most [`DEPOT_CAP`] buffers per element type and frees the oldest first.

use crate::tensor::Tensor;

/// Free-list cap: recycling beyond this many parked buffers drops the buffer
/// instead, so an arena nobody [`Scratch::trim`]s cannot grow memory without
/// bound when externally-allocated inputs are fed into it.
const MAX_PARKED: usize = 64;

/// Depot cap, buffers per element type: a hand-over past it frees the
/// buffers that have waited longest. Uncapped, `perf --workload sim_math`
/// piled up buffers no later cell's arenas took (334 of them, 107 MB, after
/// four seconds; 754 and 217 MB after twelve) and its peak RSS grew with
/// run length; at this cap it peaks at 62 MB after four seconds and after
/// twelve alike.
const DEPOT_CAP: usize = MAX_PARKED;

/// Buffers that outlived their arena, per thread (module docs), oldest
/// first.
#[derive(Default)]
struct Depot {
    f32_free: Vec<Vec<f32>>,
    u32_free: Vec<Vec<u32>>,
}

thread_local! {
    static DEPOT: std::cell::RefCell<Depot> = std::cell::RefCell::new(Depot::default());
}

/// The capacity a [`parked`] result already holds in the arena: that of the
/// arena's own largest buffer, which is too small for `len` and is regrown,
/// else nothing — a depot buffer fits as it is and is drawn whole.
fn held<T>(found: &Result<Vec<T>, Option<Vec<T>>>, len: usize) -> usize {
    match found {
        Err(Some(buf)) if buf.capacity() < len => buf.capacity(),
        _ => 0,
    }
}

/// A parked buffer for a `len` request. `Ok`: the tightest fit in `free`.
/// `Err`: nothing there fits, and this is what to grow (or use) instead — the
/// tightest fit in this thread's depot, else the largest buffer of `free`,
/// else nothing.
fn parked<T>(
    free: &mut FreeList<T>,
    depot: fn(&mut Depot) -> &mut Vec<Vec<T>>,
    len: usize,
) -> Result<Vec<T>, Option<Vec<T>>> {
    match tightest_fit(&free.bufs, len) {
        Some(i) => Ok(free.take(i)),
        None => Err({
            // `try_with`: an arena owned by another thread-local may be used
            // while this one is already destroyed at thread exit.
            DEPOT
                .try_with(|d| {
                    let mut d = d.borrow_mut();
                    let depot = depot(&mut d);
                    tightest_fit(depot, len).map(|i| depot.remove(i))
                })
                .ok()
                .flatten()
                .or_else(|| largest(&free.bufs).map(|i| free.take(i)))
        }),
    }
}

/// One arena's parked buffers of one element type. The first `idle` of
/// `bufs` have sat parked since the last [`Scratch::trim`] untaken; the rest
/// were parked after it. `drawn` is the capacity, in elements, the arena
/// took from the depot or the heap: a depot buffer or new allocation counts
/// whole, a parked buffer regrown in place only what the regrowth added.
struct FreeList<T> {
    bufs: Vec<Vec<T>>,
    idle: usize,
    drawn: usize,
}

impl<T> Default for FreeList<T> {
    fn default() -> Self {
        FreeList {
            bufs: Vec::new(),
            idle: 0,
            drawn: 0,
        }
    }
}

impl<T> FreeList<T> {
    /// Park `buf` unless the list is at [`MAX_PARKED`]. The list takes its
    /// full capacity at once, so parking never reallocates it later.
    fn park(&mut self, buf: Vec<T>) {
        if buf.capacity() > 0 && self.bufs.len() < MAX_PARKED {
            self.bufs.reserve_exact(MAX_PARKED - self.bufs.len());
            self.bufs.push(buf);
        }
    }

    /// Unpark `bufs[i]`, keeping the idle buffers first.
    fn take(&mut self, mut i: usize) -> Vec<T> {
        if i < self.idle {
            self.idle -= 1;
            self.bufs.swap(i, self.idle);
            i = self.idle;
        }
        self.bufs.swap_remove(i)
    }

    /// Free the idle buffers; every one still parked becomes idle.
    fn trim(&mut self) {
        self.bufs.drain(..self.idle);
        self.idle = self.bufs.len();
    }
}

/// Pooling arena for `f32` and `u32` scratch buffers.
#[derive(Default)]
pub struct Scratch {
    f32_free: FreeList<f32>,
    u32_free: FreeList<u32>,
    grown: usize,
    reused: usize,
}

impl Scratch {
    pub fn new() -> Self {
        Scratch::default()
    }

    /// Number of buffer requests the arena's own free list could not serve:
    /// it touched the heap, or took a buffer a dropped arena left in the
    /// depot. Stays flat across steady-state iterations — the zero-alloc
    /// test hook.
    pub fn grown(&self) -> usize {
        self.grown
    }

    /// Number of buffer requests served entirely from the free list.
    pub fn reused(&self) -> usize {
        self.reused
    }

    /// A `len`-sized buffer with unspecified contents. Allocation-free when
    /// a parked buffer with sufficient capacity exists.
    pub fn take_any(&mut self, len: usize) -> Vec<f32> {
        let found = parked(&mut self.f32_free, |d| &mut d.f32_free, len);
        let (grown, held) = (found.is_err(), held(&found, len));
        let buf = match self.count(found) {
            Some(mut buf) => {
                buf.truncate(len);
                if buf.len() < len {
                    buf.resize(len, 0.0);
                }
                buf
            }
            None => vec![0.0; len],
        };
        if grown {
            self.f32_free.drawn += buf.capacity() - held;
        }
        buf
    }

    /// Book a [`parked`] lookup as `reused` or `grown`.
    fn count<T>(&mut self, found: Result<Vec<T>, Option<Vec<T>>>) -> Option<Vec<T>> {
        match found {
            Ok(buf) => {
                self.reused += 1;
                Some(buf)
            }
            Err(buf) => {
                self.grown += 1;
                buf
            }
        }
    }

    /// A zero-filled `len`-sized buffer.
    pub fn take_zeroed(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.take_any(len);
        buf.fill(0.0);
        buf
    }

    /// Park a retired buffer for reuse.
    pub fn recycle(&mut self, buf: Vec<f32>) {
        self.f32_free.park(buf);
    }

    /// Park a retired tensor's backing buffer.
    pub fn recycle_tensor(&mut self, t: Tensor) {
        self.recycle(t.into_vec());
    }

    /// A tensor of the given shape with unspecified contents.
    pub fn tensor_any(&mut self, shape: &[usize]) -> Tensor {
        let len = shape.iter().product();
        Tensor::from_vec(shape, self.take_any(len))
    }

    /// A zero-filled tensor of the given shape.
    pub fn tensor_zeroed(&mut self, shape: &[usize]) -> Tensor {
        let len = shape.iter().product();
        Tensor::from_vec(shape, self.take_zeroed(len))
    }

    /// A `u32` buffer (max-pool argmax indices, ReLU masks), zero-filled.
    pub fn take_u32(&mut self, len: usize) -> Vec<u32> {
        let found = parked(&mut self.u32_free, |d| &mut d.u32_free, len);
        let (grown, held) = (found.is_err(), held(&found, len));
        let buf = match self.count(found) {
            Some(mut buf) => {
                buf.clear();
                buf.resize(len, 0);
                buf
            }
            None => vec![0; len],
        };
        if grown {
            self.u32_free.drawn += buf.capacity() - held;
        }
        buf
    }

    pub fn recycle_u32(&mut self, buf: Vec<u32>) {
        self.u32_free.park(buf);
    }

    /// End one step of repeated work (a training step): free every buffer
    /// that has sat parked, untaken, since the previous `trim`. A step that
    /// repeats takes back everything it parked, so this drops only what was
    /// fed in from outside or is no longer asked for (module docs).
    pub fn trim(&mut self) {
        self.f32_free.trim();
        self.u32_free.trim();
    }

    /// Parked buffer count (both pools) — introspection for tests.
    pub fn parked(&self) -> usize {
        self.f32_free.bufs.len() + self.u32_free.bufs.len()
    }
}

/// Leave the parked buffers to this thread's later arenas, largest first,
/// each that still fits the budget of the capacity this arena drew from
/// depot and heap (`drawn`): the capacity handed over is at most the
/// capacity drawn, so the depot holds no more than the peak working set its
/// arenas have reached; the rest is freed as before. A buffer recycled into
/// the arena from outside (the training loop feeds every input batch in, an
/// evaluation its whole test set) may go in place of the arena's own, but
/// never on top of them. Counted in buffers, the budget would let each
/// dropped evaluation network leave its input batch behind. Past
/// `DEPOT_CAP` (64), the depot's oldest buffers are freed.
impl Drop for Scratch {
    fn drop(&mut self) {
        if self.parked() == 0 {
            return;
        }
        fn hand_over<T>(free: &mut FreeList<T>, depot: &mut Vec<Vec<T>>) {
            let mut budget = free.drawn;
            free.bufs
                .sort_unstable_by_key(|buf| std::cmp::Reverse(buf.capacity()));
            for buf in free.bufs.drain(..) {
                if buf.capacity() <= budget {
                    budget -= buf.capacity();
                    depot.push(buf);
                }
            }
            depot.drain(..depot.len().saturating_sub(DEPOT_CAP));
        }
        let _ = DEPOT.try_with(|d| {
            let mut d = d.borrow_mut();
            hand_over(&mut self.f32_free, &mut d.f32_free);
            hand_over(&mut self.u32_free, &mut d.u32_free);
        });
    }
}

/// A grow-only `f32` buffer whose storage is 64-byte (cache-line) aligned.
///
/// The GEMM packing stage copies B panels into these so the SIMD
/// microkernels stream whole aligned cache lines; `Vec<f32>` only
/// guarantees 4-byte alignment. Capacity never shrinks — after the first
/// training step at a given shape, [`AlignedVec::ensure_len`] is
/// allocation-free, preserving the zero-alloc steady-state guarantee.
pub struct AlignedVec {
    ptr: std::ptr::NonNull<f32>,
    cap: usize,
    len: usize,
    grown: usize,
}

impl AlignedVec {
    /// Cache-line alignment of the backing storage.
    pub const ALIGN: usize = 64;

    pub fn new() -> Self {
        AlignedVec {
            ptr: std::ptr::NonNull::dangling(),
            cap: 0,
            len: 0,
            grown: 0,
        }
    }

    fn layout(cap: usize) -> std::alloc::Layout {
        std::alloc::Layout::from_size_align(cap * std::mem::size_of::<f32>(), Self::ALIGN)
            .expect("aligned buffer layout")
    }

    /// Resize to exactly `len` elements (contents unspecified) and return
    /// the buffer. Reallocates only when `len` exceeds the current
    /// capacity, rounding capacity up 25% to amortize ragged-shape growth.
    pub fn ensure_len(&mut self, len: usize) -> &mut [f32] {
        if len > self.cap {
            let new_cap = len.max(self.cap + self.cap / 4);
            // SAFETY: `new_cap > 0` (it is ≥ len > cap ≥ 0), so the layout
            // is non-zero-sized; an old block exists only when `cap > 0`
            // and was allocated with the matching layout.
            unsafe {
                let new_ptr = std::alloc::alloc(Self::layout(new_cap)) as *mut f32;
                let new_ptr = std::ptr::NonNull::new(new_ptr)
                    .unwrap_or_else(|| std::alloc::handle_alloc_error(Self::layout(new_cap)));
                if self.cap > 0 {
                    std::alloc::dealloc(self.ptr.as_ptr() as *mut u8, Self::layout(self.cap));
                }
                self.ptr = new_ptr;
            }
            self.cap = new_cap;
            self.grown += 1;
        }
        self.len = len;
        self.as_mut_slice()
    }

    /// Number of reallocations since construction — the zero-alloc test
    /// hook, mirroring [`Scratch::grown`].
    pub fn grown(&self) -> usize {
        self.grown
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn as_slice(&self) -> &[f32] {
        // SAFETY: `len ≤ cap` elements are allocated; when `cap == 0`,
        // `len == 0` and a dangling pointer is valid for empty slices.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }

    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        // SAFETY: as in `as_slice`, plus `&mut self` gives exclusivity.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.as_ptr(), self.len) }
    }
}

impl Default for AlignedVec {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for AlignedVec {
    fn drop(&mut self) {
        if self.cap > 0 {
            // SAFETY: the block was allocated with exactly this layout.
            unsafe { std::alloc::dealloc(self.ptr.as_ptr() as *mut u8, Self::layout(self.cap)) };
        }
    }
}

/// Aligned packing buffers for one GEMM invocation: `b` holds the packed B
/// panels of the current reduction chunk (A is read in place). The
/// convolution weight gradient keeps one image's packed `gᵀ` in `a` and its
/// `dWᵀ` accumulators in `b`.
#[derive(Default)]
pub(crate) struct PackBufs {
    pub a: AlignedVec,
    pub b: AlignedVec,
}

thread_local! {
    /// Per-thread pack arena. GEMM drivers borrow it for the duration of
    /// one call; buffers grow to the largest shape seen and then serve
    /// every later call allocation-free. Thread-local (rather than passed
    /// through `Scratch`) because pool workers and the main thread hit
    /// GEMM through many call paths that don't thread a scratch handle.
    ///
    /// Every simulated worker of a `desim` run executes on the one thread
    /// inside `Simulation::run`, so they all share this arena (and
    /// [`DEPOT`]). That is sound only because no borrow outlives a single
    /// kernel call: nothing may hold it across `Ctx::advance` / `recv`,
    /// where another worker continues on the same thread.
    static PACK_BUFS: std::cell::RefCell<PackBufs> = std::cell::RefCell::new(PackBufs::default());
}

/// Borrow this thread's packing buffers. Panics on re-entrant borrow —
/// GEMM drivers never nest.
pub(crate) fn with_pack_bufs<R>(f: impl FnOnce(&mut PackBufs) -> R) -> R {
    PACK_BUFS.with(|b| f(&mut b.borrow_mut()))
}

/// The parked buffer whose capacity fits `len` most tightly, if one fits.
/// Linear scan — the lists are small by construction.
fn tightest_fit<T>(free: &[Vec<T>], len: usize) -> Option<usize> {
    let mut fit: Option<(usize, usize)> = None; // (index, capacity)
    for (i, buf) in free.iter().enumerate() {
        let cap = buf.capacity();
        if cap >= len && fit.is_none_or(|(_, c)| cap < c) {
            fit = Some((i, cap));
        }
    }
    fit.map(|(i, _)| i)
}

/// The largest parked buffer (the last of equals): when nothing fits,
/// growing a single buffer converges faster than growing many.
fn largest<T>(free: &[Vec<T>]) -> Option<usize> {
    let (i, _) = free.iter().enumerate().max_by_key(|(_, b)| b.capacity())?;
    Some(i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_reuses_capacity() {
        let mut s = Scratch::new();
        let a = s.take_zeroed(100);
        assert_eq!(s.grown(), 1);
        let ptr = a.as_ptr();
        s.recycle(a);
        let b = s.take_any(80);
        assert_eq!(b.len(), 80);
        assert_eq!(b.as_ptr(), ptr, "must reuse the parked buffer");
        assert_eq!(s.grown(), 1);
        assert_eq!(s.reused(), 1);
    }

    #[test]
    fn best_fit_prefers_tightest_buffer() {
        let mut s = Scratch::new();
        let big = s.take_zeroed(1000);
        let small = s.take_zeroed(10);
        let small_ptr = small.as_ptr();
        s.recycle(big);
        s.recycle(small);
        let got = s.take_any(8);
        assert_eq!(got.as_ptr(), small_ptr);
    }

    #[test]
    fn grows_largest_when_nothing_fits() {
        let mut s = Scratch::new();
        let a = s.take_zeroed(100);
        s.recycle(a);
        let b = s.take_any(200); // reuses the 100-cap buffer, grown
        assert_eq!(b.len(), 200);
        assert_eq!(s.parked(), 0, "the parked buffer was consumed");
    }

    #[test]
    fn tensor_round_trip() {
        let mut s = Scratch::new();
        let t = s.tensor_zeroed(&[4, 5]);
        assert_eq!(t.shape(), &[4, 5]);
        assert_eq!(t.sum(), 0.0);
        s.recycle_tensor(t);
        let u = s.tensor_any(&[2, 10]);
        assert_eq!(u.len(), 20);
        assert_eq!(s.grown(), 1);
    }

    #[test]
    fn free_list_is_bounded() {
        let mut s = Scratch::new();
        for _ in 0..(MAX_PARKED + 20) {
            s.recycle(vec![0.0; 8]);
        }
        assert_eq!(s.parked(), MAX_PARKED);
    }

    #[test]
    fn trim_frees_what_a_step_left_untaken_and_keeps_the_rest() {
        let mut s = Scratch::new();
        let work = s.take_any(100);
        let work_ptr = work.as_ptr();
        s.recycle(work);
        s.recycle(vec![0.0; 50]); // fed in from outside, like an input batch
        s.trim();
        assert_eq!(s.parked(), 2, "both were parked during the step");
        for step in 0..3 {
            let work = s.take_any(100);
            assert_eq!(work.as_ptr(), work_ptr, "step {step} reuses its buffer");
            s.recycle(work);
            s.recycle(vec![0.0; 50]);
            s.trim();
            assert_eq!(s.parked(), 2, "one batch freed per step, one kept");
        }
        assert_eq!((s.grown(), s.reused()), (1, 3));
    }

    #[test]
    fn zeroed_take_really_zeroes() {
        let mut s = Scratch::new();
        s.recycle(vec![7.0; 32]);
        let z = s.take_zeroed(16);
        assert!(z.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn a_dropped_arena_leaves_its_buffers_to_the_next_one_on_the_thread() {
        let mut first = Scratch::new();
        let buf = first.take_zeroed(1000);
        let ptr = buf.as_ptr();
        first.recycle(buf);
        drop(first);
        let mut second = Scratch::new();
        let got = second.take_any(900);
        assert_eq!(got.as_ptr(), ptr, "served from the depot");
        assert_eq!(
            (second.grown(), second.reused()),
            (1, 0),
            "a depot hit is a request the arena's own list could not serve"
        );
        // The depot gave it away: a third arena allocates.
        let other = Scratch::new().take_any(900);
        assert_ne!(other.as_ptr(), ptr);
        // Back in `second`'s own list it is an ordinary reuse.
        second.recycle(got);
        let again = second.take_any(1000);
        assert_eq!(again.as_ptr(), ptr);
        assert_eq!((second.grown(), second.reused()), (1, 1));
    }

    #[test]
    fn buffers_from_the_depot_are_zeroed_on_request() {
        let mut first = Scratch::new();
        let mut f = first.take_any(64);
        f.fill(7.0);
        first.recycle(f);
        let mut u = first.take_u32(64);
        u.fill(9);
        first.recycle_u32(u);
        drop(first);
        let mut second = Scratch::new();
        assert!(second.take_zeroed(48).iter().all(|&v| v == 0.0));
        assert!(second.take_u32(48).iter().all(|&v| v == 0));
        assert_eq!(second.grown(), 2);
    }

    #[test]
    fn an_arena_passes_on_no_more_buffers_than_it_drew() {
        let mut first = Scratch::new();
        let own = first.take_any(4096);
        let own_ptr = own.as_ptr();
        first.recycle(own);
        for _ in 0..10 {
            first.recycle(vec![0.0; 16]); // fed in from outside, like input batches
        }
        first.recycle(vec![0.0; 8192]); // larger than anything it drew
        assert_eq!((first.grown(), first.parked()), (1, 12));
        drop(first);
        let mut second = Scratch::new();
        let kept = second.take_any(8);
        assert_eq!(kept.as_ptr(), own_ptr, "the largest one");
        let mut third = Scratch::new();
        let fresh = third.take_any(8);
        assert!(
            fresh.capacity() < 16,
            "nothing else was kept: {}",
            fresh.capacity()
        );

        // A parked buffer regrown in place adds only its growth to the budget.
        let mut fourth = Scratch::new();
        let small = fourth.take_any(1000);
        fourth.recycle(small);
        let big = fourth.take_any(3000);
        let (big_ptr, big_cap) = (big.as_ptr(), big.capacity());
        fourth.recycle(big);
        fourth.recycle(vec![0.0; 1000]); // fed in from outside
        assert_eq!((fourth.grown(), fourth.parked()), (2, 2));
        drop(fourth);
        let mut fifth = Scratch::new();
        let regrown = fifth.take_any(big_cap);
        assert_eq!(regrown.as_ptr(), big_ptr, "the regrown one");
        let fresh = fifth.take_any(8);
        assert!(
            fresh.capacity() < 1000,
            "the outside buffer was not kept: {}",
            fresh.capacity()
        );
    }

    #[test]
    fn the_depot_keeps_its_newest_buffers_up_to_the_cap() {
        // Ascending sizes: no arena finds a depot buffer that fits, so each
        // one hands a new size over.
        let sizes: Vec<usize> = (0..DEPOT_CAP + 10).map(|i| 100 + i).collect();
        for &len in &sizes {
            let mut arena = Scratch::new();
            let buf = arena.take_any(len);
            arena.recycle(buf);
        }
        let held = DEPOT.with(|d| d.borrow().f32_free.len());
        assert_eq!(held, DEPOT_CAP);
        // The ten oldest went: the tightest fit for the smallest size is
        // the eleventh.
        let got = Scratch::new().take_any(sizes[0]);
        assert_eq!(got.capacity(), sizes[10]);
    }

    #[test]
    fn the_depot_is_per_thread() {
        let mut first = Scratch::new();
        let buf = first.take_any(512);
        let ptr = buf.as_ptr() as usize;
        first.recycle(buf);
        drop(first);
        let elsewhere = std::thread::spawn(|| {
            let mut arena = Scratch::new();
            let buf = arena.take_any(512);
            (buf.as_ptr() as usize, arena.grown())
        });
        let (elsewhere, grown) = elsewhere.join().expect("thread");
        assert_ne!(elsewhere, ptr, "another thread starts with an empty depot");
        assert_eq!(grown, 1);
        let here = Scratch::new().take_any(512);
        assert_eq!(here.as_ptr() as usize, ptr);
    }

    #[test]
    fn aligned_vec_alignment_and_growth() {
        let mut v = AlignedVec::new();
        assert!(v.is_empty());
        let s = v.ensure_len(100);
        assert_eq!(s.len(), 100);
        assert_eq!(s.as_ptr() as usize % AlignedVec::ALIGN, 0);
        s.fill(1.0);
        assert_eq!(v.grown(), 1);
        // Shrinking and re-growing within capacity must not reallocate.
        let ptr = v.as_slice().as_ptr();
        v.ensure_len(10);
        v.ensure_len(100);
        assert_eq!(v.grown(), 1);
        assert_eq!(v.as_slice().as_ptr(), ptr);
        // Growing past capacity reallocates, still aligned.
        let s = v.ensure_len(1000);
        assert_eq!(s.as_ptr() as usize % AlignedVec::ALIGN, 0);
        assert_eq!(v.grown(), 2);
        assert_eq!(v.len(), 1000);
    }

    #[test]
    fn pack_bufs_are_reused_per_thread() {
        let first = with_pack_bufs(|p| {
            p.a.ensure_len(64);
            p.a.as_slice().as_ptr() as usize
        });
        let (second, grown) = with_pack_bufs(|p| {
            p.a.ensure_len(32);
            (p.a.as_slice().as_ptr() as usize, p.a.grown())
        });
        assert_eq!(first, second, "thread-local buffer must be reused");
        assert_eq!(grown, 1);
    }

    #[test]
    fn u32_round_trip() {
        let mut s = Scratch::new();
        let a = s.take_u32(10);
        let ptr = a.as_ptr();
        s.recycle_u32(a);
        let b = s.take_u32(6);
        assert_eq!(b.as_ptr(), ptr);
        assert!(b.iter().all(|&v| v == 0));
    }
}
