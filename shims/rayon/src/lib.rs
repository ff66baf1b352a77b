//! Offline stand-in for `rayon`, covering the API subset the tensor
//! kernels use (`par_chunks_mut` / `par_chunks` / `into_par_iter`) on top of
//! a **real persistent thread pool**.
//!
//! The pool is a single shared injector queue (a `std::sync::mpsc` channel
//! whose one receiver the workers share behind a mutex) drained by
//! long-lived worker threads. Each parallel region publishes a
//! type-erased task closure plus an atomic task cursor; the calling thread
//! *participates* in its own region, and every participant self-schedules
//! task indices with `fetch_add` — dynamic load balancing with the same
//! effect as work stealing, without per-thread deques. Task index → data
//! mapping is fixed (chunk `i` of the output), so results are bit-identical
//! for any thread count, including 1.
//!
//! Pool size: `DTRAIN_THREADS` if set (≥ 1), else
//! `std::thread::available_parallelism()`. Read once at first use.
//!
//! **Oversubscription policy.** A pool configured wider than the host
//! (`DTRAIN_THREADS` > cores) exists so determinism sweeps and benches can
//! exercise real multi-thread scheduling on small CI machines. Ambient
//! regions — ones not inside an explicit [`with_max_threads`] scope — are
//! capped at [`host_parallelism`] so ordinary kernels never pay
//! oversubscription contention; explicit scopes bypass the cap (the sweep
//! asked for that width on purpose). `perf/` reports `host.parallelism` with every run, so
//! a scaling number taken on too narrow a host can be told apart.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// One parallel region: a borrowed task closure with its lifetime erased.
///
/// Safety protocol: the caller blocks until `pending` reaches zero. An index
/// `< total` can only be claimed while `pending > 0`, so `func` is never
/// dereferenced after the caller unblocks; late workers that still hold the
/// `Arc` only touch the atomics.
struct Region {
    func: *const (dyn Fn(usize) + Sync),
    next: AtomicUsize,
    total: usize,
    pending: AtomicUsize,
    panicked: AtomicBool,
    done: Mutex<bool>,
    cvar: Condvar,
}

// The raw closure pointer is only dereferenced under the protocol above;
// everything else in the struct is Sync.
unsafe impl Send for Region {}
unsafe impl Sync for Region {}

impl Region {
    /// Claim and run tasks until the cursor runs past `total`.
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.total {
                return;
            }
            let func = unsafe { &*self.func };
            if catch_unwind(AssertUnwindSafe(|| func(i))).is_err() {
                self.panicked.store(true, Ordering::Release);
            }
            if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                *self.done.lock().unwrap() = true;
                self.cvar.notify_all();
            }
        }
    }
}

struct Pool {
    injector: Sender<Arc<Region>>,
    /// Total participants per region at full width: spawned workers + caller.
    threads: usize,
}

static POOL: OnceLock<Pool> = OnceLock::new();

thread_local! {
    /// Scoped cap on region width (see [`with_max_threads`]). `usize::MAX`
    /// means "use the whole pool".
    static MAX_THREADS: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let threads = configured_threads();
        let (tx, rx) = mpsc::channel::<Arc<Region>>();
        let rx = Arc::new(Mutex::new(rx));
        for n in 0..threads.saturating_sub(1) {
            let rx = Arc::clone(&rx);
            std::thread::Builder::new()
                .name(format!("dtrain-pool-{n}"))
                .spawn(move || loop {
                    // One idle worker waits in `recv`; the lock is free
                    // again before it works.
                    let Ok(region) = rx.lock().unwrap().recv() else {
                        return;
                    };
                    region.work();
                })
                .expect("spawn pool worker");
        }
        Pool {
            injector: tx,
            threads,
        }
    })
}

/// Pool width from the environment: `DTRAIN_THREADS` (clamped to ≥ 1) if
/// set and parseable, else `available_parallelism`.
fn configured_threads() -> usize {
    match std::env::var("DTRAIN_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) => n.max(1),
            Err(_) => fallback_threads(),
        },
        Err(_) => fallback_threads(),
    }
}

fn fallback_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// What the hardware actually offers: `std::thread::available_parallelism()`
/// read once. Distinct from the pool width, which `DTRAIN_THREADS` may set
/// wider for width sweeps on small hosts.
pub fn host_parallelism() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Configured pool width (`DTRAIN_THREADS` / `available_parallelism`):
/// the widest an explicit [`with_max_threads`] scope can actually go.
pub fn pool_width() -> usize {
    pool().threads
}

/// Number of threads a parallel region may use right now: pool width capped
/// by any enclosing [`with_max_threads`] scope. Ambient regions (no scope)
/// are additionally capped at [`host_parallelism`] — an oversubscribed width
/// only slows real work down, so it must be asked for explicitly (width
/// sweeps do, via scopes).
pub fn current_num_threads() -> usize {
    let cap = MAX_THREADS.with(Cell::get);
    let width = pool().threads.min(cap);
    if cap == usize::MAX {
        width.min(host_parallelism()).max(1)
    } else {
        width.max(1)
    }
}

/// Run `f` with parallel regions limited to at most `k` participants
/// (including the calling thread). Limits only — it cannot grow the pool
/// past its startup width. Used by determinism tests to compare kernel
/// output across effective thread counts inside one process.
pub fn with_max_threads<R>(k: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            MAX_THREADS.with(|c| c.set(self.0));
        }
    }
    let prev = MAX_THREADS.with(|c| c.replace(k.max(1)));
    let _restore = Restore(prev);
    f()
}

/// Execute `func(0..tasks)` across the pool, blocking until every task has
/// completed. Tasks must be independent; the task→index mapping is the
/// caller's determinism contract.
pub fn parallel_for(tasks: usize, func: &(dyn Fn(usize) + Sync)) {
    if tasks == 0 {
        return;
    }
    let width = current_num_threads().min(tasks);
    if width <= 1 {
        for i in 0..tasks {
            func(i);
        }
        return;
    }
    let region = Arc::new(Region {
        // Erase the borrow: the region outlives this call only as dead
        // atomics (see the struct-level safety protocol).
        func: unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(
                func as *const _,
            )
        },
        next: AtomicUsize::new(0),
        total: tasks,
        pending: AtomicUsize::new(tasks),
        panicked: AtomicBool::new(false),
        done: Mutex::new(false),
        cvar: Condvar::new(),
    });
    let p = pool();
    for _ in 0..(width - 1) {
        // Send failure means no worker threads exist (width would be 1);
        // unreachable here, but fall back to inline execution regardless.
        if p.injector.send(Arc::clone(&region)).is_err() {
            break;
        }
    }
    region.work();
    let mut done = region.done.lock().unwrap();
    while !*done {
        done = region.cvar.wait(done).unwrap();
    }
    drop(done);
    if region.panicked.load(Ordering::Acquire) {
        panic!("a task in a dtrain parallel region panicked");
    }
}

/// Parallel slice adapters mirroring rayon's names. Each `for_each` executes
/// chunk `i` on whichever participant claims index `i`; chunk contents are
/// processed sequentially, so outputs are bit-identical across thread counts.
pub mod prelude {
    use super::parallel_for;

    pub struct ParChunksMut<'a, T> {
        data: &'a mut [T],
        chunk: usize,
    }

    pub struct EnumParChunksMut<'a, T>(ParChunksMut<'a, T>);

    impl<'a, T: Send> ParChunksMut<'a, T> {
        pub fn enumerate(self) -> EnumParChunksMut<'a, T> {
            EnumParChunksMut(self)
        }

        pub fn for_each<F>(self, f: F)
        where
            F: for<'b> Fn(&'b mut [T]) + Sync,
        {
            self.enumerate().for_each(|(_, c)| f(c));
        }
    }

    impl<'a, T: Send> EnumParChunksMut<'a, T> {
        pub fn for_each<F>(self, f: F)
        where
            F: for<'b> Fn((usize, &'b mut [T])) + Sync,
        {
            let len = self.0.data.len();
            let chunk = self.0.chunk;
            if len == 0 {
                return;
            }
            let tasks = len.div_ceil(chunk);
            let base = self.0.data.as_mut_ptr() as usize;
            let job = move |i: usize| {
                let start = i * chunk;
                let n = chunk.min(len - start);
                // Disjoint subslices of the borrowed slice: chunk i covers
                // [i*chunk, i*chunk + n) and indices are claimed exactly once.
                let part =
                    unsafe { std::slice::from_raw_parts_mut((base as *mut T).add(start), n) };
                f((i, part));
            };
            parallel_for(tasks, &job);
        }
    }

    pub struct ParChunks<'a, T> {
        data: &'a [T],
        chunk: usize,
    }

    pub struct EnumParChunks<'a, T>(ParChunks<'a, T>);

    impl<'a, T: Sync> ParChunks<'a, T> {
        pub fn enumerate(self) -> EnumParChunks<'a, T> {
            EnumParChunks(self)
        }

        pub fn for_each<F>(self, f: F)
        where
            F: for<'b> Fn(&'b [T]) + Sync,
        {
            self.enumerate().for_each(|(_, c)| f(c));
        }
    }

    impl<'a, T: Sync> EnumParChunks<'a, T> {
        pub fn for_each<F>(self, f: F)
        where
            F: for<'b> Fn((usize, &'b [T])) + Sync,
        {
            let data = self.0.data;
            let chunk = self.0.chunk;
            if data.is_empty() {
                return;
            }
            let tasks = data.len().div_ceil(chunk);
            let job = move |i: usize| {
                let start = i * chunk;
                let end = (start + chunk).min(data.len());
                f((i, &data[start..end]));
            };
            parallel_for(tasks, &job);
        }
    }

    pub trait ParallelSliceMut<T> {
        fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T>;
    }

    impl<T> ParallelSliceMut<T> for [T] {
        fn par_chunks_mut(&mut self, chunk_size: usize) -> ParChunksMut<'_, T> {
            assert!(chunk_size > 0, "chunk size must be positive");
            ParChunksMut {
                data: self,
                chunk: chunk_size,
            }
        }
    }

    pub trait ParallelSlice<T> {
        fn par_chunks(&self, chunk_size: usize) -> ParChunks<'_, T>;
    }

    impl<T> ParallelSlice<T> for [T] {
        fn par_chunks(&self, chunk_size: usize) -> ParChunks<'_, T> {
            assert!(chunk_size > 0, "chunk size must be positive");
            ParChunks {
                data: self,
                chunk: chunk_size,
            }
        }
    }

    /// Owned parallel iterator: items are buffered, then consumed by index.
    pub struct ParIter<T> {
        items: Vec<T>,
    }

    impl<T: Send> ParIter<T> {
        pub fn for_each<F>(self, f: F)
        where
            F: Fn(T) + Sync,
        {
            let mut items = self.items;
            let n = items.len();
            let base = items.as_mut_ptr() as usize;
            // Elements are moved out exactly once by index; clearing the
            // length first keeps `items`'s Drop from double-dropping them.
            unsafe { items.set_len(0) };
            let job = move |i: usize| {
                let v = unsafe { std::ptr::read((base as *mut T).add(i)) };
                f(v);
            };
            parallel_for(n, &job);
        }
    }

    pub trait IntoParallelIterator: IntoIterator + Sized
    where
        Self::Item: Send,
    {
        fn into_par_iter(self) -> ParIter<Self::Item> {
            ParIter {
                items: self.into_iter().collect(),
            }
        }
    }

    impl<I: IntoIterator> IntoParallelIterator for I where I::Item: Send {}
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn par_chunks_mut_covers_all_rows() {
        let mut v = vec![0u32; 12];
        v.par_chunks_mut(4).enumerate().for_each(|(i, chunk)| {
            for c in chunk {
                *c = i as u32;
            }
        });
        assert_eq!(v, [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]);
    }

    #[test]
    fn par_chunks_mut_ragged_tail() {
        let mut v = vec![0u32; 10];
        v.par_chunks_mut(4).enumerate().for_each(|(i, chunk)| {
            for c in chunk.iter_mut() {
                *c = i as u32 + 1;
            }
        });
        assert_eq!(v, [1, 1, 1, 1, 2, 2, 2, 2, 3, 3]);
    }

    #[test]
    fn par_chunks_shared_sums() {
        let v: Vec<u64> = (0..1000).collect();
        let total = AtomicUsize::new(0);
        v.par_chunks(64).for_each(|chunk| {
            let s: u64 = chunk.iter().sum();
            total.fetch_add(s as usize, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 999 * 1000 / 2);
    }

    #[test]
    fn into_par_iter_consumes_each_item_once() {
        let items: Vec<String> = (0..100).map(|i| i.to_string()).collect();
        let count = AtomicUsize::new(0);
        let sum = AtomicUsize::new(0);
        items.into_par_iter().for_each(|s| {
            count.fetch_add(1, Ordering::Relaxed);
            sum.fetch_add(s.parse::<usize>().unwrap(), Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 100);
        assert_eq!(sum.load(Ordering::Relaxed), 99 * 100 / 2);
    }

    #[test]
    fn with_max_threads_caps_width() {
        super::with_max_threads(1, || {
            assert_eq!(super::current_num_threads(), 1);
        });
        assert!(super::current_num_threads() >= 1);
    }

    #[test]
    fn ambient_width_never_oversubscribes_host() {
        assert!(super::current_num_threads() <= super::host_parallelism());
    }

    #[test]
    fn explicit_scope_bypasses_host_cap() {
        // An explicit width request is honored up to the pool width even
        // when it exceeds the host — sweeps rely on this.
        let pool_width = super::pool().threads;
        super::with_max_threads(pool_width, || {
            assert_eq!(super::current_num_threads(), pool_width);
        });
    }

    #[test]
    fn host_parallelism_is_positive_and_stable() {
        let h = super::host_parallelism();
        assert!(h >= 1);
        assert_eq!(h, super::host_parallelism());
    }

    #[test]
    fn large_region_many_small_tasks() {
        let mut v = vec![0u8; 10_000];
        v.par_chunks_mut(7).enumerate().for_each(|(_, chunk)| {
            for c in chunk {
                *c = c.wrapping_add(1);
            }
        });
        assert!(v.iter().all(|&b| b == 1));
    }
}
