//! User-space contexts: what a simulated process runs on where this crate
//! has a stack switch for the target (x86-64 Linux; `lib.rs` picks this file
//! or `parked.rs` by target `cfg` alone). A [`Fiber`] is a stack of its own
//! plus a saved stack pointer; [`Fiber::switch`] suspends the fiber that is
//! executing and continues another **on the same OS thread** — a dozen
//! instructions, no system call, nothing for the host scheduler to do.
//!
//! Every `unsafe` block of the crate is in this file. `kernel.rs` is safe
//! code on top of three operations — [`Fiber::spawn`], [`Fiber::switch`],
//! [`Fiber::stop`] — and each of them checks what safe code could get wrong
//! (see *What safe callers cannot break*).
//!
//! ## Safety of the switch
//!
//! **What is saved, and why that set.** `switch_stacks` is entered by an
//! ordinary `extern "C"` call, so at that point the compiler has already
//! spilled everything the System V ABI lets a callee clobber. What is left
//! to preserve is exactly the callee-saved set: `rbx`, `rbp`, `r12`–`r15`,
//! pushed on the outgoing stack, and `rsp`, stored in the outgoing fiber.
//! The resumed side pops the same six and returns into *its* pending call
//! of `switch_stacks`. The MXCSR and x87 control words are callee-saved too
//! and are deliberately **not** switched: Rust code runs under the default
//! floating-point environment everywhere (changing it is undefined
//! behaviour for the surrounding Rust code, `core::arch` docs), all fibers
//! of a run share one thread, and a fresh fiber therefore starts with the
//! same control words every other one has — there is no second value to
//! restore. The direction flag is clear at every call boundary by the ABI.
//! Thread-local storage is not switched either, on purpose: bodies see the
//! thread-locals of the thread inside `Simulation::run`.
//!
//! **Initial stack layout.** A fresh stack is laid out as if its fiber had
//! once called `switch_stacks` from a function whose caller is address 0
//! (`top` is the 16-aligned end of the mapping, memory is zero from `mmap`):
//!
//! ```text
//! top -  8   0                 "return address" of the trampoline: ends
//!                              every backtrace and unwind search here
//! top - 16   trampoline        popped by the first switch's `ret`
//! top - 64 … top - 24   0      r15 r14 r13 r12 rbx rbp, popped before it
//! saved rsp = top - 64
//! ```
//!
//! After the six pops and the `ret`, `rsp = top - 8 ≡ 8 (mod 16)`: what the
//! ABI promises a function on entry. The trampoline learns which fiber it
//! is from the switch's **third argument**, which `switch_stacks` leaves
//! untouched in `rdx` — on *every* switch, because any of them can be a
//! first entry, including the last switch of a fiber that is exiting. There
//! is no "current fiber" global.
//!
//! **Why no panic crosses a fiber's base frame.** The kernel's entry
//! closure runs the body under `catch_unwind`, so both a body's panic and
//! the shutdown token stop there, on the stack they were raised on; the
//! unwinder's search phase finds that handler before it ever reaches the
//! trampoline. The trampoline itself is `extern "C"`, so a panic out of the
//! little code around the entry (a failed internal `expect`) aborts the
//! process instead of unwinding into the zero return address.
//!
//! **A fiber cannot free the stack it stands on.** A finishing fiber makes
//! one last switch and never comes back; its stack is unmapped later, from
//! another stack, by [`Fiber::stop`] (the kernel calls it for every process
//! at reap and at teardown) or when the last `Arc<Fiber>` goes. Nothing
//! with a destructor is alive on the dying stack at that switch: the
//! successor's `Arc` is parked in the fiber (`next`), not in a local.
//!
//! **What a stack overflow looks like.** The lowest page of every stack is
//! `PROT_NONE`, and rustc's stack probes touch each page of a large frame in
//! order, so a body that overruns its 2 MiB faults on the guard page. The
//! process dies of a plain `SIGSEGV`: std's "thread … has overflowed its
//! stack" message is printed only for the guard range of the *thread's* own
//! stack, which this is not.
//!
//! ## What safe callers cannot break
//!
//! * `switch` and `stop` refuse a target that is not suspended (`sp` is
//!   `RUNNING` or `DONE`): no jump to a stale or live stack pointer.
//! * `switch` refuses a caller that is not executing on `self`'s own stack
//!   — a `Ctx` smuggled to another process or another OS thread panics
//!   instead of saving the wrong stack into the wrong fiber.
//! * Dropping the last handle of a fiber that is executing aborts instead
//!   of unmapping the ground under it. Dropping a *suspended* fiber without
//!   `stop` is safe but leaks whatever its frames own, like `mem::forget`.

#![deny(unsafe_op_in_unsafe_fn)]

use std::cell::{Cell, RefCell};
use std::ffi::{c_int, c_void};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Weak};

use crate::kernel::Go;

/// Usable stack per simulated process: what `std::thread` gave a body when
/// processes were threads. A constant, not a knob.
const STACK_SIZE: usize = 2 << 20;
/// x86-64 Linux has no other base page size.
const PAGE: usize = 4096;

/// `Fiber::sp` while the fiber can never run (again).
const DONE: usize = 0;
/// `Fiber::sp` while the fiber is executing; any other value is the stack
/// pointer it was suspended at.
const RUNNING: usize = 1;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: c_int) -> c_int;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
}
const PROT_NONE: c_int = 0;
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_PRIVATE: c_int = 0x02;
const MAP_ANONYMOUS: c_int = 0x20;
const MAP_NORESERVE: c_int = 0x4000;
const MAP_STACK: c_int = 0x2_0000;

#[cfg(test)]
thread_local! {
    /// Stacks mapped and not yet unmapped by this thread (a fiber's stack
    /// is mapped by `spawn` and released by `stop`, both on the thread that
    /// owns the simulation, so one test's count is not another's).
    pub(crate) static LIVE_STACKS: Cell<usize> = const { Cell::new(0) };
}

/// One fiber's stack: `PAGE` of guard below `STACK_SIZE` of zeroed,
/// lazily committed memory. Unmapped by `release` or on drop.
struct Stack {
    /// Start of the mapping (the guard page); null once released.
    base: Cell<*mut u8>,
}

impl Stack {
    fn new() -> Stack {
        // SAFETY: an anonymous private mapping at an address of the
        // kernel's choosing aliases nothing. `MAP_NORESERVE`: ten thousand
        // mostly untouched stacks must not count against overcommit;
        // `MAP_STACK` also keeps transparent huge pages off them.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                PAGE + STACK_SIZE,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            )
        };
        assert!(
            !base.is_null() && base as isize != -1,
            "desim: cannot map a process stack: {}",
            std::io::Error::last_os_error()
        );
        let stack = Stack {
            base: Cell::new(base.cast()),
        };
        // SAFETY: the first page of the mapping just made; nothing is
        // stored there.
        let rc = unsafe { mprotect(base, PAGE, PROT_NONE) };
        assert!(
            rc == 0,
            "desim: cannot protect a stack guard page: {}",
            std::io::Error::last_os_error()
        );
        #[cfg(test)]
        LIVE_STACKS.with(|n| n.set(n.get() + 1));
        stack
    }

    /// One past the highest usable byte; 16-aligned because the mapping is
    /// page-aligned and its length a multiple of the page size.
    fn top(&self) -> usize {
        self.base.get() as usize + PAGE + STACK_SIZE
    }

    fn contains(&self, addr: usize) -> bool {
        let base = self.base.get() as usize;
        base != 0 && (base..base + PAGE + STACK_SIZE).contains(&addr)
    }

    fn release(&self) {
        let base = self.base.replace(std::ptr::null_mut());
        if base.is_null() {
            return;
        }
        // SAFETY: exactly the mapping `new` made, unmapped once (`base` is
        // null from here on). The callers — `Fiber::stop` and `Fiber`'s
        // drop — have established that no fiber is executing on it and
        // that none can be resumed onto it.
        unsafe { munmap(base.cast(), PAGE + STACK_SIZE) };
        #[cfg(test)]
        LIVE_STACKS.with(|n| n.set(n.get() - 1));
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        self.release();
    }
}

/// A fiber's body as the kernel hands it over: called once, on the fiber's
/// own stack, with the fiber's handle; returns the fiber to continue when
/// it is done, or `None` to go back to whoever stopped it.
type Entry = Box<dyn FnOnce(Arc<Fiber>) -> Option<Arc<Fiber>> + Send>;

/// An execution context the kernel can suspend and resume: one simulated
/// process, or the code that called `Simulation::run`.
pub(crate) struct Fiber {
    /// `DONE`, `RUNNING`, or the saved stack pointer of a suspended fiber.
    /// Atomic only so that the misuse check in `switch` may read it from a
    /// foreign thread; there is never a concurrent writer.
    sp: AtomicUsize,
    /// What the resume in progress tells this fiber.
    go: Cell<Option<Go>>,
    /// The body, until the first resume (or `stop`) takes it.
    entry: Cell<Option<Entry>>,
    /// `None` for [`Fiber::caller`], which stands on its thread's stack.
    stack: Option<Stack>,
    /// Whom a finishing fiber switches to, kept off its dying stack.
    next: RefCell<Option<Arc<Fiber>>>,
    me: Weak<Fiber>,
}

// SAFETY: a `Fiber` is shared (`Arc`, inside the kernel's mutex and every
// `Ctx`) but not used concurrently. Moving one between threads while it is
// not executing is fine: a stack is memory, a fresh `Entry` is `Send`, and
// `next` is another `Fiber`. Every `&self` method that writes a field first
// proves that its caller is the one thread executing this run: `switch`
// asserts that the caller stands on `self`'s stack (only the thread that
// switched onto that stack can), or that `self` is a stack-less `caller()`
// fiber, which never leaves the `Simulation` that `run`/`drop` own; `stop`
// asserts the same of `from` before it touches `self`. The one field a
// foreign thread may read in that check, `sp`, is atomic.
unsafe impl Send for Fiber {}
// SAFETY: see `Send`.
unsafe impl Sync for Fiber {}

impl Fiber {
    fn new(sp: usize, entry: Option<Entry>, stack: Option<Stack>) -> Arc<Fiber> {
        Arc::new_cyclic(|me| Fiber {
            sp: AtomicUsize::new(sp),
            go: Cell::new(None),
            entry: Cell::new(entry),
            stack,
            next: RefCell::new(None),
            me: me.clone(),
        })
    }

    /// The fiber of code that already runs on a thread's own stack: what
    /// `Simulation::run` suspends while processes execute.
    pub(crate) fn caller() -> Arc<Fiber> {
        Fiber::new(RUNNING, None, None)
    }

    /// A suspended fiber that has not started: its first resume calls
    /// `entry` on a fresh stack. (`_name` names the thread on targets where
    /// a process is one.)
    pub(crate) fn spawn(
        _name: &str,
        entry: impl FnOnce(Arc<Fiber>) -> Option<Arc<Fiber>> + Send + 'static,
    ) -> Arc<Fiber> {
        let stack = Stack::new();
        let top = stack.top();
        // SAFETY: `top - 16` is an aligned word inside the writable part of
        // the mapping just made, which nothing else refers to yet. The rest
        // of the initial frame (module docs) is the zeroes `mmap` gave us.
        unsafe { ((top - 16) as *mut usize).write(trampoline as *const () as usize) };
        Fiber::new(top - 64, Some(Box::new(entry)), Some(stack))
    }

    /// Whether the calling code executes as this fiber.
    fn is_current(&self) -> bool {
        let probe = 0u8;
        let here = std::ptr::addr_of!(probe) as usize;
        self.sp.load(Relaxed) == RUNNING && self.stack.as_ref().is_none_or(|s| s.contains(here))
    }

    /// Mark `self` as the next fiber to execute and take its stack pointer.
    fn resume_with(&self, go: Go) -> usize {
        let sp = self.sp.load(Relaxed);
        assert!(sp > RUNNING, "desim: resumed a fiber that is not suspended");
        self.sp.store(RUNNING, Relaxed);
        self.go.set(Some(go));
        sp
    }

    /// Suspend `self` — the fiber the caller is executing as — and resume
    /// `to` with `go`. Returns what `self` is told when it is next resumed.
    pub(crate) fn switch(&self, to: &Fiber, go: Go) -> Go {
        assert!(
            self.is_current(),
            "desim: a process was driven from outside its own context"
        );
        let sp = to.resume_with(go);
        // SAFETY: `self` is the executing fiber (checked), so the stack
        // pointer saved into `self.sp` is the one `self` must later be
        // resumed at, and the write through `as_ptr` races with nothing:
        // only this thread runs this simulation. `sp` is where `to` was
        // suspended — by this same function, or the initial frame `spawn`
        // built — and `resume_with` has just made sure nobody else can
        // resume it there a second time. `to`'s stack is mapped: `stop`
        // and drop release it only once `sp` is `DONE`. `to` points into an
        // `Arc` (the only constructor) that outlives the call, as a first
        // entry requires of its third argument.
        unsafe { switch_stacks(self.sp.as_ptr(), sp, to) };
        self.go.take().expect("a fiber is always resumed with a Go")
    }

    /// Make sure this fiber never executes again and release its stack.
    /// One that has started is resumed with [`Go::Stop`] — its body unwinds,
    /// destructors run, and control comes back to `from`, the executing
    /// fiber; one that has not simply has its entry dropped, unrun; one
    /// that already finished only gives its stack back. A fiber that parks
    /// again instead of unwinding is abandoned with its frames leaked.
    pub(crate) fn stop(&self, from: &Arc<Fiber>) {
        assert!(from.is_current(), "desim: stop() from a suspended fiber");
        match self.sp.load(Relaxed) {
            DONE => {}
            RUNNING => panic!("desim: stop() of the executing fiber"),
            _ => match self.entry.take() {
                Some(entry) => {
                    self.sp.store(DONE, Relaxed);
                    drop(entry);
                }
                None => {
                    *self.next.borrow_mut() = Some(Arc::clone(from));
                    from.switch(self, Go::Stop);
                    self.sp.store(DONE, Relaxed);
                }
            },
        }
        self.next.borrow_mut().take();
        if let Some(stack) = &self.stack {
            stack.release();
        }
    }
}

impl Drop for Fiber {
    fn drop(&mut self) {
        if self.stack.is_some() && *self.sp.get_mut() == RUNNING {
            // The last handle went while the fiber executes: this very
            // code stands on the stack the field drop would unmap.
            eprintln!("desim: an executing process context was dropped; aborting");
            std::process::abort();
        }
    }
}

/// Suspend the executing context into `*save` and continue the one that
/// was suspended at `load`; `to` is handed through to the resumed side
/// (third argument of a first entry, return value of a later one).
///
/// # Safety
///
/// `save` must be writable; `load` must be a stack pointer stored by this
/// function, or an initial frame as laid out by `Fiber::spawn`, on a stack
/// that is still mapped and that nothing else will resume; `to` must point
/// to the `Fiber` that owns that stack, inside its `Arc`.
#[unsafe(naked)]
unsafe extern "C" fn switch_stacks(
    save: *mut usize,
    load: usize,
    to: *const Fiber,
) -> *const Fiber {
    // rdi = save, rsi = load, rdx = to. `rdx` is not written, so a first
    // entry finds `to` where the trampoline's third parameter lives.
    core::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "mov rax, rdx",
        "ret",
    )
}

/// Base frame of every spawned fiber: "returned into" by the first switch
/// to it, with that switch's arguments still in their registers.
///
/// # Safety
///
/// Entered only through the initial frame `Fiber::spawn` builds, from a
/// `switch_stacks` whose `to` is the fiber that owns this stack.
unsafe extern "C" fn trampoline(_save: *mut usize, _load: usize, this: *const Fiber) -> ! {
    let (sp, next) = {
        // SAFETY: the caller of `switch_stacks` got `this` from a `&Fiber`,
        // and the fiber stays alive while it executes: dropping its last
        // handle from its own stack aborts (`Drop`), and no other stack of
        // this run executes meanwhile.
        let this = unsafe { &*this };
        let me = this.me.upgrade().expect("a fiber lives in an Arc");
        let entry = this.entry.take().expect("a fiber starts once");
        // A first resume is always `Go::Run`: `stop` drops an unstarted
        // fiber's entry instead of resuming it.
        this.go.take();
        if let Some(next) = entry(me) {
            *this.next.borrow_mut() = Some(next);
        }
        let next = this.next.borrow();
        let next = next
            .as_deref()
            .expect("a finishing fiber names its successor or was stopped");
        let sp = next.resume_with(Go::Run);
        this.sp.store(DONE, Relaxed);
        (sp, next as *const Fiber)
    };
    let mut dead = 0usize;
    // SAFETY: as in `Fiber::switch`; `next` is kept alive by `this.next`,
    // which is only cleared from another stack (`stop`, drop). The stack
    // pointer saved into `dead` is never used: `this.sp` is `DONE`, so no
    // one resumes this fiber, and nothing with a destructor is left on its
    // stack — the block above has ended.
    unsafe { switch_stacks(&mut dead, sp, next) };
    // Only reachable if someone resumed the pointer in `dead`, which no
    // code can name.
    std::process::abort()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimTime, Simulation, StopReason};

    fn live_stacks() -> usize {
        LIVE_STACKS.with(Cell::get)
    }

    #[test]
    fn fibers_ping_pong_and_finish_back_into_the_caller() {
        let main = Fiber::caller();
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        let fiber = {
            let (main, log) = (Arc::clone(&main), Arc::clone(&log));
            Fiber::spawn("f", move |me| {
                for i in 0..3 {
                    log.lock().unwrap().push(i);
                    assert!(matches!(me.switch(&main, Go::Run), Go::Run));
                }
                Some(main)
            })
        };
        assert_eq!(live_stacks(), 1);
        for _ in 0..4 {
            main.switch(&fiber, Go::Run);
        }
        assert_eq!(*log.lock().unwrap(), vec![0, 1, 2]);
        fiber.stop(&main);
        assert_eq!(live_stacks(), 0, "a finished fiber's stack is released");
    }

    #[test]
    fn callee_saved_registers_survive_a_round_trip() {
        // Enough live values across the switch that some must sit in
        // callee-saved registers (or be spilled — either way they must be
        // intact afterwards, on both sides).
        let main = Fiber::caller();
        let main2 = Arc::clone(&main);
        let fiber = Fiber::spawn("f", move |me| {
            let v: Vec<u64> = (0..8).map(|i| std::hint::black_box(i * 3 + 1)).collect();
            let (a, b, c, d, e, f) = (v[0], v[1], v[2], v[3], v[4], v[5]);
            me.switch(&main2, Go::Run);
            assert_eq!([a, b, c, d, e, f], [1, 4, 7, 10, 13, 16]);
            Some(main2)
        });
        let v: Vec<u64> = (0..8).map(|i| std::hint::black_box(i * 5 + 2)).collect();
        let (a, b, c, d, e, f) = (v[0], v[1], v[2], v[3], v[4], v[5]);
        main.switch(&fiber, Go::Run);
        main.switch(&fiber, Go::Run);
        assert_eq!([a, b, c, d, e, f], [2, 7, 12, 17, 22, 27]);
        fiber.stop(&main);
    }

    #[test]
    fn stopping_an_unstarted_fiber_drops_its_entry_unrun() {
        struct Flag(Arc<std::sync::Mutex<&'static str>>);
        impl Drop for Flag {
            fn drop(&mut self) {
                *self.0.lock().unwrap() = "dropped";
            }
        }
        let main = Fiber::caller();
        let state = Arc::new(std::sync::Mutex::new("pending"));
        let flag = Flag(Arc::clone(&state));
        let fiber = Fiber::spawn("f", move |_me| {
            *flag.0.lock().unwrap() = "ran";
            None
        });
        fiber.stop(&main);
        assert_eq!(*state.lock().unwrap(), "dropped");
        assert_eq!(live_stacks(), 0);
        fiber.stop(&main); // idempotent
    }

    #[test]
    #[should_panic(expected = "not suspended")]
    fn a_finished_fiber_cannot_be_resumed() {
        let main = Fiber::caller();
        let main2 = Arc::clone(&main);
        let fiber = Fiber::spawn("f", move |_me| Some(main2));
        main.switch(&fiber, Go::Run);
        main.switch(&fiber, Go::Run);
    }

    #[test]
    #[should_panic(expected = "outside its own context")]
    fn switching_as_a_fiber_one_is_not_executing_is_refused() {
        let a = Fiber::spawn("a", |_me| None);
        let b = Fiber::spawn("b", |_me| None);
        a.switch(&b, Go::Run);
    }

    #[test]
    fn ten_thousand_processes_in_one_run_leave_no_stack_behind() {
        const N: usize = 10_000;
        let mut sim: Simulation<()> = Simulation::new();
        let ticks = Arc::new(AtomicUsize::new(0));
        for i in 0..N {
            let ticks = Arc::clone(&ticks);
            sim.spawn(format!("p{i}"), move |ctx| {
                ctx.advance(SimTime::from_nanos(1 + (i % 7) as u64));
                ticks.fetch_add(1, Relaxed);
            });
        }
        assert_eq!(live_stacks(), N);
        let stats = sim.run();
        assert_eq!(stats.reason, StopReason::Completed);
        assert_eq!(stats.events_processed, 2 * N as u64);
        assert_eq!(ticks.load(Relaxed), N);
        assert_eq!(live_stacks(), 0, "every stack is unmapped after the run");
    }

    #[test]
    fn a_killed_process_gives_its_stack_back_at_reap_not_at_teardown() {
        let mut sim: Simulation<()> = Simulation::new();
        let seen = Arc::new(AtomicUsize::new(usize::MAX));
        let seen2 = Arc::clone(&seen);
        let victim = sim.spawn("victim", |ctx| {
            ctx.recv();
        });
        sim.spawn("killer", move |ctx| {
            ctx.advance(SimTime::from_millis(1));
            assert!(ctx.kill(victim));
            ctx.yield_now(); // `run` reaps before this resume
            seen2.store(live_stacks(), Relaxed);
        });
        sim.run();
        assert_eq!(seen.load(Relaxed), 1, "only the killer's own stack is left");
    }
}
