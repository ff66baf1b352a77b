//! Parked threads: what a simulated process runs on where `context.rs` has
//! no stack switch for the target. Same three operations, same meaning; a
//! [`Fiber`] here is an OS thread asleep on a flag, and a switch is "wake
//! the target, sleep on my own flag" — two trips through the host
//! scheduler (≈ 1.6 µs) where a context switch costs a dozen instructions.
//! `lib.rs` chooses between the two files by target `cfg` alone.
//!
//! ## Why a wake-up cannot be lost
//!
//! The flag is stored under its own small mutex before the condvar is
//! notified, and `wait` sleeps only while the flag is empty, checked under
//! the same mutex, and takes it on the way out. A fiber can be resumed
//! before it has reached its own `wait` (A wakes B, and B parks and
//! dispatches A's resume while A is still on its way to sleep): the flag is
//! already there, so A's `wait` returns at once. And a flag is never
//! overwritten: only the baton holder wakes anyone, it wakes exactly one
//! thread and has then given the baton up, and the woken thread must take
//! its flag to become the next holder.

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::kernel::Go;

/// An execution context the kernel can suspend and resume: one simulated
/// process (a thread of its own), or the thread inside `Simulation::run`.
#[derive(Default)]
pub(crate) struct Fiber {
    go: Mutex<Option<Go>>,
    cv: Condvar,
    /// Taken when joined; `None` for [`Fiber::caller`].
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Fiber {
    /// The fiber of the thread that calls `Simulation::run`.
    pub(crate) fn caller() -> Arc<Fiber> {
        Arc::default()
    }

    /// A suspended fiber that has not started: its first resume calls
    /// `entry` on a new thread named `name`. `entry` returns the fiber to
    /// continue when it is done, or `None` when it was stopped.
    pub(crate) fn spawn(
        name: &str,
        entry: impl FnOnce(Arc<Fiber>) -> Option<Arc<Fiber>> + Send + 'static,
    ) -> Arc<Fiber> {
        let fiber = Fiber::caller();
        let me = Arc::clone(&fiber);
        let handle = std::thread::Builder::new()
            .name(name.to_owned())
            .spawn(move || {
                if let Go::Stop = me.wait() {
                    return; // stopped before it ever ran: `entry` drops unrun
                }
                if let Some(next) = entry(Arc::clone(&me)) {
                    next.wake(Go::Run);
                }
            })
            .expect("failed to spawn simulation process thread");
        *fiber.thread.lock().unwrap() = Some(handle);
        fiber
    }

    fn wake(&self, go: Go) {
        *self.go.lock().unwrap() = Some(go);
        self.cv.notify_one();
    }

    fn wait(&self) -> Go {
        let mut go = self.go.lock().unwrap();
        loop {
            if let Some(go) = go.take() {
                return go;
            }
            go = self.cv.wait(go).unwrap();
        }
    }

    /// Suspend `self` — the fiber of the calling thread — and resume `to`
    /// with `go`. Returns what `self` is told when it is next resumed.
    pub(crate) fn switch(&self, to: &Fiber, go: Go) -> Go {
        to.wake(go);
        self.wait()
    }

    /// Make sure this fiber never executes again and join its thread: one
    /// that is parked unwinds on [`Go::Stop`], one that has not started
    /// drops its entry unrun, one that already finished ignores the flag.
    /// `_from`, the calling fiber, keeps running: nothing is handed over.
    pub(crate) fn stop(&self, _from: &Arc<Fiber>) {
        self.wake(Go::Stop);
        if let Some(handle) = self.thread.lock().unwrap().take() {
            let _ = handle.join();
        }
    }
}
