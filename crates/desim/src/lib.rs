//! # dtrain-desim
//!
//! A small, deterministic, process-oriented discrete-event simulation (DES)
//! kernel: the substrate on which `dtrain` models clusters, networks, GPUs,
//! parameter servers, and the seven distributed training algorithms of the
//! reproduced paper.
//!
//! ## Model
//!
//! - Every simulated entity is a **process**: a closure running on its own
//!   OS thread against a [`Ctx`] handle, written as ordinary sequential code.
//! - **Exactly one process runs at a time**, in strict virtual timestamp
//!   order with deterministic tie-breaking (event sequence number), so
//!   results are bit-reproducible across runs and machines.
//! - There is **no scheduler thread**. Whichever thread holds the baton
//!   dispatches the next event itself when it parks in [`Ctx::advance`] /
//!   [`Ctx::recv`] / [`Ctx::recv_match`] or returns from its body: if the
//!   event resumes that same process it just continues (no thread switch,
//!   the kernel lock is not even released); otherwise it wakes the target
//!   process directly and sleeps on its own per-process slot (one thread
//!   switch per resume). [`SimStats::handoffs`] counts the second kind.
//! - The thread inside [`Simulation::run`] is woken only for what no process
//!   settles itself: **the run is over** (queue empty — completion or
//!   deadlock — or a [`RunLimits`] bound), **a kill is pending**
//!   ([`Ctx::kill`] victims are unwound and joined before the next event),
//!   or **a process panicked**; it also does teardown, where every thread
//!   is joined.
//! - The kernel lock is never contended: only the baton holder touches
//!   kernel state, and it releases the lock *before* waking the next holder.
//!   A wake-up cannot be lost: a slot is a flag set under its own mutex
//!   before the condvar is notified, and a waiter sleeps only while the
//!   flag is empty — see the `kernel` module docs for both arguments.
//! - Processes communicate through **delayed messages** ([`Ctx::send`] /
//!   [`Ctx::recv`]); the delay is computed by the caller (e.g. a network
//!   model) — the kernel is policy-free.
//! - [`Ctx::advance`] models consuming virtual time (computation, transfer
//!   occupancy, …).
//!
//! ## Example
//!
//! ```
//! use dtrain_desim::{Simulation, SimTime};
//!
//! let mut sim: Simulation<&'static str> = Simulation::new();
//! let server = sim.spawn("server", |ctx| {
//!     let req = ctx.recv();
//!     assert_eq!(req, "ping");
//!     assert_eq!(ctx.now(), SimTime::from_millis(2));
//! });
//! sim.spawn("client", move |ctx| {
//!     ctx.advance(SimTime::from_millis(1));          // think for 1 ms
//!     ctx.send(server, SimTime::from_millis(1), "ping"); // 1 ms on the wire
//! });
//! let stats = sim.run();
//! assert_eq!(stats.end_time, SimTime::from_millis(2));
//! ```

mod kernel;
mod time;

pub use kernel::{Ctx, Pid, RunLimits, SimStats, Simulation, StopReason, TraceRecord};
pub use time::SimTime;
