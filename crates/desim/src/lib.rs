//! # dtrain-desim
//!
//! A small, deterministic, process-oriented discrete-event simulation (DES)
//! kernel: the substrate on which `dtrain` models clusters, networks, GPUs,
//! parameter servers, and the seven distributed training algorithms of the
//! reproduced paper.
//!
//! ## Model
//!
//! - Every simulated entity is a **process**: a closure written as ordinary
//!   sequential code against a [`Ctx`] handle, running on a 2 MiB stack of
//!   its own. On x86-64 Linux that stack is a **user-space context**: all
//!   processes of a run execute, one at a time, on the thread that called
//!   [`Simulation::run`], and resuming one is a dozen-instruction stack
//!   switch (`context.rs`, the only `unsafe` in the crate). Other targets
//!   give each process a parked OS thread behind the same three operations
//!   (`parked.rs`); the target decides, there is nothing to configure.
//! - **Exactly one process runs at a time**, in strict virtual timestamp
//!   order with deterministic tie-breaking (event sequence number), so
//!   results are bit-reproducible across runs and machines.
//! - There is **no scheduler**. Whichever process holds the baton
//!   dispatches the next event itself when it parks in [`Ctx::advance`] /
//!   [`Ctx::recv`] / [`Ctx::recv_match`] or returns from its body: if the
//!   event resumes that same process it just continues (no switch, the
//!   kernel lock is not even released); otherwise it switches to the target
//!   process directly. [`SimStats::handoffs`] counts the second kind.
//! - The code inside [`Simulation::run`] gets control back only for what no
//!   process settles itself: **the run is over** (queue empty — completion
//!   or deadlock — or a [`RunLimits`] bound), **a kill is pending**
//!   ([`Ctx::kill`] victims are unwound, and their stacks released, before
//!   the next event), or **a process panicked**; it also does teardown,
//!   where every process still parked is unwound and every body that never
//!   started is dropped — also when a `Simulation` is dropped without
//!   having been run.
//! - Bodies see the **caller's thread-locals** and `thread::current()`
//!   where processes are contexts, so no body may hold a thread-local
//!   borrow across `advance` / `recv` (see [`Simulation::run`]). A body that
//!   overruns its stack hits a guard page: the process dies of `SIGSEGV`.
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

// What a process executes on: a user-space context where `context.rs` has
// a stack switch for the target, a parked thread elsewhere. The target alone
// decides (`desim_threads` is CI's way to test the fallback on x86-64).
#[cfg_attr(
    all(target_arch = "x86_64", target_os = "linux", not(desim_threads)),
    path = "context.rs"
)]
#[cfg_attr(
    not(all(target_arch = "x86_64", target_os = "linux", not(desim_threads))),
    path = "parked.rs"
)]
mod fiber;
mod kernel;
mod time;

pub use kernel::{Ctx, Pid, RunLimits, SimStats, Simulation, StopReason, TraceRecord};
pub use time::SimTime;
