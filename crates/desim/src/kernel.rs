//! The simulation kernel: a process-oriented, deterministic discrete-event
//! scheduler.
//!
//! Each simulated process is ordinary sequential Rust code running against a
//! [`Ctx`] handle on a stack of its own. The kernel enforces that **exactly
//! one process executes at any instant**, resuming processes strictly in
//! virtual timestamp order (ties broken by event sequence number), so a run
//! is fully deterministic. This is the classic "coroutine DES" model (cf.
//! SimPy): model code — parameter servers, workers, NICs — is written as
//! straight-line loops with blocking `recv`, instead of hand-written state
//! machines. What a process stands on is a [`Fiber`]: a user-space context
//! switched on the thread that called [`Simulation::run`] (`context.rs`), or,
//! on targets that file has no switch for, a parked OS thread (`parked.rs`).
//! Nothing in this file depends on which.
//!
//! ## Who dispatches
//!
//! There is no scheduler. The right to run — the *baton* — belongs to one
//! fiber at a time, and **whichever fiber holds the baton dispatches the next
//! event itself**. A process that parks in `advance` / `recv` / `recv_match`
//! (or returns from its body) keeps the kernel lock it already holds, runs
//! [`Shared::dispatch`] — the one pop loop: event order, `events_processed`,
//! dead letters, trace and hook all live there — and then
//!
//! * **continues**, when the event resumes the very process that parked (its
//!   own `advance`, or a delivery it was waiting for): no switch, and the
//!   lock is not even released;
//! * **switches to the target process directly**: one context switch per
//!   resume ([`SimStats::handoffs`] counts them). An exiting process does the
//!   same, as its last act;
//! * **hands back to the code inside [`Simulation::run`]** in the rare cases
//!   only it can settle: `dispatch` found nothing to resume (queue empty —
//!   completion or deadlock — or a limit hit; `dispatch` does not consume
//!   anything in that case, so `run` simply asks again and gets the same
//!   answer), the `doomed` list is non-empty (kills are reaped — victim
//!   unwound, its stack released — before the next event), or a process
//!   panicked. `run` also does teardown, where every process still alive is
//!   stopped: one that is parked unwinds through [`ShutdownToken`], one that
//!   never started just has its body dropped.
//!
//! ## Why the kernel lock is never contended
//!
//! Only the baton holder touches [`Shared`], and it gives the baton away by
//! releasing the lock *first* and switching *second*. So the mutex exists to
//! satisfy `Send`/`Sync` (and, under `parked.rs`, to publish the state to the
//! next thread); each `Ctx` operation takes it once, plus once more after a
//! real switch. No guard is ever held across a switch.
//!
//! The switch itself — what is saved, the initial stack, why no panic leaves
//! a process's stack, what a stack overflow looks like — is argued where the
//! `unsafe` is: see "Safety of the switch" in `context.rs`.

use std::any::Any;
use std::collections::{BinaryHeap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::fiber::Fiber;
use crate::time::SimTime;

/// Identifier of a simulated process, assigned densely from zero in spawn
/// order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Pid(pub usize);

impl Pid {
    /// Index form, for direct use in slices keyed by pid.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// What a suspended fiber is told when it is resumed.
pub(crate) enum Go {
    /// The baton is yours: continue executing.
    Run,
    /// You were killed, or the simulation is shutting down: unwind out of
    /// the process body. Whoever stopped you keeps the baton.
    Stop,
}

/// Kernel-visible state of one process.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ProcState {
    /// Parked, waiting for a `Resume` event it scheduled itself.
    Holding,
    /// Parked inside `recv`, waiting for any delivery.
    WaitingRecv,
    /// Currently running: it holds the baton.
    Running,
    /// Process body has returned, or the process was killed.
    Finished,
}

enum EventKind<M> {
    /// Resume a process that called `advance`.
    Resume(Pid),
    /// Deliver a message into a mailbox.
    Deliver(Pid, M),
}

struct Event<M> {
    time: SimTime,
    seq: u64,
    kind: EventKind<M>,
}

// BinaryHeap is a max-heap; invert the ordering to pop the earliest event.
impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// One record of the (optional) deterministic event trace.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceRecord {
    pub time: SimTime,
    pub pid: Pid,
    /// 0 = resume, 1 = deliver, 2 = kill, 3 = spawn.
    pub kind: u8,
}

/// Observer invoked for every traced kernel event (see [`Shared::hook`]).
type EventHook = Box<dyn FnMut(&TraceRecord) + Send>;

/// The whole kernel state. Only the fiber holding the baton touches it, so
/// its mutex is never contended (module docs).
struct Shared<M> {
    queue: BinaryHeap<Event<M>>,
    mailboxes: Vec<VecDeque<M>>,
    states: Vec<ProcState>,
    now: SimTime,
    next_seq: u64,
    /// Messages sent to already-finished processes.
    dead_letters: u64,
    events_processed: u64,
    /// Resumes that had to switch to another fiber.
    handoffs: u64,
    /// Processes killed via [`Ctx::kill`], awaiting teardown by `run`.
    doomed: VecDeque<Pid>,
    kills: u64,
    trace: Option<Vec<TraceRecord>>,
    /// Observer invoked for every traced kernel event (resume / deliver /
    /// kill / spawn) as it happens. Runs under the kernel lock on whichever
    /// fiber holds the baton: it must not re-enter the simulation.
    hook: Option<EventHook>,
    limits: RunLimits,
    /// A process body's panic, parked here for `run` to re-raise.
    panic: Option<(Pid, Box<dyn Any + Send>)>,
    /// Per process, by pid: what it executes on, and its name.
    fibers: Vec<Arc<Fiber>>,
    names: Vec<String>,
    /// The fiber of the code inside [`Simulation::run`] (or dropping the
    /// `Simulation`).
    main: Arc<Fiber>,
}

impl<M> Shared<M> {
    fn push_event(&mut self, time: SimTime, kind: EventKind<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Event { time, seq, kind });
    }

    /// Record one kernel event into the optional trace buffer and feed it
    /// to the optional live hook.
    fn trace_event(&mut self, time: SimTime, pid: Pid, kind: u8) {
        if self.trace.is_none() && self.hook.is_none() {
            return;
        }
        let rec = TraceRecord { time, pid, kind };
        if let Some(tr) = self.trace.as_mut() {
            tr.push(rec);
        }
        if let Some(hook) = self.hook.as_mut() {
            hook(&rec);
        }
    }

    fn is_finished(&self, pid: Pid) -> bool {
        matches!(self.states[pid.index()], ProcState::Finished)
    }

    /// The one pop loop: process events in `(time, seq)` order until one
    /// resumes a process, mark that process `Running` and return it. When
    /// the run is over instead, say why — without consuming anything, so
    /// asking again gives the same answer.
    fn dispatch(&mut self) -> Result<Pid, StopReason> {
        loop {
            let Some(ev) = self.queue.peek() else {
                let all_done = (0..self.states.len()).all(|i| self.is_finished(Pid(i)));
                return Err(if all_done {
                    StopReason::Completed
                } else {
                    StopReason::Deadlock
                });
            };
            let RunLimits {
                max_time,
                max_events,
            } = self.limits;
            if max_time.is_some_and(|t| ev.time > t)
                || max_events.is_some_and(|n| self.events_processed >= n)
            {
                return Err(StopReason::LimitReached);
            }
            let ev = self.queue.pop().expect("peeked above");
            self.events_processed += 1;
            let pid = match ev.kind {
                EventKind::Deliver(pid, msg) => {
                    if self.is_finished(pid) {
                        self.dead_letters += 1;
                        continue;
                    }
                    self.now = ev.time;
                    self.trace_event(ev.time, pid, 1);
                    self.mailboxes[pid.index()].push_back(msg);
                    if !matches!(self.states[pid.index()], ProcState::WaitingRecv) {
                        continue; // target is running/holding; it'll see it
                    }
                    pid
                }
                EventKind::Resume(pid) => {
                    if self.is_finished(pid) {
                        continue;
                    }
                    self.now = ev.time;
                    self.trace_event(ev.time, pid, 0);
                    pid
                }
            };
            self.states[pid.index()] = ProcState::Running;
            return Ok(pid);
        }
    }

    /// Count a resume of `pid` that needs a switch, and return its fiber.
    fn hand_to(&mut self, pid: Pid) -> Arc<Fiber> {
        self.handoffs += 1;
        Arc::clone(&self.fibers[pid.index()])
    }
}

type Kernel<M> = Arc<Mutex<Shared<M>>>;

/// Give the baton away: called, kernel lock held, by a process that is about
/// to park (`me` = its pid) or to exit (`me` = `None`). Dispatches the next
/// event and returns the fiber to switch to once the lock is released — the
/// event's target, or `run`'s fiber for the cases only `run` settles — or
/// `None` when the event resumes `me` itself.
fn next_holder<M>(sh: &mut Shared<M>, me: Option<Pid>) -> Option<Arc<Fiber>> {
    let next = if sh.doomed.is_empty() && sh.panic.is_none() {
        sh.dispatch().ok()
    } else {
        None
    };
    match next {
        Some(pid) if Some(pid) == me => None,
        Some(pid) => Some(sh.hand_to(pid)),
        None => Some(Arc::clone(&sh.main)),
    }
}

/// Handle given to every process body; all interaction with virtual time and
/// other processes goes through it.
pub struct Ctx<M: Send + 'static> {
    pid: Pid,
    shared: Kernel<M>,
    me: Arc<Fiber>,
}

/// Sentinel panic payload used to unwind a process during shutdown.
struct ShutdownToken;

impl<M: Send + 'static> Ctx<M> {
    /// This process's id.
    #[inline]
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.shared.lock().unwrap().now
    }

    /// Park this process (the caller has recorded what it waits for) and
    /// return, kernel lock held, once it is resumed — without any switch if
    /// the next event is its own. Panics with the shutdown token if the
    /// simulation is tearing down, which the spawn wrapper catches.
    fn park<'a>(&'a self, mut sh: MutexGuard<'a, Shared<M>>) -> MutexGuard<'a, Shared<M>> {
        let Some(next) = next_holder(&mut sh, Some(self.pid)) else {
            return sh;
        };
        drop(sh);
        match self.me.switch(&next, Go::Run) {
            Go::Run => self.shared.lock().unwrap(),
            Go::Stop => panic::panic_any(ShutdownToken),
        }
    }

    /// Advance this process's clock by `dt`, letting other processes run in
    /// the meantime. `advance(SimTime::ZERO)` is a deterministic yield point.
    pub fn advance(&self, dt: SimTime) {
        let mut sh = self.shared.lock().unwrap();
        // Saturating: SimTime::MAX is a documented "never" sentinel and
        // must not wrap into the past.
        let at = SimTime::from_nanos(sh.now.as_nanos().saturating_add(dt.as_nanos()));
        sh.states[self.pid.index()] = ProcState::Holding;
        sh.push_event(at, EventKind::Resume(self.pid));
        drop(self.park(sh));
    }

    /// Advance to an absolute timestamp (no-op if already past it).
    pub fn advance_to(&self, t: SimTime) {
        let now = self.now();
        if t > now {
            self.advance(t - now);
        }
    }

    /// Yield to let any same-timestamp events run before continuing.
    pub fn yield_now(&self) {
        self.advance(SimTime::ZERO);
    }

    /// Send `msg` to `dst`, arriving `delay` after the current instant.
    /// Non-blocking: the sender keeps running. Transfer-time modelling (link
    /// bandwidth, NIC serialization) is the caller's job — the kernel only
    /// honors the delay it is given.
    pub fn send(&self, dst: Pid, delay: SimTime, msg: M) {
        let mut sh = self.shared.lock().unwrap();
        let at = SimTime::from_nanos(sh.now.as_nanos().saturating_add(delay.as_nanos()));
        sh.push_event(at, EventKind::Deliver(dst, msg));
    }

    /// Pop the next message from this process's mailbox, blocking in virtual
    /// time until one is delivered.
    pub fn recv(&self) -> M {
        self.recv_match(|_| true)
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Option<M> {
        self.shared.lock().unwrap().mailboxes[self.pid.index()].pop_front()
    }

    /// Drain every message currently queued, in delivery order, without
    /// blocking. The round-boundary idiom for cooperative processes (e.g.
    /// scheduler job agents): act on all directives that have arrived, then
    /// get back to work.
    pub fn drain(&self) -> Vec<M> {
        let mut sh = self.shared.lock().unwrap();
        sh.mailboxes[self.pid.index()].drain(..).collect()
    }

    /// Receive the first mailbox message satisfying `pred`, blocking until
    /// one arrives. Non-matching messages stay queued in order.
    pub fn recv_match(&self, mut pred: impl FnMut(&M) -> bool) -> M {
        let mut sh = self.shared.lock().unwrap();
        loop {
            let mb = &mut sh.mailboxes[self.pid.index()];
            if let Some(i) = mb.iter().position(&mut pred) {
                return mb.remove(i).expect("position just found");
            }
            sh.states[self.pid.index()] = ProcState::WaitingRecv;
            sh = self.park(sh);
        }
    }

    /// Number of messages currently queued for this process.
    pub fn mailbox_len(&self) -> usize {
        self.shared.lock().unwrap().mailboxes[self.pid.index()].len()
    }

    /// Whether `pid` is a live (spawned, not finished, not killed) process.
    pub fn is_live(&self, pid: Pid) -> bool {
        let sh = self.shared.lock().unwrap();
        pid.index() < sh.states.len() && !sh.is_finished(pid) && !sh.doomed.contains(&pid)
    }

    /// Kill another process at the current virtual instant (fault
    /// injection). The victim's mailbox is discarded and its body unwound
    /// before any further event is processed; events already queued for it
    /// become dead letters. Returns `false` if the victim had already
    /// finished (or was already killed). Killing yourself is not supported —
    /// return from the process body instead.
    pub fn kill(&self, victim: Pid) -> bool {
        assert_ne!(victim, self.pid, "a process cannot kill itself");
        let mut sh = self.shared.lock().unwrap();
        if victim.index() >= sh.states.len()
            || sh.is_finished(victim)
            || sh.doomed.contains(&victim)
        {
            return false;
        }
        sh.kills += 1;
        let now = sh.now;
        sh.trace_event(now, victim, 2);
        sh.doomed.push_back(victim);
        true
    }

    /// Spawn a new process mid-run (crash *respawn* in fault experiments).
    /// The body starts executing at the current virtual time; the new pid
    /// extends the dense pid space.
    pub fn spawn<F>(&self, name: impl Into<String>, body: F) -> Pid
    where
        F: FnOnce(Ctx<M>) + Send + 'static,
    {
        spawn_process(&self.shared, name.into(), body)
    }
}

/// Shared spawn path for [`Simulation::spawn`] (pre-run, at t=0) and
/// [`Ctx::spawn`] (mid-run): the process starts at the current instant. Its
/// fiber stays suspended until its first resume, and is created with the
/// kernel lock held, so the pid can never be observed half-built.
fn spawn_process<M, F>(shared: &Kernel<M>, name: String, body: F) -> Pid
where
    M: Send + 'static,
    F: FnOnce(Ctx<M>) + Send + 'static,
{
    let mut sh = shared.lock().unwrap();
    let pid = Pid(sh.states.len());
    let shared = Arc::clone(shared);
    let fiber = Fiber::spawn(&name, move |me| {
        let ctx = Ctx {
            pid,
            shared: Arc::clone(&shared),
            me,
        };
        let panic = match panic::catch_unwind(AssertUnwindSafe(|| body(ctx))) {
            Ok(()) => None,
            // Stopped: whoever stopped this process has the baton.
            Err(p) if p.is::<ShutdownToken>() => return None,
            Err(p) => Some((pid, p)),
        };
        // A body that panicked holding the kernel lock (in a `recv_match`
        // predicate) poisoned it. The state is whole, and `run` re-raises
        // the panic, so the lock is taken and cleared, never unwrapped.
        let mut sh = shared.lock().unwrap_or_else(PoisonError::into_inner);
        shared.clear_poison();
        sh.states[pid.index()] = ProcState::Finished;
        sh.panic = panic;
        next_holder(&mut sh, None)
    });
    let now = sh.now;
    sh.mailboxes.push(VecDeque::new());
    sh.states.push(ProcState::Holding);
    sh.push_event(now, EventKind::Resume(pid));
    if now > SimTime::ZERO {
        sh.trace_event(now, pid, 3);
    }
    sh.fibers.push(fiber);
    sh.names.push(name);
    pid
}

/// Why a simulation run ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StopReason {
    /// All processes finished.
    Completed,
    /// Events remained only for processes stuck in `recv` with no pending
    /// deliveries — a logical deadlock in the model.
    Deadlock,
    /// The configured event or time limit was reached.
    LimitReached,
}

/// Summary of a finished simulation run.
#[derive(Debug)]
pub struct SimStats {
    pub reason: StopReason,
    /// Final virtual clock value.
    pub end_time: SimTime,
    pub events_processed: u64,
    /// Resumes that needed a context switch (the rest continued in the
    /// process that dispatched them). A host-cost counter, not a model output.
    pub handoffs: u64,
    /// Messages addressed to processes that had already finished.
    pub dead_letters: u64,
    /// Processes torn down via [`Ctx::kill`] (fault injection).
    pub kills: u64,
    /// Pids still blocked when the run ended (non-empty on deadlock/limit).
    pub blocked: Vec<Pid>,
    /// Deterministic event trace, if tracing was enabled.
    pub trace: Option<Vec<TraceRecord>>,
}

/// Limits for [`Simulation::run`].
#[derive(Clone, Copy, Debug, Default)]
pub struct RunLimits {
    /// Stop after processing this many events.
    pub max_events: Option<u64>,
    /// Stop once the clock would pass this timestamp.
    pub max_time: Option<SimTime>,
}

/// A configured simulation: spawn processes, then [`run`](Simulation::run).
pub struct Simulation<M: Send + 'static> {
    shared: Kernel<M>,
}

impl<M: Send + 'static> Default for Simulation<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Send + 'static> Simulation<M> {
    pub fn new() -> Self {
        Simulation {
            shared: Arc::new(Mutex::new(Shared {
                queue: BinaryHeap::new(),
                mailboxes: Vec::new(),
                states: Vec::new(),
                now: SimTime::ZERO,
                next_seq: 0,
                dead_letters: 0,
                events_processed: 0,
                handoffs: 0,
                doomed: VecDeque::new(),
                kills: 0,
                trace: None,
                hook: None,
                limits: RunLimits::default(),
                panic: None,
                fibers: Vec::new(),
                names: Vec::new(),
                main: Fiber::caller(),
            })),
        }
    }

    /// Record a (time, pid, kind) trace of every processed event; retrieve it
    /// from [`SimStats::trace`]. Intended for determinism tests.
    pub fn enable_tracing(&mut self) {
        self.shared.lock().unwrap().trace = Some(Vec::new());
    }

    /// Install a live observer called for every kernel scheduling event
    /// (resume / deliver / kill / spawn), in the exact order the trace
    /// records them. The hook runs under the kernel lock in whichever
    /// process holds the baton, so it must be fast and must not touch
    /// the simulation; it exists so an external sink (e.g. `dtrain-obs`)
    /// can stream the event order without buffering the whole trace here.
    pub fn set_event_hook(&mut self, hook: impl FnMut(&TraceRecord) + Send + 'static) {
        self.shared.lock().unwrap().hook = Some(Box::new(hook));
    }

    /// Spawn a process. The body runs when `run` is called; it starts at
    /// virtual time zero. (Processes themselves can spawn more mid-run via
    /// [`Ctx::spawn`].)
    pub fn spawn<F>(&mut self, name: impl Into<String>, body: F) -> Pid
    where
        F: FnOnce(Ctx<M>) + Send + 'static,
    {
        spawn_process(&self.shared, name.into(), body)
    }

    /// Run to completion (or deadlock). Panics from process bodies are
    /// re-raised after teardown.
    ///
    /// Bodies execute **on the calling thread** (one at a time, each on its
    /// own stack) and therefore see that thread's thread-locals: a scope such
    /// as `tensor::simd::with_isa` or `parallel::with_max_threads` around
    /// `run` governs every body, and every body observes the caller's
    /// `thread::current()`. The other side of that coin: a body must not
    /// hold a thread-local *borrow* (`RefCell::borrow_mut` inside
    /// `LocalKey::with`) across `advance` / `recv`, because the next body
    /// would find it taken. (Targets without a stack switch still give each
    /// process a thread — see `parked.rs` — so portable code relies on
    /// neither.)
    pub fn run(self) -> SimStats {
        self.run_with_limits(RunLimits::default())
    }

    /// Run with event/time limits; see [`RunLimits`].
    ///
    /// The caller switches to the first process and is switched back to only
    /// for what no process settles itself (module docs): reaping kills, a
    /// panic, and the end of the run.
    pub fn run_with_limits(self, limits: RunLimits) -> SimStats {
        let main = {
            let mut sh = self.shared.lock().unwrap();
            sh.limits = limits;
            Arc::clone(&sh.main)
        };
        let (reason, mut sh) = loop {
            // Unwind killed processes before the next event, so a kill takes
            // effect at the current instant, deterministically.
            self.reap_doomed();
            let mut sh = self.shared.lock().unwrap();
            if let Some((pid, payload)) = sh.panic.take() {
                let name = sh.names[pid.index()].clone();
                drop(sh);
                self.teardown();
                eprintln!("desim: process '{name}' panicked; re-raising");
                panic::resume_unwind(payload);
            }
            match sh.dispatch() {
                Ok(pid) => {
                    let next = sh.hand_to(pid);
                    drop(sh);
                    main.switch(&next, Go::Run);
                }
                Err(reason) => break (reason, sh),
            }
        };
        SimStats {
            reason,
            end_time: sh.now,
            events_processed: sh.events_processed,
            handoffs: sh.handoffs,
            dead_letters: sh.dead_letters,
            kills: sh.kills,
            // Empty on `Completed`: `dispatch` reports that only when every
            // process has finished.
            blocked: (0..sh.states.len())
                .map(Pid)
                .filter(|&p| !sh.is_finished(p))
                .collect(),
            trace: sh.trace.take(),
        }
        // Dropping `self` tears down whatever is still alive.
    }

    /// Stop every process queued in `doomed` by [`Ctx::kill`]. Their
    /// mailboxes are discarded; queued events targeting them count as dead
    /// letters when popped.
    fn reap_doomed(&self) {
        loop {
            let Some(victim) = self.shared.lock().unwrap().doomed.pop_front() else {
                return;
            };
            self.stop_process(victim);
        }
    }

    /// Mark `pid` finished and stop its fiber: a parked process unwinds via
    /// the shutdown token, one that never started has its body dropped, and
    /// either way the stack (or thread) is given back. The kernel lock is
    /// released first because the victim's destructors may use `Ctx`.
    fn stop_process(&self, pid: Pid) {
        let (fiber, main) = {
            let mut sh = self.shared.lock().unwrap_or_else(PoisonError::into_inner);
            sh.states[pid.index()] = ProcState::Finished;
            sh.mailboxes[pid.index()].clear();
            (Arc::clone(&sh.fibers[pid.index()]), Arc::clone(&sh.main))
        };
        fiber.stop(&main);
    }

    /// Stop every process, in pid order. `Drop` runs this, maybe while a
    /// panic unwinds, so a poisoned lock is taken as it stands.
    fn teardown(&self) {
        let n = self
            .shared
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .states
            .len();
        for i in 0..n {
            self.stop_process(Pid(i));
        }
    }
}

/// Teardown on every way out — the end of `run`, a panic through it, or a
/// simulation that was built and never run: no process outlives its
/// `Simulation`, and no body is leaked unrun.
impl<M: Send + 'static> Drop for Simulation<M> {
    fn drop(&mut self) {
        self.teardown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_process_advances_clock() {
        let mut sim: Simulation<()> = Simulation::new();
        sim.spawn("p", |ctx| {
            assert_eq!(ctx.now(), SimTime::ZERO);
            ctx.advance(SimTime::from_secs(3));
            assert_eq!(ctx.now(), SimTime::from_secs(3));
        });
        let stats = sim.run();
        assert_eq!(stats.reason, StopReason::Completed);
        assert_eq!(stats.end_time, SimTime::from_secs(3));
    }

    #[test]
    fn message_delivery_with_delay() {
        let mut sim: Simulation<u32> = Simulation::new();
        let got = Arc::new(Mutex::new((SimTime::ZERO, 0u32)));
        let got2 = Arc::clone(&got);
        let rx_pid = {
            // Spawn receiver first so its pid is known to the sender below.
            sim.spawn("rx", move |ctx| {
                let m = ctx.recv();
                *got2.lock().unwrap() = (ctx.now(), m);
            })
        };
        sim.spawn("tx", move |ctx| {
            ctx.advance(SimTime::from_millis(5));
            ctx.send(rx_pid, SimTime::from_millis(10), 42);
        });
        let stats = sim.run();
        assert_eq!(stats.reason, StopReason::Completed);
        let (t, v) = *got.lock().unwrap();
        assert_eq!(v, 42);
        assert_eq!(t, SimTime::from_millis(15));
    }

    #[test]
    fn fifo_order_preserved_for_equal_timestamps() {
        let mut sim: Simulation<u32> = Simulation::new();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let rx = sim.spawn("rx", move |ctx| {
            for _ in 0..3 {
                seen2.lock().unwrap().push(ctx.recv());
            }
        });
        sim.spawn("tx", move |ctx| {
            for i in 0..3 {
                ctx.send(rx, SimTime::from_millis(1), i);
            }
        });
        sim.run();
        assert_eq!(*seen.lock().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn deadlock_detected() {
        let mut sim: Simulation<()> = Simulation::new();
        sim.spawn("stuck", |ctx| {
            ctx.recv(); // no one ever sends
        });
        let stats = sim.run();
        assert_eq!(stats.reason, StopReason::Deadlock);
        assert_eq!(stats.blocked, vec![Pid(0)]);
    }

    #[test]
    fn drain_empties_the_mailbox_in_delivery_order_without_blocking() {
        let mut sim: Simulation<u32> = Simulation::new();
        let out = Arc::new(Mutex::new(Vec::new()));
        let out2 = Arc::clone(&out);
        let rx = sim.spawn("rx", move |ctx| {
            // Nothing delivered yet: drain is empty, not blocking.
            assert!(ctx.drain().is_empty());
            ctx.advance(SimTime::from_millis(10));
            out2.lock().unwrap().push(ctx.drain());
            // Everything was taken; a second drain finds nothing.
            assert!(ctx.drain().is_empty());
        });
        sim.spawn("tx", move |ctx| {
            for i in 0..4 {
                ctx.send(rx, SimTime::from_millis(1 + i as u64), i);
            }
        });
        let stats = sim.run();
        assert_eq!(stats.reason, StopReason::Completed);
        assert_eq!(*out.lock().unwrap(), vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn recv_match_skips_non_matching() {
        let mut sim: Simulation<u32> = Simulation::new();
        let out = Arc::new(Mutex::new(Vec::new()));
        let out2 = Arc::clone(&out);
        let rx = sim.spawn("rx", move |ctx| {
            let even = ctx.recv_match(|m| m % 2 == 0);
            out2.lock().unwrap().push(even);
            // the skipped odd message is still queued
            out2.lock().unwrap().push(ctx.recv());
        });
        sim.spawn("tx", move |ctx| {
            ctx.send(rx, SimTime::from_millis(1), 7);
            ctx.send(rx, SimTime::from_millis(2), 8);
        });
        sim.run();
        assert_eq!(*out.lock().unwrap(), vec![8, 7]);
    }

    #[test]
    fn time_limit_stops_run() {
        let mut sim: Simulation<()> = Simulation::new();
        sim.spawn("ticker", |ctx| loop {
            ctx.advance(SimTime::from_secs(1));
        });
        let stats = sim.run_with_limits(RunLimits {
            max_time: Some(SimTime::from_secs(10)),
            ..Default::default()
        });
        assert_eq!(stats.reason, StopReason::LimitReached);
        assert!(stats.end_time <= SimTime::from_secs(10));
    }

    #[test]
    fn event_limit_stops_run() {
        let mut sim: Simulation<()> = Simulation::new();
        sim.spawn("ticker", |ctx| loop {
            ctx.advance(SimTime::from_secs(1));
        });
        let stats = sim.run_with_limits(RunLimits {
            max_events: Some(5),
            ..Default::default()
        });
        assert_eq!(stats.reason, StopReason::LimitReached);
        assert_eq!(stats.events_processed, 5);
    }

    #[test]
    fn dead_letters_counted() {
        let mut sim: Simulation<()> = Simulation::new();
        let rx = sim.spawn("ends-early", |_ctx| {});
        sim.spawn("late-sender", move |ctx| {
            ctx.advance(SimTime::from_secs(1));
            ctx.send(rx, SimTime::ZERO, ());
        });
        let stats = sim.run();
        assert_eq!(stats.dead_letters, 1);
        assert_eq!(stats.reason, StopReason::Completed);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn process_panic_propagates() {
        let mut sim: Simulation<()> = Simulation::new();
        sim.spawn("bad", |_ctx| panic!("boom"));
        sim.spawn("innocent", |ctx| {
            ctx.recv();
        });
        sim.run();
    }

    #[test]
    fn two_processes_interleave_deterministically() {
        let mut sim: Simulation<()> = Simulation::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for (name, period_ms) in [("a", 10u64), ("b", 15u64)] {
            let log = Arc::clone(&log);
            sim.spawn(name, move |ctx| {
                for _ in 0..3 {
                    ctx.advance(SimTime::from_millis(period_ms));
                    log.lock().unwrap().push((name, ctx.now().as_nanos()));
                }
            });
        }
        sim.run();
        let got = log.lock().unwrap().clone();
        assert_eq!(
            got,
            vec![
                ("a", 10_000_000),
                ("b", 15_000_000),
                ("a", 20_000_000),
                // At t=30 both are due; b parked first (at t=15) so its
                // resume event carries the lower sequence number.
                ("b", 30_000_000),
                ("a", 30_000_000),
                ("b", 45_000_000),
            ]
        );
    }

    #[test]
    fn same_instant_resumes_run_in_seq_order() {
        // Both processes only ever yield at t=0, so every resume ties on
        // time and `seq` alone decides. A parking process's own resume is
        // always queued behind its peer's: continuing on the spot would be
        // the cheapest hand-off and the wrong order.
        let mut sim: Simulation<()> = Simulation::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for name in ["a", "b"] {
            let log = Arc::clone(&log);
            sim.spawn(name, move |ctx| {
                for i in 0..3 {
                    ctx.yield_now();
                    log.lock().unwrap().push((name, i));
                }
            });
        }
        let stats = sim.run();
        assert_eq!(stats.end_time, SimTime::ZERO);
        assert_eq!(
            *log.lock().unwrap(),
            vec![("a", 0), ("b", 0), ("a", 1), ("b", 1), ("a", 2), ("b", 2)]
        );
        assert_eq!(
            stats.handoffs, stats.events_processed,
            "no resume was its own"
        );
    }

    #[test]
    fn lone_ticker_never_switches_contexts() {
        let mut sim: Simulation<()> = Simulation::new();
        sim.spawn("ticker", |ctx| {
            for _ in 0..1000 {
                ctx.advance(SimTime::from_micros(1));
            }
        });
        let stats = sim.run();
        assert_eq!(stats.reason, StopReason::Completed);
        assert_eq!(stats.events_processed, 1001);
        assert!(stats.handoffs <= 1, "handoffs = {}", stats.handoffs);
    }

    #[test]
    fn handoffs_count_only_resumes_of_another_process() {
        let mut sim: Simulation<()> = Simulation::new();
        sim.spawn("ticker", |ctx| {
            for _ in 0..10 {
                ctx.advance(SimTime::from_millis(1));
            }
        });
        sim.spawn("sleeper", |ctx| ctx.advance(SimTime::from_millis(100)));
        let stats = sim.run();
        assert_eq!(stats.events_processed, 13);
        // Context switches: run -> ticker -> sleeper (first resumes), sleeper
        // -> ticker at 1 ms, then nine self-resumes without one, and the
        // exiting ticker -> sleeper at 100 ms.
        assert_eq!(stats.handoffs, 4);
    }

    #[test]
    fn kill_is_reaped_before_the_killers_own_resume() {
        struct NoteDrop(Arc<Mutex<Vec<&'static str>>>);
        impl Drop for NoteDrop {
            fn drop(&mut self) {
                self.0.lock().unwrap().push("victim unwound");
            }
        }
        let mut sim: Simulation<()> = Simulation::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let log2 = Arc::clone(&log);
        let victim = sim.spawn("victim", move |ctx| {
            let _note = NoteDrop(log2);
            ctx.recv();
        });
        let log3 = Arc::clone(&log);
        sim.spawn("killer", move |ctx| {
            ctx.advance(SimTime::from_millis(1));
            assert!(ctx.kill(victim));
            // The next event is this process's own resume: the fast path
            // must still let `run` reap the victim first.
            ctx.yield_now();
            log3.lock().unwrap().push("killer resumed");
        });
        let stats = sim.run();
        assert_eq!(stats.reason, StopReason::Completed);
        assert_eq!(
            *log.lock().unwrap(),
            vec!["victim unwound", "killer resumed"]
        );
    }

    #[test]
    fn yield_now_lets_same_time_events_run() {
        let mut sim: Simulation<u32> = Simulation::new();
        let out = Arc::new(Mutex::new(0u32));
        let out2 = Arc::clone(&out);
        let rx = sim.spawn("rx", move |ctx| {
            *out2.lock().unwrap() = ctx.recv();
        });
        sim.spawn("tx", move |ctx| {
            ctx.send(rx, SimTime::ZERO, 9);
            ctx.yield_now();
            assert_eq!(ctx.now(), SimTime::ZERO);
        });
        sim.run();
        assert_eq!(*out.lock().unwrap(), 9);
    }

    #[test]
    fn kill_unwinds_blocked_process() {
        let mut sim: Simulation<u32> = Simulation::new();
        let victim = sim.spawn("victim", |ctx| {
            let _ = ctx.recv(); // would deadlock without the kill
        });
        sim.spawn("killer", move |ctx| {
            ctx.advance(SimTime::from_millis(5));
            assert!(ctx.is_live(victim));
            assert!(ctx.kill(victim));
            assert!(!ctx.is_live(victim));
        });
        let stats = sim.run();
        assert_eq!(stats.reason, StopReason::Completed);
        assert_eq!(stats.kills, 1);
    }

    #[test]
    fn messages_to_killed_process_are_dead_letters() {
        let mut sim: Simulation<u32> = Simulation::new();
        let victim = sim.spawn("victim", |ctx| {
            ctx.recv();
        });
        sim.spawn("killer", move |ctx| {
            ctx.advance(SimTime::from_millis(1));
            ctx.kill(victim);
            // Arrives after the kill: must be dropped, not delivered.
            ctx.send(victim, SimTime::from_millis(1), 5);
        });
        let stats = sim.run();
        assert_eq!(stats.reason, StopReason::Completed);
        assert_eq!(stats.dead_letters, 1);
    }

    #[test]
    fn kill_finished_process_is_noop() {
        let mut sim: Simulation<()> = Simulation::new();
        let early = sim.spawn("early", |_ctx| {});
        sim.spawn("late", move |ctx| {
            ctx.advance(SimTime::from_secs(1));
            assert!(!ctx.kill(early));
        });
        let stats = sim.run();
        assert_eq!(stats.kills, 0);
    }

    #[test]
    fn respawn_mid_run_starts_at_current_time() {
        let mut sim: Simulation<u32> = Simulation::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        let log2 = Arc::clone(&log);
        sim.spawn("parent", move |ctx| {
            ctx.advance(SimTime::from_millis(10));
            let log3 = Arc::clone(&log2);
            let child = ctx.spawn("child", move |cctx| {
                log3.lock().unwrap().push(("child-start", cctx.now()));
                let m = cctx.recv();
                log3.lock().unwrap().push(("child-recv", cctx.now()));
                assert_eq!(m, 77);
            });
            assert_eq!(child, Pid(1));
            ctx.send(child, SimTime::from_millis(5), 77);
        });
        let stats = sim.run();
        assert_eq!(stats.reason, StopReason::Completed);
        assert_eq!(
            *log.lock().unwrap(),
            vec![
                ("child-start", SimTime::from_millis(10)),
                ("child-recv", SimTime::from_millis(15)),
            ]
        );
    }

    #[test]
    fn kill_and_respawn_cycle() {
        // Crash/restart pattern: a daemon kills a worker, then respawns a
        // replacement that picks up where the checkpoint left off.
        let mut sim: Simulation<u32> = Simulation::new();
        let progress = Arc::new(Mutex::new(Vec::new()));
        let p2 = Arc::clone(&progress);
        let worker = sim.spawn("worker", move |ctx| loop {
            ctx.advance(SimTime::from_millis(10));
            p2.lock().unwrap().push(("w0", ctx.now()));
        });
        let p3 = Arc::clone(&progress);
        sim.spawn("daemon", move |ctx| {
            ctx.advance(SimTime::from_millis(25));
            assert!(ctx.kill(worker));
            ctx.advance(SimTime::from_millis(20));
            let p4 = Arc::clone(&p3);
            ctx.spawn("worker-restarted", move |wctx| {
                for _ in 0..2 {
                    wctx.advance(SimTime::from_millis(10));
                    p4.lock().unwrap().push(("w1", wctx.now()));
                }
            });
        });
        let stats = sim.run();
        assert_eq!(stats.reason, StopReason::Completed);
        assert_eq!(stats.kills, 1);
        assert_eq!(
            *progress.lock().unwrap(),
            vec![
                ("w0", SimTime::from_millis(10)),
                ("w0", SimTime::from_millis(20)),
                ("w1", SimTime::from_millis(55)),
                ("w1", SimTime::from_millis(65)),
            ]
        );
    }

    #[test]
    fn tracing_is_deterministic_across_runs() {
        fn trace_once() -> Vec<TraceRecord> {
            let mut sim: Simulation<u32> = Simulation::new();
            sim.enable_tracing();
            let rx = sim.spawn("rx", |ctx| {
                for _ in 0..4 {
                    ctx.recv();
                }
            });
            for i in 0..2u64 {
                sim.spawn(format!("tx{i}"), move |ctx| {
                    for k in 0..2u64 {
                        ctx.advance(SimTime::from_millis(3 + i));
                        ctx.send(rx, SimTime::from_millis(k), (i * 10 + k) as u32);
                    }
                });
            }
            sim.run().trace.expect("tracing enabled")
        }
        assert_eq!(trace_once(), trace_once());
    }

    #[test]
    fn event_hook_sees_the_exact_trace_stream() {
        use std::sync::Arc as StdArc;
        let streamed: StdArc<Mutex<Vec<TraceRecord>>> = StdArc::new(Mutex::new(Vec::new()));
        let streamed2 = StdArc::clone(&streamed);
        let mut sim: Simulation<u32> = Simulation::new();
        sim.enable_tracing();
        sim.set_event_hook(move |rec| streamed2.lock().unwrap().push(*rec));
        let rx = sim.spawn("rx", |ctx| {
            let _ = ctx.recv();
            let _ = ctx.recv();
        });
        sim.spawn("tx", move |ctx| {
            ctx.advance(SimTime::from_millis(1));
            ctx.send(rx, SimTime::from_millis(2), 7);
            let grand = ctx.spawn("grand", move |ctx2| {
                ctx2.send(rx, SimTime::ZERO, 8);
            });
            assert!(grand.index() > 0);
        });
        let stats = sim.run();
        let trace = stats.trace.expect("tracing enabled");
        assert_eq!(*streamed.lock().unwrap(), trace);
        assert!(trace.iter().any(|r| r.kind == 3), "spawn event present");
    }
}
