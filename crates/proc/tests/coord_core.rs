//! Seeded interleavings of the coordinator's real state machine
//! ([`CoordCore`]) and a real [`Hub`], with no process, socket, thread,
//! sleep or wall clock. A simulated cohort of worker processes shakes
//! hands and sends requests (heartbeats, gossip, AD-PSGD exchanges,
//! completion) over links that drop, duplicate, delay and echo frames;
//! links break and resume, processes are killed and reaped, and the clock
//! ticks — all in a seed-chosen order. Handler threads are dispatches that
//! may park and answer later. The harness plays the coordinator shell: it
//! applies every [`Effect`] the core queues, and checks after every step:
//!
//! 1. every request is dispatched exactly once, and a worker only ever
//!    takes the reply its own request's dispatch produced;
//! 2. a rank is evicted only after its process exits or its reconnect
//!    window expires;
//! 3. each death causes at most one eviction;
//! 4. every exchange waiting on a dead or retired rank resolves `Gone`,
//!    whether it was still queued or already taken;
//! 5. the run is done exactly when every rank has finished, or is dead
//!    with no rejoin pending.
//!
//! A failure prints its seed and op log; `interleave(seed)` is a function
//! of the seed alone, so that one call reproduces it. The named tests at
//! the end pin single choreographies.

use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use dtrain_nn::ParamSet;
use dtrain_obs::names;
use dtrain_proc::coord_core::{CoordCore, Effect, Outcome, Phase};
use dtrain_proc::{Inbound, ProcConfig, RejoinSpec, ResumeDecision};
use dtrain_runtime::hub::{Hub, PeerItem, Reply};
use dtrain_runtime::RunPlan;
use rand::prelude::*;

const WINDOW: Duration = Duration::from_millis(100);
const SEEDS: u64 = 1200;
const STEPS: usize = 200;

fn empty() -> ParamSet {
    ParamSet(Vec::new())
}

/// The configuration the core reads: ranks, reconnect window, rejoin.
fn config(workers: usize, rejoin: Option<RejoinSpec>) -> ProcConfig {
    let mut cfg = ProcConfig {
        reconnect_window: WINDOW,
        rejoin,
        ..ProcConfig::default()
    };
    cfg.plan.workers = workers;
    cfg
}

fn outcome() -> Outcome {
    Outcome {
        iterations: 0,
        logical_bytes: 0,
        busy_ms: 0,
        params: empty(),
    }
}

#[derive(Clone, Copy, Debug)]
enum Req {
    /// The handshake's seq; never dispatched as a request.
    Hello,
    Heartbeat(u64),
    Gossip(usize),
    Drain,
    Request(usize),
    Await,
    Poll,
    Respond(u64),
    Complete,
}

/// One simulated worker process.
#[derive(Default)]
struct Worker {
    rank: usize,
    life: u32,
    killed: bool,
    reaped: bool,
    shook: bool,
    /// The connection it talks on (`None`: its link is down).
    conn: Option<u64>,
    /// The latest connection the core admitted for it, and since when the
    /// core has known that connection dropped.
    gen: u64,
    down_since: Option<Duration>,
    /// Resumed while its request's dispatch was still running.
    replay_wait: bool,
    /// Its requests by seq; the last is in flight while `waiting`.
    reqs: Vec<Req>,
    waiting: bool,
    round: u64,
    /// Exchange tokens it polled and has not answered.
    taken: Vec<u64>,
    death_recorded: bool,
    done: bool,
}

impl Worker {
    fn seq(&self) -> u32 {
        self.reqs.len() as u32 - 1
    }
}

/// A reply frame names the process and request it answers.
fn frame_for(rank: usize, life: u32, seq: u32) -> Vec<u8> {
    [rank as u32, life, seq]
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect()
}

fn parse(frame: &[u8]) -> (usize, u32, u32) {
    let word = |i: usize| u32::from_le_bytes(frame[4 * i..4 * i + 4].try_into().unwrap());
    (word(0) as usize, word(1), word(2))
}

struct World {
    rng: SmallRng,
    core: CoordCore,
    hub: Hub,
    ranks: usize,
    rejoin: Option<RejoinSpec>,
    /// Every process ever spawned; a rank's last one is its current one.
    procs: Vec<Worker>,
    now: Duration,
    /// Frames on the wire `(process, connection, seq)`, in order per
    /// connection.
    wire: Vec<(usize, u64, u32)>,
    /// Connections whose far end closed, not yet seen by their handler.
    eofs: Vec<(usize, u64)>,
    /// Dispatches parked on their handler `(process, connection, seq,
    /// awaited token)`.
    parked: Vec<(usize, u64, u32, Option<u64>)>,
    dispatches: HashMap<(usize, u32, u32), u32>,
    /// Exchanges not yet resolved: token → (target, answered).
    tokens: BTreeMap<u64, (usize, bool)>,
    finished: Vec<bool>,
    dead_final: Vec<bool>,
    evictions: u64,
    rejoined: u64,
    log: Vec<String>,
}

impl World {
    fn new(seed: u64) -> World {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ranks = rng.gen_range(2..=4);
        let rejoin = rng.gen_bool(0.5).then(|| RejoinSpec {
            worker: rng.gen_range(0..ranks),
            at_round: rng.gen_range(0..6),
        });
        let plan = RunPlan {
            workers: ranks,
            ..RunPlan::default()
        };
        World {
            rng,
            core: CoordCore::new(&config(ranks, rejoin)),
            hub: Hub::new(empty(), &plan, None),
            ranks,
            rejoin,
            procs: (0..ranks)
                .map(|rank| Worker {
                    rank,
                    ..Worker::default()
                })
                .collect(),
            now: Duration::ZERO,
            wire: Vec::new(),
            eofs: Vec::new(),
            parked: Vec::new(),
            dispatches: HashMap::new(),
            tokens: BTreeMap::new(),
            finished: vec![false; ranks],
            dead_final: vec![false; ranks],
            evictions: 0,
            rejoined: 0,
            log: vec![format!("{ranks} ranks, rejoin {rejoin:?}")],
        }
    }

    fn note(&mut self, p: usize, what: String) {
        let w = &self.procs[p];
        let line = format!("{:>5?} r{}/{} {what}", self.now, w.rank, w.life);
        self.log.push(line);
    }

    fn current(&self, rank: usize) -> usize {
        self.procs.iter().rposition(|w| w.rank == rank).unwrap()
    }

    /// A random process satisfying `f`.
    fn pick(&mut self, f: impl Fn(&Worker) -> bool) -> Option<usize> {
        let eligible: Vec<usize> = (0..self.procs.len())
            .filter(|&p| f(&self.procs[p]))
            .collect();
        eligible.choose(&mut self.rng).copied()
    }

    fn other_rank(&mut self, rank: usize) -> usize {
        (rank + self.rng.gen_range(1..self.ranks)) % self.ranks
    }

    /// Play the shell: apply what the core queued, checking properties 2
    /// and 3 at every eviction and property 4 after every hub eviction or
    /// retirement. `reaped` is the process whose exit was just reported.
    fn apply(&mut self, reaped: Option<usize>) {
        let effects = self.core.drain();
        for (i, &effect) in effects.iter().enumerate() {
            if !matches!(effect, Effect::Marker(..) | Effect::Wake) {
                self.log.push(format!("{:>5?} core: {effect:?}", self.now));
            }
            match effect {
                Effect::Evict(w) => {
                    let p = self.current(w);
                    let (life, down) = (self.procs[p].life, self.procs[p].down_since);
                    assert!(
                        !self.procs[p].death_recorded,
                        "property 3: rank {w}'s process {life} evicted twice"
                    );
                    let expired = down.is_some_and(|t| self.now - t >= WINDOW);
                    assert!(
                        reaped == Some(p) || expired,
                        "property 2: rank {w} evicted while process {life} lives and its \
                         reconnect window runs (down since {down:?})"
                    );
                    assert!(effects[..i].contains(&Effect::Marker(names::CRASH, w as i64)));
                    self.procs[p].death_recorded = true;
                    self.evictions += 1;
                    let rejoins = life == 0 && self.rejoin.is_some_and(|s| s.worker == w);
                    let spawned = effects[i..].contains(&Effect::Spawn(w, 1));
                    assert_eq!(
                        spawned, rejoins,
                        "rank {w}: a replacement iff a rejoin is due"
                    );
                    self.dead_final[w] = !rejoins;
                    self.hub.evict(w);
                    self.all_gone(w);
                }
                Effect::Retire(w) => {
                    self.finished[w] = true;
                    self.hub.retire(w);
                    self.all_gone(w);
                }
                Effect::Spawn(rank, life) => self.procs.push(Worker {
                    rank,
                    life,
                    ..Worker::default()
                }),
                Effect::Marker(..) | Effect::Wake => {}
            }
        }
    }

    /// Property 4: nothing waits on `b` any more, queued or taken.
    fn all_gone(&mut self, b: usize) {
        let waiting: Vec<u64> = self
            .tokens
            .iter()
            .filter(|&(_, &(target, answered))| target == b && !answered)
            .map(|(&token, _)| token)
            .collect();
        for token in waiting {
            let reply = self.hub.exchange_await(token, Some(Duration::ZERO));
            assert!(
                matches!(reply, Reply::Gone),
                "property 4: exchange {token} at rank {b} still waits after the rank left"
            );
            self.tokens.remove(&token);
        }
    }

    /// Process `p` reads a reply frame; it takes it only if it answers the
    /// request it has in flight.
    fn receive(&mut self, p: usize, frame: &[u8]) {
        let (rank, life, seq) = parse(frame);
        let w = &mut self.procs[p];
        assert_eq!(
            (rank, life),
            (w.rank, w.life),
            "property 1: a process took another process's reply"
        );
        assert!(seq <= w.seq(), "a reply from the future");
        w.replay_wait = false;
        if seq == w.seq() && w.waiting {
            w.waiting = false;
            let once = self.dispatches.get(&(rank, life, seq)) == Some(&1);
            assert!(
                once,
                "property 1: r{rank}/{life} seq {seq} answered without one dispatch"
            );
            if matches!(w.reqs[seq as usize], Req::Complete) {
                w.done = true;
                self.kill(p);
            }
        }
    }

    fn deliver(&mut self, p: usize, g: u64, seq: u32) {
        let rank = self.procs[p].rank;
        match self.core.frame(rank, g, seq) {
            Inbound::Fresh => self.dispatch(p, g, seq),
            Inbound::Duplicate(Some((_, frame))) if self.procs[p].conn == Some(g) => {
                self.receive(p, &frame)
            }
            Inbound::Duplicate(_) | Inbound::Stale => {}
        }
    }

    fn dispatch(&mut self, p: usize, g: u64, seq: u32) {
        let (rank, life) = (self.procs[p].rank, self.procs[p].life);
        let req = self.procs[p].reqs[seq as usize];
        let n = self.dispatches.entry((rank, life, seq)).or_default();
        *n += 1;
        assert_eq!(
            *n, 1,
            "property 1: r{rank}/{life} seq {seq} dispatched twice"
        );
        let mut awaited = None;
        match req {
            Req::Hello => panic!("a Hello's seq was dispatched as a request"),
            Req::Heartbeat(round) => assert!(!self.core.heartbeat(rank, round).1),
            Req::Gossip(target) => self.hub.gossip_send(target, empty(), 0.5),
            Req::Drain => drop(self.hub.gossip_drain(rank)),
            Req::Request(target) => {
                let token = self.hub.exchange_request(rank, target, empty());
                *self.core.token(rank) = Some(token);
                self.tokens.insert(token, (target, false));
            }
            Req::Await => awaited = self.core.token(rank).take(),
            Req::Poll => {
                if let Some(PeerItem::Exchange { token, .. }) = self.hub.exchange_next(rank, false)
                {
                    self.procs[p].taken.push(token);
                }
            }
            Req::Respond(token) => {
                self.hub.exchange_respond(token, empty());
                if let Some(t) = self.tokens.get_mut(&token) {
                    t.1 = true;
                }
            }
            Req::Complete => self.core.complete(rank, outcome()),
        }
        self.apply(None);
        if awaited.is_some() || self.rng.gen_bool(0.3) {
            self.parked.push((p, g, seq, awaited));
        } else {
            self.answer(p, g, seq);
        }
    }

    /// A handler's dispatch finished: cache, then write unless superseded.
    fn answer(&mut self, p: usize, g: u64, seq: u32) {
        let (rank, life) = (self.procs[p].rank, self.procs[p].life);
        let frame = Arc::new(frame_for(rank, life, seq));
        let superseded = self.core.reply(rank, g, seq, (0, Arc::clone(&frame)));
        self.apply(None);
        if !superseded && self.procs[p].conn == Some(g) {
            self.receive(p, &frame);
        }
    }

    /// `p`'s link fails: its side knows now, the handler sees EOF later.
    fn break_link(&mut self, p: usize) {
        if let Some(g) = self.procs[p].conn.take() {
            self.eofs.push((p, g));
        }
        self.procs[p].replay_wait = false;
    }

    fn kill(&mut self, p: usize) {
        self.procs[p].killed = true;
        self.break_link(p);
    }

    /// Would the core take a `Hello` for `rank` from its current process?
    fn awaiting_hello(&self, rank: usize) -> bool {
        let w = &self.procs[self.current(rank)];
        !w.shook && !w.reaped
    }

    fn step(&mut self) {
        match self.rng.gen_range(0..20) {
            0..=1 => self.hello(),
            2..=5 => self.send(),
            6..=9 => self.arrive(),
            10 => {
                if let Some(p) = self.pick(|w| w.conn.is_some()) {
                    self.note(p, "link breaks".into());
                    self.break_link(p);
                }
            }
            11 => self.eof(),
            12 => self.resume(),
            13 => self.replay(),
            14..=15 => self.unpark(),
            16 => {
                let p = self.pick(|w| !w.killed);
                if let Some(p) = p.filter(|_| self.rng.gen_bool(0.25)) {
                    self.note(p, "killed".into());
                    self.kill(p);
                }
            }
            17 => {
                if let Some(p) = self.pick(|w| w.killed && !w.reaped) {
                    self.reap(p);
                }
            }
            18 => {
                self.now += Duration::from_millis(self.rng.gen_range(0..40));
                self.log.push(format!("{:>5?} tick", self.now));
                self.core.tick(self.now);
                self.apply(None);
            }
            _ if self.rng.gen_bool(0.5) => self.rogue_hello(),
            _ => self.stale_echo(),
        }
        let done = (0..self.ranks).all(|w| self.finished[w] || self.dead_final[w]);
        assert_eq!(
            self.core.done(),
            done,
            "property 5: done() disagrees with finished {:?} / dead {:?}",
            self.finished,
            self.dead_final
        );
    }

    fn hello(&mut self) {
        let Some(p) = self.pick(|w| !w.killed && !w.shook) else {
            return;
        };
        let (rank, life) = (self.procs[p].rank, self.procs[p].life);
        let admitted = self.core.hello(rank, 1);
        self.note(p, format!("hello -> {admitted:?}"));
        let (start, g) = admitted.expect("a fresh process's Hello is admitted");
        let pinned = if life == 0 {
            0
        } else {
            self.rejoin.unwrap().at_round
        };
        assert_eq!(start, pinned, "start round");
        self.rejoined += u64::from(life > 0);
        let w = &mut self.procs[p];
        (w.shook, w.conn, w.gen, w.round) = (true, Some(g), g, start);
        w.reqs = vec![Req::Hello, Req::Hello];
        self.apply(None);
    }

    fn send(&mut self) {
        let ready = |w: &Worker| w.shook && !w.killed && !w.done && !w.waiting && !w.replay_wait;
        let Some(p) = self.pick(ready) else {
            return;
        };
        let rank = self.procs[p].rank;
        let req = match self.rng.gen_range(0..10) {
            0..=2 => {
                self.procs[p].round += 1;
                Req::Heartbeat(self.procs[p].round)
            }
            3 => Req::Gossip(self.other_rank(rank)),
            4 => Req::Drain,
            5 => Req::Request(self.other_rank(rank)),
            6 => Req::Await,
            7 => Req::Poll,
            8 => self.procs[p].taken.pop().map_or(Req::Poll, Req::Respond),
            _ => Req::Complete,
        };
        let w = &mut self.procs[p];
        w.reqs.push(req);
        w.waiting = true;
        let (seq, conn) = (w.seq(), w.conn);
        // Dropped, sent, or duplicated by the link.
        let copies: usize = [0, 1, 1, 1, 1, 1, 1, 2][self.rng.gen_range(0..8usize)];
        self.note(p, format!("sends seq {seq} {req:?} on {conn:?} x{copies}"));
        match conn {
            Some(_) if copies == 0 => self.break_link(p),
            Some(g) => self.wire.extend(std::iter::repeat_n((p, g, seq), copies)),
            None => {}
        }
    }

    /// The oldest frame of a random connection arrives.
    fn arrive(&mut self) {
        let Some(&(p, g, _)) = self.wire.choose(&mut self.rng) else {
            return;
        };
        let first = self.wire.iter().position(|&(q, h, _)| (q, h) == (p, g));
        let (_, _, seq) = self.wire.remove(first.unwrap());
        self.note(p, format!("frame seq {seq} arrives on {g}"));
        self.deliver(p, g, seq);
    }

    /// A handler sees its connection's EOF, after the frames before it.
    fn eof(&mut self) {
        if self.eofs.is_empty() {
            return;
        }
        let (p, g) = self.eofs.remove(self.rng.gen_range(0..self.eofs.len()));
        while let Some(i) = self.wire.iter().position(|&(q, h, _)| (q, h) == (p, g)) {
            let (_, _, seq) = self.wire.remove(i);
            self.deliver(p, g, seq);
        }
        self.note(p, format!("handler of {g} sees EOF"));
        let rank = self.procs[p].rank;
        self.core.disconnect(rank, g, self.now);
        let w = &self.procs[p];
        if p == self.current(rank) && g == w.gen && !w.death_recorded && !self.finished[rank] {
            self.procs[p].down_since.get_or_insert(self.now);
        }
    }

    fn resume(&mut self) {
        let lost = |w: &Worker| w.shook && !w.killed && !w.done && w.waiting && w.conn.is_none();
        let Some(p) = self.pick(lost) else {
            return;
        };
        let w = &self.procs[p];
        let (rank, seq) = (w.rank, w.seq());
        let refused = w.life > 0 || w.death_recorded || self.finished[rank];
        let admitted = self.core.resume(rank, seq, 1);
        self.note(p, format!("resumes at seq {seq} -> {admitted:?}"));
        match admitted {
            // It gives up when its own window runs out.
            None => {
                assert!(refused, "a live rank's resume was refused");
                self.kill(p);
            }
            Some((g, decision)) => {
                assert!(
                    !refused,
                    "resume admitted for a dead, finished or replaced rank"
                );
                let w = &mut self.procs[p];
                (w.conn, w.gen, w.down_since) = (Some(g), g, None);
                match decision {
                    ResumeDecision::RequestResend => self.wire.push((p, g, seq)),
                    ResumeDecision::ResendCached(_, frame) => self.receive(p, &frame),
                    ResumeDecision::AwaitInFlight => w.replay_wait = true,
                    ResumeDecision::Refuse => panic!("the core hands out no Refuse"),
                }
            }
        }
        self.apply(None);
    }

    /// A resumed connection waiting on a parked dispatch checks the cache.
    fn replay(&mut self) {
        let Some(p) = self.pick(|w| w.replay_wait) else {
            return;
        };
        let (rank, g) = (self.procs[p].rank, self.procs[p].conn.unwrap());
        let session = self.core.session(rank);
        if session.generation != g {
            self.note(p, format!("replay wait on {g} superseded"));
            self.break_link(p);
        } else if let Some((_, frame)) = session.cached.clone() {
            self.note(p, format!("replayed on {g}"));
            self.receive(p, &frame);
        }
    }

    fn unpark(&mut self) {
        if self.parked.is_empty() {
            return;
        }
        let (p, g, seq, awaited) = self.parked.remove(self.rng.gen_range(0..self.parked.len()));
        if let Some(token) = awaited {
            match self.hub.exchange_await(token, Some(Duration::ZERO)) {
                Reply::TimedOut => return self.parked.push((p, g, seq, awaited)),
                Reply::Ready(_) | Reply::Gone => {
                    self.tokens.remove(&token);
                }
            }
        }
        self.note(p, format!("handler of {g} answers seq {seq}"));
        self.answer(p, g, seq);
    }

    fn reap(&mut self, p: usize) {
        self.note(p, "exit reported".into());
        self.procs[p].reaped = true;
        let (rank, life) = (self.procs[p].rank, self.procs[p].life);
        self.core.exit(rank, life);
        self.apply(Some(p));
    }

    /// A `Hello` the core must refuse: the rank finished, died for good or
    /// already shook hands — or does not exist. No effect, no counter.
    fn rogue_hello(&mut self) {
        let rank = self.rng.gen_range(0..=self.ranks);
        if rank < self.ranks && self.awaiting_hello(rank) {
            return;
        }
        self.log
            .push(format!("{:>5?} rogue Hello for r{rank}", self.now));
        let tally = self.core.tally();
        assert_eq!(self.core.hello(rank, self.rng.gen_range(1..9)), None);
        assert_eq!(self.core.drain(), vec![], "a refused Hello had effects");
        assert_eq!(self.core.tally(), tally, "a refused Hello moved a counter");
    }

    /// The link echoes an old request long after its reply was consumed.
    fn stale_echo(&mut self) {
        let Some(p) = self.pick(|w| w.conn.is_some() && !w.replay_wait && w.reqs.len() > 3) else {
            return;
        };
        let seq = self.rng.gen_range(2..self.procs[p].seq());
        self.note(p, format!("echo of seq {seq}"));
        self.deliver(p, self.procs[p].conn.unwrap(), seq);
    }

    /// Every process exits; once the reaper has reported them all (and any
    /// replacement those deaths spawned), the run must be done.
    fn wind_down(&mut self) {
        while let Some(p) = self.procs.iter().position(|w| !w.reaped) {
            self.kill(p);
            self.reap(p);
        }
        assert!(
            self.core.done(),
            "property 5: every process exited, run not done"
        );
        let tally = self.core.tally();
        assert_eq!(tally.evictions, self.evictions);
        assert_eq!(tally.rejoins, self.rejoined);
    }
}

/// One seeded interleaving; panics with its seed and op log on a failure.
fn interleave(seed: u64) {
    let mut world = World::new(seed);
    let run = catch_unwind(AssertUnwindSafe(|| {
        for _ in 0..STEPS {
            world.step();
        }
        world.wind_down();
    }));
    if let Err(panic) = run {
        eprintln!(
            "seed {seed} failed; `interleave({seed})` reproduces it. Op log:\n{}",
            world.log.join("\n")
        );
        resume_unwind(panic);
    }
}

#[test]
fn seeded_interleavings_keep_the_five_properties() {
    for seed in 0..SEEDS {
        interleave(seed);
    }
}

/// Connect every rank of a fresh core.
fn connected(workers: usize, rejoin: Option<RejoinSpec>) -> CoordCore {
    let mut core = CoordCore::new(&config(workers, rejoin));
    for w in 0..workers {
        assert_eq!(core.hello(w, 1), Some((0, 1)));
    }
    core.drain();
    core
}

fn death(w: usize) -> Vec<Effect> {
    let markers = [names::CRASH, names::EVICT, names::SHARD_FAILOVER];
    let mut effects = markers.map(|name| Effect::Marker(name, w as i64)).to_vec();
    effects.push(Effect::Evict(w));
    effects
}

/// A rejoin replacement's death is recorded like the original's — markers,
/// one more eviction, no second replacement — and the rank then counts as
/// done, its iterations both processes' heartbeat rounds. Late or repeated
/// exit reports change nothing.
#[test]
fn a_rejoin_replacements_death_is_recorded_once() {
    let spec = RejoinSpec {
        worker: 1,
        at_round: 4,
    };
    let mut core = connected(2, Some(spec));
    for round in 0..=2 {
        core.heartbeat(1, round); // rounds 0 and 1 executed, about to run 2
    }
    core.exit(1, 0);
    let mut first = death(1);
    first.extend([Effect::Spawn(1, 1), Effect::Wake]);
    assert_eq!(core.drain(), first);
    assert_eq!(core.phase(1), Phase::Rejoining(4));

    assert_eq!(core.hello(1, 1), Some((4, 2)));
    assert!(core.drain().contains(&Effect::Marker(names::REJOIN, 1)));
    for round in 4..=7 {
        core.heartbeat(1, round); // rounds 4-6 executed
    }
    core.exit(1, 1);
    let mut second = death(1);
    second.push(Effect::Wake);
    assert_eq!(
        core.drain(),
        second,
        "the replacement's death, no second spawn"
    );
    core.exit(1, 1);
    core.exit(1, 0);
    assert_eq!(core.drain(), vec![], "each death is recorded once");
    assert_eq!(core.phase(1), Phase::Dead);
    assert!(!core.done(), "rank 0 still runs");

    core.complete(0, outcome());
    assert!(core.done());
    let tally = core.tally();
    assert_eq!((tally.evictions, tally.rejoins), (2, 1));
    assert_eq!(core.worker_stats()[1].iterations, 2 + 3);
    assert!(core.worker_stats()[1].evicted);
    // The view holds the first death and the rejoin, nothing more.
    assert_eq!(core.view().live_at(3), vec![0]);
    assert_eq!(core.view().live_at(9), vec![0, 1]);
}

/// A `Hello` is wire input: for a rank that finished, died with no rejoin
/// scheduled, or already shook hands — or is out of range — the core
/// drops the connection with no counter and no marker.
#[test]
fn hello_is_refused_unless_a_process_awaits_its_handshake() {
    let mut core = connected(3, None);
    core.complete(0, outcome());
    core.exit(1, 0);
    core.drain();
    let tally = core.tally();
    for w in 0..4 {
        assert_eq!(core.hello(w, 1), None, "rank {w}");
        assert_eq!(core.drain(), vec![], "rank {w}");
    }
    assert_eq!(core.tally(), tally);
    assert_eq!(
        [0, 1, 2].map(|w| core.phase(w)),
        [Phase::Finished, Phase::Dead, Phase::Connected]
    );
    // A live rank's session was not reset by the rogue handshake.
    assert_eq!(core.frame(2, 1, 2), Inbound::Fresh);
}

/// A resume stops the disconnect clock: the window that expires afterwards
/// evicts nobody, and only a second drop restarts it.
#[test]
fn a_resume_stops_the_disconnect_clock() {
    let mut core = connected(2, None);
    core.disconnect(0, 1, Duration::from_millis(10));
    let (generation, _) = core.resume(0, 1, 1).expect("a live rank resumes");
    core.tick(Duration::from_millis(500));
    assert_eq!(core.phase(0), Phase::Connected);
    core.disconnect(0, 1, Duration::from_millis(510)); // the old socket: ignored
    core.disconnect(0, generation, Duration::from_millis(520));
    core.tick(Duration::from_millis(619));
    assert_eq!(
        core.phase(0),
        Phase::Disconnected(Duration::from_millis(520))
    );
    core.tick(Duration::from_millis(620));
    assert_eq!(core.phase(0), Phase::Dead);
    assert_eq!(core.tally().evictions, 1);
}

/// A message type no worker sends is its process's death at once, not a
/// disconnect whose window the process could keep alive by resuming into a
/// request that will never be answered. Only the live connection counts.
#[test]
fn a_protocol_violation_is_a_death_at_once() {
    let mut core = connected(2, None);
    core.violation(0, 2); // no such connection
    assert_eq!(core.drain(), vec![]);
    core.violation(0, 1);
    let mut effects = death(0);
    effects.push(Effect::Wake);
    assert_eq!(core.drain(), effects);
    assert_eq!(core.phase(0), Phase::Dead);
    assert_eq!(core.resume(0, 1, 1), None, "the dead rank cannot resume");
    core.violation(0, 1);
    core.exit(0, 0);
    assert_eq!(core.drain(), vec![], "one death, one eviction");
    assert_eq!(core.tally().evictions, 1);
}

/// A frame read on a connection that a resume superseded is stale: the
/// resend on the new connection is the one dispatched, so its reply goes
/// out where the worker is listening.
#[test]
fn frames_on_a_superseded_connection_are_stale() {
    let mut core = connected(1, None);
    // Seq 2 sits unread in connection 1's buffer when the worker resumes.
    let (generation, decision) = core.resume(0, 2, 1).expect("a live rank resumes");
    assert_eq!(decision, ResumeDecision::RequestResend);
    assert_eq!(core.frame(0, 1, 2), Inbound::Stale, "the old socket's copy");
    assert_eq!(core.frame(0, generation, 2), Inbound::Fresh, "the resend");
    let reply = Arc::new(frame_for(0, 0, 2));
    assert!(
        !core.reply(0, generation, 2, (0, reply)),
        "written on the live connection"
    );
}

/// A dispatch still parked when its process died never caches its reply
/// into the replacement's session, even when their seqs collide.
#[test]
fn a_dead_processs_late_reply_is_not_replayed_to_its_replacement() {
    let spec = RejoinSpec {
        worker: 0,
        at_round: 1,
    };
    let mut core = connected(2, Some(spec));
    assert_eq!(core.frame(0, 1, 2), Inbound::Fresh); // parks
    core.exit(0, 0);
    assert_eq!(core.hello(0, 1), Some((1, 2)));
    assert_eq!(core.frame(0, 2, 2), Inbound::Fresh); // the replacement's seq 2
    assert!(core.reply(0, 1, 2, (0, Arc::new(frame_for(0, 0, 2)))));
    assert_eq!(core.frame(0, 2, 2), Inbound::Duplicate(None));
    let reply = Arc::new(frame_for(0, 1, 2));
    assert!(!core.reply(0, 2, 2, (0, Arc::clone(&reply))));
    assert_eq!(core.frame(0, 2, 2), Inbound::Duplicate(Some((0, reply))));
}
