//! Seeded interleavings of the coordinator's real state machine
//! ([`CoordCore`]) and a real [`Hub`], with no process, socket, thread,
//! sleep or wall clock. A simulated cohort of worker processes shakes
//! hands and sends requests — heartbeats, flat and partial BSP rounds, SSP clock bumps and waits, collective sends
//! and reads, gossip, AD-PSGD exchanges with polls and blocking reads,
//! completion — over links that drop, duplicate, delay and echo frames;
//! links break and resume, processes are killed and reaped, the pause gate
//! opens, and the clock ticks the core and the hub — all in a seed-chosen
//! order. A request the hub cannot answer yet parks, and a later call
//! releases its answer. A BSP deposit is also the rank's heartbeat for the
//! next round, as on the wire, so it can hit the pause gate too; the frozen
//! process's answer is cached but held back until the gate opens. The
//! harness plays the coordinator shell: it applies
//! every [`Effect`] the core queues, matches each released answer to the
//! request in flight, caches it and writes it where the core says, winds
//! the run down as `ProcRun` does, and checks after every step:
//!
//! 1. every request is dispatched exactly once, and a worker only ever
//!    takes the reply its own request's dispatch produced;
//! 2. a rank is evicted only after its process exits or its reconnect
//!    window expires;
//! 3. each death causes at most one eviction;
//! 4. every exchange waiting on a dead or retired rank resolves `Gone`,
//!    whether it was still queued or already taken;
//! 5. the run is done exactly when every rank has finished, or is dead
//!    with no rejoin pending;
//! 6. every parked request is answered exactly once, on its process's live
//!    connection, unless that process died;
//! 7. no BSP round closes short of its cohort before its deadline: the
//!    earliest arrival of a member that is not rejoining at that round,
//!    plus the barrier deadline;
//! 8. the process the pause gate froze receives nothing — no answer, no
//!    resume or duplicate replay — until the gate opens.
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
use dtrain_runtime::hub::{Answer, Hub, PeerItem, Reply, Seat};
use rand::prelude::*;

const WINDOW: Duration = Duration::from_millis(100);
const BARRIER: Duration = Duration::from_millis(50);
const TRANSFER: Duration = Duration::from_millis(60);
const SEEDS: u64 = 1200;
const STEPS: usize = 200;

fn empty() -> ParamSet {
    ParamSet(Vec::new())
}

/// The configuration the core reads: ranks, reconnect window, rejoin, and
/// the pause gate.
fn config(
    workers: usize,
    rejoin: Option<RejoinSpec>,
    pause_at: Option<(usize, u64)>,
) -> ProcConfig {
    let mut cfg = ProcConfig {
        reconnect_window: WINDOW,
        rejoin,
        pause_at,
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
    /// A flat round, and a hierarchical one over this many leaders.
    Bsp(u64),
    Partial(u64, usize),
    Bump(u64),
    WaitClock(u64),
    CollSend(usize),
    CollRecv,
    Gossip(usize),
    Drain,
    Request(usize),
    Await,
    Poll {
        block: bool,
    },
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
    /// Requests answered on the spot whose handler has not yet cached and
    /// written the reply `(process, connection, seq)`.
    handlers: Vec<(usize, u64, u32)>,
    /// Each rank's request parked in the hub `(process, connection, seq)`.
    parked: HashMap<usize, (usize, u64, u32)>,
    /// The process the pause gate froze, until the gate opens.
    frozen: Option<usize>,
    dispatches: HashMap<(usize, u32, u32), u32>,
    /// Replies cached, by `(rank, life, seq)`.
    answered: HashMap<(usize, u32, u32), u32>,
    /// BSP arrivals by round: when, and whether the member was rejoining.
    arrivals: BTreeMap<u64, Vec<(Duration, bool)>>,
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
        let pause_at = rng
            .gen_bool(0.3)
            .then(|| (rng.gen_range(0..ranks), rng.gen_range(1..5)));
        World {
            rng,
            core: CoordCore::new(&config(ranks, rejoin, pause_at)),
            hub: Hub::new(empty(), ranks, 0.0, 0.0, Some(BARRIER)),
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
            handlers: Vec::new(),
            parked: HashMap::new(),
            frozen: None,
            dispatches: HashMap::new(),
            answered: HashMap::new(),
            arrivals: BTreeMap::new(),
            tokens: BTreeMap::new(),
            finished: vec![false; ranks],
            dead_final: vec![false; ranks],
            evictions: 0,
            rejoined: 0,
            log: vec![format!(
                "{ranks} ranks, rejoin {rejoin:?}, pause at {pause_at:?}"
            )],
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

    /// Play the shell after a core or hub call: apply what the core queued
    /// — checking properties 2 and 3 at every eviction and property 4
    /// after every hub eviction or retirement — then answer what the hub
    /// released, each to the request in flight for its rank. `reaped` is
    /// the process whose exit was just reported.
    fn settle(&mut self, reaped: Option<usize>) {
        let effects = self.core.drain();
        for (i, &effect) in effects.iter().enumerate() {
            if !matches!(effect, Effect::Marker(..) | Effect::Wake) {
                self.log.push(format!("{:>5?} core: {effect:?}", self.now));
            }
            match effect {
                Effect::Evict(w, rejoining) => {
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
                        (spawned, rejoining),
                        (rejoins, rejoins),
                        "rank {w}: a replacement iff a rejoin is due"
                    );
                    self.dead_final[w] = !rejoins;
                    // A dead process's parked request needs no answer.
                    self.parked.remove(&w);
                    self.hub.evict(w, rejoining);
                    self.all_gone(w);
                }
                Effect::Rejoin(w) => self.hub.rejoin(w),
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
        for (rank, answer) in self.hub.drain() {
            let Some((p, g, seq)) = self.parked.remove(&rank) else {
                panic!("property 6: an answer released to r{rank}, which has nothing parked");
            };
            self.note(p, format!("seq {seq} released"));
            self.take_answer(p, g, seq, answer);
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
            // A gone token is answered on the spot, without parking.
            let reply = self.hub.exchange_await(token, None);
            assert!(
                matches!(reply, Some(Answer::Exchange(Reply::Gone))),
                "property 4: exchange {token} at rank {b} still waits after the rank left"
            );
            self.tokens.remove(&token);
        }
    }

    /// Process `p` reads a reply frame; it takes it only if it answers the
    /// request it has in flight.
    fn receive(&mut self, p: usize, frame: &[u8]) {
        let (rank, life, seq) = parse(frame);
        assert_ne!(
            self.frozen,
            Some(p),
            "property 8: r{rank}/{life} got seq {seq} while the pause gate froze it"
        );
        let w = &mut self.procs[p];
        assert_eq!(
            (rank, life),
            (w.rank, w.life),
            "property 1: a process took another process's reply"
        );
        assert!(seq <= w.seq(), "a reply from the future");
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

    /// The shell's dispatch table, against the real core and hub: answered
    /// on the spot, or parked.
    fn dispatch(&mut self, p: usize, g: u64, seq: u32) {
        let (rank, life) = (self.procs[p].rank, self.procs[p].life);
        let req = self.procs[p].reqs[seq as usize];
        let n = self.dispatches.entry((rank, life, seq)).or_default();
        *n += 1;
        assert_eq!(
            *n, 1,
            "property 1: r{rank}/{life} seq {seq} dispatched twice"
        );
        let now = self.now;
        let gone = || Some(Answer::Exchange(Reply::Gone));
        let hub = &mut self.hub;
        // `None`: parked. `Some(None)`: answered with no hub answer.
        let answer: Option<Option<Answer>> = match req {
            Req::Hello => panic!("a Hello's seq was dispatched as a request"),
            Req::Heartbeat(round) => {
                self.core.heartbeat(rank, round);
                Some(None)
            }
            Req::Bsp(round) | Req::Partial(round, _) => {
                // The deposit carries the heartbeat for the next round.
                self.core.heartbeat(rank, round + 1);
                let view = self.core.view();
                let rejoining = view.rejoin_round(rank) == Some(round);
                self.arrivals
                    .entry(round)
                    .or_default()
                    .push((now, rejoining));
                let leaders = match req {
                    Req::Partial(_, leaders) => Some(leaders),
                    _ => None,
                };
                let seat = Seat {
                    rank,
                    round,
                    view: Some(&view),
                    leaders,
                    now,
                };
                hub.bsp_round(seat, (empty(), 1), 0.1, &()).map(Some)
            }
            Req::Bump(clock) => {
                hub.bump_clock(rank, clock);
                Some(None)
            }
            Req::WaitClock(needed) => hub.wait_min_clock(rank, needed).map(Some),
            Req::CollSend(target) => {
                hub.coll_send(rank, target, empty());
                Some(None)
            }
            Req::CollRecv => hub.coll_recv(rank, Some(now + TRANSFER)).map(Some),
            Req::Gossip(target) => {
                hub.gossip_send(target, empty(), 0.5);
                Some(None)
            }
            Req::Drain => {
                hub.gossip_drain(rank);
                Some(None)
            }
            Req::Request(target) => {
                let token = hub.exchange_request(rank, target, empty());
                *self.core.token(rank) = Some(token);
                self.tokens.insert(token, (target, false));
                Some(None)
            }
            Req::Await => match self.core.token(rank).take() {
                Some(token) => hub.exchange_await(token, None).map(Some),
                None => Some(gone()),
            },
            Req::Poll { block } => hub.exchange_next(rank, block).map(Some),
            Req::Respond(token) => {
                hub.exchange_respond(token, empty());
                if let Some(t) = self.tokens.get_mut(&token) {
                    t.1 = true;
                }
                Some(None)
            }
            Req::Complete => {
                self.core.complete(rank, outcome());
                Some(None)
            }
        };
        if self.frozen.is_none() && self.core.paused() == Some(rank) {
            self.note(p, "frozen by the pause gate".into());
            self.frozen = Some(p);
        }
        match answer {
            None => {
                self.note(p, format!("seq {seq} {req:?} parks"));
                self.parked.insert(rank, (p, g, seq));
                self.settle(None);
            }
            Some(answer) => {
                self.settle(None);
                if let Some(answer) = &answer {
                    self.observe(p, seq, answer);
                }
                // The handler may be slow to cache and write its reply.
                if self.rng.gen_bool(0.3) {
                    self.handlers.push((p, g, seq));
                } else {
                    self.answer(p, g, seq);
                }
            }
        }
    }

    /// What the harness learns from a hub answer: a token the passive
    /// side must answer, and property 7 for a round that closed short.
    fn observe(&mut self, p: usize, seq: u32, answer: &Answer) {
        match answer {
            Answer::Peer(Some(PeerItem::Exchange { token, .. })) => {
                self.procs[p].taken.push(*token)
            }
            &Answer::Round { arrived, expected } => {
                let Some(arrived) = arrived.filter(|&n| n < expected) else {
                    return;
                };
                let (Req::Bsp(round) | Req::Partial(round, _)) = self.procs[p].reqs[seq as usize]
                else {
                    panic!("a round outcome answers a request that is no round");
                };
                let deadline = self.arrivals[&round]
                    .iter()
                    .filter(|&&(_, rejoining)| !rejoining)
                    .map(|&(at, _)| at + BARRIER)
                    .min();
                assert!(
                    deadline.is_some_and(|d| d <= self.now),
                    "property 7: round {round} closed with {arrived} of {expected} at {:?}, \
                     before its deadline {deadline:?}",
                    self.now
                );
            }
            _ => {}
        }
    }

    /// A parked request's answer, released now: it must belong to the
    /// request the core has in flight for the rank.
    fn take_answer(&mut self, p: usize, g: u64, seq: u32, answer: Answer) {
        let rank = self.procs[p].rank;
        assert_eq!(
            self.core.in_flight(rank),
            Some((g, seq)),
            "property 6: r{rank}'s released answer is not for the request in flight"
        );
        self.observe(p, seq, &answer);
        self.answer(p, g, seq);
    }

    /// Deliver the reply to `seq`, read on connection `g`: cache it, then
    /// write it to the connection the core names.
    fn answer(&mut self, p: usize, g: u64, seq: u32) {
        let (rank, life) = (self.procs[p].rank, self.procs[p].life);
        let frame = Arc::new(frame_for(rank, life, seq));
        let in_flight = self.core.in_flight(rank) == Some((g, seq));
        let to = self.core.reply(rank, g, seq, (0, Arc::clone(&frame)));
        if in_flight {
            let n = self.answered.entry((rank, life, seq)).or_default();
            *n += 1;
            assert_eq!(*n, 1, "property 6: r{rank}/{life} seq {seq} answered twice");
        }
        if to.is_some() && self.procs[p].conn == to {
            self.receive(p, &frame);
        }
    }

    /// Property 6, delivery: a live process waiting on the connection the
    /// core holds live never waits for a reply the core already cached.
    fn delivered(&self) {
        let procs = self.procs.iter().enumerate();
        let live = procs.filter(|&(p, w)| !w.killed && w.waiting && self.frozen != Some(p));
        for (_, w) in live {
            let (r, session) = (self.current(w.rank), self.core.session(w.rank));
            let live = w.conn == Some(session.generation)
                && self.procs[r].life == w.life
                && self.core.phase(w.rank) == Phase::Connected;
            assert!(
                !(live && session.last_seq == w.seq() && session.cached.is_some()),
                "property 6: r{}/{} seq {} was answered, but not on its live connection {}",
                w.rank,
                w.life,
                w.seq(),
                session.generation
            );
        }
    }

    /// `p`'s link fails: its side knows now, the handler sees EOF later.
    fn break_link(&mut self, p: usize) {
        if let Some(g) = self.procs[p].conn.take() {
            self.eofs.push((p, g));
        }
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
            13 => self.open_gate(),
            14..=15 => self.handler(),
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
                self.hub.tick(self.now, &());
                self.settle(None);
            }
            _ if self.rng.gen_bool(0.5) => self.rogue_hello(),
            _ => self.stale_echo(),
        }
        self.delivered();
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
        self.settle(None);
    }

    fn send(&mut self) {
        let ready = |w: &Worker| w.shook && !w.killed && !w.done && !w.waiting;
        let Some(p) = self.pick(ready) else {
            return;
        };
        let (rank, round) = (self.procs[p].rank, self.procs[p].round);
        let req = match self.rng.gen_range(0..16) {
            0..=2 => Req::Heartbeat(round + 1),
            3..=4 => Req::Bsp(round),
            5 => Req::Partial(round, self.rng.gen_range(1..=self.ranks)),
            6 => Req::Bump(round),
            7 => Req::WaitClock(round.saturating_sub(1)),
            8 => Req::CollSend(self.other_rank(rank)),
            9 => Req::CollRecv,
            10 if self.rng.gen_bool(0.5) => Req::Gossip(self.other_rank(rank)),
            10 => Req::Drain,
            11 => Req::Request(self.other_rank(rank)),
            12 => Req::Await,
            13 => Req::Poll {
                block: self.rng.gen_bool(0.5),
            },
            14 => self.procs[p]
                .taken
                .pop()
                .map_or(Req::Poll { block: false }, Req::Respond),
            _ => Req::Complete,
        };
        let w = &mut self.procs[p];
        // A heartbeat, and a deposit that carries one, move to the next round.
        if matches!(req, Req::Heartbeat(_) | Req::Bsp(_) | Req::Partial(..)) {
            w.round += 1;
        }
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
                    // Whoever answers the request writes to `g`.
                    ResumeDecision::AwaitInFlight => {}
                    ResumeDecision::Refuse => panic!("the core hands out no Refuse"),
                }
            }
        }
        self.settle(None);
    }

    /// The pause gate opens (after the frozen process is killed, as
    /// `kill_paused` does, or not): its held answer goes out.
    fn open_gate(&mut self) {
        let Some(rank) = self.core.paused() else {
            return;
        };
        let p = self.current(rank);
        if self.rng.gen_bool(0.5) && !self.procs[p].killed {
            self.note(p, "killed at the pause gate".into());
            self.kill(p);
        }
        self.release_pause();
    }

    fn release_pause(&mut self) {
        let released = self.core.release_pause();
        self.frozen = None;
        self.settle(None);
        let Some((rank, g, frame)) = released else {
            return;
        };
        let p = self.current(rank);
        self.note(p, format!("pause gate releases its answer to {g}"));
        if self.procs[p].conn == Some(g) {
            self.receive(p, &frame);
        }
    }

    /// A slow handler caches and writes its reply.
    fn handler(&mut self) {
        if self.handlers.is_empty() {
            return;
        }
        let (p, g, seq) = self
            .handlers
            .remove(self.rng.gen_range(0..self.handlers.len()));
        self.note(p, format!("handler of {g} answers seq {seq}"));
        self.answer(p, g, seq);
    }

    fn reap(&mut self, p: usize) {
        self.note(p, "exit reported".into());
        self.procs[p].reaped = true;
        let (rank, life) = (self.procs[p].rank, self.procs[p].life);
        self.core.exit(rank, life);
        self.settle(Some(p));
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

    /// The link echoes a request: an old one long after its reply was
    /// consumed, or the one in flight, answered or not.
    fn stale_echo(&mut self) {
        let Some(p) = self.pick(|w| w.conn.is_some() && w.reqs.len() > 2) else {
            return;
        };
        let seq = self.rng.gen_range(2..=self.procs[p].seq());
        self.note(p, format!("echo of seq {seq}"));
        self.deliver(p, self.procs[p].conn.unwrap(), seq);
    }

    /// Tear the run down as `ProcRun` does — open the pause gate, shut the
    /// hub down — and then every process exits. Every request parked by a
    /// process that is still alive must have been answered (property 6),
    /// and once the reaper has reported every exit (and any replacement
    /// those deaths spawned), the run must be done.
    fn wind_down(&mut self) {
        self.log.push(format!("{:>5?} shutdown", self.now));
        self.release_pause();
        self.hub.shutdown();
        self.settle(None);
        while let Some(&(p, g, seq)) = self.handlers.first() {
            self.handlers.remove(0);
            self.answer(p, g, seq);
        }
        assert!(
            self.parked.is_empty(),
            "property 6: still parked after shutdown: {:?}",
            self.parked
        );
        self.delivered();
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
fn seeded_interleavings_keep_the_eight_properties() {
    for seed in 0..SEEDS {
        interleave(seed);
    }
}

/// Connect every rank of a fresh core.
fn connected(workers: usize, rejoin: Option<RejoinSpec>) -> CoordCore {
    let mut core = CoordCore::new(&config(workers, rejoin, None));
    for w in 0..workers {
        assert_eq!(core.hello(w, 1), Some((0, 1)));
    }
    core.drain();
    core
}

fn death(w: usize, rejoining: bool) -> Vec<Effect> {
    let markers = [names::CRASH, names::EVICT, names::SHARD_FAILOVER];
    let mut effects = markers.map(|name| Effect::Marker(name, w as i64)).to_vec();
    effects.push(Effect::Evict(w, rejoining));
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
    let mut first = death(1, true);
    first.extend([Effect::Spawn(1, 1), Effect::Wake]);
    assert_eq!(core.drain(), first);
    assert_eq!(core.phase(1), Phase::Rejoining(4));

    assert_eq!(core.hello(1, 1), Some((4, 2)));
    assert_eq!(
        core.drain(),
        [Effect::Marker(names::REJOIN, 1), Effect::Rejoin(1)]
    );
    for round in 4..=7 {
        core.heartbeat(1, round); // rounds 4-6 executed
    }
    core.exit(1, 1);
    let mut second = death(1, false);
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

/// Play the shell's part for the hub: apply the membership effects the
/// core queued, and return every effect.
fn settle(core: &mut CoordCore, hub: &mut Hub) -> Vec<Effect> {
    let effects = core.drain();
    for &effect in &effects {
        match effect {
            Effect::Evict(w, rejoining) => hub.evict(w, rejoining),
            Effect::Rejoin(w) => hub.rejoin(w),
            Effect::Retire(w) => hub.retire(w),
            Effect::Marker(..) | Effect::Spawn(..) | Effect::Wake => {}
        }
    }
    effects
}

/// A core whose rank `w` rejoins at round 2, every rank connected, and a
/// hub beside it.
fn rejoining(workers: usize, w: usize) -> (CoordCore, Hub) {
    let spec = RejoinSpec {
        worker: w,
        at_round: 2,
    };
    let core = connected(workers, Some(spec));
    (core, Hub::new(empty(), workers, 0.0, 0.0, Some(BARRIER)))
}

/// AD-PSGD: once its replacement said `Hello`, a passive that died is an
/// exchange target again.
#[test]
fn a_replacement_is_an_exchange_target_after_its_hello() {
    let (mut core, mut hub) = rejoining(2, 1);
    core.exit(1, 0);
    settle(&mut core, &mut hub);
    let token = hub.exchange_request(0, 1, empty());
    assert!(matches!(
        hub.exchange_await(token, None),
        Some(Answer::Exchange(Reply::Gone))
    ));

    core.hello(1, 1).expect("the replacement shakes hands");
    settle(&mut core, &mut hub);
    let token = hub.exchange_request(0, 1, empty());
    assert!(
        hub.exchange_await(token, None).is_none(),
        "an exchange at the rejoined rank 1 is gone"
    );
    assert!(matches!(
        hub.exchange_next(1, false),
        Some(Answer::Peer(Some(PeerItem::Exchange { .. })))
    ));
}

/// SSP: the replacement re-enters at the slowest live clock, and its own
/// death parks that clock again, so it holds no survivor's gate.
#[test]
fn a_replacements_death_parks_its_clock() {
    let (mut core, mut hub) = rejoining(3, 1);
    for (rank, clock) in [(0, 6), (1, 2), (2, 7)] {
        hub.bump_clock(rank, clock);
    }
    core.exit(1, 0);
    settle(&mut core, &mut hub);
    assert_eq!(hub.ps().min_clock(), 6);
    core.hello(1, 1).expect("the replacement shakes hands");
    settle(&mut core, &mut hub);
    hub.bump_clock(0, 8);
    assert_eq!(hub.ps().min_clock(), 6, "the replacement re-entered at 6");
    assert!(hub.wait_min_clock(2, 7).is_none());

    core.exit(1, 1);
    settle(&mut core, &mut hub);
    assert_eq!(
        hub.ps().min_clock(),
        7,
        "the dead replacement's clock still holds the gate"
    );
    assert!(matches!(hub.drain()[..], [(2, Answer::MinClock(7))]));
}

/// Take every item in `passive`'s exchange mailbox; count the `Done`s.
fn dones(hub: &mut Hub, passive: usize) -> usize {
    let mut dones = 0;
    while let Some(Answer::Peer(Some(item))) = hub.exchange_next(passive, false) {
        dones += usize::from(matches!(item, PeerItem::Done));
    }
    dones
}

/// AD-PSGD: an active that dies with a replacement coming owes its `Done`
/// once, when the replacement is done. Each passive hears none at the death
/// and exactly one in the end, whether the replacement finishes (and
/// announces it), dies after its `Hello`, or dies before it.
#[test]
fn an_active_with_a_replacement_coming_leaves_one_done_per_passive() {
    for fate in ["finishes", "dies after Hello", "dies before Hello"] {
        let (mut core, mut hub) = rejoining(4, 2);
        core.exit(2, 0);
        settle(&mut core, &mut hub);
        for passive in [1, 3] {
            assert_eq!(
                dones(&mut hub, passive),
                0,
                "passive {passive} at the death"
            );
        }
        if fate != "dies before Hello" {
            core.hello(2, 1).expect("the replacement shakes hands");
            settle(&mut core, &mut hub);
        }
        if fate == "finishes" {
            hub.announce_done(2);
            core.complete(2, outcome());
        } else {
            core.exit(2, 1);
        }
        settle(&mut core, &mut hub);
        for passive in [1, 3] {
            let heard = dones(&mut hub, passive);
            assert_eq!(heard, 1, "passive {passive} when the replacement {fate}");
        }
    }
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
    let mut effects = death(0, false);
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
    assert_eq!(
        core.reply(0, generation, 2, (0, reply)),
        Some(generation),
        "written on the live connection"
    );
}

/// A request still parked when its worker resumes is answered on the
/// resumed connection, not on the one it was read on; while the link is
/// down the answer is only cached, and the resume replays it.
#[test]
fn a_parked_answer_goes_to_the_connection_live_when_it_comes() {
    let mut core = connected(1, None);
    assert_eq!(core.frame(0, 1, 2), Inbound::Fresh); // parks
    let (generation, decision) = core.resume(0, 2, 1).expect("a live rank resumes");
    assert_eq!(decision, ResumeDecision::AwaitInFlight);
    let reply = Arc::new(frame_for(0, 0, 2));
    assert_eq!(
        core.reply(0, 1, 2, (0, Arc::clone(&reply))),
        Some(generation)
    );
    assert_eq!(core.in_flight(0), None, "answered once");
    assert_eq!(core.reply(0, 1, 2, (0, reply)), None, "and only once");

    assert_eq!(core.frame(0, generation, 3), Inbound::Fresh); // parks
    core.disconnect(0, generation, Duration::ZERO);
    let reply = Arc::new(frame_for(0, 0, 3));
    assert_eq!(core.reply(0, generation, 3, (0, Arc::clone(&reply))), None);
    let (_, decision) = core.resume(0, 3, 2).expect("a live rank resumes");
    assert_eq!(decision, ResumeDecision::ResendCached(0, reply));
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
    assert_eq!(core.reply(0, 1, 2, (0, Arc::new(frame_for(0, 0, 2)))), None);
    assert_eq!(core.frame(0, 2, 2), Inbound::Duplicate(None));
    let reply = Arc::new(frame_for(0, 1, 2));
    assert_eq!(core.reply(0, 2, 2, (0, Arc::clone(&reply))), Some(2));
    assert_eq!(core.frame(0, 2, 2), Inbound::Duplicate(Some((0, reply))));
}

/// The pause gate freezes the process whose heartbeat — here a BSP deposit
/// announcing the armed round — reaches it. Its answer is cached but not
/// written, not replayed to a duplicate request and not replayed to a
/// resume, and its worker counts as waiting (its silence is no link
/// trouble); opening the gate hands the answer out, once, to the live
/// connection.
#[test]
fn a_frozen_processs_answer_is_held_until_the_gate_opens() {
    let mut core = CoordCore::new(&config(2, None, Some((0, 3))));
    assert_eq!(core.hello(0, 1), Some((0, 1)));
    assert_eq!(core.frame(0, 1, 2), Inbound::Fresh); // BspExchange{2}
    core.heartbeat(0, 3);
    assert_eq!(core.paused(), Some(0));
    let reply = Arc::new(frame_for(0, 0, 2));
    assert_eq!(core.reply(0, 1, 2, (0, Arc::clone(&reply))), None, "held");
    assert!(core.awaiting(0), "a held answer keeps its worker waiting");
    assert_eq!(core.frame(0, 1, 2), Inbound::Duplicate(None), "no replay");
    core.disconnect(0, 1, Duration::ZERO);
    let (generation, decision) = core.resume(0, 2, 1).expect("a live rank resumes");
    assert_eq!(decision, ResumeDecision::AwaitInFlight, "no replay");
    assert_eq!(core.release_pause(), Some((0, generation, reply)));
    assert_eq!(core.release_pause(), None, "handed out once");
    assert!(!core.awaiting(0));
    assert_eq!(core.paused(), None);

    // Released before the answer came: the answer is written as usual.
    let mut core = CoordCore::new(&config(2, None, Some((1, 1))));
    assert_eq!(core.hello(1, 1), Some((0, 1)));
    assert_eq!(core.frame(1, 1, 2), Inbound::Fresh);
    core.heartbeat(1, 1);
    assert_eq!(core.release_pause(), None);
    let reply = (0, Arc::new(frame_for(1, 0, 2)));
    assert_eq!(core.reply(1, 1, 2, reply), Some(1));
}

/// A frozen process that dies takes the hold with it: its rejoin
/// replacement's answers are written, and the gate, opened late, hands out
/// nothing.
#[test]
fn the_gate_holds_only_the_process_it_froze() {
    let spec = RejoinSpec {
        worker: 1,
        at_round: 2,
    };
    let mut core = CoordCore::new(&config(2, Some(spec), Some((1, 1))));
    assert_eq!(core.hello(1, 1), Some((0, 1)));
    assert_eq!(core.frame(1, 1, 2), Inbound::Fresh);
    core.heartbeat(1, 1);
    core.exit(1, 0);
    assert_eq!(core.hello(1, 1), Some((2, 2)));
    assert_eq!(core.frame(1, 2, 2), Inbound::Fresh);
    core.heartbeat(1, 3);
    let reply = (0, Arc::new(frame_for(1, 1, 2)));
    assert_eq!(
        core.reply(1, 2, 2, reply),
        Some(2),
        "the replacement is not held"
    );
    assert_eq!(core.paused(), Some(1));
    assert_eq!(core.release_pause(), None);
}

/// A heartbeat's answer directs a checkpoint every `checkpoint_interval`
/// executed rounds, counted from the process's start round — but only for
/// ranks whose rejoin restores from a checkpoint. Every other rejoiner
/// pulls the server, so nothing would read the save.
#[test]
fn checkpoints_are_directed_only_where_a_rejoin_reads_them() {
    use dtrain_faults::Algo;

    let spec = RejoinSpec {
        worker: 0,
        at_round: 3,
    };
    for algo in [Algo::Bsp, Algo::GoSgd { p: 0.5 }] {
        let mut cfg = config(2, Some(spec), None);
        (cfg.plan.strategy, cfg.checkpoint_interval) = (algo, 2);
        let mut core = CoordCore::new(&cfg);
        assert_eq!(core.hello(0, 1), Some((0, 1)));
        let due: Vec<bool> = (0..=4).map(|round| core.heartbeat(0, round)).collect();
        let restores = algo.restores_from_checkpoint();
        assert_eq!(due, [false, false, restores, false, restores], "{algo:?}");
        assert_eq!(core.checkpoint(0), restores, "kept for a later answer");
        core.exit(0, 0);
        assert_eq!(core.hello(0, 1), Some((3, 2)));
        let due: Vec<bool> = (3..=5).map(|round| core.heartbeat(0, round)).collect();
        assert_eq!(due, [false, false, restores], "{algo:?} replacement");
    }
}
