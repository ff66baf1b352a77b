//! The exchange hub: the server side of every exchange, written once.
//!
//! `dtrain_runtime::worker_body` is the worker side of the seven algorithms
//! on the real paths; the [`Hub`] is what those workers talk *to*: the
//! parameter server, the BSP round (deposit, close, aggregate, apply), the
//! SSP staleness gate, the per-rank gossip / AD-PSGD / collective
//! mailboxes, the exchange-token life cycle, eviction and rejoin. It has three
//! deployments: the threaded backend calls it directly, the process
//! coordinator on behalf of a decoded frame, and each simulated PS shard
//! (`dtrain-algos`) on behalf of a simulated message, charging the wire and
//! apply time around it. So a difference between the paths' BSP rounds is
//! transport, never aggregation.
//!
//! Nothing waits inside it. A request that cannot be answered yet — a
//! round short of its cohort, a shut staleness gate, an empty mailbox, an
//! unanswered exchange — returns `None` and is *parked*: recorded as its
//! rank's one outstanding request. The later call that can answer it (the
//! deposit that fills the round, a clock bump, a post, a reply, an
//! eviction, [`Hub::tick`] past a deadline, [`Hub::shutdown`]) puts the
//! [`Answer`] in an outbox, in the order the requests parked, which that
//! caller takes with [`Hub::drain`] and delivers: to a thread's slot, or to
//! a worker's socket. The hub knows no sockets, processes, threads, obs
//! sink or clock: `now` is an argument, and what only one path does at a
//! round close (the threaded PS fault hooks) arrives as [`CloseHooks`].
//!
//! Membership reaches it in two calls. [`Hub::evict`] takes a dead rank
//! out: its SSP clock parks, nothing waits on it, and a dead AD-PSGD
//! active's `Done` is synthesized once its death is final. [`Hub::rejoin`]
//! brings a rank's replacement back: an exchange target again, its clock
//! re-admitted at the slowest live one. Every path's rejoiner comes back
//! through it; [`Hub::bump_clock`] only ever moves a clock forward.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use dtrain_nn::rules::round_mean;
use dtrain_nn::ParamSet;

use crate::ps::PsState;
use crate::{Algo, MembershipView};

/// Who is arriving at which BSP round, what cohort it belongs to, and when.
pub struct Seat<'a> {
    pub rank: usize,
    pub round: u64,
    /// The elastic membership view in force (`None`: the classic cohort of
    /// every rank not evicted, no barrier deadline).
    pub view: Option<&'a MembershipView>,
    /// `Some(n)`: a hierarchical round over `n` machine-group leaders;
    /// `None`: a flat round over the live ranks.
    pub leaders: Option<usize>,
    /// The caller's clock: a member's barrier deadline runs from here.
    pub now: Duration,
}

/// One item from a rank's AD-PSGD mailbox.
pub enum PeerItem {
    /// An active peer proposes an exchange; answer with
    /// [`Hub::exchange_respond`].
    Exchange { token: u64, params: ParamSet },
    /// One active rank announced completion (or died).
    Done,
}

/// Outcome of one [`Hub::exchange_await`].
pub enum Reply {
    /// The passive side answered; the token is consumed.
    Ready(ParamSet),
    /// The exchange will never be answered; the token is consumed.
    Gone,
    /// Still unanswered when the caller's deadline passed; the token stays
    /// valid.
    TimedOut,
}

/// The answer to a request that can wait: returned on the spot, or, if the
/// request parked, handed out later by [`Hub::drain`].
pub enum Answer {
    /// [`Hub::bsp_round`]: the round closed and was applied; the fresh
    /// parameters are the server's ([`Hub::ps`]). `arrived` is `Some(n)`
    /// for the one member that closed it, with `n` deposits, and then
    /// `expected` is the round's cohort at the close (`n < expected`: a
    /// force-close short of it); any other member gets `None` and the
    /// cohort it counted on.
    Round {
        arrived: Option<usize>,
        expected: usize,
    },
    /// [`Hub::wait_min_clock`]: the slowest SSP clock, at or past the one
    /// needed (whatever it is at shutdown).
    MinClock(u64),
    /// [`Hub::coll_recv`]: `None` past the deadline (the sender died
    /// mid-round) or at shutdown.
    Coll(Option<(usize, ParamSet)>),
    /// [`Hub::exchange_await`].
    Exchange(Reply),
    /// [`Hub::exchange_next`]: `None` when a poll finds nothing, or at
    /// shutdown.
    Peer(Option<PeerItem>),
}

/// What runs around a BSP round's apply, on whichever call closes it. `()`
/// runs nothing.
pub trait CloseHooks {
    fn before_apply(&self, _ps: &PsState) {}
    fn after_apply(&self, _ps: &PsState) {}
}

impl CloseHooks for () {}

/// Hooks that may be absent: run them if present.
impl<H: CloseHooks> CloseHooks for Option<&H> {
    fn before_apply(&self, ps: &PsState) {
        self.iter().for_each(|h| h.before_apply(ps))
    }

    fn after_apply(&self, ps: &PsState) {
        self.iter().for_each(|h| h.after_apply(ps))
    }
}

/// What a parked request waits for. It waits until a deadline, if it has
/// one: a round member forces its round closed then, a collective read or
/// an exchange wait gives up.
#[derive(Clone, Copy)]
enum Park {
    /// Its round to close.
    Round { round: u64, expected: usize },
    /// The slowest SSP clock to reach this.
    MinClock(u64),
    /// An item in the collective mailbox.
    Coll,
    /// The answer to a token.
    Await(u64),
    /// An item in the exchange mailbox.
    Next,
}

/// A parked request: what it waits for, until when, and its place in the
/// order requests parked (the order one call releases them in).
type Parked = (Park, Option<Duration>, u64);

/// One outstanding exchange. A token that is not in the table is *gone*:
/// answered and taken, abandoned, or its target evicted.
struct Token {
    requester: usize,
    target: usize,
    /// `None` while waiting for the passive side.
    reply: Option<ParamSet>,
}

#[derive(Default)]
struct Mailbox {
    gossip: VecDeque<(ParamSet, f32)>,
    exchange: VecDeque<PeerItem>,
    /// Hierarchical-collective relay: `(sender_rank, payload)`.
    coll: VecDeque<(usize, ParamSet)>,
}

/// A round still open: its deposits in arrival order, `(rank,
/// (partial_sum, ranks_covered))`, the learning rate they came with, and
/// the cohort its seats fixed (`None`: every rank not evicted).
struct Open {
    deposits: Vec<(usize, (ParamSet, usize))>,
    lr: f32,
    cohort: Option<usize>,
}

pub struct Hub {
    ps: Arc<PsState>,
    workers: usize,
    barrier_deadline: Option<Duration>,
    open: BTreeMap<u64, Open>,
    /// Rounds below this are closed: an arrival passes straight through.
    closed: u64,
    boxes: Vec<Mailbox>,
    tokens: HashMap<u64, Token>,
    next_token: u64,
    evicted: Vec<bool>,
    /// Active ranks whose `Done` the passives were told.
    done: Vec<bool>,
    shutdown: bool,
    /// Each rank's one outstanding request while it waits.
    parked: Vec<Option<Parked>>,
    next_seq: u64,
    outbox: Vec<(usize, Answer)>,
}

impl Hub {
    /// A hub for `workers` ranks whose server starts at `params` with a
    /// momentum-SGD optimizer. `barrier_deadline`: how long an elastic BSP
    /// round may stay short of its cohort before its longest-blocked member
    /// force-closes it.
    pub fn new(
        params: ParamSet,
        workers: usize,
        momentum: f32,
        weight_decay: f32,
        barrier_deadline: Option<Duration>,
    ) -> Hub {
        Hub {
            ps: PsState::new(params, momentum, weight_decay, workers),
            workers,
            barrier_deadline,
            open: BTreeMap::new(),
            closed: 0,
            boxes: (0..workers).map(|_| Mailbox::default()).collect(),
            tokens: HashMap::new(),
            next_token: 1,
            evicted: vec![false; workers],
            done: vec![false; workers],
            shutdown: false,
            parked: vec![None; workers],
            next_seq: 0,
            outbox: Vec::new(),
        }
    }

    /// The parameter server: snapshot, ASP/SSP pushes and the EASGD
    /// exchange are [`PsState`]'s own methods, and need no hub call.
    pub fn ps(&self) -> &Arc<PsState> {
        &self.ps
    }

    /// Take the answers to parked requests that calls since the last drain
    /// released, oldest first, each with the rank it answers. One call
    /// releases its requests in the order they parked.
    pub fn drain(&mut self) -> Vec<(usize, Answer)> {
        std::mem::take(&mut self.outbox)
    }

    /// Park `park` as `rank`'s request until `until`, unless it can be
    /// answered now.
    fn ask(&mut self, rank: usize, park: Park, until: Option<Duration>) -> Option<Answer> {
        self.parked[rank] = Some((park, until, self.next_seq));
        self.next_seq += 1;
        self.ready(rank)
    }

    /// The answer `rank`'s parked request can have now, which unparks it.
    fn ready(&mut self, rank: usize) -> Option<Answer> {
        let down = self.shutdown;
        let answer = match self.parked[rank]?.0 {
            Park::Round { round, expected } if round < self.closed => Answer::Round {
                arrived: None,
                expected,
            },
            Park::Round { .. } => return None,
            Park::MinClock(needed) => {
                let min = self.ps.min_clock();
                Answer::MinClock(Some(min).filter(|&m| m >= needed || down)?)
            }
            Park::Coll => Answer::Coll(item(self.boxes[rank].coll.pop_front(), down)?),
            Park::Next => Answer::Peer(item(self.boxes[rank].exchange.pop_front(), down)?),
            Park::Await(token) => {
                let waiting = self.tokens.get(&token).is_some_and(|t| t.reply.is_none());
                if waiting && !down {
                    return None;
                }
                let reply = self.tokens.remove(&token).and_then(|t| t.reply);
                Answer::Exchange(reply.map_or(Reply::Gone, Reply::Ready))
            }
        };
        self.parked[rank] = None;
        Some(answer)
    }

    /// Answer every parked request the last change made answerable, in the
    /// order they parked.
    fn wake(&mut self) {
        let mut waiting: Vec<(u64, usize)> = (0..self.workers)
            .filter_map(|r| Some((self.parked[r]?.2, r)))
            .collect();
        waiting.sort_unstable();
        for (_, rank) in waiting {
            if let Some(answer) = self.ready(rank) {
                self.outbox.push((rank, answer));
            }
        }
    }

    // --- BSP rounds ---

    /// Deposit `partial` (a sum covering `weight` ranks; a flat round's
    /// raw gradient is the `weight == 1` case) at `seat`. Answered once
    /// the round is closed and applied; parks until then.
    ///
    /// Cohort rule: a flat round expects the ranks live at `seat.round`
    /// (without a view: every rank not evicted), a hierarchical one
    /// `seat.leaders`.
    /// Under a view a parked member's deadline is `barrier_deadline` after
    /// its arrival, and [`Self::tick`] past it force-closes the round with
    /// whoever deposited — except that a rejoiner, which arrives at its
    /// re-entry round arbitrarily early, has no deadline. A deposit for a
    /// round that already closed is dropped, and its owner passes through
    /// to the current parameters.
    ///
    /// The single closer applies the round's [`round_mean`] once at `lr`,
    /// between `hooks`; the other members' answers leave in the order they
    /// arrived. Rounds are keyed, so a fast member's next deposit cannot
    /// disturb a round still open.
    pub fn bsp_round(
        &mut self,
        seat: Seat<'_>,
        deposit: (ParamSet, usize),
        lr: f32,
        hooks: &impl CloseHooks,
    ) -> Option<Answer> {
        let Seat {
            rank, round, now, ..
        } = seat;
        let cohort = seat
            .leaders
            .or_else(|| seat.view.map(|v| v.live_at(round).len()));
        let expected = self.expected(cohort);
        let deadline = seat
            .view
            .filter(|v| v.rejoin_round(rank) != Some(round))
            .and(self.barrier_deadline)
            .map(|d| now + d);
        let pass = self.ask(rank, Park::Round { round, expected }, deadline);
        if pass.is_some() {
            return pass;
        }
        let open = self.open.entry(round).or_insert_with(|| Open {
            deposits: Vec::new(),
            lr,
            cohort,
        });
        open.deposits.retain(|&(r, _)| r != rank);
        open.deposits.push((rank, deposit));
        open.lr = lr;
        if open.deposits.len() < expected {
            return None;
        }
        self.parked[rank] = None;
        let arrived = Some(self.close(round, false, hooks));
        Some(Answer::Round { arrived, expected })
    }

    /// How many deposits `round` holds; `None` once it closed, when a
    /// deposit there passes straight through.
    pub fn deposits(&self, round: u64) -> Option<usize> {
        (round >= self.closed).then(|| self.open.get(&round).map_or(0, |o| o.deposits.len()))
    }

    /// The earliest deadline a parked request waits until: when the next
    /// [`Self::tick`] can answer anything.
    pub fn next_deadline(&self) -> Option<Duration> {
        self.parked
            .iter()
            .filter_map(|p| p.and_then(|(_, until, _)| until))
            .min()
    }

    /// The size of a round's cohort: the one its seats fixed, or every
    /// rank not evicted.
    fn expected(&self, cohort: Option<usize>) -> usize {
        let live = || self.evicted.iter().filter(|&&e| !e).count();
        cohort.unwrap_or_else(live).max(1)
    }

    /// Close `round` with what it holds and apply once between the hooks;
    /// answer its parked members in arrival order — with `lead`, the first
    /// as the member that closed it — then let every member of an earlier
    /// round pass through. Returns how many deposited.
    fn close(&mut self, round: u64, mut lead: bool, hooks: &impl CloseHooks) -> usize {
        // Keep only later rounds' (a rejoiner's early) deposits.
        let later = self.open.split_off(&(round + 1));
        let open = std::mem::replace(&mut self.open, later)
            .remove(&round)
            .expect("only an open round closes");
        self.closed = round + 1;
        let arrived = open.deposits.len();
        let cohort = self.expected(open.cohort);
        let order: Vec<usize> = open.deposits.iter().map(|&(rank, _)| rank).collect();
        hooks.before_apply(&self.ps);
        let mean = round_mean(open.deposits);
        self.ps.push(&mean, open.lr);
        hooks.after_apply(&self.ps);
        for rank in order {
            let Some(mut answer) = self.ready(rank) else {
                continue;
            };
            if std::mem::take(&mut lead) {
                answer = Answer::Round {
                    arrived: Some(arrived),
                    expected: cohort,
                };
            }
            self.outbox.push((rank, answer));
        }
        self.wake();
        arrived
    }

    /// The clock reads `now`: parked requests past their deadlines are
    /// answered, longest-blocked first. A round member force-closes its
    /// round, whose first arrival still parked (itself, unless a rejoiner
    /// came first) is told it closed it; a collective read gets `None`; an
    /// exchange wait gets `TimedOut`, its token still valid.
    pub fn tick(&mut self, now: Duration, hooks: &impl CloseHooks) {
        let due = |(w, parked): (usize, &Option<Parked>)| {
            let until = parked.and_then(|(_, until, _)| until)?;
            (until <= now).then_some((until, w))
        };
        while let Some((_, w)) = self.parked.iter().enumerate().filter_map(due).min() {
            let answer = match self.parked[w].expect("a due request is parked").0 {
                Park::Round { round, .. } => {
                    self.close(round, true, hooks);
                    continue;
                }
                Park::Coll => Answer::Coll(None),
                Park::Await(_) => Answer::Exchange(Reply::TimedOut),
                Park::MinClock(_) | Park::Next => unreachable!("these wait without a deadline"),
            };
            self.parked[w] = None;
            self.outbox.push((w, answer));
        }
    }

    // --- SSP clocks ---

    /// Advance `rank`'s SSP clock; a clock never moves back. `u64::MAX`
    /// parks it: a dead rank's clock no longer holds the staleness gate
    /// shut, and stays parked until [`Self::rejoin`].
    pub fn bump_clock(&mut self, rank: usize, clock: u64) {
        let mut clocks = self.ps.clocks.lock().unwrap();
        clocks[rank] = clocks[rank].max(clock);
        drop(clocks);
        self.wake();
    }

    /// SSP staleness gate: answered with the slowest clock once it reaches
    /// `needed`; parks until then.
    pub fn wait_min_clock(&mut self, rank: usize, needed: u64) -> Option<Answer> {
        self.ask(rank, Park::MinClock(needed), None)
    }

    // --- mailboxes ---

    /// Run `f` on `target`'s mailbox. A target outside the cohort (a rank
    /// id is wire input on the process path) is ignored.
    fn post(&mut self, target: usize, f: impl FnOnce(&mut Mailbox)) {
        if let Some(mb) = self.boxes.get_mut(target) {
            f(mb);
            self.wake();
        }
    }

    /// Hand `params` to `target`'s collective mailbox.
    pub fn coll_send(&mut self, from: usize, target: usize, params: ParamSet) {
        self.post(target, |mb| mb.coll.push_back((from, params)));
    }

    /// Next `(sender, payload)` from `rank`'s collective mailbox; parks
    /// while it is empty, until `until` (forever without one).
    pub fn coll_recv(&mut self, rank: usize, until: Option<Duration>) -> Option<Answer> {
        self.ask(rank, Park::Coll, until)
    }

    /// Queue a gossip share at `target`.
    pub fn gossip_send(&mut self, target: usize, params: ParamSet, alpha: f32) {
        self.post(target, |mb| mb.gossip.push_back((params, alpha)));
    }

    /// Take everything queued in `rank`'s gossip mailbox.
    pub fn gossip_drain(&mut self, rank: usize) -> Vec<(ParamSet, f32)> {
        self.boxes[rank].gossip.drain(..).collect()
    }

    // --- AD-PSGD exchanges ---

    /// Post an exchange request from `from` at `target`; the returned
    /// token claims the answer in [`Self::exchange_await`]. A request at
    /// an evicted (or nonexistent) rank is gone on the spot.
    pub fn exchange_request(&mut self, from: usize, target: usize, params: ParamSet) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        if self.evicted.get(target) == Some(&false) {
            let waiting = Token {
                requester: from,
                target,
                reply: None,
            };
            self.tokens.insert(token, waiting);
            self.post(target, |mb| {
                mb.exchange.push_back(PeerItem::Exchange { token, params })
            });
        }
        token
    }

    /// Claim the answer to `token`; its requester parks while the passive
    /// side has not answered, until `until` (forever without one). At
    /// shutdown a waiting token is gone.
    pub fn exchange_await(&mut self, token: u64, until: Option<Duration>) -> Option<Answer> {
        let Some(t) = self.tokens.get(&token) else {
            return Some(Answer::Exchange(Reply::Gone));
        };
        self.ask(t.requester, Park::Await(token), until)
    }

    /// Forget `token`: the requester gave up; a late answer is dropped.
    pub fn exchange_abandon(&mut self, token: u64) {
        self.tokens.remove(&token);
    }

    /// Next item from `rank`'s exchange mailbox: a poll (`!block`) is
    /// answered at once; a blocking read parks while the mailbox is empty.
    pub fn exchange_next(&mut self, rank: usize, block: bool) -> Option<Answer> {
        if !block {
            return Some(Answer::Peer(self.boxes[rank].exchange.pop_front()));
        }
        self.ask(rank, Park::Next, None)
    }

    /// The passive side's answer to `token`.
    pub fn exchange_respond(&mut self, token: u64, midpoint: ParamSet) {
        if let Some(t) = self.tokens.get_mut(&token) {
            t.reply.get_or_insert(midpoint);
            self.wake();
        }
    }

    /// Active rank `from` is done: tell every passive rank.
    pub fn announce_done(&mut self, from: usize) {
        self.push_done(from);
        self.wake();
    }

    /// Put `from`'s `Done` in every passive's mailbox, once per rank.
    fn push_done(&mut self, from: usize) {
        if std::mem::replace(&mut self.done[from], true) {
            return;
        }
        let passives = Algo::adpsgd_ranks(self.workers, false);
        for v in passives.into_iter().filter(|&v| v != from) {
            self.boxes[v].exchange.push_back(PeerItem::Done);
        }
    }

    // --- membership changes ---

    /// `rank` re-enters the cohort: every path's rejoiner comes back here.
    /// It is an exchange target again and counts in a view-less round, and
    /// a parked SSP clock re-enters at the slowest live clock, or at 0 when
    /// no other is live — so the bound never regresses and no gated pull is
    /// released.
    pub fn rejoin(&mut self, rank: usize) {
        self.evicted[rank] = false;
        let mut clocks = self.ps.clocks.lock().unwrap();
        if clocks[rank] == u64::MAX {
            let live = clocks.iter().copied().filter(|&c| c < u64::MAX);
            clocks[rank] = live.min().unwrap_or(0);
        }
    }

    /// `rank` will serve no more exchanges (it finished): every request
    /// still waiting on it — queued or already taken — is gone.
    pub fn retire(&mut self, rank: usize) {
        self.drop_waiting_on(rank);
        self.wake();
    }

    fn drop_waiting_on(&mut self, rank: usize) {
        self.boxes[rank].exchange.clear();
        self.tokens
            .retain(|_, t| t.target != rank || t.reply.is_some());
    }

    /// `rank` died (idempotent): its own parked request needs no answer.
    /// Park its SSP clock so survivors' staleness gates exclude it, drop
    /// every exchange waiting on it and the collective items it will never
    /// consume. A dead active cannot announce completion, so once its death
    /// is final (not `rejoining`: no replacement comes, or this was the
    /// replacement) its `Done` is synthesized, lest passives drain forever.
    /// Its deposit in an open round stays. A view-less flat round no longer
    /// counts it, so one it leaves complete closes, its first arrival the
    /// closer.
    pub fn evict(&mut self, rank: usize, rejoining: bool) {
        self.parked[rank] = None;
        if !std::mem::replace(&mut self.evicted[rank], true) {
            self.ps.clocks.lock().unwrap()[rank] = u64::MAX;
            self.boxes[rank].coll.clear();
            self.drop_waiting_on(rank);
        }
        if !rejoining && Algo::adpsgd_is_active(rank) {
            self.push_done(rank);
        }
        let live = self.expected(None);
        let complete = |o: &&Open| o.cohort.is_none() && o.deposits.len() >= live;
        if let Some((&round, _)) = self.open.iter().find(|(_, o)| complete(o)) {
            self.close(round, true, &());
        }
        self.wake();
    }

    /// Answer every request, parked or still to come, with what there is:
    /// mailbox reads get what is queued or `None`, awaited tokens are gone,
    /// round members pass through.
    pub fn shutdown(&mut self) {
        self.shutdown = true;
        self.closed = u64::MAX;
        self.wake();
    }
}

/// A mailbox read's answer: the item found, or nothing at shutdown.
fn item<T>(found: Option<T>, down: bool) -> Option<Option<T>> {
    (found.is_some() || down).then_some(found)
}
