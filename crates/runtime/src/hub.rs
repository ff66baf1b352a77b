//! The exchange hub: the server side of every exchange, written once.
//!
//! [`crate::worker_body`] is the worker side of the seven algorithms; the
//! [`Hub`] is what those workers talk *to*: the parameter server, the BSP
//! round (deposit, close, aggregate, apply), the per-rank gossip /
//! AD-PSGD / collective mailboxes, the exchange-token life cycle and
//! eviction. The threaded backend calls it directly and the process
//! coordinator calls it on behalf of a decoded frame, so a difference
//! between a threaded and a proc run is transport, never aggregation.
//!
//! The hub knows no sockets, processes, obs sink or clock: waits are
//! bounded by `Duration`s the caller hands in, and what only one path does
//! at a round close (the threaded PS fault hooks) arrives as an argument.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

use dtrain_faults::MembershipView;
use dtrain_nn::ParamSet;
use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::backend::{BspOutcome, RunPlan};
use crate::collective::reduce_partials;
use crate::strategy::PsState;
use crate::sync::ElasticBarrier;

/// Who is arriving at which BSP round, and what cohort it belongs to.
pub struct Seat<'a> {
    pub rank: usize,
    pub round: u64,
    /// The elastic membership view in force (`None`: the classic fixed
    /// cohort of every rank, no barrier deadline).
    pub view: Option<&'a MembershipView>,
    /// `Some(n)`: a hierarchical round over `n` machine-group leaders;
    /// `None`: a flat round over the live ranks.
    pub leaders: Option<usize>,
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
    /// Still waiting after the caller's timeout; the token stays valid.
    TimedOut,
}

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

struct Mail {
    boxes: Vec<Mailbox>,
    tokens: HashMap<u64, Token>,
    next_token: u64,
    evicted: Vec<bool>,
    shutdown: bool,
}

/// A round's deposits, ascending by rank: `(partial_sum, ranks_covered)`.
type Deposits = BTreeMap<usize, (ParamSet, usize)>;

pub struct Hub {
    ps: Arc<PsState>,
    workers: usize,
    barrier_deadline: Option<Duration>,
    deposits: Mutex<BTreeMap<u64, Deposits>>,
    /// Decides which arrival closes a round (complete cohort or deadline).
    enter: ElasticBarrier,
    /// Rounds below this have been applied to the parameter server.
    applied: Mutex<u64>,
    applied_cv: Condvar,
    mail: Mutex<Mail>,
    /// One per rank, all over `mail`: a rank is woken only by an item for
    /// its own mailbox or a change to its own token, so a timed wait that
    /// returns without one really did wait its full `Duration`.
    mail_cv: Vec<Condvar>,
}

fn wait<T>(cv: &Condvar, guard: &mut MutexGuard<'_, T>, timeout: Option<Duration>) -> bool {
    match timeout {
        Some(d) => cv.wait_for(guard, d).timed_out(),
        None => {
            cv.wait(guard);
            false
        }
    }
}

impl Hub {
    /// `barrier_deadline`: how long an elastic BSP round may stay short of
    /// its cohort before the longest-blocked member force-closes it.
    pub fn new(params: ParamSet, plan: &RunPlan, barrier_deadline: Option<Duration>) -> Hub {
        let workers = plan.workers;
        Hub {
            ps: PsState::new(params, plan.momentum, plan.weight_decay, workers),
            workers,
            barrier_deadline,
            deposits: Mutex::default(),
            enter: ElasticBarrier::new(),
            applied: Mutex::new(0),
            applied_cv: Condvar::new(),
            mail: Mutex::new(Mail {
                boxes: (0..workers).map(|_| Mailbox::default()).collect(),
                tokens: HashMap::new(),
                next_token: 1,
                evicted: vec![false; workers],
                shutdown: false,
            }),
            mail_cv: (0..workers).map(|_| Condvar::new()).collect(),
        }
    }

    /// The parameter server: snapshot, ASP/SSP pushes, the EASGD exchange
    /// and the SSP clocks are [`PsState`]'s own methods.
    pub fn ps(&self) -> &PsState {
        &self.ps
    }

    // --- BSP rounds ---

    /// Deposit `partial` (a sum covering `weight` ranks; a flat round's
    /// raw gradient is the `weight == 1` case) at `seat`, wait for the
    /// round to close and be applied, and return the fresh parameters.
    ///
    /// Cohort rule: a flat round expects the ranks live at `seat.round`
    /// (every rank without a view), a hierarchical one `seat.leaders`.
    /// Under a view the round force-closes after `barrier_deadline` with
    /// whoever deposited — except that a rejoiner, which arrives at its
    /// re-entry round arbitrarily early, waits without a deadline. A
    /// deposit for a round that already closed is dropped (at the next
    /// close) and its owner passes through to the current parameters.
    ///
    /// The single closer sums the deposits ascending by rank, scales by
    /// `1/Σweight` and applies the result once — the same float tree on
    /// every path. `before_apply` / `after_apply` run on the closer around
    /// that step. Rounds are keyed, so a fast member's next deposit cannot
    /// disturb a round still being applied: no second barrier is needed.
    pub fn bsp_round(
        &self,
        seat: Seat<'_>,
        deposit: (ParamSet, usize),
        lr: f32,
        before_apply: impl FnOnce(&PsState),
        after_apply: impl FnOnce(&PsState),
    ) -> BspOutcome {
        let Seat { rank, round, .. } = seat;
        let expected = seat
            .leaders
            .unwrap_or_else(|| seat.view.map_or(self.workers, |v| v.live_at(round).len()))
            .max(1);
        let deadline = seat
            .view
            .filter(|v| v.rejoin_round(rank) != Some(round))
            .and(self.barrier_deadline);

        self.deposits
            .lock()
            .entry(round)
            .or_default()
            .insert(rank, deposit);
        let arrived = self.enter.wait(round, expected, deadline);
        if arrived.is_some() {
            // Keep only later rounds' (a rejoiner's early) deposits.
            let mut open = self.deposits.lock();
            let later = open.split_off(&(round + 1));
            let deposits = std::mem::replace(&mut *open, later).remove(&round);
            drop(open);
            before_apply(&self.ps);
            let mean = reduce_partials(deposits.unwrap_or_default().into_iter().collect());
            self.ps.push(&mean, lr);
            after_apply(&self.ps);
            let mut applied = self.applied.lock();
            *applied = (*applied).max(round + 1);
            self.applied_cv.notify_all();
        } else {
            let mut applied = self.applied.lock();
            while *applied <= round {
                self.applied_cv.wait(&mut applied);
            }
        }
        BspOutcome {
            params: self.ps.snapshot(),
            arrived,
            expected,
        }
    }

    /// Deposits currently held for `round`: the barrier's depth, and what
    /// a test spins on to force an arrival order.
    pub fn deposits(&self, round: u64) -> usize {
        self.deposits.lock().get(&round).map_or(0, BTreeMap::len)
    }

    // --- mailboxes ---

    /// Run `f` on `target`'s mailbox and wake its owner. A target outside
    /// the cohort (a rank id is wire input on the process path) is ignored.
    fn post(&self, target: usize, f: impl FnOnce(&mut Mailbox)) {
        if let Some(mb) = self.mail.lock().boxes.get_mut(target) {
            f(mb);
            self.mail_cv[target].notify_all();
        }
    }

    /// Pop from `rank`'s mailbox. With `block`, wait for an item until
    /// `timeout` passes (forever without one) or the hub shuts down.
    fn recv<T>(
        &self,
        rank: usize,
        block: bool,
        timeout: Option<Duration>,
        pop: impl Fn(&mut Mailbox) -> Option<T>,
    ) -> Option<T> {
        let mut m = self.mail.lock();
        let mut timed_out = false;
        loop {
            let item = pop(&mut m.boxes[rank]);
            if item.is_some() || !block || timed_out || m.shutdown {
                return item;
            }
            timed_out = wait(&self.mail_cv[rank], &mut m, timeout);
        }
    }

    /// Hand `params` to `target`'s collective mailbox.
    pub fn coll_send(&self, from: usize, target: usize, params: ParamSet) {
        self.post(target, |mb| mb.coll.push_back((from, params)));
    }

    /// Next `(sender, payload)` from `rank`'s collective mailbox, blocking.
    /// `None` after `timeout` with nothing queued (the sender died
    /// mid-round) or at shutdown.
    pub fn coll_recv(&self, rank: usize, timeout: Option<Duration>) -> Option<(usize, ParamSet)> {
        self.recv(rank, true, timeout, |mb| mb.coll.pop_front())
    }

    /// Queue a gossip share at `target`.
    pub fn gossip_send(&self, target: usize, params: ParamSet, alpha: f32) {
        self.post(target, |mb| mb.gossip.push_back((params, alpha)));
    }

    /// Take everything queued in `rank`'s gossip mailbox.
    pub fn gossip_drain(&self, rank: usize) -> Vec<(ParamSet, f32)> {
        self.mail.lock().boxes[rank].gossip.drain(..).collect()
    }

    // --- AD-PSGD exchanges ---

    /// Post an exchange request from `from` at `target`; the returned
    /// token claims the answer in [`Self::exchange_await`]. A request at
    /// an evicted (or nonexistent) rank is gone on the spot.
    pub fn exchange_request(&self, from: usize, target: usize, params: ParamSet) -> u64 {
        let mut m = self.mail.lock();
        let token = m.next_token;
        m.next_token += 1;
        if m.evicted.get(target) == Some(&false) {
            let waiting = Token {
                requester: from,
                target,
                reply: None,
            };
            m.tokens.insert(token, waiting);
            let item = PeerItem::Exchange { token, params };
            m.boxes[target].exchange.push_back(item);
            self.mail_cv[target].notify_all();
        }
        token
    }

    /// Claim the answer to `token`, waiting up to `timeout` (forever
    /// without one). At shutdown a waiting token is gone.
    pub fn exchange_await(&self, token: u64, timeout: Option<Duration>) -> Reply {
        let mut m = self.mail.lock();
        let mut timed_out = false;
        loop {
            let Some(t) = m.tokens.get(&token) else {
                return Reply::Gone;
            };
            let requester = t.requester;
            if t.reply.is_some() || m.shutdown {
                let reply = m.tokens.remove(&token).and_then(|t| t.reply);
                return reply.map_or(Reply::Gone, Reply::Ready);
            }
            if timed_out {
                return Reply::TimedOut;
            }
            timed_out = wait(&self.mail_cv[requester], &mut m, timeout);
        }
    }

    /// Forget `token`: the requester gave up; a late answer is dropped.
    pub fn exchange_abandon(&self, token: u64) {
        self.mail.lock().tokens.remove(&token);
    }

    /// Next item from `rank`'s exchange mailbox; with `block`, wait for
    /// one (`None` then means shutdown).
    pub fn exchange_next(&self, rank: usize, block: bool) -> Option<PeerItem> {
        self.recv(rank, block, None, |mb| mb.exchange.pop_front())
    }

    /// The passive side's answer to `token`.
    pub fn exchange_respond(&self, token: u64, midpoint: ParamSet) {
        if let Some(t) = self.mail.lock().tokens.get_mut(&token) {
            t.reply.get_or_insert(midpoint);
            self.mail_cv[t.requester].notify_all();
        }
    }

    /// Active rank `from` is done: tell every passive (odd) rank.
    pub fn announce_done(&self, from: usize) {
        self.push_done(&mut self.mail.lock(), from);
    }

    fn push_done(&self, m: &mut Mail, from: usize) {
        for v in (1..self.workers).step_by(2).filter(|&v| v != from) {
            m.boxes[v].exchange.push_back(PeerItem::Done);
            self.mail_cv[v].notify_all();
        }
    }

    // --- membership changes ---

    /// `rank` will serve no more exchanges (it finished): every request
    /// still waiting on it — queued or already taken — is gone.
    pub fn retire(&self, rank: usize) {
        self.drop_waiting_on(&mut self.mail.lock(), rank);
    }

    fn drop_waiting_on(&self, m: &mut Mail, rank: usize) {
        m.boxes[rank].exchange.clear();
        m.tokens.retain(|_, t| {
            let gone = t.target == rank && t.reply.is_none();
            if gone {
                self.mail_cv[t.requester].notify_all();
            }
            !gone
        });
    }

    /// `rank` died (idempotent): park its SSP clock so survivors'
    /// staleness gates exclude it, drop every exchange waiting on it and
    /// the collective items it will never consume, and — a dead active
    /// cannot announce completion — synthesize its `Done` so passives do
    /// not drain forever.
    pub fn evict(&self, rank: usize) {
        let mut m = self.mail.lock();
        if std::mem::replace(&mut m.evicted[rank], true) {
            return;
        }
        self.ps.bump_clock(rank, u64::MAX);
        m.boxes[rank].coll.clear();
        self.drop_waiting_on(&mut m, rank);
        if rank.is_multiple_of(2) {
            self.push_done(&mut m, rank);
        }
    }

    /// Release every waiter: blocked mailbox reads return `None`, awaited
    /// tokens are gone, and barrier members pass through.
    pub fn shutdown(&self) {
        self.enter.release();
        *self.applied.lock() = u64::MAX;
        self.applied_cv.notify_all();
        self.mail.lock().shutdown = true;
        self.mail_cv.iter().for_each(Condvar::notify_all);
    }
}

/// The trained model of a finished run: the mean of the replicas of the
/// ranks live at the run's last round (every replica handed in when there
/// is no view or none of them was live), and the max elementwise distance
/// of a cohort replica from that mean. An evicted rank's stale replica is
/// not part of the trained model.
pub fn final_cohort(
    replicas: &[(usize, &ParamSet)],
    view: Option<&MembershipView>,
    plan: &RunPlan,
    train_len: usize,
) -> (ParamSet, f32) {
    let rounds = plan.epochs * (train_len / plan.workers / plan.batch) as u64;
    let live = view.map_or(Vec::new(), |v| v.live_at(rounds.saturating_sub(1)));
    let mut cohort: Vec<&ParamSet> = replicas
        .iter()
        .filter(|(rank, _)| live.contains(rank))
        .map(|&(_, p)| p)
        .collect();
    if cohort.is_empty() {
        cohort = replicas.iter().map(|&(_, p)| p).collect();
    }
    let mean = ParamSet::mean_of(&cohort);
    let drift = cohort
        .iter()
        .fold(0.0f32, |m, p| m.max(p.max_abs_diff(&mean)));
    (mean, drift)
}
