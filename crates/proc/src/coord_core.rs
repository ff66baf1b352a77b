//! The coordinator's decisions, with no sockets, threads or clock:
//! membership fed by real deaths, each rank's [`Session`] and disconnect
//! clock, the request each rank has in flight and the connection its
//! answer goes to, the test pause gate, the counters — everything but the
//! `Hub`. Inputs are what a rank's connections and processes do, plus
//! [`CoordCore::tick`] with the run's elapsed time handed in. Each call
//! answers and queues [`Effect`]s for the caller to apply, in order.
//! DESIGN §5 "Failure model" has the state table; `tests/coord_core.rs`
//! drives it through seeded interleavings.

use std::sync::Arc;
use std::time::Duration;

use dtrain_faults::MembershipView;
use dtrain_nn::ParamSet;
use dtrain_obs::names;

use crate::config::{ProcConfig, RejoinSpec};
use crate::session::{Inbound, ResumeDecision, Session};

/// A reply as the session caches it: the whole sealed frame, shared by
/// the cache and the handler writing it, replayed as it stands.
pub type ReplyFrame = Arc<Vec<u8>>;

/// Where a rank's current process stands.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Phase {
    /// Spawned; no `Hello` yet.
    #[default]
    Spawned,
    Connected,
    /// Its connection dropped at this time; the reconnect window runs.
    Disconnected(Duration),
    /// Sent `RunComplete`.
    Finished,
    /// Died; its replacement is spawned and re-enters at this round.
    Rejoining(u64),
    /// Died, with no replacement coming.
    Dead,
}

/// One rank's completion report, as shipped in `RunComplete`.
pub struct Outcome {
    pub iterations: u64,
    pub logical_bytes: u64,
    pub busy_ms: u64,
    pub params: ParamSet,
}

/// Per-worker facts carried in the final report.
#[derive(Clone, Copy, Debug)]
pub struct WorkerStats {
    /// Iterations the rank executed (replacement process included).
    pub iterations: u64,
    /// Cumulative payload bytes pushed (`logical.bytes`); for a killed
    /// rank, only what its replacement reported (the victim's counter
    /// died with it).
    pub logical_bytes: u64,
    /// Milliseconds the rank spent on local work (compute + per-iteration
    /// hooks, straggler injection included; exchange waits excluded).
    pub busy_ms: u64,
    /// Did this rank's original process die mid-run?
    pub evicted: bool,
}

/// The run's counters, as the report carries them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Recorded deaths, a rejoin replacement's included.
    pub evictions: u64,
    pub rejoins: u64,
    pub partial_rounds: u64,
    pub retries: u64,
}

/// What the caller must do after a core call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Effect {
    /// A `dtrain_faults::markers` instant `(name, value)`, to be stamped.
    Marker(&'static str, i64),
    /// `Hub::evict(rank, rejoining)`: `rejoining` when a replacement is
    /// coming.
    Evict(usize, bool),
    /// `Hub::rejoin(rank)`: the rank's replacement said `Hello`.
    Rejoin(usize),
    /// `Hub::retire(rank)`.
    Retire(usize),
    /// Spawn the rank's rejoin replacement, numbered as [`CoordCore::exit`]
    /// expects it back.
    Spawn(usize, u32),
    /// Something `ProcRun`'s waits block on moved: an outcome or death
    /// recorded, or the pause gate.
    Wake,
}

#[derive(Default)]
struct Rank {
    phase: Phase,
    session: Session<ReplyFrame>,
    /// The request dispatched and not yet answered: the connection
    /// generation it was read on and its seq. Only its reply is cached.
    in_flight: Option<(u64, u32)>,
    /// Which of the rank's processes is current (0: the original).
    life: u32,
    /// Round the current process's next heartbeat announces; its start.
    last_hb: u64,
    start_round: u64,
    /// The checkpoint directive of its latest heartbeat, which the answer
    /// acknowledging that heartbeat carries.
    checkpoint: bool,
    /// Rounds executed by the rank's dead processes.
    dead_iters: u64,
    outcome: Option<Outcome>,
}

/// The coordinator state machine; see the module docs.
pub struct CoordCore {
    ranks: Vec<Rank>,
    reconnect_window: Duration,
    rejoin: Option<RejoinSpec>,
    /// Executed rounds between checkpoint directives: the configured
    /// interval if the algorithm's rejoiners restore from a checkpoint,
    /// else 0 (nothing would read one).
    checkpoint_every: u64,
    /// Membership events (a rank's first death only) and their view.
    evicts: Vec<(usize, u64)>,
    rejoins: Vec<(usize, u64)>,
    view: Arc<MembershipView>,
    /// Test pause gate: armed `(rank, round)`, then the process it froze,
    /// `(rank, life)`, whose answers it holds back.
    armed: Option<(usize, u64)>,
    paused: Option<(usize, u32)>,
    tally: Tally,
    fx: Vec<Effect>,
}

impl CoordCore {
    /// A core for `cfg`'s ranks, reconnect window, rejoin, checkpoint
    /// cadence and pause gate.
    pub fn new(cfg: &ProcConfig) -> CoordCore {
        let workers = cfg.plan.workers;
        let restores = cfg.plan.strategy.restores_from_checkpoint();
        CoordCore {
            ranks: (0..workers).map(|_| Rank::default()).collect(),
            reconnect_window: cfg.reconnect_window,
            rejoin: cfg.rejoin,
            checkpoint_every: if restores { cfg.checkpoint_interval } else { 0 },
            evicts: Vec::new(),
            rejoins: Vec::new(),
            view: Arc::new(MembershipView::all_alive(workers)),
            armed: cfg.pause_at,
            paused: None,
            tally: Tally::default(),
            fx: Vec::new(),
        }
    }

    /// Take the queued effects, oldest first.
    pub fn drain(&mut self) -> Vec<Effect> {
        std::mem::take(&mut self.fx)
    }

    /// A connection opened with `Hello` (carrying `seq`) from rank `w`:
    /// `(start_round, generation)`, or `None` to drop it. Only a process
    /// that has not shaken hands is admitted — not a rank that finished,
    /// died with no replacement coming, or already said `Hello`.
    pub fn hello(&mut self, w: usize, seq: u32) -> Option<(u64, u64)> {
        let r = self.ranks.get_mut(w)?;
        let start = match r.phase {
            Phase::Spawned => 0,
            Phase::Rejoining(at) => {
                self.tally.rejoins += 1;
                self.fx.push(Effect::Marker(names::REJOIN, w as i64));
                self.fx.push(Effect::Rejoin(w));
                at
            }
            _ => return None,
        };
        (r.phase, r.start_round, r.last_hb) = (Phase::Connected, start, start);
        r.session.reset();
        r.session.classify(seq); // the Hello consumed this seq
        r.in_flight = None;
        Some((start, r.session.next_generation()))
    }

    /// A connection opened with `Resume` from rank `w`:
    /// `(generation, decision)`, or `None` to drop it. A `Resume` names no
    /// process, so after a death the core cannot tell the replacement's
    /// from the dead original's: only a live, never-replaced rank resumes.
    pub fn resume(
        &mut self,
        w: usize,
        last_seq: u32,
        attempt: u32,
    ) -> Option<(u64, ResumeDecision<ReplyFrame>)> {
        let held = self.held(w);
        let r = self.ranks.get_mut(w)?;
        if r.life > 0 || !matches!(r.phase, Phase::Connected | Phase::Disconnected(_)) {
            return None;
        }
        // A held answer is not replayed: `release_pause` writes it.
        let decision = match r.session.on_resume(last_seq) {
            ResumeDecision::Refuse => return None,
            ResumeDecision::ResendCached(..) if held => ResumeDecision::AwaitInFlight,
            decision => decision,
        };
        r.phase = Phase::Connected;
        self.tally.retries += 1;
        self.fx.push(Effect::Marker(names::RETRY, attempt.into()));
        Some((r.session.next_generation(), decision))
    }

    /// Request `seq` read on connection `generation`: stale unless that is
    /// the rank's live connection. A fresh one is in flight until replied.
    pub fn frame(&mut self, w: usize, generation: u64, seq: u32) -> Inbound<ReplyFrame> {
        let held = self.held(w);
        let r = &mut self.ranks[w];
        if r.phase != Phase::Connected || r.session.generation != generation {
            return Inbound::Stale;
        }
        let inbound = match r.session.classify(seq) {
            // A duplicate of a held request gets no replay either.
            Inbound::Duplicate(Some(_)) if held => Inbound::Duplicate(None),
            inbound => inbound,
        };
        if inbound == Inbound::Fresh {
            r.in_flight = Some((generation, seq));
        }
        inbound
    }

    /// Rank `w`'s request in flight, `(generation, seq)`: the one a
    /// released answer belongs to.
    pub fn in_flight(&self, w: usize) -> Option<(u64, u32)> {
        self.ranks[w].in_flight
    }

    /// Does rank `w`'s process wait for an answer — one in flight, or one
    /// the pause gate holds? Then its silence is no link trouble.
    pub fn awaiting(&self, w: usize) -> bool {
        self.ranks[w].in_flight.is_some() || self.held(w)
    }

    /// Request `seq`, read on connection `generation`, is answered with
    /// `reply`. Unless that request is no longer in flight (its process is
    /// gone), cache the reply for replay and name the connection to write
    /// it to: the rank's live one, which a resume may have replaced since
    /// the read; `None` while the link is down, or while the pause gate
    /// holds the process's answers.
    pub fn reply(
        &mut self,
        w: usize,
        generation: u64,
        seq: u32,
        reply: (u8, ReplyFrame),
    ) -> Option<u64> {
        let held = self.held(w);
        let r = &mut self.ranks[w];
        if r.in_flight != Some((generation, seq)) {
            return None;
        }
        r.in_flight = None;
        r.session.cache_reply(reply.0, reply.1);
        (r.phase == Phase::Connected && !held).then_some(r.session.generation)
    }

    /// Connection `generation` of rank `w` failed at `now`: link trouble,
    /// not death. If it was the live connection, the window starts.
    pub fn disconnect(&mut self, w: usize, generation: u64, now: Duration) {
        let r = &mut self.ranks[w];
        if r.phase == Phase::Connected && r.session.generation == generation {
            r.phase = Phase::Disconnected(now);
        }
    }

    /// Connection `generation` of rank `w` sent a message no worker sends:
    /// a broken process, not a broken link, so its death, with no grace.
    pub fn violation(&mut self, w: usize, generation: u64) {
        let r = &self.ranks[w];
        if r.phase == Phase::Connected && r.session.generation == generation {
            self.record_death(w);
        }
    }

    /// Rank `w`'s parked AD-PSGD token: in the session, it survives a
    /// reconnect until the rank's `ExchangeAwait` takes it.
    pub fn token(&mut self, w: usize) -> &mut Option<u64> {
        &mut self.ranks[w].session.cur_token
    }

    /// The buffer of rank `w`'s reply its latest fresh request made
    /// obsolete, for the answer to that request to be written into —
    /// `None` if there is none, or if a writer still holds it.
    pub(crate) fn take_spare(&mut self, w: usize) -> Option<Vec<u8>> {
        let spare = self.ranks[w].session.take_spare()?;
        Arc::try_unwrap(spare).ok()
    }

    pub fn session(&self, w: usize) -> &Session<ReplyFrame> {
        &self.ranks[w].session
    }

    /// Rank `w` is about to run `round`, announced by a `Heartbeat` or by
    /// the BSP deposit for `round - 1`. Returns the checkpoint directive:
    /// save when the rounds its current process has executed reach a
    /// multiple of the cadence. [`Self::checkpoint`] keeps it for a round
    /// answer that comes later. If the pause gate is armed at `(w, round)`
    /// it freezes the process: the answer in flight is cached when it
    /// comes, but neither written nor replayed until
    /// [`Self::release_pause`].
    pub fn heartbeat(&mut self, w: usize, round: u64) -> bool {
        let r = &mut self.ranks[w];
        if matches!(r.phase, Phase::Connected | Phase::Disconnected(_)) {
            r.last_hb = r.last_hb.max(round);
        }
        let (executed, every) = (round.saturating_sub(r.start_round), self.checkpoint_every);
        r.checkpoint = every > 0 && executed > 0 && executed.is_multiple_of(every);
        if self.armed == Some((w, round)) {
            (self.armed, self.paused) = (None, Some((w, r.life)));
            self.fx.push(Effect::Wake);
        }
        r.checkpoint
    }

    /// The checkpoint directive of rank `w`'s latest heartbeat.
    pub fn checkpoint(&self, w: usize) -> bool {
        self.ranks[w].checkpoint
    }

    /// Does the pause gate hold rank `w`'s answers? Only while the process
    /// it froze is the rank's current one.
    fn held(&self, w: usize) -> bool {
        self.paused
            .is_some_and(|(v, life)| v == w && self.ranks[v].life == life)
    }

    /// A BSP round force-closed with `arrived` of its cohort.
    pub fn partial_round(&mut self, arrived: usize) {
        self.tally.partial_rounds += 1;
        let marker = Effect::Marker(names::PARTIAL_BARRIER, arrived as i64);
        self.fx.push(marker);
    }

    /// Rank `w` sent `RunComplete`; dropped if its death is recorded.
    pub fn complete(&mut self, w: usize, outcome: Outcome) {
        let r = &mut self.ranks[w];
        if matches!(r.phase, Phase::Connected | Phase::Disconnected(_)) {
            (r.phase, r.outcome) = (Phase::Finished, Some(outcome));
            self.fx.extend([Effect::Retire(w), Effect::Wake]);
        }
    }

    /// Process number `life` of rank `w` exited. A corpse cannot resume:
    /// unless the rank finished, this is its death, with no grace.
    pub fn exit(&mut self, w: usize, life: u32) {
        if self.ranks[w].life == life {
            self.record_death(w);
        }
    }

    /// The clock reads `now`: expired reconnect windows become deaths.
    pub fn tick(&mut self, now: Duration) {
        for w in 0..self.ranks.len() {
            if let Phase::Disconnected(since) = self.ranks[w].phase {
                if now.saturating_sub(since) >= self.reconnect_window {
                    self.record_death(w);
                }
            }
        }
    }

    /// Rank `w`'s current process died (idempotent). A rank's first death
    /// enters the view at the round its last heartbeat announced and may
    /// spawn its replacement; the replacement's death is final, and not in
    /// the view, which holds one death per rank.
    fn record_death(&mut self, w: usize) {
        let r = &mut self.ranks[w];
        if matches!(r.phase, Phase::Finished | Phase::Dead) {
            return;
        }
        r.dead_iters += r.last_hb.saturating_sub(r.start_round);
        (r.start_round, r.phase) = (r.last_hb, Phase::Dead);
        self.tally.evictions += 1;
        // The victim's shard leaves the cohort with it; survivors keep
        // their own, and the report counts its partial progress.
        let markers = [names::CRASH, names::EVICT, names::SHARD_FAILOVER];
        let markers = markers.map(|name| Effect::Marker(name, w as i64));
        self.fx.extend(markers);
        let rejoin = self.rejoin.filter(|s| s.worker == w && r.life == 0);
        self.fx.push(Effect::Evict(w, rejoin.is_some()));
        if r.life == 0 {
            self.evicts.push((w, r.last_hb));
            if let Some(spec) = rejoin {
                self.rejoins.push((w, spec.at_round));
                (r.phase, r.life) = (Phase::Rejoining(spec.at_round), 1);
                self.fx.push(Effect::Spawn(w, r.life));
            }
            let view = MembershipView::from_events(self.ranks.len(), &self.evicts, &self.rejoins);
            self.view = Arc::new(view);
        }
        self.fx.push(Effect::Wake);
    }

    /// Every rank has finished, or is dead with no replacement coming.
    pub fn done(&self) -> bool {
        let settled = |r: &Rank| matches!(r.phase, Phase::Finished | Phase::Dead);
        self.ranks.iter().all(settled)
    }

    pub fn phase(&self, w: usize) -> Phase {
        self.ranks[w].phase
    }

    /// Has a process of rank `w` died?
    pub fn evicted(&self, w: usize) -> bool {
        self.evicts.iter().any(|&(v, _)| v == w)
    }

    /// Membership by round, as the observed deaths and rejoins shape it.
    pub fn view(&self) -> Arc<MembershipView> {
        Arc::clone(&self.view)
    }

    /// The rank the pause gate froze, until the gate is released.
    pub fn paused(&self) -> Option<usize> {
        self.paused.map(|(w, _)| w)
    }

    /// Open the pause gate for good and disarm it. Returns the answer it
    /// held, `(rank, connection, frame)`, when that answer is cached and
    /// the frozen process is connected; one still to come is written as
    /// any other.
    pub fn release_pause(&mut self) -> Option<(usize, u64, ReplyFrame)> {
        self.armed = None;
        self.fx.push(Effect::Wake);
        let (w, life) = self.paused.take()?;
        let r = &self.ranks[w];
        if r.life != life || r.phase != Phase::Connected {
            return None;
        }
        let (_, frame) = r.session.cached.clone()?;
        Some((w, r.session.generation, frame))
    }

    pub fn tally(&self) -> Tally {
        self.tally
    }

    /// The finished ranks' final parameters.
    pub fn replicas(&self) -> Vec<(usize, &ParamSet)> {
        let ranks = self.ranks.iter().enumerate();
        ranks
            .filter_map(|(w, r)| Some((w, &r.outcome.as_ref()?.params)))
            .collect()
    }

    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        let stats = |(w, r): (usize, &Rank)| {
            let o = r.outcome.as_ref();
            WorkerStats {
                iterations: o.map_or(0, |o| o.iterations) + r.dead_iters,
                logical_bytes: o.map_or(0, |o| o.logical_bytes),
                busy_ms: o.map_or(0, |o| o.busy_ms),
                evicted: self.evicted(w),
            }
        };
        self.ranks.iter().enumerate().map(stats).collect()
    }
}
