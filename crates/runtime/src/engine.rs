//! The threaded training engine: N OS threads, each owning a model replica
//! and a data shard, aggregating by the chosen [`Algo`].
//!
//! This is the "production" counterpart of the simulator in `dtrain-algos`:
//! same algorithms, real parallelism, real wall-clock. Execution is
//! nondeterministic (true races decide interleavings), so tests assert
//! learning outcomes rather than exact values.
//!
//! The algorithm bodies live in [`crate::worker_body`], written once
//! against the [`ExecBackend`] trait, and what they exchange with lives in
//! [`crate::Hub`]; this module provides [`ThreadedBackend`] — the adapter
//! that calls the hub directly and waits for a parked request's answer on
//! its rank's own slot — plus the thread supervisor (fault injection,
//! final evaluation).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dtrain_cluster::CollectiveSchedule;
use dtrain_data::Dataset;
use dtrain_faults::{
    markers, Algo, CheckpointStore, ElasticRuntime, RuntimeFaultSchedule, PS_OWNER,
};
use dtrain_nn::{Network, ParamSet, SgdMomentum};
use dtrain_obs::{ObsSink, Track, TrackHandle};

use crate::backend::{BspOutcome, ExecBackend, PeerRequest, ReplyToken, RunPlan};
use crate::hub::{Answer, CloseHooks, Hub, PeerItem, Reply, Seat};
use crate::worker::worker_body;
use crate::PsState;

/// Fault injection for the threaded runtime: an iteration-indexed schedule
/// plus the supervisor policy (checkpoint cadence, bounded restart retries
/// with backoff, heartbeat timeout).
#[derive(Clone, Debug)]
pub struct RuntimeFaultConfig {
    pub schedule: RuntimeFaultSchedule,
    /// Local iterations between worker checkpoint snapshots (0 = only the
    /// initial snapshot).
    pub checkpoint_interval: u64,
    /// Wall-clock delay before a crashed worker is restarted.
    pub restart_backoff: Duration,
    /// Total restart budget for the run; crashes beyond it are abandoned
    /// (counted in [`ThreadedReport::abandoned_restarts`]).
    pub max_restarts: u64,
    /// A worker beats once per executed iteration; a beat that comes
    /// more than this after the worker's previous one counts a missed
    /// heartbeat.
    pub heartbeat_timeout: Duration,
    /// Elastic membership: the simulator's handle, whose round-indexed
    /// view is keyed here by each worker's local iteration index. A dead
    /// round is skipped outright (no compute, no barrier seat) instead of
    /// being restarted; rejoiners re-enter at the current round with fresh
    /// state. Of its `ElasticConfig` the threads read `barrier_deadline`
    /// (a BSP round that cannot fill force-closes partially),
    /// `transfer_deadline` and `max_retries` (bounded waits on a
    /// peer-exchange reply, then the exchange is abandoned). `None` =
    /// classic restart-based recovery. The view encodes the crashes, so
    /// a non-empty `schedule.crashes` beside it is refused.
    pub elastic: Option<ElasticRuntime>,
}

impl Default for RuntimeFaultConfig {
    fn default() -> Self {
        RuntimeFaultConfig {
            schedule: RuntimeFaultSchedule::default(),
            checkpoint_interval: 10,
            restart_backoff: Duration::from_millis(20),
            max_restarts: 8,
            heartbeat_timeout: Duration::from_secs(5),
            elastic: None,
        }
    }
}

/// Default replica count for threaded runs: the `DTRAIN_THREADS` override
/// if set (the same knob that sizes the kernel thread pool), else 4.
pub fn default_workers() -> usize {
    std::env::var("DTRAIN_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(4)
}

/// Configuration for a threaded training run.
#[derive(Clone, Debug)]
pub struct ThreadedConfig {
    pub workers: usize,
    pub epochs: u64,
    pub batch: usize,
    pub strategy: Algo,
    /// Single-worker base LR; scaled/warmed/decayed like the paper.
    pub base_lr: f32,
    pub momentum: f32,
    pub weight_decay: f32,
    pub seed: u64,
    pub faults: Option<RuntimeFaultConfig>,
    /// BSP reduction schedule; see [`RunPlan::collective`].
    pub collective: CollectiveSchedule,
    /// Ranks per synthetic machine group for the hierarchical schedules.
    pub gpus_per_machine: usize,
}

impl ThreadedConfig {
    /// The path-agnostic slice handed to [`worker_body`].
    pub fn plan(&self) -> RunPlan {
        RunPlan {
            workers: self.workers,
            epochs: self.epochs,
            batch: self.batch,
            strategy: self.strategy,
            base_lr: self.base_lr,
            momentum: self.momentum,
            weight_decay: self.weight_decay,
            seed: self.seed,
            collective: self.collective,
            gpus_per_machine: self.gpus_per_machine,
        }
    }
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig {
            workers: default_workers(),
            epochs: 10,
            batch: 32,
            strategy: Algo::Bsp,
            base_lr: 0.02,
            momentum: 0.9,
            weight_decay: 1e-4,
            seed: 0,
            faults: None,
            collective: CollectiveSchedule::Flat,
            gpus_per_machine: 2,
        }
    }
}

/// Outcome of a threaded run.
#[derive(Clone, Debug)]
pub struct ThreadedReport {
    pub strategy: &'static str,
    pub final_accuracy: f32,
    pub final_loss: f32,
    pub wall_time: Duration,
    pub total_iterations: u64,
    /// Max elementwise spread between replicas at the end.
    pub final_drift: f32,
    /// Worker crash-restarts executed (checkpoint restore after backoff).
    pub restarts: u64,
    /// Crashes past the bounded-retry budget (worker kept its live state).
    pub abandoned_restarts: u64,
    /// PS outages consumed (server state rolled back to its checkpoint).
    pub ps_recoveries: u64,
    /// Heartbeats that came more than `heartbeat_timeout` after the same
    /// worker's previous one.
    pub missed_heartbeats: u64,
    /// Elastic membership: workers evicted from the cohort (no restart).
    pub evictions: u64,
    /// Elastic membership: workers that re-entered at a later round.
    pub rejoins: u64,
    /// The aggregate model (replica mean over the final cohort) — the
    /// state a follow-on segment adopts across a controller switch.
    pub final_params: ParamSet,
    /// Per-worker busy time (compute + local work; excludes barrier and
    /// exchange waits) — the straggle-ratio feedstock for the adaptive
    /// degradation controller.
    pub per_worker_busy: Vec<Duration>,
}

/// Shared fault-injection state for one threaded run.
struct FaultRuntime {
    cfg: RuntimeFaultConfig,
    store: CheckpointStore,
    /// Runtime-infrastructure obs track (PS outages, server checkpoints).
    obs: TrackHandle,
    started: Instant,
    /// Global iteration counter (all workers), keys the PS outage windows.
    global_iters: AtomicU64,
    /// PS outage windows not yet consumed: `(start_iter, len)`, guarded so
    /// exactly one worker executes each recovery.
    pending_outages: Mutex<Vec<(u64, u64)>>,
    restarts: AtomicU64,
    abandoned: AtomicU64,
    ps_recoveries: AtomicU64,
    missed_heartbeats: AtomicU64,
    ps_applies: AtomicU64,
    evictions: AtomicU64,
    rejoins: AtomicU64,
}

impl FaultRuntime {
    fn new(cfg: RuntimeFaultConfig, obs: TrackHandle, clock: Instant) -> Self {
        let mut pending = cfg.schedule.ps_outages.clone();
        pending.sort_unstable();
        FaultRuntime {
            store: CheckpointStore::new(cfg.checkpoint_interval),
            obs,
            started: clock,
            global_iters: AtomicU64::new(0),
            pending_outages: Mutex::new(pending),
            restarts: AtomicU64::new(0),
            abandoned: AtomicU64::new(0),
            ps_recoveries: AtomicU64::new(0),
            missed_heartbeats: AtomicU64::new(0),
            ps_applies: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            rejoins: AtomicU64::new(0),
            cfg,
        }
    }

    /// Crash-restart: notionally lose the replica, wait out the supervisor
    /// backoff, restore from the last checkpoint. Returns the restored
    /// state, or `None` when the retry budget is exhausted (the crash is
    /// abandoned and the worker continues with its live state).
    fn crash_restart(&self, w: usize) -> Option<(ParamSet, SgdMomentum, u64)> {
        // Reserve a slot in the budget atomically: concurrent crashes must
        // not all pass a stale read of the counter and overrun the cap.
        let reserved = self
            .restarts
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |r| {
                (r < self.cfg.max_restarts).then_some(r + 1)
            })
            .is_ok();
        if !reserved {
            self.abandoned.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        std::thread::sleep(self.cfg.restart_backoff);
        match self.store.restore(w) {
            Some(cp) => Some((cp.params, cp.opt, cp.iteration)),
            None => {
                // No checkpoint to restore from: hand the slot back.
                self.restarts.fetch_sub(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn now_ns(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }
}

/// The PS fault hooks run on whichever call closes a BSP round.
impl CloseHooks for FaultRuntime {
    /// Consume any PS outage whose window start the global iteration
    /// counter has crossed: the server state rolls back to its last
    /// checkpoint and clients stall for the recovery backoff (scaled by
    /// the window length).
    fn before_apply(&self, ps: &PsState) {
        let k = self.global_iters.load(Ordering::Relaxed);
        let due = {
            let mut pending = self.pending_outages.lock().unwrap();
            pending
                .iter()
                .position(|&(start, _)| start <= k)
                .map(|i| pending.remove(i))
        };
        if let Some((_, len)) = due {
            markers::ps_outage(&self.obs, self.now_ns(), 0);
            if let Some(cp) = self.store.restore(PS_OWNER) {
                let mut g = ps.global.lock().unwrap();
                *g = (cp.params, cp.opt);
                markers::ckpt_restore(&self.obs, self.now_ns(), cp.iteration);
            }
            if self.cfg.elastic.is_some() {
                // Elastic failover: the server state re-homes from its
                // checkpoint onto a survivor — one bounded recovery delay
                // instead of an outage-scaled stall.
                markers::shard_failover(&self.obs, self.now_ns(), 0);
                std::thread::sleep(self.cfg.restart_backoff);
            } else {
                std::thread::sleep(self.cfg.restart_backoff * len.max(1) as u32);
            }
            self.ps_recoveries.fetch_add(1, Ordering::Relaxed);
            markers::ps_recover(&self.obs, self.now_ns(), 0);
        }
    }

    /// Count one PS apply; checkpoint the server state on the cadence.
    fn after_apply(&self, ps: &PsState) {
        let n = self.ps_applies.fetch_add(1, Ordering::Relaxed) + 1;
        if self.store.due(n) {
            let g = ps.global.lock().unwrap();
            self.store.save(PS_OWNER, n, &g.0, &g.1);
            markers::ckpt_save(&self.obs, self.now_ns(), n);
        }
    }
}

/// The shared-memory [`ExecBackend`]: one instance per worker thread, a
/// thin adapter that calls the run's [`Hub`] directly. What stays here is
/// what only this path has: the pre-computed membership view, the fault
/// hooks (PS outages, crash schedule, straggler stretch, checkpoints,
/// heartbeats) and the bounded-retry wait on an AD-PSGD reply.
struct ThreadedBackend<'a> {
    w: usize,
    workers: usize,
    hub: &'a Mutex<Hub>,
    ps: &'a PsState,
    /// Every rank's answer slot: where the answers to its parked hub
    /// requests land, put there by whichever thread's hub call released
    /// them. This thread reads its own from `answers`.
    slots: &'a [Sender<Answer>],
    answers: Receiver<Answer>,
    faults: Option<&'a FaultRuntime>,
    elastic: Option<&'a ElasticRuntime>,
    obs: TrackHandle,
    wall: Instant,
    /// Run time of this worker's last heartbeat.
    last_beat: Duration,
    slowdown: f64,
    crash_iters: VecDeque<u64>,
    /// Token of the outstanding AD-PSGD exchange request.
    pending_reply: Option<u64>,
}

impl ThreadedBackend<'_> {
    fn ns(&self) -> u64 {
        self.wall.elapsed().as_nanos() as u64
    }

    /// Run `f` on the hub, then put every answer it released in its rank's
    /// slot.
    fn with_hub<T>(&self, f: impl FnOnce(&mut Hub) -> T) -> T {
        let mut hub = self.hub.lock().unwrap();
        let out = f(&mut hub);
        let answers = hub.drain();
        drop(hub);
        for (rank, answer) in answers {
            // The receiver lives as long as its rank's thread.
            let _ = self.slots[rank].send(answer);
        }
        out
    }

    /// A hub request that can wait: answered now, or, once parked, in this
    /// rank's slot. Each `patience` without an answer ticks the hub, so
    /// the member blocked longest force-closes a round past its deadline.
    fn ask(
        &self,
        patience: Option<Duration>,
        f: impl FnOnce(&mut Hub) -> Option<Answer>,
    ) -> Answer {
        if let Some(answer) = self.with_hub(f) {
            return answer;
        }
        loop {
            let answer = match patience {
                Some(p) => self.answers.recv_timeout(p).ok(),
                None => self.answers.recv().ok(),
            };
            if let Some(answer) = answer {
                return answer;
            }
            let now = self.wall.elapsed();
            self.with_hub(|hub| hub.tick(now, &self.faults));
        }
    }

    /// One barrier round through the hub; the PS fault hooks ride along
    /// and run on whichever worker closes the round.
    fn round(
        &mut self,
        round: u64,
        leaders: Option<usize>,
        deposit: (ParamSet, usize),
        lr: f32,
    ) -> BspOutcome {
        let seat = Seat {
            rank: self.w,
            round,
            view: self.elastic.map(|e| &*e.view),
            leaders,
            now: self.wall.elapsed(),
        };
        let patience = self
            .elastic
            .map(|e| Duration::from_nanos(e.cfg.barrier_deadline.as_nanos()));
        match self.ask(patience, |hub| {
            hub.bsp_round(seat, deposit, lr, &self.faults)
        }) {
            // Each member reads the fresh parameters itself, on its own
            // thread.
            Answer::Round { arrived, expected } => BspOutcome {
                params: self.ps.snapshot(),
                arrived,
                expected,
            },
            _ => unreachable!("a round is answered with its outcome"),
        }
    }
}

impl ExecBackend for ThreadedBackend<'_> {
    fn rank(&self) -> usize {
        self.w
    }

    fn elastic(&self) -> bool {
        self.elastic.is_some()
    }

    fn death_round(&mut self, w: usize) -> Option<u64> {
        self.elastic.and_then(|e| e.view.death_round(w))
    }

    fn rejoin_round(&mut self, w: usize) -> Option<u64> {
        self.elastic.and_then(|e| e.view.rejoin_round(w))
    }

    fn is_live(&mut self, w: usize, round: u64) -> bool {
        self.elastic.is_none_or(|e| e.view.is_live(w, round))
    }

    fn live_at(&mut self, round: u64) -> Vec<usize> {
        match self.elastic {
            Some(e) => e.view.live_at(round),
            None => (0..self.workers).collect(),
        }
    }

    fn note_eviction(&mut self) {
        if let Some(fr) = self.faults {
            fr.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn note_rejoin(&mut self) {
        if let Some(fr) = self.faults {
            fr.rejoins.fetch_add(1, Ordering::Relaxed);
        }
        self.with_hub(|hub| hub.rejoin(self.w));
    }

    fn park_clock(&mut self) {
        self.bump_clock(u64::MAX);
    }

    fn ps_snapshot(&mut self) -> ParamSet {
        self.ps.snapshot()
    }

    fn ps_push_pull(&mut self, grad: &ParamSet, lr: f32) -> ParamSet {
        self.ps.push_and_pull(grad, lr)
    }

    fn ps_push(&mut self, delta: &ParamSet, _lr: f32) {
        self.ps.add_delta(delta);
    }

    fn ps_elastic_exchange(&mut self, params: &ParamSet, alpha: f32) -> ParamSet {
        self.ps.elastic_exchange(params, alpha)
    }

    fn bump_clock(&mut self, clock: u64) {
        self.with_hub(|hub| hub.bump_clock(self.w, clock));
    }

    fn wait_min_clock(&mut self, needed: u64) -> u64 {
        match self.ask(None, |hub| hub.wait_min_clock(self.w, needed)) {
            Answer::MinClock(min) => min,
            _ => unreachable!("a staleness gate is answered with a clock"),
        }
    }

    fn ps_gate(&mut self) {
        self.faults.before_apply(self.ps);
    }

    fn ps_applied(&mut self) {
        self.faults.after_apply(self.ps);
    }

    fn bsp_exchange(&mut self, round: u64, grad: ParamSet, lr: f32) -> BspOutcome {
        self.round(round, None, (grad, 1), lr)
    }

    fn coll_send(&mut self, target: usize, params: ParamSet) {
        self.with_hub(|hub| hub.coll_send(self.w, target, params));
    }

    fn coll_recv(&mut self) -> Option<(usize, ParamSet)> {
        // Threaded membership is a pre-computed view shared by every rank,
        // so the expected senders always exist: no deadline.
        match self.ask(None, |hub| hub.coll_recv(self.w, None)) {
            Answer::Coll(item) => item,
            _ => unreachable!("a collective read is answered with an item"),
        }
    }

    fn bsp_exchange_partial(
        &mut self,
        round: u64,
        partial: ParamSet,
        weight: usize,
        lr: f32,
        leaders: usize,
    ) -> BspOutcome {
        self.round(round, Some(leaders), (partial, weight), lr)
    }

    fn gossip_send(&mut self, target: usize, params: ParamSet, alpha: f32) {
        self.with_hub(|hub| hub.gossip_send(target, params, alpha));
    }

    fn gossip_drain(&mut self) -> Vec<(ParamSet, f32)> {
        self.with_hub(|hub| hub.gossip_drain(self.w))
    }

    fn exchange_request(&mut self, target: usize, params: ParamSet) {
        let token = self.with_hub(|hub| hub.exchange_request(self.w, target, params));
        self.pending_reply = Some(token);
    }

    fn exchange_await(&mut self) -> Option<ParamSet> {
        let token = self.pending_reply.take()?;
        // Transport deadline (elastic only): bounded retry waits, then the
        // exchange is abandoned.
        let (deadline, retries) = match self.elastic {
            Some(e) => (
                Some(Duration::from_nanos(e.cfg.transfer_deadline.as_nanos())),
                e.cfg.max_retries.max(1),
            ),
            None => (None, 1),
        };
        for attempt in 1..=retries {
            let until = deadline.map(|d| self.wall.elapsed() + d);
            match self.ask(deadline, |hub| hub.exchange_await(token, until)) {
                Answer::Exchange(Reply::Ready(midpoint)) => return Some(midpoint),
                Answer::Exchange(Reply::TimedOut) => markers::retry(&self.obs, self.ns(), attempt),
                _ => return None,
            }
        }
        self.with_hub(|hub| hub.exchange_abandon(token));
        None
    }

    fn exchange_next(&mut self, block: bool) -> Option<PeerRequest> {
        let Answer::Peer(item) = self.ask(None, |hub| hub.exchange_next(self.w, block)) else {
            unreachable!("a mailbox read is answered with an item")
        };
        Some(match item? {
            PeerItem::Exchange { token, params } => PeerRequest::Exchange {
                params,
                token: ReplyToken::Remote(token),
            },
            PeerItem::Done => PeerRequest::Done,
        })
    }

    fn exchange_reply(&mut self, token: ReplyToken, midpoint: ParamSet) {
        if let ReplyToken::Remote(token) = token {
            self.with_hub(|hub| hub.exchange_respond(token, midpoint));
        }
    }

    fn announce_done(&mut self) {
        self.with_hub(|hub| hub.announce_done(self.w));
    }

    fn startup(&mut self, params: &ParamSet, opt: &SgdMomentum) {
        if let Some(fr) = self.faults {
            fr.store.save(self.w, 0, params, opt);
            self.last_beat = self.wall.elapsed();
        }
    }

    fn poll_crash(&mut self, local_iter: u64) -> Option<Option<(ParamSet, SgdMomentum, u64)>> {
        let fr = self.faults?;
        if self.elastic.is_some() {
            return None;
        }
        if self.crash_iters.front().is_none_or(|&it| it > local_iter) {
            return None;
        }
        self.crash_iters.pop_front();
        markers::crash(&self.obs, self.ns(), self.w);
        let restored = fr.crash_restart(self.w);
        if let Some((_, _, cp_iter)) = restored.as_ref() {
            markers::ckpt_restore(&self.obs, self.ns(), *cp_iter);
            markers::restart(&self.obs, self.ns(), self.w);
        }
        Some(restored)
    }

    fn checkpoint_restore(&mut self) -> Option<(ParamSet, SgdMomentum, u64)> {
        let cp = self.faults?.store.restore(self.w)?;
        Some((cp.params, cp.opt, cp.iteration))
    }

    fn iter_end(
        &mut self,
        _round: u64,
        local_iter: u64,
        elapsed: Duration,
        state: &mut dyn FnMut() -> (ParamSet, SgdMomentum),
    ) {
        if let Some(fr) = self.faults {
            // Persistent straggler: stretch this iteration by the slowdown
            // factor (sleep the extra fraction of what it actually took).
            if self.slowdown > 1.0 {
                std::thread::sleep(elapsed.mul_f64(self.slowdown - 1.0));
            }
            let now = self.wall.elapsed();
            if now - self.last_beat > fr.cfg.heartbeat_timeout {
                fr.missed_heartbeats.fetch_add(1, Ordering::Relaxed);
            }
            self.last_beat = now;
            fr.global_iters.fetch_add(1, Ordering::Relaxed);
            if fr.store.due(local_iter) {
                let (params, opt) = state();
                fr.store.save(self.w, local_iter, &params, &opt);
                markers::ckpt_save(&self.obs, self.ns(), local_iter);
            }
        }
    }
}

/// Train `factory()`-built replicas over `train` with `cfg.workers`
/// threads; evaluate the aggregate model on `test`.
pub fn train_threaded<F>(
    factory: F,
    train: &Arc<Dataset>,
    test: &Dataset,
    cfg: &ThreadedConfig,
) -> ThreadedReport
where
    F: Fn() -> Network + Send + Sync,
{
    train_threaded_observed(factory, train, test, cfg, &ObsSink::disabled())
}

/// [`train_threaded`] with structured-event observation: per-iteration and
/// per-compute spans, cumulative `logical.bytes` counters, and fault
/// markers land in `sink`, stamped with wall-clock nanoseconds since run
/// start. The *logical* counters (payload bytes, iteration counts) are
/// deterministic and comparable with the simulator's; timestamps are not.
pub fn train_threaded_observed<F>(
    factory: F,
    train: &Arc<Dataset>,
    test: &Dataset,
    cfg: &ThreadedConfig,
    sink: &ObsSink,
) -> ThreadedReport
where
    F: Fn() -> Network + Send + Sync,
{
    assert!(cfg.workers >= 1, "need at least one worker");
    if let Err(e) = cfg.strategy.validate(cfg.workers) {
        panic!("{e}");
    }
    let shard_len = train.len() / cfg.workers;
    assert!(
        train.len().is_multiple_of(cfg.workers) && shard_len.is_multiple_of(cfg.batch),
        "dataset ({}) must divide evenly into workers x batch ({} x {})",
        train.len(),
        cfg.workers,
        cfg.batch
    );

    let plan = cfg.plan();
    let elastic = cfg.faults.as_ref().and_then(|fc| fc.elastic.as_ref());
    if let Some(fc) = &cfg.faults {
        assert!(
            fc.elastic.is_none() || fc.schedule.crashes.is_empty(),
            "an elastic run takes its crashes from the membership view; \
             schedule.crashes must be empty, got {:?}",
            fc.schedule.crashes
        );
    }
    let deadline = elastic.map(|e| Duration::from_nanos(e.cfg.barrier_deadline.as_nanos()));
    let hub = plan.hub(factory().get_params(), deadline);
    let ps = Arc::clone(hub.ps());
    let hub = Mutex::new(hub);
    let (slots, answers): (Vec<_>, Vec<_>) = (0..cfg.workers).map(|_| mpsc::channel()).unzip();
    let clock = Instant::now();
    let faults: Option<FaultRuntime> = cfg
        .faults
        .clone()
        .map(|fc| FaultRuntime::new(fc, sink.track(Track::Runtime(0)), clock));
    let faults = faults.as_ref();
    if let Some(fr) = faults {
        // Baseline PS checkpoint so an outage before the first cadence tick
        // still has a state to roll back to.
        let g = ps.global.lock().unwrap();
        fr.store.save(PS_OWNER, 0, &g.0, &g.1);
    }

    let started = Instant::now();
    let finals: Vec<(ParamSet, Duration)> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(cfg.workers);
        for (w, answers) in answers.into_iter().enumerate() {
            let (hub, ps, slots, plan, factory) = (&hub, &*ps, &slots[..], &plan, &factory);
            let train = Arc::clone(train);
            let obs = sink.track(Track::Worker(w as u16));
            let backend_obs = sink.track(Track::Worker(w as u16));
            handles.push(scope.spawn(move || {
                let mut backend = ThreadedBackend {
                    w,
                    workers: plan.workers,
                    hub,
                    ps,
                    slots,
                    answers,
                    elastic,
                    slowdown: faults.map_or(1.0, |fr| fr.cfg.schedule.straggler_slowdown(w)),
                    crash_iters: faults
                        .map(|fr| {
                            let mut c = fr.cfg.schedule.crash_iterations_for(w);
                            c.sort_unstable();
                            c.into()
                        })
                        .unwrap_or_default(),
                    faults,
                    obs: backend_obs,
                    wall: clock,
                    last_beat: Duration::ZERO,
                    pending_reply: None,
                };
                let out = worker_body(&mut backend, factory(), &train, plan, &obs, clock);
                (out.params, out.busy)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });
    let wall_time = started.elapsed();
    let per_worker_busy: Vec<Duration> = finals.iter().map(|(_, b)| *b).collect();

    // Aggregate model: replica mean over the final cohort (equals any
    // replica for BSP).
    let replicas: Vec<(usize, &ParamSet)> = finals
        .iter()
        .enumerate()
        .map(|(w, (p, _))| (w, p))
        .collect();
    let (mean, drift) = plan.final_cohort(&replicas, elastic.map(|e| &*e.view), train.len());
    let mut eval_net = factory();
    eval_net.set_params(&mean);
    let (x, y) = test.as_batch();
    let (loss, acc) = eval_net.eval_batch(x, &y);
    let counter = |f: fn(&FaultRuntime) -> &AtomicU64| -> u64 {
        faults.map_or(0, |fr| f(fr).load(Ordering::Relaxed))
    };
    // Classic runs execute the full schedule; elastic runs execute exactly
    // the rounds the membership view scheduled (counted as they happen).
    let total_iterations = match faults {
        Some(fr) if fr.cfg.elastic.is_some() => fr.global_iters.load(Ordering::Relaxed),
        _ => cfg.workers as u64 * cfg.epochs * (shard_len / cfg.batch) as u64,
    };
    ThreadedReport {
        strategy: cfg.strategy.name(),
        final_accuracy: acc,
        final_loss: loss,
        wall_time,
        total_iterations,
        final_drift: drift,
        restarts: counter(|fr| &fr.restarts),
        abandoned_restarts: counter(|fr| &fr.abandoned),
        ps_recoveries: counter(|fr| &fr.ps_recoveries),
        missed_heartbeats: counter(|fr| &fr.missed_heartbeats),
        evictions: counter(|fr| &fr.evictions),
        rejoins: counter(|fr| &fr.rejoins),
        final_params: mean,
        per_worker_busy,
    }
}
