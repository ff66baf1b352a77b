//! The execution-backend abstraction: one set of algorithm bodies, three
//! ways to run them.
//!
//! [`crate::worker_body`] contains the seven aggregation algorithms written
//! once against this trait, and [`crate::Hub`] contains what those workers
//! exchange *with*, also written once. What varies between the two real
//! paths is only how a worker reaches the hub:
//!
//! | path | backend | reaches the hub by |
//! |---|---|---|
//! | threads | `ThreadedBackend` (in this crate) | a direct call |
//! | processes | `ProcBackend` (`dtrain-proc`) | a frame over TCP, decoded by the coordinator into the same call |
//! | simulator | `dtrain-algos` | — (own bodies; held to the same logical work by the three-way pin) |
//!
//! The simulator keeps its own deterministic implementations (it must charge
//! modeled time, not real time); all three paths take the same
//! [`dtrain_faults::Algo`], and the three-way pin
//! (`dtrain-proc/tests/cross_path_three_way.rs`) holds all seven algorithms
//! to the same per-worker payload bytes and iteration counts on every path.
//!
//! Method families:
//!
//! * **membership** — the elastic view (PR 4): who is live at a round, when
//!   this worker dies/rejoins. The threaded backend answers from a
//!   pre-computed [`dtrain_faults::MembershipView`]; the process backend
//!   answers from the coordinator's *dynamic* table, built as real
//!   processes die.
//! * **parameter server** — push/pull primitives for BSP/ASP/SSP/EASGD
//!   (and AR-SGD, which the real paths run as BSP's synchronous round).
//! * **peer exchange** — mailbox primitives for GoSGD and AD-PSGD.
//! * **fault hooks** — checkpoint cadence, crash restore, heartbeats.

use std::time::Duration;

use crossbeam_channel::Sender;
use dtrain_cluster::CollectiveSchedule;
use dtrain_faults::{Algo, Hub, MembershipView};
use dtrain_nn::{ParamSet, SgdMomentum};

/// The path-agnostic slice of a run configuration: everything
/// [`crate::worker_body`] needs to execute its share of the training run.
/// Both `ThreadedConfig` and the process-path config lower into this.
#[derive(Clone, Debug)]
pub struct RunPlan {
    pub workers: usize,
    pub epochs: u64,
    pub batch: usize,
    pub strategy: Algo,
    /// Single-worker base LR; scaled/warmed/decayed like the paper.
    pub base_lr: f32,
    pub momentum: f32,
    pub weight_decay: f32,
    pub seed: u64,
    /// Reduction schedule for the synchronous (BSP, AR-SGD) rounds. `Flat`
    /// is the classic all-ranks barrier; `Hier`/`Pipelined` run the
    /// two-level machine-grouped exchange from [`crate::hier_bsp_exchange`].
    pub collective: CollectiveSchedule,
    /// Ranks per machine group for the hierarchical schedules (ranks
    /// `[m*g, (m+1)*g)` share machine `m`, mirroring the simulator's
    /// placement). Ignored when `collective` is `Flat`.
    pub gpus_per_machine: usize,
}

impl Default for RunPlan {
    fn default() -> Self {
        RunPlan {
            workers: 4,
            epochs: 10,
            batch: 32,
            strategy: Algo::Bsp,
            base_lr: 0.02,
            momentum: 0.9,
            weight_decay: 1e-4,
            seed: 0,
            collective: CollectiveSchedule::Flat,
            gpus_per_machine: 2,
        }
    }
}

impl RunPlan {
    /// The hub a run of this plan starts from, its server at `params`.
    pub fn hub(&self, params: ParamSet, barrier_deadline: Option<Duration>) -> Hub {
        Hub::new(
            params,
            self.workers,
            self.momentum,
            self.weight_decay,
            barrier_deadline,
        )
    }

    /// The trained model of a finished run: the mean of the replicas of the
    /// ranks live at the run's last round (every replica handed in when
    /// there is no view or none of them was live), and the max elementwise
    /// distance of a cohort replica from that mean. An evicted rank's stale
    /// replica is not part of the trained model.
    pub fn final_cohort(
        &self,
        replicas: &[(usize, &ParamSet)],
        view: Option<&MembershipView>,
        train_len: usize,
    ) -> (ParamSet, f32) {
        let rounds = self.epochs * (train_len / self.workers / self.batch) as u64;
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
}

/// Result of one BSP barrier round.
pub struct BspOutcome {
    /// Fresh global parameters after the round's aggregation.
    pub params: ParamSet,
    /// `Some(n)` iff this worker closed the round (the leader), with the
    /// number of members that actually deposited — `< expected` means the
    /// round force-closed partially at the barrier deadline.
    pub arrived: Option<usize>,
    /// Members the barrier was waiting for this round.
    pub expected: usize,
}

/// Opaque return address for one AD-PSGD exchange request: the passive side
/// hands it back with the midpoint.
pub enum ReplyToken {
    /// A channel straight back to the requester. No backend in this
    /// workspace constructs it any more (both real paths hand out the
    /// hub's `Remote` tokens); kept for out-of-tree `ExecBackend`s.
    Local(Sender<ParamSet>),
    /// A token issued by [`crate::Hub::exchange_request`].
    Remote(u64),
}

/// One item from a worker's peer-exchange mailbox.
pub enum PeerRequest {
    /// An active peer proposes an exchange; reply with the midpoint.
    Exchange { params: ParamSet, token: ReplyToken },
    /// One active worker announced completion (passives exit after hearing
    /// from every active).
    Done,
}

/// Transport + coordination primitives behind one training worker.
///
/// Implementations are *per worker*: a backend instance is owned by exactly
/// one worker (thread or process) and carries its identity. Blocking
/// methods (`bsp_exchange`, `wait_min_clock`, `exchange_next(block=true)`)
/// may park the caller; deadline policy is the backend's.
pub trait ExecBackend {
    /// This worker's rank in `[0, workers)`.
    fn rank(&self) -> usize;

    // --- elastic membership ---

    /// Is an elastic membership view in force? When false the gate in
    /// `worker_body` is skipped entirely (classic restart-based recovery).
    fn elastic(&self) -> bool;
    /// Round at which `w` stops participating, if scheduled/observed.
    /// (`&mut`: the process backend answers membership over RPC.)
    fn death_round(&mut self, w: usize) -> Option<u64>;
    /// Round at which `w` re-enters, if ever.
    fn rejoin_round(&mut self, w: usize) -> Option<u64>;
    /// Is `w` participating at `round`?
    fn is_live(&mut self, w: usize, round: u64) -> bool;
    /// Workers participating at `round`, ascending.
    fn live_at(&mut self, round: u64) -> Vec<usize>;
    /// Count one eviction (this worker's own death round was reached).
    fn note_eviction(&mut self);
    /// Count one rejoin (this worker re-entered the cohort).
    fn note_rejoin(&mut self);
    /// Park this worker's SSP clock at `u64::MAX` so survivors' staleness
    /// gates exclude it.
    fn park_clock(&mut self);

    // --- centralized parameter server ---

    /// Read-only snapshot of the global parameters.
    fn ps_snapshot(&mut self) -> ParamSet;
    /// ASP: apply `grad` at `lr`, return fresh global parameters.
    fn ps_push_pull(&mut self, grad: &ParamSet, lr: f32) -> ParamSet;
    /// SSP: add this worker's applied delta (`rules::ssp_step`) to the
    /// globals. `lr` is the rate the delta was taken at; no server reads it,
    /// and it stays because `perf/`'s `TimedBackend` implements this.
    fn ps_push(&mut self, delta: &ParamSet, lr: f32);
    /// EASGD: symmetric elastic-averaging exchange with the center.
    fn ps_elastic_exchange(&mut self, params: &ParamSet, alpha: f32) -> ParamSet;
    /// Advance this worker's SSP clock.
    fn bump_clock(&mut self, clock: u64);
    /// Block until `min(live clocks) ≥ needed`; returns the min observed.
    fn wait_min_clock(&mut self, needed: u64) -> u64;
    /// Fault hook: consume a pending PS outage, if any (threaded path).
    fn ps_gate(&mut self);
    /// Fault hook: count one PS apply toward the server checkpoint cadence.
    fn ps_applied(&mut self);

    // --- BSP ---

    /// Deposit `grad` for `round`, wait for the round to close (the backend
    /// decides the expected cohort and the barrier deadline), and return
    /// the post-aggregation parameters.
    fn bsp_exchange(&mut self, round: u64, grad: ParamSet, lr: f32) -> BspOutcome;

    // --- BSP, hierarchical (intra-machine legs of `hier_bsp_exchange`) ---

    /// Hand `params` (a raw gradient or fresh parameters) to `target`'s
    /// collective mailbox. Fire-and-forget.
    fn coll_send(&mut self, _target: usize, _params: ParamSet) {
        unimplemented!("this backend does not support hierarchical collectives")
    }
    /// Next item from this worker's collective mailbox, blocking. `None`
    /// when the sender is gone (peer death / run teardown) — the caller
    /// degrades rather than hangs.
    fn coll_recv(&mut self) -> Option<(usize, ParamSet)> {
        unimplemented!("this backend does not support hierarchical collectives")
    }
    /// Leader side of the hierarchical round: deposit a machine-local
    /// partial sum covering `weight` ranks, wait for the `leaders`-wide
    /// barrier to close, and return the post-aggregation parameters. The
    /// closer sums partials ascending by leader rank and scales by the
    /// total weight, so every backend executes the identical float tree.
    fn bsp_exchange_partial(
        &mut self,
        _round: u64,
        _partial: ParamSet,
        _weight: usize,
        _lr: f32,
        _leaders: usize,
    ) -> BspOutcome {
        unimplemented!("this backend does not support hierarchical collectives")
    }

    // --- decentralized: gossip ---

    /// Fire-and-forget a gossip share at `target`.
    fn gossip_send(&mut self, target: usize, params: ParamSet, alpha: f32);
    /// Take everything queued in this worker's gossip mailbox.
    fn gossip_drain(&mut self) -> Vec<(ParamSet, f32)>;

    // --- decentralized: AD-PSGD ---

    /// Active side: post an exchange request at `target` (non-blocking;
    /// the reply is claimed later with [`Self::exchange_await`]).
    fn exchange_request(&mut self, target: usize, params: ParamSet);
    /// Active side: await the midpoint of the outstanding request. `None`
    /// when the exchange was abandoned (peer death / deadline exhausted).
    fn exchange_await(&mut self) -> Option<ParamSet>;
    /// Passive side: next queued exchange item; blocking when `block`.
    /// `None` means empty (non-blocking) or disconnected (blocking).
    fn exchange_next(&mut self, block: bool) -> Option<PeerRequest>;
    /// Passive side: return the computed midpoint to the requester.
    fn exchange_reply(&mut self, token: ReplyToken, midpoint: ParamSet);
    /// Active side: announce completion to every passive.
    fn announce_done(&mut self);

    // --- lifecycle / fault hooks ---

    /// Called once before the first iteration (baseline checkpoint,
    /// first heartbeat).
    fn startup(&mut self, params: &ParamSet, opt: &SgdMomentum);
    /// Classic (non-elastic) crash injection: if a scheduled crash point at
    /// or before `local_iter` is pending, consume it (markers included) and
    /// return `Some(restored_state)` — `Some(None)` when the restart budget
    /// is exhausted and the crash is abandoned.
    #[allow(clippy::type_complexity)]
    fn poll_crash(&mut self, local_iter: u64) -> Option<Option<(ParamSet, SgdMomentum, u64)>>;
    /// Latest checkpoint for this worker (rejoin adoption for the
    /// decentralized family).
    #[allow(clippy::type_complexity)]
    fn checkpoint_restore(&mut self) -> Option<(ParamSet, SgdMomentum, u64)>;
    /// Called at the end of every executed iteration: heartbeat, straggler
    /// stretch, global iteration accounting, checkpoint cadence. `state`
    /// materializes a snapshot only if the backend decides to checkpoint.
    fn iter_end(
        &mut self,
        round: u64,
        local_iter: u64,
        elapsed: Duration,
        state: &mut dyn FnMut() -> (ParamSet, SgdMomentum),
    );
    /// Called once after the last iteration.
    fn finish(&mut self) {}
}
