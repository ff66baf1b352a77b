//! The four centralized algorithms (paper §III): BSP, ASP, SSP, EASGD.
//!
//! Each runs as worker processes plus one process per parameter-server
//! shard. The PS process ([`ps_process`]) is shared across the four
//! algorithms, dispatching on the [`Algo`]. It is a transport around the
//! shard's [`Hub`], the server the real paths run too: the process charges
//! apply and wire time, fans replies out (serially or over the tree
//! broadcast), and owns outages, failover and checkpoints, as the proc
//! coordinator does; the hub holds the shard's [`PsState`] and runs BSP's
//! round — cohort, partial-barrier deadline, late pushes, the mean — and,
//! on shard 0, SSP's staleness gate. Its worker-side mirror is
//! [`PsBody`], one [`Body`] for the family: the PS shards are who a worker
//! tells when it leaves, pulls from when it rejoins and sends its `Stop`
//! to, and what differs per algorithm (and BSP role) is the step —
//! [`PsBody::step`] dispatches to `bsp_follower_step`, `bsp_leader_step`,
//! `ssp_step`, `easgd_step`, or, for BSP-solo and ASP, plain
//! [`compute_and_push`] + [`pull_replies`]. Gradient pushes are one
//! function ([`push_grad`]); every transfer goes through
//! [`WorkerCore::send`] (see `exec`'s table), which reserves NIC time
//! through [`dtrain_cluster::NetModel`] — that is what produces the
//! PS-bottleneck behaviour the paper analyses.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

use dtrain_cluster::{
    tree_broadcast_delays, CollectiveSchedule, NetModel, NodeId, Phase, ShardHomes, TrafficClass,
};
use dtrain_desim::{Ctx, SimTime};
use dtrain_faults::hub::{Answer, Seat};
use dtrain_faults::{markers, Algo, CheckpointStore, ElasticRuntime, Hub, PsState, PS_OWNER};
use dtrain_nn::rules::{self, rank_sum};
use dtrain_nn::ParamSet;
use dtrain_obs::{names, TrackHandle};

use crate::exec::{slice_set, Addr, Body, Charge, GradData, Msg, WorkerCore};

/// Bytes/second one PS process can sum-and-apply. TF-1.x parameter servers
/// were single-process CPU aggregators, so this is a few GB/s — which is
/// why the paper's profiling found 2 PS per machine better than 1 (§VI-D)
/// and why "the actual aggregation time is only around 30 %" of BSP's
/// global aggregation (§VI-C): apply time is visible but queueing still
/// dominates.
const PS_APPLY_BYTES_PER_SEC: f64 = 1.2e9;
/// Fixed per-message handling overhead at the PS.
const PS_HANDLE_OVERHEAD: SimTime = SimTime::from_micros(50);
/// Time for the PS to fold `bytes` into its state.
fn ps_apply_time(bytes: u64) -> SimTime {
    PS_HANDLE_OVERHEAD + SimTime::from_secs_f64(bytes as f64 / PS_APPLY_BYTES_PER_SEC)
}

/// Fault-injection state of one PS shard: its outage schedule plus the
/// shared checkpoint store its parameter state rolls back to.
pub(crate) struct PsFaultState {
    /// Outage windows `(start, duration)`, earliest first.
    pub outages: VecDeque<(SimTime, SimTime)>,
    pub store: Arc<CheckpointStore>,
    /// Applied pushes (drives the checkpoint cadence).
    pub applies: u64,
}

/// State for one run of the PS process.
pub(crate) struct PsCore {
    pub shard: usize,
    pub node: NodeId,
    pub net: NetModel,
    /// This shard's server: its slice of the global parameters (empty in a
    /// cost-only run) and the BSP round.
    pub hub: Hub,
    /// Real math: replies carry parameters and checkpoints hold them.
    pub real: bool,
    /// Wire bytes of a ShardParams reply, and of every gradient push to
    /// the shard (possibly DGC-compressed timing).
    pub reply_bytes: u64,
    /// Workers (by id) for addressing replies.
    pub workers: Vec<Addr>,
    /// BSP under local aggregation: the machine leaders, a round's cohort.
    pub leaders: Option<usize>,
    /// Number of Stop messages that end this PS.
    pub expected_stops: usize,
    pub faults: Option<PsFaultState>,
    /// The run's membership view and elastic tunables; `Some` exactly in
    /// elastic runs. Switches
    /// [`FaultKind::PsShardFail`](dtrain_faults::FaultKind) from
    /// outage-and-resume to *machine loss with failover*, gives BSP rounds
    /// the view's cohort and arms their partial-barrier deadline.
    pub elastic: Option<ElasticRuntime>,
    /// Live shard→machine map shared with the workers (elastic runs).
    pub homes: Option<ShardHomes>,
    /// Machine count, for choosing a failover home.
    pub machines: usize,
    /// Dense bytes of this shard's state — what a failover must move to the
    /// replacement machine.
    pub state_bytes: u64,
    /// Obs track for this shard (`ps<shard>`); noop when tracing is off.
    pub obs: TrackHandle,
    /// Non-flat: BSP round replies fan out over the double-binary-tree
    /// broadcast instead of a serial per-member send (DESIGN.md §6).
    pub collective: CollectiveSchedule,
}

impl PsCore {
    fn reply_params(&self) -> Option<ParamSet> {
        self.real.then(|| self.hub.ps().snapshot())
    }

    /// Consume any outage windows that have started. The shard loses its
    /// in-memory state (rolled back to the last checkpoint) and is
    /// unavailable until the window ends — messages received meanwhile sat
    /// in the mailbox, which models clients blocking on a dead shard.
    ///
    /// In elastic mode the outage is a *machine loss*: after a detection
    /// window (the schedule's outage duration) the shard fails over to the
    /// next surviving machine — the shared [`ShardHomes`] map is updated so
    /// worker traffic follows, the state is restored from the newest
    /// checkpoint at or before the applied count, and the recovery pays the
    /// state-transfer wire time plus `ps_recovery_delay`.
    fn handle_outage(&mut self, ctx: &Ctx<Msg>) {
        let Some(f) = self.faults.as_mut() else {
            return;
        };
        while f
            .outages
            .front()
            .is_some_and(|&(start, _)| start <= ctx.now())
        {
            let (start, dur) = f.outages.pop_front().unwrap();
            let end = start + dur;
            markers::ps_outage(&self.obs, start.as_nanos(), self.shard);
            if let Some(recovery) = self.elastic.as_ref().map(|e| e.cfg.ps_recovery_delay) {
                // Detection window: the cohort needs `dur` to declare the
                // machine dead.
                ctx.advance_to(end);
                let old_home = self.node;
                let new_home = match &self.homes {
                    Some(h) => h.fail_over(self.shard, self.machines),
                    None => NodeId((self.node.0 + 1) % self.machines.max(1)),
                };
                self.node = new_home;
                markers::shard_failover(&self.obs, ctx.now().as_nanos(), self.shard);
                // Roll back to the newest snapshot not ahead of what the
                // survivors have seen applied.
                let owner = PS_OWNER + self.shard;
                let cp = f.store.restore_at_or_before(owner, f.applies);
                if let Some(cp) = cp.filter(|_| self.real) {
                    *self.hub.ps().global.lock().unwrap() = (cp.params, cp.opt);
                    f.applies = cp.iteration;
                    markers::ckpt_restore(&self.obs, ctx.now().as_nanos(), cp.iteration);
                }
                // The replacement pulls the checkpointed shard state over
                // the wire from the checkpoint host (the lowest-numbered
                // surviving machine), plus a fixed re-admission delay.
                let ckpt_host = NodeId(if old_home.0 == 0 {
                    1 % self.machines.max(1)
                } else {
                    0
                });
                let wire = self.net.transfer_delay_class(
                    ctx.now(),
                    ckpt_host,
                    new_home,
                    self.state_bytes,
                    TrafficClass::Other,
                );
                ctx.advance(wire + recovery);
            } else {
                let cp = f.store.restore(PS_OWNER + self.shard);
                if let Some(cp) = cp.filter(|_| self.real) {
                    *self.hub.ps().global.lock().unwrap() = (cp.params, cp.opt);
                    markers::ckpt_restore(&self.obs, ctx.now().as_nanos(), cp.iteration);
                }
                ctx.advance_to(end);
            }
            markers::ps_recover(&self.obs, ctx.now().as_nanos(), self.shard);
        }
    }

    /// Count one applied update and checkpoint this shard's state on the
    /// configured cadence.
    fn tick_checkpoint(&mut self, now: SimTime) {
        let Some(f) = self.faults.as_mut().filter(|_| self.real) else {
            return;
        };
        f.applies += 1;
        if f.store.due(f.applies) {
            let (params, opt) = &*self.hub.ps().global.lock().unwrap();
            f.store.save(PS_OWNER + self.shard, f.applies, params, opt);
            markers::ckpt_save(&self.obs, now.as_nanos(), f.applies);
        }
    }

    /// Close a BSP round toward `members` through the double-binary-tree
    /// broadcast: both trees each carry half the reply bytes, so every
    /// machine forwards at most one full copy instead of the root
    /// serializing one per member. Per-member delays come from the analytic
    /// tree schedule (causal NIC reservations under
    /// [`TrafficClass::Collective`]).
    fn send_params_tree(&self, ctx: &Ctx<Msg>, members: &[usize]) {
        let dests: Vec<NodeId> = members.iter().map(|&m| self.workers[m].node).collect();
        let delays =
            tree_broadcast_delays(&self.net, ctx.now(), self.node, &dests, self.reply_bytes);
        self.obs.instant(
            ctx.now().as_nanos(),
            names::COLL_TREE_FANOUT,
            members.len() as i64,
        );
        for (&m, delay) in members.iter().zip(delays) {
            ctx.send(
                self.workers[m].pid,
                delay,
                self.shard_params(0, self.reply_params()),
            );
        }
    }

    fn shard_params(&self, clock: u64, data: Option<ParamSet>) -> Msg {
        Msg::ShardParams {
            shard: self.shard,
            clock,
            data,
            bytes: self.reply_bytes,
        }
    }

    fn send_params(&self, ctx: &Ctx<Msg>, to: usize, clock: u64, data: Option<ParamSet>) {
        let dst = self.workers[to];
        let delay = self.net.transfer_delay_class(
            ctx.now(),
            self.node,
            dst.node,
            self.reply_bytes,
            TrafficClass::WorkerPs,
        );
        ctx.send(dst.pid, delay, self.shard_params(clock, data));
    }

    /// Serve one push outside any barrier: pay the apply time, let `fold`
    /// work it into the server, answer the sender with what `fold` hands
    /// back (nothing in a cost-only run), and count the update.
    fn serve_push(
        &mut self,
        ctx: &Ctx<Msg>,
        sender: usize,
        bytes: u64,
        fold: impl FnOnce(&PsState) -> Option<ParamSet>,
    ) {
        ctx.advance(ps_apply_time(bytes));
        let reply = fold(self.hub.ps());
        self.send_params(ctx, sender, 0, reply);
        self.tick_checkpoint(ctx.now());
    }

    /// Reply to what the last hub call answered, released requests first,
    /// in the hub's order (it orders the NIC reservations), then the
    /// caller's own: an SSP gated pull with the slowest clock; BSP members
    /// (`forced`: by a deadline) for their pushes' apply time, over the
    /// tree broadcast if the schedule is not flat, counting one update.
    fn answer(&mut self, ctx: &Ctx<Msg>, answered: Option<(usize, Answer)>, forced: bool) {
        let mut members = Vec::new();
        for (rank, answer) in self.hub.drain().into_iter().chain(answered) {
            match answer {
                Answer::MinClock(clock) => self.send_params(ctx, rank, clock, self.reply_params()),
                _ => members.push(rank),
            }
        }
        if members.is_empty() {
            return;
        }
        if forced {
            markers::partial_barrier(&self.obs, ctx.now().as_nanos(), members.len());
        }
        ctx.advance(ps_apply_time(members.len() as u64 * self.reply_bytes));
        if !self.collective.is_flat() && members.len() > 1 {
            self.send_params_tree(ctx, &members);
        } else {
            for m in members {
                self.send_params(ctx, m, 0, self.reply_params());
            }
        }
        self.tick_checkpoint(ctx.now());
    }
}

/// Elastic BSP: keep the shard's one `RoundDeadline` timer at the hub's
/// earliest barrier deadline, which a round's first member to park with one
/// sets (a rejoiner at its re-entry round parks without; classic runs have
/// none).
fn set_alarm(hub: &Hub, ctx: &Ctx<Msg>, alarm: &mut Option<Duration>) {
    if let Some(due) = hub.next_deadline().filter(|&d| Some(d) != *alarm) {
        let wait = due.saturating_sub(clock(ctx)).as_nanos() as u64;
        ctx.send(ctx.pid(), SimTime::from_nanos(wait), Msg::RoundDeadline);
        *alarm = Some(due);
    }
}

/// The simulated clock as the hub reads it.
fn clock(ctx: &Ctx<Msg>) -> Duration {
    Duration::from_nanos(ctx.now().as_nanos())
}

/// The parameter-server process body.
pub(crate) fn ps_process(mut ps: PsCore, algo: Algo, ctx: Ctx<Msg>) {
    // Baseline checkpoint so an outage before the first cadence tick still
    // has a state to roll back to.
    if let (Some(f), true) = (ps.faults.as_ref(), ps.real) {
        let (params, opt) = &*ps.hub.ps().global.lock().unwrap();
        f.store.save(PS_OWNER + ps.shard, 0, params, opt);
    }
    let mut stops = 0usize;
    // SSP: shard 0 is the clock authority and runs the staleness gate.
    let gate = matches!(algo, Algo::Ssp { .. }) && ps.shard == 0;
    // Elastic BSP: the hub deadline the pending `RoundDeadline` is set for.
    let mut alarm: Option<Duration> = None;

    loop {
        let msg = ctx.recv();
        ps.handle_outage(&ctx);
        match msg {
            Msg::Stop => {
                stops += 1;
                if stops >= ps.expected_stops {
                    break;
                }
            }
            Msg::GradPush {
                sender,
                iter,
                lr,
                weight,
                data,
                bytes,
                ..
            } => match algo {
                // Round-synchronous through the hub.
                Algo::Bsp => {
                    // `None`: a late push, for a round force-closed
                    // without it; the hub answers it at once and drops it.
                    if let Some(held) = ps.hub.deposits(iter) {
                        // How full the barrier is — Fig. 3's "waiting
                        // on stragglers" shape, directly observable.
                        let (now, full) = (ctx.now().as_nanos(), held as i64 + 1);
                        ps.obs.counter(now, names::BARRIER_OCCUPANCY, full);
                    }
                    let seat = Seat {
                        rank: sender,
                        round: iter,
                        view: ps.elastic.as_ref().map(|e| &*e.view),
                        leaders: ps.leaders,
                        now: clock(&ctx),
                    };
                    let deposit = data.map_or_else(|| ParamSet(Vec::new()), GradData::into_dense);
                    let answer = ps.hub.bsp_round(seat, (deposit, weight as usize), lr, &());
                    set_alarm(&ps.hub, &ctx, &mut alarm);
                    ps.answer(&ctx, answer.map(|a| (sender, a)), false);
                }
                // Apply each push at once and reply to its sender.
                Algo::Asp => ps.serve_push(&ctx, sender, bytes, |server| {
                    data.map(|d| server.push_and_pull(&d.into_dense(), lr))
                }),
                // SSPTable: add each push's delta; shard 0 advances the
                // sender's clock, which may open gated pulls.
                Algo::Ssp { .. } => {
                    ctx.advance(ps_apply_time(bytes));
                    // SSP's server half: add the worker's applied delta.
                    if let Some(d) = data {
                        ps.hub.ps().add_delta(&d.into_dense());
                    }
                    if gate {
                        // A push its sender's departure overtook on the
                        // wire leaves the parked clock parked.
                        ps.hub.bump_clock(sender, iter + 1);
                        ps.answer(&ctx, None, false);
                    }
                    ps.tick_checkpoint(ctx.now());
                }
                _ => unreachable!("{} pushes no gradients to a PS", algo.name()),
            },
            Msg::PullReq { sender, .. } => {
                // An ungated pull is answered at once: an SSP refresh at
                // the shards past 0, and every centralized algorithm's
                // elastic rejoin, which pulls every shard.
                ps.send_params(&ctx, sender, 0, ps.reply_params());
            }
            Msg::ParamPush {
                sender,
                data,
                bytes,
                ..
            } => {
                // Elastic averaging: the reply carries the *updated worker*
                // parameters.
                let Algo::Easgd { alpha, .. } = algo else {
                    unreachable!("ParamPush outside EASGD")
                };
                let alpha = Algo::easgd_alpha(alpha, ps.workers.len());
                ps.serve_push(&ctx, sender, bytes, |server| {
                    data.map(|worker| server.elastic_exchange(&worker, alpha))
                });
            }
            Msg::GatedPull { sender, min_needed } => {
                // SSP's staleness gate: reply once the slowest clock
                // reaches `min_needed`.
                let answer = ps.hub.wait_min_clock(sender, min_needed);
                ps.answer(&ctx, answer.map(|a| (sender, a)), false);
            }
            Msg::MemberDown {
                worker,
                permanent,
                rejoining,
            } => {
                if permanent {
                    // A rejoining member still owes its Stop at the end of
                    // the run; only a member gone for good is written off.
                    if !rejoining {
                        ps.expected_stops = ps.expected_stops.saturating_sub(1);
                        if stops >= ps.expected_stops {
                            break;
                        }
                    }
                    // The worker stops pushing until it rejoins: a BSP
                    // round it leaves complete closes. A temporary crash
                    // evicts nothing — the paused worker resumes its round.
                    ps.hub.evict(worker, rejoining);
                }
                if gate {
                    // Drop-and-readmit: park the clock so the staleness
                    // bound excludes the crashed worker.
                    ps.hub.bump_clock(worker, u64::MAX);
                }
                ps.answer(&ctx, None, false);
            }
            Msg::MemberUp { worker } => ps.hub.rejoin(worker),
            Msg::RoundDeadline => {
                // Partial-barrier policy (elastic BSP): a round still short
                // of its cohort a deadline after its first arrival closes
                // with whoever arrived; members missing from it pass
                // through when their late push lands.
                ps.hub.tick(clock(&ctx), &());
                ps.answer(&ctx, None, true);
                set_alarm(&ps.hub, &ctx, &mut alarm);
            }
            other => unreachable!("PS got unexpected message {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// Role of a BSP worker under local aggregation.
pub(crate) enum BspRole {
    /// No local aggregation: push straight to the PS shards.
    Solo,
    /// Machine leader: aggregates co-located gradients, talks to the PS,
    /// re-broadcasts fresh parameters locally.
    Leader { followers: Vec<Addr> },
    /// Sends gradients to the leader, receives parameters back.
    Follower { leader: Addr },
}

/// The worker side of the centralized family: one membership protocol — the
/// PS shards track the cohort — around four steps.
pub(crate) enum PsBody {
    /// BSP (paper §III-A), optionally with local aggregation.
    Bsp(BspRole),
    /// ASP (paper §III-B): push, get fresh params back, never wait for
    /// other workers.
    Asp,
    /// SSP (paper §III-C): asynchronous pushes with a staleness bound.
    /// `cache_ts` is the min worker clock the local cache reflects.
    Ssp { staleness: u64, cache_ts: u64 },
    /// EASGD (paper §III-D): pure local SGD, elastic exchange with the PS
    /// every `tau` iterations.
    Easgd { tau: u64 },
}

impl Body for PsBody {
    fn step(&mut self, core: &mut WorkerCore, ctx: &Ctx<Msg>, iter: u64) {
        match self {
            PsBody::Bsp(BspRole::Solo) => {
                let lr = core.round_lr();
                push_and_pull(core, ctx, iter, lr)
            }
            PsBody::Bsp(BspRole::Follower { leader }) => {
                bsp_follower_step(core, ctx, iter, *leader)
            }
            PsBody::Bsp(BspRole::Leader { followers }) => {
                bsp_leader_step(core, ctx, iter, followers)
            }
            PsBody::Asp => {
                let lr = core.current_lr();
                push_and_pull(core, ctx, iter, lr);
                if let Some(real) = core.real.as_mut() {
                    real.opt.reset(); // momentum lives at the PS
                }
            }
            PsBody::Ssp {
                staleness,
                cache_ts,
            } => ssp_step(core, ctx, iter, *staleness, cache_ts),
            PsBody::Easgd { tau } => easgd_step(core, ctx, iter, *tau),
        }
    }

    /// The shards repair around the loss: BSP rounds shrink, the SSP bound
    /// drops the member.
    fn depart(&mut self, core: &mut WorkerCore, ctx: &Ctx<Msg>, rejoining: bool) {
        core.announce_ps(
            ctx,
            Msg::MemberDown {
                worker: core.w,
                permanent: true,
                rejoining,
            },
        );
    }

    /// Pull the current model from every shard (wire bytes charged), reset
    /// the optimizer, announce MemberUp — NIC FIFO guarantees it precedes
    /// the first new push at every shard.
    fn rejoin(&mut self, core: &mut WorkerCore, ctx: &Ctx<Msg>, j: u64) {
        request_params(core, ctx, None);
        pull_replies(core, ctx);
        if let Some(real) = core.real.as_mut() {
            real.opt.reset();
        }
        core.announce_ps(ctx, Msg::MemberUp { worker: core.w });
        if let PsBody::Ssp { cache_ts, .. } = self {
            // The rejoin pull refreshed the cache as of "now".
            *cache_ts = j;
        }
    }

    /// Tell the PS shards we're done (a follower is not one of the PS's
    /// senders; its leader is).
    fn epilogue(&mut self, core: &mut WorkerCore, ctx: &Ctx<Msg>) {
        if !matches!(self, PsBody::Bsp(BspRole::Follower { .. })) {
            for &shard in &core.ps {
                core.send_stop(ctx, shard);
            }
        }
    }
}

/// BSP-solo and ASP: push this iteration's gradient as it is produced,
/// tagged with the rate the server applies it at, then block for every
/// shard's fresh parameters.
fn push_and_pull(core: &mut WorkerCore, ctx: &Ctx<Msg>, iter: u64, lr: f32) {
    let grads = fresh_payloads(core);
    compute_and_push(core, ctx, iter, lr, grads);
    pull_replies(core, ctx);
}

/// Real mode: this iteration's gradient as per-shard payloads.
fn fresh_payloads(core: &mut WorkerCore) -> Option<Vec<GradData>> {
    core.real.as_mut().map(|real| {
        let grad = real.compute_grad();
        real.shard_payloads(&grad)
    })
}

/// One shard's gradient to its PS shard; `weight` = how many workers'
/// gradients `data` sums.
fn push_grad(
    core: &mut WorkerCore,
    ctx: &Ctx<Msg>,
    iter: u64,
    s: usize,
    lr: f32,
    weight: u32,
    data: Option<GradData>,
) {
    let bytes = core.grad_bytes(s);
    let push = Msg::GradPush {
        sender: core.w,
        shard: s,
        iter,
        lr,
        weight,
        data,
        bytes,
    };
    core.send(
        ctx,
        core.ps_addr(s),
        TrafficClass::WorkerPs,
        Charge::Wire,
        push,
    );
}

/// The compute phase, each shard's payload leaving for its PS shard the
/// moment it may (BSP-solo, ASP, SSP).
fn compute_and_push(
    core: &mut WorkerCore,
    ctx: &Ctx<Msg>,
    iter: u64,
    lr: f32,
    payloads: Option<Vec<GradData>>,
) {
    core.run_compute_phase(ctx, |core, ctx, s| {
        let data = payloads.as_ref().map(|g| g[s].clone());
        push_grad(core, ctx, iter, s, lr, 1, data);
    });
}

/// Ask every shard for its current parameters. `min_needed` makes shard 0
/// — SSP's clock authority — hold its reply until the slowest live worker's
/// clock has reached it; the other shards always reply at once.
fn request_params(core: &mut WorkerCore, ctx: &Ctx<Msg>, min_needed: Option<u64>) {
    for s in 0..core.ps.len() {
        let sender = core.w;
        let pull = match min_needed {
            Some(min_needed) if s == 0 => Msg::GatedPull { sender, min_needed },
            _ => Msg::PullReq { sender, shard: s },
        };
        core.send(
            ctx,
            core.ps_addr(s),
            TrafficClass::WorkerPs,
            Charge::Free,
            pull,
        );
    }
}

/// Block until every shard's `ShardParams` is in; write each into the
/// local replica; attribute the blocked time to GlobalAgg, minus the
/// replies' analytic wire time, which goes to Comm. Returns the largest
/// clock a reply carried (SSP).
fn pull_replies(core: &mut WorkerCore, ctx: &Ctx<Msg>) -> u64 {
    collect_shard_params(core, ctx, Vec::new(), |core, _, bytes| {
        core.wire_time_for_reply(bytes)
    })
}

/// [`pull_replies`] with its two degrees of freedom open: `early` holds
/// replies the caller already took off the mailbox, `reply_wire` prices one
/// reply of `bytes` from shard `s`.
fn collect_shard_params(
    core: &mut WorkerCore,
    ctx: &Ctx<Msg>,
    early: Vec<Msg>,
    reply_wire: impl Fn(&WorkerCore, usize, u64) -> SimTime,
) -> u64 {
    let t0 = ctx.now();
    let mut early = early.into_iter();
    let mut wire = SimTime::ZERO;
    let mut max_clock = 0u64;
    for _ in 0..core.ps.len() {
        let reply = early
            .next()
            .unwrap_or_else(|| ctx.recv_match(|m| matches!(m, Msg::ShardParams { .. })));
        let Msg::ShardParams {
            shard,
            clock,
            data,
            bytes,
        } = reply
        else {
            unreachable!("expected a shard reply, got {reply:?}")
        };
        if let (Some(real), Some(p)) = (core.real.as_mut(), data) {
            real.set_shard_params(shard, &p);
        }
        max_clock = max_clock.max(clock);
        wire += reply_wire(core, shard, bytes);
    }
    let blocked = ctx.now() - t0;
    let wire = wire.min(blocked);
    core.metrics
        .record_at(core.w, Phase::Comm, ctx.now() - wire, wire);
    core.metrics
        .record_at(core.w, Phase::GlobalAgg, t0, blocked.saturating_sub(wire));
    max_clock
}

fn bsp_follower_step(core: &mut WorkerCore, ctx: &Ctx<Msg>, iter: u64, leader: Addr) {
    let grads = fresh_payloads(core);
    core.run_compute_phase(ctx, |core, ctx, s| {
        let bytes = core.grad_bytes(s);
        let grad = Msg::LocalGrad {
            sender: core.w,
            iter,
            shard: s,
            data: grads.as_ref().map(|g| g[s].clone()),
            bytes,
        };
        core.send(ctx, leader, TrafficClass::LocalAgg, Charge::Free, grad);
    });
    // Wait for fresh parameters from the leader.
    let t0 = ctx.now();
    let msg = ctx.recv_match(|m| matches!(m, Msg::LocalParams { .. }));
    core.metrics
        .record_at(core.w, Phase::LocalAgg, t0, ctx.now() - t0);
    if let (Some(real), Msg::LocalParams { data: Some(p), .. }) = (core.real.as_mut(), msg) {
        real.net.set_params(&p);
        real.opt.reset();
    }
}

/// What has arrived at a machine leader for each shard this round, and
/// what has gone up to the PS.
struct LeaderRound {
    iter: u64,
    lr: f32,
    /// Gradients per shard a push waits for: the followers' and its own.
    machine: usize,
    /// Per shard, the gradients that arrived keyed by sender (real math),
    /// and how many arrived.
    parts: Vec<Vec<(usize, ParamSet)>>,
    arrived: Vec<usize>,
    pushed: Vec<bool>,
    /// Anything that is not a co-located gradient — early shard replies.
    deferred: Vec<Msg>,
}

impl LeaderRound {
    fn add(&mut self, shard: usize, sender: usize, data: Option<GradData>) {
        if let Some(d) = data {
            self.parts[shard].push((sender, d.into_dense()));
        }
        self.arrived[shard] += 1;
    }

    /// Take one message off the mailbox; a follower's gradient is kept
    /// for its shard's sum and the shard handed back.
    fn absorb(&mut self, m: Msg) -> Option<usize> {
        match m {
            Msg::LocalGrad {
                sender,
                shard,
                data,
                ..
            } => {
                self.add(shard, sender, data);
                Some(shard)
            }
            other => {
                self.deferred.push(other);
                None
            }
        }
    }

    /// Push shard `s` once everything local arrived: ONE message per
    /// machine, the machine's gradients summed in rank order (as
    /// `hier_bsp_exchange`'s leader sums them), same size as a single one.
    fn push_if_complete(&mut self, core: &mut WorkerCore, ctx: &Ctx<Msg>, s: usize) {
        if self.pushed[s] || self.arrived[s] != self.machine {
            return;
        }
        let data = rank_sum(std::mem::take(&mut self.parts[s])).map(GradData::Dense);
        push_grad(core, ctx, self.iter, s, self.lr, self.machine as u32, data);
        self.pushed[s] = true;
    }
}

fn bsp_leader_step(core: &mut WorkerCore, ctx: &Ctx<Msg>, iter: u64, followers: &[Addr]) {
    let shards = core.ps.len();
    let grads = fresh_payloads(core);
    let mut round = LeaderRound {
        iter,
        lr: core.round_lr(),
        machine: followers.len() + 1,
        parts: vec![Vec::new(); shards],
        arrived: vec![0; shards],
        pushed: vec![false; shards],
        deferred: Vec::new(),
    };
    core.run_compute_phase(ctx, |core, ctx, s| {
        round.add(s, core.w, grads.as_ref().map(|g| g[s].clone()));
        // Drain any peer gradients that already arrived.
        while let Some(m) = ctx.try_recv() {
            round.absorb(m);
        }
        for sh in 0..shards {
            round.push_if_complete(core, ctx, sh);
        }
    });
    // Wait (LocalAgg) until every shard has been pushed.
    let t_local = ctx.now();
    while round.pushed.iter().any(|&p| !p) {
        if let Some(shard) = round.absorb(ctx.recv()) {
            round.push_if_complete(core, ctx, shard);
        }
    }
    core.metrics
        .record_at(core.w, Phase::LocalAgg, t_local, ctx.now() - t_local);
    // Shard replies, some possibly among the deferred; a co-located shard's
    // reply is priced at the intra-machine rate.
    collect_shard_params(core, ctx, round.deferred, |core, s, bytes| {
        core.wire_time(core.ps[s].node, bytes)
    });
    // Broadcast fresh full parameters to followers.
    let full = core.replica();
    let full_bytes = core.model_bytes();
    for &f in followers {
        let params = Msg::LocalParams {
            data: full.clone(),
            bytes: full_bytes,
        };
        core.send(ctx, f, TrafficClass::LocalAgg, Charge::Free, params);
    }
}

/// A worker trains against its local cache; whenever its clock outruns the
/// cache timestamp by more than `staleness`, it must refresh from the PS —
/// and the refresh is *gated* until the slowest worker's clock reaches
/// `clock − s`, which is exactly the SSPTable read rule of Ho et al. With
/// `s = 0` this degenerates to BSP-like lockstep; with `s = ∞` to isolated
/// local training (ensembling), as the paper notes.
fn ssp_step(core: &mut WorkerCore, ctx: &Ctx<Msg>, iter: u64, staleness: u64, cache_ts: &mut u64) {
    let shards = core.ps.len();
    // SSPTable semantics (Ho et al.): step the cache with the worker's own
    // optimizer and push the applied delta; the server only adds it.
    let num_workers = core.num_workers;
    let deltas = core.real.as_mut().map(|real| {
        let g = real.compute_grad();
        let glr = real.grad_lr(num_workers);
        let delta = rules::ssp_step(&mut real.net, &mut real.opt, &g, glr);
        real.shard_payloads(&delta)
    });
    let lr = core.current_lr();
    compute_and_push(core, ctx, iter, lr, deltas);
    // Send-buffer backpressure: SSP's pushes get no reply, so unlike the
    // other centralized algorithms nothing naturally throttles the
    // worker. A real sender blocks once its (finite) send buffers fill;
    // we model that as draining this machine's TX NIC before the next
    // iteration. This is what makes SSP share ASP's PS-bottleneck
    // behaviour on the 10 Gbps network (paper §VI-C).
    let t0 = ctx.now();
    let tx_free = core.net.tx_free_at(core.node);
    if tx_free > t0 {
        ctx.advance(tx_free - t0);
        let own_wire: SimTime = (0..shards)
            .map(|s| core.wire_time(core.ps_addr(s).node, core.grad_bytes(s)))
            .sum();
        let stall = (ctx.now() - t0).saturating_sub(own_wire);
        core.metrics.record_at(core.w, Phase::GlobalAgg, t0, stall);
    }
    let my_clock = iter + 1;
    if let Some(need) = Algo::ssp_refresh_floor(my_clock, *cache_ts, staleness) {
        // Cache too stale to proceed: refresh, gated on the slowest clock.
        request_params(core, ctx, Some(need));
        let seen_clock = pull_replies(core, ctx);
        // The refresh replaces the cache wholesale, so the local
        // velocity — accumulated along the abandoned trajectory — is
        // discarded with it. (Keeping it degrades large-staleness
        // configurations badly: stale momentum keeps pushing from a
        // point the worker no longer occupies.)
        if let Some(real) = core.real.as_mut() {
            real.opt.reset();
        }
        // The gated reply carries the PS's current min clock, which is
        // at least `need`; the cache is fresh as of that timestamp.
        *cache_ts = seen_clock.max(need);
    }
    core.metrics.worker_track(core.w).counter(
        ctx.now().as_nanos(),
        names::STALENESS,
        my_clock.saturating_sub(*cache_ts) as i64,
    );
}

fn easgd_step(core: &mut WorkerCore, ctx: &Ctx<Msg>, iter: u64, tau: u64) {
    core.local_sgd(ctx);
    if !Algo::easgd_exchanges(iter, tau) {
        return;
    }
    // Push local params to every shard; the replies carry them back
    // elastically averaged against the center.
    let slices: Option<Vec<ParamSet>> = core.real.as_ref().map(|r| {
        let p = r.net.get_params();
        let shards = r.shard_indices.iter();
        shards.map(|idx| slice_set(&p, idx)).collect()
    });
    for s in 0..core.ps.len() {
        let bytes = core.shard_bytes[s];
        let push = Msg::ParamPush {
            sender: core.w,
            shard: s,
            data: slices.as_ref().map(|v| v[s].clone()),
            bytes,
        };
        core.send(
            ctx,
            core.ps_addr(s),
            TrafficClass::WorkerPs,
            Charge::Wire,
            push,
        );
    }
    pull_replies(core, ctx);
}
