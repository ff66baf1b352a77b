//! The four centralized algorithms (paper §III): BSP, ASP, SSP, EASGD.
//!
//! Each runs as worker processes plus one process per parameter-server
//! shard. The PS process ([`ps_process`]) is shared across the four
//! algorithms with a per-algorithm [`PsMode`]; its worker-side mirror is
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

use dtrain_cluster::{
    tree_broadcast_delays, CollectiveSchedule, NetModel, NodeId, Phase, ShardHomes, TrafficClass,
};
use dtrain_desim::{Ctx, SimTime};
use dtrain_faults::{markers, CheckpointStore, ElasticConfig, MembershipView};
use dtrain_nn::rules::{self, rank_sum, round_mean};
use dtrain_nn::{ParamSet, SgdMomentum};
use dtrain_obs::TrackHandle;

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

/// Real-math state of one PS shard.
pub(crate) struct PsRealState {
    /// This shard's slice of the global parameters.
    pub params: ParamSet,
    pub opt: SgdMomentum,
}

/// Per-algorithm PS behaviour.
pub(crate) enum PsMode {
    /// Round-synchronous: wait for `num_senders` pushes, apply their
    /// [`round_mean`] once, reply to every sender.
    Bsp { num_senders: usize },
    /// Apply each push immediately; reply to its sender.
    Asp,
    /// Add each push's delta (SSPTable) plus clock bookkeeping (shard 0 is
    /// the clock authority and gates pull requests on the staleness bound).
    Ssp { num_workers: usize },
    /// Elastic averaging: replies carry the *updated worker* parameters.
    Easgd { alpha: f32 },
}

/// Owner-key offset for PS shards in the run's shared checkpoint store
/// (workers use their id directly; shards use `PS_OWNER_BASE + shard`).
const PS_OWNER_BASE: usize = 1 << 20;

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
    pub real: Option<PsRealState>,
    /// Wire bytes of a ShardParams reply (possibly DGC-compressed timing).
    pub reply_bytes: u64,
    /// Workers (by id) for addressing replies.
    pub workers: Vec<Addr>,
    /// Number of Stop messages that end this PS.
    pub expected_stops: usize,
    pub faults: Option<PsFaultState>,
    /// Elastic tunables; `Some` exactly in elastic runs. Switches
    /// [`FaultKind::PsShardFail`](dtrain_faults::FaultKind) from
    /// outage-and-resume to *machine loss with failover*, and arms the BSP
    /// partial-barrier deadline.
    pub elastic: Option<ElasticConfig>,
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
        self.real.as_ref().map(|r| r.params.clone())
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
            if let Some(e) = self.elastic.clone() {
                // Detection window: the cohort needs `dur` to declare the
                // machine dead.
                let now = ctx.now();
                if end > now {
                    ctx.advance(end - now);
                }
                let old_home = self.node;
                let new_home = match &self.homes {
                    Some(h) => h.fail_over(self.shard, self.machines),
                    None => NodeId((self.node.0 + 1) % self.machines.max(1)),
                };
                self.node = new_home;
                markers::shard_failover(&self.obs, ctx.now().as_nanos(), self.shard);
                // Roll back to the newest snapshot not ahead of what the
                // survivors have seen applied.
                if let Some(real) = self.real.as_mut() {
                    if let Some(cp) = f
                        .store
                        .restore_at_or_before(PS_OWNER_BASE + self.shard, f.applies)
                    {
                        real.params = cp.params;
                        real.opt = cp.opt;
                        f.applies = cp.iteration;
                        markers::ckpt_restore(&self.obs, ctx.now().as_nanos(), cp.iteration);
                    }
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
                ctx.advance(wire + e.ps_recovery_delay);
            } else {
                if let Some(real) = self.real.as_mut() {
                    if let Some(cp) = f.store.restore(PS_OWNER_BASE + self.shard) {
                        real.params = cp.params;
                        real.opt = cp.opt;
                        markers::ckpt_restore(&self.obs, ctx.now().as_nanos(), cp.iteration);
                    }
                }
                let now = ctx.now();
                if end > now {
                    ctx.advance(end - now);
                }
            }
            markers::ps_recover(&self.obs, ctx.now().as_nanos(), self.shard);
        }
    }

    /// Count one applied update and checkpoint this shard's state on the
    /// configured cadence.
    fn tick_checkpoint(&mut self, now: SimTime) {
        let Some(f) = self.faults.as_mut() else {
            return;
        };
        let Some(real) = self.real.as_ref() else {
            return;
        };
        f.applies += 1;
        if f.store.due(f.applies) {
            f.store.save(
                PS_OWNER_BASE + self.shard,
                f.applies,
                &real.params,
                &real.opt,
            );
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
            dtrain_obs::names::COLL_TREE_FANOUT,
            members.len() as i64,
        );
        for (&m, delay) in members.iter().zip(delays) {
            ctx.send(
                self.workers[m].pid,
                delay,
                Msg::ShardParams {
                    shard: self.shard,
                    clock: 0,
                    data: self.reply_params(),
                    bytes: self.reply_bytes,
                },
            );
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
        ctx.send(
            dst.pid,
            delay,
            Msg::ShardParams {
                shard: self.shard,
                clock,
                data,
                bytes: self.reply_bytes,
            },
        );
    }

    /// Serve one push outside any barrier: pay the apply time, let `fold`
    /// work it into the shard's state, answer the sender with what `fold`
    /// hands back, and count the update.
    fn serve_push(
        &mut self,
        ctx: &Ctx<Msg>,
        sender: usize,
        bytes: u64,
        fold: impl FnOnce(&mut PsRealState) -> Option<ParamSet>,
    ) {
        ctx.advance(ps_apply_time(bytes));
        let reply = self.real.as_mut().and_then(fold);
        self.send_params(ctx, sender, 0, reply);
        self.tick_checkpoint(ctx.now());
    }
}

/// Min clock over live workers (a crashed worker must not hold the SSP
/// staleness bound back — that is the DropAndReadmit recovery policy).
fn live_min_clock(clocks: &[u64], live: &[bool]) -> u64 {
    clocks
        .iter()
        .zip(live)
        .filter(|&(_, &l)| l)
        .map(|(&c, _)| c)
        .min()
        .unwrap_or(0)
}

/// Release every pending gated pull the new min clock satisfies.
fn release_pulls(ps: &PsCore, ctx: &Ctx<Msg>, pending: &mut Vec<(usize, u64)>, min_clock: u64) {
    let ready: Vec<usize> = pending
        .iter()
        .filter(|&&(_, need)| min_clock >= need)
        .map(|&(w, _)| w)
        .collect();
    pending.retain(|&(_, need)| min_clock < need);
    for w in ready {
        ps.send_params(ctx, w, min_clock, ps.reply_params());
    }
}

/// The parameter-server process body.
pub(crate) fn ps_process(mut ps: PsCore, mode: PsMode, ctx: Ctx<Msg>) {
    // Baseline checkpoint so an outage before the first cadence tick still
    // has a state to roll back to.
    if let (Some(f), Some(real)) = (ps.faults.as_ref(), ps.real.as_ref()) {
        f.store
            .save(PS_OWNER_BASE + ps.shard, 0, &real.params, &real.opt);
    }
    let mut stops = 0usize;
    // BSP round size: shrinks when a member is lost permanently. It must
    // NOT shrink on a temporary crash — a paused worker resumes the same
    // round, and changing the round size mid-stream desynchronizes the
    // per-worker round counts and deadlocks the barrier.
    let mut bsp_senders = match &mode {
        PsMode::Bsp { num_senders } => *num_senders,
        _ => 0,
    };
    // Elastic bookkeeping: who is evicted (permanent MemberDown) and who
    // has finished (Stop) — the two reasons a member stops pushing. Their
    // complement is who a partial barrier still owes an out-of-round reply.
    let num_workers = ps.workers.len();
    let mut evicted = vec![false; num_workers];
    let mut stopped = vec![false; num_workers];
    // Elastic BSP: monotone completed-round counter (stale-timer
    // invalidation) and the members owed an out-of-round release after a
    // partial close.
    let mut round_seq = 0u64;
    let mut late_from: Vec<usize> = Vec::new();
    let mut force_close = false;
    let barrier_deadline = ps.elastic.as_ref().map(|e| e.barrier_deadline);
    // BSP round state: who pushed, and (real math) each push keyed by its
    // sender with the weight it carries.
    let mut round_members: Vec<usize> = Vec::new();
    let mut deposits: Vec<(usize, (ParamSet, usize))> = Vec::new();
    let mut round_bytes = 0u64;
    let mut round_lr = 0.0f32;
    // SSP clock state
    let mut clocks: Vec<u64> = match &mode {
        PsMode::Ssp { num_workers } => vec![0; *num_workers],
        _ => Vec::new(),
    };
    let mut live: Vec<bool> = vec![true; clocks.len()];
    let mut pending_pulls: Vec<(usize, u64)> = Vec::new(); // (worker, min_needed)

    loop {
        let msg = ctx.recv();
        ps.handle_outage(&ctx);
        match msg {
            Msg::Stop { sender } => {
                if sender < num_workers {
                    stopped[sender] = true;
                }
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
            } => match &mode {
                PsMode::Bsp { .. } => {
                    if let Some(i) = late_from.iter().position(|&w| w == sender) {
                        // Late for a round force-closed without it: charged
                        // and answered at once, but dropped, as the hub does.
                        late_from.swap_remove(i);
                        ps.serve_push(&ctx, sender, bytes, |real| Some(real.params.clone()));
                    } else {
                        // First arrival of a round arms the partial-
                        // barrier deadline (elastic only).
                        if round_members.is_empty() {
                            if let Some(dl) = barrier_deadline {
                                ctx.send(ctx.pid(), dl, Msg::RoundDeadline { round: round_seq });
                            }
                        }
                        // Accumulate only; round completion is checked
                        // below so a shrinking `bsp_senders` can also
                        // complete a round.
                        if let Some(d) = data {
                            deposits.push((sender, (d.into_dense(), weight as usize)));
                        }
                        round_members.push(sender);
                        round_bytes += bytes;
                        round_lr = lr;
                        // How full the barrier is — Fig. 3's "waiting
                        // on stragglers" shape, directly observable.
                        ps.obs.counter(
                            ctx.now().as_nanos(),
                            dtrain_obs::names::BARRIER_OCCUPANCY,
                            round_members.len() as i64,
                        );
                    }
                }
                PsMode::Asp => ps.serve_push(&ctx, sender, bytes, |real| {
                    if let Some(d) = data {
                        real.opt.step(&mut real.params, &d.into_dense(), lr);
                    }
                    Some(real.params.clone())
                }),
                PsMode::Ssp { .. } => {
                    ctx.advance(ps_apply_time(bytes));
                    // SSP's server half: add the worker's applied delta.
                    if let (Some(real), Some(d)) = (ps.real.as_mut(), data) {
                        real.params.add_assign(&d.into_dense());
                    }
                    if ps.shard == 0 {
                        // monotonic: NIC FIFO delivers in order today,
                        // but the clock must never regress regardless
                        clocks[sender] = clocks[sender].max(iter + 1);
                        let min_clock = live_min_clock(&clocks, &live);
                        release_pulls(&ps, &ctx, &mut pending_pulls, min_clock);
                    }
                    ps.tick_checkpoint(ctx.now());
                }
                PsMode::Easgd { .. } => {
                    unreachable!("EASGD workers push parameters, not gradients")
                }
            },
            Msg::PullReq { sender, .. } => {
                // Non-gating shards answer pulls immediately (only SSP
                // issues them; shard 0 gets GatedPull instead).
                ps.send_params(&ctx, sender, 0, ps.reply_params());
            }
            Msg::ParamPush {
                sender,
                data,
                bytes,
                ..
            } => {
                let PsMode::Easgd { alpha } = mode else {
                    unreachable!("ParamPush outside EASGD")
                };
                ps.serve_push(&ctx, sender, bytes, |real| {
                    data.map(|worker| real.params.elastic_exchange(&worker, alpha))
                });
            }
            Msg::GatedPull { sender, min_needed } => {
                // SSP shard-0 gated pull: reply once min clock ≥ min_needed.
                let min_clock = live_min_clock(&clocks, &live);
                if min_clock >= min_needed {
                    ps.send_params(&ctx, sender, min_clock, ps.reply_params());
                } else {
                    pending_pulls.push((sender, min_needed));
                }
            }
            Msg::MemberDown {
                worker,
                permanent,
                rejoining,
            } => {
                if permanent {
                    // The worker stops pushing (nor, for BSP, owes its
                    // round contribution) until a MemberUp readmits it.
                    if worker < num_workers {
                        evicted[worker] = true;
                    }
                    late_from.retain(|&w| w != worker);
                    if matches!(mode, PsMode::Bsp { .. }) {
                        bsp_senders = bsp_senders.saturating_sub(1);
                    }
                    // A rejoining member still owes its Stop at the end of
                    // the run; only a member gone for good is written off.
                    if !rejoining {
                        ps.expected_stops = ps.expected_stops.saturating_sub(1);
                        if stops >= ps.expected_stops {
                            break;
                        }
                    }
                }
                if matches!(mode, PsMode::Ssp { .. }) && ps.shard == 0 {
                    // Drop-and-readmit: exclude the crashed worker from the
                    // staleness bound and re-evaluate gated pulls.
                    live[worker] = false;
                    let min_clock = live_min_clock(&clocks, &live);
                    release_pulls(&ps, &ctx, &mut pending_pulls, min_clock);
                }
            }
            Msg::MemberUp { worker } => {
                // Elastic readmission: an evicted member rejoins and pushes
                // again (its Stop was never written off — see MemberDown).
                if worker < num_workers && evicted[worker] {
                    evicted[worker] = false;
                    if matches!(mode, PsMode::Bsp { .. }) {
                        bsp_senders += 1;
                    }
                }
                if matches!(mode, PsMode::Ssp { .. }) && ps.shard == 0 {
                    // Re-admit at the current live min so the bound never
                    // regresses (the restored worker restarts from its
                    // checkpointed params anyway).
                    clocks[worker] = live_min_clock(&clocks, &live);
                    live[worker] = true;
                }
            }
            Msg::RoundDeadline { round } => {
                // Partial-barrier policy (elastic BSP): if the round the
                // timer was armed for is still the open one and incomplete,
                // close it with whoever arrived. Members that are neither
                // evicted nor finished are owed an out-of-round release
                // when their (late) push lands.
                if matches!(mode, PsMode::Bsp { .. })
                    && round == round_seq
                    && !round_members.is_empty()
                    && round_members.len() < bsp_senders
                {
                    markers::partial_barrier(&ps.obs, ctx.now().as_nanos(), round_members.len());
                    for w in 0..num_workers {
                        if !evicted[w] && !stopped[w] && !round_members.contains(&w) {
                            late_from.push(w);
                        }
                    }
                    force_close = true;
                }
            }
            other => unreachable!("PS got unexpected message {other:?}"),
        }
        // BSP round completion: reached by the last push of a round, by a
        // permanent member loss shrinking the round size under the number
        // already collected, or by the partial-barrier deadline firing.
        if matches!(mode, PsMode::Bsp { .. })
            && !round_members.is_empty()
            && (round_members.len() >= bsp_senders || force_close)
        {
            ctx.advance(ps_apply_time(round_bytes));
            let deposits = std::mem::take(&mut deposits);
            if let (Some(real), false) = (ps.real.as_mut(), deposits.is_empty()) {
                real.opt
                    .step(&mut real.params, &round_mean(deposits), round_lr);
            }
            let members = std::mem::take(&mut round_members);
            if !ps.collective.is_flat() && members.len() > 1 {
                ps.send_params_tree(&ctx, &members);
            } else {
                for m in members {
                    ps.send_params(&ctx, m, 0, ps.reply_params());
                }
            }
            round_bytes = 0;
            round_seq += 1;
            force_close = false;
            ps.tick_checkpoint(ctx.now());
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
    fn rejoin(&mut self, core: &mut WorkerCore, ctx: &Ctx<Msg>, _view: &MembershipView, j: u64) {
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
    if my_clock > *cache_ts + staleness {
        // Cache too stale to proceed: refresh, gated on the slowest clock.
        let need = my_clock - staleness;
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
        dtrain_obs::names::STALENESS,
        my_clock.saturating_sub(*cache_ts) as i64,
    );
}

fn easgd_step(core: &mut WorkerCore, ctx: &Ctx<Msg>, iter: u64, tau: u64) {
    core.local_sgd(ctx);
    if !(iter + 1).is_multiple_of(tau) {
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
