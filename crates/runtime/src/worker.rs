//! The algorithm bodies, written once.
//!
//! [`worker_body`] is the single implementation of the seven aggregation
//! algorithms' per-worker control flow. It is generic over
//! [`ExecBackend`], so the identical code drives OS threads over shared
//! memory (`ThreadedBackend`, this crate) and OS processes over TCP
//! (`ProcBackend`, `dtrain-proc`). What the paper's algorithms *do* lives
//! here; how bytes move lives in the backend.

use std::time::Instant;

use dtrain_data::Dataset;
use dtrain_faults::{markers, Algo};
use dtrain_nn::rules::{adpsgd_midpoint, gossip_merge, ssp_step};
use dtrain_nn::{LrSchedule, Network, SgdMomentum};
use dtrain_obs::{names, Phase, TrackHandle, NO_ITER};
use dtrain_tensor::Tensor;

use crate::backend::{ExecBackend, PeerRequest, RunPlan};

/// What one worker hands back when its share of the run is over.
pub struct WorkerOutcome {
    /// Final replica parameters.
    pub params: ParamSetOut,
    /// Iterations actually executed (skipped dead rounds excluded).
    pub iterations: u64,
    /// Cumulative payload bytes pushed (the `logical.bytes` counter).
    pub logical_bytes: u64,
    /// Wall time this worker spent *busy* — gradient computation plus the
    /// backend's per-iteration local work (which is where straggler
    /// slowdowns are injected on the threaded and proc paths). Excludes
    /// blocking exchanges, so a straggler's busy time stands out even
    /// under a barrier that equalizes iteration wall time. This is the
    /// [`dtrain_faults::CtrlSignals::straggle_ratio`] feedstock.
    pub busy: std::time::Duration,
}

pub type ParamSetOut = dtrain_nn::ParamSet;

/// One timed gradient computation: runs `train_batch`, records it as a
/// `compute` span on the worker's obs track, and returns the elapsed time
/// (accumulated into [`WorkerOutcome::busy`]).
pub(crate) fn timed_train(
    net: &mut Network,
    x: Tensor,
    y: &[usize],
    obs: &TrackHandle,
    clock: &Instant,
) -> std::time::Duration {
    let start = Instant::now();
    let t0 = clock.elapsed().as_nanos() as u64;
    net.train_batch(x, y);
    let t1 = clock.elapsed().as_nanos() as u64;
    obs.span(t0, t1 - t0, Phase::Compute.name(), NO_ITER);
    start.elapsed()
}

/// Add `bytes` to this worker's `logical.bytes` counter and record it.
fn count_logical(logical: &mut u64, bytes: u64, obs: &TrackHandle, clock: &Instant) {
    *logical += bytes;
    let now = clock.elapsed().as_nanos() as u64;
    obs.counter(now, names::LOGICAL_BYTES, *logical as i64);
}

/// Execute this worker's share of the run described by `plan` against
/// `backend`, training `net` on its shard of `train`.
///
/// Obs events land on `obs` stamped with nanoseconds since `wall` — the
/// *logical* counters (payload bytes, iteration counts) are deterministic
/// and comparable across all three execution paths; timestamps are not.
pub fn worker_body<B: ExecBackend>(
    backend: &mut B,
    mut net: Network,
    train: &Dataset,
    plan: &RunPlan,
    obs: &TrackHandle,
    wall: Instant,
) -> WorkerOutcome {
    let w = backend.rank();
    let shard = train.shard(w, plan.workers);
    let sched = LrSchedule::paper_scaled(plan.workers, plan.base_lr, plan.epochs as f32);
    let mut opt = SgdMomentum::new(plan.momentum, plan.weight_decay);
    let mut rng = Algo::peer_rng(plan.seed, w);
    let per_epoch = shard.len() / plan.batch;
    let n = plan.workers as f32;
    let mut alpha = 1.0 / n; // gossip mixing weight
    let mut cache_ts = 0u64; // SSP cache timestamp
    let passives = Algo::adpsgd_ranks(plan.workers, false);
    let num_actives = plan.workers - passives.len();
    let is_active = Algo::adpsgd_is_active(w);
    // AD-PSGD passive bookkeeping: actives may finish (and send Done)
    // while this passive is still training, so the count must persist
    // across the training loop and the final drain.
    let mut dones = 0usize;
    let mut executed = 0u64;
    // Cumulative payload bytes this worker pushed (mirrors the simulator's
    // `logical.bytes` counter exactly: same model, same push schedule).
    let mut logical = 0u64;
    let mut busy = std::time::Duration::ZERO;
    let ns = |clock: &Instant| clock.elapsed().as_nanos() as u64;
    backend.startup(&net.get_params(), &opt);

    for epoch in 0..plan.epochs {
        for (bi, batch) in shard
            .epoch_batches(plan.batch, plan.seed, epoch)
            .into_iter()
            .enumerate()
        {
            let epoch_f = epoch as f32 + bi as f32 / per_epoch as f32;
            let full_lr = sched.lr_at(epoch_f);
            let grad_lr = full_lr / n;
            let it_idx = epoch * per_epoch as u64 + bi as u64;

            // Elastic membership gate: a dead round is skipped outright —
            // no compute, no barrier seat, no heartbeat. A rejoin round
            // re-enters with fresh state pulled at the current epoch.
            if backend.elastic() {
                if backend.death_round(w) == Some(it_idx) {
                    markers::crash(obs, ns(&wall), w);
                    markers::evict(obs, ns(&wall), w);
                    backend.note_eviction();
                    if matches!(plan.strategy, Algo::Ssp { .. }) {
                        // Park the dead clock so survivors' staleness gate
                        // excludes it (a stalled clock would block them).
                        backend.park_clock();
                    }
                }
                if !backend.is_live(w, it_idx) {
                    continue;
                }
                if backend.rejoin_round(w) == Some(it_idx) {
                    if plan.strategy.restores_from_checkpoint() {
                        // No server: resume from the latest checkpoint
                        // (peer averaging re-converges the replica).
                        if let Some((p, o, cp_iter)) = backend.checkpoint_restore() {
                            net.set_params(&p);
                            opt = o;
                            markers::ckpt_restore(obs, ns(&wall), cp_iter);
                        }
                        alpha = 1.0 / n; // gossip mixing mass as at init
                    } else {
                        // Pull the current parameters from the server.
                        let fresh = backend.ps_snapshot();
                        net.set_params(&fresh);
                        opt.reset();
                    }
                    if matches!(plan.strategy, Algo::Ssp { .. }) {
                        cache_ts = it_idx;
                    }
                    backend.note_rejoin();
                    markers::rejoin(obs, ns(&wall), w);
                }
            }

            // Consume any crash points reached: lose the replica, wait out
            // the supervisor backoff, restore from the checkpoint. (With
            // elastic membership the view already encodes the crashes; on
            // the process path crashes are real signals, never injected.)
            while let Some(restored) = backend.poll_crash(executed) {
                if let Some((p, o, _)) = restored {
                    net.set_params(&p);
                    opt = o;
                }
            }
            let it_start = Instant::now();
            obs.enter(ns(&wall), names::ITER, it_idx);

            // Every step starts with this batch's gradient, except an
            // AD-PSGD active's, which first puts its exchange on the wire so
            // the two overlap.
            if !(matches!(plan.strategy, Algo::AdPsgd) && is_active) {
                let (x, y) = train.gather(&batch);
                busy += timed_train(&mut net, x, &y, obs, &wall);
            }
            match plan.strategy {
                // AR-SGD is one synchronous mean per round: on the real
                // paths that is BSP's round through the hub, flat or
                // hierarchical — only the simulator models a ring.
                Algo::Bsp | Algo::ArSgd => {
                    count_logical(&mut logical, 4 * net.num_params() as u64, obs, &wall);
                    let (arrived, expected) = if plan.collective.is_flat() {
                        backend.bsp_round(it_idx, &mut net, full_lr)
                    } else {
                        let live = backend.live_at(it_idx);
                        let out = crate::collective::hier_bsp_exchange(
                            backend,
                            it_idx,
                            net.grads(),
                            full_lr,
                            &live,
                            plan.gpus_per_machine,
                            obs,
                            &wall,
                        );
                        net.set_params(&out.params);
                        (out.arrived, out.expected)
                    };
                    if let Some(arrived) = arrived {
                        if arrived < expected {
                            markers::partial_barrier(obs, ns(&wall), arrived);
                        }
                    }
                }
                Algo::Asp => {
                    backend.ps_gate();
                    let grad = net.grads();
                    count_logical(&mut logical, grad.num_bytes(), obs, &wall);
                    let fresh = backend.ps_push_pull(&grad, grad_lr);
                    net.set_params(&fresh);
                    backend.ps_applied();
                }
                Algo::Ssp { staleness } => {
                    let grad = net.grads();
                    let delta = ssp_step(&mut net, &mut opt, &grad, grad_lr);
                    count_logical(&mut logical, delta.num_bytes(), obs, &wall);
                    backend.ps_gate();
                    backend.ps_push(&delta, grad_lr);
                    backend.ps_applied();
                    let clock = it_idx + 1;
                    backend.bump_clock(clock);
                    if let Some(need) = Algo::ssp_refresh_floor(clock, cache_ts, staleness) {
                        let min = backend.wait_min_clock(need);
                        let fresh = backend.ps_snapshot();
                        net.set_params(&fresh);
                        opt.reset();
                        cache_ts = min;
                    }
                    obs.counter(
                        ns(&wall),
                        names::STALENESS,
                        clock.saturating_sub(cache_ts) as i64,
                    );
                }
                Algo::Easgd { tau, alpha: a } => {
                    net.sgd_step(&mut opt, &net.grads(), grad_lr);
                    if Algo::easgd_exchanges(it_idx, tau) {
                        backend.ps_gate();
                        let push = net.get_params();
                        count_logical(&mut logical, push.num_bytes(), obs, &wall);
                        let a = Algo::easgd_alpha(a, plan.workers);
                        let updated = backend.ps_elastic_exchange(&push, a);
                        net.set_params(&updated);
                        backend.ps_applied();
                    }
                }
                Algo::GoSgd { p } => {
                    net.sgd_step(&mut opt, &net.grads(), grad_lr);
                    // merge everything queued
                    for (params, msg_alpha) in backend.gossip_drain() {
                        gossip_merge(&mut alpha, msg_alpha, Some((&mut net, &params)));
                    }
                    let live = || backend.elastic().then(|| backend.live_at(it_idx));
                    if let Some(target) = Algo::gossip_target(p, w, plan.workers, &mut rng, live) {
                        alpha *= 0.5;
                        let share = net.get_params();
                        count_logical(&mut logical, share.num_bytes(), obs, &wall);
                        backend.gossip_send(target, share, alpha);
                    }
                }
                Algo::AdPsgd => {
                    if is_active {
                        // initiate the exchange, overlap with compute;
                        // elastic draws only from passives scheduled live
                        // this round — none live means a pure local round.
                        let live = backend.elastic().then(|| backend.live_at(it_idx));
                        let target = Algo::adpsgd_partner(&passives, &mut rng, live);
                        if let Some(target) = target {
                            let mine = net.get_params();
                            count_logical(&mut logical, mine.num_bytes(), obs, &wall);
                            backend.exchange_request(target, mine);
                        }
                        let (x, y) = train.gather(&batch);
                        busy += timed_train(&mut net, x, &y, obs, &wall);
                        let grad = net.grads();
                        if target.is_some() {
                            // The backend owns the transport deadline:
                            // bounded retry waits, then the exchange is
                            // abandoned (elastic only).
                            if let Some(mid) = backend.exchange_await() {
                                net.set_params(&mid);
                            }
                        }
                        net.sgd_step(&mut opt, &grad, grad_lr);
                    } else {
                        net.sgd_step(&mut opt, &net.grads(), grad_lr);
                        // serve queued exchange requests
                        while let Some(req) = backend.exchange_next(false) {
                            serve_exchange(
                                backend,
                                &mut net,
                                req,
                                &mut dones,
                                obs,
                                &wall,
                                &mut logical,
                            );
                        }
                    }
                }
            }

            executed += 1;
            let mut state = || (net.get_params(), opt.clone());
            let local_start = Instant::now();
            backend.iter_end(it_idx, executed, it_start.elapsed(), &mut state);
            // iter_end is local work (checkpointing, injected slowdown), so
            // it counts as busy; the straggler signal lives here.
            busy += local_start.elapsed();
            obs.exit(ns(&wall), names::ITER);
        }
    }
    backend.finish();

    // AD-PSGD teardown: actives announce completion; passives serve until
    // every active is done (otherwise actives could block forever).
    if matches!(plan.strategy, Algo::AdPsgd) {
        if is_active {
            backend.announce_done();
        } else {
            while dones < num_actives {
                let Some(req) = backend.exchange_next(true) else {
                    break;
                };
                serve_exchange(backend, &mut net, req, &mut dones, obs, &wall, &mut logical);
            }
        }
    }
    WorkerOutcome {
        params: net.get_params(),
        iterations: executed,
        logical_bytes: logical,
        busy,
    }
}

/// Passive side of one AD-PSGD exchange: adopt and return the midpoint.
fn serve_exchange<B: ExecBackend>(
    backend: &mut B,
    net: &mut Network,
    req: PeerRequest,
    dones: &mut usize,
    obs: &TrackHandle,
    clock: &Instant,
    logical: &mut u64,
) {
    match req {
        PeerRequest::Exchange { params, token } => {
            let mid = adpsgd_midpoint(net, &params);
            count_logical(logical, mid.num_bytes(), obs, clock);
            backend.exchange_reply(token, mid);
        }
        PeerRequest::Done => *dones += 1,
    }
}
