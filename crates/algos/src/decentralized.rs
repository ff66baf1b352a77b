//! The three decentralized algorithms (paper §IV): AR-SGD (ring AllReduce),
//! GoSGD (asymmetric gossip), AD-PSGD (symmetric bipartite exchange).
//!
//! No parameter server exists; aggregation happens peer-to-peer. AR-SGD's
//! ring is executed hop by hop over the network model (reduce-scatter +
//! all-gather, 2(N−1) steps), so its bandwidth behaviour — every link
//! carrying ~2·M/N bytes per iteration regardless of N — emerges rather
//! than being assumed.
//!
//! Each algorithm (AD-PSGD: each role) is a [`Body`] under
//! `exec::run_worker`: [`ArSgd`], [`GoSgd`], [`AdPsgdActive`],
//! [`AdPsgdPassive`]. Under elastic membership nobody has to be told a
//! member left — every member reads the same shared view — except AD-PSGD's
//! actives, who may be blocked on the passive that died. A rejoiner follows
//! the real paths' rule ([`Algo::restores_from_checkpoint`]): GoSGD and
//! AD-PSGD resume from their own checkpoint, which the membership gate
//! restores, and real-math AR-SGD takes its round hub's parameters.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use dtrain_cluster::{CollectiveSchedule, Phase, TrafficClass};
use dtrain_desim::{Ctx, SimTime};
use dtrain_faults::hub::Seat;
use dtrain_faults::{Algo, Hub};
use dtrain_nn::rules::{adpsgd_midpoint, gossip_merge};
use dtrain_nn::ParamSet;

use crate::collective::{run_hier_allreduce, ChunkLayout};
use crate::exec::{Addr, Body, Charge, Msg, WorkerCore};

// ---------------------------------------------------------------------------
// AR-SGD
// ---------------------------------------------------------------------------

/// The parameters of AR-SGD's round `iter`, once every member's deposit
/// closed it in the run's hub. The ring is a barrier, so it has; a round
/// still open is a bug in the ring protocol, and panics.
fn round_params(hub: &Mutex<Hub>, iter: u64) -> ParamSet {
    let hub = hub.lock().unwrap();
    if let Some(held) = hub.deposits(iter) {
        panic!("allreduce barrier violated: round {iter} still open with {held} deposits");
    }
    hub.ps().snapshot()
}

/// AR-SGD worker (paper §IV-A). `buckets` > 1 pipelines the ring against
/// backward computation (wait-free BP); the ring itself is
/// reduce-scatter + all-gather over `ring` neighbors. A non-flat
/// collective schedule replaces the flat worker ring with the two-level
/// schedule of DESIGN.md §6: `hier` is this worker's machine engine, which
/// carries the intra-reduce / inter-ring / intra-broadcast flow, and the
/// chunking both sides agree on. With real math the round itself is BSP's,
/// in `hub`: the ring messages carry only timing.
pub(crate) struct ArSgd {
    ring: Vec<Addr>,
    hub: Option<Arc<Mutex<Hub>>>,
    buckets: usize,
    /// Wire bytes of one bucket (ring chunks are byte-level: the model
    /// splits evenly).
    bucket_bytes: u64,
    hier: Option<(Addr, ChunkLayout)>,
}

impl ArSgd {
    pub(crate) fn new(
        core: &WorkerCore,
        ring: Vec<Addr>,
        hub: Option<Arc<Mutex<Hub>>>,
        buckets: usize,
        collective: CollectiveSchedule,
        engines: &[Addr],
    ) -> Self {
        let dense_bucket = core.model_bytes() / buckets as u64;
        Self {
            ring,
            hub,
            buckets,
            bucket_bytes: match core.dgc_sparsity {
                Some(s) => dtrain_compress::compressed_wire_bytes(dense_bucket, s),
                None => dense_bucket,
            },
            hier: (!collective.is_flat()).then(|| {
                let layout = ChunkLayout::new(core.model_bytes(), collective, core.dgc_sparsity);
                (engines[core.node.0], layout)
            }),
        }
    }
}

impl Body for ArSgd {
    fn step(&mut self, core: &mut WorkerCore, ctx: &Ctx<Msg>, iter: u64) {
        // This round's ring: the live cohort in id order (shared view ⇒
        // every member rebuilds the identical ring), else the static one.
        let (n, right) = match core.elastic.as_ref() {
            Some(el) => {
                let ids = el.view.live_at(iter);
                let pos = ids
                    .iter()
                    .position(|&x| x == core.w)
                    .expect("live member must be in its own ring");
                (ids.len(), self.ring[ids[(pos + 1) % ids.len()]])
            }
            None => (self.ring.len(), self.ring[(core.w + 1) % self.ring.len()]),
        };
        // Real math: deposit own gradient in the round before any
        // communication. The ring hops carry timing only, so the deposit
        // is where this worker's gradient counts toward `logical.bytes`.
        if let (Some(hub), Some(real)) = (&self.hub, core.real.as_mut()) {
            let (grad, lr) = (real.compute_grad(), real.lr());
            core.count_logical(ctx.now(), grad.num_bytes());
            let seat = Seat {
                rank: core.w,
                round: iter,
                view: core.elastic.as_ref().map(|e| &*e.view),
                leaders: None,
                now: Duration::from_nanos(ctx.now().as_nanos()),
            };
            let mut hub = hub.lock().unwrap();
            hub.bsp_round(seat, (grad, 1), lr, &());
            hub.drain(); // the ring, not the hub, releases the members
        }

        // Compute phase; bucket b's ring may start once its backward slice
        // is done: without wait-free BP, the whole backward runs first,
        // then all rings.
        let buckets = self.buckets;
        if let Some((engine, layout)) = &self.hier {
            run_hier_allreduce(core, ctx, *engine, layout, iter);
        } else if core.wait_free && buckets > 1 {
            // forward + per-bucket backward slices, ring after each slice
            let bwd_total: SimTime = core.compute_forward(ctx).into_iter().sum();
            let slice = bwd_total / buckets as u64;
            for b in 0..buckets {
                ctx.advance(slice);
                self.ring_bucket(core, ctx, right, n, iter, b as u32);
            }
        } else {
            core.compute(ctx);
            for b in 0..buckets {
                self.ring_bucket(core, ctx, right, n, iter, b as u32);
            }
        }

        // Barrier complete: the round closed, its mean applied once at the
        // full rate; everyone adopts the result.
        if let (Some(hub), Some(real)) = (&self.hub, core.real.as_mut()) {
            real.net.set_params(&round_params(hub, iter));
        }
    }

    /// Re-enter with the server's parameters and a fresh optimizer, as the
    /// real paths' rejoin pull does: the hub holds the last round it closed.
    fn rejoin(&mut self, core: &mut WorkerCore, _ctx: &Ctx<Msg>, _j: u64) {
        if let (Some(hub), Some(real)) = (&self.hub, core.real.as_mut()) {
            real.net.set_params(&hub.lock().unwrap().ps().snapshot());
            real.opt.reset();
        }
    }
}

impl ArSgd {
    /// Execute the 2(N−1) hops of one ring bucket of round `iter`. Each
    /// hop: send the chunk to the right neighbor, block for the matching
    /// chunk from the left — of this round: a rejoiner back early must not
    /// feed a ring its neighbor is still closing.
    fn ring_bucket(
        &self,
        core: &mut WorkerCore,
        ctx: &Ctx<Msg>,
        right: Addr,
        n: usize,
        iter: u64,
        bucket: u32,
    ) {
        if n == 1 {
            return;
        }
        let chunk = (self.bucket_bytes / n as u64).max(1);
        let t0 = ctx.now();
        let mut own_wire = SimTime::ZERO;
        for step in 0..2 * (n - 1) as u32 {
            own_wire += core.wire_time(right.node, chunk);
            let hop = Msg::RingChunk {
                iter,
                step,
                bucket,
                bytes: chunk,
            };
            core.send(ctx, right, TrafficClass::Peer, Charge::Hop, hop);
            // wait for the matching hop from the left neighbor
            let _ = ctx.recv_match(|m| {
                matches!(m, Msg::RingChunk { iter: i, step: s, bucket: b, .. }
                    if (*i, *s, *b) == (iter, step, bucket))
            });
        }
        let blocked = (ctx.now() - t0).saturating_sub(own_wire);
        core.metrics
            .record_at(core.w, Phase::GlobalAgg, t0, blocked);
    }
}

// ---------------------------------------------------------------------------
// GoSGD
// ---------------------------------------------------------------------------

/// GoSGD worker (paper §IV-B, Blot et al.): with probability `p` per
/// iteration, halve the local mixing weight α and send `(x, α)` to a random
/// peer — fire-and-forget. Incoming shares merge by weighted average.
pub(crate) struct GoSgd {
    peers: Vec<Addr>,
    p: f64,
    alpha: f32,
}

impl GoSgd {
    pub(crate) fn new(peers: Vec<Addr>, p: f64) -> Self {
        let alpha = 1.0 / peers.len() as f32;
        Self { peers, p, alpha }
    }
}

impl Body for GoSgd {
    fn step(&mut self, core: &mut WorkerCore, ctx: &Ctx<Msg>, iter: u64) {
        core.local_sgd(ctx);
        // merge everything that arrived (asymmetric: never block)
        while let Some(m) = ctx.try_recv() {
            if let Msg::Gossip {
                alpha: ar, data, ..
            } = m
            {
                let replica = core.real.as_mut().map(|r| &mut r.net).zip(data.as_ref());
                gossip_merge(&mut self.alpha, ar, replica);
            }
        }
        // Gossip with probability p; elastic targets come from the live
        // cohort, so shares never chase an evicted replica.
        let live = || core.elastic.as_ref().map(|el| el.view.live_at(iter));
        let n = self.peers.len();
        let Some(target) = Algo::gossip_target(self.p, core.w, n, &mut core.rng, live) else {
            return;
        };
        self.alpha *= 0.5;
        let bytes = core.model_bytes();
        let share = Msg::Gossip {
            sender: core.w,
            alpha: self.alpha,
            data: core.replica(),
            bytes,
        };
        core.send(
            ctx,
            self.peers[target],
            TrafficClass::Peer,
            Charge::Wire,
            share,
        );
    }

    fn rejoin(&mut self, _core: &mut WorkerCore, _ctx: &Ctx<Msg>, _j: u64) {
        // Fresh mixing mass, as at init — the dead replica's α mass left
        // the system with it.
        self.alpha = 1.0 / self.peers.len() as f32;
    }
}

// ---------------------------------------------------------------------------
// AD-PSGD
// ---------------------------------------------------------------------------

/// AD-PSGD active worker: kick off a symmetric exchange, overlap it with
/// this iteration's computation, merge on completion.
pub(crate) struct AdPsgdActive {
    peers: Vec<Addr>,
    passives: Vec<usize>,
    overlap: bool,
    /// Passives this active has seen a MemberDown for (cleared by
    /// MemberUp); both arrive interleaved with exchange replies and are
    /// consumed inside the reply wait.
    down: Vec<bool>,
}

impl AdPsgdActive {
    pub(crate) fn new(peers: Vec<Addr>, overlap: bool) -> Self {
        Self {
            passives: Algo::adpsgd_ranks(peers.len(), false),
            down: vec![false; peers.len()],
            peers,
            overlap,
        }
    }

    fn initiate(&self, core: &mut WorkerCore, ctx: &Ctx<Msg>, target: usize) {
        let bytes = core.model_bytes();
        let req = Msg::ExchangeReq {
            sender: core.w,
            data: core.replica(),
            bytes,
        };
        core.send(
            ctx,
            self.peers[target],
            TrafficClass::Peer,
            Charge::Wire,
            req,
        );
    }

    /// Release the passive workers from waiting on this active.
    fn stop_passives(&self, core: &WorkerCore, ctx: &Ctx<Msg>) {
        for &p in &self.passives {
            core.send_stop(ctx, self.peers[p]);
        }
    }
}

impl Body for AdPsgdActive {
    fn step(&mut self, core: &mut WorkerCore, ctx: &Ctx<Msg>, iter: u64) {
        // 1. pick the passive peer; with overlap (the paper's design) the
        //    exchange goes on the wire *before* computing, hiding its
        //    latency behind the gradient computation. Elastic draws only
        //    from passives both scheduled live and not flagged down; if
        //    none qualify this iteration is pure local SGD.
        let live = core.elastic.as_ref().map(|el| {
            let mut live = el.view.live_at(iter);
            live.retain(|&x| !self.down[x]);
            live
        });
        let target = Algo::adpsgd_partner(&self.passives, &mut core.rng, live);
        if let (true, Some(t)) = (self.overlap, target) {
            self.initiate(core, ctx, t);
        }
        // 2. compute this iteration's gradient (wire busy in parallel)
        core.compute(ctx);
        let grad = core.real.as_mut().map(|r| r.compute_grad());
        if let (false, Some(t)) = (self.overlap, target) {
            self.initiate(core, ctx, t);
        }
        // 3. wait (often zero) for the atomic-averaging midpoint: the
        //    passive peer computed mid = (x_active + x_passive)/2, adopted
        //    it, and sent it back, so both replicas hold the same value —
        //    Lian et al.'s atomic averaging step. If the target dies
        //    mid-exchange, its MemberDown releases the wait and the
        //    exchange is abandoned.
        if let Some(target) = target {
            let t0 = ctx.now();
            let mid = wait_exchange_rep(ctx, target, &mut self.down);
            core.metrics
                .record_at(core.w, Phase::GlobalAgg, t0, ctx.now() - t0);
            if let (Some(real), Some(mid)) = (core.real.as_mut(), mid) {
                real.net.set_params(&mid);
            }
        }
        // 4. gradient step on top of the averaged point:
        //    x_{k+1} = mid − γ·g(x_k)
        if let (Some(real), Some(g)) = (core.real.as_mut(), &grad) {
            let lr = real.grad_lr(core.num_workers);
            real.net.sgd_step(&mut real.opt, g, lr);
        }
    }

    /// Never coming back: settle the passives' stop accounting now so they
    /// don't wait on a ghost.
    fn depart(&mut self, core: &mut WorkerCore, ctx: &Ctx<Msg>, rejoining: bool) {
        if !rejoining {
            self.stop_passives(core, ctx);
        }
    }

    fn epilogue(&mut self, core: &mut WorkerCore, ctx: &Ctx<Msg>) {
        self.stop_passives(core, ctx);
    }
}

/// Block for the midpoint reply from `target`, absorbing membership
/// traffic while blocked. Returns `None` if the target was declared down
/// before replying — the exchange is abandoned (the dormant passive
/// discards the stale request on rejoin).
fn wait_exchange_rep(ctx: &Ctx<Msg>, target: usize, down: &mut [bool]) -> Option<ParamSet> {
    loop {
        let m = ctx.recv_match(|m| {
            matches!(m, Msg::ExchangeRep { sender, .. } if *sender == target)
                || matches!(m, Msg::MemberDown { .. } | Msg::MemberUp { .. })
        });
        match m {
            Msg::ExchangeRep { data, .. } => return data,
            Msg::MemberDown { worker, .. } => {
                down[worker] = true;
                if worker == target {
                    return None;
                }
            }
            Msg::MemberUp { worker } => down[worker] = false,
            _ => unreachable!(),
        }
    }
}

/// AD-PSGD passive worker: trains locally, answering exchange requests at
/// iteration boundaries (the model of the paper's background communication
/// thread), and keeps answering after finishing until every active stopped.
pub(crate) struct AdPsgdPassive {
    peers: Vec<Addr>,
    actives: Vec<usize>,
    /// Actives that have finished (or left for good).
    stops: usize,
}

impl AdPsgdPassive {
    pub(crate) fn new(peers: Vec<Addr>) -> Self {
        Self {
            actives: Algo::adpsgd_ranks(peers.len(), true),
            peers,
            stops: 0,
        }
    }

    fn answer(&mut self, core: &mut WorkerCore, ctx: &Ctx<Msg>, m: Msg) {
        let (to, data) = match m {
            Msg::ExchangeReq { sender, data, .. } => (sender, data),
            Msg::Stop => {
                self.stops += 1;
                return;
            }
            other => unreachable!("passive got {other:?}"),
        };
        let mid = match (core.real.as_mut(), data) {
            (Some(real), Some(xa)) => Some(adpsgd_midpoint(&mut real.net, &xa)),
            _ => None,
        };
        let bytes = core.model_bytes();
        let rep = Msg::ExchangeRep {
            sender: core.w,
            data: mid,
            bytes,
        };
        core.send(ctx, self.peers[to], TrafficClass::Peer, Charge::Wire, rep);
    }

    /// Announce this passive's membership change to every active (they may
    /// be blocked on an exchange with it right now).
    fn announce(&self, core: &mut WorkerCore, ctx: &Ctx<Msg>, msg: Msg) {
        for &a in &self.actives {
            core.send(
                ctx,
                self.peers[a],
                TrafficClass::Other,
                Charge::Free,
                msg.clone(),
            );
        }
    }
}

impl Body for AdPsgdPassive {
    fn step(&mut self, core: &mut WorkerCore, ctx: &Ctx<Msg>, _iter: u64) {
        core.local_sgd(ctx);
        while let Some(m) = ctx.try_recv() {
            self.answer(core, ctx, m);
        }
    }

    fn depart(&mut self, core: &mut WorkerCore, ctx: &Ctx<Msg>, rejoining: bool) {
        let down = Msg::MemberDown {
            worker: core.w,
            permanent: true,
            rejoining,
        };
        self.announce(core, ctx, down);
    }

    fn rejoin(&mut self, core: &mut WorkerCore, ctx: &Ctx<Msg>, _j: u64) {
        // Discard exchange requests that queued while dormant — their
        // initiators were woken by the MemberDown and abandoned the
        // exchange; answering now would strand unmatched replies. Stop
        // accounting still applies.
        while let Some(m) = ctx.try_recv() {
            if !matches!(m, Msg::ExchangeReq { .. }) {
                self.answer(core, ctx, m);
            }
        }
        self.announce(core, ctx, Msg::MemberUp { worker: core.w });
    }

    /// Keep answering until all actives are done. Permanently-lost actives
    /// sent their Stop at death, so the count still converges.
    fn epilogue(&mut self, core: &mut WorkerCore, ctx: &Ctx<Msg>) {
        while self.stops < self.actives.len() {
            let m = ctx.recv();
            self.answer(core, ctx, m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtrain_tensor::Tensor;

    fn ps(v: &[f32]) -> ParamSet {
        ParamSet(vec![Tensor::from_vec(&[v.len()], v.to_vec())])
    }

    #[test]
    #[should_panic(expected = "barrier violated")]
    fn round_params_detect_a_missing_deposit() {
        let mut hub = Hub::new(ps(&[0.0]), 2, 0.0, 0.0, None);
        let seat = Seat {
            rank: 0,
            round: 0,
            view: None,
            leaders: None,
            now: Duration::ZERO,
        };
        hub.bsp_round(seat, (ps(&[1.0]), 1), 1.0, &());
        let _ = round_params(&Mutex::new(hub), 0);
    }
}
