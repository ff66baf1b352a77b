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
//! actives, who may be blocked on the passive that died; a rejoiner is
//! seeded by a sponsor ([`sponsor_rejoiners`] / [`adopt_local_params`] for
//! AR-SGD and GoSGD, [`adpsgd_adopt`] for AD-PSGD).

use std::collections::HashMap;
use std::sync::Arc;

use dtrain_cluster::{CollectiveSchedule, Phase, TrafficClass};
use dtrain_desim::{Ctx, SimTime};
use dtrain_faults::MembershipView;
use dtrain_nn::rules::{gossip_merge, round_mean};
use dtrain_nn::ParamSet;
use parking_lot::Mutex;
use rand::Rng;

use crate::collective::{run_hier_allreduce, ChunkLayout};
use crate::exec::{Addr, Body, Charge, Msg, WorkerCore};

// ---------------------------------------------------------------------------
// Elastic membership (shared by AR-SGD and GoSGD)
// ---------------------------------------------------------------------------

/// Send a full-parameter seed to every member rejoining at `iter`, if this
/// worker is the designated sponsor: the lowest-id live member that is not
/// itself rejoining this round. Every member evaluates the same rule on the
/// same shared view, so exactly one sponsor emerges.
fn sponsor_rejoiners(
    core: &mut WorkerCore,
    ctx: &Ctx<Msg>,
    peers: &[Addr],
    view: &MembershipView,
    iter: u64,
) {
    let me = core.w;
    let rejoiners: Vec<usize> = (0..peers.len())
        .filter(|&w| w != me && view.rejoin_round(w) == Some(iter))
        .collect();
    if rejoiners.is_empty() {
        return;
    }
    let sponsor = view
        .live_at(iter)
        .into_iter()
        .find(|&w| view.rejoin_round(w) != Some(iter));
    if sponsor != Some(me) {
        return;
    }
    let bytes = core.model_bytes();
    for w2 in rejoiners {
        let seed = Msg::LocalParams {
            data: core.replica(),
            bytes,
        };
        core.send(ctx, peers[w2], TrafficClass::Peer, Charge::Wire, seed);
    }
}

/// Adopt the sponsor's replica after dormancy: block for the `LocalParams`
/// seed the sponsor sends at the top of round `j`. If no live member can
/// sponsor, resume on the checkpointed state.
fn adopt_local_params(core: &mut WorkerCore, ctx: &Ctx<Msg>, view: &MembershipView, j: u64) {
    let has_sponsor = view
        .live_at(j)
        .into_iter()
        .any(|w| view.rejoin_round(w) != Some(j));
    if !has_sponsor {
        return;
    }
    let m = ctx.recv_match(|m| matches!(m, Msg::LocalParams { .. }));
    if let (Some(real), Msg::LocalParams { data: Some(p), .. }) = (core.real.as_mut(), m) {
        real.net.set_params(&p);
        real.opt.reset();
    }
}

// ---------------------------------------------------------------------------
// AR-SGD
// ---------------------------------------------------------------------------

/// Synchronization board for AR-SGD's real math: since the ring is a
/// barrier, the round's mean can be computed exactly once everyone has
/// deposited — by [`round_mean`], the rule BSP's PS and the hub close
/// their rounds with. The ring messages carry only timing.
#[derive(Clone, Default)]
pub(crate) struct AllReduceBoard {
    inner: Arc<Mutex<HashMap<u64, RoundSlot>>>,
}

#[derive(Default)]
struct RoundSlot {
    grads: Vec<(usize, (ParamSet, usize))>,
    mean: Option<ParamSet>,
    readers: usize,
}

impl AllReduceBoard {
    /// Deposit worker `w`'s gradient for `iter`.
    fn deposit(&self, iter: u64, w: usize, grad: ParamSet) {
        let mut map = self.inner.lock();
        map.entry(iter).or_default().grads.push((w, (grad, 1)));
    }

    /// The round mean of all `n` deposited gradients for `iter`, computed
    /// by its first reader. Panics if called before the barrier completed
    /// (a bug in the ring protocol).
    fn mean(&self, iter: u64, n: usize) -> ParamSet {
        let mut map = self.inner.lock();
        let slot = map.get_mut(&iter).expect("allreduce read before deposit");
        let grads = &mut slot.grads;
        let mean = slot.mean.get_or_insert_with(|| {
            let got = grads.len();
            assert_eq!(
                got, n,
                "allreduce barrier violated: {got} of {n} gradients at iter {iter}"
            );
            round_mean(std::mem::take(grads))
        });
        let mean = mean.clone();
        slot.readers += 1;
        if slot.readers == n {
            map.remove(&iter); // last reader cleans up
        }
        mean
    }
}

/// AR-SGD worker (paper §IV-A). `buckets` > 1 pipelines the ring against
/// backward computation (wait-free BP); the ring itself is
/// reduce-scatter + all-gather over `ring` neighbors. A non-flat
/// collective schedule replaces the flat worker ring with the two-level
/// schedule of DESIGN.md §6: `hier` is this worker's machine engine, which
/// carries the intra-reduce / inter-ring / intra-broadcast flow, and the
/// chunking both sides agree on.
pub(crate) struct ArSgd {
    ring: Vec<Addr>,
    board: Option<AllReduceBoard>,
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
        board: Option<AllReduceBoard>,
        buckets: usize,
        collective: CollectiveSchedule,
        engines: &[Addr],
    ) -> Self {
        let dense_bucket = core.model_bytes() / buckets as u64;
        Self {
            ring,
            board,
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
        // Real math: deposit own gradient before any communication. The
        // ring hops carry timing only, so the deposit is where this
        // worker's gradient counts toward `logical.bytes`.
        if let (Some(b), Some(real)) = (&self.board, core.real.as_mut()) {
            let grad = real.compute_grad();
            core.count_logical(ctx.now(), grad.num_bytes());
            b.deposit(iter, core.w, grad);
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
                self.ring_bucket(core, ctx, right, n, b as u32);
            }
        } else {
            core.compute(ctx);
            for b in 0..buckets {
                self.ring_bucket(core, ctx, right, n, b as u32);
            }
        }

        // Barrier complete: everyone holds the round mean, applied at the
        // full rate.
        if let (Some(b), Some(real)) = (&self.board, core.real.as_mut()) {
            let lr = real.lr();
            real.net.sgd_step(&mut real.opt, &b.mean(iter, n), lr);
        }
    }

    fn before_round(
        &mut self,
        core: &mut WorkerCore,
        ctx: &Ctx<Msg>,
        view: &MembershipView,
        iter: u64,
    ) {
        sponsor_rejoiners(core, ctx, &self.ring, view, iter);
    }

    fn rejoin(&mut self, core: &mut WorkerCore, ctx: &Ctx<Msg>, view: &MembershipView, j: u64) {
        adopt_local_params(core, ctx, view, j);
    }
}

impl ArSgd {
    /// Execute the 2(N−1) hops of one ring bucket. Each hop: send the chunk
    /// to the right neighbor, block for the matching chunk from the left.
    fn ring_bucket(
        &self,
        core: &mut WorkerCore,
        ctx: &Ctx<Msg>,
        right: Addr,
        n: usize,
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
                step,
                bucket,
                bytes: chunk,
            };
            core.send(ctx, right, TrafficClass::Peer, Charge::Hop, hop);
            // wait for the matching hop from the left neighbor
            let _ = ctx.recv_match(
                |m| matches!(m, Msg::RingChunk { step: s, bucket: b, .. } if *s == step && *b == bucket),
            );
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
        let n = self.peers.len();
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
        // gossip with probability p (needs a peer to talk to)
        if n < 2 || core.rng.gen::<f64>() >= self.p {
            return;
        }
        // Elastic targeting draws from the live cohort so shares never
        // chase an evicted replica; the classic draw loop is kept
        // verbatim so fault-free runs replay the same rng sequence.
        let target = match core.elastic.as_ref() {
            Some(el) => {
                let mut live = el.view.live_at(iter);
                live.retain(|&x| x != core.w);
                if live.is_empty() {
                    return;
                }
                live[core.rng.gen_range(0..live.len())]
            }
            None => loop {
                let t = core.rng.gen_range(0..n);
                if t != core.w {
                    break t;
                }
            },
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

    fn before_round(
        &mut self,
        core: &mut WorkerCore,
        ctx: &Ctx<Msg>,
        view: &MembershipView,
        iter: u64,
    ) {
        sponsor_rejoiners(core, ctx, &self.peers, view, iter);
    }

    fn rejoin(&mut self, core: &mut WorkerCore, ctx: &Ctx<Msg>, view: &MembershipView, j: u64) {
        adopt_local_params(core, ctx, view, j);
        // Fresh mixing mass, as at init — the dead replica's α mass left
        // the system with it.
        self.alpha = 1.0 / self.peers.len() as f32;
    }
}

// ---------------------------------------------------------------------------
// AD-PSGD
// ---------------------------------------------------------------------------

/// Bipartite role split (paper §IV-C): even ranks are active (they initiate
/// exchanges), odd ranks are passive (they answer). Active workers only
/// ever wait on passive ones, so the wait graph is acyclic — no deadlock.
pub(crate) fn adpsgd_is_active(w: usize) -> bool {
    w.is_multiple_of(2)
}

/// The ranks of one role among `n` workers, ascending.
fn adpsgd_ranks(n: usize, active: bool) -> Vec<usize> {
    (0..n).filter(|&w| adpsgd_is_active(w) == active).collect()
}

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
            passives: adpsgd_ranks(peers.len(), false),
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
        let target = match core.elastic.as_ref() {
            Some(el) => {
                let live: Vec<usize> = self
                    .passives
                    .iter()
                    .copied()
                    .filter(|&x| el.view.is_live(x, iter) && !self.down[x])
                    .collect();
                if live.is_empty() {
                    None
                } else {
                    Some(live[core.rng.gen_range(0..live.len())])
                }
            }
            None => Some(self.passives[core.rng.gen_range(0..self.passives.len())]),
        };
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

    fn rejoin(&mut self, core: &mut WorkerCore, ctx: &Ctx<Msg>, view: &MembershipView, j: u64) {
        adpsgd_adopt(core, ctx, &self.peers, view, j);
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

/// Rejoin (both AD-PSGD roles): ask the sponsor passive — lowest live
/// passive at `j` that is not itself rejoining — for its replica via
/// `AdoptReq`, answered with a plain `ExchangeRep` (no averaging, so the
/// rejoiner's stale state never pollutes the cohort). With no live passive
/// to seed from, resume on the checkpointed state.
fn adpsgd_adopt(
    core: &mut WorkerCore,
    ctx: &Ctx<Msg>,
    peers: &[Addr],
    view: &MembershipView,
    j: u64,
) {
    let sponsor = view
        .live_at(j)
        .into_iter()
        .find(|&w| !adpsgd_is_active(w) && w != core.w && view.rejoin_round(w) != Some(j));
    let Some(sp) = sponsor else { return };
    let req = Msg::AdoptReq { sender: core.w };
    core.send(ctx, peers[sp], TrafficClass::Other, Charge::Wire, req);
    let m = ctx.recv_match(|m| matches!(m, Msg::ExchangeRep { sender, .. } if *sender == sp));
    if let (Some(real), Msg::ExchangeRep { data: Some(p), .. }) = (core.real.as_mut(), m) {
        real.net.set_params(&p);
        real.opt.reset();
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
            actives: adpsgd_ranks(peers.len(), true),
            peers,
            stops: 0,
        }
    }

    fn answer(&mut self, core: &mut WorkerCore, ctx: &Ctx<Msg>, m: Msg) {
        let (to, data) = match m {
            Msg::ExchangeReq { sender, data, .. } => {
                // Atomic averaging: compute the midpoint, adopt it, and send
                // the SAME midpoint back, so neither side's updates are lost.
                let mid = match (core.real.as_mut(), data) {
                    (Some(real), Some(xa)) => {
                        let mut x = real.net.get_params();
                        x.lerp(&xa, 0.5);
                        real.net.set_params(&x);
                        Some(x)
                    }
                    _ => None,
                };
                (sender, mid)
            }
            // Seed a rejoiner with this replica, unaveraged — adoption
            // must not drag the rejoiner's stale state into the cohort.
            Msg::AdoptReq { sender } => (sender, core.replica()),
            Msg::Stop => {
                self.stops += 1;
                return;
            }
            other => unreachable!("passive got {other:?}"),
        };
        let bytes = core.model_bytes();
        let rep = Msg::ExchangeRep {
            sender: core.w,
            data,
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

    fn rejoin(&mut self, core: &mut WorkerCore, ctx: &Ctx<Msg>, view: &MembershipView, j: u64) {
        // Discard exchange requests that queued while dormant — their
        // initiators were woken by the MemberDown and abandoned the
        // exchange; answering now would strand unmatched replies. Stop
        // and adopt accounting still applies.
        while let Some(m) = ctx.try_recv() {
            match m {
                Msg::ExchangeReq { .. } => {}
                m @ (Msg::Stop | Msg::AdoptReq { .. }) => self.answer(core, ctx, m),
                other => unreachable!("dormant passive got {other:?}"),
            }
        }
        adpsgd_adopt(core, ctx, &self.peers, view, j);
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
    fn board_mean_and_cleanup() {
        let b = AllReduceBoard::default();
        b.deposit(0, 1, ps(&[1.0, 2.0]));
        b.deposit(0, 0, ps(&[3.0, 4.0]));
        let m1 = b.mean(0, 2);
        assert_eq!(m1.0[0].data(), &[2.0, 3.0]);
        let m2 = b.mean(0, 2);
        assert_eq!(m2.0[0].data(), &[2.0, 3.0]);
        // slot removed after last reader; next iteration starts clean
        b.deposit(1, 0, ps(&[0.0, 0.0]));
        b.deposit(1, 1, ps(&[2.0, 2.0]));
        assert_eq!(b.mean(1, 2).0[0].data(), &[1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "barrier violated")]
    fn board_detects_missing_deposit() {
        let b = AllReduceBoard::default();
        b.deposit(0, 0, ps(&[1.0]));
        let _ = b.mean(0, 2);
    }

    #[test]
    fn bipartite_split() {
        assert_eq!(adpsgd_ranks(6, true), vec![0, 2, 4]);
        assert_eq!(adpsgd_ranks(6, false), vec![1, 3, 5]);
    }
}
