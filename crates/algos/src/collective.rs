//! Topology-aware hierarchical collectives for the simulator (DESIGN.md §6).
//!
//! When [`CollectiveSchedule`] is non-flat, AR-SGD stops running its flat
//! worker ring and instead drives a two-level schedule through one
//! *collective engine* process per machine:
//!
//! 1. **intra-machine reduce** — every co-located worker streams its
//!    gradient (whole, or in fixed-size chunks under the pipelined
//!    schedule) to its machine's engine over the PCIe-class intra link;
//! 2. **inter-machine ring** — the engines of machines with live members
//!    run a reduce-scatter + all-gather ring over the NICs, one chunk at a
//!    time, under [`TrafficClass::Collective`];
//! 3. **intra-machine broadcast** — the engine hands the reduced chunk back
//!    to its members.
//!
//! Because the engine is its own simulated process, the ring for chunk *i*
//! proceeds in virtual time while the workers are still in backprop on
//! chunks *i+1…* — the overlap is emergent, not assumed. Workers only block
//! at the end of backward, on the broadcast of whatever chunks are still in
//! flight.

use dtrain_cluster::{
    chunk_plan, chunks_ready, hier_groups, CollectiveSchedule, NetModel, NodeId, Phase,
    TrafficClass, DEFAULT_CHUNK_BYTES,
};
use dtrain_compress::compressed_wire_bytes;
use dtrain_desim::{Ctx, SimTime};
use dtrain_faults::MembershipView;
use dtrain_obs::{names, TrackHandle};
use std::sync::Arc;

use crate::exec::{Addr, Charge, Msg, WorkerCore};

/// The per-iteration chunking both sides (workers and engines) must agree
/// on: dense chunk boundaries (for backward readiness) plus the wire bytes
/// each chunk occupies (DGC-compressed when enabled).
pub(crate) struct ChunkLayout {
    /// Dense chunk size used for readiness arithmetic (0 = single chunk).
    pub chunk_dense: u64,
    /// Dense bytes per chunk.
    pub dense: Vec<u64>,
    /// Wire bytes per chunk.
    pub wire: Vec<u64>,
}

impl ChunkLayout {
    pub fn new(dense_total: u64, schedule: CollectiveSchedule, dgc: Option<f64>) -> Self {
        let chunk_dense = if schedule.overlaps_backprop() {
            DEFAULT_CHUNK_BYTES
        } else {
            0
        };
        let dense = chunk_plan(dense_total, chunk_dense);
        let wire = dense
            .iter()
            .map(|&d| match dgc {
                Some(s) => compressed_wire_bytes(d, s),
                None => d,
            })
            .collect();
        Self {
            chunk_dense,
            dense,
            wire,
        }
    }

    pub fn len(&self) -> usize {
        self.dense.len()
    }
}

/// State of one machine's collective engine process.
pub(crate) struct EngineCore {
    pub machine: usize,
    pub node: NodeId,
    pub net: NetModel,
    pub obs: TrackHandle,
    /// All worker addresses (indexed by worker id).
    pub workers: Vec<Addr>,
    /// Engine addresses indexed by machine id.
    pub engines: Vec<Addr>,
    pub gpus_per_machine: usize,
    pub num_workers: usize,
    pub total_iters: u64,
    /// Shared membership view in elastic runs (engines derive each round's
    /// cohort from the same history the workers do).
    pub view: Option<Arc<MembershipView>>,
    pub layout: ChunkLayout,
}

impl EngineCore {
    /// The live cohort at `iter`, ascending — identical to what each worker
    /// derives, so groups and the machine ring agree without negotiation.
    fn cohort_at(&self, iter: u64) -> Vec<usize> {
        match &self.view {
            Some(v) => v.live_at(iter),
            None => (0..self.num_workers).collect(),
        }
    }

    /// The engine's one way onto the wire: a `Collective`-class transfer of
    /// `bytes` to `to`. Engines keep no Fig. 3 books — their time shows up
    /// as the workers' wait for the broadcast.
    fn send(&self, ctx: &Ctx<Msg>, to: Addr, bytes: u64, msg: Msg) {
        let delay = self.net.transfer_delay_class(
            ctx.now(),
            self.node,
            to.node,
            bytes,
            TrafficClass::Collective,
        );
        ctx.send(to.pid, delay, msg);
    }
}

/// Body of the per-machine collective engine process. Purely reactive: all
/// time it spends is message-arrival time; the schedule's structure (who
/// gathers, who rings, who broadcasts) is derived per round from the shared
/// cohort, so eviction and rejoin re-shape the trees with zero messages.
pub(crate) fn collective_engine(eng: EngineCore, ctx: Ctx<Msg>) {
    for iter in 0..eng.total_iters {
        let cohort = eng.cohort_at(iter);
        let groups = hier_groups(&cohort, eng.gpus_per_machine);
        let Some(gi) = groups.iter().position(|g| g.machine == eng.machine) else {
            continue; // no live member here this round
        };
        let members = groups[gi].members.clone();
        let ring: Vec<usize> = groups.iter().map(|g| g.machine).collect();
        let m = ring.len();
        let next = eng.engines[ring[(gi + 1) % m]];
        for (c, &cwire) in eng.layout.wire.iter().enumerate() {
            let c32 = c as u32;
            // 1. intra-machine gather: one chunk from every member.
            let t0 = ctx.now();
            for _ in 0..members.len() {
                let _ = ctx.recv_match(|msg| {
                    matches!(msg, Msg::CollChunk { iter: i, chunk: cc, .. }
                        if *i == iter && *cc == c32)
                });
            }
            eng.obs.span(
                t0.as_nanos(),
                (ctx.now() - t0).as_nanos(),
                names::COLL_INTRA_REDUCE,
                iter,
            );
            // 2. inter-machine ring over the machine leaders: classic
            // reduce-scatter + all-gather, 2(m−1) hops of cwire/m bytes.
            if m > 1 {
                let t1 = ctx.now();
                let hop = (cwire / m as u64).max(1);
                for step in 0..2 * (m as u32 - 1) {
                    let ring = Msg::CollRing {
                        iter,
                        chunk: c32,
                        step,
                        bytes: hop,
                    };
                    eng.send(&ctx, next, hop, ring);
                    let _ = ctx.recv_match(|msg| {
                        matches!(msg, Msg::CollRing { iter: i, chunk: cc, step: s, .. }
                            if *i == iter && *cc == c32 && *s == step)
                    });
                }
                eng.obs.span(
                    t1.as_nanos(),
                    (ctx.now() - t1).as_nanos(),
                    names::COLL_INTER_RING,
                    iter,
                );
            }
            // 3. intra-machine broadcast of the reduced chunk.
            for &w in &members {
                let bcast = Msg::CollBcast {
                    iter,
                    chunk: c32,
                    bytes: cwire,
                };
                eng.send(&ctx, eng.workers[w], cwire, bcast);
            }
            eng.obs.instant(
                ctx.now().as_nanos(),
                names::COLL_INTRA_BCAST,
                members.len() as i64,
            );
        }
    }
}

/// One AR-SGD iteration's compute + hierarchical allreduce, replacing the
/// flat worker ring. Under the pipelined schedule (and wait-free BP) the
/// backward pass is walked layer by layer and each chunk goes on the intra
/// link the moment its bytes are produced; otherwise the whole gradient is
/// handed over after compute. Either way the worker then blocks on the
/// engine's broadcast of every chunk.
pub(crate) fn run_hier_allreduce(
    core: &mut WorkerCore,
    ctx: &Ctx<Msg>,
    engine: Addr,
    layout: &ChunkLayout,
    iter: u64,
) {
    let nchunks = layout.len();
    let mut sent = 0usize;
    let mut cum_wire = 0u64;
    // Send every chunk in `sent..upto` to this machine's engine, stamping
    // the cumulative-bytes counter used by the overlap timeline in
    // DESIGN.md §6.
    let mut send_upto = |core: &mut WorkerCore, upto: usize| {
        while sent < upto {
            let bytes = layout.wire[sent];
            cum_wire += bytes;
            core.metrics.worker_track(core.w).counter(
                ctx.now().as_nanos(),
                names::COLL_CHUNK_BYTES,
                cum_wire as i64,
            );
            let chunk = Msg::CollChunk {
                sender: core.w,
                iter,
                chunk: sent as u32,
                bytes,
            };
            core.send(ctx, engine, TrafficClass::Collective, Charge::Wire, chunk);
            sent += 1;
        }
    };
    if layout.chunk_dense > 0 && core.wait_free {
        let bwd = core.compute_forward(ctx);
        let bwd_bytes = core.profile.backward_layer_bytes();
        let mut cum_dense = 0u64;
        for (dt, lb) in bwd.into_iter().zip(bwd_bytes) {
            ctx.advance(dt);
            cum_dense += lb;
            send_upto(core, chunks_ready(cum_dense, layout.chunk_dense, nchunks));
        }
    } else {
        core.compute(ctx);
    }
    // Flush the remainder chunk (and everything, in the non-pipelined case).
    send_upto(core, nchunks);
    // Block for the reduced chunks coming back from the engine.
    let t0 = ctx.now();
    let mut bcast_wire = SimTime::ZERO;
    for c in 0..nchunks {
        let c32 = c as u32;
        let _ = ctx.recv_match(
            |m| matches!(m, Msg::CollBcast { iter: i, chunk: cc, .. } if *i == iter && *cc == c32),
        );
        bcast_wire += core.wire_time(engine.node, layout.wire[c]);
    }
    let blocked = ctx.now() - t0;
    let wire = bcast_wire.min(blocked);
    core.metrics
        .record_at(core.w, Phase::Comm, ctx.now() - wire, wire);
    core.metrics
        .record_at(core.w, Phase::GlobalAgg, t0, blocked.saturating_sub(wire));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_layout_matches_schedule() {
        let flat = ChunkLayout::new(100 << 20, CollectiveSchedule::Hier, None);
        assert_eq!(flat.len(), 1);
        assert_eq!(flat.wire[0], 100 << 20);
        let piped = ChunkLayout::new(100 << 20, CollectiveSchedule::Pipelined, None);
        assert_eq!(piped.len(), 25);
        assert!(piped.dense.iter().all(|&d| d == DEFAULT_CHUNK_BYTES));
        assert_eq!(piped.wire, piped.dense);
    }

    #[test]
    fn chunk_layout_compresses_wire_bytes() {
        let l = ChunkLayout::new(10 << 20, CollectiveSchedule::Pipelined, Some(0.999));
        assert_eq!(l.dense.iter().sum::<u64>(), 10 << 20);
        assert!(l.wire.iter().zip(&l.dense).all(|(&w, &d)| w < d));
    }
}
