//! Shared execution machinery: messages, per-worker state, shard slicing,
//! the snapshot recorder — and the two things every worker body stands on:
//! the **iteration skeleton** ([`run_worker`] + [`Body`]) and the one
//! **charged-send primitive** ([`WorkerCore::send`]).
//!
//! A run is a set of [`dtrain_desim`] processes — workers plus (for
//! centralized algorithms) parameter-server shards — exchanging [`Msg`]s.
//! Every message carries `bytes` (its wire size under the *timing* profile,
//! e.g. ResNet-50's 98 MB of gradients) and optionally real data (the small
//! trainable model's tensors) when the run is an accuracy experiment. This
//! is the hybrid virtual-time design from DESIGN.md §1: the interleavings
//! are the paper's, the arithmetic is real.
//!
//! ## The skeleton
//!
//! [`run_worker`] is the only worker loop: membership gate →
//! `begin_iteration` → [`Body::step`] → `finish_iteration`, then
//! [`Body::epilogue`]. The gate is written once too: classic runs consume
//! due crashes; elastic runs ask the shared [`MembershipView`] whether this
//! is the worker's death round and, if so, walk evict → [`Body::depart`] →
//! dormancy → [`Body::rejoin`] → rejoin marker. A body is what is left: its
//! step, whom it tells when it leaves, whom it adopts a replica from, and
//! what it owes after its last iteration — `centralized::PsBody` and
//! `decentralized::{ArSgd, GoSgd, AdPsgdActive, AdPsgdPassive}`.
//!
//! ## Who charges what
//!
//! Every modelled transfer a worker starts goes through
//! [`WorkerCore::send`], which reserves NIC time and counts the message's
//! real payload toward `logical.bytes` (zero for control and timing-only
//! messages — AR-SGD's ring hops are timing-only, so `ArSgd` counts its
//! gradient where it deposits it on the all-reduce board); the [`Charge`]
//! argument states the rest:
//!
//! | site | message | class | charge |
//! |---|---|---|---|
//! | BSP solo/leader, ASP, SSP push | `GradPush` | WorkerPs | `Wire` |
//! | EASGD exchange | `ParamPush` | WorkerPs | `Wire` |
//! | SSP refresh, elastic rejoin pull | `GatedPull`, `PullReq` | WorkerPs | `Free` |
//! | membership → PS shards, AD-PSGD actives | `MemberDown`, `MemberUp` | Other | `Free` |
//! | BSP follower ↔ leader | `LocalGrad`, `LocalParams` | LocalAgg | `Free` |
//! | flat ring hop | `RingChunk` | Peer | `Hop` |
//! | gossip, AD-PSGD exchange, rejoin seed | `Gossip`, `Exchange*`, `LocalParams` | Peer | `Wire` |
//! | AD-PSGD adopt request | `AdoptReq` | Other | `Wire` |
//! | worker → collective engine | `CollChunk` | Collective | `Wire` |
//!
//! PS shards are always addressed at their *live* home
//! ([`WorkerCore::ps_addr`]; only an elastic centralized run can move one).
//! `Stop` is not a transfer (1 ns, uncharged: [`WorkerCore::send_stop`]).
//! The server sides have one primitive each: `PsCore::send_params`
//! (WorkerPs; the worker books the reply's wire time when it collects) and
//! `EngineCore::send` (Collective).

use std::collections::VecDeque;
use std::sync::Arc;

use dtrain_cluster::{
    ClusterConfig, DeadlinePolicy, GpuModel, MetricsHub, NetModel, NodeId, Phase, ShardHomes,
    ShardPlan, TrafficClass,
};
use dtrain_compress::{compressed_wire_bytes, DgcCompressor, SparseUpdate};
use dtrain_data::Dataset;
use dtrain_desim::{Ctx, Pid, SimTime};
use dtrain_faults::{markers, CheckpointStore, ElasticConfig, ElasticRuntime, MembershipView};
use dtrain_models::ModelProfile;
use dtrain_nn::{LrSchedule, Network, ParamLayout, ParamSet, SgdMomentum};
use dtrain_obs::names;
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::config::{RealTraining, RunConfig, StopCondition};

/// Gradient payload: dense, DGC-sparse, or timing-only.
#[derive(Clone, Debug)]
pub enum GradData {
    Dense(ParamSet),
    Sparse(SparseUpdate),
}

impl GradData {
    /// The payload as a dense set (sparse contributions densify).
    pub(crate) fn into_dense(self) -> ParamSet {
        match self {
            GradData::Dense(g) => g,
            GradData::Sparse(s) => s.to_dense(),
        }
    }
}

/// Everything that flows between processes.
#[derive(Clone, Debug)]
pub enum Msg {
    /// Worker (or machine leader) → PS shard: one iteration's gradient
    /// contribution for the layers of `shard`. `weight` is how many workers'
    /// gradients are folded in (local aggregation sums several); a `u32`
    /// keeps this, the largest message, at its size.
    GradPush {
        sender: usize,
        shard: usize,
        iter: u64,
        lr: f32,
        weight: u32,
        data: Option<GradData>,
        bytes: u64,
    },
    /// Worker → PS shard (EASGD): local parameters for the elastic update.
    ParamPush {
        sender: usize,
        shard: usize,
        data: Option<ParamSet>,
        bytes: u64,
    },
    /// Worker → PS shard (SSP): explicit request for fresh parameters.
    PullReq { sender: usize, shard: usize },
    /// PS shard → worker: shard parameters (or elastic-updated locals).
    /// `clock` is the PS's view of the slowest worker's clock (SSP uses it
    /// to refresh its cache timestamp; 0 elsewhere).
    ShardParams {
        shard: usize,
        clock: u64,
        data: Option<ParamSet>,
        bytes: u64,
    },
    /// Worker → co-located leader (BSP local aggregation): local gradient
    /// for one PS shard's layers.
    LocalGrad {
        sender: usize,
        iter: u64,
        shard: usize,
        data: Option<GradData>,
        bytes: u64,
    },
    /// Leader → co-located worker: fresh parameters after the global round.
    LocalParams { data: Option<ParamSet>, bytes: u64 },
    /// Ring neighbor → neighbor (AR-SGD): one reduce-scatter/all-gather hop.
    RingChunk { step: u32, bucket: u32, bytes: u64 },
    /// Gossip (GoSGD): asymmetric parameter share with mixing weight.
    Gossip {
        sender: usize,
        alpha: f32,
        data: Option<ParamSet>,
        bytes: u64,
    },
    /// AD-PSGD active → passive: parameters, expecting the peer's back.
    ExchangeReq {
        sender: usize,
        data: Option<ParamSet>,
        bytes: u64,
    },
    /// AD-PSGD passive → active: the passive side's parameters.
    ExchangeRep {
        sender: usize,
        data: Option<ParamSet>,
        bytes: u64,
    },
    /// Worker → PS shard 0 (SSP): pull gated on the staleness bound — the
    /// server replies only once the slowest worker's clock reaches
    /// `min_needed`.
    GatedPull { sender: usize, min_needed: u64 },
    /// PS shard → itself (elastic BSP): timer set for a round's barrier
    /// deadline; the shard's hub then closes the round *partially*, over
    /// the members present, if it is still short of its cohort.
    RoundDeadline,
    /// Rejoining member → peer (elastic AD-PSGD): request the peer's
    /// current parameters without averaging (the rejoiner's state is stale
    /// and must not pollute the peer). Answered with [`Msg::ExchangeRep`].
    AdoptReq { sender: usize },
    /// Sender has finished all its iterations.
    Stop,
    /// Fault layer → PS shards / peers: `worker` crashed. `permanent` means
    /// it left the cohort (the PS shrinks rounds around it); `rejoining`
    /// qualifies a permanent loss whose plan re-enters it later, so its Stop
    /// is still owed — a temporary crash (`permanent: false`) is simply
    /// followed by [`Msg::MemberUp`] after the restart.
    MemberDown {
        worker: usize,
        permanent: bool,
        rejoining: bool,
    },
    /// Fault layer → PS shards: `worker` restored its checkpoint and
    /// rejoined.
    MemberUp { worker: usize },
    /// Worker → its machine's collective engine: one gradient chunk became
    /// ready during backward (hierarchical/pipelined allreduce).
    CollChunk {
        sender: usize,
        iter: u64,
        chunk: u32,
        bytes: u64,
    },
    /// Collective engine → next machine's engine: one reduce-scatter /
    /// all-gather hop of the inter-machine ring for `chunk`.
    CollRing {
        iter: u64,
        chunk: u32,
        step: u32,
        bytes: u64,
    },
    /// Collective engine → co-located worker: `chunk` fully reduced.
    CollBcast { iter: u64, chunk: u32, bytes: u64 },
}

// Every send moves a `Msg` through desim's queues: at 80 bytes `sim_sweep`
// ran 5 % slower. No small variant may outgrow `GradPush` (no `Duration` on
// `RoundDeadline`).
const _: () = assert!(std::mem::size_of::<Msg>() == 72);

impl Msg {
    /// Wire size under the timing profile: the `bytes` a payload message
    /// carries, [`CTRL_BYTES`] for control messages.
    pub(crate) fn wire_bytes(&self) -> u64 {
        match self {
            Msg::GradPush { bytes, .. }
            | Msg::ParamPush { bytes, .. }
            | Msg::ShardParams { bytes, .. }
            | Msg::LocalGrad { bytes, .. }
            | Msg::LocalParams { bytes, .. }
            | Msg::RingChunk { bytes, .. }
            | Msg::Gossip { bytes, .. }
            | Msg::ExchangeReq { bytes, .. }
            | Msg::ExchangeRep { bytes, .. }
            | Msg::CollChunk { bytes, .. }
            | Msg::CollRing { bytes, .. }
            | Msg::CollBcast { bytes, .. } => *bytes,
            _ => CTRL_BYTES,
        }
    }
}

/// Bytes of *real* model payload carried by `msg` (0 for cost-only or
/// control messages). This is the cross-path "logical traffic" unit: the
/// threaded runtime moves the same `ParamSet`s through memory, so both
/// execution paths can report identical `logical.bytes` counters.
fn logical_payload(msg: &Msg) -> u64 {
    fn grad(g: &Option<GradData>) -> u64 {
        match g {
            Some(GradData::Dense(p)) => p.num_bytes(),
            Some(GradData::Sparse(s)) => s.wire_bytes(),
            None => 0,
        }
    }
    fn params(p: &Option<ParamSet>) -> u64 {
        p.as_ref().map_or(0, ParamSet::num_bytes)
    }
    match msg {
        Msg::GradPush { data, .. } | Msg::LocalGrad { data, .. } => grad(data),
        Msg::ParamPush { data, .. }
        | Msg::ShardParams { data, .. }
        | Msg::LocalParams { data, .. }
        | Msg::Gossip { data, .. }
        | Msg::ExchangeReq { data, .. }
        | Msg::ExchangeRep { data, .. } => params(data),
        _ => 0,
    }
}

/// One parameter snapshot taken at a worker's epoch boundary.
#[derive(Clone, Debug)]
pub struct Snapshot {
    pub worker: usize,
    /// Epoch just completed (1-based: epoch 1 = after first pass).
    pub epoch: u64,
    pub time: SimTime,
    pub params: ParamSet,
}

/// Shared sink for snapshots, read back after the run for evaluation.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Arc<Mutex<Vec<Snapshot>>>,
}

impl Recorder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record(&self, s: Snapshot) {
        self.inner.lock().push(s);
    }

    pub fn snapshots(&self) -> Vec<Snapshot> {
        self.inner.lock().clone()
    }
}

// ---------------------------------------------------------------------------
// Shard slicing
// ---------------------------------------------------------------------------

/// Tensor indices (into the flat `ParamSet`) owned by `shard` under `plan`,
/// where plan layers are the `layout`'s groups. Deterministic group order.
pub fn shard_tensor_indices(layout: &ParamLayout, plan: &ShardPlan, shard: usize) -> Vec<usize> {
    let mut out = Vec::new();
    for (g, group) in layout.groups.iter().enumerate() {
        if plan.layer_to_shard[g] == shard {
            out.extend_from_slice(&group.tensor_indices);
        }
    }
    out
}

/// Tensor indices of every shard of the *real* model under `cfg`'s sharding
/// options: the plan runs over the layout's layer groups.
pub(crate) fn real_shard_indices(cfg: &RunConfig, layout: &ParamLayout) -> Vec<Vec<usize>> {
    let group_bytes: Vec<u64> = layout.groups.iter().map(|g| g.num_bytes()).collect();
    let plan = cfg.shard_plan(&group_bytes);
    (0..plan.num_shards)
        .map(|s| shard_tensor_indices(layout, &plan, s))
        .collect()
}

/// Extract the tensors of `shard` from a full set (gradient or params).
pub fn slice_set(set: &ParamSet, indices: &[usize]) -> ParamSet {
    ParamSet(indices.iter().map(|&i| set.0[i].clone()).collect())
}

/// Write a shard slice back into the full set.
pub fn unslice_set(full: &mut ParamSet, indices: &[usize], slice: &ParamSet) {
    assert_eq!(indices.len(), slice.0.len(), "slice arity mismatch");
    for (&i, t) in indices.iter().zip(&slice.0) {
        assert_eq!(full.0[i].shape(), t.shape(), "slice shape mismatch");
        full.0[i].data_mut().copy_from_slice(t.data());
    }
}

/// Extract a shard's slices from a sparse update.
fn slice_sparse(upd: &SparseUpdate, indices: &[usize]) -> SparseUpdate {
    SparseUpdate {
        tensors: indices.iter().map(|&i| upd.tensors[i].clone()).collect(),
    }
}

// ---------------------------------------------------------------------------
// Real-math worker state
// ---------------------------------------------------------------------------

/// Per-worker training state for accuracy runs.
pub struct RealWorkerState {
    pub net: Network,
    pub opt: SgdMomentum,
    pub sched: LrSchedule,
    pub train: Arc<Dataset>,
    pub shard: dtrain_data::Shard,
    pub batch: usize,
    pub batches: Vec<Vec<usize>>,
    pub batch_in_epoch: usize,
    pub epoch: u64,
    /// Tensor indices per shard of the *real* model (arity = PS shards).
    pub shard_indices: Vec<Vec<usize>>,
    pub dgc: Option<DgcCompressor>,
    pub shard_seed: u64,
}

impl RealWorkerState {
    /// The paper-style scaled schedule's rate now: what a synchronous
    /// round's mean is applied at.
    pub fn lr(&self) -> f32 {
        self.sched.lr_at(self.epoch_f())
    }

    /// Learning rate for one *single gradient* application: [`Self::lr`]
    /// divided by worker count, so per-epoch parameter motion matches the
    /// synchronous rounds' (DESIGN.md §3b, "One update rule per algorithm").
    pub fn grad_lr(&self, num_workers: usize) -> f32 {
        self.lr() / num_workers as f32
    }

    /// Fractional epoch position (for schedules).
    pub fn epoch_f(&self) -> f32 {
        let per = self.batches.len().max(1) as f32;
        self.epoch as f32 + self.batch_in_epoch as f32 / per
    }

    /// Run one forward/backward on the current batch; returns the
    /// gradient. Only [`Self::advance_cursor`] moves the batch cursor.
    pub fn compute_grad(&mut self) -> ParamSet {
        let idxs = self.batches[self.batch_in_epoch].clone();
        let (x, y) = self.train.gather(&idxs);
        let (loss, _acc) = self.net.train_batch(x, &y);
        assert!(
            loss.is_finite(),
            "training diverged: non-finite loss at epoch {} batch {} \
             (lower the learning rate or check the aggregation rule)",
            self.epoch,
            self.batch_in_epoch
        );
        let grads = self.net.grads();
        assert!(
            grads.all_finite(),
            "training diverged: non-finite gradients at epoch {} batch {}",
            self.epoch,
            self.batch_in_epoch
        );
        grads
    }

    /// Per-shard payloads of one dense gradient (or delta), DGC-compressed
    /// when enabled.
    pub(crate) fn shard_payloads(&mut self, grad: &ParamSet) -> Vec<GradData> {
        let shards = self.shard_indices.iter();
        match self.dgc.as_mut() {
            Some(dgc) => {
                let upd = dgc.compress(grad, self.epoch as usize);
                shards
                    .map(|idx| GradData::Sparse(slice_sparse(&upd, idx)))
                    .collect()
            }
            None => shards
                .map(|idx| GradData::Dense(slice_set(grad, idx)))
                .collect(),
        }
    }

    /// Overwrite this replica's parameters for one shard's tensors.
    pub fn set_shard_params(&mut self, shard: usize, slice: &ParamSet) {
        let mut p = self.net.get_params();
        unslice_set(&mut p, &self.shard_indices[shard], slice);
        self.net.set_params(&p);
    }

    /// Move to the next batch; returns `true` when an epoch just completed.
    pub fn advance_cursor(&mut self) -> bool {
        self.batch_in_epoch += 1;
        if self.batch_in_epoch >= self.batches.len() {
            self.batch_in_epoch = 0;
            self.epoch += 1;
            // reshuffle for the new epoch
            self.batches = self
                .shard
                .epoch_batches(self.batch, self.shard_seed, self.epoch);
            true
        } else {
            false
        }
    }
}

// ---------------------------------------------------------------------------
// WorkerCore: everything a worker process needs
// ---------------------------------------------------------------------------

/// Default restart delay when a permanent crash must be coerced to a
/// temporary one (synchronous groups and decentralized peers always
/// re-admit — see DESIGN.md "Fault model").
pub const DEFAULT_RESTART: SimTime = SimTime::from_secs(5);

/// Wire size of a control message (membership, pull and adopt requests).
const CTRL_BYTES: u64 = 64;

/// Address of a simulated process: its pid plus the machine it runs on.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Addr {
    pub pid: Pid,
    pub node: NodeId,
}

/// What a worker-side send is charged beyond its NIC reservation (see the
/// module docs for the table of sites).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Charge {
    /// A transfer the iteration pays for: its analytic wire time goes to the
    /// Fig. 3 Comm bar and, under elastic membership, it runs under the
    /// per-transfer deadline/retry policy.
    Wire,
    /// One hop of the flat ring: the Comm bar, but never retried — a ring
    /// cannot route around a hop, it is rebuilt from the view each round.
    Hop,
    /// NIC time only: control messages, and the intra-machine legs of local
    /// aggregation (their cost is the LocalAgg wait itself).
    Free,
}

/// The transport deadline/retry policy elastic workers apply to their
/// sends.
fn deadline_policy(cfg: &ElasticConfig) -> DeadlinePolicy {
    DeadlinePolicy {
        deadline: cfg.transfer_deadline,
        max_retries: cfg.max_retries,
        backoff: cfg.retry_backoff,
    }
}

/// Per-worker fault-injection state: the worker's crash schedule plus the
/// run's shared checkpoint store.
pub(crate) struct WorkerFaults {
    /// Upcoming crashes as `(at, restart_after)`, earliest first.
    /// `restart_after = None` is a permanent loss.
    pub pending_crashes: VecDeque<(SimTime, Option<SimTime>)>,
    pub store: Arc<CheckpointStore>,
    /// Completed iterations (drives the checkpoint cadence).
    pub iters_done: u64,
}

/// Bundle of models and handles each worker process owns.
pub struct WorkerCore {
    pub w: usize,
    pub node: NodeId,
    pub cluster: ClusterConfig,
    pub num_workers: usize,
    pub gpu: GpuModel,
    pub net: NetModel,
    pub metrics: MetricsHub,
    pub recorder: Recorder,
    /// Shard plan over the timing profile's layers.
    pub profile_plan: ShardPlan,
    /// Per-shard wire bytes (dense).
    pub shard_bytes: Vec<u64>,
    /// Wait-free BP: emit each shard's message at its readiness point
    /// within the backward pass (off = everything after compute).
    pub wait_free: bool,
    pub dgc_sparsity: Option<f64>,
    /// Timing profile the compute phase is drawn from.
    pub profile: ModelProfile,
    pub total_iters: u64,
    pub batch: usize,
    pub rng: SmallRng,
    pub real: Option<RealWorkerState>,
    pub(crate) faults: Option<WorkerFaults>,
    /// Elastic-membership handle; `Some` exactly when the run is elastic.
    pub elastic: Option<ElasticRuntime>,
    /// The PS shards at their static placement (empty for decentralized
    /// algorithms); address them through [`Self::ps_addr`].
    pub(crate) ps: Vec<Addr>,
    /// Live shard→machine map (elastic centralized runs): sends to a PS
    /// shard resolve the destination machine here so traffic follows a
    /// failed-over shard. `None` = static placement.
    pub ps_homes: Option<ShardHomes>,
    /// Cumulative real-payload bytes this worker has put on the wire
    /// (`names::LOGICAL_BYTES` counter; see DESIGN.md §4).
    pub logical_bytes: u64,
}

impl WorkerCore {
    /// Dense wire bytes of the whole model.
    pub(crate) fn model_bytes(&self) -> u64 {
        self.shard_bytes.iter().sum()
    }

    /// Analytic wire time of a PS reply, counted at inter-machine rate
    /// (replies overwhelmingly cross machines; co-located shards make this
    /// a slight overestimate of the Comm bar, never of the total).
    pub fn wire_time_for_reply(&self, bytes: u64) -> SimTime {
        SimTime::from_secs_f64(self.cluster.network.serialization_secs(bytes))
    }

    /// Analytic exclusive-link wire time to `dst` — the "communication" bar
    /// of Fig. 3 (queueing and server time land in the aggregation bars).
    pub fn wire_time(&self, dst: NodeId, bytes: u64) -> SimTime {
        let secs = if dst == self.node {
            bytes as f64 * 8.0 / (self.cluster.intra_bandwidth_gbps * 1e9)
        } else {
            self.cluster.network.serialization_secs(bytes)
        };
        SimTime::from_secs_f64(secs)
    }

    /// The one way a worker puts a modelled transfer on the wire: reserve
    /// NIC time for `msg`'s wire bytes to `to` under `class`, book what
    /// `charge` says, count its real payload toward `logical.bytes`, and
    /// deliver it after the resulting delay. Under [`Charge::Wire`] in
    /// elastic mode each retry is stamped on this worker's obs track.
    pub(crate) fn send(
        &mut self,
        ctx: &Ctx<Msg>,
        to: Addr,
        class: TrafficClass,
        charge: Charge,
        msg: Msg,
    ) {
        let now = ctx.now();
        let bytes = msg.wire_bytes();
        let delay = match self.elastic.as_ref().filter(|_| charge == Charge::Wire) {
            Some(e) => {
                let (delay, retries) = self.net.transfer_delay_deadline(
                    now,
                    self.node,
                    to.node,
                    bytes,
                    class,
                    deadline_policy(&e.cfg),
                );
                for attempt in 1..=retries {
                    markers::retry(self.metrics.worker_track(self.w), now.as_nanos(), attempt);
                }
                delay
            }
            None => self
                .net
                .transfer_delay_class(now, self.node, to.node, bytes, class),
        };
        if charge != Charge::Free {
            self.metrics
                .record_at(self.w, Phase::Comm, now, self.wire_time(to.node, bytes));
        }
        self.count_logical(now, logical_payload(&msg));
        ctx.send(to.pid, delay, msg);
    }

    /// `Stop` is not a transfer: it leaves 1 ns after the sender's last
    /// iteration, uncharged.
    pub(crate) fn send_stop(&self, ctx: &Ctx<Msg>, to: Addr) {
        ctx.send(to.pid, SimTime::from_nanos(1), Msg::Stop);
    }

    /// PS shard `s` at its live home: the failover target once an elastic
    /// run has moved it, the static placement otherwise.
    pub(crate) fn ps_addr(&self, s: usize) -> Addr {
        let mut to = self.ps[s];
        if let Some(homes) = &self.ps_homes {
            to.node = homes.node_of(s);
        }
        to
    }

    /// Tell every PS shard about a membership change (no-op without a PS).
    pub(crate) fn announce_ps(&mut self, ctx: &Ctx<Msg>, msg: Msg) {
        for s in 0..self.ps.len() {
            let to = self.ps_addr(s);
            self.send(ctx, to, TrafficClass::Other, Charge::Free, msg.clone());
        }
    }

    /// Real mode: a copy of this worker's current parameters.
    pub(crate) fn replica(&self) -> Option<ParamSet> {
        self.real.as_ref().map(|r| r.net.get_params())
    }

    /// Accumulate real-payload bytes and emit the cumulative
    /// `logical.bytes` counter on this worker's obs track.
    pub(crate) fn count_logical(&mut self, now: SimTime, bytes: u64) {
        if bytes == 0 {
            return;
        }
        self.logical_bytes += bytes;
        self.metrics.worker_track(self.w).counter(
            now.as_nanos(),
            names::LOGICAL_BYTES,
            self.logical_bytes as i64,
        );
    }

    /// Wire bytes of a gradient push for `shard`, DGC-compressed if enabled.
    pub fn grad_bytes(&self, shard: usize) -> u64 {
        match self.dgc_sparsity {
            Some(s) => compressed_wire_bytes(self.shard_bytes[shard], s),
            None => self.shard_bytes[shard],
        }
    }

    /// The learning rate attached to a single outgoing gradient (0 in a
    /// cost-only run, which applies nothing).
    pub fn current_lr(&self) -> f32 {
        self.real
            .as_ref()
            .map_or(0.0, |r| r.grad_lr(self.num_workers))
    }

    /// The learning rate a synchronous round's mean is applied at.
    pub fn round_lr(&self) -> f32 {
        self.real.as_ref().map_or(0.0, RealWorkerState::lr)
    }

    /// One whole compute phase (forward + backward) with nothing emitted
    /// inside it.
    pub(crate) fn compute(&mut self, ctx: &Ctx<Msg>) {
        let t = self.gpu.iteration_time(&self.profile, self.batch);
        self.metrics.record_at(self.w, Phase::Compute, ctx.now(), t);
        ctx.advance(t);
    }

    /// Open a compute phase whose backward pass the caller walks itself:
    /// books the whole phase, advances through forward, and hands back the
    /// per-layer backward times (in backward order).
    pub(crate) fn compute_forward(&mut self, ctx: &Ctx<Msg>) -> Vec<SimTime> {
        let fwd = self.gpu.forward_time(&self.profile, self.batch);
        let bwd = self.gpu.backward_layer_times(&self.profile, self.batch);
        let total: SimTime = fwd + bwd.iter().copied().sum();
        self.metrics
            .record_at(self.w, Phase::Compute, ctx.now(), total);
        ctx.advance(fwd);
        bwd
    }

    /// A purely local iteration (EASGD, GoSGD, AD-PSGD passive): compute,
    /// then one SGD step on the local replica at the single-gradient rate.
    pub(crate) fn local_sgd(&mut self, ctx: &Ctx<Msg>) {
        self.compute(ctx);
        if let Some(real) = self.real.as_mut() {
            let g = real.compute_grad();
            let lr = real.grad_lr(self.num_workers);
            real.net.sgd_step(&mut real.opt, &g, lr);
        }
    }

    /// Advance through one iteration's compute phase, calling `emit` for
    /// each shard at the moment its gradient message may leave:
    /// - wait_free = false: after the whole phase, all shards at once;
    /// - wait_free = true: during backward, each shard when the *last* of
    ///   its layers (the one closest to the input) finishes.
    pub fn run_compute_phase(
        &mut self,
        ctx: &Ctx<Msg>,
        mut emit: impl FnMut(&mut Self, &Ctx<Msg>, usize /*shard*/),
    ) {
        let num_shards = self.profile_plan.num_shards;
        if !self.wait_free {
            self.compute(ctx);
            for s in 0..num_shards {
                emit(self, ctx, s);
            }
            return;
        }
        let bwd = self.compute_forward(ctx);
        // For each shard, the backward step at which it completes = the
        // position (in backward order) of its lowest-forward-index layer.
        let layers = self.profile.layers.len();
        let mut completes_at = vec![0usize; num_shards];
        for (fwd_idx, &s) in self.profile_plan.layer_to_shard.iter().enumerate() {
            let bwd_pos = layers - 1 - fwd_idx;
            completes_at[s] = completes_at[s].max(bwd_pos);
        }
        for (bwd_pos, dt) in bwd.into_iter().enumerate() {
            ctx.advance(dt);
            #[allow(clippy::needless_range_loop)] // s is also the emit arg
            for s in 0..num_shards {
                if completes_at[s] == bwd_pos {
                    emit(self, ctx, s);
                }
            }
        }
    }

    /// Pop the next crash if it is due at `now`. Returns the crash's
    /// restart delay (`None` inside = permanent loss).
    fn take_due_crash(&mut self, now: SimTime) -> Option<Option<SimTime>> {
        let f = self.faults.as_mut()?;
        match f.pending_crashes.front() {
            Some(&(at, restart)) if at <= now => {
                f.pending_crashes.pop_front();
                Some(restart)
            }
            _ => None,
        }
    }

    /// Roll this replica back to its last checkpoint (crash recovery). In
    /// cost-only mode there is no parameter state to lose; only the restart
    /// time matters.
    fn restore_checkpoint(&mut self, now: SimTime) {
        let Some(f) = &self.faults else { return };
        let Some(real) = self.real.as_mut() else {
            return;
        };
        if let Some(cp) = f.store.restore(self.w) {
            real.net.set_params(&cp.params);
            real.opt = cp.opt;
            markers::ckpt_restore(
                self.metrics.worker_track(self.w),
                now.as_nanos(),
                cp.iteration,
            );
        }
    }

    /// Count one completed iteration and checkpoint when the cadence says
    /// so. Called from [`finish_iteration`].
    fn tick_checkpoint(&mut self, now: SimTime) {
        let Some(f) = self.faults.as_mut() else {
            return;
        };
        f.iters_done += 1;
        if f.store.due(f.iters_done) {
            if let Some(real) = &self.real {
                f.store
                    .save(self.w, f.iters_done, &real.net.get_params(), &real.opt);
                markers::ckpt_save(
                    self.metrics.worker_track(self.w),
                    now.as_nanos(),
                    f.iters_done,
                );
            }
        }
    }

    /// Record a snapshot of the worker's current parameters (real mode).
    fn maybe_snapshot(&self, ctx: &Ctx<Msg>, epoch_completed: u64) {
        if let Some(real) = &self.real {
            self.recorder.record(Snapshot {
                worker: self.w,
                epoch: epoch_completed,
                time: ctx.now(),
                params: real.net.get_params(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// The iteration skeleton
// ---------------------------------------------------------------------------

/// What one algorithm (and role) adds to the shared worker loop. Hooks other
/// than [`Body::step`] only run in elastic-membership runs, except the
/// epilogue.
pub(crate) trait Body {
    /// Iteration `iter`, between `begin_iteration` and `finish_iteration`.
    fn step(&mut self, core: &mut WorkerCore, ctx: &Ctx<Msg>, iter: u64);

    /// Alive at round `iter`: duties owed before the round opens.
    fn before_round(
        &mut self,
        _core: &mut WorkerCore,
        _ctx: &Ctx<Msg>,
        _view: &MembershipView,
        _iter: u64,
    ) {
    }

    /// This is the worker's death round: tell whoever tracks it.
    /// `rejoining` = the plan re-enters it later. Control messages sent
    /// here carry the death timestamp; the dormancy comes after.
    fn depart(&mut self, _core: &mut WorkerCore, _ctx: &Ctx<Msg>, _rejoining: bool) {}

    /// The dormancy is over and the worker re-enters at round `j`: adopt a
    /// current replica and announce the return.
    fn rejoin(&mut self, core: &mut WorkerCore, ctx: &Ctx<Msg>, view: &MembershipView, j: u64);

    /// After the last iteration (not reached by a worker that left).
    fn epilogue(&mut self, _core: &mut WorkerCore, _ctx: &Ctx<Msg>) {}
}

/// The worker process body of every algorithm.
pub(crate) fn run_worker(mut core: WorkerCore, mut body: impl Body, ctx: Ctx<Msg>) {
    let mut iter = 0u64;
    while iter < core.total_iters {
        match membership_gate(&mut core, &mut body, &ctx, iter) {
            Gate::Exit => return,
            Gate::Rejoined(j) => {
                iter = j;
                continue;
            }
            Gate::Live => {}
        }
        core.metrics.begin_iteration(core.w, ctx.now(), iter);
        body.step(&mut core, &ctx, iter);
        finish_iteration(&mut core, &ctx);
        iter += 1;
    }
    body.epilogue(&mut core, &ctx);
}

/// Outcome of the membership check at the top of an iteration.
enum Gate {
    /// Keep executing this iteration.
    Live,
    /// This worker left the cohort for good: exit without an epilogue (its
    /// departure already settled everyone's stop accounting).
    Exit,
    /// The worker died, sat out, and re-entered with a fresh replica:
    /// continue the loop from this round.
    Rejoined(u64),
}

/// Called at the top of each iteration, i.e. at a protocol-quiescent point
/// (no replies outstanding). Classic runs consume time-based crashes;
/// elastic runs are round-indexed — the membership view (not wall-clock
/// time) decides death, so the simulator and the threaded runtime agree on
/// the final cohort and per-worker iteration counts. On its death round the
/// worker departs *permanently* — the topology repairs around it instead of
/// waiting — and, if the plan has a rejoin round inside the run, sits out
/// the dead rounds in virtual time and re-enters there.
fn membership_gate(core: &mut WorkerCore, body: &mut impl Body, ctx: &Ctx<Msg>, iter: u64) -> Gate {
    let Some(el) = core.elastic.clone() else {
        return if handle_crash(core, ctx) {
            Gate::Live
        } else {
            Gate::Exit
        };
    };
    if el.view.death_round(core.w) != Some(iter) {
        body.before_round(core, ctx, &el.view, iter);
        return Gate::Live;
    }
    let now = ctx.now().as_nanos();
    markers::crash(core.metrics.worker_track(core.w), now, core.w);
    markers::evict(core.metrics.worker_track(core.w), now, core.w);
    // A rejoin round past the end of the run is a permanent loss.
    let rejoin = el
        .view
        .rejoin_round(core.w)
        .filter(|&j| j < core.total_iters);
    body.depart(core, ctx, rejoin.is_some());
    let Some(j) = rejoin else { return Gate::Exit };
    ctx.advance(el.cfg.round_estimate * j.saturating_sub(iter).max(1));
    body.rejoin(core, ctx, &el.view, j);
    markers::rejoin(
        core.metrics.worker_track(core.w),
        ctx.now().as_nanos(),
        core.w,
    );
    Gate::Rejoined(j)
}

/// Classic fault handling: consume any crash events that are due. Every PS
/// shard is notified with `MemberDown` (decentralized peers need no notice:
/// they stall in their recv until this worker resumes, mailboxes
/// buffering). A permanent crash returns `false`: the caller must exit
/// without its epilogue (the MemberDown already adjusted the PS's stop
/// accounting; `build_worker_cores` coerces permanent losses of
/// decentralized members to restarts). A restartable crash advances the
/// clock by the restart delay, rolls parameters and optimizer back to the
/// last checkpoint, announces `MemberUp`, and returns `true`.
fn handle_crash(core: &mut WorkerCore, ctx: &Ctx<Msg>) -> bool {
    if core
        .faults
        .as_ref()
        .is_none_or(|f| f.pending_crashes.is_empty())
    {
        return true;
    }
    while let Some(restart) = core.take_due_crash(ctx.now()) {
        markers::crash(
            core.metrics.worker_track(core.w),
            ctx.now().as_nanos(),
            core.w,
        );
        core.announce_ps(
            ctx,
            Msg::MemberDown {
                worker: core.w,
                permanent: restart.is_none(),
                rejoining: false,
            },
        );
        let Some(outage) = restart else { return false };
        ctx.advance(outage);
        core.restore_checkpoint(ctx.now());
        markers::restart(
            core.metrics.worker_track(core.w),
            ctx.now().as_nanos(),
            core.w,
        );
        core.announce_ps(ctx, Msg::MemberUp { worker: core.w });
    }
    true
}

/// Per-iteration epilogue: advance the data cursor, snapshot on epoch
/// boundaries, count the iteration.
fn finish_iteration(core: &mut WorkerCore, ctx: &Ctx<Msg>) {
    let epoch_done = core
        .real
        .as_mut()
        .map(|real| real.advance_cursor().then_some(real.epoch));
    if let Some(Some(epoch)) = epoch_done {
        core.maybe_snapshot(ctx, epoch);
    }
    core.tick_checkpoint(ctx.now());
    core.metrics.finish_iteration(core.w, ctx.now());
}

/// Build the per-worker cores for a run (shared by all algorithm
/// front-ends). `train` is the run's shared training set and `store` its
/// shared checkpoint store; pass `Some` exactly when `cfg.real`,
/// respectively `cfg.faults`, is set.
pub fn build_worker_cores(
    cfg: &RunConfig,
    train: Option<Arc<Dataset>>,
    metrics: &MetricsHub,
    recorder: &Recorder,
    net: &NetModel,
    store: Option<&Arc<CheckpointStore>>,
) -> Vec<WorkerCore> {
    let profile_bytes: Vec<u64> = cfg.profile.layers.iter().map(|l| l.bytes()).collect();
    let profile_plan = cfg.shard_plan(&profile_bytes);
    let shard_bytes: Vec<u64> = (0..profile_plan.num_shards)
        .map(|s| profile_plan.bytes_of_shard(s))
        .collect();

    // Real-training setup (shared dataset; per-worker shards and replicas).
    assert_eq!(
        train.is_some(),
        cfg.real.is_some(),
        "a train set exactly for real training"
    );
    let real_setup = train.zip(cfg.real.clone());

    let total_iters = resolve_total_iters(cfg);

    // Elastic mode: one shared membership view derived from the schedule
    // (bit-reproducible); the view, not the time-based crash queue, drives
    // worker deaths so both execution paths see identical cohort history.
    let elastic_rt = match (&cfg.faults, cfg.elastic()) {
        (Some(fc), Some(e)) => Some(ElasticRuntime {
            view: Arc::new(MembershipView::from_schedule(&fc.schedule, cfg.workers, e)),
            cfg: e.clone(),
        }),
        _ => None,
    };

    (0..cfg.workers)
        .map(|w| {
            let real = real_setup
                .as_ref()
                .map(|(train, rcfg)| build_real_state(cfg, rcfg, Arc::clone(train), w));
            let (slowdown, faults) = match (&cfg.faults, store) {
                (Some(fc), Some(store)) => {
                    let mut crashes: VecDeque<(SimTime, Option<SimTime>)> =
                        fc.schedule.crashes_for(w).into();
                    if elastic_rt.is_some() {
                        // Elastic runs take deaths from the membership view
                        // (round-indexed), not the time-based queue — and
                        // permanent losses stay permanent: the cohort
                        // repairs instead of restarting.
                        crashes.clear();
                    } else if !cfg.algo.is_centralized() {
                        // Classic mode: decentralized algorithms always
                        // re-admit a member: a permanent loss becomes a
                        // restart (DESIGN.md).
                        for c in crashes.iter_mut() {
                            c.1.get_or_insert(DEFAULT_RESTART);
                        }
                    }
                    // Seed the store so a crash before the first periodic
                    // snapshot still has something to restore.
                    if let Some(r) = &real {
                        store.save(w, 0, &r.net.get_params(), &r.opt);
                    }
                    (
                        fc.schedule.straggler_slowdown(w),
                        Some(WorkerFaults {
                            pending_crashes: crashes,
                            store: Arc::clone(store),
                            iters_done: 0,
                        }),
                    )
                }
                _ => (1.0, None),
            };
            WorkerCore {
                w,
                node: cfg.cluster.machine_of_worker(w),
                cluster: cfg.cluster.clone(),
                num_workers: cfg.workers,
                gpu: GpuModel::for_worker(&cfg.cluster, w).with_slowdown(slowdown),
                net: net.clone(),
                metrics: metrics.clone(),
                recorder: recorder.clone(),
                profile_plan: profile_plan.clone(),
                shard_bytes: shard_bytes.clone(),
                wait_free: cfg.opts.wait_free_bp,
                dgc_sparsity: cfg.opts.dgc.as_ref().map(|d| d.final_sparsity),
                profile: cfg.profile.clone(),
                total_iters,
                batch: cfg.batch,
                rng: SmallRng::seed_from_u64(
                    cfg.seed ^ (w as u64).wrapping_mul(0xD134_2543_DE82_EF95),
                ),
                real,
                faults,
                elastic: elastic_rt.clone(),
                ps: Vec::new(),
                ps_homes: None,
                logical_bytes: 0,
            }
        })
        .collect()
}

/// Iterations each worker will perform under the stop condition.
pub fn resolve_total_iters(cfg: &RunConfig) -> u64 {
    match cfg.stop {
        StopCondition::Iterations(k) => k,
        StopCondition::Epochs(e) => {
            let r = cfg
                .real
                .as_ref()
                .expect("Epochs stop condition requires real training");
            let shard_len = r.task.train_size() / cfg.workers;
            assert!(
                shard_len.is_multiple_of(r.batch),
                "shard size {shard_len} not divisible by batch {}",
                r.batch
            );
            e * (shard_len / r.batch) as u64
        }
    }
}

fn build_real_state(
    cfg: &RunConfig,
    rcfg: &RealTraining,
    train: Arc<Dataset>,
    w: usize,
) -> RealWorkerState {
    let mut net = rcfg.task.build_net(rcfg.model_seed);
    if let Some(p) = &rcfg.initial_params {
        net.set_params(p);
    }
    let shard_indices = real_shard_indices(cfg, &net.layout());
    let shard = train.shard(w, cfg.workers);
    let shard_seed = cfg.seed ^ (w as u64).wrapping_mul(0xA076_1D64_78BD_642F);
    let batches = shard.epoch_batches(rcfg.batch, shard_seed, 0);
    let total_epochs = match cfg.stop {
        StopCondition::Epochs(e) => e as f32,
        StopCondition::Iterations(k) => (k as f32 / batches.len().max(1) as f32).max(1.0),
    };
    RealWorkerState {
        net,
        opt: SgdMomentum::new(rcfg.momentum, rcfg.weight_decay),
        sched: LrSchedule::paper_scaled(cfg.workers, rcfg.base_lr, total_epochs),
        train,
        shard,
        batch: rcfg.batch,
        batches,
        batch_in_epoch: 0,
        epoch: 0,
        shard_indices,
        dgc: cfg.opts.dgc.as_ref().map(|d| {
            let mut d = d.clone();
            if matches!(cfg.algo, dtrain_faults::Algo::Ssp { .. }) {
                // SSP pushes optimizer *deltas*, which already carry the
                // worker's momentum; DGC's momentum correction would apply
                // momentum a second time and destabilize large-staleness
                // runs. Accumulation/masking/warm-up still apply.
                d.momentum_correction = false;
            }
            DgcCompressor::new(d, cfg.workers)
        }),
        shard_seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtrain_nn::LayerGroup;
    use dtrain_tensor::Tensor;

    fn layout3() -> ParamLayout {
        ParamLayout {
            groups: vec![
                LayerGroup {
                    name: "a".into(),
                    tensor_indices: vec![0, 1],
                    num_params: 6,
                },
                LayerGroup {
                    name: "b".into(),
                    tensor_indices: vec![2, 3],
                    num_params: 8,
                },
                LayerGroup {
                    name: "c".into(),
                    tensor_indices: vec![4],
                    num_params: 2,
                },
            ],
        }
    }

    fn set5() -> ParamSet {
        ParamSet(vec![
            Tensor::from_vec(&[2], vec![1., 2.]),
            Tensor::from_vec(&[4], vec![3., 4., 5., 6.]),
            Tensor::from_vec(&[4], vec![7., 8., 9., 10.]),
            Tensor::from_vec(&[4], vec![11., 12., 13., 14.]),
            Tensor::from_vec(&[2], vec![15., 16.]),
        ])
    }

    #[test]
    fn shard_slicing_roundtrip() {
        let layout = layout3();
        let plan = ShardPlan::layer_wise(&[24, 32, 8], 2);
        // groups a,c → shard 0; group b → shard 1
        let idx0 = shard_tensor_indices(&layout, &plan, 0);
        let idx1 = shard_tensor_indices(&layout, &plan, 1);
        assert_eq!(idx0, vec![0, 1, 4]);
        assert_eq!(idx1, vec![2, 3]);
        let full = set5();
        let s0 = slice_set(&full, &idx0);
        assert_eq!(s0.num_tensors(), 3);
        assert_eq!(s0.0[2].data(), &[15., 16.]);
        // write modified slice back
        let mut modified = s0.clone();
        modified.scale(2.0);
        let mut target = full.clone();
        unslice_set(&mut target, &idx0, &modified);
        assert_eq!(target.0[0].data(), &[2., 4.]);
        assert_eq!(target.0[2].data(), full.0[2].data(), "untouched shard");
        assert_eq!(target.0[4].data(), &[30., 32.]);
    }

    #[test]
    fn every_tensor_in_exactly_one_shard() {
        let layout = layout3();
        for shards in 1..=4 {
            let plan = ShardPlan::layer_wise(&[24, 32, 8], shards);
            let mut seen = vec![0u32; 5];
            for s in 0..shards {
                for i in shard_tensor_indices(&layout, &plan, s) {
                    seen[i] += 1;
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
        }
    }
}
