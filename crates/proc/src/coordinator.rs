//! The coordinator: spawns worker processes, owns the authoritative
//! membership table, and services each worker's RPCs from a per-connection
//! handler thread.
//!
//! The exchange logic itself — parameter server, BSP rounds, mailboxes,
//! exchange tokens, eviction effects — is [`dtrain_runtime::Hub`], the same
//! code the threaded backend calls directly; `Coord::dispatch` is a
//! frame ↔ hub-call table. What lives here is what only this path has:
//! sockets and sessions, child processes and the reaper, the membership
//! table fed by real deaths, checkpoints shipped over the wire, the test
//! pause gate, obs tracks and counters.
//!
//! ## Topology and threading
//!
//! Star topology: every worker process holds one TCP connection to the
//! coordinator and is always the caller, so a handler thread services one
//! worker's requests strictly in order. Blocking requests (BSP barrier
//! arrival, SSP clock waits, AD-PSGD mailbox polls) simply park the
//! handler thread; the other connections keep moving.
//!
//! ## Failure model
//!
//! The coordinator distinguishes *transient link trouble* from *real
//! death*. A connection-level error (EOF/RST, a CRC mismatch from a
//! damaged frame, a read past the transfer deadline) is a **disconnect**:
//! the rank's session notes the time and the rank gets the configured
//! reconnect window to come back with [`Msg::Resume`], which replays the
//! cached reply or asks for an idempotent resend (see [`crate::session`]).
//! Only two things produce an **eviction**, both funneling into
//! [`Coord::record_death`] (idempotent): the reaper observing a real
//! process exit via `Child::try_wait` (a `SIGKILL` is recorded within one
//! heartbeat interval — no reconnect grace for a corpse), and a
//! disconnect whose reconnect window expires without a resume. A recorded
//! death evicts the rank from the dynamic membership table at the round
//! its last heartbeat announced, tells the hub (`Hub::evict`: SSP clock
//! parked, exchanges waiting on it gone, a dead active's `Done`
//! synthesized), and frees its data shard (marked as a shard failover on
//! the runtime obs track). Synchronous rounds the victim had a seat in
//! force-close partially at the barrier deadline; later rounds size their
//! cohort from the updated table. A scheduled [`RejoinSpec`] makes the
//! coordinator spawn a replacement process for the same rank, which
//! re-enters at the pinned round through the PR 4 adoption path.
//!
//! Membership queries are answered by a [`MembershipView`] rebuilt from
//! the observed evict/rejoin events — the same round-indexed view the
//! simulator and threaded paths consult, here fed by real process deaths.

use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dtrain_data::teacher_task;
use dtrain_faults::{markers, CheckpointStore, MembershipView};
use dtrain_models::mlp_classifier;
use dtrain_nn::{ParamSet, SgdMomentum};
use dtrain_obs::{names, ObsSink, Track, TrackHandle};
use dtrain_runtime::hub::{final_cohort, Hub, PeerItem, Reply, Seat};
use parking_lot::{Condvar, Mutex};

use crate::codec::{encode_frame, CodecError};
use crate::config::{encode_worker_cfg, worker_exe, ProcConfig};
use crate::proto::Msg;
use crate::session::{Inbound, ResumeDecision, Session};

/// Why a process-path run failed to launch or finish.
#[derive(Debug)]
pub enum ProcError {
    Io(std::io::Error),
    Config(String),
    /// The run did not reach completion within the supervision timeout.
    Stalled(String),
}

impl std::fmt::Display for ProcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcError::Io(e) => write!(f, "io: {e}"),
            ProcError::Config(s) => write!(f, "config: {s}"),
            ProcError::Stalled(s) => write!(f, "stalled: {s}"),
        }
    }
}

impl std::error::Error for ProcError {}

impl From<std::io::Error> for ProcError {
    fn from(e: std::io::Error) -> Self {
        ProcError::Io(e)
    }
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

/// Outcome of a process-path run.
#[derive(Clone, Debug)]
pub struct ProcReport {
    pub strategy: &'static str,
    pub final_accuracy: f32,
    pub final_loss: f32,
    pub wall_time: Duration,
    /// Iterations executed across all ranks, victims' partial progress
    /// included (counted from their heartbeat rounds).
    pub total_iterations: u64,
    pub evictions: u64,
    pub rejoins: u64,
    /// BSP rounds that force-closed partially at the barrier deadline.
    pub partial_rounds: u64,
    /// Reconnect-with-resume takeovers served (`net.retry` markers).
    pub retries: u64,
    pub per_worker: Vec<WorkerStats>,
    /// The evaluated model: mean of the final cohort's replicas. The
    /// adaptive controller feeds this into the next segment's
    /// `initial_params`.
    pub final_params: ParamSet,
}

/// The dynamic membership table: evict/rejoin events observed from real
/// process deaths, plus per-rank progress facts.
struct Members {
    evicts: Vec<(usize, u64)>,
    rejoins: Vec<(usize, u64)>,
    /// Round each rank's next heartbeat will announce (= rounds executed
    /// + start round).
    last_hb: Vec<u64>,
    start_round: Vec<u64>,
    /// Iterations a killed original process got through before dying.
    victim_iters: Vec<u64>,
    /// Completed outcome per rank (replacement's, for rejoined ranks).
    outcomes: Vec<Option<Outcome>>,
}

/// One rank's completion report, as shipped in `RunComplete`.
struct Outcome {
    iterations: u64,
    logical_bytes: u64,
    busy_ms: u64,
    params: ParamSet,
}

impl Members {
    fn view(&self, workers: usize) -> MembershipView {
        MembershipView::from_events(workers, &self.evicts, &self.rejoins)
    }

    fn dead(&self, w: usize) -> bool {
        self.evicts.iter().any(|&(v, _)| v == w)
    }
}

struct PauseState {
    armed: Option<(usize, u64)>,
    paused: Option<usize>,
    released: bool,
}

/// A reply as the session caches it: the whole sealed frame (it carries
/// the request's seq, which a replay echoes again), shared between the
/// cache and the handler writing it — cached without a copy, replayed in
/// one write with no second checksum.
type ReplyFrame = Arc<Vec<u8>>;

/// One rank's transport session plus the disconnect clock that decides
/// when link trouble hardens into an eviction.
#[derive(Default)]
struct SessionSlot {
    s: Session<ReplyFrame>,
    /// Set when the rank's connection dropped without a completed outcome;
    /// cleared by a successful Hello/Resume or by the eviction itself.
    disconnected_at: Option<Instant>,
}

/// Shared coordinator state (one per run), behind an `Arc` so handler
/// threads, the reaper, and the [`ProcRun`] handle all see it.
struct Coord {
    cfg: ProcConfig,
    /// The server side of every exchange (PS, BSP rounds, mailboxes,
    /// tokens): `dispatch` is a frame ↔ hub-call table.
    hub: Hub,
    members: Mutex<Members>,
    member_cv: Condvar,
    store: CheckpointStore,
    pause: Mutex<PauseState>,
    pause_cv: Condvar,
    /// Per-rank transport sessions (dedup/replay + disconnect clocks).
    /// Lock discipline: never held together with `members` — every path
    /// takes them in separate scoped blocks.
    sessions: Mutex<Vec<SessionSlot>>,
    session_cv: Condvar,
    children: Mutex<Vec<(usize, Child)>>,
    evictions: AtomicU64,
    rejoins: AtomicU64,
    partial_rounds: AtomicU64,
    /// Resume takeovers served (one per `net.retry` marker).
    retries: AtomicU64,
    stop: AtomicBool,
    wall: Instant,
    obs_rt: TrackHandle,
    obs_workers: Vec<TrackHandle>,
    /// Spawn recipe for rejoin replacements.
    exe: std::path::PathBuf,
    addr: String,
    cfg_str: String,
}

impl Coord {
    fn ns(&self) -> u64 {
        self.wall.elapsed().as_nanos() as u64
    }

    fn live_at(&self, round: u64) -> Vec<usize> {
        self.members
            .lock()
            .view(self.cfg.plan.workers)
            .live_at(round)
    }

    fn spawn_worker(&self, w: usize) -> Result<(), ProcError> {
        let child = Command::new(&self.exe)
            .arg("--addr")
            .arg(&self.addr)
            .arg("--worker")
            .arg(w.to_string())
            .arg("--cfg")
            .arg(&self.cfg_str)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()?;
        self.children.lock().push((w, child));
        Ok(())
    }

    /// A connection handler for rank `w` (at session `generation`) hit an
    /// I/O error. Not an eviction: start the reconnect clock and let the
    /// reaper evict only if the window expires without a resume. A stale
    /// generation means a newer connection already took over — ignore.
    fn note_disconnect(&self, w: usize, generation: u64) {
        {
            let m = self.members.lock();
            if m.dead(w) || m.outcomes[w].is_some() {
                return; // already evicted or cleanly finished
            }
        }
        let mut sess = self.sessions.lock();
        let slot = &mut sess[w];
        if slot.s.generation != generation {
            return;
        }
        if slot.disconnected_at.is_none() {
            slot.disconnected_at = Some(Instant::now());
        }
    }

    /// Record rank `w`'s process death (idempotent): evict it at the round
    /// its last heartbeat announced, park its clock, resolve its relayed
    /// exchanges, and spawn the scheduled replacement if one is due.
    fn record_death(&self, w: usize) {
        let (_evict_round, spawn_rejoin) = {
            let mut m = self.members.lock();
            if m.dead(w) || m.outcomes[w].is_some() {
                return;
            }
            let at = m.last_hb[w];
            m.evicts.push((w, at));
            m.victim_iters[w] = at.saturating_sub(m.start_round[w]);
            let spawn = match self.cfg.rejoin {
                Some(spec) if spec.worker == w => {
                    m.rejoins.push((w, spec.at_round));
                    Some(spec.at_round)
                }
                None | Some(_) => None,
            };
            (at, spawn)
        };
        self.evictions.fetch_add(1, Ordering::Relaxed);
        markers::crash(&self.obs_rt, self.ns(), w);
        markers::evict(&self.obs_rt, self.ns(), w);
        // The victim's data shard leaves the cohort with it — survivors
        // keep their own shards (shard ownership re-maps, work does not
        // silently vanish from the metrics: the report counts the victim's
        // partial progress separately).
        markers::shard_failover(&self.obs_rt, self.ns(), w);
        // Park its SSP clock, resolve exchanges waiting on it to "gone",
        // synthesize a dead active's Done.
        self.hub.evict(w);
        // The eviction consumed the disconnect window (if one was open).
        {
            let mut sess = self.sessions.lock();
            sess[w].disconnected_at = None;
        }
        self.member_cv.notify_all();
        self.session_cv.notify_all();
        if spawn_rejoin.is_some() {
            if let Err(e) = self.spawn_worker(w) {
                eprintln!("dtrain-proc: failed to spawn rejoin replacement for {w}: {e}");
            }
        }
    }

    /// Service one request from rank `w`: decode the frame's intent into
    /// the matching hub call (or membership / checkpoint / outcome
    /// bookkeeping) and encode the answer. Blocking requests park here.
    fn dispatch(&self, w: usize, msg: Msg) -> Result<Msg, CodecError> {
        let hub = &self.hub;
        Ok(match msg {
            Msg::Heartbeat { round } => {
                {
                    let mut m = self.members.lock();
                    m.last_hb[w] = m.last_hb[w].max(round);
                }
                // Test pause gate: freeze this handler (and therefore the
                // worker, which blocks on the ack) at a pinned round.
                {
                    let mut p = self.pause.lock();
                    if p.armed == Some((w, round)) {
                        p.armed = None;
                        p.paused = Some(w);
                        self.pause_cv.notify_all();
                        while !p.released {
                            self.pause_cv.wait(&mut p);
                        }
                    }
                }
                let executed = {
                    let m = self.members.lock();
                    round.saturating_sub(m.start_round[w])
                };
                Msg::HeartbeatAck {
                    checkpoint: self.store.due(executed),
                }
            }
            Msg::Membership { round } => Msg::LiveSet {
                live: self.live_at(round).into_iter().map(|v| v as u32).collect(),
            },
            Msg::Snapshot => Msg::Params {
                params: hub.ps().snapshot(),
            },
            Msg::AspPushPull { grad, lr } => Msg::Params {
                params: hub.ps().push_and_pull(&grad, lr),
            },
            Msg::SspPush { grad, lr } => {
                hub.ps().push(&grad, lr);
                Msg::Ok
            }
            Msg::EasgdExchange { params, alpha } => Msg::Params {
                params: hub.ps().elastic_exchange(&params, alpha),
            },
            Msg::BumpClock { clock } => {
                hub.ps().bump_clock(w, clock);
                Msg::Ok
            }
            Msg::WaitMinClock { needed } => Msg::MinClock {
                min: hub.ps().wait_for_min_clock(needed),
            },
            Msg::BspExchange { round, lr, grad } => self.bsp_round(w, round, None, (grad, 1), lr),
            Msg::BspPartial {
                round,
                lr,
                weight,
                leaders,
                partial,
            } => self.bsp_round(
                w,
                round,
                Some(leaders as usize),
                (partial, weight as usize),
                lr,
            ),
            Msg::CollSend { target, params } => {
                hub.coll_send(w, target as usize, params);
                Msg::Ok
            }
            // Bounded by the transfer deadline so a leader gathering from a
            // worker that died mid-round degrades instead of parking forever.
            Msg::CollRecv => match hub.coll_recv(w, Some(self.cfg.transfer_deadline)) {
                Some((sender, params)) => Msg::CollItem {
                    sender: sender as u32,
                    params,
                },
                None => Msg::Gone,
            },
            Msg::GossipSend {
                target,
                alpha,
                params,
            } => {
                hub.gossip_send(target as usize, params, alpha);
                Msg::Ok
            }
            Msg::GossipDrain => Msg::GossipItems {
                items: hub
                    .gossip_drain(w)
                    .into_iter()
                    .map(|(params, alpha)| (alpha, params))
                    .collect(),
            },
            Msg::ExchangeRequest { target, params } => {
                // The token parks in the session (so it survives a
                // reconnect) until this rank's ExchangeAwait claims it.
                let token = hub.exchange_request(w, target as usize, params);
                self.sessions.lock()[w].s.cur_token = Some(token);
                Msg::Ok
            }
            Msg::ExchangeAwait => {
                let token = self.sessions.lock()[w].s.cur_token.take();
                match token.map(|t| hub.exchange_await(t, None)) {
                    Some(Reply::Ready(params)) => Msg::Params { params },
                    _ => Msg::Gone,
                }
            }
            Msg::ExchangePoll { block } => match hub.exchange_next(w, block) {
                Some(PeerItem::Exchange { token, params }) => Msg::ExchangeItem { token, params },
                Some(PeerItem::Done) => Msg::PeerDone,
                None => Msg::Gone,
            },
            Msg::ExchangeRespond { token, params } => {
                hub.exchange_respond(token, params);
                Msg::Ok
            }
            Msg::AnnounceDone => {
                hub.announce_done(w);
                Msg::Ok
            }
            Msg::CkptSave { iteration, params } => {
                self.store.save(
                    w,
                    iteration,
                    &params,
                    &SgdMomentum::new(self.cfg.plan.momentum, self.cfg.plan.weight_decay),
                );
                markers::ckpt_save(&self.obs_rt, self.ns(), iteration);
                Msg::Ok
            }
            Msg::CkptFetch => match self.store.restore(w) {
                Some(cp) => Msg::CkptState {
                    iteration: cp.iteration,
                    params: cp.params,
                },
                None => Msg::Gone,
            },
            Msg::RunComplete {
                iterations,
                logical_bytes,
                busy_ms,
                params,
            } => {
                self.obs_workers[w].counter(self.ns(), names::LOGICAL_BYTES, logical_bytes as i64);
                {
                    let mut m = self.members.lock();
                    m.outcomes[w] = Some(Outcome {
                        iterations,
                        logical_bytes,
                        busy_ms,
                        params,
                    });
                }
                // Anything still queued at this rank will never be served.
                hub.retire(w);
                self.member_cv.notify_all();
                Msg::Ok // the connection loop ends after this
            }
            other => {
                return Err(CodecError::Malformed(match other {
                    Msg::Hello { .. } => "unexpected Hello after handshake",
                    _ => "unexpected message type from worker",
                }))
            }
        })
    }

    /// One BSP barrier seat (flat, or hierarchical over `leaders`): the
    /// cohort comes from the membership table as real deaths have shaped
    /// it; the round itself is the hub's.
    fn bsp_round(
        &self,
        w: usize,
        round: u64,
        leaders: Option<usize>,
        deposit: (ParamSet, usize),
        lr: f32,
    ) -> Msg {
        let view = self.members.lock().view(self.cfg.plan.workers);
        let seat = Seat {
            rank: w,
            round,
            view: Some(&view),
            leaders,
        };
        let out = self.hub.bsp_round(seat, deposit, lr, |_| {}, |_| {});
        if let Some(arrived) = out.arrived.filter(|&n| n < out.expected) {
            self.partial_rounds.fetch_add(1, Ordering::Relaxed);
            markers::partial_barrier(&self.obs_rt, self.ns(), arrived);
        }
        Msg::BspResult {
            leader: out.arrived.is_some(),
            arrived: out.arrived.unwrap_or(0) as u32,
            expected: out.expected as u32,
            params: out.params,
        }
    }
}

/// First frame was a fresh `Hello`: (re)initialise the rank's session,
/// answer `HelloAck` with the current globals, and serve the connection.
fn handshake_hello(coord: &Arc<Coord>, w: usize, seq: u32, conn: BufReader<TcpStream>) {
    if w >= coord.cfg.plan.workers {
        return;
    }
    let start_round = {
        let mut m = coord.members.lock();
        let start = if m.dead(w) {
            // The replacement for a killed rank: re-enter
            // at the pinned rejoin round.
            let at = m
                .rejoins
                .iter()
                .find(|&&(v, _)| v == w)
                .map(|&(_, r)| r)
                .unwrap_or(0);
            coord.rejoins.fetch_add(1, Ordering::Relaxed);
            markers::rejoin(&coord.obs_rt, coord.ns(), w);
            at
        } else {
            0
        };
        m.start_round[w] = start;
        m.last_hb[w] = m.last_hb[w].max(start);
        start
    };
    let generation = {
        let mut sess = coord.sessions.lock();
        let slot = &mut sess[w];
        slot.s.reset();
        slot.s.classify(seq); // the Hello consumed this seq
        slot.disconnected_at = None;
        slot.s.next_generation()
    };
    let ack = Msg::HelloAck {
        start_round,
        params: coord.hub.ps().snapshot(),
    };
    if ack.write_to(&mut conn.get_ref(), seq).is_err() {
        coord.note_disconnect(w, generation);
        return;
    }
    serve_connection(coord, w, conn, generation);
}

/// First frame was a `Resume`: the rank's previous socket died but the
/// process is alive and retrying. Refuse evicted ranks, take over the
/// session under a fresh generation, emit a `net.retry` marker, satisfy
/// the resume decision, then fall into the normal service loop.
fn handshake_resume(
    coord: &Arc<Coord>,
    w: usize,
    seq: u32,
    last_seq: u32,
    attempt: u32,
    conn: BufReader<TcpStream>,
) {
    if w >= coord.cfg.plan.workers {
        return;
    }
    {
        let m = coord.members.lock();
        if m.dead(w) || m.outcomes[w].is_some() {
            return; // evicted or already finished: nothing to resume
        }
    }
    let (generation, decision) = {
        let mut sess = coord.sessions.lock();
        let slot = &mut sess[w];
        let d = slot.s.on_resume(last_seq);
        if matches!(d, ResumeDecision::Refuse) {
            return;
        }
        slot.disconnected_at = None;
        (slot.s.next_generation(), d)
    };
    coord.retries.fetch_add(1, Ordering::Relaxed);
    markers::retry(&coord.obs_rt, coord.ns(), attempt);
    let mut stream = conn.get_ref();
    let served = match decision {
        // Never saw `last_seq`: ask the worker to resend it.
        ResumeDecision::RequestResend => Msg::ResumeAck.write_to(&mut stream, seq).is_ok(),
        // Saw it and finished it: replay the cached reply verbatim.
        ResumeDecision::ResendCached(_, frame) => stream.write_all(&frame).is_ok(),
        // Saw it, but its dispatch still runs on the stale handler
        // (parked in a barrier or mailbox wait). Wait for that handler
        // to cache its reply, then replay it here.
        ResumeDecision::AwaitInFlight => {
            let deadline = Instant::now() + coord.cfg.transfer_deadline;
            let replay = loop {
                let mut sess = coord.sessions.lock();
                if sess[w].s.generation != generation {
                    break None; // superseded by yet another resume
                }
                if let Some((_, frame)) = &sess[w].s.cached {
                    break Some(Arc::clone(frame));
                }
                if coord.stop.load(Ordering::Relaxed) || Instant::now() >= deadline {
                    break None;
                }
                coord
                    .session_cv
                    .wait_for(&mut sess, Duration::from_millis(20));
            };
            replay.is_some_and(|frame| stream.write_all(&frame).is_ok())
        }
        ResumeDecision::Refuse => unreachable!("refused above"),
    };
    if !served {
        coord.note_disconnect(w, generation);
        return;
    }
    serve_connection(coord, w, conn, generation);
}

/// One worker connection's service loop: handshake already done; read a
/// request, run it through the rank's session (dedup / replay), dispatch
/// fresh requests, cache then write replies, until completion or a link
/// error. Requests are read through one reusable payload buffer; a reply is
/// encoded once, straight into the frame the cache and the socket share,
/// and leaves in one write. Link errors start the reconnect clock via
/// [`Coord::note_disconnect`]; only protocol violations (a message type a
/// worker must never send) still evict directly.
///
/// `conn` is the reader the handshake was read through, and replies go out
/// on the socket inside it: a connection has one read buffer for life. A
/// second `BufReader` on a clone of the socket would lose whatever the peer
/// sent behind its `Hello`/`Resume` that the first had already buffered —
/// latent, because no client pipelines a request behind its handshake today.
fn serve_connection(coord: &Arc<Coord>, w: usize, mut conn: BufReader<TcpStream>, generation: u64) {
    let _ = conn
        .get_ref()
        .set_read_timeout(Some(coord.cfg.transfer_deadline));
    let _ = conn.get_ref().set_nodelay(true);
    let mut payload = Vec::new();
    loop {
        let (seq, msg) = match Msg::read_from(&mut conn, &mut payload) {
            Ok(m) => m,
            Err(_) => {
                // EOF, RST, read timeout, or a CRC-damaged frame: all link
                // trouble, none of it proof of death.
                coord.note_disconnect(w, generation);
                return;
            }
        };
        // Session gate: duplicates replay the cached reply without
        // re-dispatching; stale frames are dropped on the floor.
        match coord.sessions.lock()[w].s.classify(seq) {
            Inbound::Fresh => {}
            Inbound::Duplicate(Some((_, frame))) => {
                if conn.get_ref().write_all(&frame).is_err() {
                    coord.note_disconnect(w, generation);
                    return;
                }
                continue;
            }
            // Duplicate of a request whose dispatch is still running (the
            // original copy arrived first on this same ordered stream, so
            // its reply is coming): nothing to do for this copy.
            Inbound::Duplicate(None) | Inbound::Stale => continue,
        }
        // This handler may now park in a barrier for most of a round: keep
        // the capacity the frame needed (the next one is the same size),
        // not the up-to-2x slack that growing it by doubling left — per
        // parked connection that is a model's worth of nothing. The floor
        // keeps a heartbeat from shrinking it under the next gradient.
        payload.shrink_to(64 << 10);
        let finished = matches!(msg, Msg::RunComplete { .. });
        let Ok(reply) = coord.dispatch(w, msg) else {
            coord.record_death(w);
            return;
        };
        let mut frame = Vec::new();
        let rty = encode_frame(&mut frame, seq, |e| reply.encode_into(e));
        let frame = Arc::new(frame);
        // Encoded, the reply's parameter set is dead weight: free it before
        // the write below blocks on a slow peer.
        drop(reply);
        // Cache BEFORE writing: if the write (or the frame in flight) is
        // lost, the resumed connection replays from this cache. If a
        // resume superseded this socket while dispatch was parked, the
        // cache is the handoff — the new connection's AwaitInFlight wait
        // picks it up; this stale handler must not touch the wire again.
        let stale = {
            let mut sess = coord.sessions.lock();
            let slot = &mut sess[w];
            if slot.s.last_seq == seq {
                slot.s.cache_reply(rty, Arc::clone(&frame));
            }
            slot.s.generation != generation
        };
        coord.session_cv.notify_all();
        if stale {
            return;
        }
        if conn.get_ref().write_all(&frame).is_err() {
            coord.note_disconnect(w, generation);
            return;
        }
        if finished {
            return;
        }
    }
}

/// A live process-path run: spawned workers, their connections, and the
/// control hooks tests use (pause / kill / release). Dropping the handle
/// kills and reaps every child it spawned — no orphans survive a panic.
pub struct ProcRun {
    coord: Arc<Coord>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    started: Instant,
    cleaned: bool,
}

impl ProcRun {
    /// Spawn `cfg.plan.workers` worker processes against a fresh loopback
    /// listener and start serving them.
    pub fn launch(cfg: ProcConfig, sink: &ObsSink) -> Result<ProcRun, ProcError> {
        let workers = cfg.plan.workers;
        assert!(workers >= 1, "need at least one worker");
        let shard_len = cfg.task.train_size / workers;
        assert!(
            cfg.task.train_size.is_multiple_of(workers) && shard_len.is_multiple_of(cfg.plan.batch),
            "dataset ({}) must divide evenly into workers x batch ({} x {})",
            cfg.task.train_size,
            workers,
            cfg.plan.batch
        );
        cfg.validate().map_err(ProcError::Config)?;
        let exe = worker_exe(cfg.worker_exe.as_ref()).map_err(ProcError::Config)?;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        let mut init_net = mlp_classifier(
            cfg.task.input_dim,
            &cfg.hidden,
            cfg.task.num_classes,
            cfg.model_seed,
        );
        if let Some(p) = &cfg.initial_params {
            init_net.set_params(p);
        }
        let hub = Hub::new(init_net.get_params(), &cfg.plan, Some(cfg.barrier_deadline));
        let cfg_str = encode_worker_cfg(&cfg);
        let coord = Arc::new(Coord {
            hub,
            members: Mutex::new(Members {
                evicts: Vec::new(),
                rejoins: Vec::new(),
                last_hb: vec![0; workers],
                start_round: vec![0; workers],
                victim_iters: vec![0; workers],
                outcomes: (0..workers).map(|_| None).collect(),
            }),
            member_cv: Condvar::new(),
            store: CheckpointStore::new(cfg.checkpoint_interval),
            pause: Mutex::new(PauseState {
                armed: cfg.pause_at,
                paused: None,
                released: false,
            }),
            pause_cv: Condvar::new(),
            sessions: Mutex::new((0..workers).map(|_| SessionSlot::default()).collect()),
            session_cv: Condvar::new(),
            children: Mutex::new(Vec::new()),
            evictions: AtomicU64::new(0),
            rejoins: AtomicU64::new(0),
            partial_rounds: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            wall: Instant::now(),
            obs_rt: sink.track(Track::Runtime(0)),
            obs_workers: (0..workers)
                .map(|w| sink.track(Track::Worker(w as u16)))
                .collect(),
            exe,
            addr,
            cfg_str,
            cfg,
        });

        // Accept loop: handshake each incoming connection, then hand it to
        // a handler thread. Keeps accepting so rejoin replacements can
        // connect late.
        let accept_coord = Arc::clone(&coord);
        let accept_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_coord.stop.load(Ordering::Relaxed) {
                    return;
                }
                let Ok(stream) = stream else { continue };
                let coord = Arc::clone(&accept_coord);
                std::thread::spawn(move || {
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
                    let mut conn = BufReader::new(stream);
                    match Msg::read_from(&mut conn, &mut Vec::new()) {
                        Ok((seq, Msg::Hello { worker })) => {
                            handshake_hello(&coord, worker as usize, seq, conn);
                        }
                        Ok((
                            seq,
                            Msg::Resume {
                                worker,
                                last_seq,
                                attempt,
                            },
                        )) => {
                            handshake_resume(&coord, worker as usize, seq, last_seq, attempt, conn);
                        }
                        _ => {}
                    }
                });
            }
        });

        // Reaper: notice child exits even when the rank's handler thread
        // is parked (barrier, clock wait, mailbox poll), and harden
        // disconnects whose reconnect window expired into evictions. A
        // real process exit needs no reconnect grace — a corpse cannot
        // resume — so `SIGKILL` is still recorded within one heartbeat.
        let reap_coord = Arc::clone(&coord);
        std::thread::spawn(move || loop {
            if reap_coord.stop.load(Ordering::Relaxed) {
                return;
            }
            let exited: Vec<usize> = {
                let mut children = reap_coord.children.lock();
                children
                    .iter_mut()
                    .filter_map(|(w, c)| match c.try_wait() {
                        Ok(Some(_)) => Some(*w),
                        _ => None,
                    })
                    .collect()
            };
            for w in exited {
                let done = {
                    let m = reap_coord.members.lock();
                    m.outcomes[w].is_some()
                };
                if !done {
                    reap_coord.record_death(w);
                }
            }
            let expired: Vec<usize> = {
                let sess = reap_coord.sessions.lock();
                sess.iter()
                    .enumerate()
                    .filter(|(_, slot)| {
                        slot.disconnected_at
                            .is_some_and(|t| t.elapsed() >= reap_coord.cfg.reconnect_window)
                    })
                    .map(|(w, _)| w)
                    .collect()
            };
            for w in expired {
                reap_coord.record_death(w);
            }
            std::thread::sleep(reap_coord.cfg.heartbeat_interval);
        });

        for w in 0..workers {
            coord.spawn_worker(w)?;
        }
        Ok(ProcRun {
            coord,
            accept_thread: Some(accept_thread),
            started: Instant::now(),
            cleaned: false,
        })
    }

    /// PIDs of every child spawned so far, with their ranks.
    pub fn pids(&self) -> Vec<(usize, u32)> {
        self.coord
            .children
            .lock()
            .iter()
            .map(|(w, c)| (*w, c.id()))
            .collect()
    }

    /// Block until the armed pause gate freezes its worker; returns the
    /// frozen rank and its PID.
    pub fn wait_paused(&self, timeout: Duration) -> Option<(usize, u32)> {
        let deadline = Instant::now() + timeout;
        let mut p = self.coord.pause.lock();
        while p.paused.is_none() {
            if Instant::now() >= deadline {
                return None;
            }
            self.coord
                .pause_cv
                .wait_for(&mut p, Duration::from_millis(20));
        }
        let rank = p.paused.unwrap();
        drop(p);
        let pid = self
            .pids()
            .into_iter()
            .rev()
            .find(|&(w, _)| w == rank)
            .map(|(_, pid)| pid)?;
        Some((rank, pid))
    }

    /// `SIGKILL` the paused worker, release the gate, and block until the
    /// coordinator records the eviction. Returns the killed PID.
    pub fn kill_paused(&self, timeout: Duration) -> Option<u32> {
        let (rank, pid) = self.wait_paused(timeout)?;
        let _ = Command::new("kill").arg("-9").arg(pid.to_string()).status();
        // Wait until the process is actually gone before releasing the
        // gate, so the handler's next write/read deterministically fails.
        let gone_by = Instant::now() + timeout;
        while std::path::Path::new(&format!("/proc/{pid}/exe")).exists() && Instant::now() < gone_by
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        {
            let mut p = self.coord.pause.lock();
            p.paused = None;
            p.released = true;
            self.coord.pause_cv.notify_all();
        }
        let deadline = Instant::now() + timeout;
        let mut m = self.coord.members.lock();
        while !m.dead(rank) {
            if Instant::now() >= deadline {
                return None;
            }
            self.coord
                .member_cv
                .wait_for(&mut m, Duration::from_millis(20));
        }
        Some(pid)
    }

    /// Wait for every rank to account for itself, then evaluate the final
    /// cohort's mean model and reap every child.
    pub fn finish(mut self, timeout: Duration) -> Result<ProcReport, ProcError> {
        let deadline = Instant::now() + timeout;
        {
            let mut m = self.coord.members.lock();
            loop {
                let done = (0..self.coord.cfg.plan.workers).all(|w| {
                    m.outcomes[w].is_some()
                        || (m.dead(w) && !m.rejoins.iter().any(|&(v, _)| v == w))
                });
                if done {
                    break;
                }
                if Instant::now() >= deadline {
                    drop(m);
                    self.cleanup();
                    return Err(ProcError::Stalled(format!(
                        "run did not complete within {timeout:?}"
                    )));
                }
                self.coord
                    .member_cv
                    .wait_for(&mut m, Duration::from_millis(50));
            }
        }
        let wall_time = self.started.elapsed();
        self.cleanup();
        let coord = &self.coord;
        let cfg = &coord.cfg;
        let m = coord.members.lock();

        let replicas: Vec<(usize, &ParamSet)> = m
            .outcomes
            .iter()
            .enumerate()
            .filter_map(|(w, o)| o.as_ref().map(|out| (w, &out.params)))
            .collect();
        let view = m.view(cfg.plan.workers);
        let (mean, _drift) = final_cohort(&replicas, Some(&view), &cfg.plan, cfg.task.train_size);
        let mut eval_net = mlp_classifier(
            cfg.task.input_dim,
            &cfg.hidden,
            cfg.task.num_classes,
            cfg.model_seed,
        );
        eval_net.set_params(&mean);
        let (_, test) = teacher_task(&cfg.task);
        let (x, y) = test.as_batch();
        let (loss, acc) = eval_net.eval_batch(x, &y);

        let per_worker: Vec<WorkerStats> = (0..cfg.plan.workers)
            .map(|w| {
                let (iters, bytes, busy) = m.outcomes[w]
                    .as_ref()
                    .map(|o| (o.iterations, o.logical_bytes, o.busy_ms))
                    .unwrap_or((0, 0, 0));
                WorkerStats {
                    iterations: iters + m.victim_iters[w],
                    logical_bytes: bytes,
                    busy_ms: busy,
                    evicted: m.dead(w),
                }
            })
            .collect();
        let total_iterations = per_worker.iter().map(|s| s.iterations).sum();

        Ok(ProcReport {
            strategy: cfg.plan.strategy.name(),
            final_accuracy: acc,
            final_loss: loss,
            wall_time,
            total_iterations,
            evictions: coord.evictions.load(Ordering::Relaxed),
            rejoins: coord.rejoins.load(Ordering::Relaxed),
            partial_rounds: coord.partial_rounds.load(Ordering::Relaxed),
            retries: coord.retries.load(Ordering::Relaxed),
            per_worker,
            final_params: mean,
        })
    }

    /// Kill and reap every spawned child, stop the service threads.
    fn cleanup(&mut self) {
        if self.cleaned {
            return;
        }
        self.cleaned = true;
        self.coord.stop.store(true, Ordering::Relaxed);
        // Release any paused handler so its thread can observe the dead
        // socket and exit.
        {
            let mut p = self.coord.pause.lock();
            p.released = true;
            self.coord.pause_cv.notify_all();
        }
        self.coord.hub.shutdown();
        // Kill (idempotent for already-exited children) and reap.
        let mut children = std::mem::take(&mut *self.coord.children.lock());
        for (_, child) in children.iter_mut() {
            let _ = child.kill();
        }
        for (_, mut child) in children {
            let _ = child.wait();
        }
        // Unblock the accept loop with a dummy connection, then join it.
        if let Some(handle) = self.accept_thread.take() {
            let _ = TcpStream::connect(&self.coord.addr);
            let _ = handle.join();
        }
    }
}

impl Drop for ProcRun {
    fn drop(&mut self) {
        self.cleanup();
    }
}

/// Train on the process path: spawn, run to completion, evaluate.
pub fn train_proc(cfg: ProcConfig, timeout: Duration) -> Result<ProcReport, ProcError> {
    train_proc_observed(cfg, timeout, &ObsSink::disabled())
}

/// [`train_proc`] with structured-event observation: eviction/rejoin/
/// partial-barrier markers and final per-worker `logical.bytes` counters
/// land in `sink` on the same tracks the threaded path uses.
pub fn train_proc_observed(
    cfg: ProcConfig,
    timeout: Duration,
    sink: &ObsSink,
) -> Result<ProcReport, ProcError> {
    ProcRun::launch(cfg, sink)?.finish(timeout)
}
