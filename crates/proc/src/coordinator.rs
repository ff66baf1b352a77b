//! The coordinator shell: spawns worker processes, serves each connection
//! from its own handler thread, reaps children and emits obs events. It
//! decides nothing: membership, sessions, failure clocks, the pause gate
//! and the done rule are [`CoordCore`]'s, and every exchange is [`Hub`]'s,
//! both behind one mutex. `Coord::dispatch` is a frame ↔ hub-call table.
//! No handler thread waits in it: a request that cannot be answered yet is
//! parked in the hub, the handler goes back to reading, and whichever call
//! releases the answer — another rank's handler or the reaper's tick —
//! caches it in the rank's session and writes it to the connection the
//! core names. DESIGN §5 has the failure model.

use std::io::{BufReader, ErrorKind, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use dtrain_data::teacher_task;
use dtrain_faults::{markers, CheckpointStore};
use dtrain_models::{mlp_classifier, zeroed_mlp};
use dtrain_nn::{ParamSet, SgdMomentum};
use dtrain_obs::{names, ObsSink, Track, TrackHandle};
use dtrain_runtime::hub::{Answer, Hub, PeerItem, Reply, Seat};
use dtrain_runtime::PsState;

use crate::codec::{encode_frame, CodecError, TRAILER_LEN};
use crate::config::{encode_worker_cfg, ProcConfig};
pub use crate::coord_core::WorkerStats;
use crate::coord_core::{CoordCore, Effect, Outcome};
use crate::proto::{self, Msg};
use crate::session::{Inbound, ResumeDecision};

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

/// A spawned worker: its rank, which of the rank's processes it is, and
/// whether the reaper has reported its exit.
struct Proc {
    rank: usize,
    life: u32,
    child: Child,
    exited: bool,
}

/// What the coordinator's decisions read and write, under its one lock: the
/// core, the hub, and the connection each rank's answers go to.
struct State {
    core: CoordCore,
    hub: Hub,
    /// Each rank's latest admitted connection: its generation and write
    /// half.
    links: Vec<Option<(u64, Link)>>,
}

impl State {
    /// Rank `w`'s write half, if connection `to` is still its latest.
    fn link(&self, w: usize, to: u64) -> Option<(u64, Link)> {
        let (_, link) = self.links[w].as_ref().filter(|(g, _)| *g == to)?;
        Some((to, Arc::clone(link)))
    }
}

/// A connection's write half, shared by its handler and whichever call
/// answers the rank's parked request: one frame at a time.
type Link = Arc<Mutex<TcpStream>>;

/// Shared coordinator state (one per run), behind an `Arc` so handler
/// threads, the reaper, and the [`ProcRun`] handle all see it.
struct Coord {
    cfg: ProcConfig,
    /// The hub's parameter server, reached without the lock.
    ps: Arc<PsState>,
    store: CheckpointStore,
    state: Mutex<State>,
    /// Notified only on [`Effect::Wake`], for `ProcRun`'s waits.
    cv: Condvar,
    children: Mutex<Vec<Proc>>,
    stop: AtomicBool,
    wall: Instant,
    obs_rt: TrackHandle,
    obs_workers: Vec<TrackHandle>,
    /// Spawn recipe for every worker process.
    exe: std::path::PathBuf,
    addr: String,
    cfg_str: String,
}

impl Coord {
    fn new(cfg: ProcConfig, sink: &ObsSink, exe: std::path::PathBuf, addr: String) -> Coord {
        let (dims, classes) = (cfg.task.input_dim, cfg.task.num_classes);
        let init_net = match &cfg.initial_params {
            // Every parameter is about to be overwritten: no draw.
            Some(p) => {
                let mut net = zeroed_mlp(dims, &cfg.hidden, classes);
                net.set_params(p);
                net
            }
            None => mlp_classifier(dims, &cfg.hidden, classes, cfg.model_seed),
        };
        let hub = cfg
            .plan
            .hub(init_net.get_params(), Some(cfg.barrier_deadline));
        let workers = cfg.plan.workers;
        Coord {
            ps: Arc::clone(hub.ps()),
            store: CheckpointStore::new(cfg.checkpoint_interval),
            state: Mutex::new(State {
                core: CoordCore::new(&cfg),
                hub,
                links: vec![None; workers],
            }),
            cv: Condvar::new(),
            children: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
            wall: Instant::now(),
            obs_rt: sink.track(Track::Runtime(0)),
            obs_workers: (0..workers)
                .map(|w| sink.track(Track::Worker(w as u16)))
                .collect(),
            exe,
            addr,
            cfg_str: encode_worker_cfg(&cfg),
            cfg,
        }
    }

    fn ns(&self) -> u64 {
        self.wall.elapsed().as_nanos() as u64
    }

    /// Run `f` on the state, then settle what it moved. Under the lock the
    /// core's `Evict`/`Rejoin`/`Retire` reach the hub, and every answer the hub
    /// released is matched to the request in flight that it answers, so a
    /// dead process's answer can never be taken for its replacement's. The
    /// other effects and the answers' writes happen after the lock.
    /// `ProcRun`'s `Drop` runs this, so a poisoned lock is taken as it
    /// stands.
    fn with_state<T>(&self, f: impl FnOnce(&mut State) -> T) -> T {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let out = f(&mut state);
        let State { core, hub, .. } = &mut *state;
        let mut effects = core.drain();
        for effect in &effects {
            match *effect {
                Effect::Evict(w, rejoining) => hub.evict(w, rejoining),
                Effect::Rejoin(w) => hub.rejoin(w),
                Effect::Retire(w) => hub.retire(w),
                _ => {}
            }
        }
        let answers: Vec<_> = hub
            .drain()
            .into_iter()
            .filter_map(|(w, answer)| {
                count_partial(core, &answer);
                Some((w, core.in_flight(w)?, answer, core.checkpoint(w)))
            })
            .collect();
        effects.extend(core.drain());
        drop(state);
        effects.into_iter().for_each(|effect| self.apply(effect));
        for (w, (generation, seq), answer, checkpoint) in answers {
            self.deliver(w, generation, seq, self.reply(answer, checkpoint));
        }
        out
    }

    fn apply(&self, effect: Effect) {
        match effect {
            Effect::Marker(name, value) => self.obs_rt.instant(self.ns(), name, value),
            Effect::Spawn(rank, life) => {
                if let Err(e) = self.spawn_worker(rank, life) {
                    eprintln!("dtrain-proc: failed to spawn rejoin replacement for {rank}: {e}");
                }
            }
            Effect::Wake => self.cv.notify_all(),
            // Applied under the lock.
            Effect::Evict(..) | Effect::Rejoin(_) | Effect::Retire(_) => {}
        }
    }

    /// Block until `ready` answers or `timeout` (if any) passes. The one
    /// wait loop: every waiter's condition is core state, and whatever
    /// moves it queues an [`Effect::Wake`].
    fn wait_until<T>(
        &self,
        timeout: Option<Duration>,
        mut ready: impl FnMut(&CoordCore) -> Option<T>,
    ) -> Option<T> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(t) = ready(&state.core) {
                return Some(t);
            }
            match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
                None => state = self.cv.wait(state).unwrap(),
                Some(left) if left.is_zero() => return None,
                Some(left) => state = self.cv.wait_timeout(state, left).unwrap().0,
            }
        }
    }

    /// Connection `generation` of rank `w` failed: start its reconnect
    /// window (the reaper's `tick` hardens an expired one into a death).
    fn lost(&self, w: usize, generation: u64) {
        let now = self.wall.elapsed();
        self.with_state(|s| s.core.disconnect(w, generation, now));
    }

    /// Start process number `life` of rank `w`, the core's numbering —
    /// unless cleanup has begun: `stop` is read under the lock cleanup
    /// takes to kill and reap, so no child outlives it.
    fn spawn_worker(&self, w: usize, life: u32) -> Result<(), ProcError> {
        let mut children = self.children.lock().unwrap();
        if self.stop.load(Ordering::Relaxed) {
            return Err(std::io::Error::other("the run is shutting down").into());
        }
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
        children.push(Proc {
            rank: w,
            life,
            child,
            exited: false,
        });
        Ok(())
    }

    /// Answer request `seq` of rank `w`, read on connection `generation`:
    /// encode the reply once into the frame the session caches and the
    /// socket takes, cache it, then write it to the connection the core
    /// names — none while the link is down (a resume replays the cache).
    /// The frame is the buffer of the reply that request made obsolete,
    /// when no writer holds it any more.
    fn deliver(&self, w: usize, generation: u64, seq: u32, reply: Out) {
        let mut frame = self
            .state
            .lock()
            .unwrap()
            .core
            .take_spare(w)
            .unwrap_or_default();
        let rty = encode_frame(&mut frame, seq, |e| match &reply {
            Out::Msg(msg) => msg.encode_into(e),
            // The server's globals, read as they are encoded: no copy.
            &Out::Round {
                leader,
                checkpoint,
                arrived,
                expected,
            } => {
                let global = self.ps.global.lock().unwrap();
                proto::bsp_result(e, leader, checkpoint, arrived, expected, &global.0)
            }
        });
        let frame = Arc::new(frame);
        // Encoded, the reply's parameter set is dead weight: free it before
        // the write below blocks on a slow peer.
        drop(reply);
        let link = self.with_state(|s| {
            let to = s
                .core
                .reply(w, generation, seq, (rty, Arc::clone(&frame)))?;
            s.link(w, to)
        });
        self.write(w, link, &frame);
    }

    /// Write `frame` to rank `w`'s connection `(generation, write half)`,
    /// if there is one; a failed write starts the reconnect window.
    fn write(&self, w: usize, link: Option<(u64, Link)>, frame: &[u8]) {
        if let Some((to, link)) = link {
            if link.lock().unwrap().write_all(frame).is_err() {
                self.lost(w, to);
            }
        }
    }

    /// Open the pause gate for good, and write the answer it held back
    /// from the rank it froze, if that answer came while it was shut.
    fn release_pause(&self) {
        let held = self.with_state(|s| {
            let (w, to, frame) = s.core.release_pause()?;
            Some((w, s.link(w, to), frame))
        });
        if let Some((w, link, frame)) = held {
            self.write(w, link, &frame);
        }
    }

    /// Service one request from rank `w`: decode the frame's intent into
    /// the matching hub call (or core / checkpoint bookkeeping) and encode
    /// the answer. `Ok(None)`: the request parked, and the call that
    /// releases it answers. `Err` for a message type a worker never sends.
    fn dispatch(&self, w: usize, msg: Msg) -> Result<Option<Out>, Violation> {
        let ps = &self.ps;
        Ok(Some(Out::Msg(match msg {
            // Test pause gate: a frozen rank's ack is cached but held back,
            // and the worker, which blocks on it, with it.
            Msg::Heartbeat { round } => Msg::HeartbeatAck {
                checkpoint: self.with_state(|s| s.core.heartbeat(w, round)),
            },
            Msg::Membership { round } => {
                let live = self.state.lock().unwrap().core.view().live_at(round);
                Msg::LiveSet {
                    live: live.into_iter().map(|v| v as u32).collect(),
                }
            }
            Msg::Snapshot => Msg::Params {
                params: ps.snapshot(),
            },
            Msg::AspPushPull { grad, lr } => Msg::Params {
                params: ps.push_and_pull(&grad, lr),
            },
            Msg::SspPush { delta, .. } => {
                ps.add_delta(&delta);
                Msg::Ok
            }
            Msg::EasgdExchange { params, alpha } => Msg::Params {
                params: ps.elastic_exchange(&params, alpha),
            },
            Msg::BumpClock { clock } => {
                self.with_state(|s| s.hub.bump_clock(w, clock));
                Msg::Ok
            }
            Msg::WaitMinClock { needed } => {
                return Ok(self.ask(w, |s| s.hub.wait_min_clock(w, needed)))
            }
            Msg::BspExchange { round, lr, grad } => {
                return Ok(self.bsp_round(w, round, None, (grad, 1), lr))
            }
            Msg::BspPartial {
                round,
                lr,
                weight,
                leaders,
                partial,
            } => return Ok(self.bsp_round(w, round, Some(leaders), (partial, weight), lr)),
            Msg::CollSend { target, params } => {
                self.with_state(|s| s.hub.coll_send(w, target as usize, params));
                Msg::Ok
            }
            // Bounded by the transfer deadline so a leader gathering from a
            // worker that died mid-round degrades instead of waiting forever.
            Msg::CollRecv => {
                let until = self.wall.elapsed() + self.cfg.transfer_deadline;
                return Ok(self.ask(w, |s| s.hub.coll_recv(w, Some(until))));
            }
            Msg::GossipSend {
                target,
                alpha,
                params,
            } => {
                self.with_state(|s| s.hub.gossip_send(target as usize, params, alpha));
                Msg::Ok
            }
            Msg::GossipDrain => Msg::GossipItems {
                items: self
                    .with_state(|s| s.hub.gossip_drain(w))
                    .into_iter()
                    .map(|(params, alpha)| (alpha, params))
                    .collect(),
            },
            Msg::ExchangeRequest { target, params } => {
                self.with_state(|s| {
                    let token = s.hub.exchange_request(w, target as usize, params);
                    *s.core.token(w) = Some(token);
                });
                Msg::Ok
            }
            Msg::ExchangeAwait => {
                return Ok(self.ask(w, |s| match s.core.token(w).take() {
                    Some(token) => s.hub.exchange_await(token, None),
                    None => Some(Answer::Exchange(Reply::Gone)),
                }))
            }
            Msg::ExchangePoll { block } => {
                return Ok(self.ask(w, |s| s.hub.exchange_next(w, block)))
            }
            Msg::ExchangeRespond { token, params } => {
                self.with_state(|s| s.hub.exchange_respond(token, params));
                Msg::Ok
            }
            Msg::AnnounceDone => {
                self.with_state(|s| s.hub.announce_done(w));
                Msg::Ok
            }
            Msg::CkptSave { iteration, params } => {
                let opt = SgdMomentum::new(self.cfg.plan.momentum, self.cfg.plan.weight_decay);
                self.store.save(w, iteration, &params, &opt);
                markers::ckpt_save(&self.obs_rt, self.ns(), iteration);
                Msg::Ok
            }
            Msg::CkptFetch => match self.store.restore(w) {
                Some(cp) => {
                    markers::ckpt_restore(&self.obs_rt, self.ns(), cp.iteration);
                    Msg::CkptState {
                        iteration: cp.iteration,
                        params: cp.params,
                    }
                }
                None => Msg::Gone,
            },
            Msg::RunComplete {
                iterations,
                logical_bytes,
                busy_ms,
                params,
            } => {
                self.obs_workers[w].counter(self.ns(), names::LOGICAL_BYTES, logical_bytes as i64);
                let outcome = Outcome {
                    iterations,
                    logical_bytes,
                    busy_ms,
                    params,
                };
                self.with_state(|s| s.core.complete(w, outcome));
                Msg::Ok // the connection loop ends after this
            }
            _ => return Err(Violation),
        })))
    }

    /// Rank `w`'s hub request that can wait: its reply now, or `None` once
    /// parked.
    fn ask(&self, w: usize, f: impl FnOnce(&mut State) -> Option<Answer>) -> Option<Out> {
        let answer = self.with_state(|s| {
            let answer = f(s)?;
            count_partial(&mut s.core, &answer);
            Some((answer, s.core.checkpoint(w)))
        });
        answer.map(|(answer, checkpoint)| self.reply(answer, checkpoint))
    }

    /// The reply to a hub request. A round's reply carries the fresh
    /// parameters, read as its frame is encoded, and the checkpoint
    /// directive of the heartbeat its deposit carried.
    fn reply(&self, answer: Answer, checkpoint: bool) -> Out {
        let msg = match answer {
            Answer::Round { arrived, expected } => {
                return Out::Round {
                    leader: arrived.is_some(),
                    checkpoint,
                    arrived: arrived.unwrap_or(0) as u32,
                    expected: expected as u32,
                }
            }
            Answer::MinClock(min) => Msg::MinClock { min },
            Answer::Coll(Some((sender, params))) => Msg::CollItem {
                sender: sender as u32,
                params,
            },
            Answer::Exchange(Reply::Ready(params)) => Msg::Params { params },
            Answer::Peer(Some(PeerItem::Exchange { token, params })) => {
                Msg::ExchangeItem { token, params }
            }
            Answer::Peer(Some(PeerItem::Done)) => Msg::PeerDone,
            Answer::Coll(None) | Answer::Exchange(_) | Answer::Peer(None) => Msg::Gone,
        };
        Out::Msg(msg)
    }

    /// One BSP barrier seat (flat, or hierarchical over `leaders`), with a
    /// deposit covering `.1` ranks: the cohort comes from the membership
    /// view as real deaths have shaped it; the round itself is the hub's.
    /// The deposit is also the rank's heartbeat for `round + 1`, recorded
    /// in the same lock section: once the round closes, the rank has
    /// executed `round`.
    fn bsp_round(
        &self,
        w: usize,
        round: u64,
        leaders: Option<u32>,
        (partial, weight): (ParamSet, u32),
        lr: f32,
    ) -> Option<Out> {
        let now = self.wall.elapsed();
        self.ask(w, |s| {
            s.core.heartbeat(w, round + 1);
            let view = s.core.view();
            let seat = Seat {
                rank: w,
                round,
                view: Some(&view),
                leaders: leaders.map(|n| n as usize),
                now,
            };
            s.hub.bsp_round(seat, (partial, weight as usize), lr, &())
        })
    }
}

/// A well-formed frame carrying a message type no worker sends.
struct Violation;

/// A reply, as [`Coord::deliver`] encodes it.
enum Out {
    Msg(Msg),
    /// A round's answer: its facts, and the server's globals as they stand
    /// when the frame is encoded, read under the server's lock.
    Round {
        leader: bool,
        checkpoint: bool,
        arrived: u32,
        expected: u32,
    },
}

/// The closer of a round that force-closed short of its cohort counts it.
fn count_partial(core: &mut CoordCore, answer: &Answer) {
    if let &Answer::Round {
        arrived: Some(n),
        expected,
    } = answer
    {
        if n < expected {
            core.partial_round(n);
        }
    }
}

/// A new connection: a fresh process's `Hello` (answered with the current
/// globals) or a live process's `Resume` (answered as the core decides).
/// What the core refuses is dropped; the rest falls into the service loop.
/// An admitted connection becomes its rank's link in the same lock as the
/// admission, so an answer released a moment later is written to it.
fn handshake(coord: &Arc<Coord>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(coord.cfg.transfer_deadline));
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let link: Link = Arc::new(Mutex::new(writer));
    let mut conn = BufReader::new(stream);
    let first = Msg::read_from(&mut conn, &mut Vec::new());
    let admit = |s: &mut State, w: usize, generation: u64| {
        s.links[w] = Some((generation, Arc::clone(&link)));
    };
    let (w, generation, served) = match first {
        Ok((seq, Msg::Hello { worker })) => {
            let w = worker as usize;
            let admitted = coord.with_state(|s| {
                let (start_round, generation) = s.core.hello(w, seq)?;
                admit(s, w, generation);
                Some((start_round, generation))
            });
            let Some((start_round, generation)) = admitted else {
                return;
            };
            // The globals, read under the server's lock as they are encoded.
            let mut ack = Vec::new();
            encode_frame(&mut ack, seq, |e| {
                proto::hello_ack(e, start_round, &coord.ps.global.lock().unwrap().0)
            });
            (w, generation, link.lock().unwrap().write_all(&ack).is_ok())
        }
        Ok((
            seq,
            Msg::Resume {
                worker,
                last_seq,
                attempt,
            },
        )) => {
            let w = worker as usize;
            let admitted = coord.with_state(|s| {
                let (generation, decision) = s.core.resume(w, last_seq, attempt)?;
                admit(s, w, generation);
                Some((generation, decision))
            });
            let Some((generation, decision)) = admitted else {
                return;
            };
            let served = match decision {
                // Never saw `last_seq`: ask the worker to resend it.
                ResumeDecision::RequestResend => Msg::ResumeAck
                    .write_to(&mut *link.lock().unwrap(), seq)
                    .is_ok(),
                // Saw it and finished it: replay the cached reply verbatim.
                ResumeDecision::ResendCached(_, frame) => {
                    link.lock().unwrap().write_all(&frame).is_ok()
                }
                // Saw it, and it is still parked: whichever call answers it
                // writes the answer here.
                ResumeDecision::AwaitInFlight => true,
                ResumeDecision::Refuse => unreachable!("the core refuses these connections"),
            };
            (w, generation, served)
        }
        _ => return,
    };
    if served {
        serve_connection(coord, w, &mut conn, generation, &link);
    } else {
        coord.lost(w, generation);
    }
    // Close the socket for good: the link's copy of it would keep it open.
    let _ = conn.get_ref().shutdown(Shutdown::Both);
}

/// One worker connection's service loop: handshake already done; read a
/// request, let the core classify it (dedup / replay), dispatch fresh
/// requests, until completion or a link error. Requests are read through
/// one reusable payload buffer. A read or write error is link trouble that
/// starts the reconnect window; a message type a worker never sends is the
/// process's death. `conn` is the handshake's reader: one read buffer per
/// connection for life, so nothing the peer sent behind its
/// `Hello`/`Resume` is lost.
fn serve_connection(
    coord: &Arc<Coord>,
    w: usize,
    conn: &mut BufReader<TcpStream>,
    generation: u64,
    link: &Link,
) {
    let _ = conn
        .get_ref()
        .set_read_timeout(Some(coord.cfg.transfer_deadline));
    let _ = conn.get_ref().set_nodelay(true);
    let mut payload = Vec::new();
    loop {
        // A read timeout is link trouble only while the rank owes nothing:
        // with a request parked or an answer held, its worker is silent
        // because it waits.
        let waiting = coord.state.lock().unwrap().core.awaiting(w);
        let (seq, msg) = match Msg::read_from(conn, &mut payload) {
            Ok(frame) => frame,
            Err(CodecError::Io(e))
                if waiting && matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
            {
                continue
            }
            // EOF, RST, a read timeout, or a CRC-damaged frame: all link
            // trouble, none of it proof of death.
            Err(_) => return coord.lost(w, generation),
        };
        // Session gate: a duplicate replays the cached reply, never the
        // dispatch; one still parked, and a stale frame, are dropped.
        match coord.with_state(|s| s.core.frame(w, generation, seq)) {
            Inbound::Fresh => {}
            Inbound::Duplicate(Some((_, frame))) => {
                if link.lock().unwrap().write_all(&frame).is_err() {
                    return coord.lost(w, generation);
                }
                continue;
            }
            Inbound::Duplicate(None) | Inbound::Stale => continue,
        }
        // The request may now wait in the hub for most of a round, with
        // this buffer idle: keep the capacity the frame needed (the next
        // one is the same size), not the up-to-2x slack that growing it by
        // doubling left — per connection that is a model's worth of
        // nothing. The read takes the CRC trailer into the buffer too, so
        // room for it stays, or the next same-size frame would double the
        // buffer again. The floor keeps a heartbeat from shrinking it under
        // the next gradient.
        payload.shrink_to((64 << 10).max(payload.len() + TRAILER_LEN));
        let finished = matches!(msg, Msg::RunComplete { .. });
        match coord.dispatch(w, msg) {
            Ok(Some(reply)) => coord.deliver(w, generation, seq, reply),
            Ok(None) => {}
            Err(Violation) => return coord.with_state(|s| s.core.violation(w, generation)),
        }
        if finished {
            return;
        }
    }
}

/// The reaper's poll period: how often it checks children for real exits
/// and ticks the core and the hub. A run's `reconnect_window` must exceed
/// it.
pub(crate) const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(25);

/// Locate the `dtrain-proc-worker` binary: the explicit override, the
/// `DTRAIN_PROC_WORKER` env var, or discovery next to the current
/// executable (test binaries live in `target/<profile>/deps/`, the worker
/// bin one level up in `target/<profile>/`).
fn worker_exe(over: Option<&PathBuf>) -> Result<PathBuf, String> {
    if let Some(p) = over {
        return Ok(p.clone());
    }
    if let Ok(p) = std::env::var("DTRAIN_PROC_WORKER") {
        return Ok(PathBuf::from(p));
    }
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut dir = me
        .parent()
        .ok_or_else(|| "current_exe has no parent".to_string())?
        .to_path_buf();
    for _ in 0..2 {
        let candidate = dir.join("dtrain-proc-worker");
        if candidate.is_file() {
            return Ok(candidate);
        }
        match dir.parent() {
            Some(p) => dir = p.to_path_buf(),
            None => break,
        }
    }
    Err(
        "cannot locate dtrain-proc-worker binary; build it (cargo build -p dtrain-proc) \
         or set DTRAIN_PROC_WORKER / ProcConfig::worker_exe"
            .to_string(),
    )
}

/// A live process-path run: spawned workers, their connections, and the
/// control hooks tests use (pause / kill / release). Dropping the handle
/// kills and reaps every child it spawned — no orphans survive a panic.
pub struct ProcRun {
    coord: Arc<Coord>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    started: Instant,
}

impl ProcRun {
    /// Spawn `cfg.plan.workers` worker processes against a fresh loopback
    /// listener and start serving them.
    pub fn launch(cfg: ProcConfig, sink: &ObsSink) -> Result<ProcRun, ProcError> {
        cfg.validate().map_err(ProcError::Config)?;
        let workers = cfg.plan.workers;
        let exe = worker_exe(cfg.worker_exe.as_ref()).map_err(ProcError::Config)?;
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?.to_string();
        let coord = Arc::new(Coord::new(cfg, sink, exe, addr));

        // Accept loop: hand each incoming connection to a handler thread.
        // Keeps accepting so rejoin replacements can connect late.
        let accept_coord = Arc::clone(&coord);
        let accept_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_coord.stop.load(Ordering::Relaxed) {
                    return;
                }
                let Ok(stream) = stream else { continue };
                let coord = Arc::clone(&accept_coord);
                std::thread::spawn(move || handshake(&coord, stream));
            }
        });

        // Reaper: report each child's exit once — a corpse needs no
        // reconnect grace, so a `SIGKILL` is recorded within one poll — and
        // tick the core's clock, so expired reconnect windows harden into
        // deaths, and the hub's, so rounds and collective reads past their
        // deadlines are answered.
        let reap = Arc::clone(&coord);
        std::thread::spawn(move || {
            while !reap.stop.load(Ordering::Relaxed) {
                let exited: Vec<(usize, u32)> = reap
                    .children
                    .lock()
                    .unwrap()
                    .iter_mut()
                    .filter_map(|p| {
                        let newly = !p.exited && matches!(p.child.try_wait(), Ok(Some(_)));
                        p.exited |= newly;
                        newly.then_some((p.rank, p.life))
                    })
                    .collect();
                let now = reap.wall.elapsed();
                reap.with_state(|s| {
                    exited
                        .into_iter()
                        .for_each(|(w, life)| s.core.exit(w, life));
                    s.core.tick(now);
                    s.hub.tick(now, &());
                });
                std::thread::sleep(HEARTBEAT_INTERVAL);
            }
        });

        for w in 0..workers {
            coord.spawn_worker(w, 0)?;
        }
        Ok(ProcRun {
            coord,
            accept_thread: Some(accept_thread),
            started: Instant::now(),
        })
    }

    /// PIDs of every child spawned so far, with their ranks.
    pub fn pids(&self) -> Vec<(usize, u32)> {
        let children = self.coord.children.lock().unwrap();
        children.iter().map(|p| (p.rank, p.child.id())).collect()
    }

    /// Block until the armed pause gate freezes its worker (the heartbeat
    /// or BSP deposit announcing the armed round has arrived); returns the
    /// frozen rank and its PID.
    pub fn wait_paused(&self, timeout: Duration) -> Option<(usize, u32)> {
        let rank = self.coord.wait_until(Some(timeout), CoordCore::paused)?;
        self.pids().into_iter().rev().find(|&(w, _)| w == rank)
    }

    /// `SIGKILL` the paused worker and reap it, release the gate, and block
    /// until the coordinator records the eviction. Returns the killed PID.
    pub fn kill_paused(&self, timeout: Duration) -> Option<u32> {
        let (rank, pid) = self.wait_paused(timeout)?;
        {
            let mut children = self.coord.children.lock().unwrap();
            let victim = children.iter_mut().find(|p| p.child.id() == pid)?;
            // Reaped before the gate opens, so the held answer reaches no
            // process: its write fails, or the recorded death drops it.
            let _ = victim.child.kill();
            let _ = victim.child.wait();
        }
        self.coord.release_pause();
        self.coord
            .wait_until(Some(timeout), |c| c.evicted(rank).then_some(pid))
    }

    /// Wait for every rank to account for itself, then evaluate the final
    /// cohort's mean model and reap every child.
    pub fn finish(mut self, timeout: Duration) -> Result<ProcReport, ProcError> {
        let done = self
            .coord
            .wait_until(Some(timeout), |c| c.done().then_some(()));
        let wall_time = self.started.elapsed();
        self.cleanup();
        if done.is_none() {
            return Err(ProcError::Stalled(format!(
                "run did not complete within {timeout:?}"
            )));
        }
        let cfg = &self.coord.cfg;
        let state = self.coord.state.lock().unwrap();
        let core = &state.core;
        let view = core.view();
        let (mean, _drift) =
            cfg.plan
                .final_cohort(&core.replicas(), Some(&view), cfg.task.train_size);
        let mut eval_net = zeroed_mlp(cfg.task.input_dim, &cfg.hidden, cfg.task.num_classes);
        eval_net.set_params(&mean);
        let (_, test) = teacher_task(&cfg.task);
        let (x, y) = test.as_batch();
        let (loss, acc) = eval_net.eval_batch(x, &y);

        let per_worker = core.worker_stats();
        let tally = core.tally();
        Ok(ProcReport {
            strategy: cfg.plan.strategy.name(),
            final_accuracy: acc,
            final_loss: loss,
            wall_time,
            total_iterations: per_worker.iter().map(|s| s.iterations).sum(),
            evictions: tally.evictions,
            rejoins: tally.rejoins,
            partial_rounds: tally.partial_rounds,
            retries: tally.retries,
            per_worker,
            final_params: mean,
        })
    }

    /// Kill and reap every spawned child, stop the service threads. Every
    /// step is idempotent, so `finish` and `Drop` may both run it.
    fn cleanup(&mut self) {
        // Set before the children lock is taken below: a rejoin replacement
        // spawned from here on is refused.
        self.coord.stop.store(true, Ordering::Relaxed);
        self.coord.release_pause();
        self.coord.with_state(|s| s.hub.shutdown());
        // Kill (idempotent for already-exited children) and reap.
        let children = self.coord.children.lock();
        let mut children = std::mem::take(&mut *children.unwrap_or_else(PoisonError::into_inner));
        for p in children.iter_mut() {
            let _ = p.child.kill();
        }
        for mut p in children {
            let _ = p.child.wait();
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Once cleanup has begun, a rejoin replacement is refused, not
    /// spawned where nothing would ever reap it.
    #[test]
    fn no_worker_is_spawned_once_cleanup_began() {
        let mut cfg = ProcConfig::default();
        cfg.plan.workers = 1;
        // Never started: the spawn is refused first.
        let exe = std::env::current_exe().expect("the test binary's path");
        let coord = Coord::new(cfg, &ObsSink::disabled(), exe, "127.0.0.1:9".into());
        let mut run = ProcRun {
            coord: Arc::new(coord),
            accept_thread: None,
            started: Instant::now(),
        };
        run.cleanup();
        assert!(run.coord.spawn_worker(0, 1).is_err());
        assert_eq!(run.pids(), vec![], "a spawn after cleanup adds no PID");
    }
}
