//! The coordinator shell: spawns worker processes, serves each connection
//! from its own handler thread, reaps children and emits obs events. It
//! decides nothing: membership, sessions, failure clocks, the pause gate
//! and the done rule are [`CoordCore`]'s, behind one mutex and one condvar,
//! and every exchange is [`Hub`]'s — `Coord::dispatch` is a frame ↔
//! hub-call table, and a blocking request parks its handler in the hub.
//! The shell applies the core's [`Effect`]s after each call and wakes
//! waiters only when one says so. DESIGN §5 has the failure model.

use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dtrain_data::teacher_task;
use dtrain_faults::{markers, CheckpointStore};
use dtrain_models::mlp_classifier;
use dtrain_nn::{ParamSet, SgdMomentum};
use dtrain_obs::{names, ObsSink, Track, TrackHandle};
use dtrain_runtime::hub::{final_cohort, Hub, PeerItem, Reply, Seat};
use parking_lot::{Condvar, Mutex};

use crate::codec::encode_frame;
use crate::config::{encode_worker_cfg, worker_exe, ProcConfig};
pub use crate::coord_core::WorkerStats;
use crate::coord_core::{CoordCore, Effect, Outcome};
use crate::proto::Msg;
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

/// Shared coordinator state (one per run), behind an `Arc` so handler
/// threads, the reaper, and the [`ProcRun`] handle all see it.
struct Coord {
    cfg: ProcConfig,
    hub: Hub,
    store: CheckpointStore,
    core: Mutex<CoordCore>,
    /// Notified only on [`Effect::Wake`].
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
    fn ns(&self) -> u64 {
        self.wall.elapsed().as_nanos() as u64
    }

    /// Run `f` on the core, then apply the effects it queued, in order and
    /// outside the lock.
    fn with_core<T>(&self, f: impl FnOnce(&mut CoordCore) -> T) -> T {
        let mut core = self.core.lock();
        let out = f(&mut core);
        let effects = core.drain();
        drop(core);
        effects.into_iter().for_each(|effect| self.apply(effect));
        out
    }

    fn apply(&self, effect: Effect) {
        match effect {
            Effect::Marker(name, value) => self.obs_rt.instant(self.ns(), name, value),
            Effect::Evict(w) => self.hub.evict(w),
            Effect::Retire(w) => self.hub.retire(w),
            Effect::Spawn(rank, life) => {
                if let Err(e) = self.spawn_worker(rank, life) {
                    eprintln!("dtrain-proc: failed to spawn rejoin replacement for {rank}: {e}");
                }
            }
            Effect::Wake => self.cv.notify_all(),
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
        let mut core = self.core.lock();
        loop {
            if let Some(t) = ready(&core) {
                return Some(t);
            }
            match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
                None => self.cv.wait(&mut core),
                Some(left) if left.is_zero() => return None,
                Some(left) => _ = self.cv.wait_for(&mut core, left),
            }
        }
    }

    /// Connection `generation` of rank `w` failed: start its reconnect
    /// window (the reaper's `tick` hardens an expired one into a death).
    fn lost(&self, w: usize, generation: u64) {
        let now = self.wall.elapsed();
        self.with_core(|c| c.disconnect(w, generation, now));
    }

    /// Start process number `life` of rank `w`, the core's numbering.
    fn spawn_worker(&self, w: usize, life: u32) -> Result<(), ProcError> {
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
        self.children.lock().push(Proc {
            rank: w,
            life,
            child,
            exited: false,
        });
        Ok(())
    }

    /// Service one request from rank `w`: decode the frame's intent into
    /// the matching hub call (or core / checkpoint bookkeeping) and encode
    /// the answer; `None` for a message type a worker never sends.
    /// Blocking requests park here.
    fn dispatch(&self, w: usize, msg: Msg) -> Option<Msg> {
        let hub = &self.hub;
        Some(match msg {
            Msg::Heartbeat { round } => {
                let (executed, gated) = self.with_core(|c| c.heartbeat(w, round));
                // Test pause gate: freeze this handler (and therefore the
                // worker, which blocks on the ack) at a pinned round.
                if gated {
                    self.wait_until(None, |c| (c.paused() != Some(w)).then_some(()));
                }
                Msg::HeartbeatAck {
                    checkpoint: self.store.due(executed),
                }
            }
            Msg::Membership { round } => {
                let live = self.core.lock().view().live_at(round);
                Msg::LiveSet {
                    live: live.into_iter().map(|v| v as u32).collect(),
                }
            }
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
            } => self.bsp_round(w, round, Some(leaders), (partial, weight), lr),
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
                let token = hub.exchange_request(w, target as usize, params);
                self.with_core(|c| *c.token(w) = Some(token));
                Msg::Ok
            }
            Msg::ExchangeAwait => {
                let token = self.with_core(|c| c.token(w).take());
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
                let opt = SgdMomentum::new(self.cfg.plan.momentum, self.cfg.plan.weight_decay);
                self.store.save(w, iteration, &params, &opt);
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
                let outcome = Outcome {
                    iterations,
                    logical_bytes,
                    busy_ms,
                    params,
                };
                self.with_core(|c| c.complete(w, outcome));
                Msg::Ok // the connection loop ends after this
            }
            _ => return None,
        })
    }

    /// One BSP barrier seat (flat, or hierarchical over `leaders`), with a
    /// deposit covering `.1` ranks: the cohort comes from the membership
    /// view as real deaths have shaped it; the round itself is the hub's.
    fn bsp_round(
        &self,
        w: usize,
        round: u64,
        leaders: Option<u32>,
        (partial, weight): (ParamSet, u32),
        lr: f32,
    ) -> Msg {
        let view = self.core.lock().view();
        let seat = Seat {
            rank: w,
            round,
            view: Some(&view),
            leaders: leaders.map(|n| n as usize),
        };
        let deposit = (partial, weight as usize);
        let out = self.hub.bsp_round(seat, deposit, lr, |_| {}, |_| {});
        if let Some(arrived) = out.arrived.filter(|&n| n < out.expected) {
            self.with_core(|c| c.partial_round(arrived));
        }
        Msg::BspResult {
            leader: out.arrived.is_some(),
            arrived: out.arrived.unwrap_or(0) as u32,
            expected: out.expected as u32,
            params: out.params,
        }
    }
}

/// A new connection: a fresh process's `Hello` (answered with the current
/// globals) or a live process's `Resume` (answered as the core decides).
/// What the core refuses is dropped; the rest falls into the service loop.
fn handshake(coord: &Arc<Coord>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut conn = BufReader::new(stream);
    let first = Msg::read_from(&mut conn, &mut Vec::new());
    let mut stream = conn.get_ref();
    let (w, generation, served) = match first {
        Ok((seq, Msg::Hello { worker })) => {
            let w = worker as usize;
            let Some((start_round, generation)) = coord.with_core(|c| c.hello(w, seq)) else {
                return;
            };
            let ack = Msg::HelloAck {
                start_round,
                params: coord.hub.ps().snapshot(),
            };
            (w, generation, ack.write_to(&mut stream, seq).is_ok())
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
            let Some((generation, decision)) = coord.with_core(|c| c.resume(w, last_seq, attempt))
            else {
                return;
            };
            let served = match decision {
                // Never saw `last_seq`: ask the worker to resend it.
                ResumeDecision::RequestResend => Msg::ResumeAck.write_to(&mut stream, seq).is_ok(),
                // Saw it and finished it: replay the cached reply verbatim.
                ResumeDecision::ResendCached(_, frame) => stream.write_all(&frame).is_ok(),
                // Saw it, but its dispatch still runs on the stale handler
                // (parked in a barrier or mailbox wait). Wait for that
                // handler to cache its reply, then replay it here.
                ResumeDecision::AwaitInFlight => {
                    let replay = coord.wait_until(Some(coord.cfg.transfer_deadline), |c| {
                        let s = c.session(w);
                        if s.generation != generation || coord.stop.load(Ordering::Relaxed) {
                            return Some(None); // superseded, or the run is over
                        }
                        s.cached.as_ref().map(|(_, frame)| Some(Arc::clone(frame)))
                    });
                    replay
                        .flatten()
                        .is_some_and(|frame| stream.write_all(&frame).is_ok())
                }
                ResumeDecision::Refuse => unreachable!("the core refuses these connections"),
            };
            (w, generation, served)
        }
        _ => return,
    };
    if served {
        serve_connection(coord, w, conn, generation);
    } else {
        coord.lost(w, generation);
    }
}

/// One worker connection's service loop: handshake already done; read a
/// request, let the core classify it (dedup / replay), dispatch fresh
/// requests, cache then write replies, until completion or a link error.
/// Requests are read through one reusable payload buffer; a reply is
/// encoded once, straight into the frame the cache and the socket share,
/// and leaves in one write. A read or write error is link trouble that
/// starts the reconnect window; a message type a worker never sends is the
/// process's death. `conn` is the handshake's reader: one read buffer per connection for
/// life, so nothing the peer sent behind its `Hello`/`Resume` is lost.
fn serve_connection(coord: &Arc<Coord>, w: usize, mut conn: BufReader<TcpStream>, generation: u64) {
    let _ = conn
        .get_ref()
        .set_read_timeout(Some(coord.cfg.transfer_deadline));
    let _ = conn.get_ref().set_nodelay(true);
    let mut payload = Vec::new();
    loop {
        // EOF, RST, read timeout, or a CRC-damaged frame: all link
        // trouble, none of it proof of death.
        let Ok((seq, msg)) = Msg::read_from(&mut conn, &mut payload) else {
            return coord.lost(w, generation);
        };
        // Session gate: a duplicate replays the cached reply, never the
        // dispatch; one still in dispatch, and a stale frame, are dropped.
        match coord.with_core(|c| c.frame(w, generation, seq)) {
            Inbound::Fresh => {}
            Inbound::Duplicate(Some((_, frame))) => {
                if conn.get_ref().write_all(&frame).is_err() {
                    return coord.lost(w, generation);
                }
                continue;
            }
            Inbound::Duplicate(None) | Inbound::Stale => continue,
        }
        // This handler may now park in a barrier for most of a round: keep
        // the capacity the frame needed (the next one is the same size),
        // not the up-to-2x slack that growing it by doubling left — per
        // parked connection that is a model's worth of nothing. The floor
        // keeps a heartbeat from shrinking it under the next gradient.
        payload.shrink_to(64 << 10);
        let finished = matches!(msg, Msg::RunComplete { .. });
        let Some(reply) = coord.dispatch(w, msg) else {
            return coord.with_core(|c| c.violation(w, generation));
        };
        let mut frame = Vec::new();
        let rty = encode_frame(&mut frame, seq, |e| reply.encode_into(e));
        let frame = Arc::new(frame);
        // Encoded, the reply's parameter set is dead weight: free it before
        // the write below blocks on a slow peer.
        drop(reply);
        // Cache BEFORE writing: a resumed connection replays a lost reply
        // from the cache — also the handoff when a resume superseded this
        // socket while dispatch was parked, and this handler must go quiet.
        if coord.with_core(|c| c.reply(w, generation, seq, (rty, Arc::clone(&frame)))) {
            return;
        }
        if conn.get_ref().write_all(&frame).is_err() {
            return coord.lost(w, generation);
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
        let mut init_net = mlp_classifier(
            cfg.task.input_dim,
            &cfg.hidden,
            cfg.task.num_classes,
            cfg.model_seed,
        );
        if let Some(p) = &cfg.initial_params {
            init_net.set_params(p);
        }
        let coord = Arc::new(Coord {
            hub: Hub::new(init_net.get_params(), &cfg.plan, Some(cfg.barrier_deadline)),
            store: CheckpointStore::new(cfg.checkpoint_interval),
            core: Mutex::new(CoordCore::new(&cfg)),
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
        });

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

        // Reaper: report each child's exit once — even while the rank's
        // handler is parked; a corpse needs no reconnect grace, so a
        // `SIGKILL` is recorded within one poll — and tick the core's clock
        // so expired reconnect windows harden into deaths.
        let reap = Arc::clone(&coord);
        std::thread::spawn(move || {
            while !reap.stop.load(Ordering::Relaxed) {
                let exited: Vec<(usize, u32)> = reap
                    .children
                    .lock()
                    .iter_mut()
                    .filter_map(|p| {
                        let newly = !p.exited && matches!(p.child.try_wait(), Ok(Some(_)));
                        p.exited |= newly;
                        newly.then_some((p.rank, p.life))
                    })
                    .collect();
                let now = reap.wall.elapsed();
                reap.with_core(|c| {
                    exited.into_iter().for_each(|(w, life)| c.exit(w, life));
                    c.tick(now);
                });
                std::thread::sleep(reap.cfg.heartbeat_interval);
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
        let children = self.coord.children.lock();
        children.iter().map(|p| (p.rank, p.child.id())).collect()
    }

    /// Block until the armed pause gate freezes its worker; returns the
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
            let mut children = self.coord.children.lock();
            let victim = children.iter_mut().find(|p| p.child.id() == pid)?;
            // Reaped before the gate opens, so the handler's next write or
            // read deterministically fails.
            let _ = victim.child.kill();
            let _ = victim.child.wait();
        }
        self.coord.with_core(CoordCore::release_pause);
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
        let core = self.coord.core.lock();
        let (mean, _drift) = final_cohort(
            &core.replicas(),
            Some(&core.view()),
            &cfg.plan,
            cfg.task.train_size,
        );
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
        self.coord.stop.store(true, Ordering::Relaxed);
        // Release any paused handler so its thread can observe the dead
        // socket and exit; the wake-up also ends a resume's replay wait.
        self.coord.with_core(CoordCore::release_pause);
        self.coord.hub.shutdown();
        // Kill (idempotent for already-exited children) and reap.
        let mut children = std::mem::take(&mut *self.coord.children.lock());
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
