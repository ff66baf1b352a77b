//! [`ProcBackend`]: the [`ExecBackend`] a worker *process* runs
//! [`dtrain_runtime::worker_body`] against — every primitive is an RPC to
//! the coordinator over the worker's single TCP connection.
//!
//! ## Self-healing transport
//!
//! Every request carries a monotone sequence number that survives
//! reconnects. When a send or the reply read fails (link trouble, a frame
//! the chaos interposer dropped or corrupted), the backend tears the
//! socket down and enters a bounded-backoff reconnect loop inside the
//! configured reconnect window: each attempt opens a fresh connection and
//! offers [`Msg::Resume`] with the awaited seq. The coordinator either
//! replays its cached reply (the request was served; resending it would
//! double-apply a gradient) or answers [`Msg::ResumeAck`] asking for an
//! idempotent resend. Stale duplicated replies (seq below the awaited one)
//! are discarded on read.
//!
//! ## Chaos interposer
//!
//! With an active [`ChaosSpec`], every post-handshake request frame rolls
//! seeded dice on the send path: pass, delay, duplicate, drop (the frame
//! vanishes; recovery resumes), corrupt (a damaged frame really crosses
//! the wire so the coordinator's CRC check is what catches it), or sever
//! (the link is gone for good; reconnects stop and the window expires).
//!
//! Error policy: the coordinator is the authority on this path. A worker
//! whose reconnect window expires (coordinator died, eviction, severed
//! link) has nothing useful left to do, so RPC failures panic and take the
//! process down — which is exactly what the coordinator's failure model
//! expects of a dead peer, and what keeps test machines free of orphaned
//! trainers.

use std::io::{BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use dtrain_faults::{ChaosAction, ChaosSpec};
use dtrain_nn::{Network, ParamSet, SgdMomentum};
use dtrain_runtime::{BspOutcome, ExecBackend, PeerRequest, ReplyToken};
use rand::rngs::SmallRng;

use crate::codec::{encode_frame, read_frame_into, CodecError, Dec, Enc};
use crate::proto::{self, scalar_and_set, t, Msg};

/// Transport knobs for one worker's coordinator link.
#[derive(Clone, Debug)]
pub struct LinkOpts {
    /// How long to keep attempting reconnect-with-resume after link
    /// trouble before giving up (mirrors the coordinator's eviction
    /// window).
    pub reconnect_window: Duration,
    /// Seeded send-path fault injection (inactive by default).
    pub chaos: ChaosSpec,
    /// Injected straggler: extra sleep per iteration, in milliseconds.
    pub straggle_ms: u64,
}

impl Default for LinkOpts {
    fn default() -> Self {
        LinkOpts {
            reconnect_window: Duration::from_millis(1000),
            chaos: ChaosSpec::default(),
            straggle_ms: 0,
        }
    }
}

/// Bounded-backoff connect: `retries` attempts, delay doubling from
/// `backoff` — workers race the coordinator's listener at spawn.
fn connect_with_retry(
    addr: &str,
    retries: u32,
    backoff: Duration,
) -> Result<TcpStream, std::io::Error> {
    let mut delay = backoff;
    let mut last_err = None;
    for attempt in 0..retries.max(1) {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => last_err = Some(e),
        }
        if attempt + 1 < retries.max(1) {
            std::thread::sleep(delay);
            delay = delay.saturating_mul(2);
        }
    }
    Err(last_err.unwrap_or_else(|| std::io::Error::other("no connect attempts made")))
}

/// What [`ProcBackend::rpc`] sends: an owned [`Msg`], or a closure that
/// writes the payload straight from tensors the caller only lent (see
/// [`scalar_and_set`]). Either way it returns the message type.
trait Request {
    fn fill(self, e: &mut Enc) -> u8;
}

impl Request for Msg {
    fn fill(self, e: &mut Enc) -> u8 {
        self.encode_into(e)
    }
}

impl<F: FnOnce(&mut Enc) -> u8> Request for F {
    fn fill(self, e: &mut Enc) -> u8 {
        self(e)
    }
}

/// The process-path execution backend: one per worker process.
pub struct ProcBackend {
    addr: String,
    /// The write half — every frame leaves in one unbuffered `write_all` —
    /// and the handle recovery `shutdown`s, so the coordinator's handler
    /// observes the disconnect immediately instead of at its read deadline.
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    /// The connection's two reusable buffers: the request frame (kept
    /// whole until its reply arrives — recovery resends exactly these
    /// bytes) and the payload of the frame being read.
    frame: Vec<u8>,
    payload: Vec<u8>,
    w: usize,
    momentum: f32,
    weight_decay: f32,
    start_round: u64,
    init_params: ParamSet,
    /// One Membership RPC per round, memoized (AD-PSGD / gossip targeting
    /// ask several times per iteration).
    live_cache: Option<(u64, Vec<usize>)>,
    /// Is an AD-PSGD exchange outstanding on this connection?
    pending_exchange: bool,
    /// The round whose BSP deposit carried this iteration's heartbeat, with
    /// the checkpoint directive its answer gave.
    carried: Option<(u64, bool)>,
    /// Request sequence counter (survives reconnects).
    seq: u32,
    reconnect_window: Duration,
    chaos: Option<(ChaosSpec, SmallRng)>,
    /// Post-handshake frames sent (the chaos sever threshold counts these).
    frame_idx: u64,
    /// The chaos layer severed the link permanently: stop reconnecting and
    /// let the window expire.
    severed: bool,
    straggle_ms: u64,
}

impl ProcBackend {
    /// Connect to the coordinator at `addr` as rank `w` and complete the
    /// handshake. `momentum`/`weight_decay` rebuild the optimizer state a
    /// checkpoint restore cannot carry (velocity is process-local).
    pub fn connect(
        addr: &str,
        w: usize,
        momentum: f32,
        weight_decay: f32,
        retries: u32,
        backoff: Duration,
        link: LinkOpts,
    ) -> Result<ProcBackend, CodecError> {
        let stream = connect_with_retry(addr, retries, backoff)?;
        stream.set_nodelay(true).ok();
        // Safety net: a worker whose coordinator goes silent for this long
        // is orphaned and must die rather than linger.
        stream.set_read_timeout(Some(Duration::from_secs(120))).ok();
        let reader = BufReader::new(stream.try_clone()?);
        let chaos = link.chaos.is_active().then(|| {
            let rng = link.chaos.rng_for(w);
            (link.chaos, rng)
        });
        let mut backend = ProcBackend {
            addr: addr.to_string(),
            stream,
            reader,
            frame: Vec::new(),
            payload: Vec::new(),
            w,
            momentum,
            weight_decay,
            start_round: 0,
            init_params: ParamSet(Vec::new()),
            live_cache: None,
            pending_exchange: false,
            carried: None,
            seq: 1,
            reconnect_window: link.reconnect_window,
            chaos,
            frame_idx: 0,
            severed: false,
            straggle_ms: link.straggle_ms,
        };
        // The handshake is chaos-exempt: the interposer models link
        // adversity on an established session, and connect_with_retry
        // already covers spawn races.
        Msg::Hello { worker: w as u32 }.write_to(&mut backend.stream, backend.seq)?;
        match Msg::read_from(&mut backend.reader, &mut backend.payload)? {
            (
                _,
                Msg::HelloAck {
                    start_round,
                    params,
                },
            ) => {
                backend.start_round = start_round;
                backend.init_params = params;
                Ok(backend)
            }
            _ => Err(CodecError::Malformed("expected HelloAck")),
        }
    }

    /// The round this rank enters training at (0, or the rejoin round the
    /// coordinator pinned for a replacement process).
    pub fn start_round(&self) -> u64 {
        self.start_round
    }

    /// Global parameters at handshake time.
    pub fn initial_params(&self) -> &ParamSet {
        &self.init_params
    }

    /// Send the final outcome and wait for the coordinator's ack.
    pub fn complete(
        &mut self,
        iterations: u64,
        logical_bytes: u64,
        busy_ms: u64,
        params: ParamSet,
    ) -> Result<(), CodecError> {
        match self.rpc(Msg::RunComplete {
            iterations,
            logical_bytes,
            busy_ms,
            params,
        })? {
            Msg::Ok => Ok(()),
            _ => Err(CodecError::Malformed("expected Ok for RunComplete")),
        }
    }

    fn rpc(&mut self, req: impl Request) -> Result<Msg, CodecError> {
        let ty = self.call(req)?;
        Msg::decode(ty, &self.payload)
    }

    /// Send `req` and take its reply's frame: returns the message type and
    /// leaves the payload in `self.payload` for the caller to decode.
    fn call(&mut self, req: impl Request) -> Result<u8, CodecError> {
        self.seq += 1;
        let seq = self.seq;
        let mut frame = std::mem::take(&mut self.frame);
        encode_frame(&mut frame, seq, |e| req.fill(e));
        let sent = matches!(self.send_with_chaos(&frame), Ok(true));
        // A read error falls through to recovery.
        let reply = match sent.then(|| self.read_reply(seq)) {
            Some(Ok(ty)) => Ok(ty),
            _ => self.recover(&frame, seq),
        };
        self.frame = frame;
        reply
    }

    /// Read frames until the reply for `seq` arrives, discarding stale
    /// duplicated replies (chaos `Duplicate` makes the coordinator replay
    /// cached replies the worker already consumed).
    fn read_reply(&mut self, seq: u32) -> Result<u8, CodecError> {
        loop {
            let (ty, rseq) = read_frame_into(&mut self.reader, &mut self.payload)?;
            if rseq == seq {
                return Ok(ty);
            }
        }
    }

    /// Send one request frame through the chaos interposer. `Ok(true)`
    /// means a frame (possibly damaged) went out and a reply may come;
    /// `Ok(false)` means the frame is gone (dropped or link severed) and
    /// the caller must recover.
    fn send_with_chaos(&mut self, frame: &[u8]) -> Result<bool, CodecError> {
        self.frame_idx += 1;
        let frame_idx = self.frame_idx;
        let Some((spec, rng)) = self.chaos.as_mut() else {
            self.stream.write_all(frame)?;
            return Ok(true);
        };
        match spec.draw(rng, frame_idx) {
            ChaosAction::Pass => {
                self.stream.write_all(frame)?;
                Ok(true)
            }
            ChaosAction::DelayMs(ms) => {
                std::thread::sleep(Duration::from_millis(ms as u64));
                self.stream.write_all(frame)?;
                Ok(true)
            }
            ChaosAction::Duplicate => {
                self.stream.write_all(frame)?;
                self.stream.write_all(frame)?;
                Ok(true)
            }
            ChaosAction::Drop => Ok(false),
            ChaosAction::CorruptBit(bit) => {
                // A genuinely damaged frame crosses the wire so the
                // coordinator's CRC check is what detects it. The flip is
                // confined to the seq/payload/crc region — corrupting the
                // length prefix could stall both ends on a short read
                // instead of failing fast.
                let mut damaged = frame.to_vec();
                let region_bits = (damaged.len() - 6) * 8;
                let b = 6 * 8 + (bit as usize % region_bits);
                damaged[b / 8] ^= 1 << (b % 8);
                self.stream.write_all(&damaged)?;
                Ok(true)
            }
            ChaosAction::Sever => {
                self.severed = true;
                Ok(false)
            }
        }
    }

    /// Reconnect-with-resume: bounded exponential backoff inside the
    /// reconnect window. Returns the awaited reply's type (its payload in
    /// `self.payload`), or the error that ends this process once the
    /// window expires.
    fn recover(&mut self, frame: &[u8], seq: u32) -> Result<u8, CodecError> {
        // Tear the old socket down so the coordinator's handler observes
        // the disconnect now and starts its eviction window.
        let _ = self.stream.shutdown(Shutdown::Both);
        let deadline = Instant::now() + self.reconnect_window;
        let mut delay = Duration::from_millis(5);
        let mut attempt: u32 = 0;
        loop {
            attempt += 1;
            if !self.severed {
                if let Ok(Some(ty)) = self.try_resume(frame, seq, attempt) {
                    return Ok(ty);
                }
            }
            if Instant::now() + delay >= deadline {
                return Err(CodecError::Io(std::io::Error::other(format!(
                    "worker {}: reconnect window expired after {attempt} attempts{}",
                    self.w,
                    if self.severed { " (link severed)" } else { "" }
                ))));
            }
            std::thread::sleep(delay);
            delay = (delay * 2).min(Duration::from_millis(100));
        }
    }

    /// One resume attempt: fresh connection, offer `Resume`, then either
    /// consume the coordinator's cached reply or resend the request when
    /// asked. `Ok(None)` / `Err` both mean "this attempt failed, try
    /// again".
    fn try_resume(
        &mut self,
        frame: &[u8],
        seq: u32,
        attempt: u32,
    ) -> Result<Option<u8>, CodecError> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(Duration::from_secs(120))).ok();
        self.reader = BufReader::new(stream.try_clone()?);
        self.stream = stream;
        Msg::Resume {
            worker: self.w as u32,
            last_seq: seq,
            attempt,
        }
        .write_to(&mut self.stream, seq)?;
        loop {
            let (ty, rseq) = read_frame_into(&mut self.reader, &mut self.payload)?;
            match ty {
                t::RESUME_ACK => {
                    // The request never arrived: resend it — back through
                    // the chaos interposer, a retransmit can be damaged
                    // too.
                    match self.send_with_chaos(frame) {
                        Ok(true) => {}
                        Ok(false) | Err(_) => return Ok(None),
                    }
                }
                ty if rseq == seq => return Ok(Some(ty)),
                _ => {} // stale duplicate
            }
        }
    }

    /// RPC that must succeed: a worker with a dead coordinator link exits.
    fn must(&mut self, req: impl Request) -> Msg {
        match self.rpc(req) {
            Ok(m) => m,
            Err(e) => panic!("worker {}: coordinator RPC failed: {e}", self.w),
        }
    }

    fn expect_ok(&mut self, req: impl Request) {
        match self.must(req) {
            Msg::Ok => {}
            other => panic!("worker {}: expected Ok, got {other:?}", self.w),
        }
    }

    fn expect_params(&mut self, req: impl Request) -> ParamSet {
        match self.must(req) {
            Msg::Params { params } => params,
            other => panic!("worker {}: expected Params, got {other:?}", self.w),
        }
    }

    /// Deposit for `round` (a `BspExchange` or `BspPartial`) and take the
    /// round's result, noting that it carried the heartbeat for `round + 1`.
    fn bsp_deposit(&mut self, round: u64, req: Msg) -> BspOutcome {
        match self.must(req) {
            Msg::BspResult {
                leader,
                checkpoint,
                arrived,
                expected,
                params,
            } => {
                self.carried = Some((round, checkpoint));
                BspOutcome {
                    params,
                    arrived: leader.then_some(arrived as usize),
                    expected: expected as usize,
                }
            }
            other => panic!("worker {}: expected BspResult, got {other:?}", self.w),
        }
    }

    /// Decode the `BspResult` in `self.payload`, its parameters straight
    /// into `net`'s: `(leader, checkpoint, arrived, expected)`.
    fn bsp_result_into(&self, net: &mut Network) -> Result<(bool, bool, u32, u32), CodecError> {
        let mut d = Dec::new(&self.payload);
        let head = (d.u8()? != 0, d.u8()? != 0, d.u32()?, d.u32()?);
        d.params_into(&mut net.params_mut())?;
        d.done()?;
        Ok(head)
    }

    /// An explicit heartbeat announcing `round`; returns the checkpoint
    /// directive of its ack.
    fn heartbeat(&mut self, round: u64) -> bool {
        match self.must(Msg::Heartbeat { round }) {
            Msg::HeartbeatAck { checkpoint } => checkpoint,
            other => panic!("worker {}: expected HeartbeatAck, got {other:?}", self.w),
        }
    }
}

impl ExecBackend for ProcBackend {
    fn rank(&self) -> usize {
        self.w
    }

    // Membership on this path is always elastic: it reflects real process
    // deaths, not a schedule.
    fn elastic(&self) -> bool {
        true
    }

    fn death_round(&mut self, _w: usize) -> Option<u64> {
        // A live process never observes its own scheduled death — deaths
        // here are real signals, detected by the coordinator.
        None
    }

    fn rejoin_round(&mut self, w: usize) -> Option<u64> {
        (w == self.w && self.start_round > 0).then_some(self.start_round)
    }

    fn is_live(&mut self, w: usize, round: u64) -> bool {
        if w == self.w {
            // Rounds before a replacement's pinned entry are skipped
            // locally, without asking the coordinator.
            return round >= self.start_round;
        }
        self.live_at(round).contains(&w)
    }

    fn live_at(&mut self, round: u64) -> Vec<usize> {
        if let Some((r, live)) = &self.live_cache {
            if *r == round {
                return live.clone();
            }
        }
        let live: Vec<usize> = match self.must(Msg::Membership { round }) {
            Msg::LiveSet { live } => live.into_iter().map(|v| v as usize).collect(),
            other => panic!("worker {}: expected LiveSet, got {other:?}", self.w),
        };
        self.live_cache = Some((round, live.clone()));
        live
    }

    fn note_eviction(&mut self) {}

    fn note_rejoin(&mut self) {}

    fn park_clock(&mut self) {}

    fn ps_snapshot(&mut self) -> ParamSet {
        self.expect_params(Msg::Snapshot)
    }

    fn ps_push_pull(&mut self, grad: &ParamSet, lr: f32) -> ParamSet {
        self.expect_params(|e: &mut Enc| scalar_and_set(e, t::ASP_PUSH_PULL, lr, grad))
    }

    fn ps_push(&mut self, delta: &ParamSet, lr: f32) {
        self.expect_ok(|e: &mut Enc| scalar_and_set(e, t::SSP_PUSH, lr, delta));
    }

    fn ps_elastic_exchange(&mut self, params: &ParamSet, alpha: f32) -> ParamSet {
        self.expect_params(|e: &mut Enc| scalar_and_set(e, t::EASGD_EXCHANGE, alpha, params))
    }

    fn bump_clock(&mut self, clock: u64) {
        self.expect_ok(Msg::BumpClock { clock });
    }

    fn wait_min_clock(&mut self, needed: u64) -> u64 {
        match self.must(Msg::WaitMinClock { needed }) {
            Msg::MinClock { min } => min,
            other => panic!("worker {}: expected MinClock, got {other:?}", self.w),
        }
    }

    fn ps_gate(&mut self) {}

    fn ps_applied(&mut self) {}

    fn bsp_exchange(&mut self, round: u64, grad: ParamSet, lr: f32) -> BspOutcome {
        self.bsp_deposit(round, Msg::BspExchange { round, lr, grad })
    }

    /// The push is written from `net`'s gradients and the answer's floats
    /// decoded into its parameters: neither is copied into a set of its
    /// own on the way.
    fn bsp_round(&mut self, round: u64, net: &mut Network, lr: f32) -> (Option<usize>, usize) {
        let push = |e: &mut Enc| proto::bsp_exchange(e, round, lr, net.grad_refs());
        let w = self.w;
        let ty = self
            .call(push)
            .unwrap_or_else(|e| panic!("worker {w}: coordinator RPC failed: {e}"));
        if ty != t::BSP_RESULT {
            let other = Msg::decode(ty, &self.payload);
            panic!("worker {w}: expected BspResult, got {other:?}");
        }
        let (leader, checkpoint, arrived, expected) = self
            .bsp_result_into(net)
            .unwrap_or_else(|e| panic!("worker {w}: BspResult does not fit the model: {e}"));
        self.carried = Some((round, checkpoint));
        (leader.then_some(arrived as usize), expected as usize)
    }

    fn coll_send(&mut self, target: usize, params: ParamSet) {
        self.expect_ok(Msg::CollSend {
            target: target as u32,
            params,
        });
    }

    fn coll_recv(&mut self) -> Option<(usize, ParamSet)> {
        match self.must(Msg::CollRecv) {
            Msg::CollItem { sender, params } => Some((sender as usize, params)),
            Msg::Gone => None,
            other => panic!("worker {}: expected CollItem, got {other:?}", self.w),
        }
    }

    fn bsp_exchange_partial(
        &mut self,
        round: u64,
        partial: ParamSet,
        weight: usize,
        lr: f32,
        leaders: usize,
    ) -> BspOutcome {
        let req = Msg::BspPartial {
            round,
            lr,
            weight: weight as u32,
            leaders: leaders as u32,
            partial,
        };
        self.bsp_deposit(round, req)
    }

    fn gossip_send(&mut self, target: usize, params: ParamSet, alpha: f32) {
        self.expect_ok(Msg::GossipSend {
            target: target as u32,
            alpha,
            params,
        });
    }

    fn gossip_drain(&mut self) -> Vec<(ParamSet, f32)> {
        match self.must(Msg::GossipDrain) {
            Msg::GossipItems { items } => items.into_iter().map(|(a, p)| (p, a)).collect(),
            other => panic!("worker {}: expected GossipItems, got {other:?}", self.w),
        }
    }

    fn exchange_request(&mut self, target: usize, params: ParamSet) {
        self.expect_ok(Msg::ExchangeRequest {
            target: target as u32,
            params,
        });
        self.pending_exchange = true;
    }

    fn exchange_await(&mut self) -> Option<ParamSet> {
        if !self.pending_exchange {
            return None;
        }
        self.pending_exchange = false;
        match self.must(Msg::ExchangeAwait) {
            Msg::Params { params } => Some(params),
            Msg::Gone => None,
            other => panic!(
                "worker {}: expected Params/Gone for ExchangeAwait, got {other:?}",
                self.w
            ),
        }
    }

    fn exchange_next(&mut self, block: bool) -> Option<PeerRequest> {
        match self.must(Msg::ExchangePoll { block }) {
            Msg::ExchangeItem { token, params } => Some(PeerRequest::Exchange {
                params,
                token: ReplyToken::Remote(token),
            }),
            Msg::PeerDone => Some(PeerRequest::Done),
            Msg::Gone => None,
            other => panic!(
                "worker {}: expected item/done/gone for ExchangePoll, got {other:?}",
                self.w
            ),
        }
    }

    fn exchange_reply(&mut self, token: ReplyToken, midpoint: ParamSet) {
        match token {
            ReplyToken::Remote(token) => self.expect_ok(Msg::ExchangeRespond {
                token,
                params: midpoint,
            }),
            ReplyToken::Local(_) => {
                unreachable!("process backend never issues local reply tokens")
            }
        }
    }

    fn announce_done(&mut self) {
        self.expect_ok(Msg::AnnounceDone);
    }

    fn startup(&mut self, _params: &ParamSet, _opt: &SgdMomentum) {
        // First heartbeat: announces the round this rank is about to run
        // (also arms the test pause gate at a start round).
        self.heartbeat(self.start_round);
    }

    fn poll_crash(&mut self, _local_iter: u64) -> Option<Option<(ParamSet, SgdMomentum, u64)>> {
        // Crashes on this path are real signals, never injected.
        None
    }

    fn checkpoint_restore(&mut self) -> Option<(ParamSet, SgdMomentum, u64)> {
        match self.must(Msg::CkptFetch) {
            Msg::CkptState { iteration, params } => {
                // Optimizer velocity died with the original process; the
                // restore resumes with momentum state rebuilt from zero.
                Some((
                    params,
                    SgdMomentum::new(self.momentum, self.weight_decay),
                    iteration,
                ))
            }
            Msg::Gone => None,
            other => panic!("worker {}: expected CkptState/Gone, got {other:?}", self.w),
        }
    }

    /// End of `round`: the straggler stretch, then the heartbeat announcing
    /// `round + 1` — an RPC only when the round's BSP deposit did not carry
    /// it already (startup aside, that is hierarchical non-leaders and the
    /// five algorithms without a BSP round) — then a `CkptSave` if the
    /// heartbeat's answer directed one.
    fn iter_end(
        &mut self,
        round: u64,
        _local_iter: u64,
        _elapsed: Duration,
        state: &mut dyn FnMut() -> (ParamSet, SgdMomentum),
    ) {
        if self.straggle_ms > 0 {
            // Injected straggler: stretch every iteration so the adaptive
            // controller's straggle signal trips deterministically.
            std::thread::sleep(Duration::from_millis(self.straggle_ms));
        }
        let next = round + 1;
        let checkpoint = match self.carried.take() {
            Some((carried, checkpoint)) if carried == round => checkpoint,
            _ => self.heartbeat(next),
        };
        if checkpoint {
            let (params, _opt) = state();
            self.expect_ok(Msg::CkptSave {
                iteration: next,
                params,
            });
        }
        self.live_cache = None;
    }
}
