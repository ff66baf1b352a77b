//! The RPC message set spoken between a worker process and the
//! coordinator, and its (de)serialization onto the frame codec.
//!
//! One TCP connection per worker (star topology). The worker is always the
//! caller: it sends a request frame and blocks on the reply, so there is
//! never more than one frame in flight per connection and the coordinator's
//! per-connection handler thread can service requests in order. A request
//! that must wait (barrier arrival, an SSP clock gate, an empty mailbox)
//! parks in the hub, not on the thread: the handler goes back to reading,
//! and whichever later call releases the answer writes the reply.
//!
//! Decentralized algorithms are *relayed*: gossip shares and AD-PSGD
//! exchange requests are posted to per-worker mailboxes inside the
//! coordinator, and the passive side polls its mailbox with
//! `ExchangePoll`/`GossipDrain` piggybacked on its own connection. A
//! [`Msg::ExchangeItem`] carries a coordinator-assigned `token`; the
//! passive returns the midpoint with `ExchangeRespond { token, .. }` and
//! the coordinator routes it back to the waiting requester.

use dtrain_nn::ParamSet;
use dtrain_tensor::Tensor;

use crate::codec::{encode_frame, read_frame_into, CodecError, Dec, Enc};

/// Every frame that crosses a worker/coordinator connection.
#[derive(Debug, Clone)]
pub enum Msg {
    // --- handshake ---
    /// Worker -> coordinator: first frame after connect.
    Hello { worker: u32 },
    /// Reply: the round to start at (0, or the rejoin round) and the
    /// current global parameters.
    HelloAck { start_round: u64, params: ParamSet },

    // --- heartbeat / membership ---
    /// Worker -> coordinator: "I am alive and about to run `round`". Sent
    /// at startup and at the end of every executed iteration whose round
    /// did not carry it already: a flat or partial BSP deposit for round
    /// `r` counts as the heartbeat for `r + 1`, so BSP leaders send this
    /// only at startup. Also the pause-gate hook for tests.
    Heartbeat { round: u64 },
    /// Reply to a `Heartbeat`: `checkpoint` directs the worker to snapshot
    /// its state back to the coordinator's checkpoint store this
    /// iteration. Given only to ranks that restore from a checkpoint when
    /// they rejoin ([`dtrain_faults::Algo::restores_from_checkpoint`]).
    /// The pause gate holds it back.
    HeartbeatAck { checkpoint: bool },
    /// Worker -> coordinator: who is live at `round`?
    Membership { round: u64 },
    /// Reply: ascending ranks live at the asked round.
    LiveSet { live: Vec<u32> },

    // --- parameter server ---
    /// Pull the current global parameters.
    Snapshot,
    /// Reply carrying a parameter set (snapshot, push-pull, EASGD, BSP).
    Params { params: ParamSet },
    /// ASP: apply `grad` at `lr`, reply `Params` with the fresh globals.
    AspPushPull { grad: ParamSet, lr: f32 },
    /// SSP: add the worker's applied delta to the globals; reply `Ok`.
    /// `lr` is the rate the delta was taken at; the coordinator ignores it.
    SspPush { delta: ParamSet, lr: f32 },
    /// Bare acknowledgement.
    Ok,
    /// EASGD: symmetric elastic exchange; reply `Params`.
    EasgdExchange { params: ParamSet, alpha: f32 },
    /// Advance this worker's SSP clock; reply `Ok`.
    BumpClock { clock: u64 },
    /// Block until `min(live clocks) >= needed`; reply `MinClock`.
    WaitMinClock { needed: u64 },
    /// Reply: the min clock observed.
    MinClock { min: u64 },

    // --- BSP ---
    /// Deposit `grad` for `round`; answered once the round closes. Also the
    /// rank's heartbeat for `round + 1`: the coordinator records it in the
    /// same lock section as the deposit, so no `Heartbeat` follows.
    BspExchange { round: u64, lr: f32, grad: ParamSet },
    /// Reply to `BspExchange` and `BspPartial`: post-aggregation parameters
    /// plus the leader/arrival facts (`arrived` is meaningful only when
    /// `leader`), and the checkpoint directive of the heartbeat the deposit
    /// carried, as `HeartbeatAck` would give it. The pause gate holds it
    /// back; the frozen rank's deposit still counts in its round.
    BspResult {
        leader: bool,
        checkpoint: bool,
        arrived: u32,
        expected: u32,
        params: ParamSet,
    },

    // --- gossip (relayed) ---
    /// Fire-and-forget a share into `target`'s mailbox; reply `Ok`.
    GossipSend {
        target: u32,
        alpha: f32,
        params: ParamSet,
    },
    /// Drain this worker's gossip mailbox; reply `GossipItems`.
    GossipDrain,
    /// Reply: queued `(alpha, params)` shares, oldest first.
    GossipItems { items: Vec<(f32, ParamSet)> },

    // --- AD-PSGD (relayed) ---
    /// Active side: post an exchange request into `target`'s mailbox;
    /// reply `Ok` (the midpoint is claimed later with `ExchangeAwait`).
    ExchangeRequest { target: u32, params: ParamSet },
    /// Active side: block for the midpoint of the outstanding request;
    /// reply `Params`, or `Gone` if the exchange was abandoned.
    ExchangeAwait,
    /// The awaited thing no longer exists (peer died, deadline passed).
    Gone,
    /// Passive side: poll this worker's exchange mailbox; `block` parks
    /// the handler until an item (or `Gone` at teardown/disconnect).
    ExchangePoll { block: bool },
    /// Reply: one queued exchange, with the routing token for the reply.
    ExchangeItem { token: u64, params: ParamSet },
    /// Reply: every active worker announced completion (`Done` marker).
    PeerDone,
    /// Passive side: return the midpoint for `token`; reply `Ok`.
    ExchangeRespond { token: u64, params: ParamSet },
    /// Active side: announce completion to every passive; reply `Ok`.
    AnnounceDone,

    // --- hierarchical BSP (relayed intra-machine legs) ---
    /// Fire-and-forget `params` (gradient up / fresh params down) into
    /// `target`'s collective mailbox; reply `Ok`.
    CollSend { target: u32, params: ParamSet },
    /// Block for the next item in this worker's collective mailbox; reply
    /// `CollItem`, or `Gone` on teardown/deadline.
    CollRecv,
    /// Reply: one queued collective item with its sender rank.
    CollItem { sender: u32, params: ParamSet },
    /// Leader deposit for the machine-group barrier: `partial` sums
    /// `weight` ranks; the round closes when all `leaders` deposit (or at
    /// the barrier deadline). Reply `BspResult`.
    BspPartial {
        round: u64,
        lr: f32,
        weight: u32,
        leaders: u32,
        partial: ParamSet,
    },

    // --- checkpoints ---
    /// Push a worker state snapshot to the coordinator's store; reply `Ok`.
    CkptSave { iteration: u64, params: ParamSet },
    /// Fetch this worker's latest checkpoint; reply `CkptState` or `Gone`.
    CkptFetch,
    /// Reply: a stored checkpoint.
    CkptState { iteration: u64, params: ParamSet },

    // --- completion ---
    /// Worker -> coordinator: final frame. Carries the worker's outcome;
    /// reply `Ok`, then both sides close.
    RunComplete {
        iterations: u64,
        logical_bytes: u64,
        /// Milliseconds (rounded up) the rank spent on local work (compute +
        /// backend iteration hooks) — the adaptive controller's straggler
        /// signal.
        busy_ms: u64,
        params: ParamSet,
    },

    // --- session resume ---
    /// Worker -> coordinator: first frame on a *re*connect after link
    /// trouble. `last_seq` is the request the worker still awaits a reply
    /// for; `attempt` is the 1-based reconnect attempt (surfaced as a
    /// `net.retry` marker). The coordinator answers with the cached reply
    /// for `last_seq` if it already served that request, or [`Msg::ResumeAck`]
    /// if the request never arrived and must be resent.
    Resume {
        worker: u32,
        last_seq: u32,
        attempt: u32,
    },
    /// Reply to [`Msg::Resume`]: the request `last_seq` was never received —
    /// resend it on this connection.
    ResumeAck,
}

// Message type discriminants (frame header byte 1).
pub(crate) mod t {
    pub const HELLO: u8 = 1;
    pub const HELLO_ACK: u8 = 2;
    pub const HEARTBEAT: u8 = 3;
    pub const HEARTBEAT_ACK: u8 = 4;
    pub const MEMBERSHIP: u8 = 5;
    pub const LIVE_SET: u8 = 6;
    pub const SNAPSHOT: u8 = 7;
    pub const PARAMS: u8 = 8;
    pub const ASP_PUSH_PULL: u8 = 9;
    pub const SSP_PUSH: u8 = 10;
    pub const OK: u8 = 11;
    pub const EASGD_EXCHANGE: u8 = 12;
    pub const BUMP_CLOCK: u8 = 13;
    pub const WAIT_MIN_CLOCK: u8 = 14;
    pub const MIN_CLOCK: u8 = 15;
    pub const BSP_EXCHANGE: u8 = 16;
    pub const BSP_RESULT: u8 = 17;
    pub const GOSSIP_SEND: u8 = 18;
    pub const GOSSIP_DRAIN: u8 = 19;
    pub const GOSSIP_ITEMS: u8 = 20;
    pub const EXCHANGE_REQUEST: u8 = 21;
    pub const EXCHANGE_AWAIT: u8 = 22;
    pub const GONE: u8 = 23;
    pub const EXCHANGE_POLL: u8 = 24;
    pub const EXCHANGE_ITEM: u8 = 25;
    pub const PEER_DONE: u8 = 26;
    pub const EXCHANGE_RESPOND: u8 = 27;
    pub const ANNOUNCE_DONE: u8 = 28;
    pub const CKPT_SAVE: u8 = 29;
    pub const CKPT_FETCH: u8 = 30;
    pub const CKPT_STATE: u8 = 31;
    pub const RUN_COMPLETE: u8 = 32;
    pub const COLL_SEND: u8 = 33;
    pub const COLL_RECV: u8 = 34;
    pub const COLL_ITEM: u8 = 35;
    pub const BSP_PARTIAL: u8 = 36;
    pub const RESUME: u8 = 37;
    pub const RESUME_ACK: u8 = 38;
}

/// Payload of the parameter-server requests (`AspPushPull`, `SspPush`,
/// `EasgdExchange`): a scalar, then a set. A function of its own so
/// [`crate::ProcBackend`] can write it straight from the set its caller
/// lent, instead of cloning that into an owned [`Msg`] first.
pub(crate) fn scalar_and_set(e: &mut Enc, ty: u8, scalar: f32, set: &ParamSet) -> u8 {
    e.f32(scalar).params(set);
    ty
}

// The model-sized payloads of a BSP run, each a function of its own so its
// set can be one the caller only lends: the worker's push is written from
// its network's gradients, and the coordinator's `HelloAck` and round
// answers from the server's globals, under its lock. `Msg::encode_into`
// writes those variants through the same functions.

/// Payload of [`Msg::HelloAck`] carrying `params`.
pub fn hello_ack(e: &mut Enc, start_round: u64, params: &ParamSet) -> u8 {
    e.u64(start_round).params(params);
    t::HELLO_ACK
}

/// Payload of [`Msg::BspExchange`] carrying the tensors `grad` yields.
pub fn bsp_exchange<'t, I>(e: &mut Enc, round: u64, lr: f32, grad: I) -> u8
where
    I: IntoIterator<Item = &'t Tensor>,
    I::IntoIter: Clone,
{
    e.u64(round).f32(lr).tensors(grad);
    t::BSP_EXCHANGE
}

/// Payload of [`Msg::BspResult`] carrying `params`.
pub fn bsp_result(
    e: &mut Enc,
    leader: bool,
    checkpoint: bool,
    arrived: u32,
    expected: u32,
    params: &ParamSet,
) -> u8 {
    e.u8(leader as u8)
        .u8(checkpoint as u8)
        .u32(arrived)
        .u32(expected)
        .params(params);
    t::BSP_RESULT
}

impl Msg {
    /// Serialize into `(type, payload)`.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        let mut e = Enc::new();
        let ty = self.encode_into(&mut e);
        (ty, e.into_bytes())
    }

    /// Append the payload to `e`; returns the message type.
    pub fn encode_into(&self, e: &mut Enc) -> u8 {
        match self {
            Msg::Hello { worker } => {
                e.u32(*worker);
                t::HELLO
            }
            Msg::HelloAck {
                start_round,
                params,
            } => hello_ack(e, *start_round, params),
            Msg::Heartbeat { round } => {
                e.u64(*round);
                t::HEARTBEAT
            }
            Msg::HeartbeatAck { checkpoint } => {
                e.u8(*checkpoint as u8);
                t::HEARTBEAT_ACK
            }
            Msg::Membership { round } => {
                e.u64(*round);
                t::MEMBERSHIP
            }
            Msg::LiveSet { live } => {
                e.u32(live.len() as u32);
                for &w in live {
                    e.u32(w);
                }
                t::LIVE_SET
            }
            Msg::Snapshot => t::SNAPSHOT,
            Msg::Params { params } => {
                e.params(params);
                t::PARAMS
            }
            Msg::AspPushPull { grad, lr } => scalar_and_set(e, t::ASP_PUSH_PULL, *lr, grad),
            Msg::SspPush { delta, lr } => scalar_and_set(e, t::SSP_PUSH, *lr, delta),
            Msg::Ok => t::OK,
            Msg::EasgdExchange { params, alpha } => {
                scalar_and_set(e, t::EASGD_EXCHANGE, *alpha, params)
            }
            Msg::BumpClock { clock } => {
                e.u64(*clock);
                t::BUMP_CLOCK
            }
            Msg::WaitMinClock { needed } => {
                e.u64(*needed);
                t::WAIT_MIN_CLOCK
            }
            Msg::MinClock { min } => {
                e.u64(*min);
                t::MIN_CLOCK
            }
            Msg::BspExchange { round, lr, grad } => bsp_exchange(e, *round, *lr, &grad.0),
            Msg::BspResult {
                leader,
                checkpoint,
                arrived,
                expected,
                params,
            } => bsp_result(e, *leader, *checkpoint, *arrived, *expected, params),
            Msg::GossipSend {
                target,
                alpha,
                params,
            } => {
                e.u32(*target).f32(*alpha).params(params);
                t::GOSSIP_SEND
            }
            Msg::GossipDrain => t::GOSSIP_DRAIN,
            Msg::GossipItems { items } => {
                e.u32(items.len() as u32);
                for (alpha, params) in items {
                    e.f32(*alpha).params(params);
                }
                t::GOSSIP_ITEMS
            }
            Msg::ExchangeRequest { target, params } => {
                e.u32(*target).params(params);
                t::EXCHANGE_REQUEST
            }
            Msg::ExchangeAwait => t::EXCHANGE_AWAIT,
            Msg::Gone => t::GONE,
            Msg::ExchangePoll { block } => {
                e.u8(*block as u8);
                t::EXCHANGE_POLL
            }
            Msg::ExchangeItem { token, params } => {
                e.u64(*token).params(params);
                t::EXCHANGE_ITEM
            }
            Msg::PeerDone => t::PEER_DONE,
            Msg::ExchangeRespond { token, params } => {
                e.u64(*token).params(params);
                t::EXCHANGE_RESPOND
            }
            Msg::AnnounceDone => t::ANNOUNCE_DONE,
            Msg::CollSend { target, params } => {
                e.u32(*target).params(params);
                t::COLL_SEND
            }
            Msg::CollRecv => t::COLL_RECV,
            Msg::CollItem { sender, params } => {
                e.u32(*sender).params(params);
                t::COLL_ITEM
            }
            Msg::BspPartial {
                round,
                lr,
                weight,
                leaders,
                partial,
            } => {
                e.u64(*round)
                    .f32(*lr)
                    .u32(*weight)
                    .u32(*leaders)
                    .params(partial);
                t::BSP_PARTIAL
            }
            Msg::CkptSave { iteration, params } => {
                e.u64(*iteration).params(params);
                t::CKPT_SAVE
            }
            Msg::CkptFetch => t::CKPT_FETCH,
            Msg::CkptState { iteration, params } => {
                e.u64(*iteration).params(params);
                t::CKPT_STATE
            }
            Msg::RunComplete {
                iterations,
                logical_bytes,
                busy_ms,
                params,
            } => {
                e.u64(*iterations)
                    .u64(*logical_bytes)
                    .u64(*busy_ms)
                    .params(params);
                t::RUN_COMPLETE
            }
            Msg::Resume {
                worker,
                last_seq,
                attempt,
            } => {
                e.u32(*worker).u32(*last_seq).u32(*attempt);
                t::RESUME
            }
            Msg::ResumeAck => t::RESUME_ACK,
        }
    }

    /// Deserialize from `(type, payload)`.
    pub fn decode(ty: u8, payload: &[u8]) -> Result<Msg, CodecError> {
        let mut d = Dec::new(payload);
        let msg = match ty {
            t::HELLO => Msg::Hello { worker: d.u32()? },
            t::HELLO_ACK => Msg::HelloAck {
                start_round: d.u64()?,
                params: d.params()?,
            },
            t::HEARTBEAT => Msg::Heartbeat { round: d.u64()? },
            t::HEARTBEAT_ACK => Msg::HeartbeatAck {
                checkpoint: d.u8()? != 0,
            },
            t::MEMBERSHIP => Msg::Membership { round: d.u64()? },
            t::LIVE_SET => {
                let n = d.u32()? as usize;
                let mut live = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    live.push(d.u32()?);
                }
                Msg::LiveSet { live }
            }
            t::SNAPSHOT => Msg::Snapshot,
            t::PARAMS => Msg::Params {
                params: d.params()?,
            },
            t::ASP_PUSH_PULL => Msg::AspPushPull {
                lr: d.f32()?,
                grad: d.params()?,
            },
            t::SSP_PUSH => Msg::SspPush {
                lr: d.f32()?,
                delta: d.params()?,
            },
            t::OK => Msg::Ok,
            t::EASGD_EXCHANGE => Msg::EasgdExchange {
                alpha: d.f32()?,
                params: d.params()?,
            },
            t::BUMP_CLOCK => Msg::BumpClock { clock: d.u64()? },
            t::WAIT_MIN_CLOCK => Msg::WaitMinClock { needed: d.u64()? },
            t::MIN_CLOCK => Msg::MinClock { min: d.u64()? },
            t::BSP_EXCHANGE => Msg::BspExchange {
                round: d.u64()?,
                lr: d.f32()?,
                grad: d.params()?,
            },
            t::BSP_RESULT => Msg::BspResult {
                leader: d.u8()? != 0,
                checkpoint: d.u8()? != 0,
                arrived: d.u32()?,
                expected: d.u32()?,
                params: d.params()?,
            },
            t::GOSSIP_SEND => Msg::GossipSend {
                target: d.u32()?,
                alpha: d.f32()?,
                params: d.params()?,
            },
            t::GOSSIP_DRAIN => Msg::GossipDrain,
            t::GOSSIP_ITEMS => {
                let n = d.u32()? as usize;
                let mut items = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    items.push((d.f32()?, d.params()?));
                }
                Msg::GossipItems { items }
            }
            t::EXCHANGE_REQUEST => Msg::ExchangeRequest {
                target: d.u32()?,
                params: d.params()?,
            },
            t::EXCHANGE_AWAIT => Msg::ExchangeAwait,
            t::GONE => Msg::Gone,
            t::EXCHANGE_POLL => Msg::ExchangePoll {
                block: d.u8()? != 0,
            },
            t::EXCHANGE_ITEM => Msg::ExchangeItem {
                token: d.u64()?,
                params: d.params()?,
            },
            t::PEER_DONE => Msg::PeerDone,
            t::EXCHANGE_RESPOND => Msg::ExchangeRespond {
                token: d.u64()?,
                params: d.params()?,
            },
            t::ANNOUNCE_DONE => Msg::AnnounceDone,
            t::COLL_SEND => Msg::CollSend {
                target: d.u32()?,
                params: d.params()?,
            },
            t::COLL_RECV => Msg::CollRecv,
            t::COLL_ITEM => Msg::CollItem {
                sender: d.u32()?,
                params: d.params()?,
            },
            t::BSP_PARTIAL => Msg::BspPartial {
                round: d.u64()?,
                lr: d.f32()?,
                weight: d.u32()?,
                leaders: d.u32()?,
                partial: d.params()?,
            },
            t::CKPT_SAVE => Msg::CkptSave {
                iteration: d.u64()?,
                params: d.params()?,
            },
            t::CKPT_FETCH => Msg::CkptFetch,
            t::CKPT_STATE => Msg::CkptState {
                iteration: d.u64()?,
                params: d.params()?,
            },
            t::RUN_COMPLETE => Msg::RunComplete {
                iterations: d.u64()?,
                logical_bytes: d.u64()?,
                busy_ms: d.u64()?,
                params: d.params()?,
            },
            t::RESUME => Msg::Resume {
                worker: d.u32()?,
                last_seq: d.u32()?,
                attempt: d.u32()?,
            },
            t::RESUME_ACK => Msg::ResumeAck,
            other => return Err(CodecError::BadType(other)),
        };
        d.done()?;
        Ok(msg)
    }

    /// Write this message as one frame carrying sequence number `seq`
    /// (requests: the worker's monotone counter; replies: the request's
    /// seq, echoed), built in one buffer and handed to `w` in one write.
    /// For handshakes and recovery; the per-round paths encode into a frame
    /// buffer they keep ([`crate::codec::encode_frame`]).
    pub fn write_to<W: std::io::Write>(&self, w: &mut W, seq: u32) -> Result<(), CodecError> {
        let mut frame = Vec::new();
        encode_frame(&mut frame, seq, |e| self.encode_into(e));
        w.write_all(&frame)?;
        w.flush()?;
        Ok(())
    }

    /// Read one message from the stream through `buf`, the connection's
    /// reusable payload buffer; returns `(seq, msg)`.
    pub fn read_from<R: std::io::Read>(
        r: &mut R,
        buf: &mut Vec<u8>,
    ) -> Result<(u32, Msg), CodecError> {
        let (ty, seq) = read_frame_into(r, buf)?;
        Ok((seq, Msg::decode(ty, buf)?))
    }
}
