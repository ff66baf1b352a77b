//! Per-rank session state: the pure request-dedup / reply-replay machine
//! behind the self-healing transport ([`crate::coord_core`] keeps one per
//! rank).
//!
//! The worker is always the caller and keeps exactly one request in
//! flight, numbered by a per-rank sequence counter that survives
//! reconnects. That gives the coordinator a tiny invariant to enforce
//! exactly-once dispatch with: a request whose `seq` is higher than
//! anything seen is *fresh* (dispatch it), equal to the last seen is a
//! *duplicate* (resend the cached reply, never re-dispatch — `SspPush`
//! applied twice would corrupt the model), and lower is *stale* (a frame
//! the chaos layer duplicated long after its reply was consumed; drop it).
//!
//! Free of sockets, clocks and threads, so the idempotency guarantees are
//! property-tested directly (`tests/session_props.rs`), and generic over
//! `R`, the bytes of a cached reply: the tests use `Vec<u8>`, the core a
//! [`ReplyFrame`](crate::coord_core::ReplyFrame).

/// One rank's session, owned by the coordinator across that rank's
/// connections (the TCP connection may die and resume; the session does
/// not).
#[derive(Debug, Default)]
pub struct Session<R = Vec<u8>> {
    /// Bumped on every accepted connection (fresh or resumed); handler
    /// threads capture their generation at spawn so a stale thread can
    /// tell its socket is no longer the session's and exit without
    /// recording a disconnect.
    pub generation: u64,
    /// Highest request seq accepted for dispatch.
    pub last_seq: u32,
    /// Encoded reply `(type, bytes)` for `last_seq`; `None` while that
    /// request is still being dispatched.
    pub cached: Option<(u8, R)>,
    /// The reply a fresh request made obsolete, kept for [`Self::take_spare`]
    /// — the next reply's frame can be written into its buffer instead of
    /// a new one.
    spare: Option<R>,
    /// The rank's outstanding AD-PSGD exchange token. Session-scoped (not
    /// connection-scoped) so an `ExchangeAwait` issued after a reconnect
    /// still finds the token its `ExchangeRequest` registered.
    pub cur_token: Option<u64>,
    /// Accepted resumes (diagnostic).
    pub resumes: u64,
}

/// What to do with an inbound request frame.
#[derive(Debug, PartialEq, Eq)]
pub enum Inbound<R = Vec<u8>> {
    /// New request: dispatch it (the session has recorded its seq and
    /// invalidated the previous cached reply).
    Fresh,
    /// Duplicate of the last request. `Some` carries the cached reply to
    /// resend; `None` means the request is still unanswered — its answer
    /// goes to the live connection when it comes.
    Duplicate(Option<(u8, R)>),
    /// Older than the last dispatched request: its reply was already
    /// consumed, drop the frame silently.
    Stale,
}

/// What to do with a [`crate::proto::Msg::Resume`].
#[derive(Debug, PartialEq, Eq)]
pub enum ResumeDecision<R = Vec<u8>> {
    /// The awaited request was never received: ask the worker to resend it.
    RequestResend,
    /// The awaited request was served; replay the cached reply.
    ResendCached(u8, R),
    /// The awaited request is still unanswered; its answer goes to the
    /// resumed connection when it comes.
    AwaitInFlight,
    /// The resume regressed below state the worker itself acknowledged —
    /// a protocol violation; drop the connection.
    Refuse,
}

impl<R: Clone> Session<R> {
    /// Accept a new connection for this session (fresh handshake or
    /// resume); returns the new generation.
    pub fn next_generation(&mut self) -> u64 {
        self.generation += 1;
        self.generation
    }

    /// Reset for a fresh handshake (new process for this rank — initial
    /// spawn or a rejoin replacement; its seq counter restarts).
    pub fn reset(&mut self) {
        self.last_seq = 0;
        self.cached = None;
        self.cur_token = None;
    }

    /// Classify an inbound request frame. `Fresh` records `seq` and
    /// clears the cache (its reply becomes the spare), so the caller
    /// *must* dispatch it.
    pub fn classify(&mut self, seq: u32) -> Inbound<R> {
        if seq > self.last_seq {
            self.last_seq = seq;
            if let Some((_, reply)) = self.cached.take() {
                self.spare = Some(reply);
            }
            Inbound::Fresh
        } else if seq == self.last_seq {
            Inbound::Duplicate(self.cached.clone())
        } else {
            Inbound::Stale
        }
    }

    /// The reply the latest fresh request made obsolete, if it is still
    /// here: nothing replays it any more.
    pub(crate) fn take_spare(&mut self) -> Option<R> {
        self.spare.take()
    }

    /// Record the encoded reply for the request most recently accepted by
    /// [`Self::classify`].
    pub fn cache_reply(&mut self, ty: u8, reply: R) {
        self.cached = Some((ty, reply));
    }

    /// Decide how to answer a resume that awaits `last_seq`.
    pub fn on_resume(&mut self, last_seq: u32) -> ResumeDecision<R> {
        self.resumes += 1;
        if last_seq > self.last_seq {
            ResumeDecision::RequestResend
        } else if last_seq == self.last_seq {
            match &self.cached {
                Some((ty, reply)) => ResumeDecision::ResendCached(*ty, reply.clone()),
                None => ResumeDecision::AwaitInFlight,
            }
        } else {
            ResumeDecision::Refuse
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_then_duplicate_then_stale() {
        let mut s = Session::<Vec<u8>>::default();
        assert_eq!(s.classify(1), Inbound::Fresh);
        // Duplicate before the reply exists: wait, don't re-dispatch.
        assert_eq!(s.classify(1), Inbound::Duplicate(None));
        s.cache_reply(11, vec![1, 2]);
        assert_eq!(s.classify(1), Inbound::Duplicate(Some((11, vec![1, 2]))));
        assert_eq!(s.classify(2), Inbound::Fresh);
        assert_eq!(s.cached, None, "fresh request invalidates the cache");
        assert_eq!(s.classify(1), Inbound::Stale);
    }

    #[test]
    fn resume_decisions_cover_the_three_link_failure_points() {
        let mut s = Session::<Vec<u8>>::default();
        // Request lost before arrival: coordinator never saw seq 1.
        assert_eq!(s.on_resume(1), ResumeDecision::RequestResend);
        // Request arrived, dispatch still running.
        assert_eq!(s.classify(1), Inbound::Fresh);
        assert_eq!(s.on_resume(1), ResumeDecision::AwaitInFlight);
        // Reply produced but lost on the way back.
        s.cache_reply(8, vec![9]);
        assert_eq!(s.on_resume(1), ResumeDecision::ResendCached(8, vec![9]));
        // A regressing worker is refused.
        assert_eq!(s.classify(2), Inbound::Fresh);
        assert_eq!(s.on_resume(1), ResumeDecision::Refuse);
    }

    #[test]
    fn reset_restarts_numbering_but_keeps_generation_monotone() {
        let mut s = Session::<Vec<u8>>::default();
        assert_eq!(s.next_generation(), 1);
        s.classify(5);
        s.cache_reply(3, vec![]);
        s.cur_token = Some(7);
        s.reset();
        assert_eq!(s.next_generation(), 2);
        assert_eq!(s.last_seq, 0);
        assert_eq!(s.cached, None);
        assert_eq!(s.cur_token, None);
        assert_eq!(s.classify(1), Inbound::Fresh);
    }
}
