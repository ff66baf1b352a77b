//! `TimedBackend<B>`: an [`ExecBackend`] decorator that times every
//! primitive the shared `worker_body` calls on the backend it wraps.
//!
//! This is how the benchmark sees inside a worker *process* without
//! touching `dtrain-proc`: `perf-proc-worker` is the stock worker's glue
//! with `ProcBackend` wrapped in this type, so each `bsp_exchange`,
//! heartbeat (`iter_end`) and so on becomes a span the driver merges into
//! its trace. The decorator adds one clock read before and after each
//! call and changes nothing else.

use std::time::Duration;

use dtrain_nn::{ParamSet, SgdMomentum};
use dtrain_runtime::{BspOutcome, ExecBackend, PeerRequest, ReplyToken};

use crate::spans::SpanClock;

pub struct TimedBackend<B> {
    inner: B,
    clock: SpanClock,
    calls: Vec<(&'static str, u64, u64)>,
}

impl<B: ExecBackend> TimedBackend<B> {
    pub fn new(inner: B, clock: SpanClock) -> Self {
        TimedBackend {
            inner,
            clock,
            calls: Vec::new(),
        }
    }

    /// The wrapped backend, for its inherent (non-trait) methods.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    pub fn inner_mut(&mut self) -> &mut B {
        &mut self.inner
    }

    /// Every call so far as `(method, start_ns, end_ns)` on `clock`.
    pub fn calls(&self) -> &[(&'static str, u64, u64)] {
        &self.calls
    }

    fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut B) -> R) -> R {
        let start = self.clock.now_ns();
        let out = f(&mut self.inner);
        self.calls.push((name, start, self.clock.now_ns()));
        out
    }
}

impl<B: ExecBackend> ExecBackend for TimedBackend<B> {
    // Identity queries are not work: forwarded untimed.
    fn rank(&self) -> usize {
        self.inner.rank()
    }
    fn elastic(&self) -> bool {
        self.inner.elastic()
    }

    fn death_round(&mut self, w: usize) -> Option<u64> {
        self.timed("death_round", |b| b.death_round(w))
    }
    fn rejoin_round(&mut self, w: usize) -> Option<u64> {
        self.timed("rejoin_round", |b| b.rejoin_round(w))
    }
    fn is_live(&mut self, w: usize, round: u64) -> bool {
        self.timed("is_live", |b| b.is_live(w, round))
    }
    fn live_at(&mut self, round: u64) -> Vec<usize> {
        self.timed("live_at", |b| b.live_at(round))
    }
    fn note_eviction(&mut self) {
        self.timed("note_eviction", |b| b.note_eviction())
    }
    fn note_rejoin(&mut self) {
        self.timed("note_rejoin", |b| b.note_rejoin())
    }
    fn park_clock(&mut self) {
        self.timed("park_clock", |b| b.park_clock())
    }

    fn ps_snapshot(&mut self) -> ParamSet {
        self.timed("ps_snapshot", |b| b.ps_snapshot())
    }
    fn ps_push_pull(&mut self, grad: &ParamSet, lr: f32) -> ParamSet {
        self.timed("ps_push_pull", |b| b.ps_push_pull(grad, lr))
    }
    fn ps_push(&mut self, grad: &ParamSet, lr: f32) {
        self.timed("ps_push", |b| b.ps_push(grad, lr))
    }
    fn ps_elastic_exchange(&mut self, params: &ParamSet, alpha: f32) -> ParamSet {
        self.timed("ps_elastic_exchange", |b| {
            b.ps_elastic_exchange(params, alpha)
        })
    }
    fn bump_clock(&mut self, clock: u64) {
        self.timed("bump_clock", |b| b.bump_clock(clock))
    }
    fn wait_min_clock(&mut self, needed: u64) -> u64 {
        self.timed("wait_min_clock", |b| b.wait_min_clock(needed))
    }
    fn ps_gate(&mut self) {
        self.timed("ps_gate", |b| b.ps_gate())
    }
    fn ps_applied(&mut self) {
        self.timed("ps_applied", |b| b.ps_applied())
    }

    fn bsp_exchange(&mut self, round: u64, grad: ParamSet, lr: f32) -> BspOutcome {
        self.timed("bsp_exchange", |b| b.bsp_exchange(round, grad, lr))
    }
    fn coll_send(&mut self, target: usize, params: ParamSet) {
        self.timed("coll_send", |b| b.coll_send(target, params))
    }
    fn coll_recv(&mut self) -> Option<(usize, ParamSet)> {
        self.timed("coll_recv", |b| b.coll_recv())
    }
    fn bsp_exchange_partial(
        &mut self,
        round: u64,
        partial: ParamSet,
        weight: usize,
        lr: f32,
        leaders: usize,
    ) -> BspOutcome {
        self.timed("bsp_exchange_partial", |b| {
            b.bsp_exchange_partial(round, partial, weight, lr, leaders)
        })
    }

    fn gossip_send(&mut self, target: usize, params: ParamSet, alpha: f32) {
        self.timed("gossip_send", |b| b.gossip_send(target, params, alpha))
    }
    fn gossip_drain(&mut self) -> Vec<(ParamSet, f32)> {
        self.timed("gossip_drain", |b| b.gossip_drain())
    }

    fn exchange_request(&mut self, target: usize, params: ParamSet) {
        self.timed("exchange_request", |b| b.exchange_request(target, params))
    }
    fn exchange_await(&mut self) -> Option<ParamSet> {
        self.timed("exchange_await", |b| b.exchange_await())
    }
    fn exchange_next(&mut self, block: bool) -> Option<PeerRequest> {
        self.timed("exchange_next", |b| b.exchange_next(block))
    }
    fn exchange_reply(&mut self, token: ReplyToken, midpoint: ParamSet) {
        self.timed("exchange_reply", |b| b.exchange_reply(token, midpoint))
    }
    fn announce_done(&mut self) {
        self.timed("announce_done", |b| b.announce_done())
    }

    fn startup(&mut self, params: &ParamSet, opt: &SgdMomentum) {
        self.timed("startup", |b| b.startup(params, opt))
    }
    fn poll_crash(&mut self, local_iter: u64) -> Option<Option<(ParamSet, SgdMomentum, u64)>> {
        self.timed("poll_crash", |b| b.poll_crash(local_iter))
    }
    fn checkpoint_restore(&mut self) -> Option<(ParamSet, SgdMomentum, u64)> {
        self.timed("checkpoint_restore", |b| b.checkpoint_restore())
    }
    fn iter_end(
        &mut self,
        round: u64,
        local_iter: u64,
        elapsed: Duration,
        state: &mut dyn FnMut() -> (ParamSet, SgdMomentum),
    ) {
        self.timed("iter_end", |b| {
            b.iter_end(round, local_iter, elapsed, state)
        })
    }
    fn finish(&mut self) {
        self.timed("finish", |b| b.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtrain_tensor::Tensor;

    /// A backend that only remembers which of its methods ran, and with
    /// what scalar arguments, and answers with recognisable values.
    #[derive(Default)]
    struct Probe {
        seen: Vec<String>,
    }

    impl Probe {
        fn note(&mut self, call: impl Into<String>) {
            self.seen.push(call.into());
        }
    }

    fn params(v: f32) -> ParamSet {
        ParamSet(vec![Tensor::from_vec(&[1], vec![v])])
    }

    fn outcome(v: f32) -> BspOutcome {
        BspOutcome {
            params: params(v),
            arrived: Some(2),
            expected: 2,
        }
    }

    impl ExecBackend for Probe {
        fn rank(&self) -> usize {
            5
        }
        fn elastic(&self) -> bool {
            true
        }
        fn death_round(&mut self, w: usize) -> Option<u64> {
            self.note(format!("death_round({w})"));
            Some(11)
        }
        fn rejoin_round(&mut self, w: usize) -> Option<u64> {
            self.note(format!("rejoin_round({w})"));
            Some(12)
        }
        fn is_live(&mut self, w: usize, round: u64) -> bool {
            self.note(format!("is_live({w},{round})"));
            true
        }
        fn live_at(&mut self, round: u64) -> Vec<usize> {
            self.note(format!("live_at({round})"));
            vec![0, 5]
        }
        fn note_eviction(&mut self) {
            self.note("note_eviction");
        }
        fn note_rejoin(&mut self) {
            self.note("note_rejoin");
        }
        fn park_clock(&mut self) {
            self.note("park_clock");
        }
        fn ps_snapshot(&mut self) -> ParamSet {
            self.note("ps_snapshot");
            params(1.0)
        }
        fn ps_push_pull(&mut self, grad: &ParamSet, lr: f32) -> ParamSet {
            self.note(format!("ps_push_pull({},{lr})", grad.0[0].data()[0]));
            params(2.0)
        }
        fn ps_push(&mut self, grad: &ParamSet, lr: f32) {
            self.note(format!("ps_push({},{lr})", grad.0[0].data()[0]));
        }
        fn ps_elastic_exchange(&mut self, p: &ParamSet, alpha: f32) -> ParamSet {
            self.note(format!("ps_elastic_exchange({},{alpha})", p.0[0].data()[0]));
            params(3.0)
        }
        fn bump_clock(&mut self, clock: u64) {
            self.note(format!("bump_clock({clock})"));
        }
        fn wait_min_clock(&mut self, needed: u64) -> u64 {
            self.note(format!("wait_min_clock({needed})"));
            needed + 1
        }
        fn ps_gate(&mut self) {
            self.note("ps_gate");
        }
        fn ps_applied(&mut self) {
            self.note("ps_applied");
        }
        fn bsp_exchange(&mut self, round: u64, grad: ParamSet, lr: f32) -> BspOutcome {
            self.note(format!(
                "bsp_exchange({round},{},{lr})",
                grad.0[0].data()[0]
            ));
            outcome(4.0)
        }
        fn coll_send(&mut self, target: usize, p: ParamSet) {
            self.note(format!("coll_send({target},{})", p.0[0].data()[0]));
        }
        fn coll_recv(&mut self) -> Option<(usize, ParamSet)> {
            self.note("coll_recv");
            Some((3, params(5.0)))
        }
        fn bsp_exchange_partial(
            &mut self,
            round: u64,
            partial: ParamSet,
            weight: usize,
            lr: f32,
            leaders: usize,
        ) -> BspOutcome {
            self.note(format!(
                "bsp_exchange_partial({round},{},{weight},{lr},{leaders})",
                partial.0[0].data()[0]
            ));
            outcome(6.0)
        }
        fn gossip_send(&mut self, target: usize, p: ParamSet, alpha: f32) {
            self.note(format!(
                "gossip_send({target},{},{alpha})",
                p.0[0].data()[0]
            ));
        }
        fn gossip_drain(&mut self) -> Vec<(ParamSet, f32)> {
            self.note("gossip_drain");
            vec![(params(7.0), 0.5)]
        }
        fn exchange_request(&mut self, target: usize, p: ParamSet) {
            self.note(format!("exchange_request({target},{})", p.0[0].data()[0]));
        }
        fn exchange_await(&mut self) -> Option<ParamSet> {
            self.note("exchange_await");
            Some(params(8.0))
        }
        fn exchange_next(&mut self, block: bool) -> Option<PeerRequest> {
            self.note(format!("exchange_next({block})"));
            Some(PeerRequest::Done)
        }
        fn exchange_reply(&mut self, token: ReplyToken, midpoint: ParamSet) {
            let id = match token {
                ReplyToken::Remote(id) => id,
                ReplyToken::Local(_) => 0,
            };
            self.note(format!("exchange_reply({id},{})", midpoint.0[0].data()[0]));
        }
        fn announce_done(&mut self) {
            self.note("announce_done");
        }
        fn startup(&mut self, p: &ParamSet, _opt: &SgdMomentum) {
            self.note(format!("startup({})", p.0[0].data()[0]));
        }
        fn poll_crash(&mut self, local_iter: u64) -> Option<Option<(ParamSet, SgdMomentum, u64)>> {
            self.note(format!("poll_crash({local_iter})"));
            Some(None)
        }
        fn checkpoint_restore(&mut self) -> Option<(ParamSet, SgdMomentum, u64)> {
            self.note("checkpoint_restore");
            Some((params(9.0), SgdMomentum::plain(), 13))
        }
        fn iter_end(
            &mut self,
            round: u64,
            local_iter: u64,
            elapsed: Duration,
            state: &mut dyn FnMut() -> (ParamSet, SgdMomentum),
        ) {
            let (p, _) = state();
            self.note(format!(
                "iter_end({round},{local_iter},{},{})",
                elapsed.as_millis(),
                p.0[0].data()[0]
            ));
        }
        fn finish(&mut self) {
            self.note("finish");
        }
    }

    /// Every trait method reaches the wrapped backend with its arguments
    /// intact, its return value comes back unchanged, and each call except
    /// the two identity queries leaves exactly one timed entry, in order.
    #[test]
    fn delegates_every_exec_backend_method() {
        let mut b = TimedBackend::new(Probe::default(), SpanClock::start());
        let first = |p: &ParamSet| p.0[0].data()[0];

        assert_eq!(b.rank(), 5);
        assert!(b.elastic());
        assert_eq!(b.death_round(1), Some(11));
        assert_eq!(b.rejoin_round(2), Some(12));
        assert!(b.is_live(3, 4));
        assert_eq!(b.live_at(6), vec![0, 5]);
        b.note_eviction();
        b.note_rejoin();
        b.park_clock();
        assert_eq!(first(&b.ps_snapshot()), 1.0);
        assert_eq!(first(&b.ps_push_pull(&params(0.25), 0.5)), 2.0);
        b.ps_push(&params(0.75), 1.5);
        assert_eq!(first(&b.ps_elastic_exchange(&params(1.25), 2.5)), 3.0);
        b.bump_clock(7);
        assert_eq!(b.wait_min_clock(8), 9);
        b.ps_gate();
        b.ps_applied();
        let out = b.bsp_exchange(9, params(1.75), 3.5);
        assert_eq!(
            (first(&out.params), out.arrived, out.expected),
            (4.0, Some(2), 2)
        );
        b.coll_send(10, params(2.25));
        assert_eq!(b.coll_recv().map(|(w, p)| (w, first(&p))), Some((3, 5.0)));
        assert_eq!(
            first(&b.bsp_exchange_partial(11, params(2.75), 2, 4.5, 3).params),
            6.0
        );
        b.gossip_send(12, params(3.25), 5.5);
        assert_eq!(b.gossip_drain().len(), 1);
        b.exchange_request(13, params(3.75));
        assert_eq!(b.exchange_await().map(|p| first(&p)), Some(8.0));
        assert!(matches!(b.exchange_next(true), Some(PeerRequest::Done)));
        b.exchange_reply(ReplyToken::Remote(14), params(4.25));
        b.announce_done();
        b.startup(&params(4.75), &SgdMomentum::plain());
        assert!(matches!(b.poll_crash(15), Some(None)));
        assert_eq!(
            b.checkpoint_restore().map(|(p, _, it)| (first(&p), it)),
            Some((9.0, 13))
        );
        b.iter_end(16, 17, Duration::from_millis(18), &mut || {
            (params(5.25), SgdMomentum::plain())
        });
        b.finish();

        let expected = [
            "death_round(1)",
            "rejoin_round(2)",
            "is_live(3,4)",
            "live_at(6)",
            "note_eviction",
            "note_rejoin",
            "park_clock",
            "ps_snapshot",
            "ps_push_pull(0.25,0.5)",
            "ps_push(0.75,1.5)",
            "ps_elastic_exchange(1.25,2.5)",
            "bump_clock(7)",
            "wait_min_clock(8)",
            "ps_gate",
            "ps_applied",
            "bsp_exchange(9,1.75,3.5)",
            "coll_send(10,2.25)",
            "coll_recv",
            "bsp_exchange_partial(11,2.75,2,4.5,3)",
            "gossip_send(12,3.25,5.5)",
            "gossip_drain",
            "exchange_request(13,3.75)",
            "exchange_await",
            "exchange_next(true)",
            "exchange_reply(14,4.25)",
            "announce_done",
            "startup(4.75)",
            "poll_crash(15)",
            "checkpoint_restore",
            "iter_end(16,17,18,5.25)",
            "finish",
        ];
        assert_eq!(b.inner().seen, expected);
        let timed: Vec<&str> = b.calls().iter().map(|c| c.0).collect();
        let names: Vec<&str> = expected
            .iter()
            .map(|e| e.split('(').next().unwrap())
            .collect();
        assert_eq!(timed, names);
        assert!(
            b.calls().windows(2).all(|w| w[0].2 <= w[1].1),
            "calls are sequential"
        );
        assert!(b.calls().iter().all(|&(_, s, e)| s <= e));
    }
}
