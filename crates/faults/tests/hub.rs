//! The exchange hub on its own: no sockets, no worker bodies, no threads,
//! no sleeps. A request that cannot be answered parks; the test plays
//! every other rank and the clock, and reads the released answers from
//! [`Hub::drain`], so every interleaving is the one written down.

use std::cell::RefCell;
use std::time::Duration;

use dtrain_faults::hub::{Answer, CloseHooks, Hub, PeerItem, Reply, Seat};
use dtrain_faults::{MembershipView, PsState};
use dtrain_nn::rules::round_mean;
use dtrain_nn::ParamSet;
use dtrain_tensor::Tensor;

fn ps(v: &[f32]) -> ParamSet {
    ParamSet(vec![Tensor::from_vec(&[v.len()], v.to_vec())])
}

fn bits(p: &ParamSet) -> Vec<u32> {
    p.0[0].data().iter().map(|x| x.to_bits()).collect()
}

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

/// A hub for `workers` ranks over plain SGD (no momentum, no decay), so a
/// round's effect is `−lr·mean`.
fn new_hub(params: ParamSet, workers: usize, barrier_deadline: Option<Duration>) -> Hub {
    Hub::new(params, workers, 0.0, 0.0, barrier_deadline)
}

/// A seat arriving at time zero.
fn seat(
    rank: usize,
    round: u64,
    view: Option<&MembershipView>,
    leaders: Option<usize>,
) -> Seat<'_> {
    Seat {
        rank,
        round,
        view,
        leaders,
        now: Duration::ZERO,
    }
}

/// A round's answer as its member reads it: with the server's parameters.
struct Outcome {
    params: ParamSet,
    arrived: Option<usize>,
    expected: usize,
}

fn outcome(hub: &Hub, answer: Answer) -> Outcome {
    match answer {
        Answer::Round { arrived, expected } => Outcome {
            params: hub.ps().snapshot(),
            arrived,
            expected,
        },
        _ => panic!("a round is answered with its outcome"),
    }
}

/// One arrival; `None` while the member is parked.
fn round(hub: &mut Hub, seat: Seat<'_>, deposit: (ParamSet, usize)) -> Option<Outcome> {
    let answer = hub.bsp_round(seat, deposit, 1.0, &())?;
    Some(outcome(hub, answer))
}

/// The released answers, as round outcomes by rank.
fn released_rounds(hub: &mut Hub) -> Vec<(usize, Outcome)> {
    let answers = hub.drain().into_iter();
    answers.map(|(rank, a)| (rank, outcome(hub, a))).collect()
}

/// Run one `n`-seat round with deposits arriving in `order`; returns the
/// applied parameters and the rank that closed the round.
fn run_round(
    init: &ParamSet,
    deposits: &[(ParamSet, usize)],
    order: &[usize],
) -> (ParamSet, usize) {
    let n = deposits.len();
    let mut hub = new_hub(init.clone(), n, None);
    let mut answers = Vec::new();
    for (i, &rank) in order.iter().enumerate() {
        let out = round(
            &mut hub,
            seat(rank, 0, None, Some(n)),
            deposits[rank].clone(),
        );
        assert_eq!(
            out.is_some(),
            i == n - 1,
            "only the last arrival is answered on the spot"
        );
        answers.extend(out.map(|out| (rank, out)));
    }
    answers.extend(released_rounds(&mut hub));
    let mut ranks: Vec<usize> = answers.iter().map(|&(rank, _)| rank).collect();
    ranks.sort_unstable();
    assert_eq!(
        ranks,
        (0..n).collect::<Vec<_>>(),
        "each member is answered once"
    );
    let closers: Vec<usize> = answers
        .iter()
        .filter(|(_, out)| out.arrived.is_some())
        .map(|(rank, out)| {
            assert_eq!(out.arrived, Some(n));
            *rank
        })
        .collect();
    assert_eq!(closers.len(), 1, "exactly one member closes a round");
    (hub.ps().snapshot(), closers[0])
}

/// What the parameters must be after one round: the server's plain SGD
/// step of the deposits' [`round_mean`] (pinned against the rank-ascending
/// rule written out, for every arrival order, in `dtrain-nn`'s
/// `tests/rules.rs`).
fn reference(init: &ParamSet, deposits: &[(ParamSet, usize)]) -> ParamSet {
    let server = PsState::new(init.clone(), 0.0, 0.0, deposits.len());
    server.push(&round_mean(deposits.iter().cloned().enumerate()), 1.0);
    server.snapshot()
}

/// In every arrival order the round closes on its last arrival, answers
/// each member once, and applies the round mean — flat (every weight 1)
/// and partial (leader sums with weights). The magnitudes span eleven
/// decades, so a sum in arrival order would change the bits.
#[test]
fn a_round_closes_on_its_last_arrival_and_applies_the_round_mean() {
    let init = ps(&[0.5, -2.0, 3.0]);
    let values = [[1e-6, 3.0, -2.0], [5e4, -1e-3, 7.0], [-0.25, 1e4, 3e-5]];
    for weights in [[1, 1, 1], [2, 1, 3]] {
        let deposits: Vec<(ParamSet, usize)> = values
            .iter()
            .zip(weights)
            .map(|(v, w)| (ps(v), w))
            .collect();
        let want = bits(&reference(&init, &deposits));
        for order in [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ] {
            let (got, closer) = run_round(&init, &deposits, &order);
            assert_eq!(closer, order[2], "the last arrival closes");
            assert_eq!(bits(&got), want, "arrival order {order:?}");
        }
    }
}

#[test]
fn forced_close_aggregates_what_is_there_and_a_late_deposit_passes_through() {
    let view = MembershipView::from_events(2, &[], &[]);
    let mut hub = new_hub(ps(&[10.0]), 2, Some(ms(10)));

    // Rank 0 alone parks; before its deadline the round stays open.
    let at = |now| Seat {
        now,
        ..seat(0, 0, Some(&view), None)
    };
    assert!(round(&mut hub, at(ms(5)), (ps(&[4.0]), 1)).is_none());
    hub.tick(ms(14), &());
    assert!(
        hub.drain().is_empty(),
        "no close short of the cohort before the deadline"
    );
    assert_eq!(hub.ps().snapshot().0[0].data(), &[10.0]);

    // Past it, the round force-closes with exactly rank 0's deposit, and
    // rank 0 — the member blocked longest — is told it closed it.
    hub.tick(ms(15), &());
    let closed = released_rounds(&mut hub);
    assert_eq!(closed.len(), 1);
    let (rank, out) = &closed[0];
    assert_eq!((*rank, out.arrived, out.expected), (0, Some(1), 2));
    assert_eq!(out.params.0[0].data(), &[6.0]);

    // Rank 1 arrives after the close: its deposit is dropped, it is told
    // it did not close anything, and it leaves with the current parameters.
    let late = round(&mut hub, seat(1, 0, Some(&view), None), (ps(&[100.0]), 1))
        .expect("a closed round is answered on the spot");
    assert_eq!(late.arrived, None);
    assert_eq!(late.params.0[0].data(), &[6.0]);
    assert_eq!(hub.ps().snapshot().0[0].data(), &[6.0]);

    // The next close aggregates round 1 only: the late deposit was not kept.
    let next = Seat {
        now: ms(20),
        ..seat(0, 1, Some(&view), None)
    };
    assert!(round(&mut hub, next, (ps(&[1.0]), 1)).is_none());
    hub.tick(ms(30), &());
    assert_eq!(released_rounds(&mut hub)[0].1.params.0[0].data(), &[5.0]);
}

#[test]
fn a_rejoiner_waits_for_its_round_without_a_deadline() {
    // Rank 1 is evicted at round 1 and re-enters at round 3; it shows up
    // for round 3 while rank 0 is still at round 1.
    let view = MembershipView::from_events(2, &[(1, 1)], &[(1, 3)]);
    let mut hub = new_hub(ps(&[0.0]), 2, Some(Duration::ZERO));
    assert!(round(&mut hub, seat(1, 3, Some(&view), None), (ps(&[2.0]), 1)).is_none());
    // Rounds 1 and 2 have a cohort of one: rank 0 closes them alone, and
    // the early deposit for round 3 must survive both.
    for r in 1..3 {
        let out = round(&mut hub, seat(0, r, Some(&view), None), (ps(&[1.0]), 1));
        let out = out.expect("a cohort of one closes on arrival");
        assert_eq!((out.arrived, out.expected), (Some(1), 1));
    }
    hub.tick(Duration::from_secs(3600), &());
    assert!(
        hub.drain().is_empty(),
        "a zero deadline must not close the rejoiner's round"
    );
    let out = round(&mut hub, seat(0, 3, Some(&view), None), (ps(&[4.0]), 1));
    let out = out.expect("the full cohort closes on arrival");
    assert_eq!((out.arrived, out.expected), (Some(2), 2));
    let rejoiner = released_rounds(&mut hub);
    assert_eq!(rejoiner.len(), 1);
    assert_eq!((rejoiner[0].0, rejoiner[0].1.arrived), (1, None));
    // −1 −1 −mean(4, 2)
    assert_eq!(hub.ps().snapshot().0[0].data(), &[-5.0]);
}

#[test]
fn a_view_less_round_closes_when_an_eviction_completes_it() {
    let init = ps(&[0.0]);
    let mut hub = new_hub(init.clone(), 4, None);
    // Ranks 2, 0 and 3 deposit; the classic cohort is all four ranks.
    for (rank, g) in [(2, 3.0), (0, 6.0), (3, 9.0)] {
        assert!(round(&mut hub, seat(rank, 0, None, None), (ps(&[g]), 1)).is_none());
    }
    assert!(hub.drain().is_empty(), "a round short of rank 1 waits");
    // Rank 1 dies for good: the cohort is the three left, which deposited.
    hub.evict(1);
    let closed = released_rounds(&mut hub);
    let seen: Vec<(usize, Option<usize>, usize)> = closed
        .iter()
        .map(|(rank, out)| (*rank, out.arrived, out.expected))
        .collect();
    assert_eq!(
        seen,
        [(2, Some(3), 3), (0, None, 4), (3, None, 4)],
        "the first arrival closes a complete round"
    );
    assert_eq!(hub.ps().snapshot().0[0].data(), &[-6.0]);
    // Later rounds expect the three survivors and close on the last.
    for (i, rank) in [3, 0, 2].into_iter().enumerate() {
        let out = round(&mut hub, seat(rank, 1, None, None), (ps(&[3.0]), 1));
        assert_eq!(
            out.map(|o| (o.arrived, o.expected)),
            (i == 2).then_some((Some(3), 3))
        );
    }
    assert_eq!(hub.drain().len(), 2);
    // An eviction that leaves a round short closes nothing.
    assert!(round(&mut hub, seat(0, 2, None, None), (ps(&[1.0]), 1)).is_none());
    hub.evict(3);
    assert!(hub.drain().is_empty(), "rank 2 still owes round 2");
}

#[test]
fn a_close_answers_its_members_in_arrival_order() {
    // The last arrival closes: the others leave in the order they came.
    let mut hub = new_hub(ps(&[0.0]), 4, None);
    for rank in [2, 0, 3] {
        assert!(round(&mut hub, seat(rank, 0, None, None), (ps(&[1.0]), 1)).is_none());
    }
    assert!(round(&mut hub, seat(1, 0, None, None), (ps(&[1.0]), 1)).is_some());
    let order: Vec<usize> = hub.drain().into_iter().map(|(rank, _)| rank).collect();
    assert_eq!(order, [2, 0, 3]);

    // A deadline close: the first arrival force-closes, in its place.
    let view = MembershipView::from_events(4, &[], &[]);
    let mut hub = new_hub(ps(&[0.0]), 4, Some(ms(10)));
    for (rank, t) in [(3, 0), (1, 1), (2, 2)] {
        let at = Seat {
            now: ms(t),
            ..seat(rank, 0, Some(&view), None)
        };
        assert!(round(&mut hub, at, (ps(&[1.0]), 1)).is_none());
    }
    assert_eq!(hub.next_deadline(), Some(ms(10)));
    hub.tick(ms(10), &());
    let closed = released_rounds(&mut hub);
    let seen: Vec<(usize, Option<usize>)> = closed.iter().map(|(r, o)| (*r, o.arrived)).collect();
    assert_eq!(seen, [(3, Some(3)), (1, None), (2, None)]);
    assert_eq!(hub.next_deadline(), None, "nothing parks past a close");
}

/// Records the server state each hook sees.
#[derive(Default)]
struct Recorder(RefCell<Vec<(&'static str, f32)>>);

impl CloseHooks for Recorder {
    fn before_apply(&self, ps: &PsState) {
        self.0
            .borrow_mut()
            .push(("before", ps.snapshot().0[0].data()[0]));
    }

    fn after_apply(&self, ps: &PsState) {
        self.0
            .borrow_mut()
            .push(("after", ps.snapshot().0[0].data()[0]));
    }
}

#[test]
fn close_hooks_run_on_the_closer_around_the_apply() {
    let mut hub = new_hub(ps(&[1.0]), 1, None);
    let hooks = Recorder::default();
    hub.bsp_round(seat(0, 0, None, None), (ps(&[1.0]), 1), 0.5, &hooks);
    assert_eq!(*hooks.0.borrow(), [("before", 1.0), ("after", 0.5)]);

    // A round force-closed by the clock runs the hooks the tick was given.
    let view = MembershipView::from_events(2, &[], &[]);
    let mut hub = new_hub(ps(&[1.0]), 2, Some(Duration::ZERO));
    let hooks = Recorder::default();
    let arrival = hub.bsp_round(seat(0, 0, Some(&view), None), (ps(&[1.0]), 1), 0.5, &hooks);
    assert!(arrival.is_none());
    assert!(hooks.0.borrow().is_empty(), "nothing closed yet");
    hub.tick(Duration::ZERO, &hooks);
    assert_eq!(*hooks.0.borrow(), [("before", 1.0), ("after", 0.5)]);
}

#[test]
fn token_goes_waiting_ready_taken() {
    let mut hub = new_hub(ps(&[0.0]), 4, None);
    let token = hub.exchange_request(2, 1, ps(&[8.0]));
    assert!(hub.exchange_await(token, Some(ms(5))).is_none(), "parks");
    hub.tick(ms(4), &());
    assert!(hub.drain().is_empty());
    hub.tick(ms(5), &());
    let timed_out = hub.drain();
    assert!(matches!(
        timed_out[..],
        [(2, Answer::Exchange(Reply::TimedOut))]
    ));

    let Some(Answer::Peer(Some(PeerItem::Exchange {
        token: seen,
        params,
    }))) = hub.exchange_next(1, false)
    else {
        panic!("the request must be queued at its target");
    };
    assert_eq!(seen, token);
    assert_eq!(params.0[0].data(), &[8.0]);
    assert!(matches!(
        hub.exchange_next(1, false),
        Some(Answer::Peer(None))
    ));

    // The token survived the timeout: the requester waits again, and the
    // answer releases it.
    assert!(hub.exchange_await(token, None).is_none());
    hub.exchange_respond(token, ps(&[4.0]));
    match &hub.drain()[..] {
        [(2, Answer::Exchange(Reply::Ready(mid)))] => assert_eq!(mid.0[0].data(), &[4.0]),
        _ => panic!("the answered token must be released to its requester"),
    }
    assert!(
        matches!(
            hub.exchange_await(token, None),
            Some(Answer::Exchange(Reply::Gone))
        ),
        "taken once"
    );

    // An answer that comes first is claimed on the spot.
    let token = hub.exchange_request(2, 1, ps(&[1.0]));
    hub.exchange_respond(token, ps(&[3.0]));
    assert!(matches!(
        hub.exchange_await(token, None),
        Some(Answer::Exchange(Reply::Ready(_)))
    ));

    // An abandoned token drops a late answer.
    let token = hub.exchange_request(2, 1, ps(&[1.0]));
    hub.exchange_abandon(token);
    hub.exchange_respond(token, ps(&[1.0]));
    assert!(matches!(
        hub.exchange_await(token, None),
        Some(Answer::Exchange(Reply::Gone))
    ));
}

#[test]
fn evict_resolves_waiting_tokens_and_synthesizes_done_once() {
    let mut hub = new_hub(ps(&[0.0]), 4, None);
    hub.bump_clock(1, 7);
    hub.bump_clock(2, 7);
    hub.bump_clock(3, 7);
    // Rank 3's staleness gate waits on rank 0's clock.
    assert!(hub.wait_min_clock(3, 7).is_none());

    // Two requests queued at rank 0, one already taken off rank 0's queue;
    // rank 2 waits on its own.
    let queued = [
        hub.exchange_request(2, 0, ps(&[1.0])),
        hub.exchange_request(3, 0, ps(&[2.0])),
        hub.exchange_request(1, 0, ps(&[3.0])),
    ];
    assert!(matches!(
        hub.exchange_next(0, false),
        Some(Answer::Peer(Some(PeerItem::Exchange { .. })))
    ));
    hub.coll_send(1, 0, ps(&[9.0]));
    // An exchange at a healthy rank is not touched.
    let healthy = hub.exchange_request(2, 3, ps(&[5.0]));
    assert!(hub.exchange_await(healthy, None).is_none());
    // The victim itself waits on its mailbox; dead, it needs no answer.
    assert!(
        hub.exchange_next(0, true).is_some(),
        "rank 0 has queued items"
    );
    while let Some(Answer::Peer(Some(_))) = hub.exchange_next(0, false) {}
    assert!(hub.exchange_next(0, true).is_none());

    hub.evict(0);
    hub.evict(0); // idempotent

    // Its SSP clock is parked: the survivors' minimum no longer waits on
    // it, and rank 3's gate opens. Nothing is released to rank 0.
    let released = hub.drain();
    assert_eq!(released.len(), 1, "only rank 3's gate: rank 2 still waits");
    assert!(matches!(released[0], (3, Answer::MinClock(7))));
    for token in queued {
        assert!(matches!(
            hub.exchange_await(token, None),
            Some(Answer::Exchange(Reply::Gone))
        ));
    }
    assert!(matches!(
        hub.exchange_next(0, false),
        Some(Answer::Peer(None))
    ));
    assert!(
        hub.coll_recv(0, Some(Duration::ZERO)).is_none(),
        "the victim's collective items are dropped"
    );
    hub.tick(Duration::ZERO, &());
    assert!(matches!(hub.drain()[..], [(0, Answer::Coll(None))]));
    // Rank 0 was an active: each passive hears its Done exactly once.
    assert!(matches!(
        hub.exchange_next(1, false),
        Some(Answer::Peer(Some(PeerItem::Done)))
    ));
    assert!(matches!(
        hub.exchange_next(1, false),
        Some(Answer::Peer(None))
    ));
    assert!(matches!(
        hub.exchange_next(3, false),
        Some(Answer::Peer(Some(PeerItem::Exchange { .. })))
    ));
    assert!(matches!(
        hub.exchange_next(3, false),
        Some(Answer::Peer(Some(PeerItem::Done)))
    ));
    assert!(matches!(
        hub.exchange_next(3, false),
        Some(Answer::Peer(None))
    ));
    // A request at the evicted rank resolves on the spot.
    let after = hub.exchange_request(2, 0, ps(&[1.0]));
    assert!(matches!(
        hub.exchange_await(after, None),
        Some(Answer::Exchange(Reply::Gone))
    ));
    // So does one at a rank that does not exist (a rank id is wire input).
    let nowhere = hub.exchange_request(2, 99, ps(&[1.0]));
    assert!(matches!(
        hub.exchange_await(nowhere, None),
        Some(Answer::Exchange(Reply::Gone))
    ));

    // A passive's death synthesizes nothing.
    hub.evict(1);
    assert!(matches!(
        hub.exchange_next(3, false),
        Some(Answer::Peer(None))
    ));
}

#[test]
fn retire_resolves_requests_a_finished_rank_will_never_serve() {
    let mut hub = new_hub(ps(&[0.0]), 2, None);
    let token = hub.exchange_request(0, 1, ps(&[1.0]));
    assert!(hub.exchange_await(token, None).is_none());
    hub.retire(1);
    assert!(matches!(
        hub.drain()[..],
        [(0, Answer::Exchange(Reply::Gone))]
    ));
    // Retiring is not dying: later requests still queue.
    let token = hub.exchange_request(0, 1, ps(&[1.0]));
    assert!(hub.exchange_await(token, None).is_none());
    assert!(hub.drain().is_empty());
}

#[test]
fn mailboxes_route_by_rank() {
    let mut hub = new_hub(ps(&[0.0]), 2, None);
    hub.gossip_send(1, ps(&[1.0]), 0.5);
    hub.gossip_send(1, ps(&[2.0]), 0.25);
    hub.gossip_send(7, ps(&[3.0]), 0.1); // outside the cohort: ignored
    assert!(hub.gossip_drain(0).is_empty());
    let got = hub.gossip_drain(1);
    assert_eq!(got.iter().map(|(_, a)| *a).collect::<Vec<_>>(), [0.5, 0.25]);
    assert!(hub.gossip_drain(1).is_empty());

    hub.coll_send(0, 1, ps(&[4.0]));
    let Some(Answer::Coll(Some((sender, payload)))) = hub.coll_recv(1, None) else {
        panic!("a queued item is answered on the spot");
    };
    assert_eq!((sender, payload.0[0].data()), (0, &[4.0f32][..]));
    // A waiting reader is answered by the post that fills its mailbox.
    assert!(hub.coll_recv(1, None).is_none());
    hub.coll_send(0, 1, ps(&[5.0]));
    assert!(matches!(hub.drain()[..], [(1, Answer::Coll(Some((0, _))))]));

    assert!(hub.exchange_next(1, true).is_none());
    hub.announce_done(0);
    assert!(matches!(
        hub.drain()[..],
        [(1, Answer::Peer(Some(PeerItem::Done)))]
    ));
    assert!(
        matches!(hub.exchange_next(0, false), Some(Answer::Peer(None))),
        "only passives hear Done"
    );
}

#[test]
fn shutdown_releases_every_kind_of_waiter() {
    let view = MembershipView::from_events(5, &[], &[]);
    let mut hub = new_hub(ps(&[1.0]), 5, None);
    let token = hub.exchange_request(2, 3, ps(&[1.0]));
    // Each would wait forever: an empty mailbox, an empty collective
    // mailbox, an unanswered token, a round short of its cohort with no
    // deadline, a staleness gate no clock will open.
    assert!(hub.exchange_next(0, true).is_none());
    assert!(hub.coll_recv(1, None).is_none());
    assert!(hub.exchange_await(token, None).is_none());
    assert!(round(&mut hub, seat(3, 0, Some(&view), None), (ps(&[1.0]), 1)).is_none());
    assert!(hub.wait_min_clock(4, 1).is_none());
    assert!(hub.drain().is_empty());

    hub.shutdown();
    let mut released = hub.drain();
    released.sort_by_key(|&(rank, _)| rank);
    let ranks: Vec<usize> = released.iter().map(|&(rank, _)| rank).collect();
    assert_eq!(ranks, [0, 1, 2, 3, 4], "every waiter answered once");
    for (rank, answer) in released {
        match answer {
            Answer::Peer(None) => assert_eq!(rank, 0),
            Answer::Coll(None) => assert_eq!(rank, 1),
            Answer::Exchange(Reply::Gone) => assert_eq!(rank, 2),
            Answer::Round { arrived, .. } => {
                assert_eq!(rank, 3);
                assert_eq!(arrived, None, "a released member closes nothing");
                assert_eq!(hub.ps().snapshot().0[0].data(), &[1.0]);
            }
            Answer::MinClock(_) => assert_eq!(rank, 4),
            _ => panic!("rank {rank} released with the wrong answer"),
        }
    }
    // And whoever asks afterwards is answered on the spot.
    assert!(hub.exchange_next(0, true).is_some());
    assert!(round(&mut hub, seat(4, 1, Some(&view), None), (ps(&[1.0]), 1)).is_some());
}
