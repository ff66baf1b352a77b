//! The exchange hub on its own: no sockets, no worker bodies, no sleeps.
//! Interleavings are forced — a thread is released only once the hub shows
//! the previous deposit — or do not matter (both orders give the asserted
//! outcome).

use std::time::Duration;

use dtrain_faults::MembershipView;
use dtrain_nn::ParamSet;
use dtrain_runtime::hub::{Hub, PeerItem, Reply, Seat};
use dtrain_runtime::{BspOutcome, PsState, RunPlan};
use dtrain_tensor::Tensor;
use proptest::prelude::*;

fn ps(v: &[f32]) -> ParamSet {
    ParamSet(vec![Tensor::from_vec(&[v.len()], v.to_vec())])
}

fn bits(p: &ParamSet) -> Vec<u32> {
    p.0[0].data().iter().map(|x| x.to_bits()).collect()
}

/// Plain SGD (no momentum, no decay) so a round's effect is `−lr·mean`.
fn plan(workers: usize) -> RunPlan {
    RunPlan {
        workers,
        momentum: 0.0,
        weight_decay: 0.0,
        ..Default::default()
    }
}

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
    }
}

fn round(hub: &Hub, seat: Seat<'_>, deposit: (ParamSet, usize)) -> BspOutcome {
    hub.bsp_round(seat, deposit, 1.0, |_| {}, |_| {})
}

/// Run one `n`-seat round with deposits arriving in `order`; returns the
/// applied parameters and the rank that closed the round.
fn run_round(
    init: &ParamSet,
    deposits: &[(ParamSet, usize)],
    order: &[usize],
) -> (ParamSet, usize) {
    let n = deposits.len();
    let hub = Hub::new(init.clone(), &plan(n), None);
    let closer = std::thread::scope(|scope| {
        let handles: Vec<_> = order
            .iter()
            .enumerate()
            .map(|(i, &rank)| {
                // Release this arrival only after the previous one landed
                // (the last arrival closes the round, emptying it).
                while hub.deposits(0) != i {
                    std::thread::yield_now();
                }
                let hub = &hub;
                let deposit = deposits[rank].clone();
                scope.spawn(move || (rank, round(hub, seat(rank, 0, None, Some(n)), deposit)))
            })
            .collect();
        let outs: Vec<(usize, BspOutcome)> = handles
            .into_iter()
            .map(|h| h.join().expect("round member"))
            .collect();
        let closers: Vec<usize> = outs
            .iter()
            .filter(|(_, o)| o.arrived.is_some())
            .map(|(rank, o)| {
                assert_eq!(o.arrived, Some(n));
                *rank
            })
            .collect();
        assert_eq!(closers.len(), 1, "exactly one member closes a round");
        closers[0]
    });
    (hub.ps().snapshot(), closer)
}

/// Rank-ascending reference: what the parameters must be after one round.
fn reference(init: &ParamSet, deposits: &[(ParamSet, usize)]) -> ParamSet {
    let mean = if deposits.iter().all(|(_, w)| *w == 1) {
        // A flat round is the classic mean of the raw gradients.
        ParamSet::mean_of(&deposits.iter().map(|(p, _)| p).collect::<Vec<_>>())
    } else {
        let mut sum = deposits[0].0.clone();
        for (p, _) in &deposits[1..] {
            sum.add_assign(p);
        }
        let total: usize = deposits.iter().map(|(_, w)| w).sum();
        sum.scale(1.0 / total as f32);
        sum
    };
    let server = PsState::new(init.clone(), 0.0, 0.0, deposits.len());
    server.push(&mean, 1.0);
    server.snapshot()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever order the deposits arrive in, the round applies the
    /// rank-ascending aggregate, bit for bit — flat (every weight 1, equal
    /// to `ParamSet::mean_of`) and partial (leader sums with weights).
    #[test]
    fn aggregate_is_bitwise_independent_of_arrival_order(
        // Mantissa and decimal exponent: magnitudes spread over twelve
        // decades, so a different summation order would change the bits.
        values in prop::collection::vec(
            prop::collection::vec((-1.0f32..1.0, 0u32..12), 3), 2..5),
        weights in prop::collection::vec(1usize..4, 4),
        order_keys in prop::collection::vec(0u32..1000, 4),
        flat in (0u8..2).prop_map(|v| v == 1),
    ) {
        let n = values.len();
        let deposits: Vec<(ParamSet, usize)> = values
            .iter()
            .zip(&weights)
            .map(|(v, &w)| {
                let v: Vec<f32> = v.iter().map(|&(m, e)| m * 10f32.powi(e as i32 - 6)).collect();
                (ps(&v), if flat { 1 } else { w })
            })
            .collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&r| order_keys[r]);
        let init = ps(&[0.5, -2.0, 3.0]);

        let (got, closer) = run_round(&init, &deposits, &order);
        prop_assert_eq!(closer, order[n - 1], "the last arrival closes");
        prop_assert_eq!(bits(&got), bits(&reference(&init, &deposits)));
    }
}

#[test]
fn forced_close_aggregates_what_is_there_and_a_late_deposit_passes_through() {
    let view = MembershipView::from_events(2, &[], &[]);
    let hub = Hub::new(ps(&[10.0]), &plan(2), Some(Duration::ZERO));

    // Rank 0 alone: its (zero) deadline passes with the round still short,
    // so it force-closes with exactly its own deposit.
    let out = round(&hub, seat(0, 0, Some(&view), None), (ps(&[4.0]), 1));
    assert_eq!((out.arrived, out.expected), (Some(1), 2));
    assert_eq!(out.params.0[0].data(), &[6.0]);
    assert_eq!(hub.deposits(0), 0);

    // Rank 1 arrives after the close: its deposit is dropped, it is told
    // it did not close anything, and it leaves with the current parameters.
    let late = round(&hub, seat(1, 0, Some(&view), None), (ps(&[100.0]), 1));
    assert_eq!(late.arrived, None);
    assert_eq!(late.params.0[0].data(), &[6.0]);
    assert_eq!(hub.ps().snapshot().0[0].data(), &[6.0]);

    // The next close aggregates round 1 only, and sweeps the late deposit.
    let out = round(&hub, seat(0, 1, Some(&view), None), (ps(&[1.0]), 1));
    assert_eq!(out.params.0[0].data(), &[5.0]);
    assert_eq!(hub.deposits(0), 0, "a late deposit is not kept");
}

#[test]
fn a_rejoiner_waits_for_its_round_without_a_deadline() {
    // Rank 1 is evicted at round 1 and re-enters at round 3; it shows up
    // for round 3 while rank 0 is still at round 1.
    let view = MembershipView::from_events(2, &[(1, 1)], &[(1, 3)]);
    let hub = Hub::new(ps(&[0.0]), &plan(2), Some(Duration::ZERO));
    std::thread::scope(|scope| {
        let rejoiner = scope.spawn(|| round(&hub, seat(1, 3, Some(&view), None), (ps(&[2.0]), 1)));
        while hub.deposits(3) != 1 {
            std::thread::yield_now();
        }
        // Rounds 1 and 2 have a cohort of one: rank 0 closes them alone,
        // and the early deposit for round 3 must survive both.
        for r in 1..3 {
            let out = round(&hub, seat(0, r, Some(&view), None), (ps(&[1.0]), 1));
            assert_eq!((out.arrived, out.expected), (Some(1), 1));
        }
        assert_eq!(
            hub.deposits(3),
            1,
            "a zero deadline must not close the rejoiner's round"
        );
        let out = round(&hub, seat(0, 3, Some(&view), None), (ps(&[4.0]), 1));
        assert_eq!((out.arrived, out.expected), (Some(2), 2));
        assert_eq!(rejoiner.join().expect("rejoiner").arrived, None);
    });
    // −1 −1 −mean(4, 2)
    assert_eq!(hub.ps().snapshot().0[0].data(), &[-5.0]);
}

#[test]
fn close_hooks_run_on_the_closer_around_the_apply() {
    let hub = Hub::new(ps(&[1.0]), &plan(1), None);
    let (mut before, mut after) = (None, None);
    hub.bsp_round(
        seat(0, 0, None, None),
        (ps(&[1.0]), 1),
        0.5,
        |server| before = Some(server.snapshot()),
        |server| after = Some(server.snapshot()),
    );
    assert_eq!(before.expect("before hook ran").0[0].data(), &[1.0]);
    assert_eq!(after.expect("after hook ran").0[0].data(), &[0.5]);
}

#[test]
fn token_goes_waiting_ready_taken() {
    let hub = Hub::new(ps(&[0.0]), &plan(4), None);
    let token = hub.exchange_request(2, 1, ps(&[8.0]));
    assert!(matches!(
        hub.exchange_await(token, Some(Duration::ZERO)),
        Reply::TimedOut
    ));

    let Some(PeerItem::Exchange {
        token: seen,
        params,
    }) = hub.exchange_next(1, false)
    else {
        panic!("the request must be queued at its target");
    };
    assert_eq!(seen, token);
    assert_eq!(params.0[0].data(), &[8.0]);
    assert!(hub.exchange_next(1, false).is_none());

    hub.exchange_respond(token, ps(&[4.0]));
    match hub.exchange_await(token, None) {
        Reply::Ready(mid) => assert_eq!(mid.0[0].data(), &[4.0]),
        _ => panic!("answered token must be ready"),
    }
    assert!(
        matches!(hub.exchange_await(token, None), Reply::Gone),
        "taken once"
    );

    // An abandoned token drops a late answer.
    let token = hub.exchange_request(2, 1, ps(&[1.0]));
    hub.exchange_abandon(token);
    hub.exchange_respond(token, ps(&[1.0]));
    assert!(matches!(hub.exchange_await(token, None), Reply::Gone));
}

#[test]
fn evict_resolves_waiting_tokens_and_synthesizes_done_once() {
    let hub = Hub::new(ps(&[0.0]), &plan(4), None);
    hub.ps().bump_clock(1, 7);
    hub.ps().bump_clock(2, 7);
    hub.ps().bump_clock(3, 7);

    // Two requests queued at rank 0, one already taken off rank 0's queue.
    let queued = [
        hub.exchange_request(2, 0, ps(&[1.0])),
        hub.exchange_request(3, 0, ps(&[2.0])),
        hub.exchange_request(1, 0, ps(&[3.0])),
    ];
    assert!(matches!(
        hub.exchange_next(0, false),
        Some(PeerItem::Exchange { .. })
    ));
    hub.coll_send(1, 0, ps(&[9.0]));
    // An exchange at a healthy rank is not touched.
    let healthy = hub.exchange_request(2, 3, ps(&[5.0]));

    hub.evict(0);
    hub.evict(0); // idempotent

    for token in queued {
        assert!(matches!(hub.exchange_await(token, None), Reply::Gone));
    }
    assert!(matches!(
        hub.exchange_await(healthy, Some(Duration::ZERO)),
        Reply::TimedOut
    ));
    assert!(
        hub.exchange_next(0, false).is_none(),
        "the victim's queue is dropped"
    );
    assert!(hub.coll_recv(0, Some(Duration::ZERO)).is_none());
    // Rank 0 was an active: each passive hears its Done exactly once.
    assert!(matches!(hub.exchange_next(1, false), Some(PeerItem::Done)));
    assert!(hub.exchange_next(1, false).is_none());
    assert!(matches!(
        hub.exchange_next(3, false),
        Some(PeerItem::Exchange { .. })
    ));
    assert!(matches!(hub.exchange_next(3, false), Some(PeerItem::Done)));
    assert!(hub.exchange_next(3, false).is_none());
    // Its SSP clock is parked: the survivors' minimum no longer waits on it.
    assert_eq!(hub.ps().wait_for_min_clock(7), 7);
    // A request at the evicted rank resolves on the spot.
    let after = hub.exchange_request(2, 0, ps(&[1.0]));
    assert!(matches!(hub.exchange_await(after, None), Reply::Gone));
    // So does one at a rank that does not exist (a rank id is wire input).
    let nowhere = hub.exchange_request(2, 99, ps(&[1.0]));
    assert!(matches!(hub.exchange_await(nowhere, None), Reply::Gone));

    // A passive's death synthesizes nothing.
    hub.evict(1);
    assert!(hub.exchange_next(3, false).is_none());
}

#[test]
fn retire_resolves_requests_a_finished_rank_will_never_serve() {
    let hub = Hub::new(ps(&[0.0]), &plan(2), None);
    let token = hub.exchange_request(0, 1, ps(&[1.0]));
    hub.retire(1);
    assert!(matches!(hub.exchange_await(token, None), Reply::Gone));
    // Retiring is not dying: later requests still queue.
    let token = hub.exchange_request(0, 1, ps(&[1.0]));
    assert!(matches!(
        hub.exchange_await(token, Some(Duration::ZERO)),
        Reply::TimedOut
    ));
}

#[test]
fn mailboxes_route_by_rank() {
    let hub = Hub::new(ps(&[0.0]), &plan(2), None);
    hub.gossip_send(1, ps(&[1.0]), 0.5);
    hub.gossip_send(1, ps(&[2.0]), 0.25);
    hub.gossip_send(7, ps(&[3.0]), 0.1); // outside the cohort: ignored
    assert!(hub.gossip_drain(0).is_empty());
    let got = hub.gossip_drain(1);
    assert_eq!(got.iter().map(|(_, a)| *a).collect::<Vec<_>>(), [0.5, 0.25]);
    assert!(hub.gossip_drain(1).is_empty());

    hub.coll_send(0, 1, ps(&[4.0]));
    let (sender, payload) = hub.coll_recv(1, None).expect("queued item");
    assert_eq!((sender, payload.0[0].data()), (0, &[4.0f32][..]));

    hub.announce_done(0);
    assert!(matches!(hub.exchange_next(1, true), Some(PeerItem::Done)));
    assert!(
        hub.exchange_next(0, false).is_none(),
        "only passives hear Done"
    );
}

#[test]
fn shutdown_releases_every_kind_of_waiter() {
    let view = MembershipView::from_events(2, &[], &[]);
    let hub = Hub::new(ps(&[1.0]), &plan(2), None);
    let token = hub.exchange_request(0, 1, ps(&[1.0]));
    assert!(hub.exchange_next(1, false).is_some());
    std::thread::scope(|scope| {
        // Each would block forever: an empty mailbox, an unanswered token,
        // a round one member short with no deadline. Whether a waiter
        // parks before or after the shutdown, it must come back.
        let mailbox = scope.spawn(|| hub.exchange_next(0, true).is_none());
        let coll = scope.spawn(|| hub.coll_recv(0, None).is_none());
        let reply = scope.spawn(|| matches!(hub.exchange_await(token, None), Reply::Gone));
        let member = scope.spawn(|| round(&hub, seat(0, 0, Some(&view), None), (ps(&[1.0]), 1)));
        while hub.deposits(0) != 1 {
            std::thread::yield_now();
        }
        hub.shutdown();
        assert!(mailbox.join().expect("mailbox waiter"));
        assert!(coll.join().expect("coll waiter"));
        assert!(reply.join().expect("token waiter"));
        let out = member.join().expect("barrier member");
        assert_eq!(out.arrived, None, "a released member closes nothing");
        assert_eq!(out.params.0[0].data(), &[1.0]);
    });
}
