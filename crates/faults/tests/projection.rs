//! The membership projection, pinned: for every schedule the goldens and
//! studies run, the death round, the rejoin round and the live cohort at
//! each of rounds 0..=40. A rewrite of `MembershipView` must pass this
//! table unmodified.

use dtrain_desim::SimTime;
use dtrain_faults::{ElasticConfig, FaultEvent, FaultKind, FaultSchedule, MembershipView};

/// One worker crash at `at_ms`, optionally restarting `restart_s` later.
fn one_crash(at_ms: u64, worker: usize, restart_s: Option<u64>) -> FaultSchedule {
    FaultSchedule::new(vec![FaultEvent {
        at: SimTime::from_millis(at_ms),
        kind: FaultKind::WorkerCrash {
            worker,
            restart_after: restart_s.map(SimTime::from_secs),
        },
    }])
}

fn projected(schedule: &FaultSchedule, workers: usize) -> MembershipView {
    MembershipView::from_schedule(schedule, workers, &ElasticConfig::default())
}

struct Case {
    name: &'static str,
    view: MembershipView,
    workers: usize,
    /// `(worker, death round, rejoin round)`; unlisted workers never die.
    fates: &'static [(usize, u64, Option<u64>)],
    /// `(first round, live cohort)`: the cohort holds until the next entry.
    spans: &'static [(u64, &'static [usize])],
}

fn cases() -> Vec<Case> {
    const ALL4: &[usize] = &[0, 1, 2, 3];
    const ALL16: &[usize] = &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15];
    const BUT1_OF16: &[usize] = &[0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15];
    vec![
        Case {
            name: "fault matrix v1, 2 s restart",
            view: projected(&one_crash(100, 1, Some(2)), 4),
            workers: 4,
            fates: &[(1, 1, Some(11))],
            spans: &[(0, ALL4), (1, &[0, 2, 3]), (11, ALL4)],
        },
        Case {
            name: "fault matrix v2, 2 s restart",
            view: projected(&one_crash(100, 2, Some(2)), 4),
            workers: 4,
            fates: &[(2, 1, Some(11))],
            spans: &[(0, ALL4), (1, &[0, 1, 3]), (11, ALL4)],
        },
        Case {
            name: "fault matrix v1, permanent",
            view: projected(&one_crash(100, 1, None), 4),
            workers: 4,
            fates: &[(1, 1, None)],
            spans: &[(0, ALL4), (1, &[0, 2, 3])],
        },
        Case {
            name: "fault matrix v2, permanent",
            view: projected(&one_crash(100, 2, None), 4),
            workers: 4,
            fates: &[(2, 1, None)],
            spans: &[(0, ALL4), (1, &[0, 1, 3])],
        },
        Case {
            name: "cross_path_metrics' loss and rejoin, as events",
            view: MembershipView::from_events(4, &[(1, 1)], &[(1, 11)]),
            workers: 4,
            fates: &[(1, 1, Some(11))],
            spans: &[(0, ALL4), (1, &[0, 2, 3]), (11, ALL4)],
        },
        Case {
            name: "fault_study one_loss, permanent",
            view: projected(&one_crash(200, 1, None), 16),
            workers: 16,
            fates: &[(1, 1, None)],
            spans: &[(0, ALL16), (1, BUT1_OF16)],
        },
        Case {
            name: "fault_study one_loss, 2 s restart",
            view: projected(&one_crash(200, 1, Some(2)), 16),
            workers: 16,
            fates: &[(1, 1, Some(11))],
            spans: &[(0, ALL16), (1, BUT1_OF16), (11, ALL16)],
        },
        Case {
            name: "from_schedule: a crash at 0 ms still runs round 0",
            view: projected(&one_crash(0, 3, Some(0)), 4),
            workers: 4,
            fates: &[(3, 1, Some(2))],
            spans: &[(0, ALL4), (1, &[0, 1, 2]), (2, ALL4)],
        },
        Case {
            name: "from_events: a round-0 death clamps to 1",
            view: MembershipView::from_events(3, &[(0, 0)], &[]),
            workers: 3,
            fates: &[(0, 1, None)],
            spans: &[(0, &[0, 1, 2]), (1, &[1, 2])],
        },
        Case {
            name: "from_events: a rejoin at or before the death clamps to death + 1",
            view: MembershipView::from_events(
                4,
                &[(0, 0), (2, 5), (3, 7)],
                &[(0, 0), (2, 5), (3, 3)],
            ),
            workers: 4,
            fates: &[(0, 1, Some(2)), (2, 5, Some(6)), (3, 7, Some(8))],
            spans: &[
                (0, ALL4),
                (1, &[1, 2, 3]),
                (2, ALL4),
                (5, &[0, 1, 3]),
                (6, ALL4),
                (7, &[0, 1, 2]),
                (8, ALL4),
            ],
        },
        Case {
            name: "from_events: first death wins, rejoins of the living are dropped",
            view: MembershipView::from_events(3, &[(1, 4), (1, 2)], &[(2, 9), (1, 20)]),
            workers: 3,
            fates: &[(1, 4, Some(20))],
            spans: &[(0, &[0, 1, 2]), (4, &[0, 2]), (20, &[0, 1, 2])],
        },
    ]
}

#[test]
fn membership_projection_is_pinned() {
    for case in cases() {
        for w in 0..case.workers {
            let fate = case.fates.iter().find(|f| f.0 == w);
            assert_eq!(
                case.view.death_round(w),
                fate.map(|f| f.1),
                "{}: death round of worker {w}",
                case.name
            );
            assert_eq!(
                case.view.rejoin_round(w),
                fate.and_then(|f| f.2),
                "{}: rejoin round of worker {w}",
                case.name
            );
        }
        for round in 0..=40u64 {
            let want = case
                .spans
                .iter()
                .rev()
                .find(|&&(from, _)| from <= round)
                .map(|&(_, live)| live)
                .unwrap();
            assert_eq!(
                case.view.live_at(round),
                want,
                "{}: live cohort at round {round}",
                case.name
            );
            for w in 0..case.workers {
                assert_eq!(
                    case.view.is_live(w, round),
                    want.contains(&w),
                    "{}: is_live({w}, {round})",
                    case.name
                );
            }
        }
    }
}
