//! The worker-side decisions every execution path takes from `Algo`: the
//! peer-draw stream, AD-PSGD's roles and partner, GoSGD's share, SSP's
//! refresh floor and EASGD's exchange cadence.

use dtrain_faults::Algo;

#[test]
fn adpsgd_roles_split_by_parity() {
    assert_eq!(Algo::adpsgd_ranks(6, true), vec![0, 2, 4]);
    assert_eq!(Algo::adpsgd_ranks(6, false), vec![1, 3, 5]);
}

#[test]
fn adpsgd_partners_are_live_passives() {
    let passives = Algo::adpsgd_ranks(6, false);
    let mut rng = Algo::peer_rng(11, 0);
    for _ in 0..32 {
        let p = Algo::adpsgd_partner(&passives, &mut rng, None);
        assert!(p.is_some_and(|p| passives.contains(&p)), "{p:?}");
    }
    let live = |ranks: &[usize]| Some(ranks.to_vec());
    assert_eq!(
        Algo::adpsgd_partner(&passives, &mut rng, live(&[0, 3, 4])),
        Some(3)
    );
    assert_eq!(
        Algo::adpsgd_partner(&passives, &mut rng, live(&[0, 2])),
        None
    );
}

#[test]
fn gossip_asks_for_the_live_set_only_when_it_shares() {
    let mut rng = Algo::peer_rng(11, 2);
    let unasked = || -> Option<Vec<usize>> { panic!("asked for the live set") };
    assert_eq!(Algo::gossip_target(0.0, 2, 4, &mut rng, unasked), None);
    assert_eq!(Algo::gossip_target(1.0, 0, 1, &mut rng, unasked), None);
    for _ in 0..32 {
        let t = Algo::gossip_target(1.0, 2, 4, &mut rng, || None);
        assert!(t.is_some_and(|t| t < 4 && t != 2), "{t:?}");
    }
    let live = || Some(vec![1, 2]);
    assert_eq!(Algo::gossip_target(1.0, 2, 4, &mut rng, live), Some(1));
    assert_eq!(
        Algo::gossip_target(1.0, 2, 4, &mut rng, || Some(vec![2])),
        None
    );
}

#[test]
fn ssp_refreshes_past_the_staleness_bound() {
    assert_eq!(Algo::ssp_refresh_floor(3, 0, 3), None);
    assert_eq!(Algo::ssp_refresh_floor(4, 0, 3), Some(1));
    assert_eq!(Algo::ssp_refresh_floor(9, 4, 3), Some(6));
    assert_eq!(Algo::ssp_refresh_floor(1, 0, 0), Some(1));
}

#[test]
#[should_panic(expected = "parked clock")]
fn ssp_refuses_a_parked_cache_clock() {
    let _ = Algo::ssp_refresh_floor(5, u64::MAX, 1);
}

#[test]
fn easgd_exchanges_on_rounds_of_the_run() {
    let at: Vec<u64> = (0..12).filter(|&r| Algo::easgd_exchanges(r, 4)).collect();
    assert_eq!(at, [3, 7, 11]);
}
