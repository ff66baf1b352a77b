//! The seven algorithms of the paper (Table I) — the one vocabulary every
//! execution path speaks: the simulator (`dtrain-algos`), the threaded
//! runtime and the process path (`dtrain-runtime::worker_body`).
//!
//! It lives here, below all three, because the decisions a path would
//! otherwise make alone belong to the algorithm: how the degradation
//! controller's [`CtrlAction`] relaxes it, what EASGD's moving rate
//! defaults to, which hyperparameters cannot run at all, and each worker's
//! own choices (DESIGN.md §3b lists their callers on every path).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::chaos::CtrlAction;

/// The seven algorithms of the paper (Table I), with their hyperparameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Algo {
    /// Bulk Synchronous Parallel (centralized, synchronous).
    Bsp,
    /// Asynchronous Parallel (centralized, asynchronous).
    Asp,
    /// Stale Synchronous Parallel with staleness threshold `s`.
    Ssp { staleness: u64 },
    /// Elastic Averaging SGD with communication period `tau` and moving
    /// rate `alpha` (the paper's recommended α = 0.9/N when `None`).
    Easgd { tau: u64, alpha: Option<f32> },
    /// AllReduce SGD (decentralized, synchronous; ring collective). On the
    /// real paths it is one synchronous mean per round through the hub —
    /// the BSP arm, flat or hierarchical; only the simulator models a ring.
    ArSgd,
    /// Gossip SGD with exchange probability `p`.
    GoSgd { p: f64 },
    /// Asynchronous Decentralized Parallel SGD (bipartite pairing).
    AdPsgd,
}

impl Algo {
    pub fn name(&self) -> &'static str {
        match self {
            Algo::Bsp => "BSP",
            Algo::Asp => "ASP",
            Algo::Ssp { .. } => "SSP",
            Algo::Easgd { .. } => "EASGD",
            Algo::ArSgd => "AR-SGD",
            Algo::GoSgd { .. } => "GoSGD",
            Algo::AdPsgd => "AD-PSGD",
        }
    }

    /// Centralized algorithms use parameter servers.
    pub fn is_centralized(&self) -> bool {
        matches!(
            self,
            Algo::Bsp | Algo::Asp | Algo::Ssp { .. } | Algo::Easgd { .. }
        )
    }

    /// Synchronous algorithms keep replicas identical every iteration.
    pub fn is_synchronous(&self) -> bool {
        matches!(self, Algo::Bsp | Algo::ArSgd)
    }

    /// Algorithms that communicate gradients (vs. parameters); only these
    /// admit wait-free BP and DGC (paper §V-B/C).
    pub fn communicates_gradients(&self) -> bool {
        matches!(self, Algo::Bsp | Algo::Asp | Algo::Ssp { .. } | Algo::ArSgd)
    }

    /// Does a rank that rejoins resume from its own worker checkpoint? Only
    /// the two without a server to pull (GoSGD, AD-PSGD). Every other
    /// rejoiner adopts the server's current parameters, so its periodic
    /// checkpoints are never read and the real paths need not take them.
    pub fn restores_from_checkpoint(&self) -> bool {
        matches!(self, Algo::GoSgd { .. } | Algo::AdPsgd)
    }

    /// The algorithm a run continues under after the degradation
    /// controller's verdict: only BSP relaxes, to SSP (the barrier is what
    /// a straggler poisons; the others already decouple). `EnableDgc`
    /// leaves the algorithm alone — the simulator turns it into a DGC
    /// option, the real paths cannot change what they put on the wire.
    pub fn degraded(self, action: CtrlAction) -> Algo {
        match (self, action) {
            (Algo::Bsp, CtrlAction::SwitchToSsp { staleness }) => Algo::Ssp { staleness },
            _ => self,
        }
    }

    /// EASGD's moving rate at `workers` workers: `alpha` when configured,
    /// else the paper's recommended 0.9/N.
    pub fn easgd_alpha(alpha: Option<f32>, workers: usize) -> f32 {
        alpha.unwrap_or(0.9 / workers as f32)
    }

    /// Rank `rank`'s stream of peer draws under run seed `seed`: GoSGD's
    /// gate and targets, an AD-PSGD active's partners.
    pub fn peer_rng(seed: u64, rank: usize) -> SmallRng {
        SmallRng::seed_from_u64(seed ^ (rank as u64).wrapping_mul(0xD134_2543_DE82_EF95))
    }

    /// AD-PSGD's bipartite role split (paper §IV-C): even ranks are active
    /// (they initiate exchanges), odd ranks passive (they answer). Actives
    /// only ever wait on passives, so the wait graph is acyclic.
    pub fn adpsgd_is_active(rank: usize) -> bool {
        rank.is_multiple_of(2)
    }

    /// The ranks of one AD-PSGD role among `workers`, ascending.
    pub fn adpsgd_ranks(workers: usize, active: bool) -> Vec<usize> {
        (0..workers)
            .filter(|&w| Algo::adpsgd_is_active(w) == active)
            .collect()
    }

    /// The passive an AD-PSGD active exchanges with this iteration, drawn
    /// from `rng` among `passives`. An elastic run passes the ranks it may
    /// pair with now (`live`) and draws among the passives in it; `None`
    /// when none is, a purely local iteration.
    pub fn adpsgd_partner(
        passives: &[usize],
        rng: &mut SmallRng,
        live: Option<Vec<usize>>,
    ) -> Option<usize> {
        let may_pair = |v: &usize| live.as_ref().is_none_or(|live| live.contains(v));
        let among: Vec<usize> = passives.iter().copied().filter(may_pair).collect();
        draw(rng, &among)
    }

    /// GoSGD's share (Blot et al.): with probability `p` rank `rank` of
    /// `workers` sends its replica to a peer drawn from `rng`, and this is
    /// that peer. The gate draws first, so `live` (the live ranks of an
    /// elastic run, `None` in a classic one) is asked for only when the
    /// rank shares; an elastic rank alone in its cohort shares with nobody.
    pub fn gossip_target(
        p: f64,
        rank: usize,
        workers: usize,
        rng: &mut SmallRng,
        live: impl FnOnce() -> Option<Vec<usize>>,
    ) -> Option<usize> {
        if workers < 2 || rng.gen::<f64>() >= p {
            return None;
        }
        match live() {
            Some(mut live) => {
                live.retain(|&v| v != rank);
                draw(rng, &live)
            }
            None => std::iter::repeat_with(|| rng.gen_range(0..workers)).find(|&t| t != rank),
        }
    }

    /// SSP's read rule (Ho et al.): a worker at `clock` whose cache is fresh
    /// as of `cache_ts` must refresh once it is more than `staleness` ahead,
    /// and the refresh waits until the slowest live clock reaches the
    /// returned floor, `clock − staleness`. `None` while the cache serves.
    pub fn ssp_refresh_floor(clock: u64, cache_ts: u64, staleness: u64) -> Option<u64> {
        // Checked in every build: a reply carrying the clock the hub parks a
        // lost worker at (`u64::MAX`) must fail here, not wrap into a pass.
        let fresh_until = cache_ts
            .checked_add(staleness)
            .expect("SSP cache clock is the parked clock u64::MAX");
        (clock > fresh_until).then(|| clock - staleness)
    }

    /// Does EASGD exchange with the center at the end of round `round`?
    /// Every `tau`-th round, counted in rounds of the run, so a rank that
    /// sat rounds out keeps the cohort's cadence.
    pub fn easgd_exchanges(round: u64, tau: u64) -> bool {
        (round + 1).is_multiple_of(tau)
    }

    /// Reject hyperparameters this algorithm cannot run with at `workers`
    /// workers — checked by every path before anything starts.
    pub fn validate(&self, workers: usize) -> Result<(), String> {
        match *self {
            Algo::Easgd { tau: 0, .. } => Err("EASGD communication period τ must be ≥ 1".into()),
            Algo::GoSgd { p } if !(0.0..=1.0).contains(&p) => {
                Err(format!("GoSGD probability {p} out of [0,1]"))
            }
            Algo::GoSgd { p } if p > 0.0 && workers < 2 => {
                Err("GoSGD with p > 0 needs ≥ 2 workers (no gossip target)".into())
            }
            Algo::AdPsgd if workers < 2 => Err("AD-PSGD needs ≥ 2 workers".into()),
            _ => Ok(()),
        }
    }
}

/// One of `among`, drawn from `rng`; `None` when there is none.
fn draw(rng: &mut SmallRng, among: &[usize]) -> Option<usize> {
    (!among.is_empty()).then(|| among[rng.gen_range(0..among.len())])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_classes() {
        assert!(Algo::Bsp.is_centralized());
        assert!(Algo::Bsp.is_synchronous());
        assert!(!Algo::ArSgd.is_centralized());
        assert!(Algo::ArSgd.is_synchronous());
        assert!(!Algo::AdPsgd.is_synchronous());
        assert!(Algo::Ssp { staleness: 3 }.communicates_gradients());
        assert!(!Algo::Easgd {
            tau: 8,
            alpha: None
        }
        .communicates_gradients());
        assert_eq!(Algo::GoSgd { p: 0.5 }.name(), "GoSGD");
    }

    #[test]
    fn degraded_relaxes_bsp_only() {
        let ssp = CtrlAction::SwitchToSsp { staleness: 3 };
        assert_eq!(Algo::Bsp.degraded(ssp), Algo::Ssp { staleness: 3 });
        assert_eq!(Algo::Bsp.degraded(CtrlAction::Stay), Algo::Bsp);
        assert_eq!(Algo::Bsp.degraded(CtrlAction::EnableDgc), Algo::Bsp);
        for algo in [
            Algo::Asp,
            Algo::Ssp { staleness: 7 },
            Algo::Easgd {
                tau: 4,
                alpha: None,
            },
            Algo::ArSgd,
            Algo::GoSgd { p: 0.1 },
            Algo::AdPsgd,
        ] {
            for action in [ssp, CtrlAction::Stay, CtrlAction::EnableDgc] {
                assert_eq!(
                    algo.degraded(action),
                    algo,
                    "{} under {action:?}",
                    algo.name()
                );
            }
        }
    }

    /// The decentralized pair restores from a checkpoint; every algorithm
    /// with a server (or, AR-SGD, the hub's synchronous mean) pulls it.
    #[test]
    fn only_serverless_rejoiners_restore_from_a_checkpoint() {
        let easgd = Algo::Easgd {
            tau: 4,
            alpha: None,
        };
        let all = [
            (Algo::Bsp, false),
            (Algo::Asp, false),
            (Algo::Ssp { staleness: 3 }, false),
            (easgd, false),
            (Algo::ArSgd, false),
            (Algo::GoSgd { p: 0.1 }, true),
            (Algo::AdPsgd, true),
        ];
        for (algo, restores) in all {
            assert_eq!(algo.restores_from_checkpoint(), restores, "{}", algo.name());
        }
    }

    #[test]
    fn easgd_alpha_defaults_to_the_papers_rate() {
        assert_eq!(Algo::easgd_alpha(None, 4), 0.9 / 4.0);
        assert_eq!(Algo::easgd_alpha(Some(0.25), 4), 0.25);
    }

    #[test]
    fn validation_catches_unrunnable_hyperparameters() {
        assert!(Algo::Bsp.validate(1).is_ok());
        let easgd = |tau| Algo::Easgd { tau, alpha: None };
        assert!(easgd(1).validate(2).is_ok());
        assert!(easgd(0).validate(2).is_err(), "τ = 0 never averages");
        assert!(Algo::GoSgd { p: 1.0 }.validate(2).is_ok());
        assert!(Algo::GoSgd { p: 1.5 }.validate(2).is_err());
        assert!(Algo::GoSgd { p: -0.1 }.validate(2).is_err());
        assert!(Algo::GoSgd { p: f64::NAN }.validate(2).is_err());
        assert!(
            Algo::GoSgd { p: 0.5 }.validate(1).is_err(),
            "no gossip target"
        );
        assert!(Algo::GoSgd { p: 0.0 }.validate(1).is_ok());
        assert!(Algo::AdPsgd.validate(2).is_ok());
        assert!(Algo::AdPsgd.validate(1).is_err(), "no passive to pair with");
    }
}
