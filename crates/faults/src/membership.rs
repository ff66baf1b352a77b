//! Elastic membership: a deterministic view of which workers are in the
//! cohort at every training round, derived from the
//! [`FaultSchedule`](crate::FaultSchedule) so elastic runs stay
//! bit-reproducible.
//!
//! The view is *round-indexed*, not time-indexed: a crash instant from the
//! schedule is mapped onto a global round number via
//! [`ElasticConfig::round_estimate`] (the heartbeat period — one missed
//! heartbeat per round). Both execution paths count rounds, so the same
//! plan yields the same membership history in the simulator and in the
//! threaded runtime, which is what lets cross-path tests pin the final
//! cohort exactly.
//!
//! State machine per worker (all transitions at round boundaries):
//!
//! ```text
//! alive ──death──▶ evicted ──restart──▶ rejoined
//! ```
//!
//! * **alive → evicted**: the worker misses its heartbeat (its death
//!   round). The cohort drops it at once and topology repairs (ring
//!   shrinks, peer graph re-knits, barriers re-size, PS slots drop).
//! * **evicted → rejoined**: a restarted worker re-enters at the current
//!   round with the server's parameters, or, without a server (GoSGD,
//!   AD-PSGD), its own last checkpoint ([`crate::Algo::restores_from_checkpoint`]).

use std::sync::Arc;

use crate::FaultSchedule;
use dtrain_desim::SimTime;

/// Tunables for the elastic layer, shared by both execution paths.
#[derive(Clone, Debug, PartialEq)]
pub struct ElasticConfig {
    /// Nominal duration of one training round; the heartbeat period used to
    /// project schedule times onto round numbers.
    pub round_estimate: SimTime,
    /// Per-transfer deadline; a transfer that would exceed it is cut off
    /// and retried with exponential backoff.
    pub transfer_deadline: SimTime,
    /// BSP-only: how long a round may stay open after its first arrival
    /// before the barrier degrades to a *partial* barrier over the members
    /// present (stragglers are served out-of-round when they show up).
    pub barrier_deadline: SimTime,
    /// Retry attempts after the first try (bounded).
    pub max_retries: u32,
    /// Base backoff before the first retry; doubles per attempt.
    pub retry_backoff: SimTime,
    /// Extra recovery latency charged when a PS shard fails over to a
    /// surviving machine (on top of the state-transfer wire time).
    pub ps_recovery_delay: SimTime,
}

impl Default for ElasticConfig {
    fn default() -> Self {
        ElasticConfig {
            round_estimate: SimTime::from_millis(200),
            transfer_deadline: SimTime::from_millis(500),
            barrier_deadline: SimTime::from_secs(2),
            max_retries: 3,
            retry_backoff: SimTime::from_millis(10),
            ps_recovery_delay: SimTime::from_millis(100),
        }
    }
}

/// Elastic-membership handle of one run: the shared deterministic view
/// plus the layer's tunables. Every simulated worker and PS shard, and
/// every worker thread, holds a clone of the same `Arc`, so every party
/// derives topology from identical history.
#[derive(Clone, Debug)]
pub struct ElasticRuntime {
    pub view: Arc<MembershipView>,
    pub cfg: ElasticConfig,
}

/// Deterministic membership history: per worker, the round it dies and the
/// round it rejoins (if ever).
#[derive(Clone, Debug, PartialEq)]
pub struct MembershipView {
    /// Round the worker stops participating (misses its first heartbeat).
    death: Vec<Option<u64>>,
    /// Round it re-enters, if it restarts.
    rejoin: Vec<Option<u64>>,
}

impl MembershipView {
    /// A fixed cohort: everyone alive forever.
    pub fn all_alive(workers: usize) -> Self {
        MembershipView {
            death: vec![None; workers],
            rejoin: vec![None; workers],
        }
    }

    /// Derive the view from a fault schedule: each worker's *first* crash
    /// becomes its death round (`ceil(at / round_estimate)`, clamped ≥ 1 so
    /// every member participates in round 0); `restart_after` becomes a
    /// rejoin round at least one round after the death.
    pub fn from_schedule(schedule: &FaultSchedule, workers: usize, cfg: &ElasticConfig) -> Self {
        let mut view = MembershipView::all_alive(workers);
        let est = cfg.round_estimate.as_nanos().max(1);
        for w in 0..workers {
            if let Some((at, restart)) = schedule.crashes_for(w).first() {
                let death = (at.as_nanos().div_ceil(est)).max(1);
                view.death[w] = Some(death);
                view.rejoin[w] = restart.map(|d| death + (d.as_nanos().div_ceil(est)).max(1));
            }
        }
        view
    }

    /// Build from explicit `(worker, round)` events — the form the threaded
    /// runtime uses (its schedule is already iteration-indexed) and the
    /// form cross-path tests share between both paths. A worker's first
    /// death counts (clamped ≥ 1); a rejoin clamps to `death + 1`.
    pub fn from_events(workers: usize, deaths: &[(usize, u64)], rejoins: &[(usize, u64)]) -> Self {
        let mut view = MembershipView::all_alive(workers);
        for &(w, r) in deaths {
            if w < workers && view.death[w].is_none() {
                view.death[w] = Some(r.max(1));
            }
        }
        for &(w, r) in rejoins {
            if w < workers {
                if let Some(d) = view.death[w] {
                    view.rejoin[w] = Some(r.max(d + 1));
                }
            }
        }
        view
    }

    /// Is the worker participating (training, exchanging) at `round`:
    /// before its death, or from its rejoin on?
    pub fn is_live(&self, worker: usize, round: u64) -> bool {
        match self.death[worker] {
            Some(d) if round >= d => self.rejoin[worker].is_some_and(|rj| round >= rj),
            _ => true,
        }
    }

    /// Workers participating at `round`, ascending.
    pub fn live_at(&self, round: u64) -> Vec<usize> {
        (0..self.death.len())
            .filter(|&w| self.is_live(w, round))
            .collect()
    }

    /// Death round of `worker` (first missed heartbeat), if it ever dies.
    pub fn death_round(&self, worker: usize) -> Option<u64> {
        self.death[worker]
    }

    /// Rejoin round of `worker`, if it ever rejoins.
    pub fn rejoin_round(&self, worker: usize) -> Option<u64> {
        self.rejoin[worker]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultEvent, FaultKind};

    fn crash(at_secs: u64, worker: usize, restart: Option<u64>) -> FaultEvent {
        FaultEvent {
            at: SimTime::from_secs(at_secs),
            kind: FaultKind::WorkerCrash {
                worker,
                restart_after: restart.map(SimTime::from_secs),
            },
        }
    }

    #[test]
    fn schedule_projection_maps_times_to_rounds() {
        let sched = FaultSchedule::new(vec![crash(3, 1, None), crash(5, 2, Some(4))]);
        let cfg = ElasticConfig {
            round_estimate: SimTime::from_secs(1),
            ..Default::default()
        };
        let view = MembershipView::from_schedule(&sched, 4, &cfg);
        assert_eq!(view.death_round(1), Some(3));
        assert_eq!(view.rejoin_round(1), None);
        assert_eq!(view.death_round(2), Some(5));
        assert_eq!(view.rejoin_round(2), Some(9));
        assert_eq!(view.death_round(0), None);
        // Round 0 always has the full cohort.
        assert_eq!(view.live_at(0), vec![0, 1, 2, 3]);
        assert_eq!(view.live_at(4), vec![0, 2, 3]);
        assert_eq!(view.live_at(6), vec![0, 3]);
        assert_eq!(view.live_at(9), vec![0, 2, 3]);
    }
}
