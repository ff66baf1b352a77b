//! The fault-schedule DSL: concrete, fully deterministic lists of fault
//! events, either written out by hand or generated from a seeded
//! [`FaultPlan`] (rate-based, Poisson arrivals).
//!
//! A schedule is *data*: the execution paths (the DES simulator in
//! `dtrain-algos`, the threaded runtime in `dtrain-runtime`) read it and
//! apply each fault with their own mechanics. Identical seed + plan ⇒
//! identical schedule ⇒ identical run, which is what makes fault
//! experiments reproducible.

use dtrain_desim::SimTime;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One class of injected fault.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultKind {
    /// The worker crashes, losing all in-memory state. With
    /// `restart_after = Some(d)` a replacement starts `d` later and
    /// recovers from the last checkpoint; `None` is a permanent loss.
    WorkerCrash {
        worker: usize,
        restart_after: Option<SimTime>,
    },
    /// A parameter-server shard goes down for `outage`; on recovery its
    /// parameter state rolls back to the last checkpoint. Requests queue
    /// while it is dark.
    PsShardFail { shard: usize, outage: SimTime },
    /// The machine's NIC degrades: effective bandwidth is multiplied by
    /// `factor` for `duration`. `factor = 0.0` models a partition window.
    LinkDegrade {
        machine: usize,
        factor: f64,
        duration: SimTime,
    },
    /// A persistent straggler: the worker's compute is `slowdown`× slower
    /// from `at` onward (the paper's §straggler analysis knob).
    Straggler { worker: usize, slowdown: f64 },
}

/// A fault and the virtual instant it fires.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultEvent {
    pub at: SimTime,
    pub kind: FaultKind,
}

/// An ordered, deterministic list of fault events.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// Build a schedule; events are sorted by time (stable, so same-time
    /// events keep their construction order).
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        FaultSchedule { events }
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Crash instants for one worker as `(at, restart_after)`.
    pub fn crashes_for(&self, worker: usize) -> Vec<(SimTime, Option<SimTime>)> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::WorkerCrash {
                    worker: w,
                    restart_after,
                } if w == worker => Some((e.at, restart_after)),
                _ => None,
            })
            .collect()
    }

    /// Outage windows for one PS shard as `(at, outage)`.
    pub fn ps_failures_for(&self, shard: usize) -> Vec<(SimTime, SimTime)> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::PsShardFail { shard: s, outage } if s == shard => Some((e.at, outage)),
                _ => None,
            })
            .collect()
    }

    /// All link-degradation windows as `(at, machine, factor, duration)`.
    pub fn link_faults(&self) -> Vec<(SimTime, usize, f64, SimTime)> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::LinkDegrade {
                    machine,
                    factor,
                    duration,
                } => Some((e.at, machine, factor, duration)),
                _ => None,
            })
            .collect()
    }

    /// Compound persistent slowdown for a worker (product of its straggler
    /// events; 1.0 when none).
    pub fn straggler_slowdown(&self, worker: usize) -> f64 {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::Straggler {
                    worker: w,
                    slowdown,
                } if w == worker => Some(slowdown),
                _ => None,
            })
            .product::<f64>()
            .max(f64::MIN_POSITIVE)
    }

    /// All `(worker, slowdown)` straggler entries.
    pub fn stragglers(&self) -> Vec<(usize, f64)> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::Straggler { worker, slowdown } => Some((worker, slowdown)),
                _ => None,
            })
            .collect()
    }
}

/// A per-worker, iteration-indexed projection of a schedule, for execution
/// paths that count iterations instead of virtual time (the threaded
/// runtime).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RuntimeFaultSchedule {
    /// `(worker, iteration)` crash points; the worker loses its replica
    /// state at that local iteration and restores from its checkpoint.
    pub crashes: Vec<(usize, u64)>,
    /// `(worker, slowdown)` persistent stragglers (compute-time multiplier).
    pub stragglers: Vec<(usize, f64)>,
    /// `(iteration, outage_iterations)` PS-shard outage windows, keyed on
    /// the *global* iteration counter.
    pub ps_outages: Vec<(u64, u64)>,
}

impl RuntimeFaultSchedule {
    pub fn crash_iterations_for(&self, worker: usize) -> Vec<u64> {
        self.crashes
            .iter()
            .filter(|(w, _)| *w == worker)
            .map(|(_, it)| *it)
            .collect()
    }

    pub fn straggler_slowdown(&self, worker: usize) -> f64 {
        self.stragglers
            .iter()
            .filter(|(w, _)| *w == worker)
            .map(|(_, s)| *s)
            .product::<f64>()
            .max(f64::MIN_POSITIVE)
    }
}

/// Rate-based fault generator: expected event counts over a horizon plus a
/// seed, expanded into a concrete [`FaultSchedule`] with Poisson arrival
/// counts and uniform arrival times. Same plan + same seed ⇒ identical
/// schedule, bit for bit.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    pub seed: u64,
    /// Faults are generated in `[0, horizon)`.
    pub horizon: SimTime,
    /// Expected number of worker crashes over the horizon.
    pub expected_crashes: f64,
    /// Delay before a crashed worker restarts; `None` = crashes are
    /// permanent.
    pub restart_after: Option<SimTime>,
    /// Expected number of link-degradation windows over the horizon.
    pub expected_link_faults: f64,
    /// Bandwidth multiplier during a degradation window (0 = partition).
    pub degrade_factor: f64,
    pub degrade_duration: SimTime,
    /// Expected number of PS-shard outages over the horizon.
    pub expected_ps_failures: f64,
    pub ps_outage: SimTime,
    /// Persistent stragglers, injected at t = 0.
    pub stragglers: Vec<(usize, f64)>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            horizon: SimTime::from_secs(60),
            expected_crashes: 0.0,
            restart_after: Some(SimTime::from_secs(5)),
            expected_link_faults: 0.0,
            degrade_factor: 0.1,
            degrade_duration: SimTime::from_secs(5),
            expected_ps_failures: 0.0,
            ps_outage: SimTime::from_secs(2),
            stragglers: Vec::new(),
        }
    }
}

/// Knuth's Poisson sampler; fine for the small λ fault rates and chaos
/// traces use.
pub(crate) fn poisson(rng: &mut SmallRng, lambda: f64) -> usize {
    if lambda <= 0.0 {
        return 0;
    }
    let l = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

impl FaultPlan {
    /// Expand into a simulator schedule for a cluster of `workers` workers
    /// on `machines` machines with `ps_shards` PS shards.
    pub fn generate(&self, workers: usize, machines: usize, ps_shards: usize) -> FaultSchedule {
        let mut rng = SmallRng::seed_from_u64(self.seed ^ 0xFA01_7D5C_0DE0_FA17);
        let span = self.horizon.as_nanos().max(1);
        let mut events = Vec::new();
        for (worker, slowdown) in &self.stragglers {
            events.push(FaultEvent {
                at: SimTime::ZERO,
                kind: FaultKind::Straggler {
                    worker: *worker,
                    slowdown: *slowdown,
                },
            });
        }
        if workers > 0 {
            for _ in 0..poisson(&mut rng, self.expected_crashes) {
                events.push(FaultEvent {
                    at: SimTime::from_nanos(rng.gen_range(0..span)),
                    kind: FaultKind::WorkerCrash {
                        worker: rng.gen_range(0..workers),
                        restart_after: self.restart_after,
                    },
                });
            }
        }
        if machines > 0 {
            for _ in 0..poisson(&mut rng, self.expected_link_faults) {
                events.push(FaultEvent {
                    at: SimTime::from_nanos(rng.gen_range(0..span)),
                    kind: FaultKind::LinkDegrade {
                        machine: rng.gen_range(0..machines),
                        factor: self.degrade_factor,
                        duration: self.degrade_duration,
                    },
                });
            }
        }
        if ps_shards > 0 {
            for _ in 0..poisson(&mut rng, self.expected_ps_failures) {
                events.push(FaultEvent {
                    at: SimTime::from_nanos(rng.gen_range(0..span)),
                    kind: FaultKind::PsShardFail {
                        shard: rng.gen_range(0..ps_shards),
                        outage: self.ps_outage,
                    },
                });
            }
        }
        FaultSchedule::new(events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan() -> FaultPlan {
        FaultPlan {
            seed: 42,
            horizon: SimTime::from_secs(100),
            expected_crashes: 3.0,
            restart_after: Some(SimTime::from_secs(2)),
            expected_link_faults: 2.0,
            expected_ps_failures: 1.0,
            stragglers: vec![(1, 4.0)],
            ..Default::default()
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = plan().generate(8, 2, 4);
        let b = plan().generate(8, 2, 4);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let mut p2 = plan();
        p2.seed = 43;
        assert_ne!(plan().generate(8, 2, 4), p2.generate(8, 2, 4));
    }

    #[test]
    fn events_sorted_and_within_horizon() {
        let s = plan().generate(8, 2, 4);
        let times: Vec<_> = s.events().iter().map(|e| e.at).collect();
        let mut sorted = times.clone();
        sorted.sort();
        assert_eq!(times, sorted);
        assert!(times.iter().all(|t| *t < SimTime::from_secs(100)));
    }

    #[test]
    fn accessors_filter_by_target() {
        let s = FaultSchedule::new(vec![
            FaultEvent {
                at: SimTime::from_secs(1),
                kind: FaultKind::WorkerCrash {
                    worker: 2,
                    restart_after: None,
                },
            },
            FaultEvent {
                at: SimTime::from_secs(2),
                kind: FaultKind::PsShardFail {
                    shard: 0,
                    outage: SimTime::from_secs(1),
                },
            },
            FaultEvent {
                at: SimTime::ZERO,
                kind: FaultKind::Straggler {
                    worker: 2,
                    slowdown: 3.0,
                },
            },
        ]);
        assert_eq!(s.crashes_for(2), vec![(SimTime::from_secs(1), None)]);
        assert!(s.crashes_for(0).is_empty());
        assert_eq!(
            s.ps_failures_for(0),
            vec![(SimTime::from_secs(2), SimTime::from_secs(1))]
        );
        assert_eq!(s.straggler_slowdown(2), 3.0);
        assert_eq!(s.straggler_slowdown(1), 1.0);
    }

    #[test]
    fn zero_rates_mean_no_events() {
        let p = FaultPlan {
            seed: 7,
            ..Default::default()
        };
        assert!(p.generate(8, 2, 4).is_empty());
    }
}
