//! Run configuration: which algorithm, which optimizations, which workload.

use dtrain_cluster::{ClusterConfig, CollectiveSchedule, ShardPlan};
use dtrain_compress::DgcConfig;
use dtrain_data::{Dataset, ImageTaskConfig, TeacherTaskConfig};
use dtrain_faults::{Algo, ElasticConfig, FaultKind, FaultSchedule};
use dtrain_models::ModelProfile;

/// The three optimization techniques (paper §V), plus BSP local aggregation.
#[derive(Clone, Debug)]
pub struct OptimizationConfig {
    /// Number of parameter-server shards (centralized algorithms).
    /// 1 = no sharding.
    pub ps_shards: usize,
    /// Greedy-balanced instead of layer-wise round-robin shard placement
    /// (ablation; the paper always uses layer-wise).
    pub balanced_sharding: bool,
    /// Overlap backward computation with gradient communication.
    pub wait_free_bp: bool,
    /// Deep Gradient Compression.
    pub dgc: Option<DgcConfig>,
    /// Aggregate gradients of co-located workers before contacting the PS
    /// (the paper applies this to BSP).
    pub local_aggregation: bool,
    /// Ablation switch: make AD-PSGD's active workers exchange *after*
    /// computing instead of overlapping communication with computation
    /// (the paper credits AD-PSGD's scalability to this overlap).
    pub disable_overlap: bool,
    /// Collective schedule: `Flat` is the paper's baseline (ring
    /// allreduce, serial PS scatter). `Hier` switches AR-SGD to the
    /// two-level machine-leader schedule and PS fan-out to double binary
    /// trees; `Pipelined` additionally chunks gradients so reduction
    /// overlaps backprop.
    pub collective: CollectiveSchedule,
}

impl Default for OptimizationConfig {
    fn default() -> Self {
        OptimizationConfig {
            ps_shards: 1,
            balanced_sharding: false,
            wait_free_bp: false,
            dgc: None,
            local_aggregation: false,
            disable_overlap: false,
            collective: CollectiveSchedule::Flat,
        }
    }
}

impl OptimizationConfig {
    /// The configuration the paper's scalability experiment uses: parameter
    /// sharding (2 PS per machine was found optimal) + wait-free BP, and
    /// local aggregation for BSP.
    pub fn paper_scalability(machines: usize, algo: Algo) -> Self {
        OptimizationConfig {
            ps_shards: (2 * machines).max(1),
            balanced_sharding: false,
            wait_free_bp: algo.communicates_gradients(),
            dgc: None,
            local_aggregation: matches!(algo, Algo::Bsp),
            disable_overlap: false,
            collective: CollectiveSchedule::Flat,
        }
    }
}

/// When to stop a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopCondition {
    /// Each worker performs exactly this many iterations.
    Iterations(u64),
    /// Each worker performs this many passes over its shard.
    Epochs(u64),
}

/// Which synthetic task (and matching model family) an accuracy run trains.
#[derive(Clone, Debug)]
pub enum SyntheticTask {
    /// Teacher-labelled vectors trained by an MLP (the default; fast).
    Teacher(TeacherTaskConfig),
    /// Prototype images trained by a small CNN — exercises the full
    /// convolution/pooling stack through the distributed machinery.
    Images(ImageTaskConfig),
    /// Prototype images trained by a residual network (`mini_resnet`) —
    /// adds skip connections, the architecture family the paper evaluates.
    ResidualImages(ImageTaskConfig),
}

impl SyntheticTask {
    /// Materialize the train/test datasets.
    pub fn datasets(&self) -> (Dataset, Dataset) {
        match self {
            SyntheticTask::Teacher(cfg) => dtrain_data::teacher_task(cfg),
            SyntheticTask::Images(cfg) | SyntheticTask::ResidualImages(cfg) => {
                dtrain_data::prototype_images(cfg)
            }
        }
    }

    /// Build the model this task is trained with; all replicas must pass
    /// the same `seed` so they start identical.
    pub fn build_net(&self, seed: u64) -> dtrain_nn::Network {
        match self {
            SyntheticTask::Teacher(cfg) => {
                dtrain_models::mlp_classifier(cfg.input_dim, &[64, 32], cfg.num_classes, seed)
            }
            SyntheticTask::Images(cfg) => {
                dtrain_models::small_cnn(cfg.channels, cfg.side, cfg.num_classes, seed)
            }
            SyntheticTask::ResidualImages(cfg) => {
                dtrain_models::mini_resnet(cfg.channels, cfg.side, cfg.num_classes, 2, seed)
            }
        }
    }

    /// Training-set size (for shard-divisibility validation).
    pub fn train_size(&self) -> usize {
        match self {
            SyntheticTask::Teacher(cfg) => cfg.train_size,
            SyntheticTask::Images(cfg) | SyntheticTask::ResidualImages(cfg) => cfg.train_size,
        }
    }
}

/// Real-math training attached to a run (accuracy experiments).
#[derive(Clone, Debug)]
pub struct RealTraining {
    /// Synthetic task configuration (train/test sets derive from it).
    pub task: SyntheticTask,
    /// Per-worker batch size.
    pub batch: usize,
    /// Single-worker base learning rate; scaled by worker count with warm-up
    /// and step decay exactly like the paper's schedule.
    pub base_lr: f32,
    pub momentum: f32,
    pub weight_decay: f32,
    /// Model seed (all replicas start identical).
    pub model_seed: u64,
    /// Override the seed-derived starting weights (worker replicas and PS
    /// shards alike). The adaptive controller uses this to carry parameters
    /// across a mid-run strategy switch.
    pub initial_params: Option<dtrain_nn::ParamSet>,
}

impl Default for RealTraining {
    fn default() -> Self {
        RealTraining {
            task: SyntheticTask::Teacher(TeacherTaskConfig {
                train_size: 7680, // divisible by 1,2,4,8,16,24 workers
                test_size: 2048,
                ..Default::default()
            }),
            batch: 32,
            base_lr: 0.02,
            momentum: 0.9,
            weight_decay: 1e-4,
            model_seed: 7,
            initial_params: None,
        }
    }
}

/// Fault-injection attachment for a run: a concrete schedule plus the
/// checkpoint cadence the recovery layer uses. Recovery semantics are
/// per-algorithm (see DESIGN.md "Fault model"): BSP stalls its barrier on a
/// temporary crash and shrinks the round on a permanent one; ASP/EASGD drop
/// and re-admit; SSP recomputes its staleness bound over live workers; the
/// decentralized algorithms always re-admit (a permanent loss is coerced to
/// a restart).
#[derive(Clone, Debug, Default)]
pub struct FaultConfig {
    pub schedule: FaultSchedule,
    /// Iterations between checkpoint snapshots (0 = only the initial
    /// snapshot taken at startup).
    pub checkpoint_interval: u64,
    /// `Some` switches the run to *elastic* recovery: instead of restarting
    /// crashed members, the cohort evicts them and the topology repairs
    /// (rings shrink, peer graphs re-knit, barriers re-size, PS shards fail
    /// over). `None` keeps the classic restart semantics untouched.
    pub elastic: Option<ElasticConfig>,
}

impl FaultConfig {
    /// Does the schedule contain any worker-crash events?
    pub fn has_crashes(&self) -> bool {
        self.schedule
            .events()
            .iter()
            .any(|e| matches!(e.kind, FaultKind::WorkerCrash { .. }))
    }
}

/// A complete run description.
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub algo: Algo,
    pub cluster: ClusterConfig,
    /// Number of workers actually used (≤ cluster capacity).
    pub workers: usize,
    /// Timing profile (ResNet-50 / VGG-16 / synthetic).
    pub profile: ModelProfile,
    /// Per-worker batch size used for *timing* and throughput accounting.
    pub batch: usize,
    pub opts: OptimizationConfig,
    pub stop: StopCondition,
    /// `Some` = accuracy run with real math; `None` = cost-only run.
    pub real: Option<RealTraining>,
    /// Seed for algorithmic randomness (gossip targets, pairings).
    pub seed: u64,
    /// Optional fault injection (crashes, PS outages, link faults,
    /// stragglers) with checkpoint-based recovery.
    pub faults: Option<FaultConfig>,
}

impl RunConfig {
    /// Is elastic (evict-and-repair) recovery enabled?
    pub fn is_elastic(&self) -> bool {
        self.faults.as_ref().is_some_and(|f| f.elastic.is_some())
    }

    /// The elastic tunables, when enabled.
    pub fn elastic(&self) -> Option<&ElasticConfig> {
        self.faults.as_ref().and_then(|f| f.elastic.as_ref())
    }

    /// The plan that spreads `layer_bytes` over this run's PS shards (a
    /// decentralized run is one shard).
    pub(crate) fn shard_plan(&self, layer_bytes: &[u64]) -> ShardPlan {
        let shards = if self.algo.is_centralized() {
            self.opts.ps_shards
        } else {
            1
        };
        if self.opts.balanced_sharding {
            ShardPlan::balanced(layer_bytes, shards)
        } else {
            ShardPlan::layer_wise(layer_bytes, shards)
        }
    }

    /// Sanity-check invariants before running.
    pub fn validate(&self) -> Result<(), String> {
        if self.workers == 0 {
            return Err("need at least one worker".into());
        }
        if self.workers > self.cluster.num_workers() {
            return Err(format!(
                "{} workers exceed cluster capacity {}",
                self.workers,
                self.cluster.num_workers()
            ));
        }
        if self.opts.ps_shards == 0 {
            return Err("ps_shards must be ≥ 1".into());
        }
        if !self.algo.is_centralized() && (self.opts.local_aggregation || self.opts.ps_shards > 1) {
            return Err(format!(
                "{} is decentralized: PS sharding / local aggregation do not apply",
                self.algo.name()
            ));
        }
        if self.opts.dgc.is_some() && !self.algo.communicates_gradients() {
            return Err(format!(
                "DGC applies only to gradient-communicating algorithms, not {}",
                self.algo.name()
            ));
        }
        if self.opts.wait_free_bp && !self.algo.communicates_gradients() {
            return Err(format!(
                "wait-free BP applies only to gradient-communicating algorithms, not {}",
                self.algo.name()
            ));
        }
        if !self.opts.collective.is_flat() && matches!(self.algo, Algo::GoSgd { .. } | Algo::AdPsgd)
        {
            return Err(format!(
                "hierarchical collectives apply to AR-SGD and the PS algorithms, not {}",
                self.algo.name()
            ));
        }
        self.algo.validate(self.workers)?;
        if self.real.is_none() && matches!(self.stop, StopCondition::Epochs(_)) {
            return Err(
                "StopCondition::Epochs requires real training (epochs are data passes)".into(),
            );
        }
        if let Some(f) = &self.faults {
            if f.has_crashes() && self.opts.local_aggregation {
                return Err("worker crashes are not supported under BSP local \
                     aggregation (leader/follower machines have no recovery \
                     path); disable local_aggregation or drop the crash events"
                    .into());
            }
            if let Some(e) = &f.elastic {
                if self.opts.local_aggregation {
                    return Err("elastic membership is not supported under BSP \
                         local aggregation (machine-leader trees do not repair)"
                        .into());
                }
                if e.round_estimate == dtrain_desim::SimTime::ZERO {
                    return Err("elastic round_estimate must be > 0".into());
                }
                // The membership view holds one death per worker, so a
                // later crash of the same worker would be dropped.
                for w in 0..self.workers {
                    let crashes = f.schedule.crashes_for(w).len();
                    if crashes > 1 {
                        return Err(format!(
                            "elastic membership holds one death per worker, but \
                             worker {w} crashes {crashes} times; drop its later \
                             crashes or run without elastic"
                        ));
                    }
                }
            }
        }
        if let Some(real) = &self.real {
            if real.task.train_size() % self.workers != 0 {
                return Err(format!(
                    "train_size {} not divisible by {} workers (BSP epoch alignment)",
                    real.task.train_size(),
                    self.workers
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtrain_cluster::NetworkConfig;
    use dtrain_models::uniform_profile;

    fn base(algo: Algo) -> RunConfig {
        RunConfig {
            algo,
            cluster: ClusterConfig::paper(NetworkConfig::TEN_GBPS),
            workers: 8,
            profile: uniform_profile(4, 1000, 1_000_000),
            batch: 128,
            opts: OptimizationConfig::default(),
            stop: StopCondition::Iterations(5),
            real: None,
            seed: 0,
            faults: None,
        }
    }

    #[test]
    fn validation_catches_misuse() {
        assert!(base(Algo::Bsp).validate().is_ok());
        let mut c = base(Algo::ArSgd);
        c.opts.ps_shards = 4;
        assert!(c.validate().is_err());
        let mut c = base(Algo::Easgd {
            tau: 4,
            alpha: None,
        });
        c.opts.dgc = Some(DgcConfig::default());
        assert!(c.validate().is_err());
        for p in [1.5, -0.5] {
            let mut c = base(Algo::GoSgd { p });
            c.opts.ps_shards = 1;
            assert!(c.validate().is_err(), "GoSGD p = {p}");
        }
        let mut c = base(Algo::Bsp);
        c.workers = 100;
        assert!(c.validate().is_err());
        let mut c = base(Algo::AdPsgd);
        c.workers = 1;
        assert!(c.validate().is_err());
        let mut c = base(Algo::GoSgd { p: 0.5 });
        c.opts.ps_shards = 1;
        c.workers = 1;
        assert!(c.validate().is_err(), "GoSGD with one worker has no target");
        let mut c = base(Algo::Easgd {
            tau: 0,
            alpha: None,
        });
        c.opts.ps_shards = 2;
        assert!(c.validate().is_err(), "EASGD τ=0 divides by zero");
    }

    #[test]
    fn crashes_with_local_aggregation_rejected() {
        use dtrain_faults::{FaultEvent, FaultKind};
        let mut c = base(Algo::Bsp);
        c.opts.local_aggregation = true;
        c.faults = Some(FaultConfig {
            schedule: FaultSchedule::new(vec![FaultEvent {
                at: dtrain_desim::SimTime::from_secs(1),
                kind: FaultKind::WorkerCrash {
                    worker: 0,
                    restart_after: None,
                },
            }]),
            checkpoint_interval: 10,
            elastic: None,
        });
        assert!(c.validate().is_err());
        // Non-crash faults (stragglers, link windows) are fine with it.
        c.faults = Some(FaultConfig {
            schedule: FaultSchedule::new(vec![FaultEvent {
                at: dtrain_desim::SimTime::ZERO,
                kind: FaultKind::Straggler {
                    worker: 0,
                    slowdown: 2.0,
                },
            }]),
            checkpoint_interval: 10,
            elastic: None,
        });
        assert!(c.validate().is_ok());
    }

    #[test]
    fn elastic_validation() {
        let elastic = |algo: Algo, e: ElasticConfig| {
            let mut c = base(algo);
            c.faults = Some(FaultConfig {
                schedule: FaultSchedule::new(vec![]),
                checkpoint_interval: 10,
                elastic: Some(e),
            });
            c
        };
        assert!(elastic(Algo::Bsp, ElasticConfig::default())
            .validate()
            .is_ok());
        assert!(!base(Algo::Bsp).is_elastic());
        assert!(elastic(Algo::Bsp, ElasticConfig::default()).is_elastic());
        // A zero round estimate cannot project crash times onto rounds.
        let e = ElasticConfig {
            round_estimate: dtrain_desim::SimTime::ZERO,
            ..Default::default()
        };
        assert!(elastic(Algo::ArSgd, e).validate().is_err());
        // Local aggregation has no repair path.
        let mut c = elastic(Algo::Bsp, ElasticConfig::default());
        c.opts.local_aggregation = true;
        assert!(c.validate().is_err());
    }

    #[test]
    fn elastic_refuses_a_second_crash_of_one_worker() {
        use dtrain_faults::{FaultEvent, FaultKind};
        let crash = |secs, worker| FaultEvent {
            at: dtrain_desim::SimTime::from_secs(secs),
            kind: FaultKind::WorkerCrash {
                worker,
                restart_after: Some(dtrain_desim::SimTime::from_secs(1)),
            },
        };
        let with = |events: Vec<FaultEvent>, elastic: bool| {
            let mut c = base(Algo::Bsp);
            c.faults = Some(FaultConfig {
                schedule: FaultSchedule::new(events),
                checkpoint_interval: 10,
                elastic: elastic.then(ElasticConfig::default),
            });
            c.validate()
        };
        let err = with(vec![crash(1, 3), crash(5, 3)], true).unwrap_err();
        assert!(err.contains("worker 3 crashes 2 times"), "{err}");
        // One crash each of two workers is one death each.
        assert!(with(vec![crash(1, 3), crash(5, 4)], true).is_ok());
        // Classic recovery replays every crash, so it takes both.
        assert!(with(vec![crash(1, 3), crash(5, 3)], false).is_ok());
    }

    #[test]
    fn epochs_without_real_training_rejected() {
        let mut c = base(Algo::Bsp);
        c.stop = StopCondition::Epochs(3);
        assert!(c.validate().is_err());
    }

    #[test]
    fn paper_scalability_preset() {
        let o = OptimizationConfig::paper_scalability(6, Algo::Bsp);
        assert_eq!(o.ps_shards, 12);
        assert!(o.wait_free_bp);
        assert!(o.local_aggregation);
        let o2 = OptimizationConfig::paper_scalability(
            6,
            Algo::Easgd {
                tau: 8,
                alpha: None,
            },
        );
        assert!(!o2.wait_free_bp);
        assert!(!o2.local_aggregation);
    }
}
