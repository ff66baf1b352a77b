//! Experiment presets mirroring the paper's evaluation section (§VI).
//!
//! Every table and figure of the paper corresponds to a function here that
//! produces the exact [`RunConfig`]s to execute; the studies of the
//! `dtrain-study` runner (crate `dtrain-bench`) drive these and print the
//! resulting rows.

use dtrain_algos::{
    Algo, OptimizationConfig, RealTraining, RunConfig, StopCondition, SyntheticTask,
};
use dtrain_cluster::{ClusterConfig, CollectiveSchedule, NetworkConfig};
use dtrain_compress::DgcConfig;
use dtrain_data::TeacherTaskConfig;
use dtrain_models::{resnet50, vgg16, ModelProfile};

/// The two evaluation models of the paper.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PaperModel {
    /// Computation-intensive (23 M params).
    ResNet50,
    /// Communication-intensive (138 M params, fc6-skewed).
    Vgg16,
}

impl PaperModel {
    pub fn profile(self) -> ModelProfile {
        match self {
            PaperModel::ResNet50 => resnet50(),
            PaperModel::Vgg16 => vgg16(),
        }
    }

    /// Paper batch sizes: 128 for ResNet-50, 96 for VGG-16.
    pub fn batch(self) -> usize {
        match self {
            PaperModel::ResNet50 => 128,
            PaperModel::Vgg16 => 96,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            PaperModel::ResNet50 => "ResNet-50",
            PaperModel::Vgg16 => "VGG-16",
        }
    }
}

/// The seven algorithms with the paper's default hyperparameters
/// (§VI-A: SSP s=10, EASGD τ=8, GoSGD p=0.01).
pub fn paper_algorithms() -> Vec<Algo> {
    vec![
        Algo::Bsp,
        Algo::Asp,
        Algo::Ssp { staleness: 10 },
        Algo::Easgd {
            tau: 8,
            alpha: None,
        },
        Algo::ArSgd,
        Algo::GoSgd { p: 0.01 },
        Algo::AdPsgd,
    ]
}

/// The worker counts of the sensitivity study (Table III).
pub const TABLE3_WORKERS: [usize; 4] = [4, 8, 16, 24];

/// The worker counts of the scalability study (Fig. 2).
pub const FIG2_WORKERS: [usize; 6] = [1, 2, 4, 8, 16, 24];

/// The scaled-down stand-in for the paper's 90-epoch ImageNet runs: the
/// same schedule *structure* (5/90 warm-up, decays at 30/60/80 fractions)
/// compressed into `epochs` passes over a synthetic teacher task.
#[derive(Clone, Debug)]
pub struct AccuracyScale {
    pub epochs: u64,
    pub train_size: usize,
    pub test_size: usize,
    pub batch: usize,
    /// Single-worker base learning rate (scaled linearly with workers).
    /// Calibrated so the 24-worker scaled LR stays inside the stability
    /// region of every algorithm on the synthetic task, the same property
    /// the paper's 0.05 had on ImageNet.
    pub base_lr: f32,
    pub seed: u64,
}

impl Default for AccuracyScale {
    fn default() -> Self {
        // 7680 is divisible by every worker count × batch used in the
        // paper's sweeps (1..24), keeping BSP rounds aligned. Batch 8 keeps
        // iterations-per-epoch high enough that staleness hyperparameters
        // (s, τ, p) are a small fraction of an epoch, as on ImageNet.
        AccuracyScale {
            epochs: 30,
            train_size: 7680,
            test_size: 2048,
            batch: 8,
            base_lr: 0.008,
            seed: 11,
        }
    }
}

impl AccuracyScale {
    /// A faster variant for CI-sized runs.
    pub fn quick() -> Self {
        AccuracyScale {
            epochs: 12,
            train_size: 2048,
            test_size: 512,
            batch: 32,
            base_lr: 0.02,
            seed: 11,
        }
    }
}

/// Accuracy run (Tables II/III/IV, Fig. 1): real math on the synthetic
/// task, virtual clock from the ResNet-50 profile on the 56 Gbps cluster —
/// the paper's §VI-A setting.
pub fn accuracy_run(algo: Algo, workers: usize, scale: &AccuracyScale) -> RunConfig {
    let opts = OptimizationConfig {
        ps_shards: if algo.is_centralized() {
            (2 * workers.div_ceil(4)).min(8)
        } else {
            1
        },
        ..Default::default()
    };
    RunConfig {
        algo,
        cluster: ClusterConfig::paper_with_workers(NetworkConfig::FIFTY_SIX_GBPS, workers),
        workers,
        profile: resnet50(),
        batch: 128,
        opts,
        stop: StopCondition::Epochs(scale.epochs),
        faults: None,
        real: Some(RealTraining {
            task: SyntheticTask::Teacher(TeacherTaskConfig {
                train_size: scale.train_size,
                test_size: scale.test_size,
                seed: scale.seed,
                ..Default::default()
            }),
            batch: scale.batch,
            base_lr: scale.base_lr,
            ..Default::default()
        }),
        seed: scale.seed,
    }
}

/// Same as [`accuracy_run`] with DGC switched on (Table IV).
///
/// The sparsity is rescaled for the short synthetic runs: what DGC's
/// accuracy-neutrality depends on is each coordinate being transmitted
/// enough times over training for the local accumulation to drain
/// (ImageNet: ~37k iterations × 0.1 % ≈ 37 visits per coordinate). We pick
/// the sparsity that preserves that visit count for this run's iteration
/// budget, with a proportionally shortened warm-up.
pub fn accuracy_run_with_dgc(algo: Algo, workers: usize, scale: &AccuracyScale) -> RunConfig {
    let mut cfg = accuracy_run(algo, workers, scale);
    let iters_per_worker = scale.epochs * (scale.train_size / workers / scale.batch) as u64;
    cfg.opts.dgc = Some(scaled_dgc(iters_per_worker));
    cfg
}

/// DGC configuration whose steady-state sparsity gives ~37 transmissions
/// per coordinate over `iterations` (the paper's ImageNet visit count),
/// capped to the paper's 99.9 %.
pub fn scaled_dgc(iterations: u64) -> DgcConfig {
    const TARGET_VISITS: f64 = 37.0;
    let keep = (TARGET_VISITS / iterations.max(1) as f64).clamp(0.001, 0.5);
    let sparsity = 1.0 - keep;
    DgcConfig {
        final_sparsity: sparsity,
        // two warm-up epochs ramping toward the final sparsity
        warmup_schedule: vec![1.0 - keep * 4.0, 1.0 - keep * 2.0],
        ..DgcConfig::default()
    }
}

/// Cost-only run on the paper cluster, the start of Table I and the
/// ablation, straggler and fault studies: `2 × machines` PS shards for the
/// centralized algorithms and no optimization but the optional local
/// aggregation.
pub fn paper_cluster_run(
    algo: Algo,
    model: PaperModel,
    workers: usize,
    network: NetworkConfig,
    iterations: u64,
    local_aggregation: bool,
    seed: u64,
) -> RunConfig {
    let cluster = ClusterConfig::paper_with_workers(network, workers);
    RunConfig {
        algo,
        workers,
        profile: model.profile(),
        batch: model.batch(),
        opts: OptimizationConfig {
            ps_shards: if algo.is_centralized() {
                2 * cluster.machines
            } else {
                1
            },
            local_aggregation,
            ..Default::default()
        },
        cluster,
        stop: StopCondition::Iterations(iterations),
        faults: None,
        real: None,
        seed,
    }
}

/// Scalability run (Fig. 2): [`paper_cluster_run`] with the paper's
/// optimization set (sharding at 2 PS/machine + wait-free BP; local
/// aggregation for BSP).
pub fn scalability_run(
    algo: Algo,
    model: PaperModel,
    workers: usize,
    network: NetworkConfig,
    iterations: u64,
) -> RunConfig {
    let bsp = matches!(algo, Algo::Bsp);
    let mut cfg = paper_cluster_run(algo, model, workers, network, iterations, bsp, 3);
    cfg.opts.wait_free_bp = algo.communicates_gradients();
    cfg
}

/// Time-breakdown run (Fig. 3): like the scalability run at 24 workers, but
/// without wait-free BP so the phases separate cleanly, matching the
/// paper's stacked bars.
pub fn breakdown_run(
    algo: Algo,
    model: PaperModel,
    network: NetworkConfig,
    iterations: u64,
) -> RunConfig {
    let mut cfg = scalability_run(algo, model, 24, network, iterations);
    cfg.opts.wait_free_bp = false;
    cfg
}

/// Optimization-stack run (Fig. 4): the three optimizations applied
/// cumulatively. `level`: 0 = none (one PS per machine, the TF default and
/// the paper's 1:4 starting ratio), 1 = +sharding (2 PS per machine, the
/// ratio the paper's profiling selected), 2 = +wait-free BP, 3 = +DGC.
pub fn optimization_run(
    algo: Algo,
    model: PaperModel,
    workers: usize,
    network: NetworkConfig,
    level: usize,
    iterations: u64,
) -> RunConfig {
    assert!(
        algo.is_centralized(),
        "Fig. 4 covers centralized algorithms"
    );
    let bsp = matches!(algo, Algo::Bsp);
    let mut cfg = paper_cluster_run(algo, model, workers, network, iterations, bsp, 4);
    if level == 0 {
        cfg.opts.ps_shards = cfg.cluster.machines;
    }
    let grads = algo.communicates_gradients();
    cfg.opts.wait_free_bp = level >= 2 && grads;
    cfg.opts.dgc = (level >= 3 && grads).then(DgcConfig::default);
    cfg
}

/// Fig. 4 collective crossover study (`fig4_collective`): AR-SGD,
/// cost-only, `machines` 4-GPU machines (the paper cluster shape), comparing
/// the reduction schedules. Wait-free BP stays on so `Pipelined` measures chunked
/// overlap *beyond* per-layer granularity, not against a strawman.
pub fn collective_run(
    model: PaperModel,
    machines: usize,
    network: NetworkConfig,
    schedule: CollectiveSchedule,
    iterations: u64,
) -> RunConfig {
    let workers = machines * 4;
    let mut cfg = paper_cluster_run(Algo::ArSgd, model, workers, network, iterations, false, 4);
    cfg.opts.wait_free_bp = true;
    cfg.opts.collective = schedule;
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_validate() {
        // Full scale divides evenly for every paper worker count; quick
        // scale only for the ≤8-worker sweeps it is used with.
        let scale = AccuracyScale::default();
        for algo in paper_algorithms() {
            for &w in &TABLE3_WORKERS {
                accuracy_run(algo, w, &scale).validate().expect("accuracy");
            }
            for w in [4usize, 8] {
                accuracy_run(algo, w, &AccuracyScale::quick())
                    .validate()
                    .expect("quick accuracy");
            }
            for &w in &FIG2_WORKERS {
                if w < 2 && matches!(algo, Algo::AdPsgd | Algo::GoSgd { .. }) {
                    continue; // peer-to-peer algorithms need a peer
                }
                scalability_run(algo, PaperModel::Vgg16, w, NetworkConfig::TEN_GBPS, 5)
                    .validate()
                    .expect("scalability");
            }
        }
        for level in 0..4 {
            for algo in [Algo::Bsp, Algo::Asp, Algo::Ssp { staleness: 10 }] {
                optimization_run(
                    algo,
                    PaperModel::ResNet50,
                    8,
                    NetworkConfig::TEN_GBPS,
                    level,
                    5,
                )
                .validate()
                .expect("optimization");
            }
        }
    }

    #[test]
    fn dgc_preset_only_for_gradient_algos() {
        let scale = AccuracyScale::quick();
        let cfg = accuracy_run_with_dgc(Algo::Ssp { staleness: 3 }, 4, &scale);
        assert!(cfg.validate().is_ok());
        let bad = accuracy_run_with_dgc(
            Algo::Easgd {
                tau: 8,
                alpha: None,
            },
            4,
            &scale,
        );
        assert!(bad.validate().is_err());
    }

    #[test]
    fn model_facts() {
        assert_eq!(PaperModel::ResNet50.batch(), 128);
        assert_eq!(PaperModel::Vgg16.batch(), 96);
        assert!(PaperModel::Vgg16.profile().total_params() > 130_000_000);
    }

    #[test]
    fn optimization_levels_nest() {
        let l0 = optimization_run(
            Algo::Asp,
            PaperModel::ResNet50,
            8,
            NetworkConfig::TEN_GBPS,
            0,
            5,
        );
        let l3 = optimization_run(
            Algo::Asp,
            PaperModel::ResNet50,
            8,
            NetworkConfig::TEN_GBPS,
            3,
            5,
        );
        assert_eq!(l0.opts.ps_shards, l0.cluster.machines, "1 PS per machine");
        assert!(!l0.opts.wait_free_bp);
        assert!(l0.opts.dgc.is_none());
        assert!(l3.opts.ps_shards > 1);
        assert!(l3.opts.wait_free_bp);
        assert!(l3.opts.dgc.is_some());
    }
}
