//! Closed-form per-iteration cost estimates, in the spirit of Shi et al.'s
//! performance-modeling line of work: given a cluster shape, an algorithm
//! and a model profile, predict compute time, communication time and
//! end-to-end throughput *without running the simulator*.
//!
//! Two consumers:
//!
//! * the gang scheduler's `Predictive` placement policy, which sizes a
//!   job's gang by marginal-throughput estimates, and
//! * scheduler job agents running *cost-only* jobs (full-size VGG-16 /
//!   ResNet-50), which advance virtual time by these closed forms.
//!
//! Deliberately jitter-free: the same inputs always produce the same
//! estimate, so scheduler decisions — and the traces they emit — are
//! deterministic. These are *estimates of* the simulator's behavior, not
//! re-derivations of it; they share its constants (FLOP accounting,
//! `link_secs`) but flatten per-chunk pipelining into per-round terms.

use dtrain_cluster::{BandwidthClass, ClusterConfig};
use dtrain_faults::Algo;
use dtrain_models::ModelProfile;

/// Jitter-free compute seconds for one training iteration (forward +
/// backward) of `model` at per-worker batch `batch`, paced by the fleet's
/// *slowest* GPU class — a data-parallel round cannot finish before its
/// slowest member. On a homogeneous cluster this is exactly the
/// deterministic center of [`dtrain_cluster::GpuModel::iteration_time`].
pub fn compute_secs(cluster: &ClusterConfig, model: &ModelProfile, batch: usize) -> f64 {
    let flops = model.train_flops() as f64 * batch as f64;
    flops / (cluster.min_tflops() * 1e12 * cluster.gpu_efficiency)
}

/// Per-worker variant of [`compute_secs`]: worker `w`'s own GPU class.
pub fn compute_secs_worker(
    cluster: &ClusterConfig,
    w: usize,
    model: &ModelProfile,
    batch: usize,
) -> f64 {
    let flops = model.train_flops() as f64 * batch as f64;
    flops / (cluster.worker_tflops(w) * 1e12 * cluster.gpu_efficiency)
}

/// Estimated communication seconds per training round for `algo` on
/// `cluster` (all `cluster.num_workers()` workers participating).
///
/// Closed forms per family, with `b` = model bytes, `w` = workers,
/// `m` = machines, `ser(x)` = NIC seconds for `x` bytes:
///
/// * **centralized** (BSP/ASP/SSP/EASGD): every worker pushes `b` and pulls
///   `b` through the PS, sharded layer-wise over all `m` machine NICs — but
///   a single layer cannot be split below one shard, so the busiest NIC
///   carries `max(1/m, max_layer_fraction)` of the bytes (the paper's
///   sharding-skew effect: VGG-16's fc6 ≈ 74 % pins its busiest shard
///   regardless of `m`): `2·w·ser(b)·max(1/m, skew)`. EASGD exchanges only
///   every `τ` rounds — amortized by `1/τ`.
/// * **AR-SGD** ring allreduce: `2·(w−1)/w · ser(b)` on every NIC.
/// * **GoSGD** gossip: one pushed copy per round in expectation scaled by
///   the push probability `p` — `p·ser(b)`.
/// * **AD-PSGD** bipartite exchange: one symmetric neighbor exchange,
///   `2·ser(b)` (send + receive of the averaged half).
pub fn comm_secs(cluster: &ClusterConfig, algo: &Algo, model: &ModelProfile) -> f64 {
    let w = cluster.num_workers().max(1) as f64;
    let m = cluster.machines.max(1) as f64;
    let ser = cluster.link_secs(BandwidthClass::Nic, model.total_bytes());
    let shard = (1.0 / m).max(model.max_layer_fraction());
    match algo {
        Algo::Bsp | Algo::Asp | Algo::Ssp { .. } => 2.0 * w * ser * shard,
        Algo::Easgd { tau, .. } => 2.0 * w * ser * shard / (*tau).max(1) as f64,
        Algo::ArSgd => 2.0 * (w - 1.0) / w * ser,
        Algo::GoSgd { p } => p * ser,
        Algo::AdPsgd => 2.0 * ser,
    }
}

/// Estimated end-to-end seconds per training round: compute plus
/// communication (no overlap assumed — the conservative bound).
pub fn step_secs(cluster: &ClusterConfig, algo: &Algo, model: &ModelProfile, batch: usize) -> f64 {
    compute_secs(cluster, model, batch) + comm_secs(cluster, algo, model)
}

/// Estimated cluster-wide throughput in images per second: all workers
/// process one per-worker batch per round.
pub fn throughput(cluster: &ClusterConfig, algo: &Algo, model: &ModelProfile, batch: usize) -> f64 {
    let w = cluster.num_workers() as f64;
    w * batch as f64 / step_secs(cluster, algo, model, batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtrain_cluster::NetworkConfig;
    use dtrain_models::{resnet50, vgg16};

    fn cluster(machines: usize) -> ClusterConfig {
        ClusterConfig::paper(NetworkConfig::TEN_GBPS).subcluster(machines)
    }

    #[test]
    fn compute_estimate_matches_the_gpu_model_center() {
        // The closed form is the jitter-free center of GpuModel: with
        // jitter zeroed they must agree exactly.
        let mut c = cluster(4);
        c.compute_jitter = 0.0;
        let mut gpu = dtrain_cluster::GpuModel::for_worker(&c, 0);
        let sim = gpu.iteration_time(&resnet50(), 128).as_secs_f64();
        let est = compute_secs(&c, &resnet50(), 128);
        assert!((sim - est).abs() / sim < 1e-9, "sim {sim} vs est {est}");
    }

    #[test]
    fn vgg_is_costlier_to_communicate_than_resnet() {
        let c = cluster(4);
        for algo in [Algo::Bsp, Algo::ArSgd, Algo::AdPsgd] {
            assert!(
                comm_secs(&c, &algo, &vgg16()) > 4.0 * comm_secs(&c, &algo, &resnet50()),
                "{algo:?}"
            );
        }
    }

    #[test]
    fn ring_allreduce_cost_is_bandwidth_optimal_in_the_limit() {
        // 2(w-1)/w · ser(b) approaches 2·ser(b) from below as w grows.
        let ser = cluster(1).link_secs(BandwidthClass::Nic, resnet50().total_bytes());
        let small = comm_secs(&cluster(2), &Algo::ArSgd, &resnet50());
        let large = comm_secs(&cluster(16), &Algo::ArSgd, &resnet50());
        assert!(small < large && large < 2.0 * ser);
    }

    #[test]
    fn easgd_amortizes_by_tau_and_gossip_by_p() {
        let c = cluster(4);
        let bsp = comm_secs(&c, &Algo::Bsp, &vgg16());
        let easgd = comm_secs(
            &c,
            &Algo::Easgd {
                tau: 4,
                alpha: None,
            },
            &vgg16(),
        );
        assert!((easgd - bsp / 4.0).abs() < 1e-12);
        let ser = c.link_secs(BandwidthClass::Nic, vgg16().total_bytes());
        let gossip = comm_secs(&c, &Algo::GoSgd { p: 0.5 }, &vgg16());
        assert!((gossip - 0.5 * ser).abs() < 1e-12);
    }

    #[test]
    fn predictive_signal_resnet_scales_where_vgg_saturates() {
        // The scheduler's Predictive policy lives off this contrast: on
        // 10 Gbps, ResNet-50 BSP keeps gaining throughput from a 4th
        // machine, while VGG-16 BSP gains much less (relative marginal
        // speedup), matching the paper's scalability story.
        let gain = |model: &ModelProfile| {
            throughput(&cluster(4), &Algo::Bsp, model, 96)
                / throughput(&cluster(3), &Algo::Bsp, model, 96)
        };
        let r = gain(&resnet50());
        let v = gain(&vgg16());
        assert!(r > v, "resnet gain {r} should beat vgg gain {v}");
        assert!(r > 1.05, "resnet should still scale: {r}");
    }

    #[test]
    fn heterogeneous_fleet_is_paced_by_its_slowest_class() {
        let mut c = cluster(4);
        let homo = compute_secs(&c, &resnet50(), 128);
        // Machine 3's four workers (ranks 12..16) run half-speed cards.
        c.gpu_classes = vec![c.gpu_tflops; c.num_workers()];
        for w in 12..16 {
            c.gpu_classes[w] = c.gpu_tflops / 2.0;
        }
        let hetero = compute_secs(&c, &resnet50(), 128);
        assert!((hetero / homo - 2.0).abs() < 1e-9, "slowest class paces");
        // Per-worker estimates still see each class.
        let fast = compute_secs_worker(&c, 0, &resnet50(), 128);
        let slow = compute_secs_worker(&c, 12, &resnet50(), 128);
        assert!((fast - homo).abs() < 1e-12);
        assert!((slow / fast - 2.0).abs() < 1e-9);
        // Dropping the slow machine via subcluster restores full speed —
        // this is what lets the scheduler's Predictive policy decline a
        // gang extension onto slow hardware.
        let sub = c.subcluster(3);
        assert!((compute_secs(&sub, &resnet50(), 128) - homo).abs() < 1e-12);
        assert!(
            throughput(&sub, &Algo::Bsp, &resnet50(), 128)
                > throughput(&c, &Algo::Bsp, &resnet50(), 128),
            "a half-speed 4th machine must be a net throughput loss"
        );
    }

    #[test]
    fn estimates_are_deterministic() {
        let c = cluster(5);
        let a = step_secs(&c, &Algo::Ssp { staleness: 3 }, &vgg16(), 96);
        let b = step_secs(&c, &Algo::Ssp { staleness: 3 }, &vgg16(), 96);
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
