//! Property-based tests over the algorithm building blocks and whole runs:
//! conservation laws, slicing bijections, and determinism under randomized
//! configurations.

use dtrain_algos::{
    run, shard_tensor_indices, slice_set, unslice_set, Algo, OptimizationConfig, RunConfig,
    StopCondition,
};
use dtrain_cluster::{ClusterConfig, NetworkConfig, ShardPlan};
use dtrain_models::uniform_profile;
use dtrain_nn::rules::round_mean;
use dtrain_nn::{LayerGroup, ParamLayout, ParamSet};
use dtrain_tensor::Tensor;
use proptest::prelude::*;

fn param_set(len: usize) -> impl Strategy<Value = ParamSet> {
    prop::collection::vec(-5.0f32..5.0, len)
        .prop_map(move |v| ParamSet(vec![Tensor::from_vec(&[v.len()], v)]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The elastic exchange conserves the pair sum: x̃' + x_w' = x̃ + x_w.
    #[test]
    fn elastic_exchange_conserves_sum(
        c in param_set(6),
        w in param_set(6),
        alpha in 0.0f32..1.0,
    ) {
        let mut center = c.clone();
        let updated = center.elastic_exchange(&w, alpha);
        for i in 0..6 {
            let before = c.0[0].data()[i] + w.0[0].data()[i];
            let after = center.0[0].data()[i] + updated.0[0].data()[i];
            prop_assert!((before - after).abs() < 1e-4);
        }
    }

    /// A synchronous round's mean is the weighted mean of its deposits, and
    /// its bits do not depend on the order the deposits arrived in.
    #[test]
    fn round_mean_does_not_depend_on_deposit_order(
        sets in prop::collection::vec((param_set(4), 1usize..4), 1..5),
        rotate in 0usize..4,
    ) {
        let keyed = |order: Vec<usize>| {
            order.into_iter().map(|r| (r, sets[r].clone())).collect::<Vec<_>>()
        };
        let n = sets.len();
        let ranked = round_mean(keyed((0..n).collect()));
        let mut arrival: Vec<usize> = (0..n).rev().collect();
        arrival.rotate_left(rotate % n);
        let arrived = round_mean(keyed(arrival));
        prop_assert_eq!(&ranked, &arrived);
        let total: usize = sets.iter().map(|(_, w)| w).sum();
        for i in 0..4 {
            let sum: f32 = sets.iter().map(|(s, _)| s.0[0].data()[i]).sum();
            prop_assert!((ranked.0[0].data()[i] - sum / total as f32).abs() < 1e-4);
        }
    }

    /// Slicing a set by any shard plan and writing the slices back is the
    /// identity, for every shard count.
    #[test]
    fn slice_unslice_roundtrip(
        tensors in prop::collection::vec(1usize..6, 2..6),
        shards in 1usize..5,
    ) {
        // Build a layout with one group per tensor.
        let mut idx = 0usize;
        let groups: Vec<LayerGroup> = tensors
            .iter()
            .enumerate()
            .map(|(g, &len)| {
                let group = LayerGroup {
                    name: format!("g{g}"),
                    tensor_indices: vec![g],
                    num_params: len,
                };
                idx += 1;
                group
            })
            .collect();
        let _ = idx;
        let layout = ParamLayout { groups };
        let bytes: Vec<u64> = tensors.iter().map(|&l| l as u64 * 4).collect();
        let plan = ShardPlan::layer_wise(&bytes, shards);
        let original = ParamSet(
            tensors
                .iter()
                .enumerate()
                .map(|(i, &len)| Tensor::full(&[len], i as f32 + 0.5))
                .collect(),
        );
        let mut rebuilt = ParamSet(
            tensors.iter().map(|&len| Tensor::zeros(&[len])).collect(),
        );
        for s in 0..shards {
            let indices = shard_tensor_indices(&layout, &plan, s);
            let slice = slice_set(&original, &indices);
            unslice_set(&mut rebuilt, &indices, &slice);
        }
        prop_assert_eq!(rebuilt, original);
    }

    /// Every algorithm's cost-only run is deterministic and does the exact
    /// iteration count, across randomized worker counts and seeds.
    #[test]
    fn runs_are_deterministic_and_complete(
        algo_idx in 0usize..7,
        workers in 2usize..9,
        seed in 0u64..1000,
    ) {
        let algo = [
            Algo::Bsp,
            Algo::Asp,
            Algo::Ssp { staleness: 2 },
            Algo::Easgd { tau: 3, alpha: None },
            Algo::ArSgd,
            Algo::GoSgd { p: 0.3 },
            Algo::AdPsgd,
        ][algo_idx];
        let iters = 4u64;
        let cfg = RunConfig {
            algo,
            cluster: ClusterConfig::paper_with_workers(
                NetworkConfig::FIFTY_SIX_GBPS,
                workers,
            ),
            workers,
            profile: uniform_profile(6, 50_000, 1_000_000_000),
            batch: 16,
            opts: OptimizationConfig {
                ps_shards: if algo.is_centralized() { 3 } else { 1 },
                ..Default::default()
            },
            stop: StopCondition::Iterations(iters),
            faults: None,
            real: None,
            seed,
        };
        let a = run(&cfg);
        let b = run(&cfg);
        prop_assert_eq!(a.end_time, b.end_time);
        prop_assert_eq!(a.traffic.inter_bytes, b.traffic.inter_bytes);
        prop_assert_eq!(a.total_iterations, workers as u64 * iters);
    }

    /// AR-SGD's ring moves exactly 2·(N−1)·chunk bytes per worker per
    /// iteration — the bandwidth-optimality property of ring all-reduce.
    #[test]
    fn ring_traffic_is_exact(workers in 2usize..10) {
        let iters = 3u64;
        let profile = uniform_profile(4, 250_000, 1_000_000);
        let model_bytes = 4 * 250_000 * 4u64;
        let cfg = RunConfig {
            algo: Algo::ArSgd,
            cluster: ClusterConfig::paper_with_workers(
                NetworkConfig::FIFTY_SIX_GBPS,
                workers,
            ),
            workers,
            profile,
            batch: 16,
            opts: OptimizationConfig::default(),
            stop: StopCondition::Iterations(iters),
            faults: None,
            real: None,
            seed: 1,
        };
        let out = run(&cfg);
        let chunk = model_bytes / workers as u64;
        let expect =
            iters * workers as u64 * 2 * (workers as u64 - 1) * chunk;
        let measured = out
            .traffic
            .bytes_of(dtrain_cluster::TrafficClass::Peer);
        prop_assert_eq!(measured, expect);
    }
}
