//! The shared update rules on their own: the synchronous round's mean and
//! GoSGD's merge, the arithmetic the simulator and both real paths call.

use dtrain_nn::rules::{gossip_merge, rank_sum, round_mean};
use dtrain_nn::{Dense, Network, ParamSet};
use dtrain_tensor::Tensor;
use proptest::prelude::*;
use rand::{rngs::SmallRng, SeedableRng};

fn ps(v: &[f32]) -> ParamSet {
    ParamSet(vec![Tensor::from_vec(&[v.len()], v.to_vec())])
}

fn bits(p: &ParamSet) -> Vec<u32> {
    p.0[0].data().iter().map(|x| x.to_bits()).collect()
}

/// The rule written out: deposits summed rank 0, 1, 2, … and scaled once
/// by `1/Σweight`.
fn reference(deposits: &[(ParamSet, usize)]) -> ParamSet {
    let mut sum = deposits[0].0.clone();
    for (p, _) in &deposits[1..] {
        sum.add_assign(p);
    }
    let total: usize = deposits.iter().map(|(_, w)| w).sum();
    sum.scale(1.0 / total as f32);
    sum
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever order the deposits arrive in, the round mean is the
    /// rank-ascending sum scaled by `1/Σweight`, bit for bit — flat (every
    /// weight 1, equal to `ParamSet::mean_of`) and partial (leader sums
    /// with weights).
    #[test]
    fn round_mean_is_the_rank_ordered_rule_whatever_the_arrival_order(
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
        let arrived = order.iter().map(|&r| (r, deposits[r].clone()));

        let got = round_mean(arrived);
        prop_assert_eq!(bits(&got), bits(&reference(&deposits)));
        if flat {
            let sets: Vec<&ParamSet> = deposits.iter().map(|(p, _)| p).collect();
            prop_assert_eq!(bits(&got), bits(&ParamSet::mean_of(&sets)));
        }
    }
}

#[test]
fn rank_sum_of_nothing_is_none() {
    assert!(rank_sum(Vec::new()).is_none());
    let sum = rank_sum(vec![(2, ps(&[1.0])), (0, ps(&[2.0]))]).expect("two parts");
    assert_eq!(sum.0[0].data(), &[3.0]);
}

#[test]
fn gossip_merge_is_the_weighted_average_and_adds_the_weights() {
    let mut net = Network::new(vec![Box::new(Dense::new(
        "d",
        1,
        1,
        &mut SmallRng::seed_from_u64(0),
    ))]);
    net.set_params(&ParamSet(vec![
        Tensor::from_vec(&[1, 1], vec![4.0]),
        Tensor::from_vec(&[1], vec![0.0]),
    ]));
    let share = ParamSet(vec![
        Tensor::from_vec(&[1, 1], vec![1.0]),
        Tensor::from_vec(&[1], vec![2.0]),
    ]);
    // (0.5·x + 0.25·x_r) / 0.75
    let mut alpha = 0.5;
    gossip_merge(&mut alpha, 0.25, Some((&mut net, &share)));
    assert_eq!(alpha, 0.75);
    let x = net.get_params();
    assert!((x.0[0].data()[0] - 3.0).abs() < 1e-6);
    assert!((x.0[1].data()[0] - 2.0 / 3.0).abs() < 1e-6);
    // Without a replica only the weight moves.
    gossip_merge(&mut alpha, 0.25, None);
    assert_eq!(alpha, 1.0);
}
