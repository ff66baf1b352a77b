//! Small trainable models for the accuracy experiments.
//!
//! The accuracy phenomena the paper studies (staleness, intermittent and
//! asymmetric aggregation, replica drift) are properties of the aggregation
//! schedule, not of model scale — so the accuracy runs train these compact
//! networks with *real* math while the virtual clock is driven by the
//! full-size profiles from [`crate::profile`].

use dtrain_nn::{
    BatchNorm2d, Conv2d, Dense, Flatten, Layer as _, MaxPool2d, Network, Relu, Residual,
};
use dtrain_tensor::Conv2dSpec;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// An MLP classifier `input_dim → hidden… → classes` with ReLU activations.
/// All workers must build their replica with the same `seed` so they start
/// from identical parameters (as a broadcast from worker 0 would ensure in
/// a real system).
pub fn mlp_classifier(input_dim: usize, hidden: &[usize], classes: usize, seed: u64) -> Network {
    let mut rng = SmallRng::seed_from_u64(seed);
    mlp(input_dim, hidden, classes, |name, i, o| {
        Dense::new(name, i, o, &mut rng)
    })
}

/// [`mlp_classifier`]'s network with every parameter zero: the same layers,
/// names and layout, no weight drawn. For a replica whose parameters are
/// set before it is used — a process-path worker adopting the
/// coordinator's, an evaluator the cohort's mean — which would otherwise
/// pay for a He-init it overwrites at once.
pub fn zeroed_mlp(input_dim: usize, hidden: &[usize], classes: usize) -> Network {
    mlp(input_dim, hidden, classes, Dense::zeroed)
}

/// The MLP's layer stack, each dense layer built by `dense(name, in, out)`.
fn mlp(
    input_dim: usize,
    hidden: &[usize],
    classes: usize,
    mut dense: impl FnMut(String, usize, usize) -> Dense,
) -> Network {
    let mut layers: Vec<Box<dyn dtrain_nn::Layer>> = Vec::new();
    let mut d = input_dim;
    for (i, &h) in hidden.iter().enumerate() {
        layers.push(Box::new(dense(format!("dense{i}"), d, h)));
        layers.push(Box::new(Relu::new(format!("relu{i}"))));
        d = h;
    }
    layers.push(Box::new(dense(
        format!("dense{}", hidden.len()),
        d,
        classes,
    )));
    Network::new(layers)
}

/// The default MLP used by the accuracy experiments: 32→64→32→classes.
pub fn default_mlp(classes: usize, seed: u64) -> Network {
    mlp_classifier(32, &[64, 32], classes, seed)
}

/// A small CNN for `[C, side, side]` inputs:
/// conv3×3(8) → relu → pool2 → conv3×3(16) → relu → pool2 → flatten → dense.
/// Each ReLU is fused into the conv before it ([`Conv2d::with_relu`]), so
/// the network has six layers, three with parameters (`conv0`, `conv1`,
/// `dense0`), and computes the bits of the unfused stack.
/// Requires `side` divisible by 4.
pub fn small_cnn(channels: usize, side: usize, classes: usize, seed: u64) -> Network {
    assert!(
        side.is_multiple_of(4),
        "small_cnn needs side divisible by 4"
    );
    let mut rng = SmallRng::seed_from_u64(seed);
    let c1 = Conv2dSpec {
        in_channels: channels,
        out_channels: 8,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let c2 = Conv2dSpec {
        in_channels: 8,
        out_channels: 16,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let s2 = side / 2;
    let s4 = side / 4;
    Network::new(vec![
        Box::new(Conv2d::new("conv0", c1, (side, side), &mut rng).with_relu()),
        Box::new(MaxPool2d::new("pool0", 2)),
        Box::new(Conv2d::new("conv1", c2, (s2, s2), &mut rng).with_relu()),
        Box::new(MaxPool2d::new("pool1", 2)),
        Box::new(Flatten::new("flatten")),
        Box::new(Dense::new("dense0", 16 * s4 * s4, classes, &mut rng)),
    ])
}

/// A genuinely residual CNN stand-in for ResNet-50: a conv stem, `blocks`
/// identity-skip residual blocks (each conv3×3 → relu → conv3×3 at constant
/// width), then pool → flatten → dense. Requires `side` divisible by 2.
pub fn mini_resnet(
    channels: usize,
    side: usize,
    classes: usize,
    blocks: usize,
    seed: u64,
) -> Network {
    assert!(
        side.is_multiple_of(2),
        "mini_resnet needs side divisible by 2"
    );
    assert!(blocks >= 1, "need at least one residual block");
    let mut rng = SmallRng::seed_from_u64(seed);
    let width = 12usize;
    let stem = Conv2dSpec {
        in_channels: channels,
        out_channels: width,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let body = Conv2dSpec {
        in_channels: width,
        out_channels: width,
        kernel: 3,
        stride: 1,
        padding: 1,
    };
    let mut layers: Vec<Box<dyn dtrain_nn::Layer>> = vec![
        Box::new(Conv2d::new("stem", stem, (side, side), &mut rng)),
        Box::new(BatchNorm2d::new("stem_bn", width)),
        Box::new(Relu::new("stem_relu")),
    ];
    for b in 0..blocks {
        // Zero-init the branch's final BN scale (γ) so each block starts as
        // the identity ("zero-init residual", as in the ResNet training
        // recipes): activations don't compound across blocks at init, which
        // keeps the distributed experiments' higher learning rates stable.
        let mut last_bn = BatchNorm2d::new(format!("res{b}_bn_b"), width);
        last_bn.params_mut()[0].zero_();
        layers.push(Box::new(Residual::new(
            format!("res{b}"),
            vec![
                Box::new(Conv2d::new(
                    format!("res{b}_a"),
                    body,
                    (side, side),
                    &mut rng,
                )),
                Box::new(BatchNorm2d::new(format!("res{b}_bn_a"), width)),
                Box::new(Relu::new(format!("res{b}_relu"))),
                Box::new(Conv2d::new(
                    format!("res{b}_b"),
                    body,
                    (side, side),
                    &mut rng,
                )),
                Box::new(last_bn),
            ],
        )));
        layers.push(Box::new(Relu::new(format!("post{b}_relu"))));
    }
    let half = side / 2;
    layers.push(Box::new(MaxPool2d::new("pool", 2)));
    layers.push(Box::new(Flatten::new("flatten")));
    layers.push(Box::new(Dense::new(
        "head",
        width * half * half,
        classes,
        &mut rng,
    )));
    Network::new(layers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtrain_nn::ParamSet;
    use dtrain_tensor::Tensor;

    #[test]
    fn same_seed_same_replica() {
        let a = default_mlp(10, 7).get_params();
        let b = default_mlp(10, 7).get_params();
        assert_eq!(a, b);
        let c = default_mlp(10, 8).get_params();
        assert_ne!(a, c);
    }

    #[test]
    fn mlp_shapes() {
        let mut net = mlp_classifier(6, &[4], 3, 0);
        let y = net.forward(Tensor::zeros(&[2, 6]), false);
        assert_eq!(y.shape(), &[2, 3]);
        assert_eq!(net.num_params(), 6 * 4 + 4 + 4 * 3 + 3);
        assert_eq!(net.layout().groups.len(), 2);
    }

    /// `zeroed_mlp` is `mlp_classifier` without the draw: the same
    /// layout, and once both hold the same parameters a training step
    /// computes the same loss and gradients, bit for bit.
    #[test]
    fn zeroed_mlp_trains_as_mlp_classifier_once_set() {
        let bits = |p: &ParamSet| -> Vec<u32> {
            p.0.iter()
                .flat_map(|t| t.data().iter().map(|v| v.to_bits()))
                .collect()
        };
        let (dims, hidden, classes) = (6, [5, 4], 3);
        let mut drawn = mlp_classifier(dims, &hidden, classes, 11);
        let mut zeroed = zeroed_mlp(dims, &hidden, classes);
        assert_eq!(zeroed.layout(), drawn.layout());
        assert!(
            bits(&zeroed.get_params()).iter().all(|&b| b == 0),
            "no draw"
        );

        let p = mlp_classifier(dims, &hidden, classes, 29).get_params();
        drawn.set_params(&p);
        zeroed.set_params(&p);
        let mut rng = SmallRng::seed_from_u64(3);
        let x = Tensor::randn(&[4, dims], 1.0, &mut rng);
        let labels = [0, 2, 1, 2];
        let (loss_a, acc_a) = drawn.train_batch(x.clone(), &labels);
        let (loss_b, acc_b) = zeroed.train_batch(x, &labels);
        assert_eq!(loss_a.to_bits(), loss_b.to_bits());
        assert_eq!(acc_a.to_bits(), acc_b.to_bits());
        assert_eq!(bits(&drawn.grads()), bits(&zeroed.grads()));
    }

    #[test]
    fn cnn_forward_backward() {
        let mut net = small_cnn(1, 12, 8, 3);
        let mut rng = SmallRng::seed_from_u64(1);
        let x = Tensor::randn(&[4, 1, 12, 12], 1.0, &mut rng);
        let (loss, _acc) = net.train_batch(x, &[0, 1, 2, 3]);
        assert!(loss.is_finite());
        assert!(net.grads().sq_norm() > 0.0);
        assert_eq!(net.layout().groups.len(), 3); // conv0, conv1, dense0
    }

    #[test]
    fn mini_resnet_shapes_and_gradients() {
        let mut net = mini_resnet(1, 12, 8, 2, 5);
        let mut rng = SmallRng::seed_from_u64(2);
        let x = Tensor::randn(&[4, 1, 12, 12], 1.0, &mut rng);
        let (loss, _) = net.train_batch(x, &[0, 1, 2, 3]);
        assert!(loss.is_finite());
        assert!(net.grads().sq_norm() > 0.0);
        // stem conv + stem bn + 2 residual blocks + head = 5 param groups
        assert_eq!(net.layout().groups.len(), 5);
        assert_eq!(net.layout().groups[2].name, "res0");
    }

    #[test]
    fn mini_resnet_learns_prototype_images() {
        use dtrain_data::{prototype_images, ImageTaskConfig};
        use dtrain_nn::SgdMomentum;
        let (train, test) = prototype_images(&ImageTaskConfig {
            train_size: 512,
            test_size: 128,
            ..Default::default()
        });
        let mut net = mini_resnet(1, 12, train.num_classes(), 2, 0);
        let mut opt = SgdMomentum::new(0.9, 1e-4);
        let shard = train.shard(0, 1);
        for epoch in 0..6 {
            for batch in shard.epoch_batches(32, 0, epoch) {
                let (x, y) = train.gather(&batch);
                net.train_batch(x, &y);
                let g = net.grads();
                let mut p = net.get_params();
                opt.step(&mut p, &g, 0.02);
                net.set_params(&p);
            }
        }
        let (x, y) = test.as_batch();
        let (_, acc) = net.eval_batch(x, &y);
        assert!(acc > 0.6, "mini-resnet accuracy {acc}");
    }

    #[test]
    fn mlp_learns_teacher_task() {
        use dtrain_data::{teacher_task, TeacherTaskConfig};
        use dtrain_nn::SgdMomentum;
        let cfg = TeacherTaskConfig {
            train_size: 1024,
            test_size: 256,
            label_noise: 0.0,
            ..Default::default()
        };
        let (train, test) = teacher_task(&cfg);
        let mut net = default_mlp(train.num_classes(), 0);
        let mut opt = SgdMomentum::new(0.9, 1e-4);
        let shard = train.shard(0, 1);
        for epoch in 0..30 {
            for batch in shard.epoch_batches(64, 0, epoch) {
                let (x, y) = train.gather(&batch);
                net.train_batch(x, &y);
                let g = net.grads();
                let mut p = net.get_params();
                opt.step(&mut p, &g, 0.05);
                net.set_params(&p);
            }
        }
        let (x, y) = test.as_batch();
        let (_, acc) = net.eval_batch(x, &y);
        assert!(acc > 0.5, "test accuracy after training: {acc}");
    }
}
