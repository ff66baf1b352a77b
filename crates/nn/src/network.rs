//! A sequential network: an ordered stack of layers plus the glue the
//! distributed algorithms need — whole-model parameter get/set, gradient
//! collection, and the per-layer layout used for sharding and wait-free BP.

use dtrain_tensor::{accuracy, softmax_cross_entropy_scratch, Scratch, Tensor};

use crate::layer::Layer;
use crate::optim::SgdMomentum;
use crate::params::{LayerGroup, ParamLayout, ParamSet};

/// Sequential container. Owns the [`Scratch`] arena all its layers draw
/// temporaries from: after a warm-up step, steady-state `train_batch` calls
/// perform zero heap allocations in tensor temporaries.
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
    scratch: Scratch,
}

impl Network {
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Network {
            layers,
            scratch: Scratch::new(),
        }
    }

    /// Forward pass through every layer.
    pub fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
        let mut h = x;
        for layer in &mut self.layers {
            h = layer.forward(h, train, &mut self.scratch);
        }
        h
    }

    /// Backward pass; `dlogits` is the loss gradient w.r.t. the output.
    /// Nobody reads the gradient w.r.t. the network's input, so the first
    /// layer is asked for its parameter gradients only.
    pub fn backward(&mut self, dlogits: Tensor) {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return self.scratch.recycle_tensor(dlogits);
        };
        let mut g = dlogits;
        for layer in rest.iter_mut().rev() {
            g = layer.backward(g, &mut self.scratch);
        }
        first.backward_params(g, &mut self.scratch);
    }

    /// One forward+backward on a batch; returns `(loss, batch_accuracy)`.
    /// Gradients are left inside the layers; collect with [`Self::grads`].
    /// Each call is one step of the arena's [`Scratch::trim`] cycle, which
    /// frees the input batches the first layer parks in it.
    pub fn train_batch(&mut self, x: Tensor, labels: &[usize]) -> (f32, f32) {
        let logits = self.forward(x, true);
        let acc = accuracy(&logits, labels);
        let (loss, dlogits) = softmax_cross_entropy_scratch(&logits, labels, &mut self.scratch);
        self.scratch.recycle_tensor(logits);
        self.backward(dlogits);
        self.scratch.trim();
        (loss, acc)
    }

    /// Loss and accuracy on a batch without touching gradients.
    pub fn eval_batch(&mut self, x: Tensor, labels: &[usize]) -> (f32, f32) {
        let logits = self.forward(x, false);
        let acc = accuracy(&logits, labels);
        let (loss, dlogits) = softmax_cross_entropy_scratch(&logits, labels, &mut self.scratch);
        self.scratch.recycle_tensor(dlogits);
        self.scratch.recycle_tensor(logits);
        (loss, acc)
    }

    /// Heap growths the arena has performed: stays flat across steady-state
    /// training steps — the allocation-counting hook the zero-alloc
    /// regression test observes.
    pub fn scratch_grown(&self) -> usize {
        self.scratch.grown()
    }

    /// Arena requests served without touching the heap.
    pub fn scratch_reused(&self) -> usize {
        self.scratch.reused()
    }

    /// Snapshot all trainable parameters.
    pub fn get_params(&self) -> ParamSet {
        ParamSet(
            self.layers
                .iter()
                .flat_map(|l| l.params().into_iter().cloned())
                .collect(),
        )
    }

    /// Overwrite all trainable parameters from a congruent set.
    pub fn set_params(&mut self, params: &ParamSet) {
        let mut it = params.0.iter();
        for layer in &mut self.layers {
            for p in layer.params_mut() {
                let src = it.next().expect("param set too short for network");
                assert_eq!(p.shape(), src.shape(), "param shape mismatch");
                p.data_mut().copy_from_slice(src.data());
            }
        }
        assert!(it.next().is_none(), "param set longer than network");
    }

    /// The local SGD step: one `opt` step of `grad` at `lr` on this
    /// network's parameters.
    pub fn sgd_step(&mut self, opt: &mut SgdMomentum, grad: &ParamSet, lr: f32) {
        let mut p = self.get_params();
        opt.step(&mut p, grad, lr);
        self.set_params(&p);
    }

    /// Collect the gradients from the most recent backward pass.
    pub fn grads(&self) -> ParamSet {
        ParamSet(
            self.layers
                .iter()
                .flat_map(|l| l.grads().into_iter().cloned())
                .collect(),
        )
    }

    /// The gradients of the most recent backward pass, lent in
    /// [`Self::grads`]'s order: for a caller that only reads them, such as
    /// a transport encoding them onto the wire.
    pub fn grad_refs(&self) -> Vec<&Tensor> {
        self.layers.iter().flat_map(|l| l.grads()).collect()
    }

    /// Every trainable parameter tensor, writable, in [`Self::get_params`]'s
    /// order: for a caller that fills them in place, such as a transport
    /// decoding the wire's floats straight into them.
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Per-layer structure of the parameter set (only layers with params).
    pub fn layout(&self) -> ParamLayout {
        let mut groups = Vec::new();
        let mut idx = 0usize;
        for layer in &self.layers {
            let ps = layer.params();
            if ps.is_empty() {
                continue;
            }
            let indices: Vec<usize> = (idx..idx + ps.len()).collect();
            let num: usize = ps.iter().map(|t| t.len()).sum();
            idx += ps.len();
            groups.push(LayerGroup {
                name: layer.name().to_string(),
                tensor_indices: indices,
                num_params: num,
            });
        }
        ParamLayout { groups }
    }

    /// Total trainable scalar count.
    pub fn num_params(&self) -> usize {
        self.layers
            .iter()
            .flat_map(|l| l.params())
            .map(|t| t.len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Conv2d, Dense, Flatten, MaxPool2d, Relu};
    use dtrain_tensor::Conv2dSpec;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn tiny_net(seed: u64) -> Network {
        let mut rng = SmallRng::seed_from_u64(seed);
        Network::new(vec![
            Box::new(Dense::new("d0", 4, 8, &mut rng)),
            Box::new(Relu::new("r0")),
            Box::new(Dense::new("d1", 8, 3, &mut rng)),
        ])
    }

    #[test]
    fn param_roundtrip() {
        let mut net = tiny_net(0);
        let p = net.get_params();
        assert_eq!(p.num_tensors(), 4); // two dense layers × (W, b)
        assert_eq!(p.num_params(), 4 * 8 + 8 + 8 * 3 + 3);
        let mut p2 = p.clone();
        p2.scale(0.5);
        net.set_params(&p2);
        assert_eq!(net.get_params(), p2);
    }

    #[test]
    fn layout_covers_all_params() {
        let net = tiny_net(1);
        let layout = net.layout();
        assert_eq!(layout.groups.len(), 2);
        assert_eq!(layout.groups[0].name, "d0");
        assert_eq!(layout.num_params(), net.num_params());
    }

    #[test]
    fn grads_congruent_with_params() {
        let mut net = tiny_net(2);
        let mut rng = SmallRng::seed_from_u64(9);
        let x = Tensor::randn(&[5, 4], 1.0, &mut rng);
        let (loss, _acc) = net.train_batch(x, &[0, 1, 2, 0, 1]);
        assert!(loss.is_finite());
        let g = net.grads();
        let p = net.get_params();
        assert_eq!(g.num_tensors(), p.num_tensors());
        for (gt, pt) in g.0.iter().zip(&p.0) {
            assert_eq!(gt.shape(), pt.shape());
        }
        assert!(g.sq_norm() > 0.0, "gradient must be nonzero");
    }

    #[test]
    fn single_sgd_step_reduces_loss() {
        let mut net = tiny_net(3);
        let mut rng = SmallRng::seed_from_u64(4);
        let x = Tensor::randn(&[16, 4], 1.0, &mut rng);
        let labels: Vec<usize> = (0..16).map(|i| i % 3).collect();
        let (l0, _) = net.train_batch(x.clone(), &labels);
        let g = net.grads();
        let mut p = net.get_params();
        p.axpy(-0.1, &g);
        net.set_params(&p);
        let (l1, _) = net.eval_batch(x, &labels);
        assert!(l1 < l0, "loss should drop: {l0} -> {l1}");
    }

    fn conv_first(seed: u64) -> Vec<Box<dyn Layer>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let spec = Conv2dSpec {
            in_channels: 2,
            out_channels: 3,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        vec![
            Box::new(Conv2d::new("c0", spec, (6, 6), &mut rng)),
            Box::new(Relu::new("r0")),
            Box::new(MaxPool2d::new("p0", 2)),
            Box::new(Flatten::new("fl")),
            Box::new(Dense::new("head", 27, 3, &mut rng)),
        ]
    }

    /// `conv_first` with the ReLU fused into the conv.
    fn fused_first(seed: u64) -> Vec<Box<dyn Layer>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let spec = Conv2dSpec {
            in_channels: 2,
            out_channels: 3,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        vec![
            Box::new(Conv2d::new("c0", spec, (6, 6), &mut rng).with_relu()),
            Box::new(MaxPool2d::new("p0", 2)),
            Box::new(Flatten::new("fl")),
            Box::new(Dense::new("head", 27, 3, &mut rng)),
        ]
    }

    fn flatten_first(seed: u64) -> Vec<Box<dyn Layer>> {
        let mut rng = SmallRng::seed_from_u64(seed);
        vec![
            Box::new(Flatten::new("fl")),
            Box::new(Dense::new("d0", 72, 8, &mut rng)),
            Box::new(Relu::new("r0")),
            Box::new(Dense::new("d1", 8, 3, &mut rng)),
        ]
    }

    #[test]
    fn train_batch_grads_equal_a_full_backward_walk() {
        // `Network::backward` asks its first layer for parameter gradients
        // only; they must be the bits a plain `Layer::backward` over every
        // layer leaves, whichever layer kind comes first (`Flatten` takes
        // the provided method, `Conv2d` and `Dense` their overrides; a
        // fused-ReLU `Conv2d` masks its gradient on both paths).
        let mut rng = SmallRng::seed_from_u64(31);
        let images = Tensor::randn(&[4, 2, 6, 6], 1.0, &mut rng);
        let rows = images.clone().reshape(&[4, 72]);
        let labels = [0usize, 2, 1, 0];
        type Build = fn(u64) -> Vec<Box<dyn Layer>>;
        let dense_first: Build = |seed| flatten_first(seed).split_off(1);
        for (build, x) in [
            (conv_first as Build, &images),
            (fused_first, &images),
            (flatten_first, &images),
            (dense_first, &rows),
        ] {
            let mut net = Network::new(build(5));
            let (loss, _) = net.train_batch(x.clone(), &labels);

            let mut layers = build(5);
            let mut scratch = Scratch::new();
            let mut h = x.clone();
            for layer in &mut layers {
                h = layer.forward(h, true, &mut scratch);
            }
            let (by_hand_loss, mut g) = softmax_cross_entropy_scratch(&h, &labels, &mut scratch);
            for layer in layers.iter_mut().rev() {
                g = layer.backward(g, &mut scratch);
            }
            assert_eq!(g.len(), x.len(), "the walk did produce an input gradient");
            let by_hand: Vec<&Tensor> = layers.iter().flat_map(|l| l.grads()).collect();

            assert_eq!(loss.to_bits(), by_hand_loss.to_bits());
            let got = net.grads();
            assert_eq!(got.num_tensors(), by_hand.len());
            for (a, b) in got.0.iter().zip(by_hand) {
                let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(a), bits(b), "in a {}-layer net", layers.len());
            }
        }
    }

    #[test]
    fn empty_network_is_the_identity() {
        let mut net = Network::new(Vec::new());
        let x = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 3., 2., 1.]);
        let (loss, acc) = net.train_batch(x.clone(), &[2, 0]);
        assert!(loss.is_finite());
        assert_eq!(acc, 1.0);
        assert_eq!(net.grads().num_tensors(), 0);
        assert_eq!(net.forward(x.clone(), false), x);
    }
}
