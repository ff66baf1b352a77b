//! Layers with hand-written backward passes.
//!
//! Each trainable layer caches whatever its backward pass needs during
//! `forward(train=true)` and accumulates parameter gradients internally;
//! [`crate::network::Network`] collects them into a
//! [`crate::params::ParamSet`] after the backward sweep.
//!
//! Every `forward`/`backward` takes the network-owned [`Scratch`] arena:
//! layers draw activations, gradients, and kernel workspaces from it and
//! recycle consumed tensors back into it, so a steady-state training step
//! performs zero heap allocations inside the layer stack.

use dtrain_tensor::{
    add_bias, conv2d_backward_scratch, conv2d_forward_scratch, conv2d_param_grads_scratch,
    conv2d_relu_forward_scratch, matmul_a_bt_scratch, matmul_at_b_scratch, matmul_scratch,
    maxpool2d_backward_scratch, maxpool2d_forward_scratch, relu_backward_scratch, relu_mask_grad,
    relu_scratch, sum_rows_scratch, Conv2dSpec, Scratch, Shape, Tensor,
};
use rand::Rng;

/// A differentiable layer. `forward` consumes its input and produces the
/// activation; `backward` consumes the incoming gradient and produces the
/// gradient w.r.t. the layer input, stashing parameter gradients internally.
/// Consumed tensors are recycled into `scratch`; outputs are drawn from it.
pub trait Layer: Send {
    /// Stable name used in layouts and shard plans.
    fn name(&self) -> &str;

    fn forward(&mut self, x: Tensor, train: bool, scratch: &mut Scratch) -> Tensor;

    fn backward(&mut self, grad: Tensor, scratch: &mut Scratch) -> Tensor;

    /// [`Self::backward`] for a layer nothing precedes: the parameter
    /// gradients are stashed as usual, the input gradient has no reader.
    /// Layers whose input gradient is a separate computation override this
    /// to skip it.
    fn backward_params(&mut self, grad: Tensor, scratch: &mut Scratch) {
        let dx = self.backward(grad, scratch);
        scratch.recycle_tensor(dx);
    }

    /// Trainable tensors, in a fixed order.
    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    /// Gradients from the most recent backward, congruent with `params()`.
    fn grads(&self) -> Vec<&Tensor> {
        Vec::new()
    }
}

/// Stash `t` in `slot`, recycling whatever the slot held before.
fn cache_tensor(slot: &mut Option<Tensor>, t: Tensor, scratch: &mut Scratch) {
    if let Some(old) = slot.replace(t) {
        scratch.recycle_tensor(old);
    }
}

/// Fully-connected layer: `y = x·Wᵀ + b`, with `W[out,in]`.
pub struct Dense {
    name: String,
    weight: Tensor,
    bias: Tensor,
    dweight: Tensor,
    dbias: Tensor,
    cached_input: Option<Tensor>,
}

impl Dense {
    pub fn new(name: impl Into<String>, in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        Dense::with_weight(
            name.into(),
            Tensor::he_init(&[out_dim, in_dim], in_dim, rng),
        )
    }

    /// The layer's shapes with every parameter zero, for a replica whose
    /// parameters are overwritten before use: no weight is drawn.
    pub fn zeroed(name: impl Into<String>, in_dim: usize, out_dim: usize) -> Self {
        Dense::with_weight(name.into(), Tensor::zeros(&[out_dim, in_dim]))
    }

    /// A layer around `weight[out, in]`, its bias and gradients zero.
    fn with_weight(name: String, weight: Tensor) -> Self {
        let (out_dim, in_dim) = (weight.shape()[0], weight.shape()[1]);
        Dense {
            name,
            weight,
            bias: Tensor::zeros(&[out_dim]),
            dweight: Tensor::zeros(&[out_dim, in_dim]),
            dbias: Tensor::zeros(&[out_dim]),
            cached_input: None,
        }
    }

    /// Stash `dW`, `db` for `grad`; returns the cached input they consumed.
    fn param_grads(&mut self, grad: &Tensor, scratch: &mut Scratch) -> Tensor {
        let x = self
            .cached_input
            .take()
            .expect("backward without forward(train=true)");
        // dW[out,in] = gradᵀ[out,batch] · x[batch,in]
        let dw = matmul_at_b_scratch(grad, &x, scratch);
        scratch.recycle_tensor(std::mem::replace(&mut self.dweight, dw));
        let db = sum_rows_scratch(grad, scratch);
        scratch.recycle_tensor(std::mem::replace(&mut self.dbias, db));
        x
    }
}

impl Layer for Dense {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, x: Tensor, train: bool, scratch: &mut Scratch) -> Tensor {
        let mut y = matmul_a_bt_scratch(&x, &self.weight, scratch);
        add_bias(&mut y, &self.bias);
        if train {
            cache_tensor(&mut self.cached_input, x, scratch);
        } else {
            scratch.recycle_tensor(x);
        }
        y
    }

    fn backward(&mut self, grad: Tensor, scratch: &mut Scratch) -> Tensor {
        let x = self.param_grads(&grad, scratch);
        // dx[batch,in] = grad[batch,out] · W[out,in]
        let dx = matmul_scratch(&grad, &self.weight, scratch);
        scratch.recycle_tensor(x);
        scratch.recycle_tensor(grad);
        dx
    }

    fn backward_params(&mut self, grad: Tensor, scratch: &mut Scratch) {
        let x = self.param_grads(&grad, scratch);
        scratch.recycle_tensor(x);
        scratch.recycle_tensor(grad);
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![&self.dweight, &self.dbias]
    }
}

/// Elementwise ReLU.
pub struct Relu {
    name: String,
    cached_input: Option<Tensor>,
}

impl Relu {
    pub fn new(name: impl Into<String>) -> Self {
        Relu {
            name: name.into(),
            cached_input: None,
        }
    }
}

impl Layer for Relu {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, x: Tensor, train: bool, scratch: &mut Scratch) -> Tensor {
        let y = relu_scratch(&x, scratch);
        if train {
            cache_tensor(&mut self.cached_input, x, scratch);
        } else {
            scratch.recycle_tensor(x);
        }
        y
    }

    fn backward(&mut self, grad: Tensor, scratch: &mut Scratch) -> Tensor {
        let x = self
            .cached_input
            .take()
            .expect("backward without forward(train=true)");
        let dx = relu_backward_scratch(&x, &grad, scratch);
        scratch.recycle_tensor(x);
        scratch.recycle_tensor(grad);
        dx
    }
}

/// Convolution layer over `[N, C, H, W]` with square kernels, optionally
/// with a ReLU on its output ([`Conv2d::with_relu`]).
pub struct Conv2d {
    name: String,
    spec: Conv2dSpec,
    in_hw: (usize, usize),
    weight: Tensor,
    bias: Tensor,
    dweight: Tensor,
    dbias: Tensor,
    /// What `conv2d_backward` needs of the last training input.
    cached_input: Option<Tensor>,
    /// The output carries a fused ReLU.
    relu: bool,
    /// Where the last training output was positive (fused ReLU only).
    cached_mask: Option<Vec<u32>>,
}

impl Conv2d {
    pub fn new(
        name: impl Into<String>,
        spec: Conv2dSpec,
        in_hw: (usize, usize),
        rng: &mut impl Rng,
    ) -> Self {
        let ws = spec.weight_shape();
        let fan_in = ws[1];
        Conv2d {
            name: name.into(),
            spec,
            in_hw,
            weight: Tensor::he_init(&ws, fan_in, rng),
            bias: Tensor::zeros(&[spec.out_channels]),
            dweight: Tensor::zeros(&ws),
            dbias: Tensor::zeros(&[spec.out_channels]),
            cached_input: None,
            relu: false,
            cached_mask: None,
        }
    }

    /// This convolution followed by a ReLU, fused into the bias epilogue:
    /// the bits of `Conv2d` → [`Relu`], without the activation pass, its
    /// copy of the pre-activation, or its backward pass over it (the
    /// gradient is masked in place by one bit per output element).
    pub fn with_relu(mut self) -> Self {
        self.relu = true;
        self
    }

    /// Output spatial size given the configured input size.
    pub fn out_hw(&self) -> (usize, usize) {
        (
            self.spec.out_size(self.in_hw.0),
            self.spec.out_size(self.in_hw.1),
        )
    }

    /// The cached input, and `grad` through the fused ReLU's backward.
    fn take_cache(&mut self, grad: &mut Tensor, scratch: &mut Scratch) -> Tensor {
        if let Some(mask) = self.cached_mask.take() {
            relu_mask_grad(grad, &mask);
            scratch.recycle_u32(mask);
        }
        self.cached_input
            .take()
            .expect("backward without forward(train=true)")
    }

    /// Stash the new parameter gradients; recycle what backward consumed.
    fn retire(&mut self, dw: Tensor, db: Tensor, cache: Tensor, grad: Tensor, s: &mut Scratch) {
        s.recycle_tensor(std::mem::replace(&mut self.dweight, dw));
        s.recycle_tensor(std::mem::replace(&mut self.dbias, db));
        s.recycle_tensor(cache);
        s.recycle_tensor(grad);
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, x: Tensor, train: bool, scratch: &mut Scratch) -> Tensor {
        let (w, b, spec) = (&self.weight, &self.bias, &self.spec);
        let (y, cache, mask) = if self.relu {
            let (y, cache, mask) = conv2d_relu_forward_scratch(&x, w, b, spec, scratch);
            (y, cache, Some(mask))
        } else {
            let (y, cache) = conv2d_forward_scratch(&x, w, b, spec, scratch);
            (y, cache, None)
        };
        scratch.recycle_tensor(x);
        if train {
            cache_tensor(&mut self.cached_input, cache, scratch);
            if let Some(old) = std::mem::replace(&mut self.cached_mask, mask) {
                scratch.recycle_u32(old);
            }
        } else {
            scratch.recycle_tensor(cache);
            if let Some(mask) = mask {
                scratch.recycle_u32(mask);
            }
        }
        y
    }

    fn backward(&mut self, mut grad: Tensor, scratch: &mut Scratch) -> Tensor {
        let cache = self.take_cache(&mut grad, scratch);
        let (dx, dw, db) = conv2d_backward_scratch(
            &grad,
            &cache,
            &self.weight,
            &self.spec,
            self.in_hw.0,
            self.in_hw.1,
            scratch,
        );
        self.retire(dw, db, cache, grad, scratch);
        dx
    }

    fn backward_params(&mut self, mut grad: Tensor, scratch: &mut Scratch) {
        let cache = self.take_cache(&mut grad, scratch);
        let (dw, db) = conv2d_param_grads_scratch(&grad, &cache, &self.spec, scratch);
        self.retire(dw, db, cache, grad, scratch);
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn grads(&self) -> Vec<&Tensor> {
        vec![&self.dweight, &self.dbias]
    }
}

/// Square max-pooling.
pub struct MaxPool2d {
    name: String,
    window: usize,
    cached: Option<(Vec<u32>, Shape)>,
}

impl MaxPool2d {
    pub fn new(name: impl Into<String>, window: usize) -> Self {
        MaxPool2d {
            name: name.into(),
            window,
            cached: None,
        }
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, x: Tensor, train: bool, scratch: &mut Scratch) -> Tensor {
        let in_shape = Shape::from(x.shape());
        let (y, idx) = maxpool2d_forward_scratch(&x, self.window, scratch);
        scratch.recycle_tensor(x);
        if train {
            if let Some((old_idx, _)) = self.cached.replace((idx, in_shape)) {
                scratch.recycle_u32(old_idx);
            }
        } else {
            scratch.recycle_u32(idx);
        }
        y
    }

    fn backward(&mut self, grad: Tensor, scratch: &mut Scratch) -> Tensor {
        let (idx, in_shape) = self
            .cached
            .take()
            .expect("backward without forward(train=true)");
        let dx = maxpool2d_backward_scratch(&grad, &idx, &in_shape, scratch);
        scratch.recycle_u32(idx);
        scratch.recycle_tensor(grad);
        dx
    }
}

/// Collapse `[N, C, H, W]` → `[N, C·H·W]` (and reverse in backward).
pub struct Flatten {
    name: String,
    cached_shape: Option<Shape>,
}

impl Flatten {
    pub fn new(name: impl Into<String>) -> Self {
        Flatten {
            name: name.into(),
            cached_shape: None,
        }
    }
}

impl Layer for Flatten {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, x: Tensor, train: bool, _scratch: &mut Scratch) -> Tensor {
        let shape = Shape::from(x.shape());
        let n = shape[0];
        let rest: usize = shape[1..].iter().product();
        if train {
            self.cached_shape = Some(shape);
        }
        x.reshape(&[n, rest])
    }

    fn backward(&mut self, grad: Tensor, _scratch: &mut Scratch) -> Tensor {
        let shape = self
            .cached_shape
            .take()
            .expect("backward without forward(train=true)");
        grad.reshape(&shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn dense_forward_known_values() {
        let mut s = Scratch::new();
        let mut rng = SmallRng::seed_from_u64(0);
        let mut d = Dense::new("d", 2, 1, &mut rng);
        // overwrite weights for a known case: y = 2*x0 - x1 + 0.5
        d.params_mut()[0].data_mut().copy_from_slice(&[2.0, -1.0]);
        d.params_mut()[1].data_mut().copy_from_slice(&[0.5]);
        let x = Tensor::from_vec(&[2, 2], vec![1., 1., 3., 0.]);
        let y = d.forward(x, false, &mut s);
        assert_eq!(y.data(), &[1.5, 6.5]);
    }

    #[test]
    fn dense_gradient_finite_difference() {
        let mut s = Scratch::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut d = Dense::new("d", 3, 2, &mut rng);
        let x = Tensor::randn(&[4, 3], 1.0, &mut rng);
        // loss = sum(y); dL/dy = ones
        let y = d.forward(x.clone(), true, &mut s);
        let g = Tensor::full(y.shape(), 1.0);
        let dx = d.backward(g, &mut s);
        let eps = 1e-2f32;
        // weight grad check
        let base_w = d.params()[0].clone();
        for i in [0usize, 3, 5] {
            let mut dp = d.params_mut();
            dp[0].data_mut()[i] = base_w.data()[i] + eps;
            drop(dp);
            let yp = d.forward(x.clone(), false, &mut s).sum();
            let mut dp = d.params_mut();
            dp[0].data_mut()[i] = base_w.data()[i] - eps;
            drop(dp);
            let ym = d.forward(x.clone(), false, &mut s).sum();
            let mut dp = d.params_mut();
            dp[0].data_mut()[i] = base_w.data()[i];
            drop(dp);
            let fd = (yp - ym) / (2.0 * eps);
            let analytic = d.grads()[0].data()[i];
            assert!((fd - analytic).abs() < 1e-2, "w[{i}] {fd} vs {analytic}");
        }
        // input grad check
        for i in [0usize, 7] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fp = d.forward(xp, false, &mut s).sum();
            let fm = d.forward(xm, false, &mut s).sum();
            let fd = (fp - fm) / (2.0 * eps);
            assert!((fd - dx.data()[i]).abs() < 1e-2);
        }
    }

    #[test]
    fn relu_layer_masks_gradient() {
        let mut s = Scratch::new();
        let mut r = Relu::new("r");
        let x = Tensor::from_vec(&[1, 3], vec![-1., 0.5, 2.]);
        let _ = r.forward(x, true, &mut s);
        let dx = r.backward(Tensor::full(&[1, 3], 3.0), &mut s);
        assert_eq!(dx.data(), &[0., 3., 3.]);
    }

    #[test]
    fn flatten_roundtrip() {
        let mut s = Scratch::new();
        let mut f = Flatten::new("f");
        let x = Tensor::from_vec(&[2, 1, 2, 2], (0..8).map(|v| v as f32).collect());
        let y = f.forward(x, true, &mut s);
        assert_eq!(y.shape(), &[2, 4]);
        let back = f.backward(y, &mut s);
        assert_eq!(back.shape(), &[2, 1, 2, 2]);
    }

    #[test]
    fn conv_layer_shapes() {
        let mut s = Scratch::new();
        let mut rng = SmallRng::seed_from_u64(2);
        let spec = Conv2dSpec {
            in_channels: 3,
            out_channels: 8,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let mut c = Conv2d::new("c", spec, (8, 8), &mut rng);
        let x = Tensor::randn(&[2, 3, 8, 8], 1.0, &mut rng);
        let y = c.forward(x, true, &mut s);
        assert_eq!(y.shape(), &[2, 8, 8, 8]);
        let gshape = Shape::from(y.shape());
        let dx = c.backward(Tensor::full(&gshape, 0.1), &mut s);
        assert_eq!(dx.shape(), &[2, 3, 8, 8]);
        assert_eq!(c.grads().len(), 2);
    }

    #[test]
    fn maxpool_layer_roundtrip() {
        let mut s = Scratch::new();
        let mut p = MaxPool2d::new("p", 2);
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1., 9., 3., 4.]);
        let y = p.forward(x, true, &mut s);
        assert_eq!(y.data(), &[9.0]);
        let dx = p.backward(Tensor::full(&[1, 1, 1, 1], 5.0), &mut s);
        assert_eq!(dx.data(), &[0., 5., 0., 0.]);
    }
}
