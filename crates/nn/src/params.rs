//! Parameter sets: the unit of communication in every distributed algorithm.
//!
//! A [`ParamSet`] is the ordered list of a model's trainable tensors. All
//! seven algorithms in the paper move either parameter sets or gradient sets
//! (same shape) between workers and servers; the layer grouping in
//! [`ParamLayout`] is what layer-wise parameter sharding (paper §V-A) and
//! wait-free backpropagation (§V-B) operate on.

use dtrain_tensor::Tensor;

/// Ordered collection of trainable tensors (weights, biases, …).
///
/// Gradients use the same type — a gradient set is shape-congruent with the
/// parameter set it differentiates.
#[derive(Clone, Debug, PartialEq)]
pub struct ParamSet(pub Vec<Tensor>);

impl ParamSet {
    /// A zero-filled set congruent with `like`.
    pub fn zeros_like(like: &ParamSet) -> ParamSet {
        ParamSet(like.0.iter().map(|t| Tensor::zeros(t.shape())).collect())
    }

    /// Number of tensors.
    pub fn num_tensors(&self) -> usize {
        self.0.len()
    }

    /// Total scalar parameter count.
    pub fn num_params(&self) -> usize {
        self.0.iter().map(Tensor::len).sum()
    }

    /// Wire size in bytes (f32 payload).
    pub fn num_bytes(&self) -> u64 {
        self.num_params() as u64 * 4
    }

    /// `self += alpha * other`, tensor by tensor.
    pub fn axpy(&mut self, alpha: f32, other: &ParamSet) {
        assert_eq!(self.0.len(), other.0.len(), "param set arity mismatch");
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            a.axpy(alpha, b);
        }
    }

    /// `self += other`.
    pub fn add_assign(&mut self, other: &ParamSet) {
        self.axpy(1.0, other);
    }

    /// `self *= alpha`.
    pub fn scale(&mut self, alpha: f32) {
        for t in &mut self.0 {
            t.scale(alpha);
        }
    }

    /// `self = (1 - t)·self + t·other` — the elastic/gossip merge primitive.
    pub fn lerp(&mut self, other: &ParamSet, t: f32) {
        assert_eq!(self.0.len(), other.0.len(), "param set arity mismatch");
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            a.lerp(b, t);
        }
    }

    /// The elastic-averaging exchange (EASGD, Zhang et al. 2015) with
    /// `self` as the center: `diff = x_w − x̃; x̃ += α·diff; x_w −= α·diff`.
    /// Returns the updated worker parameters; the center moves in place.
    pub fn elastic_exchange(&mut self, worker: &ParamSet, alpha: f32) -> ParamSet {
        let mut updated = worker.clone();
        // x_w' = x_w − α(x_w − x̃) = (1−α)x_w + α·x̃ :  lerp toward center
        updated.lerp(self, alpha);
        // x̃' = x̃ + α(x_w − x̃) : lerp toward worker
        self.lerp(worker, alpha);
        updated
    }

    /// Zero all tensors, keeping allocations.
    pub fn zero_(&mut self) {
        for t in &mut self.0 {
            t.zero_();
        }
    }

    /// Squared L2 norm over the whole set.
    pub fn sq_norm(&self) -> f32 {
        self.0.iter().map(Tensor::sq_norm).sum()
    }

    /// L2 norm over the whole set.
    pub fn norm(&self) -> f32 {
        self.sq_norm().sqrt()
    }

    /// Max |aᵢ − bᵢ| across all tensors — a drift metric between replicas.
    pub fn max_abs_diff(&self, other: &ParamSet) -> f32 {
        assert_eq!(self.0.len(), other.0.len());
        self.0
            .iter()
            .zip(&other.0)
            .fold(0.0f32, |m, (a, b)| m.max(a.max_abs_diff(b)))
    }

    /// True if every scalar is finite.
    pub fn all_finite(&self) -> bool {
        self.0.iter().all(Tensor::all_finite)
    }

    /// Elementwise mean of several congruent sets; panics on empty input.
    pub fn mean_of(sets: &[&ParamSet]) -> ParamSet {
        assert!(!sets.is_empty(), "mean of zero param sets");
        let mut acc = sets[0].clone();
        for s in &sets[1..] {
            acc.add_assign(s);
        }
        acc.scale(1.0 / sets.len() as f32);
        acc
    }
}

/// One logical layer's slice of the parameter set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LayerGroup {
    /// Human-readable layer name (e.g. `"dense0"`, `"conv1"`).
    pub name: String,
    /// Indices into `ParamSet.0` owned by this layer.
    pub tensor_indices: Vec<usize>,
    /// Scalar parameter count of the group.
    pub num_params: usize,
}

impl LayerGroup {
    /// Wire size of the group in bytes.
    pub fn num_bytes(&self) -> u64 {
        self.num_params as u64 * 4
    }
}

/// The model's layer structure: which tensors belong to which layer.
///
/// This is the interface between the training stack and the systems layer:
/// parameter sharding assigns `LayerGroup`s to parameter-server shards, and
/// wait-free BP streams groups out in backward order.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct ParamLayout {
    pub groups: Vec<LayerGroup>,
}

impl ParamLayout {
    pub fn num_params(&self) -> usize {
        self.groups.iter().map(|g| g.num_params).sum()
    }

    pub fn num_bytes(&self) -> u64 {
        self.num_params() as u64 * 4
    }

    /// Layer sizes in bytes, in forward order.
    pub fn layer_bytes(&self) -> Vec<u64> {
        self.groups.iter().map(LayerGroup::num_bytes).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(vals: &[&[f32]]) -> ParamSet {
        ParamSet(
            vals.iter()
                .map(|v| Tensor::from_vec(&[v.len()], v.to_vec()))
                .collect(),
        )
    }

    #[test]
    fn sizes() {
        let p = ps(&[&[1., 2.], &[3., 4., 5.]]);
        assert_eq!(p.num_tensors(), 2);
        assert_eq!(p.num_params(), 5);
        assert_eq!(p.num_bytes(), 20);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = ps(&[&[1., 2.]]);
        let b = ps(&[&[10., 10.]]);
        a.axpy(0.5, &b);
        assert_eq!(a.0[0].data(), &[6., 7.]);
        a.scale(2.0);
        assert_eq!(a.0[0].data(), &[12., 14.]);
    }

    #[test]
    fn lerp_half_is_average() {
        let mut a = ps(&[&[0., 4.]]);
        let b = ps(&[&[2., 0.]]);
        a.lerp(&b, 0.5);
        assert_eq!(a.0[0].data(), &[1., 2.]);
    }

    #[test]
    fn mean_of_three() {
        let a = ps(&[&[0.]]);
        let b = ps(&[&[3.]]);
        let c = ps(&[&[6.]]);
        let m = ParamSet::mean_of(&[&a, &b, &c]);
        assert_eq!(m.0[0].data(), &[3.0]);
    }

    #[test]
    fn drift_metric() {
        let a = ps(&[&[1., 2.], &[0.]]);
        let b = ps(&[&[1., 5.], &[-1.]]);
        assert_eq!(a.max_abs_diff(&b), 3.0);
    }

    #[test]
    fn layout_bytes() {
        let layout = ParamLayout {
            groups: vec![
                LayerGroup {
                    name: "a".into(),
                    tensor_indices: vec![0, 1],
                    num_params: 10,
                },
                LayerGroup {
                    name: "b".into(),
                    tensor_indices: vec![2],
                    num_params: 6,
                },
            ],
        };
        assert_eq!(layout.num_params(), 16);
        assert_eq!(layout.layer_bytes(), vec![40, 24]);
    }
}
