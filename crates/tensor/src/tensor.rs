//! The dense tensor type: a row-major `Vec<f32>` plus a shape.
//!
//! Everything the training stack needs and nothing more: construction,
//! elementwise arithmetic, reductions, and random initialization. Matrix
//! multiplication and convolution kernels live in sibling modules.

use std::fmt;

use rand::Rng;
use rand_distr_normal::sample_standard_normal;

/// Inline tensor shape: rank ≤ 4, stored without heap allocation so tensor
/// construction from pooled buffers stays allocation-free on the hot path.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    dims: [usize; 4],
    rank: u8,
}

impl Shape {
    pub const MAX_RANK: usize = 4;

    #[inline]
    pub fn from_slice(shape: &[usize]) -> Self {
        assert!(
            shape.len() <= Self::MAX_RANK,
            "tensor rank {} exceeds the supported maximum of {}",
            shape.len(),
            Self::MAX_RANK
        );
        let mut dims = [0usize; 4];
        dims[..shape.len()].copy_from_slice(shape);
        Shape {
            dims,
            rank: shape.len() as u8,
        }
    }

    #[inline]
    pub fn as_slice(&self) -> &[usize] {
        &self.dims[..self.rank as usize]
    }

    #[inline]
    pub fn volume(&self) -> usize {
        self.as_slice().iter().product()
    }

    #[inline]
    pub fn rank(&self) -> usize {
        self.rank as usize
    }
}

impl std::ops::Deref for Shape {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        self.as_slice()
    }
}

impl From<&[usize]> for Shape {
    fn from(s: &[usize]) -> Self {
        Shape::from_slice(s)
    }
}

impl fmt::Debug for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_slice())
    }
}

/// Row-major dense tensor of `f32`.
///
/// The shape is dynamic (rank 1–4). Indexing helpers are provided for the
/// common 2-D case; higher-rank layouts are handled by the kernels that need
/// them (convolution works on `[N, C, H, W]`).
#[derive(Clone)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape.as_slice() == other.shape.as_slice() && self.data == other.data
    }
}

impl Tensor {
    /// A tensor of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Self {
        let n = shape.iter().product();
        Tensor {
            shape: Shape::from_slice(shape),
            data: vec![0.0; n],
        }
    }

    /// A tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let n = shape.iter().product();
        Tensor {
            shape: Shape::from_slice(shape),
            data: vec![value; n],
        }
    }

    /// Build from existing data; `data.len()` must equal the shape volume.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        assert_eq!(
            shape.iter().product::<usize>(),
            data.len(),
            "shape {:?} does not match data length {}",
            shape,
            data.len()
        );
        Tensor {
            shape: Shape::from_slice(shape),
            data,
        }
    }

    /// Gaussian init with standard deviation `std` (mean zero).
    pub fn randn(shape: &[usize], std: f32, rng: &mut impl Rng) -> Self {
        let n = shape.iter().product();
        let data = (0..n).map(|_| sample_standard_normal(rng) * std).collect();
        Tensor {
            shape: Shape::from_slice(shape),
            data,
        }
    }

    /// He (Kaiming) initialization for a layer with `fan_in` inputs —
    /// std = sqrt(2 / fan_in), the standard choice before ReLU.
    pub fn he_init(shape: &[usize], fan_in: usize, rng: &mut impl Rng) -> Self {
        Self::randn(shape, (2.0 / fan_in as f32).sqrt(), rng)
    }

    #[inline]
    pub fn shape(&self) -> &[usize] {
        self.shape.as_slice()
    }

    /// Total element count.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the raw buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Number of rows / columns for a rank-2 tensor.
    #[inline]
    pub fn rows(&self) -> usize {
        assert_eq!(self.shape.len(), 2, "rows() requires a rank-2 tensor");
        self.shape[0]
    }

    #[inline]
    pub fn cols(&self) -> usize {
        assert_eq!(self.shape.len(), 2, "cols() requires a rank-2 tensor");
        self.shape[1]
    }

    /// 2-D element access.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> f32 {
        debug_assert_eq!(self.shape.len(), 2);
        self.data[r * self.shape[1] + c]
    }

    /// Row `r` of a rank-2 tensor as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert_eq!(self.shape.len(), 2);
        let c = self.shape[1];
        &self.data[r * c..(r + 1) * c]
    }

    /// Reinterpret with a new shape of identical volume.
    pub fn reshape(mut self, shape: &[usize]) -> Self {
        assert_eq!(
            shape.iter().product::<usize>(),
            self.data.len(),
            "reshape to {:?} changes volume",
            shape
        );
        self.shape = Shape::from_slice(shape);
        self
    }

    // ---- elementwise arithmetic -------------------------------------------

    /// `self += other` (shapes must match exactly).
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self -= other`.
    pub fn sub_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "sub_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a -= b;
        }
    }

    /// `self += alpha * other` — the BLAS axpy, the workhorse of every
    /// optimizer and aggregation rule in this project.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// `self *= alpha`.
    pub fn scale(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// `self = self * (1 - t) + other * t` — linear interpolation, used by
    /// elastic averaging and gossip merges.
    pub fn lerp(&mut self, other: &Tensor, t: f32) {
        assert_eq!(self.shape, other.shape, "lerp shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += t * (*b - *a);
        }
    }

    /// Elementwise sum returning a new tensor.
    pub fn add(&self, other: &Tensor) -> Tensor {
        let mut out = self.clone();
        out.add_assign(other);
        out
    }

    /// Elementwise difference returning a new tensor.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        let mut out = self.clone();
        out.sub_assign(other);
        out
    }

    /// Fill with zeros in place (keeps the allocation).
    pub fn zero_(&mut self) {
        self.data.fill(0.0);
    }

    // ---- reductions -------------------------------------------------------

    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Squared L2 norm.
    pub fn sq_norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }

    /// L2 norm.
    pub fn norm(&self) -> f32 {
        self.sq_norm().sqrt()
    }

    /// Largest absolute element (0 for empty tensors).
    pub fn abs_max(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// Index of the maximum element in each row of a rank-2 tensor.
    pub fn argmax_rows(&self) -> Vec<usize> {
        assert_eq!(self.shape.len(), 2);
        let cols = self.shape[1];
        self.data
            .chunks_exact(cols)
            .map(|row| {
                row.iter()
                    .enumerate()
                    .fold((0usize, f32::NEG_INFINITY), |(bi, bv), (i, &v)| {
                        if v > bv {
                            (i, v)
                        } else {
                            (bi, bv)
                        }
                    })
                    .0
            })
            .collect()
    }

    /// Max absolute difference against another tensor of identical shape.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape);
        self.data
            .iter()
            .zip(&other.data)
            .fold(0.0f32, |m, (a, b)| m.max((a - b).abs()))
    }

    /// True if all elements are finite — cheap NaN/overflow tripwire used by
    /// the training loops.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{:?}", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, " {:?}", self.data)
        } else {
            write!(
                f,
                " [{}, {}, … ({} elems)]",
                self.data[0],
                self.data[1],
                self.data.len()
            )
        }
    }
}

/// Tiny standard-normal sampler (Box–Muller) so we don't need `rand_distr`.
mod rand_distr_normal {
    use rand::Rng;

    /// One standard-normal sample. Uses the polar Box–Muller method; spare
    /// value is discarded in exchange for statelessness (init is not hot).
    pub fn sample_standard_normal(rng: &mut impl Rng) -> f32 {
        loop {
            let u: f32 = rng.gen_range(-1.0f32..1.0);
            let v: f32 = rng.gen_range(-1.0f32..1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn construction_and_shape() {
        let t = Tensor::zeros(&[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.len(), 6);
        assert_eq!(t.sum(), 0.0);
        let u = Tensor::full(&[4], 2.5);
        assert_eq!(u.sum(), 10.0);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_checks_volume() {
        let _ = Tensor::from_vec(&[2, 2], vec![1.0; 3]);
    }

    #[test]
    fn indexing_2d() {
        let t = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(t.at(0, 0), 1.0);
        assert_eq!(t.at(1, 2), 6.0);
        assert_eq!(t.row(1), &[4., 5., 6.]);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Tensor::from_vec(&[3], vec![1., 2., 3.]);
        let b = Tensor::from_vec(&[3], vec![10., 20., 30.]);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[6., 12., 18.]);
        a.scale(2.0);
        assert_eq!(a.data(), &[12., 24., 36.]);
    }

    #[test]
    fn lerp_moves_toward_target() {
        let mut a = Tensor::from_vec(&[2], vec![0., 10.]);
        let b = Tensor::from_vec(&[2], vec![10., 0.]);
        a.lerp(&b, 0.25);
        assert_eq!(a.data(), &[2.5, 7.5]);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(&[2, 2], vec![3., -4., 0., 1.]);
        assert_eq!(t.sum(), 0.0);
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.sq_norm(), 26.0);
        assert_eq!(t.abs_max(), 4.0);
    }

    #[test]
    fn argmax_rows_picks_first_max() {
        let t = Tensor::from_vec(&[2, 3], vec![1., 5., 5., -1., -2., -0.5]);
        assert_eq!(t.argmax_rows(), vec![1, 2]);
    }

    #[test]
    fn randn_statistics_are_sane() {
        let mut rng = SmallRng::seed_from_u64(7);
        let t = Tensor::randn(&[10_000], 2.0, &mut rng);
        let mean = t.mean();
        let var = t.data().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / t.len() as f32;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(&[2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let u = t.clone().reshape(&[3, 2]);
        assert_eq!(u.shape(), &[3, 2]);
        assert_eq!(u.data(), t.data());
    }

    #[test]
    fn finite_check() {
        let mut t = Tensor::zeros(&[2]);
        assert!(t.all_finite());
        t.data_mut()[1] = f32::NAN;
        assert!(!t.all_finite());
    }
}
