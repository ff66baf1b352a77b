//! # dtrain-tensor
//!
//! A deliberately small dense-tensor library: the numerical substrate for the
//! `dtrain` reproduction of the IPDPS 2021 distributed-training study. It
//! provides exactly what data-parallel SGD over MLPs/CNNs needs — row-major
//! `f32` tensors, three cache-blocked GEMM variants, convolution as direct
//! SIMD kernels over the zero-padded image, max-pooling, softmax
//! cross-entropy —
//! executed on a real persistent thread pool (behind the `rayon` facade) with
//! **deterministic** parallelism: work splits over independent output blocks
//! only, and every per-element reduction runs in a fixed sequential order, so
//! results are bit-identical for any `DTRAIN_THREADS` setting.
//!
//! The GEMM inner loops are explicit SIMD microkernels ([`simd`]) selected
//! at runtime (AVX-512 / AVX2 / portable scalar) over packed, cache-line
//! aligned operand panels. All tiers perform per-product rounding (no FMA)
//! in the same ascending reduction order, so outputs are additionally
//! bit-identical across ISA tiers and machines, a NaN's payload excepted
//! ([`simd`]) — kernel speed is invisible to every numeric result.
//!
//! The [`Scratch`] arena pools kernel temporaries (zero-padded conv inputs,
//! GEMM outputs, activation/gradient buffers); the `_scratch` kernel
//! variants draw their outputs from it so steady-state training iterations
//! allocate nothing.
//!
//! ```
//! use dtrain_tensor::{Tensor, matmul};
//! let a = Tensor::from_vec(&[2, 2], vec![1., 2., 3., 4.]);
//! let b = Tensor::from_vec(&[2, 2], vec![0., 1., 1., 0.]);
//! assert_eq!(matmul(&a, &b).data(), &[2., 1., 4., 3.]);
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

mod conv;
mod matmul;
mod ops;
mod scratch;
pub mod simd;
mod tensor;

pub use conv::{
    conv2d_backward, conv2d_backward_scratch, conv2d_forward, conv2d_forward_scratch,
    conv2d_param_grads_scratch, conv2d_relu_forward_scratch, im2col, im2col_scratch,
    maxpool2d_backward, maxpool2d_backward_scratch, maxpool2d_forward, maxpool2d_forward_scratch,
    relu_mask_grad, Conv2dSpec,
};
pub use matmul::{
    matmul, matmul_a_bt, matmul_a_bt_scratch, matmul_at_b, matmul_at_b_scratch, matmul_scratch,
    transpose,
};
pub use ops::{
    accuracy, add_bias, relu, relu_backward, relu_backward_scratch, relu_scratch, softmax,
    softmax_cross_entropy, softmax_cross_entropy_scratch, sum_rows, sum_rows_scratch,
};
pub use scratch::{AlignedVec, Scratch};
pub use tensor::{Shape, Tensor};

/// Parallel-substrate introspection and control, re-exported from the pool
/// that executes the kernels.
pub mod parallel {
    /// Threads a kernel parallel region may use right now (pool width,
    /// capped by any enclosing [`with_max_threads`] scope). The pool is
    /// sized by `DTRAIN_THREADS`, falling back to
    /// `std::thread::available_parallelism()`.
    pub use rayon::current_num_threads;
    /// What the hardware offers (`available_parallelism`), as opposed to
    /// the configured pool width; benches annotate oversubscribed records
    /// with it.
    pub use rayon::host_parallelism;
    /// The configured pool width (`DTRAIN_THREADS` / host) — the widest an
    /// explicit `with_max_threads` scope can go.
    pub use rayon::pool_width;
    /// Scope kernels to at most `k` threads — determinism tests compare
    /// kernel output across widths with this.
    pub use rayon::with_max_threads;
}
