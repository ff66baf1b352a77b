//! # dtrain-compress
//!
//! Gradient compression for distributed training: the sparse wire format and
//! the full Deep Gradient Compression pipeline (top-k + local accumulation +
//! momentum correction + clipping + factor masking + warm-up), applicable to
//! the gradient-communicating algorithms (BSP, ASP, SSP, AR-SGD) exactly as
//! in §V-C of the reproduced paper.

mod dgc;
mod sparse;

pub use dgc::{DgcCompressor, DgcConfig};
pub use sparse::{compressed_wire_bytes, SparseTensor, SparseUpdate};
