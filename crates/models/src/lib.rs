//! # dtrain-models
//!
//! Two complementary views of "a model":
//!
//! * [`profile`] — exact layer-by-layer **size/FLOP tables** for ResNet-50
//!   and VGG-16 (the paper's two subjects). These drive the performance
//!   simulator: message sizes, layer-wise sharding skew, and wait-free
//!   backpropagation overlap.
//! * [`trainable`] — compact networks with real arithmetic used by the
//!   accuracy experiments.

pub mod profile;
pub mod trainable;

pub use profile::{resnet50, uniform_profile, vgg16, LayerProfile, ModelProfile};
pub use trainable::{default_mlp, mini_resnet, mlp_classifier, small_cnn, zeroed_mlp};
