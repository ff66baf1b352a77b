//! # dtrain-nn
//!
//! Neural-network training substrate for the `dtrain` reproduction: layers
//! with hand-written backprop, a sequential [`Network`], the paper's
//! momentum-SGD optimizer and learning-rate schedule, the
//! [`ParamSet`]/[`ParamLayout`] abstractions that the seven distributed
//! training algorithms communicate in terms of, and the [`rules`] by which
//! they aggregate — one copy for the simulator and both real paths.
//!
//! ```
//! use dtrain_nn::{Dense, Network, Relu, SgdMomentum};
//! use dtrain_tensor::Tensor;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut rng = SmallRng::seed_from_u64(0);
//! let mut net = Network::new(vec![
//!     Box::new(Dense::new("d0", 2, 16, &mut rng)),
//!     Box::new(Relu::new("r0")),
//!     Box::new(Dense::new("d1", 16, 2, &mut rng)),
//! ]);
//! let mut opt = SgdMomentum::new(0.9, 1e-4);
//! let x = Tensor::from_vec(&[4, 2], vec![0., 0., 0., 1., 1., 0., 1., 1.]);
//! let labels = [0usize, 1, 1, 0]; // XOR
//! for _ in 0..200 {
//!     net.train_batch(x.clone(), &labels);
//!     let g = net.grads();
//!     net.sgd_step(&mut opt, &g, 0.1);
//! }
//! let (_, acc) = net.eval_batch(x, &labels);
//! assert_eq!(acc, 1.0);
//! ```

mod batchnorm;
mod layer;
mod network;
mod optim;
mod params;
mod residual;
pub mod rules;

pub use batchnorm::BatchNorm2d;
pub use layer::{Conv2d, Dense, Flatten, Layer, MaxPool2d, Relu};
pub use network::Network;
pub use optim::{LrSchedule, SgdMomentum};
pub use params::{LayerGroup, ParamLayout, ParamSet};
pub use residual::Residual;
