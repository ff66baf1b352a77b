//! Synthetic dataset generators — the ImageNet-1K stand-ins.
//!
//! Two task families:
//!
//! * [`teacher_task`] — inputs are standard-normal vectors; labels are the
//!   argmax of a frozen, randomly-initialized *teacher* MLP, optionally
//!   corrupted by label noise. This yields a nontrivial, nonlinearly
//!   separable problem whose Bayes accuracy is below 100 %, so accuracy
//!   differences between training algorithms are visible rather than
//!   saturated — the property the paper's accuracy comparison depends on.
//! * [`prototype_images`] — small `[C, H, W]` images built from per-class
//!   prototype patterns plus Irwin–Hall noise, for exercising the CNN path.

use dtrain_nn::{Dense, Network, Relu};
use dtrain_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::dataset::Dataset;
use crate::noise::irwin_hall_noise;

/// Configuration for the teacher-labelled classification task.
#[derive(Clone, Debug)]
pub struct TeacherTaskConfig {
    pub input_dim: usize,
    /// Hidden width of the frozen teacher network.
    pub teacher_hidden: usize,
    pub num_classes: usize,
    pub train_size: usize,
    pub test_size: usize,
    /// Fraction of training labels replaced by a uniformly random class.
    pub label_noise: f32,
    pub seed: u64,
}

impl Default for TeacherTaskConfig {
    fn default() -> Self {
        TeacherTaskConfig {
            input_dim: 32,
            teacher_hidden: 48,
            num_classes: 10,
            train_size: 8192,
            test_size: 2048,
            label_noise: 0.05,
            seed: 0,
        }
    }
}

/// Generate `(train, test)` datasets from a frozen random teacher.
pub fn teacher_task(cfg: &TeacherTaskConfig) -> (Dataset, Dataset) {
    let mut rng =
        SmallRng::seed_from_u64(cfg.seed.wrapping_mul(0xA24B_AED4_963E_E407).wrapping_add(1));
    let mut teacher = Network::new(vec![
        Box::new(Dense::new(
            "t0",
            cfg.input_dim,
            cfg.teacher_hidden,
            &mut rng,
        )),
        Box::new(Relu::new("tr")),
        Box::new(Dense::new(
            "t1",
            cfg.teacher_hidden,
            cfg.num_classes,
            &mut rng,
        )),
    ]);
    let mut make = |n: usize, noise: f32, rng: &mut SmallRng| {
        let x = Tensor::randn(&[n, cfg.input_dim], 1.0, rng);
        let logits = teacher.forward(x.clone(), false);
        let mut labels = logits.argmax_rows();
        if noise > 0.0 {
            for y in &mut labels {
                if rng.gen::<f32>() < noise {
                    *y = rng.gen_range(0..cfg.num_classes);
                }
            }
        }
        Dataset::new(vec![cfg.input_dim], x.into_vec(), labels, cfg.num_classes)
    };
    let train = make(cfg.train_size, cfg.label_noise, &mut rng);
    let test = make(cfg.test_size, 0.0, &mut rng);
    (train, test)
}

/// Configuration for the prototype-image task.
#[derive(Clone, Debug)]
pub struct ImageTaskConfig {
    pub channels: usize,
    pub side: usize,
    pub num_classes: usize,
    pub train_size: usize,
    pub test_size: usize,
    /// Scale of the noise added on top of the class prototype. The noise is
    /// Irwin–Hall(12) − 6 (the sum of 12 uniforms, centred): mean 0,
    /// variance 1 and bounds ±6, so `noise` is its standard deviation.
    pub noise: f32,
    pub seed: u64,
}

impl Default for ImageTaskConfig {
    fn default() -> Self {
        ImageTaskConfig {
            channels: 1,
            side: 12,
            num_classes: 8,
            train_size: 4096,
            test_size: 1024,
            noise: 0.9,
            seed: 0,
        }
    }
}

/// Generate `(train, test)` image datasets: per-class prototypes + noise.
pub fn prototype_images(cfg: &ImageTaskConfig) -> (Dataset, Dataset) {
    let mut rng =
        SmallRng::seed_from_u64(cfg.seed.wrapping_mul(0xD6E8_FEB8_6659_FD93).wrapping_add(3));
    let sample_len = cfg.channels * cfg.side * cfg.side;
    let prototypes: Vec<Tensor> = (0..cfg.num_classes)
        .map(|_| Tensor::randn(&[sample_len], 1.0, &mut rng))
        .collect();
    let make = |n: usize, rng: &mut SmallRng| {
        let mut inputs = vec![0.0f32; n * sample_len];
        irwin_hall_noise(rng, &mut inputs);
        let labels: Vec<usize> = (0..n).map(|i| i % cfg.num_classes).collect();
        for (sample, &y) in inputs.chunks_exact_mut(sample_len).zip(&labels) {
            for (v, &p) in sample.iter_mut().zip(prototypes[y].data()) {
                *v = p + cfg.noise * *v;
            }
        }
        Dataset::new(
            vec![cfg.channels, cfg.side, cfg.side],
            inputs,
            labels,
            cfg.num_classes,
        )
    };
    let train = make(cfg.train_size, &mut rng);
    let test = make(cfg.test_size, &mut rng);
    (train, test)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn teacher_task_is_reproducible() {
        let cfg = TeacherTaskConfig {
            train_size: 64,
            test_size: 32,
            ..Default::default()
        };
        let (a_train, a_test) = teacher_task(&cfg);
        let (b_train, _) = teacher_task(&cfg);
        let (xa, ya) = a_train.as_batch();
        let (xb, yb) = b_train.as_batch();
        assert_eq!(xa.data(), xb.data());
        assert_eq!(ya, yb);
        assert_eq!(a_test.len(), 32);
    }

    #[test]
    fn teacher_labels_use_all_classes() {
        let cfg = TeacherTaskConfig {
            train_size: 2000,
            test_size: 10,
            num_classes: 10,
            label_noise: 0.0,
            ..Default::default()
        };
        let (train, _) = teacher_task(&cfg);
        let mut counts = vec![0usize; 10];
        for i in 0..train.len() {
            counts[train.label(i)] += 1;
        }
        let used = counts.iter().filter(|&&c| c > 0).count();
        assert!(
            used >= 8,
            "teacher should produce a rich label set, got {counts:?}"
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = teacher_task(&TeacherTaskConfig {
            train_size: 16,
            test_size: 4,
            seed: 1,
            ..Default::default()
        })
        .0;
        let b = teacher_task(&TeacherTaskConfig {
            train_size: 16,
            test_size: 4,
            seed: 2,
            ..Default::default()
        })
        .0;
        let (xa, _) = a.as_batch();
        let (xb, _) = b.as_batch();
        assert_ne!(xa.data(), xb.data());
    }

    #[test]
    fn image_task_shapes() {
        let cfg = ImageTaskConfig {
            train_size: 32,
            test_size: 8,
            ..Default::default()
        };
        let (train, test) = prototype_images(&cfg);
        assert_eq!(train.sample_shape(), &[1, 12, 12]);
        let (x, y) = test.gather(&[0, 1, 2]);
        assert_eq!(x.shape(), &[3, 1, 12, 12]);
        assert_eq!(y.len(), 3);
    }

    #[test]
    fn image_classes_are_balanced() {
        let cfg = ImageTaskConfig {
            train_size: 64,
            test_size: 8,
            num_classes: 8,
            ..Default::default()
        };
        let (train, _) = prototype_images(&cfg);
        let mut counts = vec![0usize; 8];
        for i in 0..train.len() {
            counts[train.label(i)] += 1;
        }
        assert!(counts.iter().all(|&c| c == 8), "{counts:?}");
    }
}
