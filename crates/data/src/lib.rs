//! # dtrain-data
//!
//! Seeded synthetic datasets standing in for ImageNet-1K, plus the
//! data-parallel plumbing: deterministic worker sharding and per-epoch batch
//! shuffling. See `DESIGN.md` §1 for why a synthetic teacher-labelled task
//! preserves the accuracy phenomena under study.

mod dataset;
mod noise;
mod synth;

pub use dataset::{Dataset, Shard};
pub use synth::{prototype_images, teacher_task, ImageTaskConfig, TeacherTaskConfig};
