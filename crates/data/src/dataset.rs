//! In-memory labelled datasets with deterministic sharding and batching.

use dtrain_tensor::Tensor;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A labelled dataset held in memory. `sample_shape` describes one example
/// (e.g. `[32]` for flat features, `[3, 16, 16]` for images); batches are
/// materialized as `[batch, ...sample_shape]` tensors.
#[derive(Clone, Debug)]
pub struct Dataset {
    sample_shape: Vec<usize>,
    sample_len: usize,
    inputs: Vec<f32>,
    labels: Vec<usize>,
    num_classes: usize,
}

impl Dataset {
    pub fn new(
        sample_shape: Vec<usize>,
        inputs: Vec<f32>,
        labels: Vec<usize>,
        num_classes: usize,
    ) -> Self {
        let sample_len: usize = sample_shape.iter().product();
        assert_eq!(
            inputs.len(),
            labels.len() * sample_len,
            "inputs/labels size mismatch"
        );
        assert!(
            labels.iter().all(|&y| y < num_classes),
            "label out of range"
        );
        Dataset {
            sample_shape,
            sample_len,
            inputs,
            labels,
            num_classes,
        }
    }

    pub fn len(&self) -> usize {
        self.labels.len()
    }

    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    pub fn sample_shape(&self) -> &[usize] {
        &self.sample_shape
    }

    pub fn label(&self, i: usize) -> usize {
        self.labels[i]
    }

    /// Materialize the examples at `indices` as a batch tensor + labels.
    pub fn gather(&self, indices: &[usize]) -> (Tensor, Vec<usize>) {
        let mut data = Vec::with_capacity(indices.len() * self.sample_len);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            let start = i * self.sample_len;
            data.extend_from_slice(&self.inputs[start..start + self.sample_len]);
            labels.push(self.labels[i]);
        }
        let mut shape = vec![indices.len()];
        shape.extend_from_slice(&self.sample_shape);
        (Tensor::from_vec(&shape, data), labels)
    }

    /// The whole dataset as one batch (used for test-set evaluation).
    pub fn as_batch(&self) -> (Tensor, Vec<usize>) {
        let idx: Vec<usize> = (0..self.len()).collect();
        self.gather(&idx)
    }

    /// Deterministic contiguous shard `worker` of `num_workers` (data
    /// parallelism's disjoint partitioning). Remainder rows go to the first
    /// shards, matching the usual `ceil`/`floor` split.
    pub fn shard(&self, worker: usize, num_workers: usize) -> Shard {
        assert!(worker < num_workers, "worker {worker} of {num_workers}");
        let n = self.len();
        let base = n / num_workers;
        let rem = n % num_workers;
        let start = worker * base + worker.min(rem);
        let len = base + usize::from(worker < rem);
        Shard {
            indices: (start..start + len).collect(),
            rank: worker,
        }
    }
}

/// A worker's view onto a dataset: the indices it owns, and its rank.
#[derive(Clone, Debug)]
pub struct Shard {
    indices: Vec<usize>,
    rank: usize,
}

impl Shard {
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// The shard's batches for one epoch of a run seeded `seed`, shuffled
    /// by `(seed, rank, epoch)` alike on every execution path (rank 0's
    /// stream is the run seed's). The last short batch is kept.
    pub fn epoch_batches(&self, batch_size: usize, seed: u64, epoch: u64) -> Vec<Vec<usize>> {
        assert!(batch_size > 0);
        let mut order = self.indices.clone();
        let seed = seed ^ (self.rank as u64).wrapping_mul(0xA076_1D64_78BD_642F);
        let mut rng = SmallRng::seed_from_u64(seed ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        order.shuffle(&mut rng);
        order.chunks(batch_size).map(|c| c.to_vec()).collect()
    }

    /// Number of batches per epoch at a given batch size.
    pub fn batches_per_epoch(&self, batch_size: usize) -> usize {
        self.len().div_ceil(batch_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ds(n: usize) -> Dataset {
        let inputs: Vec<f32> = (0..n * 2).map(|v| v as f32).collect();
        let labels: Vec<usize> = (0..n).map(|i| i % 3).collect();
        Dataset::new(vec![2], inputs, labels, 3)
    }

    #[test]
    fn gather_batches_rows() {
        let d = ds(4);
        let (x, y) = d.gather(&[1, 3]);
        assert_eq!(x.shape(), &[2, 2]);
        assert_eq!(x.data(), &[2., 3., 6., 7.]);
        assert_eq!(y, vec![1, 0]);
    }

    #[test]
    fn shards_are_disjoint_and_cover() {
        let d = ds(10);
        let mut seen = [false; 10];
        for w in 0..3 {
            for &i in d.shard(w, 3).indices() {
                assert!(!seen[i], "index {i} in two shards");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&b| b), "all rows covered");
        // remainder goes to early shards: 4/3/3
        assert_eq!(d.shard(0, 3).len(), 4);
        assert_eq!(d.shard(1, 3).len(), 3);
        assert_eq!(d.shard(2, 3).len(), 3);
    }

    #[test]
    fn epoch_batches_deterministic_and_complete() {
        let d = ds(10);
        let s = d.shard(0, 1);
        let a = s.epoch_batches(3, 42, 7);
        let b = s.epoch_batches(3, 42, 7);
        assert_eq!(a, b, "same (seed, epoch) must reproduce batches");
        let c = s.epoch_batches(3, 42, 8);
        assert_ne!(a, c, "different epoch must reshuffle");
        let mut all: Vec<usize> = a.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
        assert_eq!(s.batches_per_epoch(3), 4);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_bad_labels() {
        let _ = Dataset::new(vec![1], vec![0.0], vec![5], 3);
    }
}
