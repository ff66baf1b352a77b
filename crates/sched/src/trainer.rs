//! Per-job training state with checkpoint/restore.
//!
//! The bit-identity guarantee the scheduler study pins rests on one design
//! decision: a job's *math* is a single sequential stream of SGD
//! micro-steps in a fixed global order. Micro-step `k` always trains epoch
//! `k / batches_per_epoch`, batch `k % batches_per_epoch` of the job's own
//! deterministically-shuffled dataset — regardless of how many machines
//! the gang currently has. Gang size only changes how many micro-steps fit
//! into one scheduling round (i.e. wall-clock), so the final parameters
//! are independent of the job's preemption/shrink/grow history, and a
//! preempted-then-resumed run must end bit-identical to an undisturbed
//! one. Any divergence is a checkpoint-path bug, which is exactly what the
//! determinism tests exist to catch.

use crate::job::JobSpec;
use dtrain_data::{prototype_images, Dataset, ImageTaskConfig, Shard};
use dtrain_faults::CheckpointStore;
use dtrain_models::small_cnn;
use dtrain_nn::{Network, ParamSet, SgdMomentum};
use dtrain_tensor::Tensor;

const LR: f32 = 0.05;

/// FNV-1a over a byte stream.
fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hash a parameter set by its exact f32 bit patterns.
pub fn hash_params(params: &ParamSet) -> u64 {
    fnv1a(
        params
            .0
            .iter()
            .flat_map(|t| t.data().iter())
            .flat_map(|v| v.to_bits().to_le_bytes()),
    )
}

#[allow(clippy::large_enum_variant)] // one per running job; never collected
enum Inner {
    /// Real SGD on a small CNN over a synthetic prototype task.
    Real {
        net: Network,
        opt: SgdMomentum,
        train: Dataset,
        shard: Shard,
        batch: usize,
        seed: u64,
        /// Cached shuffled batches for `cache.0 == epoch`.
        cache: Option<(u64, Vec<Vec<usize>>)>,
    },
    /// Virtual-time only: the "state" is just the iteration counter, but it
    /// still round-trips through the checkpoint store like real state does.
    CostOnly,
}

/// The training state of one job: either real arithmetic or cost-only.
pub struct JobTrainer {
    inner: Inner,
    iter: u64,
    total_iters: u64,
}

impl JobTrainer {
    /// Build the job's initial state from its spec, deterministically from
    /// `spec.seed`.
    pub fn new(spec: &JobSpec) -> Self {
        let inner = if spec.model.is_real_math() {
            let (train, _test) = prototype_images(&ImageTaskConfig {
                channels: 1,
                side: 8,
                num_classes: 4,
                train_size: 64,
                test_size: 16,
                noise: 0.5,
                seed: spec.seed,
            });
            let shard = train.shard(0, 1);
            Inner::Real {
                net: small_cnn(1, 8, 4, spec.seed),
                opt: SgdMomentum::new(0.9, 0.0),
                train,
                shard,
                batch: spec.batch.min(16),
                seed: spec.seed,
                cache: None,
            }
        } else {
            Inner::CostOnly
        };
        JobTrainer {
            inner,
            iter: 0,
            total_iters: spec.iters,
        }
    }

    pub fn iter(&self) -> u64 {
        self.iter
    }

    pub fn done(&self) -> bool {
        self.iter >= self.total_iters
    }

    /// Micro-steps remaining.
    pub fn remaining(&self) -> u64 {
        self.total_iters.saturating_sub(self.iter)
    }

    /// Execute `n` micro-steps (clamped to the remaining budget).
    pub fn run_steps(&mut self, n: u64) {
        for _ in 0..n.min(self.remaining()) {
            self.step();
        }
    }

    fn step(&mut self) {
        if let Inner::Real {
            net,
            opt,
            train,
            shard,
            batch,
            seed,
            cache,
        } = &mut self.inner
        {
            let bpe = shard.batches_per_epoch(*batch) as u64;
            let epoch = self.iter / bpe;
            let idx = (self.iter % bpe) as usize;
            if cache.as_ref().map(|(e, _)| *e) != Some(epoch) {
                *cache = Some((epoch, shard.epoch_batches(*batch, *seed, epoch)));
            }
            let batches = &cache.as_ref().expect("epoch cache just filled").1;
            let (x, labels) = train.gather(&batches[idx]);
            net.train_batch(x, &labels);
            net.sgd_step(opt, &net.grads(), LR);
        }
        self.iter += 1;
    }

    /// Snapshot current state into the store under `owner`.
    pub fn save(&self, store: &CheckpointStore, owner: usize) {
        match &self.inner {
            Inner::Real { net, opt, .. } => {
                store.save(owner, self.iter, &net.get_params(), opt);
            }
            Inner::CostOnly => {
                // The placeholder params carry the iteration so a restore
                // can be cross-checked against the recorded version.
                let marker = ParamSet(vec![Tensor::from_vec(&[1], vec![self.iter as f32])]);
                store.save(owner, self.iter, &marker, &SgdMomentum::plain());
            }
        }
    }

    /// Restore the newest snapshot at or before `iteration`. Returns the
    /// restored iteration, or `None` when the store has nothing usable
    /// (the caller then restarts the job from scratch).
    pub fn restore(
        &mut self,
        store: &CheckpointStore,
        owner: usize,
        iteration: u64,
    ) -> Option<u64> {
        let ckpt = store.restore_at_or_before(owner, iteration)?;
        match &mut self.inner {
            Inner::Real {
                net, opt, cache, ..
            } => {
                net.set_params(&ckpt.params);
                *opt = ckpt.opt.clone();
                *cache = None;
            }
            Inner::CostOnly => {
                debug_assert_eq!(ckpt.params.0[0].data()[0] as u64, ckpt.iteration);
            }
        }
        self.iter = ckpt.iteration;
        Some(ckpt.iteration)
    }

    /// Fingerprint of the final model: exact parameter bits for real-math
    /// jobs, the iteration counter for cost-only jobs.
    pub fn final_hash(&self) -> u64 {
        match &self.inner {
            Inner::Real { net, .. } => hash_params(&net.get_params()),
            Inner::CostOnly => fnv1a(self.iter.to_le_bytes().into_iter()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobSpec, ModelKind};
    use dtrain_algos::Algo;
    use dtrain_desim::SimTime;

    fn spec(model: ModelKind, iters: u64, seed: u64) -> JobSpec {
        JobSpec {
            id: 0,
            arrival: SimTime::ZERO,
            model,
            algo: Algo::Bsp,
            priority: 0,
            min_machines: 1,
            max_machines: 2,
            batch: model.batch(),
            iters,
            seed,
        }
    }

    #[test]
    fn same_seed_same_final_hash_different_seed_differs() {
        let s = spec(ModelKind::SmallCnn, 24, 11);
        let mut a = JobTrainer::new(&s);
        let mut b = JobTrainer::new(&s);
        a.run_steps(24);
        b.run_steps(24);
        assert_eq!(a.final_hash(), b.final_hash());
        assert!(a.done());

        let mut c = JobTrainer::new(&spec(ModelKind::SmallCnn, 24, 12));
        c.run_steps(24);
        assert_ne!(a.final_hash(), c.final_hash());
    }

    #[test]
    fn segmented_run_through_checkpoints_matches_straight_run() {
        // Straight: 30 steps in one go.
        let s = spec(ModelKind::SmallCnn, 30, 5);
        let mut straight = JobTrainer::new(&s);
        straight.run_steps(30);

        // Segmented: run 13, checkpoint, *drop the trainer entirely*,
        // rebuild from spec, restore, finish. This is the preemption path.
        let store = CheckpointStore::new(0);
        let mut first = JobTrainer::new(&s);
        first.run_steps(13);
        first.save(&store, s.id);
        drop(first);

        let mut resumed = JobTrainer::new(&s);
        let at = resumed.restore(&store, s.id, 13).expect("snapshot exists");
        assert_eq!(at, 13);
        resumed.run_steps(30 - at);
        assert!(resumed.done());
        assert_eq!(straight.final_hash(), resumed.final_hash());
    }

    #[test]
    fn restore_rolls_back_to_earlier_snapshot_and_replays_identically() {
        let s = spec(ModelKind::SmallCnn, 20, 9);
        let store = CheckpointStore::new(0);
        let mut tr = JobTrainer::new(&s);
        tr.run_steps(8);
        tr.save(&store, s.id);
        tr.run_steps(12);
        let finished = tr.final_hash();

        // Roll the same trainer back to iteration 8 and replay.
        let at = tr.restore(&store, s.id, 10).expect("snapshot at 8");
        assert_eq!(at, 8);
        assert_eq!(tr.remaining(), 12);
        tr.run_steps(12);
        assert_eq!(tr.final_hash(), finished, "replay must be bit-identical");
    }

    #[test]
    fn cost_only_jobs_round_trip_iteration_through_the_store() {
        let s = spec(ModelKind::Vgg16, 50, 3);
        let store = CheckpointStore::new(0);
        let mut tr = JobTrainer::new(&s);
        tr.run_steps(17);
        tr.save(&store, s.id);
        let mut fresh = JobTrainer::new(&s);
        assert_eq!(fresh.restore(&store, s.id, 40), Some(17));
        assert_eq!(fresh.iter(), 17);
        assert!(fresh.restore(&store, s.id, 16).is_none());
        // Hash is a pure function of the iteration for cost-only jobs.
        tr.run_steps(33);
        fresh.run_steps(33);
        assert_eq!(tr.final_hash(), fresh.final_hash());
    }
}
