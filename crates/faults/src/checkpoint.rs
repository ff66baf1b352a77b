//! Checkpoint/restore: periodic snapshots of a worker's (or PS shard's)
//! parameter and optimizer state, keyed by owner id. A crashed member
//! restores the snapshot instead of restarting from scratch, and a PS shard
//! coming back from an outage rolls back to it — the recovery substrate for
//! every per-algorithm recovery policy (DESIGN.md §3c).
//!
//! The store keeps a small bounded history per owner (not just the latest
//! snapshot): PS-shard failover may need the state *at or before* a known
//! consistent iteration, which the latest snapshot can overshoot.

use dtrain_nn::{ParamSet, SgdMomentum};
use std::collections::HashMap;
use std::sync::Mutex;

/// Owner key of the parameter server's snapshots in a store its workers
/// share (a worker's key is its rank): the real paths' one server, and the
/// simulator's PS shard `s` at `PS_OWNER + s`.
pub const PS_OWNER: usize = 1 << 20;

/// Snapshots retained per owner; older entries are evicted so the store
/// stays bounded at `owners × MAX_VERSIONS` snapshots.
pub const MAX_VERSIONS: usize = 4;

/// One snapshot: what a worker needs to resume training.
#[derive(Clone, Debug)]
pub struct WorkerCheckpoint {
    /// Local iteration count at snapshot time.
    pub iteration: u64,
    pub params: ParamSet,
    pub opt: SgdMomentum,
}

/// Interval-gated snapshot store shared by all members of a run. Thread-safe
/// (the threaded runtime writes from worker threads); in the simulator it is
/// simply shared state with deterministic access order.
#[derive(Debug, Default)]
pub struct CheckpointStore {
    /// Snapshot every `interval` iterations; 0 disables periodic saves
    /// (explicit `save` still works).
    interval: u64,
    /// Per owner: snapshots sorted ascending by iteration, at most
    /// [`MAX_VERSIONS`] entries.
    slots: Mutex<HashMap<usize, Vec<WorkerCheckpoint>>>,
}

impl CheckpointStore {
    pub fn new(interval: u64) -> Self {
        CheckpointStore {
            interval,
            slots: Mutex::new(HashMap::new()),
        }
    }

    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Is a periodic snapshot due at this iteration?
    pub fn due(&self, iteration: u64) -> bool {
        self.interval > 0 && iteration > 0 && iteration.is_multiple_of(self.interval)
    }

    /// Unconditionally snapshot `owner`'s state. A snapshot at an iteration
    /// that already has one replaces it; otherwise the history grows and the
    /// oldest entry is evicted past [`MAX_VERSIONS`].
    pub fn save(&self, owner: usize, iteration: u64, params: &ParamSet, opt: &SgdMomentum) {
        let cp = WorkerCheckpoint {
            iteration,
            params: params.clone(),
            opt: opt.clone(),
        };
        let mut slots = self.slots.lock().unwrap();
        let versions = slots.entry(owner).or_default();
        match versions.binary_search_by_key(&iteration, |c| c.iteration) {
            Ok(i) => versions[i] = cp,
            Err(i) => versions.insert(i, cp),
        }
        if versions.len() > MAX_VERSIONS {
            let excess = versions.len() - MAX_VERSIONS;
            versions.drain(..excess);
        }
    }

    /// Latest snapshot for `owner`, if any.
    pub fn restore(&self, owner: usize) -> Option<WorkerCheckpoint> {
        self.slots
            .lock()
            .unwrap()
            .get(&owner)
            .and_then(|v| v.last())
            .cloned()
    }

    /// Newest snapshot for `owner` taken at or before `iteration` — the
    /// failover primitive: a replacement shard must not resume *ahead* of
    /// the iteration the survivors agree on.
    pub fn restore_at_or_before(&self, owner: usize, iteration: u64) -> Option<WorkerCheckpoint> {
        self.slots
            .lock()
            .unwrap()
            .get(&owner)
            .and_then(|v| v.iter().rev().find(|c| c.iteration <= iteration).cloned())
    }

    /// Number of owners with at least one snapshot.
    pub fn len(&self) -> usize {
        self.slots.lock().unwrap().len()
    }

    /// Total snapshots held across all owners (bounded by
    /// `len() × MAX_VERSIONS`).
    pub fn total_versions(&self) -> usize {
        self.slots.lock().unwrap().values().map(Vec::len).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.lock().unwrap().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtrain_tensor::Tensor;

    fn params(fill: f32) -> ParamSet {
        ParamSet(vec![
            Tensor::full(&[4, 2], fill),
            Tensor::full(&[3], fill * 2.0),
        ])
    }

    /// Acceptance criterion: checkpoint → crash → restore round-trips the
    /// exact parameter and optimizer state.
    #[test]
    fn round_trip_restores_exact_state() {
        let store = CheckpointStore::new(10);
        let p = params(0.5);
        let mut opt = SgdMomentum::new(0.9, 1e-4);
        // Take one optimizer step so velocity state is non-trivial.
        let mut live = p.clone();
        opt.step(&mut live, &params(0.1), 0.05);
        store.save(3, 20, &live, &opt);

        // "Crash": the live copies are dropped; restore from the store.
        let cp = store.restore(3).expect("snapshot present");
        assert_eq!(cp.iteration, 20);
        assert_eq!(cp.params, live);
        // The restored optimizer must continue identically to the original.
        let mut a = live.clone();
        let mut b = cp.params.clone();
        let mut opt_b = cp.opt.clone();
        opt.step(&mut a, &params(0.2), 0.05);
        opt_b.step(&mut b, &params(0.2), 0.05);
        assert_eq!(a, b, "restored optimizer diverged from the original");
    }

    #[test]
    fn interval_gating() {
        let store = CheckpointStore::new(5);
        assert!(!store.due(0), "iteration 0 never saves");
        assert!(!store.due(4));
        assert!(store.due(5));
        assert!(store.due(10));
        // 0 disables periodic saves; explicit saves still work.
        let store = CheckpointStore::new(0);
        assert!(!store.due(100));
        store.save(1, 100, &params(2.0), &SgdMomentum::plain());
        assert_eq!(store.restore(1).unwrap().iteration, 100);
    }

    #[test]
    fn restore_at_or_before_picks_the_newest_eligible_version() {
        let store = CheckpointStore::new(0);
        let opt = SgdMomentum::plain();
        for it in [5u64, 10, 15] {
            store.save(7, it, &params(it as f32), &opt);
        }
        // Exact hit.
        assert_eq!(store.restore_at_or_before(7, 10).unwrap().iteration, 10);
        // Between snapshots: round down.
        assert_eq!(store.restore_at_or_before(7, 12).unwrap().iteration, 10);
        // Before the first: nothing usable.
        assert!(store.restore_at_or_before(7, 4).is_none());
        // Past the last: latest.
        assert_eq!(store.restore_at_or_before(7, 99).unwrap().iteration, 15);
        // `restore` stays "latest".
        assert_eq!(store.restore(7).unwrap().iteration, 15);
    }

    /// Preemption edge case: a job that was never admitted (or whose agent
    /// crashed before its first save) has nothing to restore — the resume
    /// path must see `None`, not a panic or a stale owner's state.
    #[test]
    fn restore_at_or_before_on_empty_store_and_unknown_owner() {
        let store = CheckpointStore::new(0);
        assert!(store.is_empty());
        assert!(store.restore_at_or_before(0, u64::MAX).is_none());
        store.save(1, 5, &params(1.0), &SgdMomentum::plain());
        // Owner 2 never saved; owner 1's snapshot must not leak to it.
        assert!(store.restore_at_or_before(2, 100).is_none());
        assert!(store.restore(2).is_none());
    }

    /// Exact-version hit at iteration 0 and at the newest version — the
    /// boundaries the scan (`rev().find(<=)`) could get wrong by one.
    #[test]
    fn restore_at_or_before_exact_hits_at_both_ends() {
        let store = CheckpointStore::new(0);
        let opt = SgdMomentum::plain();
        store.save(4, 0, &params(0.0), &opt);
        store.save(4, 7, &params(7.0), &opt);
        let hit = store.restore_at_or_before(4, 0).expect("iteration-0 hit");
        assert_eq!(hit.iteration, 0);
        assert_eq!(hit.params, params(0.0));
        let hit = store.restore_at_or_before(4, 7).expect("newest exact hit");
        assert_eq!(hit.iteration, 7);
        assert_eq!(hit.params, params(7.0));
    }

    /// All versions newer than the requested iteration: a victim preempted
    /// at iteration k cannot resume from a snapshot taken after k (that
    /// would replay the future); the store must return `None` and let the
    /// caller fall back to a cold start.
    #[test]
    fn restore_at_or_before_when_all_versions_are_newer() {
        let store = CheckpointStore::new(0);
        let opt = SgdMomentum::plain();
        for it in [50u64, 60, 70] {
            store.save(9, it, &params(it as f32), &opt);
        }
        assert!(store.restore_at_or_before(9, 49).is_none());
        assert!(store.restore_at_or_before(9, 0).is_none());
        // One iteration later the oldest version becomes eligible.
        assert_eq!(store.restore_at_or_before(9, 50).unwrap().iteration, 50);
    }

    /// Bounded-version eviction racing a restore: one thread keeps saving
    /// (pushing the window forward, evicting old versions) while another
    /// restores at-or-before a moving target. Every restore must return a
    /// self-consistent snapshot (params match the iteration they were saved
    /// with) — never a torn read or a version newer than requested.
    #[test]
    fn bounded_eviction_racing_restore_yields_consistent_snapshots() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let store = Arc::new(CheckpointStore::new(0));
        let opt = SgdMomentum::plain();
        store.save(0, 1, &params(1.0), &opt);
        let done = Arc::new(AtomicBool::new(false));

        let writer = {
            let store = Arc::clone(&store);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let opt = SgdMomentum::plain();
                for it in 2..=400u64 {
                    store.save(0, it, &params(it as f32), &opt);
                }
                done.store(true, Ordering::Release);
            })
        };

        // Restore concurrently with the writer; once it finishes, do a few
        // final reads against the settled store. Each read either misses
        // (the window moved past the bound — legal) or returns a snapshot
        // whose params match its iteration.
        let mut remaining_after_done = 16u32;
        loop {
            if let Some(cp) = store.restore_at_or_before(0, 200) {
                assert!(cp.iteration <= 200, "restored ahead of the bound");
                assert_eq!(
                    cp.params,
                    params(cp.iteration as f32),
                    "torn snapshot: params do not match their iteration"
                );
            }
            if done.load(Ordering::Acquire) {
                remaining_after_done -= 1;
                if remaining_after_done == 0 {
                    break;
                }
            }
        }
        writer.join().unwrap();
        // After the writer finishes, the window has moved past 200 entirely:
        // MAX_VERSIONS newest snapshots all exceed the bound.
        assert_eq!(store.total_versions(), MAX_VERSIONS);
        assert!(store.restore_at_or_before(0, 200).is_none());
        assert_eq!(store.restore_at_or_before(0, 400).unwrap().iteration, 400);
    }

    #[test]
    fn history_is_bounded_and_evicts_oldest() {
        let store = CheckpointStore::new(0);
        let opt = SgdMomentum::plain();
        for it in 1..=10u64 {
            store.save(0, it, &params(it as f32), &opt);
        }
        assert_eq!(store.len(), 1, "one owner");
        assert_eq!(store.total_versions(), MAX_VERSIONS);
        // Oldest surviving snapshot is 10 - MAX_VERSIONS + 1.
        let oldest = 10 - MAX_VERSIONS as u64 + 1;
        assert!(store.restore_at_or_before(0, oldest - 1).is_none());
        assert_eq!(
            store.restore_at_or_before(0, oldest).unwrap().iteration,
            oldest
        );
        // Re-saving an existing iteration replaces in place, no growth.
        store.save(0, 10, &params(99.0), &opt);
        assert_eq!(store.total_versions(), MAX_VERSIONS);
        assert_eq!(store.restore(0).unwrap().params, params(99.0));
    }
}
