//! The parameter-server state the three execution paths share.
//!
//! The centralized family (BSP, ASP, SSP, EASGD) and AR-SGD, whose one
//! synchronous mean per round the real paths take through BSP's round, run
//! against one [`PsState`] per server: the simulator holds one per PS shard
//! (over the shard's parameter slice, or an empty set in a cost-only run),
//! the real paths one for the whole model. It is owned by a
//! [`crate::hub::Hub`], which closes BSP rounds into it; ASP's push, SSP's
//! delta add and the EASGD exchange are its own methods, called by the
//! simulator's PS process, the threaded backend and the process
//! coordinator. Nothing waits here: an SSP rank whose staleness gate is
//! shut parks in the hub, which answers it when a clock bump opens the
//! gate.

use std::sync::{Arc, Mutex};

use dtrain_nn::{ParamSet, SgdMomentum};

/// Centralized shared state: global parameters + optimizer + SSP clocks.
pub struct PsState {
    pub global: Mutex<(ParamSet, SgdMomentum)>,
    pub clocks: Mutex<Vec<u64>>,
}

impl PsState {
    pub fn new(params: ParamSet, momentum: f32, weight_decay: f32, workers: usize) -> Arc<Self> {
        Arc::new(PsState {
            global: Mutex::new((params, SgdMomentum::new(momentum, weight_decay))),
            clocks: Mutex::new(vec![0; workers]),
        })
    }

    /// A BSP round's close, the hub's only: one optimizer step of the
    /// round's mean at `lr`.
    pub fn push(&self, grad: &ParamSet, lr: f32) {
        let (params, opt) = &mut *self.global.lock().unwrap();
        opt.step(params, grad, lr);
    }

    /// SSP's server half: add a worker's applied delta (Ho et al.'s
    /// SSPTable); the worker's `rules::ssp_step` took the optimizer step.
    pub fn add_delta(&self, delta: &ParamSet) {
        self.global.lock().unwrap().0.add_assign(delta);
    }

    /// ASP push: apply `grad` at `lr` and return the fresh global params,
    /// read under the same lock.
    pub fn push_and_pull(&self, grad: &ParamSet, lr: f32) -> ParamSet {
        let (params, opt) = &mut *self.global.lock().unwrap();
        opt.step(params, grad, lr);
        params.clone()
    }

    /// Read-only snapshot of the global parameters.
    pub fn snapshot(&self) -> ParamSet {
        self.global.lock().unwrap().0.clone()
    }

    /// The slowest clock: what an SSP staleness gate compares against.
    pub fn min_clock(&self) -> u64 {
        self.clocks
            .lock()
            .unwrap()
            .iter()
            .copied()
            .min()
            .unwrap_or(0)
    }

    /// Elastic-averaging exchange (EASGD): center pulls toward the worker,
    /// the returned params pull the worker toward the center.
    pub fn elastic_exchange(&self, worker_params: &ParamSet, alpha: f32) -> ParamSet {
        self.global
            .lock()
            .unwrap()
            .0
            .elastic_exchange(worker_params, alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtrain_tensor::Tensor;

    fn ps(v: &[f32]) -> ParamSet {
        ParamSet(vec![Tensor::from_vec(&[v.len()], v.to_vec())])
    }

    #[test]
    fn push_and_pull_applies_gradient() {
        let state = PsState::new(ps(&[1.0, 2.0]), 0.0, 0.0, 2);
        let fresh = state.push_and_pull(&ps(&[1.0, -1.0]), 0.5);
        assert_eq!(fresh.0[0].data(), &[0.5, 2.5]);
        assert_eq!(state.snapshot().0[0].data(), &[0.5, 2.5]);
    }

    #[test]
    fn elastic_exchange_moves_both_sides() {
        let state = PsState::new(ps(&[0.0]), 0.0, 0.0, 1);
        let updated = state.elastic_exchange(&ps(&[10.0]), 0.25);
        // worker pulled toward center: 10 − 0.25·10 = 7.5
        assert_eq!(updated.0[0].data(), &[7.5]);
        // center pulled toward worker: 0 + 0.25·10 = 2.5
        assert_eq!(state.snapshot().0[0].data(), &[2.5]);
    }

    #[test]
    fn min_clock_is_the_slowest_worker() {
        let state = PsState::new(ps(&[0.0]), 0.0, 0.0, 2);
        state.clocks.lock().unwrap()[0] = 5;
        assert_eq!(state.min_clock(), 0, "worker 1 has not moved");
        state.clocks.lock().unwrap()[1] = 4;
        assert_eq!(state.min_clock(), 4);
    }
}
