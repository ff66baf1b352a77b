//! The hierarchical BSP exchange, written once for both real execution
//! paths.
//!
//! The simulator's two-level AR-SGD schedule (`dtrain-algos`) charges
//! *modeled* time; this module is its real-execution twin, run by BSP and
//! AR-SGD alike (`worker_body` lowers AR-SGD onto BSP's round: one
//! synchronous mean per round, only the transport differs). Ranks are
//! grouped into synthetic machines of `gpus_per_machine` consecutive ranks
//! — the simulator's placement — and each round runs three legs:
//!
//! 1. **intra-machine reduce** — every non-leader hands its raw gradient
//!    to the group leader (min live rank on the machine); the leader sums
//!    member gradients *ascending by rank* on top of its own.
//! 2. **inter-machine exchange** — leaders run a `leaders`-wide barrier
//!    round depositing `(partial_sum, weight)`; the closer sums partials
//!    ascending by leader rank and scales by `1/Σweight`.
//! 3. **intra-machine broadcast** — each leader fans the fresh parameters
//!    back to its members.
//!
//! Determinism: both levels are the one synchronous-round rule of
//! [`dtrain_nn::rules`] — the leader's [`rank_sum`] over its members, the
//! closer's [`dtrain_nn::rules::round_mean`] over the leaders' partials —
//! so the threaded and process paths run the identical float tree and stay
//! bit-identical under the same schedule, the same pin the flat round
//! holds. The two-level tree groups the ranks differently from a flat
//! round's single rank-ascending sum, so a hierarchical run is *not*
//! bitwise equal to a flat run; it is an equally valid mean of the same
//! gradients.

use std::time::Instant;

use dtrain_cluster::hier_groups;
use dtrain_nn::rules::rank_sum;
use dtrain_nn::ParamSet;
use dtrain_obs::{names, TrackHandle};

use crate::backend::{BspOutcome, ExecBackend};

/// One hierarchical BSP round for the calling worker. `live` is the
/// round's cohort (ascending); `grad` is this worker's raw gradient.
/// Returns the post-aggregation parameters exactly like
/// [`ExecBackend::bsp_exchange`].
#[allow(clippy::too_many_arguments)] // one round's full context, not configuration
pub fn hier_bsp_exchange<B: ExecBackend>(
    backend: &mut B,
    round: u64,
    grad: ParamSet,
    lr: f32,
    live: &[usize],
    gpus_per_machine: usize,
    obs: &TrackHandle,
    wall: &Instant,
) -> BspOutcome {
    let w = backend.rank();
    let groups = hier_groups(live, gpus_per_machine);
    let leaders = groups.len();
    let group = groups
        .iter()
        .find(|g| g.members.contains(&w))
        .expect("caller must be in the live cohort");
    let leader = group.members[0];

    if w != leader {
        // Member: hand the gradient up, wait for the broadcast back.
        backend.coll_send(leader, grad);
        let params = match backend.coll_recv() {
            Some((_, params)) => params,
            // Leader gone mid-round: adopt the global snapshot (what the
            // broadcast would have carried) instead of hanging.
            None => backend.ps_snapshot(),
        };
        return BspOutcome {
            params,
            arrived: None,
            expected: leaders,
        };
    }

    // Leader: gather the machine's gradients, sum rank-ascending.
    let t0 = wall.elapsed().as_nanos() as u64;
    let mut parts: Vec<(usize, ParamSet)> = vec![(w, grad)];
    for _ in 1..group.members.len() {
        // `None` = member died mid-round; degrade to whoever arrived.
        if let Some(item) = backend.coll_recv() {
            parts.push(item);
        }
    }
    let weight = parts.len();
    let partial = rank_sum(parts).expect("leader always holds its own gradient");
    let t1 = wall.elapsed().as_nanos() as u64;
    obs.span(t0, t1 - t0, names::COLL_INTRA_REDUCE, round);

    // Inter-machine leg: the leaders-wide barrier round.
    let out = backend.bsp_exchange_partial(round, partial, weight, lr, leaders);

    // Broadcast the fresh parameters back down the machine.
    for &m in &group.members[1..] {
        backend.coll_send(m, out.params.clone());
    }
    obs.instant(
        wall.elapsed().as_nanos() as u64,
        names::COLL_INTRA_BCAST,
        (group.members.len() - 1) as i64,
    );
    out
}
