//! The aggregation rules of the seven algorithms, written once: the
//! simulator (`dtrain-algos`) and the real paths (`dtrain-runtime`'s worker
//! body and hub) differ in *when* they aggregate, never in *what* an
//! aggregation does. DESIGN.md §3b ("One update rule per algorithm") lists
//! each rule's caller on every path.
//!
//! The synchronous round (BSP, AR-SGD, hierarchical BSP) sums its deposits
//! ascending by rank ([`rank_sum`]), scales once by `1/Σweight`
//! ([`round_mean`]) and takes one optimizer step of that mean at the full
//! learning rate, so weight decay is λ at every worker count. A round closed
//! short of its cohort divides by the weight that arrived; a deposit for a
//! round already closed is dropped. GoSGD merges a share by its weight
//! ([`gossip_merge`]) and an AD-PSGD pair meets at its midpoint
//! ([`adpsgd_midpoint`]). SSP is Ho et al.'s SSPTable on every
//! path: the worker takes its own optimizer step on its cache and pushes
//! the applied delta ([`ssp_step`]), and the server adds it
//! ([`ParamSet::add_assign`]); no optimizer steps on the server.

use crate::network::Network;
use crate::optim::SgdMomentum;
use crate::params::ParamSet;

/// Sum `parts` ascending by rank, in place on the lowest rank's set;
/// `None` when there are none. A machine leader's sum of its members.
pub fn rank_sum(mut parts: Vec<(usize, ParamSet)>) -> Option<ParamSet> {
    parts.sort_by_key(|&(rank, _)| rank);
    let mut it = parts.into_iter();
    let (_, mut acc) = it.next()?;
    for (_, p) in it {
        acc.add_assign(&p);
    }
    Some(acc)
}

/// The mean gradient of one synchronous round. A deposit is keyed by its
/// sender's rank and carries `(sum, weight)`, a sum over `weight` ranks'
/// gradients (1 for a worker's own). Its bits do not depend on the order
/// the deposits arrived in. Panics on a round without deposits.
pub fn round_mean(deposits: impl IntoIterator<Item = (usize, (ParamSet, usize))>) -> ParamSet {
    let mut total = 0;
    let parts = deposits.into_iter().map(|(rank, (p, w))| {
        total += w;
        (rank, p)
    });
    let mut sum = rank_sum(parts.collect()).expect("a round closes with at least one deposit");
    sum.scale(1.0 / total.max(1) as f32);
    sum
}

/// GoSGD's merge (Blot et al.): a share `(x_r, α_r)` moves the replica to
/// `(α·x + α_r·x_r) / (α + α_r)` and the weight `α` to `α + α_r`. Without a
/// replica (a cost-only simulation) only the weight moves.
pub fn gossip_merge(alpha: &mut f32, share_alpha: f32, replica: Option<(&mut Network, &ParamSet)>) {
    let merged = *alpha + share_alpha;
    if let Some((net, share)) = replica {
        let mut x = net.get_params();
        x.lerp(share, share_alpha / merged);
        net.set_params(&x);
    }
    *alpha = merged;
}

/// AD-PSGD's atomic averaging (Lian et al.): the passive moves its replica
/// to the midpoint of its own and the active's `x_a`, and returns that same
/// midpoint, which the active adopts, so neither side's updates are lost.
pub fn adpsgd_midpoint(net: &mut Network, x_a: &ParamSet) -> ParamSet {
    let mut mid = net.get_params();
    mid.lerp(x_a, 0.5);
    net.set_params(&mid);
    mid
}

/// SSP's worker half: one optimizer step of `grad` at `lr` on the cache;
/// returns the applied delta `after − before`, which the server adds.
pub fn ssp_step(net: &mut Network, opt: &mut SgdMomentum, grad: &ParamSet, lr: f32) -> ParamSet {
    let before = net.get_params();
    net.sgd_step(opt, grad, lr);
    let mut delta = net.get_params();
    delta.axpy(-1.0, &before);
    delta
}
