//! A blocking round-keyed barrier.
//!
//! No execution path uses [`ElasticBarrier`] any more: the [`crate::Hub`]
//! counts a BSP round's arrivals in its deposit table and answers the
//! members instead of parking them. Its only caller is
//! `perf/src/micro.rs`, whose `runtime.barrier_roundtrip_us` times it.

use std::collections::HashMap;
use std::time::Duration;

use std::sync::{Condvar, Mutex};

/// A round-keyed barrier whose cohort size may change between rounds —
/// the elastic replacement for `std::sync::Barrier`'s fixed count.
///
/// Every live member of round `r` calls `wait(r, expected, ..)` once; the
/// arrival that completes the round closes it and is told so (it plays the
/// BSP leader). Arrivals to an already-closed round pass straight through
/// (their deposit is folded into the next round, ASP-style). With a
/// deadline, the longest-blocked member force-closes a round that cannot
/// fill — the degrade-to-partial-barrier path.
pub struct ElasticBarrier {
    state: Mutex<BarrierState>,
    cv: Condvar,
}

#[derive(Default)]
struct BarrierState {
    /// Arrival counts of rounds still open.
    counts: HashMap<u64, usize>,
    /// Rounds below this are closed.
    closed: u64,
}

impl Default for ElasticBarrier {
    fn default() -> Self {
        Self::new()
    }
}

impl ElasticBarrier {
    pub fn new() -> Self {
        ElasticBarrier {
            state: Mutex::new(BarrierState::default()),
            cv: Condvar::new(),
        }
    }

    /// Arrive at `round` expecting `expected` members. Blocks until the
    /// round closes. Returns `Some(arrived)` for the single closer (the
    /// leader — partial if `arrived < expected`), `None` for everyone
    /// else, including stragglers arriving after the round closed.
    pub fn wait(&self, round: u64, expected: usize, deadline: Option<Duration>) -> Option<usize> {
        let mut s = self.state.lock().unwrap();
        if round < s.closed {
            return None;
        }
        let arrived = {
            let c = s.counts.entry(round).or_insert(0);
            *c += 1;
            *c
        };
        if arrived >= expected {
            s.counts.remove(&round);
            s.closed = round + 1;
            self.cv.notify_all();
            return Some(arrived);
        }
        loop {
            let timed_out = match deadline {
                Some(d) => {
                    let (guard, res) = self.cv.wait_timeout(s, d).unwrap();
                    s = guard;
                    res.timed_out()
                }
                None => {
                    s = self.cv.wait(s).unwrap();
                    false
                }
            };
            if round < s.closed {
                return None;
            }
            if timed_out {
                let arrived = s.counts.remove(&round).unwrap_or(1);
                s.closed = round + 1;
                self.cv.notify_all();
                return Some(arrived);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn closer_sees_arrival_count_and_stragglers_pass() {
        let b = Arc::new(ElasticBarrier::new());
        let b2 = Arc::clone(&b);
        let t = std::thread::spawn(move || b2.wait(0, 2, None));
        std::thread::sleep(Duration::from_millis(10));
        let closer = b.wait(0, 2, None);
        assert_eq!(closer, Some(2));
        assert_eq!(t.join().unwrap(), None);
        // Round already closed: pass straight through.
        assert_eq!(b.wait(0, 2, None), None);
    }

    #[test]
    fn deadline_force_closes_partial_round() {
        let b = ElasticBarrier::new();
        let arrived = b.wait(3, 2, Some(Duration::from_millis(20)));
        assert_eq!(arrived, Some(1), "partial close by the lone waiter");
        assert_eq!(b.wait(3, 2, None), None, "round is closed afterwards");
    }
}
