//! Phase accounting and throughput metrics.
//!
//! Figure 3 of the paper breaks a worker's iteration into compute, local
//! aggregation, global aggregation (both including waiting), and
//! communication. Algorithm processes report each span they spend into a
//! shared [`MetricsHub`]; the harness reads the totals back out.
//!
//! The hub is a thin aggregation layer over `dtrain-obs`: every span-aware
//! record both bumps the per-worker [`Breakdown`] total *and* emits a typed
//! span onto that worker's obs track, so the same instrumentation feeds
//! Fig.-3 totals and Perfetto/canonical-trace timelines.

use std::sync::{Arc, Mutex};

use dtrain_desim::SimTime;
use dtrain_obs::{names, ObsSink, Track, TrackHandle, NO_ITER};

pub use dtrain_obs::Phase;

/// Accumulated per-worker phase times.
#[derive(Clone, Copy, Debug, Default)]
pub struct Breakdown {
    pub compute: SimTime,
    pub local_agg: SimTime,
    pub global_agg: SimTime,
    pub comm: SimTime,
}

impl Breakdown {
    pub fn add(&mut self, phase: Phase, dt: SimTime) {
        match phase {
            Phase::Compute => self.compute += dt,
            Phase::LocalAgg => self.local_agg += dt,
            Phase::GlobalAgg => self.global_agg += dt,
            Phase::Comm => self.comm += dt,
        }
    }

    pub fn get(&self, phase: Phase) -> SimTime {
        match phase {
            Phase::Compute => self.compute,
            Phase::LocalAgg => self.local_agg,
            Phase::GlobalAgg => self.global_agg,
            Phase::Comm => self.comm,
        }
    }

    pub fn total(&self) -> SimTime {
        self.compute + self.local_agg + self.global_agg + self.comm
    }

    /// Fraction of total time in `phase` (0 if nothing recorded).
    pub fn fraction(&self, phase: Phase) -> f64 {
        let total = self.total().as_secs_f64();
        if total == 0.0 {
            0.0
        } else {
            self.get(phase).as_secs_f64() / total
        }
    }
}

struct HubInner {
    per_worker: Vec<Breakdown>,
    iterations: Vec<u64>,
    finish_times: Vec<SimTime>,
}

/// Shared metrics sink for one simulated run.
#[derive(Clone)]
pub struct MetricsHub {
    inner: Arc<Mutex<HubInner>>,
    tracks: Arc<Vec<TrackHandle>>,
}

impl MetricsHub {
    /// Hub with tracing disabled (totals only).
    pub fn new(num_workers: usize) -> Self {
        Self::observed(num_workers, &ObsSink::disabled())
    }

    /// Hub that mirrors every span-aware record onto per-worker obs tracks.
    pub fn observed(num_workers: usize, sink: &ObsSink) -> Self {
        MetricsHub {
            inner: Arc::new(Mutex::new(HubInner {
                per_worker: vec![Breakdown::default(); num_workers],
                iterations: vec![0; num_workers],
                finish_times: vec![SimTime::ZERO; num_workers],
            })),
            tracks: Arc::new(
                (0..num_workers)
                    .map(|w| sink.track(Track::Worker(w as u16)))
                    .collect(),
            ),
        }
    }

    /// The obs track handle for `worker`, for event kinds the hub has no
    /// helper for (counters, fault markers).
    pub fn worker_track(&self, worker: usize) -> &TrackHandle {
        &self.tracks[worker]
    }

    /// Record a `phase` span `[start, start + dur]` for `worker`: adds to
    /// the Breakdown total and emits the span onto the worker's obs track.
    pub fn record_at(&self, worker: usize, phase: Phase, start: SimTime, dur: SimTime) {
        self.inner.lock().unwrap().per_worker[worker].add(phase, dur);
        self.tracks[worker].span(start.as_nanos(), dur.as_nanos(), phase.name(), NO_ITER);
    }

    /// Mark the start of iteration `iter` for `worker` (opens the nesting
    /// span closed by [`Self::finish_iteration`]).
    pub fn begin_iteration(&self, worker: usize, now: SimTime, iter: u64) {
        self.tracks[worker].enter(now.as_nanos(), names::ITER, iter);
    }

    /// Count one finished iteration for `worker` at virtual time `now`.
    pub fn finish_iteration(&self, worker: usize, now: SimTime) {
        {
            let mut inner = self.inner.lock().unwrap();
            inner.iterations[worker] += 1;
            inner.finish_times[worker] = inner.finish_times[worker].max(now);
        }
        self.tracks[worker].exit(now.as_nanos(), names::ITER);
    }

    /// Per-worker breakdowns.
    pub fn breakdowns(&self) -> Vec<Breakdown> {
        self.inner.lock().unwrap().per_worker.clone()
    }

    /// Mean breakdown across workers.
    pub fn mean_breakdown(&self) -> Breakdown {
        let per = self.breakdowns();
        let n = per.len().max(1) as u64;
        let mut out = Breakdown::default();
        for b in &per {
            out.compute += b.compute;
            out.local_agg += b.local_agg;
            out.global_agg += b.global_agg;
            out.comm += b.comm;
        }
        out.compute = out.compute / n;
        out.local_agg = out.local_agg / n;
        out.global_agg = out.global_agg / n;
        out.comm = out.comm / n;
        out
    }

    /// Total iterations across workers.
    pub fn total_iterations(&self) -> u64 {
        self.inner.lock().unwrap().iterations.iter().sum()
    }

    /// Aggregate throughput in images/second of virtual time: the sum of
    /// each worker's own steady-state rate (its images over *its* elapsed
    /// time). Under synchronous algorithms every worker finishes together,
    /// so this equals total-images/end-time; under asynchronous ones it
    /// correctly credits fast workers that keep iterating while a straggler
    /// lags, which is how the paper measures images/sec.
    pub fn throughput(&self, batch: usize) -> f64 {
        let inner = self.inner.lock().unwrap();
        inner
            .iterations
            .iter()
            .zip(&inner.finish_times)
            .map(|(&iters, &t)| {
                let secs = t.as_secs_f64();
                if secs == 0.0 {
                    0.0
                } else {
                    (iters * batch as u64) as f64 / secs
                }
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtrain_obs::{Event, EventKind};

    #[test]
    fn breakdown_accumulates_and_fractions() {
        let mut b = Breakdown::default();
        b.add(Phase::Compute, SimTime::from_secs(3));
        b.add(Phase::Comm, SimTime::from_secs(1));
        assert_eq!(b.total(), SimTime::from_secs(4));
        assert!((b.fraction(Phase::Compute) - 0.75).abs() < 1e-12);
        assert_eq!(b.get(Phase::LocalAgg), SimTime::ZERO);
    }

    #[test]
    fn hub_throughput() {
        let hub = MetricsHub::new(2);
        for w in 0..2 {
            for i in 1..=5u64 {
                hub.finish_iteration(w, SimTime::from_secs(i));
            }
        }
        // 10 iterations × 128 images over 5 s = 256 img/s
        assert!((hub.throughput(128) - 256.0).abs() < 1e-9);
        assert_eq!(hub.total_iterations(), 10);
    }

    #[test]
    fn mean_breakdown_averages_workers() {
        let hub = MetricsHub::new(2);
        let t0 = SimTime::ZERO;
        hub.record_at(0, Phase::Compute, t0, SimTime::from_secs(2));
        hub.record_at(1, Phase::Compute, t0, SimTime::from_secs(4));
        hub.record_at(1, Phase::GlobalAgg, t0, SimTime::from_secs(2));
        let m = hub.mean_breakdown();
        assert_eq!(m.compute, SimTime::from_secs(3));
        assert_eq!(m.global_agg, SimTime::from_secs(1));
    }

    #[test]
    fn phase_names_are_stable() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["compute", "local_agg", "global_agg", "comm"]);
    }

    #[test]
    fn record_at_feeds_both_totals_and_obs_spans() {
        let sink = ObsSink::enabled();
        let hub = MetricsHub::observed(2, &sink);
        hub.begin_iteration(0, SimTime::ZERO, 0);
        hub.record_at(0, Phase::Compute, SimTime::ZERO, SimTime::from_millis(7));
        hub.record_at(
            0,
            Phase::Comm,
            SimTime::from_millis(7),
            SimTime::from_millis(3),
        );
        hub.finish_iteration(0, SimTime::from_millis(10));
        assert_eq!(hub.breakdowns()[0].total(), SimTime::from_millis(10));
        let events: Vec<Event> = sink.snapshot();
        let span_sum: u64 = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Span { dur, .. } => Some(dur),
                _ => None,
            })
            .sum();
        assert_eq!(span_sum, SimTime::from_millis(10).as_nanos());
        assert!(matches!(
            events[0].kind,
            EventKind::Enter {
                name: "iter",
                iter: 0
            }
        ));
        assert!(matches!(
            events.last().unwrap().kind,
            EventKind::Exit { name: "iter" }
        ));
    }

    /// Reading the hub mid-run is purely observational: records made after
    /// a read keep accumulating into the totals, and the copy read stays
    /// as it was.
    #[test]
    fn a_mid_run_read_drops_nothing() {
        let hub = MetricsHub::new(1);
        hub.record_at(0, Phase::Compute, SimTime::ZERO, SimTime::from_secs(1));
        hub.finish_iteration(0, SimTime::from_secs(1));

        let mid = hub.breakdowns();
        assert_eq!(mid[0].compute, SimTime::from_secs(1));
        assert_eq!(hub.total_iterations(), 1);

        // Recording continues after the mid-run read...
        let (t1, dt) = (SimTime::from_secs(1), SimTime::from_secs(2));
        hub.record_at(0, Phase::Compute, t1, dt);
        hub.finish_iteration(0, SimTime::from_secs(3));

        // ...and the final totals include everything from both halves.
        assert_eq!(hub.breakdowns()[0].compute, SimTime::from_secs(3));
        assert_eq!(hub.total_iterations(), 2);
        assert_eq!(mid[0].compute, SimTime::from_secs(1));
    }

    /// Under a concurrent writer, `throughput` pairs each iteration count
    /// with its own finish time: after iteration `i` at `i` ns, every read
    /// is one iteration per nanosecond.
    #[test]
    fn concurrent_throughput_reads_never_tear() {
        let hub = MetricsHub::new(1);
        let writer = {
            let hub = hub.clone();
            std::thread::spawn(move || {
                for i in 1..=2000u64 {
                    hub.finish_iteration(0, SimTime::from_nanos(i));
                }
            })
        };
        for _ in 0..200 {
            let rate = hub.throughput(1);
            assert!(
                rate == 0.0 || (rate - 1e9).abs() < 1.0,
                "throughput paired an iteration count with a foreign finish time: {rate}"
            );
        }
        writer.join().expect("writer panicked");
        assert_eq!(hub.total_iterations(), 2000);
    }
}
