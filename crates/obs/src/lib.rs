//! Structured tracing for dtrain.
//!
//! The paper's analysis (§VI, Fig. 3–4) decomposes every worker iteration
//! into compute / local-aggregation / global-aggregation / communication
//! time and attributes queueing to specific NICs. Aggregate counters can't
//! answer *where* a wait happened, so this crate records typed events —
//! spans, counters, instants — into per-track ring buffers, stamped with
//! whatever clock the caller owns (simulated nanoseconds from `dtrain-desim`,
//! wall-clock nanoseconds from the threaded runtime).
//!
//! Design constraints, in order:
//!
//! 1. **Disabled means free.** `ObsSink::disabled()` is a `None`; every
//!    recording call is a single branch. Hot loops keep a [`TrackHandle`]
//!    so the enabled path is one uncontended per-track mutex.
//! 2. **Deterministic.** Events carry a per-track sequence number and the
//!    merged view sorts by `(ts, track, seq)`, so a simulator run exports
//!    byte-identical traces every time. The canonical text format in
//!    [`export`] makes the whole event order a diffable artifact.
//! 3. **No upward dependencies.** Timestamps are plain `u64` nanoseconds;
//!    this crate sits below `desim`/`cluster`/`runtime` and is usable from
//!    all of them.

pub mod export;

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

/// The phases of one training iteration, as broken down in Fig. 3 of the
/// paper. Lives here (rather than `dtrain-cluster`, its original home) so
/// both execution paths can tag spans with it; `dtrain-cluster` re-exports
/// it for backward compatibility.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Phase {
    /// Forward + backward computation.
    Compute,
    /// Intra-machine gradient aggregation, including waiting for co-located
    /// workers (BSP's local aggregation).
    LocalAgg,
    /// Server-side / collective aggregation, including waiting for the
    /// result (PS round-trip wait, AllReduce barrier).
    GlobalAgg,
    /// Pure wire time attributable to this worker's own transfers.
    Comm,
}

impl Phase {
    pub const ALL: [Phase; 4] = [
        Phase::Compute,
        Phase::LocalAgg,
        Phase::GlobalAgg,
        Phase::Comm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Phase::Compute => "compute",
            Phase::LocalAgg => "local_agg",
            Phase::GlobalAgg => "global_agg",
            Phase::Comm => "comm",
        }
    }
}

/// Well-known event names, so call sites and tests agree on spelling.
pub mod names {
    /// Span covering one training iteration (Enter/Exit pair).
    pub const ITER: &str = "iter";
    /// Cumulative application-payload bytes a worker has pushed + pulled.
    pub const LOGICAL_BYTES: &str = "logical.bytes";
    /// Bytes of one wire transfer (payload + per-message overhead).
    pub const WIRE_BYTES: &str = "wire.bytes";
    /// Nanoseconds of queue already pending at a machine's TX NIC.
    pub const NIC_TX_QUEUE: &str = "nic.tx_queue_ns";
    /// Nanoseconds of queue already pending at a machine's RX NIC.
    pub const NIC_RX_QUEUE: &str = "nic.rx_queue_ns";
    /// SSP staleness observed by a worker at iteration end.
    pub const STALENESS: &str = "staleness";
    /// Number of workers currently parked at a barrier / board.
    pub const BARRIER_OCCUPANCY: &str = "barrier.occupancy";
    /// Fault markers.
    pub const CRASH: &str = "fault.crash";
    pub const RESTART: &str = "fault.restart";
    pub const PS_OUTAGE: &str = "fault.ps_outage";
    pub const PS_RECOVER: &str = "fault.ps_recover";
    pub const CKPT_SAVE: &str = "ckpt.save";
    pub const CKPT_RESTORE: &str = "ckpt.restore";
    /// Elastic-membership markers.
    pub const EVICT: &str = "member.evict";
    pub const REJOIN: &str = "member.rejoin";
    pub const SHARD_FAILOVER: &str = "ps.shard_failover";
    pub const RETRY: &str = "net.retry";
    pub const PARTIAL_BARRIER: &str = "barrier.partial";
    /// Collective-schedule phases (spans) and per-chunk byte instants.
    pub const COLL_INTRA_REDUCE: &str = "coll.intra_reduce";
    pub const COLL_INTER_RING: &str = "coll.inter_ring";
    pub const COLL_INTRA_BCAST: &str = "coll.intra_bcast";
    pub const COLL_TREE_FANOUT: &str = "coll.tree_fanout";
    pub const COLL_CHUNK_BYTES: &str = "coll.chunk_bytes";
    /// Simulator-kernel scheduling events (from the desim hook).
    pub const K_RESUME: &str = "k.resume";
    pub const K_DELIVER: &str = "k.deliver";
    pub const K_KILL: &str = "k.kill";
    pub const K_SPAWN: &str = "k.spawn";
    /// Gang-scheduler control-plane markers (`dtrain-sched`). Instants on
    /// [`Track::Sched`](crate::Track::Sched) carry the job id as their
    /// value; the per-job segment span lives on
    /// [`Track::Job`](crate::Track::Job).
    pub const SCHED_ADMIT: &str = "sched.admit";
    pub const SCHED_PREEMPT: &str = "sched.preempt";
    pub const SCHED_RESUME: &str = "sched.resume";
    pub const SCHED_SHRINK: &str = "sched.shrink";
    pub const SCHED_GROW: &str = "sched.grow";
    pub const SCHED_COMPLETE: &str = "sched.complete";
    /// Machines currently unassigned (counter on the sched track).
    pub const SCHED_FREE_MACHINES: &str = "sched.free_machines";
    /// Jobs waiting for admission or resumption (counter on the sched track).
    pub const SCHED_QUEUE_DEPTH: &str = "sched.queue_depth";
    /// Span covering one contiguous occupancy of a gang by a job
    /// (admit/resume → preempt/complete), on the job's own track. The
    /// span's `iter` is the job-local iteration the segment started at.
    pub const SCHED_SEGMENT: &str = "sched.segment";
    /// Current gang size of a job in machines (counter on the job track).
    pub const SCHED_GANG: &str = "sched.gang";
    /// The adaptive degradation controller switched strategy mid-run. The
    /// payload encodes the action (see `dtrain_faults::chaos::CtrlAction`).
    pub const CTRL_SWITCH: &str = "ctrl.switch";
}

/// Sentinel for "no iteration associated with this event".
pub const NO_ITER: u64 = u64::MAX;

/// Identity of one timeline. Variant order is the tie-break order when
/// merging tracks recorded at the same timestamp, so it is part of the
/// canonical trace format — do not reorder.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Track {
    /// A training worker (simulated process or runtime thread).
    Worker(u16),
    /// A parameter-server shard.
    Ps(u16),
    /// A physical machine (NIC-level counters).
    Machine(u16),
    /// Threaded-runtime infrastructure (watchdog, coordinator).
    Runtime(u16),
    /// The simulator kernel's own scheduling events.
    Kernel,
    /// The multi-tenant gang scheduler's control plane (`dtrain-sched`).
    /// Appended after [`Track::Kernel`] so the tie-break order of every
    /// pre-existing track — and with it every blessed golden trace — is
    /// unchanged.
    Sched,
    /// One training *job* under the gang scheduler (not a single worker:
    /// a job owns a whole gang of machines).
    Job(u16),
}

impl Track {
    /// Short stable label used in the canonical text format.
    pub fn label(self) -> String {
        match self {
            Track::Worker(i) => format!("w{i}"),
            Track::Ps(i) => format!("ps{i}"),
            Track::Machine(i) => format!("m{i}"),
            Track::Runtime(i) => format!("r{i}"),
            Track::Kernel => "k".to_string(),
            Track::Sched => "sched".to_string(),
            Track::Job(i) => format!("j{i}"),
        }
    }
}

/// One recorded event. `seq` is the per-track record order, which breaks
/// ties among same-timestamp events on one track.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Event {
    pub ts: u64,
    pub track: Track,
    pub seq: u64,
    pub kind: EventKind,
}

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum EventKind {
    /// Open a nested span at `ts` (closed by a matching [`EventKind::Exit`]).
    Enter { name: &'static str, iter: u64 },
    /// Close the innermost open span named `name` on this track.
    Exit { name: &'static str },
    /// A complete span `[ts, ts + dur]`.
    Span {
        name: &'static str,
        dur: u64,
        iter: u64,
    },
    /// A sampled counter value at `ts`.
    Counter { name: &'static str, value: i64 },
    /// A point event at `ts` with an optional payload value.
    Instant { name: &'static str, value: i64 },
}

impl EventKind {
    pub fn name(&self) -> &'static str {
        match *self {
            EventKind::Enter { name, .. }
            | EventKind::Exit { name }
            | EventKind::Span { name, .. }
            | EventKind::Counter { name, .. }
            | EventKind::Instant { name, .. } => name,
        }
    }
}

struct Ring {
    cap: usize,
    buf: VecDeque<Event>,
    next_seq: u64,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, ts: u64, track: Track, kind: EventKind) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(Event {
            ts,
            track,
            seq: self.next_seq,
            kind,
        });
        self.next_seq += 1;
    }
}

struct SinkInner {
    cap: usize,
    tracks: Mutex<Vec<(Track, Arc<Mutex<Ring>>)>>,
}

/// Shared event sink for one run. Cheap to clone; a disabled sink records
/// nothing and costs one branch per call.
#[derive(Clone)]
pub struct ObsSink {
    inner: Option<Arc<SinkInner>>,
}

/// Default per-track ring capacity (events). Oldest events are overwritten
/// past this; `ObsSink::dropped()` reports how many.
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

impl ObsSink {
    /// A sink that records nothing.
    pub fn disabled() -> Self {
        ObsSink { inner: None }
    }

    /// A recording sink with the default ring capacity.
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_RING_CAPACITY)
    }

    /// A recording sink keeping at most `cap` events per track.
    pub fn with_capacity(cap: usize) -> Self {
        ObsSink {
            inner: Some(Arc::new(SinkInner {
                cap: cap.max(1),
                tracks: Mutex::new(Vec::new()),
            })),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Handle for recording onto `track`. Registers the track's ring on
    /// first use; handles for the same track share one ring.
    pub fn track(&self, track: Track) -> TrackHandle {
        let ring = self.inner.as_ref().map(|inner| {
            let mut tracks = inner.tracks.lock();
            match tracks.iter().find(|(t, _)| *t == track) {
                Some((_, ring)) => Arc::clone(ring),
                None => {
                    let ring = Arc::new(Mutex::new(Ring {
                        cap: inner.cap,
                        buf: VecDeque::with_capacity(inner.cap.min(1024)),
                        next_seq: 0,
                        dropped: 0,
                    }));
                    tracks.push((track, Arc::clone(&ring)));
                    ring
                }
            }
        });
        TrackHandle { track, ring }
    }

    /// Non-destructive merged view of every track, sorted by
    /// `(ts, track, seq)`. Deterministic for a deterministic recording.
    pub fn snapshot(&self) -> Vec<Event> {
        let Some(inner) = self.inner.as_ref() else {
            return Vec::new();
        };
        let rings: Vec<Arc<Mutex<Ring>>> = inner
            .tracks
            .lock()
            .iter()
            .map(|(_, r)| Arc::clone(r))
            .collect();
        let mut out = Vec::new();
        for ring in rings {
            out.extend(ring.lock().buf.iter().copied());
        }
        out.sort_by_key(|e| (e.ts, e.track, e.seq));
        out
    }

    /// Total events overwritten across all rings.
    pub fn dropped(&self) -> u64 {
        let Some(inner) = self.inner.as_ref() else {
            return 0;
        };
        let rings: Vec<Arc<Mutex<Ring>>> = inner
            .tracks
            .lock()
            .iter()
            .map(|(_, r)| Arc::clone(r))
            .collect();
        rings.iter().map(|r| r.lock().dropped).sum()
    }
}

/// Cached recording handle for one track. Clone-cheap; all clones share
/// the track's ring. Disabled handles (from a disabled sink) are no-ops.
#[derive(Clone)]
pub struct TrackHandle {
    track: Track,
    ring: Option<Arc<Mutex<Ring>>>,
}

impl TrackHandle {
    /// A handle that records nothing (for default-constructed holders).
    pub fn noop(track: Track) -> Self {
        TrackHandle { track, ring: None }
    }

    pub fn is_enabled(&self) -> bool {
        self.ring.is_some()
    }

    pub fn track(&self) -> Track {
        self.track
    }

    #[inline]
    fn push(&self, ts: u64, kind: EventKind) {
        if let Some(ring) = &self.ring {
            ring.lock().push(ts, self.track, kind);
        }
    }

    #[inline]
    pub fn enter(&self, ts: u64, name: &'static str, iter: u64) {
        self.push(ts, EventKind::Enter { name, iter });
    }

    #[inline]
    pub fn exit(&self, ts: u64, name: &'static str) {
        self.push(ts, EventKind::Exit { name });
    }

    /// Record a complete span starting at `start` lasting `dur` ns.
    #[inline]
    pub fn span(&self, start: u64, dur: u64, name: &'static str, iter: u64) {
        self.push(start, EventKind::Span { name, dur, iter });
    }

    #[inline]
    pub fn counter(&self, ts: u64, name: &'static str, value: i64) {
        self.push(ts, EventKind::Counter { name, value });
    }

    #[inline]
    pub fn instant(&self, ts: u64, name: &'static str, value: i64) {
        self.push(ts, EventKind::Instant { name, value });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = ObsSink::disabled();
        let h = sink.track(Track::Worker(0));
        assert!(!sink.is_enabled());
        assert!(!h.is_enabled());
        h.span(0, 10, "compute", 0);
        assert!(sink.snapshot().is_empty());
    }

    #[test]
    fn snapshot_merges_sorted_and_is_nondestructive() {
        let sink = ObsSink::enabled();
        let w0 = sink.track(Track::Worker(0));
        let w1 = sink.track(Track::Worker(1));
        w1.span(5, 1, "comm", 0);
        w0.span(5, 2, "compute", 0);
        w0.span(1, 1, "compute", 0);
        let snap = sink.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].ts, 1);
        // same ts: worker 0 sorts before worker 1
        assert_eq!(snap[1].track, Track::Worker(0));
        assert_eq!(snap[2].track, Track::Worker(1));
        // non-destructive
        assert_eq!(sink.snapshot().len(), 3);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let sink = ObsSink::with_capacity(4);
        let h = sink.track(Track::Worker(0));
        for i in 0..10u64 {
            h.counter(i, "logical.bytes", i as i64);
        }
        let snap = sink.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(snap[0].ts, 6);
        assert_eq!(sink.dropped(), 6);
    }

    #[test]
    fn same_track_shares_ring() {
        let sink = ObsSink::enabled();
        let a = sink.track(Track::Ps(1));
        let b = sink.track(Track::Ps(1));
        a.instant(1, "fault.crash", -1);
        b.instant(2, "fault.restart", -1);
        let snap = sink.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].seq, 0);
        assert_eq!(snap[1].seq, 1);
    }

    #[test]
    fn track_labels_are_stable() {
        assert_eq!(Track::Worker(3).label(), "w3");
        assert_eq!(Track::Ps(0).label(), "ps0");
        assert_eq!(Track::Machine(2).label(), "m2");
        assert_eq!(Track::Runtime(0).label(), "r0");
        assert_eq!(Track::Kernel.label(), "k");
        assert_eq!(Track::Sched.label(), "sched");
        assert_eq!(Track::Job(5).label(), "j5");
    }

    /// The sched tracks were appended after `Kernel`, so they must sort
    /// after every pre-existing track — the property that keeps all blessed
    /// golden traces byte-stable.
    #[test]
    fn sched_tracks_sort_after_preexisting_tracks() {
        for old in [
            Track::Worker(u16::MAX),
            Track::Ps(u16::MAX),
            Track::Machine(u16::MAX),
            Track::Runtime(u16::MAX),
            Track::Kernel,
        ] {
            assert!(old < Track::Sched);
            assert!(old < Track::Job(0));
        }
        assert!(Track::Sched < Track::Job(0));
    }

    #[test]
    fn phase_names_are_stable() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["compute", "local_agg", "global_agg", "comm"]);
    }
}
